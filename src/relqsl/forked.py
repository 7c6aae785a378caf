"""One piece of work in a forked child beside the caller's own share.

``run_beside(child_work, parent_work)`` forks one child that runs
``child_work`` and sends its bytes back through a pipe, while this process
runs ``parent_work``. Table rendering formats the first half of a large
table this way, and selfcheck draws its homodyne Monte-Carlo counts. The
result never depends on whether a child ran: without a second CPU, after a
failed fork or after a nonzero child exit, ``child_work`` runs in this
process, and whatever it raises reaches the caller.
"""

from __future__ import annotations

import os
from typing import Callable, TypeVar

T = TypeVar("T")


def can_fork() -> bool:
    """Whether os.fork exists and this process may run on two or more CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _child(read_fd: int, write_fd: int, work: Callable[[], bytes]):
    """A forked child's whole life: write work's bytes to the pipe, then exit.

    It first closes the read end it inherited, so the parent holds the only
    reader: should the parent die, even by SIGKILL, the write fails with
    EPIPE instead of blocking forever. It never returns: os._exit skips the
    inherited stdio buffers, the atexit handlers and the caller's stack.
    Status 1 (any exception) tells the parent to run the work itself.
    """
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pipe.write(work())
        status = 0
    finally:
        os._exit(status)


def run_beside(child_work: Callable[[], bytes], parent_work: Callable[[], T]) -> tuple[bytes, T]:
    """(child_work(), parent_work()), the first made in a forked child when can_fork().

    The child is reaped before this returns or raises, also when
    parent_work raises, and exits even if this process is killed. Work
    given to the child should not call BLAS: a child forked beside BLAS
    threads can wait on a lock that no thread of its own will release.
    """
    pid = None
    if can_fork():
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        mine = parent_work()
        return child_work(), mine
    if pid == 0:
        _child(read_fd, write_fd, child_work)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            mine = parent_work()
            theirs = pipe.read()
    finally:
        # with the only read end closed, the child's write fails and it exits
        status = os.waitpid(pid, 0)[1]
    return (theirs if status == 0 else child_work()), mine
