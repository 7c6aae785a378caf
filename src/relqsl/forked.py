"""One piece of work in a forked child beside the caller's own share.

``write_beside(child_work, parent_work, out)`` forks one child that writes
``child_work``'s bytes straight to ``out``, a descriptor it shares with
this process (a file or stdout), while this process runs ``parent_work``;
the caller appends after them. Table rendering writes the first half of a
large table this way. ``run_beside`` passes the bytes back through an
unnamed temporary file instead, for selfcheck's homodyne Monte-Carlo
draws and for the even parity block of a large Fock solve. The result
never depends on whether a child ran: without a second CPU, after a failed
fork or after a nonzero child exit, ``child_work`` runs in this process,
and whatever it raises reaches the caller. Before that rerun, out is cut
back to where the failed child began; an out that cannot seek (a pipe, a
terminal) raises OSError.
"""

from __future__ import annotations

import contextlib
import errno
import os
import tempfile
from typing import Callable, TypeVar

T = TypeVar("T")


def can_fork() -> bool:
    """Whether os.fork exists and this process may run on two or more CPUs."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def write_beside(child_work: Callable[[], bytes], parent_work: Callable[[], T], out: int) -> T:
    """parent_work(), once child_work()'s bytes are in out, written by a
    forked child when can_fork().

    The child is reaped before this returns or raises, also when
    parent_work raises. It leaves through os._exit, past the inherited
    stdio buffers, the atexit handlers and the caller's stack; status 1
    (any exception) tells this process to run the work itself. Work given
    to a child may call numpy's BLAS and LAPACK: numpy's OpenBLAS runs its
    threads on pthreads and shuts its pool down before a fork, so the child
    starts a pool of its own. A BLAS built with OpenMP is not covered: a
    child forked after an OpenMP parallel region can wait on threads that
    do not exist in it.
    """
    start = pid = None
    with contextlib.suppress(OSError):  # a pipe or a terminal cannot seek
        start = os.lseek(out, 0, os.SEEK_CUR)
    with contextlib.suppress(OSError):
        pid = os.fork() if can_fork() else None
    if pid == 0:
        status = 1
        try:
            _write_all(out, child_work())
            status = 0
        finally:
            os._exit(status)
    try:
        mine = parent_work()
    finally:
        status = os.waitpid(pid, 0)[1] if pid else 0
    if status and start is None:
        raise OSError(errno.ESPIPE, "a failed child's part of the output cannot be taken back")
    if status:
        os.ftruncate(out, start)
        os.lseek(out, start, os.SEEK_SET)
    if status or pid is None:
        _write_all(out, child_work())
    return mine


def run_beside(child_work: Callable[[], bytes], parent_work: Callable[[], T]) -> tuple[bytes, T]:
    """(child_work(), parent_work()), through ``write_beside`` into an unnamed temporary file."""
    with tempfile.TemporaryFile(buffering=0) as spool:
        mine = write_beside(child_work, parent_work, spool.fileno())
        spool.seek(0)
        return spool.read(), mine
