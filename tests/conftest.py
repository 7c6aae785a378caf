"""Fixtures shared by the tests that fork, reap children or read the CPU count,
and the Hypothesis profile every property test runs under."""

import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import settings

# The same examples on every run, and no example database to replay: a
# property test passes or fails the same way each time it is run.
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def set_cpus(monkeypatch):
    """A function that makes ``os.sched_getaffinity`` report ``cpus`` CPUs for the test."""

    def set_to(cpus: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)

    return set_to


@pytest.fixture
def no_child_left():
    """Fail the test if it leaves a child process unreaped, running or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _has_exited(pid: int) -> bool:
    """Whether a process (not necessarily this one's child) is gone or a zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as status:
            return status.read().rpartition(")")[2].split()[0] in ("Z", "X")
    except FileNotFoundError:
        return True


@pytest.fixture
def children_of_killed_parent():
    """A function that runs Python ``code`` in a new interpreter until it prints
    "stalled", SIGKILLs it, and returns the pids it printed before that (its
    children) with those still alive 20 s later; the latter are then killed.
    """
    if not os.path.isdir("/proc/self"):
        pytest.skip("reads process states from /proc")

    def run(code: str) -> tuple[list[int], list[int]]:
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
        parent = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, env=env)
        children = []
        try:
            for line in parent.stdout:
                if line.strip() == "stalled":
                    break
                children.append(int(line))
        finally:
            parent.kill()
            parent.wait()
            parent.stdout.close()
        deadline = time.monotonic() + 20
        while not all(map(_has_exited, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in children if not _has_exited(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        return children, left

    return run
