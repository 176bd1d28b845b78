"""Process-state helpers (Linux /proc) for tests and chaos scripts that
watch pool workers."""

import glob
import os
import time

#: the kernel exposes per-thread child lists (CONFIG_PROC_CHILDREN)
HAVE_PROC_CHILDREN = os.path.exists(
    f"/proc/{os.getpid()}/task/{os.getpid()}/children")


def children(pid: int) -> set:
    """Pids of ``pid``'s children, whichever of its threads forked them."""
    found = set()
    for path in glob.glob(f"/proc/{pid}/task/*/children"):
        try:
            with open(path) as fh:
                found.update(int(child) for child in fh.read().split())
        except OSError:
            pass  # the thread exited meanwhile
    return found


def running(pid: int) -> bool:
    """True while any thread of ``pid`` has not exited.

    A process whose threads have all exited counts as gone even as a
    zombie: an orphan stays one where pid 1 does not reap, and
    ``os.kill(pid, 0)`` still succeeds on it.  The main thread reads
    ``Z`` in ``/proc`` while another thread is still running, so every
    thread's state is read.
    """
    for path in glob.glob(f"/proc/{pid}/task/*/stat"):
        try:
            with open(path) as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except (OSError, IndexError):
            continue  # the thread exited meanwhile
        if state not in ("Z", "X"):
            return True
    return False


def still_running(pids, within: float) -> set:
    """Poll up to ``within`` seconds; the pids that are still running."""
    deadline = time.monotonic() + within
    while True:
        alive = {pid for pid in pids if running(pid)}
        if not alive or time.monotonic() >= deadline:
            return alive
        time.sleep(0.05)
