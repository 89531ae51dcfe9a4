"""Process-level plumbing: import path, daemon child, deadlines, leaks.

Everything here exists so that a hang or a crash becomes a *counted
failure* and never a stuck run or a leaked ``/dev/shm`` segment: the
daemon is a child in its own process group that is always signalled
and waited for, every op runs under a deadline, and the shared-memory
directory is compared before and after each workload.
"""

from __future__ import annotations

import os
import resource
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Set

#: the checkout this package sits in
ROOT = Path(__file__).resolve().parent.parent
#: scratch output of the benchmark (trace files, daemon logs); ignored
OUT_DIR = ROOT / "bench" / "out"
#: seconds before one op is abandoned and counted as failed
OP_TIMEOUT_S = 60.0
_SHM_DIR = Path("/dev/shm")
_SHM_PREFIX = "repro"


def bootstrap() -> None:
    """Make ``repro`` importable from this checkout and pin defaults.

    The program under test is ``<checkout>/src/repro`` and nothing
    else: an installed copy elsewhere must not be measured by accident,
    so a checkout without ``src/repro`` is an error.  Every ``REPRO_*``
    knob is removed from the environment — the benchmark measures the
    defaults — and ``PYTHONPATH`` is set for the daemon and pool
    children.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"bench: no program to measure: {src / 'repro'} is missing")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(ROOT)] + ([inherited] if inherited else []))


# -- deadlines ------------------------------------------------------------------

class OpTimeout(Exception):
    """An op ran past :data:`OP_TIMEOUT_S`."""


@contextmanager
def deadline(seconds: float = OP_TIMEOUT_S) -> Iterator[None]:
    """Raise :class:`OpTimeout` in the main thread after ``seconds``.

    ``SIGALRM`` interrupts pure-Python compute between bytecodes, which
    is what every in-process op is.  Off the main thread (the second
    ``rpc-small`` connection) the context is a no-op: those ops carry
    the client's own RPC timeout instead.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def on_alarm(_signum, _frame):
        raise OpTimeout(f"op exceeded {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def terminate_as_exit() -> None:
    """Turn SIGTERM into ``SystemExit`` so ``finally`` blocks (daemon
    reaping, fabric shutdown) also run when the run is killed politely."""
    def on_term(_signum, _frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, on_term)


# -- descendants ----------------------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the one orphaned descendants are handed to
    (Linux ``prctl(PR_SET_CHILD_SUBREAPER)``), so that a grandchild
    whose parent has ended — the daemon's resource tracker, a pool
    worker of a killed daemon — can still be waited for here instead of
    lingering under init after the run."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids whose parent is this process (zombies included)."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                # "pid (comm) state ppid ..."; comm may hold spaces
                fields = fh.read().rsplit(b")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def reap_descendants(grace_s: float = 5.0) -> None:
    """End and wait for every process this one started or adopted; on
    return it has no child left, running or zombie.  The last thing a
    run does, on every path out of it.

    ``multiprocessing``'s resource tracker (started by the first shm
    segment of the table store) is the one child nothing else stops: it
    ends only when its pipe closes, which without this is after its
    parent has gone.  It is stopped the way the interpreter would, then
    whatever else is left gets SIGTERM, ``grace_s`` seconds, SIGKILL.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # private API: fall through to the signals
        pass
    give_up = time.monotonic() + grace_s
    signalled = False
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        late = time.monotonic() >= give_up
        if not signalled or late:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL if late
                            else signal.SIGTERM)
                except (ProcessLookupError, PermissionError):
                    pass
            signalled = True
        time.sleep(0.01)


# -- shared memory --------------------------------------------------------------

def shm_segments() -> Set[str]:
    """Names of the ``repro`` segments currently in ``/dev/shm``."""
    try:
        return {p.name for p in _SHM_DIR.iterdir()
                if p.name.startswith(_SHM_PREFIX)}
    except OSError:
        return set()


def unlink_segments(names: Set[str]) -> None:
    """Remove leaked segments so one failed workload cannot fail the
    leak check of the next."""
    for name in names:
        try:
            (_SHM_DIR / name).unlink()
        except OSError:
            pass


# -- memory ---------------------------------------------------------------------

def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant, MB
    (``ru_maxrss`` is KiB on Linux).  Call after the daemon and the
    fabric pool have been waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- the daemon child -----------------------------------------------------------

class DaemonError(RuntimeError):
    pass


def _sigint_when_parent_dies() -> None:
    """Child side, between fork and exec: ask the kernel to send SIGINT
    (the daemon's clean-shutdown signal) should this process die first,
    so even a SIGKILLed benchmark leaves no daemon behind (Linux
    ``prctl(PR_SET_PDEATHSIG)``; skipped where libc lacks it)."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(1, int(signal.SIGINT))
    except (OSError, AttributeError):
        pass


class Daemon:
    """A ``repro serve`` child on loopback tcp, in its own process group.

    ``stop()`` is idempotent and always ends with the child waited for:
    SIGINT first (the daemon's clean path: listeners closed, exports
    unlinked), then SIGTERM and SIGKILL to the whole group so pool
    workers cannot outlive it.
    """

    START_TIMEOUT_S = 30.0

    def __init__(self, extra_args: List[str], log_name: str) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self._log = open(OUT_DIR / f"daemon-{log_name}.log", "wb")
        self.address: Optional[str] = None
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--bind", "tcp://127.0.0.1:0", *extra_args],
            stdout=subprocess.PIPE, stderr=self._log,
            cwd=str(ROOT), start_new_session=True,
            preexec_fn=_sigint_when_parent_dies)
        try:
            self.address = self._read_address()
        except BaseException:
            self.stop()
            raise

    def _read_address(self) -> str:
        assert self._proc.stdout is not None
        fd = self._proc.stdout.fileno()
        give_up = time.monotonic() + self.START_TIMEOUT_S
        buf = b""
        while b"\n" not in buf:
            left = give_up - time.monotonic()
            if left <= 0:
                raise DaemonError("daemon did not report its address "
                                  f"within {self.START_TIMEOUT_S:g} s")
            ready, _, _ = select.select([fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise DaemonError(
                    f"daemon exited with code {self._proc.wait()} "
                    "before listening")
            buf += chunk
        line = buf.split(b"\n", 1)[0].decode().strip()
        prefix = "listening on "
        if not line.startswith(prefix):
            raise DaemonError(f"unexpected daemon output: {line!r}")
        return line[len(prefix):]

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self._proc.pid, signum)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self) -> None:
        proc = self._proc
        if proc.poll() is None:
            # the daemon alone first: SIGINT is its clean shutdown, which
            # also tells its pool workers to finish
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self._signal_group(signal.SIGTERM)
                try:
                    proc.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    pass
        # whatever is left of the group (pool workers of a killed daemon)
        self._signal_group(signal.SIGKILL)
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        if not self._log.closed:
            self._log.close()
