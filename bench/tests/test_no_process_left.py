"""No process may outlive a run: the resource tracker, a plain child
and an orphaned grandchild are all ended and waited for."""

import subprocess
import sys
import textwrap

from bench import runtime

# Runs in a process of its own, so that pytest is not made a subreaper:
# start the three kinds of descendant a run can leave, reap, and report
# what is still there.
_SCRIPT = textwrap.dedent("""
    import subprocess, sys, time
    from multiprocessing import resource_tracker, shared_memory
    from bench import runtime

    runtime.adopt_orphans()
    shm = shared_memory.SharedMemory(create=True, size=64)  # the tracker
    shm.close(); shm.unlink()
    assert resource_tracker._resource_tracker._pid is not None
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    child = subprocess.Popen(sleeper)
    # a grandchild whose parent ends at once: handed to this process
    subprocess.run([sys.executable, "-c",
                    "import subprocess, sys; "
                    f"subprocess.Popen({sleeper!r})"], check=True)
    deadline = time.monotonic() + 5
    while len(runtime._children()) < 3 and time.monotonic() < deadline:
        time.sleep(0.01)
    before = len(runtime._children())
    runtime.reap_descendants(grace_s=2.0)
    print(before, len(runtime._children()))
""")


def test_reap_leaves_no_child():
    out = subprocess.run([sys.executable, "-c", _SCRIPT],
                         cwd=str(runtime.ROOT), check=True, text=True,
                         stdout=subprocess.PIPE, timeout=60).stdout
    before, after = map(int, out.split())
    assert before == 3  # tracker, child, adopted grandchild
    assert after == 0
