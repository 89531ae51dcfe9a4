#!/usr/bin/env python3
"""CI check: no shared-memory fabric segment and no fabric process
survives a job.

Every segment the fabric creates is named ``repro_fab_*`` and unlinked
by its creator — on release, ``fabric.shutdown()`` or ``atexit`` — so
once a job's processes have exited, anything of that name left in
``/dev/shm`` is a leak.  The same holds for the processes themselves:
a ``repro serve`` daemon, or a process still mapping a fabric segment
(a pool worker that outlived its parent), is a leak too.

Exit status 0 when clean (or the platform has no ``/dev/shm`` /
``/proc``), 1 with the leaked names and pids otherwise.  Run as::

    python scripts/check_shm_clean.py
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import List, Tuple

SHM_DIR = Path("/dev/shm")
PROC_DIR = Path("/proc")
SEGMENT_PREFIX = "repro_fab_"  # repro.engine.fabric.SEGMENT_PREFIX


def leaked_segments() -> List[str]:
    if not SHM_DIR.is_dir():
        return []
    return sorted(p.name for p in SHM_DIR.glob(f"{SEGMENT_PREFIX}*"))


def _is_daemon(argv: List[str]) -> bool:
    """``python -m repro.cli serve ...`` or the ``repro serve`` entry
    point (a daemon's forked pool workers share its command line)."""
    return "serve" in argv and any(
        arg == "repro.cli" or Path(arg).name == "repro" for arg in argv)


def surviving_processes() -> List[Tuple[int, str]]:
    """``(pid, command line)`` of every other process of this user
    that is a ``repro serve`` daemon or maps a fabric segment."""
    if not PROC_DIR.is_dir():
        return []
    found = []
    for entry in PROC_DIR.iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            if entry.stat().st_uid != os.getuid():
                continue
            argv = [arg.decode(errors="replace") for arg in
                    (entry / "cmdline").read_bytes().split(b"\0") if arg]
            maps = (entry / "maps").read_text(errors="replace")
        except OSError:  # exited meanwhile, or not ours to read
            continue
        if _is_daemon(argv) or f"{SHM_DIR}/{SEGMENT_PREFIX}" in maps:
            found.append((int(entry.name), " ".join(argv)))
    return sorted(found)


def main() -> int:
    segments = leaked_segments()
    processes = surviving_processes()
    if segments:
        print("::error::shared-memory fabric leaked /dev/shm segments",
              file=sys.stderr)
        for name in segments:
            print(f"  {SHM_DIR / name}", file=sys.stderr)
    if processes:
        print("::error::fabric processes survived the job",
              file=sys.stderr)
        for pid, cmdline in processes:
            print(f"  pid {pid}: {cmdline}", file=sys.stderr)
    return 1 if segments or processes else 0


if __name__ == "__main__":
    sys.exit(main())
