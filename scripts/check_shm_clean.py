#!/usr/bin/env python3
"""CI check: no shared-memory fabric segment survives a job.

Every segment the fabric creates is named ``repro_fab_*`` and unlinked
by its creator — on release, ``fabric.shutdown()`` or ``atexit`` — so
once a job's processes have exited, anything of that name left in
``/dev/shm`` is a leak.

Exit status 0 when clean (or the platform has no ``/dev/shm``), 1 with
the leaked names otherwise.  Run as::

    python scripts/check_shm_clean.py
"""

from __future__ import annotations

import sys
from pathlib import Path

SHM_DIR = Path("/dev/shm")
SEGMENT_PREFIX = "repro_fab_"  # repro.engine.fabric.SEGMENT_PREFIX


def main() -> int:
    if not SHM_DIR.is_dir():
        return 0
    leaked = sorted(p.name for p in SHM_DIR.glob(f"{SEGMENT_PREFIX}*"))
    if not leaked:
        return 0
    print("::error::shared-memory fabric leaked /dev/shm segments",
          file=sys.stderr)
    for name in leaked:
        print(f"  {SHM_DIR / name}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
