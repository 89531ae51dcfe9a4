"""``pytest bench/tests`` — run from the repo root.

The tests import ``repro`` from this checkout the same way the
benchmark does (``bench.runtime.bootstrap``), so ``PYTHONPATH=src`` is
not required.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench import runtime  # noqa: E402

runtime.bootstrap()
