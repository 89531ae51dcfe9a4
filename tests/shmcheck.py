"""The one /dev/shm leak probe of the test suite.

A module of its own rather than a ``conftest.py`` function: with
``tests/service/conftest.py`` loaded, ``from conftest import ...`` in
another directory's test module resolves to the wrong file.
"""

import os
import re

from repro.engine import fabric


def shm_leaks(pid=None):
    """Fabric segments process ``pid`` (default: this one) created that
    are still present in /dev/shm (empty when healthy).  Only the
    creator ever unlinks and every segment name ends in the creator's
    pid, so the check holds under pytest-xdist, where sibling workers
    own segments too."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # non-POSIX platform: nothing to check
        return []
    owner = pid or os.getpid()
    mine = re.compile(
        rf"{re.escape(fabric.SEGMENT_PREFIX)}.*_{owner:x}(_\d+)?$")
    return sorted(name for name in os.listdir(shm_dir) if mine.match(name))
