"""Same seed, same request list — in this process and in another."""

import json
import subprocess
import sys

import pytest

from bench import runtime, spec
from bench.workloads import registry

N = 130  # spans two rpc-small blocks


@pytest.mark.parametrize("name", spec.WORKLOAD_NAMES)
def test_same_seed_same_requests(name):
    cls = registry()[name]
    a = [cls(11).describe(i) for i in range(N)]
    b_workload = cls(11)
    b = [b_workload.describe(i) for i in reversed(range(N))][::-1]
    assert a == b
    json.dumps(a)  # descriptions are plain data


@pytest.mark.parametrize("name", [
    "route-ftree", "route-torus", "rpc-small", "campaign-torus",
    "simulate-torus"])
def test_other_seed_other_requests(name):
    cls = registry()[name]
    assert [cls(11).describe(i) for i in range(N)] \
        != [cls(12).describe(i) for i in range(N)]


def test_request_list_survives_a_process_boundary():
    """Nothing in the derivation depends on per-process hash salt."""
    code = ("import json,sys; sys.path.insert(0, %r);"
            "from bench import runtime; runtime.bootstrap();"
            "from bench.workloads import registry;"
            "w = registry()['rpc-small'](11);"
            "print(json.dumps([w.describe(i) for i in range(%d)]))"
            % (str(runtime.ROOT), N))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True).stdout
    here = registry()["rpc-small"](11)
    assert json.loads(out) == [here.describe(i) for i in range(N)]
