"""``BENCHMARK.json`` agrees with ``bench.spec`` and with the format
the PR driver refuses anything outside of."""

import json
import re

from bench import runtime, spec

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def _manifest():
    with open(runtime.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        text = fh.read()
    assert len(text.encode()) <= 64 * 1024
    return json.loads(text)


def test_keys_and_command():
    doc = _manifest()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["bench"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in doc["paths"])
    assert doc["command"] == ["python3", "-m", "bench", "measure"]
    assert isinstance(doc["run_seconds"], int) \
        and 1 <= doc["run_seconds"] <= 60


def test_workloads_match_spec():
    doc = _manifest()
    assert [w["name"] for w in doc["workloads"]] == spec.WORKLOAD_NAMES
    assert 2 <= len(doc["workloads"]) <= 8
    for entry, w in zip(doc["workloads"], spec.WORKLOADS):
        assert set(entry) == {"name", "why"}
        assert entry["why"] == w.why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_matches_spec():
    doc = _manifest()
    listed = doc["end_to_end"]
    assert [m["name"] for m in listed] == \
        [m.name for m in spec.driver_end_to_end()]
    for entry in listed:
        assert set(entry) == {"name", "unit", "better", "bound"}
        m = spec.END_TO_END_BY_NAME[entry["name"]]
        assert (entry["unit"], entry["better"], entry["bound"]) == \
            (m.unit, m.better, m.driver_bound)
        assert 0 < entry["bound"] <= 0.25
    setup = next(m for m in listed if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in listed)


def test_per_layer_matches_spec():
    doc = _manifest()
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    assert listed == spec.driver_per_layer()
    assert 1 <= len(listed) <= 128
    assert all(set(m) == {"name", "unit", "better"}
               for m in doc["per_layer"])
    # every ledger end-to-end metric reaches the driver one way or the other
    names = {n for n, _u, _b in listed}
    for m in spec.END_TO_END:
        assert m.driver_bound is not None \
            or spec.DRIVER_EXTRA_PREFIX + m.name in names


def test_names_and_units_are_well_formed_and_unique():
    doc = _manifest()
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for key in ("end_to_end", "per_layer"):
        for entry in doc[key]:
            assert UNIT.match(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher")


def test_closure_limits_cover_every_workload():
    assert set(spec.CLOSURE_LIMIT) == set(spec.WORKLOAD_NAMES)
