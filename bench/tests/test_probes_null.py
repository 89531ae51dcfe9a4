"""A probe that no longer imports becomes ``null`` plus a reason."""

from bench import harness, probes
from bench.workloads import registry


def test_resolve_reports_missing_names():
    table = {"ok": "json:dumps", "no_module": "no_such_module_xyz:f",
             "no_attr": "json:no_such_function"}
    found, missing = probes.resolve(
        ["ok", "no_module", "no_attr", "unlisted"], table)
    assert set(found) == {"ok"}
    assert "ModuleNotFoundError" in missing["no_module"]
    assert "AttributeError" in missing["no_attr"]
    assert "no probe named" in missing["unlisted"]


def test_every_probe_resolves_at_this_commit():
    found, missing = probes.resolve(list(probes.PROBES))
    assert missing == {}
    assert set(found) == set(probes.PROBES)


def test_traced_run_survives_a_deleted_function(monkeypatch):
    monkeypatch.setitem(probes.PROBES, "select_root",
                        "repro.core.root:select_root_was_deleted")
    workload = registry()["route-ftree"](1)
    record = harness.measure(workload, harness.Budget(seconds=0.5), trace=True,
                             import_s=0.0, quick=True)
    assert "select_root" in record["notes"]
    assert "composed" in record["notes"]
    assert record["per_layer"]["core.root.select_s"] is None
    assert record["per_layer"]["core.kernels.route_batch_s"] is None
    # what does not depend on the probe is still measured
    assert record["per_layer"]["network.build_s"] > 0
    assert record["failed"] == 0 and record["correct"]
