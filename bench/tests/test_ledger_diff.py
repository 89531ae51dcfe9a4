"""``bench diff``: verdicts, refusals, exit codes."""

import copy
import json

import pytest

from bench import ledger, spec

M = spec.END_TO_END_BY_NAME


def test_relative_bound_lower_is_better():
    p50 = M["request_p50_s"]
    assert ledger.verdict(p50, [1.0], [1.0 + p50.bound - 0.01]) == "ok"
    assert ledger.verdict(p50, [1.0], [1.0 + p50.bound + 0.01]) == "worse"
    assert ledger.verdict(p50, [1.0], [0.5]) == "ok"          # got better


def test_relative_bound_higher_is_better():
    rps = M["requests_per_s"]
    assert ledger.verdict(rps, [100.0], [100.0 * (1 - rps.bound) + 1]) == "ok"
    assert ledger.verdict(rps, [100.0], [100.0 * (1 - rps.bound) - 1]) \
        == "worse"
    assert ledger.verdict(rps, [100.0], [200.0]) == "ok"


def test_the_issues_bounds():
    assert (M["request_p50_s"].bound, M["requests_per_s"].bound,
            M["request_p95_s"].bound, M["peak_rss_mb"].bound) \
        == (0.10, 0.10, 0.15, 0.10)
    assert (M["setup_s"].bound, M["setup_s"].abs_slack) == (0.25, 0.3)


def test_medians_of_the_repeats_are_compared():
    p50 = M["request_p50_s"]
    assert ledger.verdict(p50, [1.00, 1.02, 1.04], [1.05, 1.09, 1.07]) == "ok"
    assert ledger.verdict(p50, [1.00, 1.02, 1.04], [1.15, 1.19, 1.17]) \
        == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    p50 = M["request_p50_s"]
    # the old side's own runs differ by more than a tenth
    assert ledger.verdict(p50, [1.0, 1.2, 1.1], [1.1, 1.1, 1.1]) \
        == "unresolved"
    assert ledger.verdict(p50, [1.0, 1.2, 1.1], [1.5, 1.3, 1.4]) \
        == "unresolved"
    # ... unless every new run reads better than every old run
    assert ledger.verdict(p50, [1.0, 1.2, 1.1], [0.9, 0.95, 0.8]) == "ok"
    rps = M["requests_per_s"]
    assert ledger.verdict(rps, [10.0, 12.0, 11.0], [12.5, 13.0, 14.5]) == "ok"
    assert ledger.verdict(rps, [10.0, 12.0, 11.0], [11.5, 13.0, 14.5]) \
        == "unresolved"


def test_setup_has_absolute_slack():
    setup = M["setup_s"]
    # a 0.1 s set-up may double: the slack is absolute
    assert ledger.verdict(setup, [0.1], [0.1 + setup.abs_slack]) == "ok"
    assert ledger.verdict(
        setup, [10.0], [10.0 * (1 + setup.bound) + 0.5]) == "worse"


def test_exact_metrics_report_direction():
    gamma = M["gamma_max"]           # lower is better
    assert ledger.verdict(gamma, [441.0], [441.0]) == "ok"
    assert ledger.verdict(gamma, [441.0], [441.0 + 1e-12]) == "ok"
    assert ledger.verdict(gamma, [441.0], [442.0]) == "worse"
    assert ledger.verdict(gamma, [441.0], [440.0]) == "ok"
    survived = M["events_survived_frac"]   # higher is better
    assert ledger.verdict(survived, [1.0], [0.9]) == "worse"


def test_any_rise_in_failed_frac_is_worse():
    failed = M["failed_frac"]
    assert ledger.verdict(failed, [0.0, 0.0], [0.0, 0.0]) == "ok"
    assert ledger.verdict(failed, [0.0, 0.0], [0.0, 0.001]) == "worse"


def test_missing_value_is_unresolved():
    p95 = M["request_p95_s"]
    assert ledger.verdict(p95, [None], [None]) == "ok"
    assert ledger.verdict(p95, [0.3], [None]) == "unresolved"
    assert ledger.verdict(p95, [None, 0.3], [0.3, 0.3]) == "unresolved"


def _run(p50=1.0, failed=0.0, gamma=441.0, digest="d0"):
    return {"budget": {"ops": 40}, "digest": digest, "correct": True,
            "failures": [],
            "end_to_end": {"setup_s": 1.0, "request_p50_s": p50,
                           "request_p95_s": None, "requests_per_s": 3.0,
                           "failed_frac": failed, "peak_rss_mb": 80.0,
                           "fallback_frac": 0.0, "gamma_max": gamma,
                           "path_len_avg": 5.6}}


def _ledger(backend="python", seed=1, ops=40, **run):
    entry = ledger.summarize([_run(**run), _run(**run)])
    entry["budget"] = {"ops": ops}
    return {"schema": 1, "kind": "run", "seed": seed,
            "machine": {"kernel_backend": backend},
            "workloads": {"route-ftree": entry}}


def test_summarize_takes_medians_and_demands_equal_outputs():
    entry = ledger.summarize([_run(p50=1.0), _run(p50=3.0), _run(p50=1.1)])
    assert entry["correct"]
    assert entry["end_to_end"]["request_p50_s"] == 1.1
    assert entry["end_to_end"]["request_p95_s"] is None
    assert len(entry["runs"]) == 3
    entry = ledger.summarize([_run(failed=0.0), _run(failed=0.5)])
    assert entry["end_to_end"]["failed_frac"] == 0.5
    for other in (_run(gamma=440.0), _run(digest="d1")):
        entry = ledger.summarize([_run(), other])
        assert not entry["correct"]
        assert "differs between repeats" in entry["failures"][0]


def test_diff_rows_and_digest_note():
    old, new = _ledger(), _ledger(p50=2.0, digest="d1")
    rows, notes = ledger.diff(old, new)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["request_p50_s"]["verdict"] == "worse"
    assert by_metric["request_p50_s"]["ratio"] == pytest.approx(2.0)
    assert by_metric["request_p50_s"]["spread"] == "0%/0%"
    assert by_metric["gamma_max"]["verdict"] == "ok"
    assert any("digest changed" in n for n in notes)


@pytest.mark.parametrize("change", [
    {"backend": "numba"}, {"seed": 2}, {"ops": 41},
])
def test_diff_refuses_different_work(change):
    with pytest.raises(ledger.DiffRefused):
        ledger.diff(_ledger(), _ledger(**change))


def test_diff_refuses_traced_runs():
    traced = _ledger()
    traced["kind"] = "trace"
    with pytest.raises(ledger.DiffRefused):
        ledger.diff(traced, copy.deepcopy(traced))


def test_diff_files_exit_codes(tmp_path, capsys):
    def write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    same = write("a.json", _ledger())
    assert ledger.diff_files(same, write("b.json", _ledger())) == 0
    assert ledger.diff_files(same, write("c.json", _ledger(p50=2.0))) == 1
    assert ledger.diff_files(same, write("d.json", _ledger(failed=0.1))) == 1
    assert ledger.diff_files(same, write("e.json", _ledger(seed=9))) == 2
    out = capsys.readouterr()
    assert "verdict" in out.out and "refusing" in out.err
