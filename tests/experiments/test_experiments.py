"""Experiment harness tests: each figure's ``check`` passes at reduced
size and names the fact a doctored summary breaks."""

import copy
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.experiments import fig01, fig09, fig10, fig11, scaling, table1
from repro.experiments.common import (
    nue_suite,
    routing_suite,
    run_routing,
)
from repro.experiments.report import format_value, render_table
from repro.routing import Torus2QoSRouting


class TestReport:
    def test_render_table_aligns(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["xx", None]],
                           title="t")
        lines = out.splitlines()
        assert lines[0] == "t"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "-" in lines[-1]  # None renders as '-'

    def test_format_value(self):
        assert format_value(None) == "-"
        assert format_value(0.0) == "0"
        assert format_value(12345.0) == "12,345"
        assert format_value(12.34) == "12.3"
        assert format_value(1.2345) == "1.234"
        assert format_value("x") == "x"


class TestCommon:
    def test_run_routing_success(self, ring6):
        from repro.routing import MinHopRouting
        outcome = run_routing(MinHopRouting(), ring6,
                              compute_required_vcs=True)
        assert outcome.ok
        assert outcome.required_vcs >= 2

    def test_run_routing_not_applicable(self, ring6):
        outcome = run_routing(Torus2QoSRouting(), ring6)
        assert not outcome.ok
        assert "not applicable" in outcome.error

    def test_suites(self):
        assert len(routing_suite(4)) == 8
        assert set(nue_suite(3)) == {"nue-1vl", "nue-2vl", "nue-3vl"}


def assert_check_fails(check, doctored, fact):
    """``check`` rejects the doctored summary, naming the broken fact."""
    with pytest.raises(AssertionError, match="shape check failed") as exc:
        check(doctored)
    assert fact in str(exc.value)


class TestHarnesses:
    """Every figure's harness at reduced size: its ``check`` passes on
    the run and fails on a doctored copy of it."""

    def test_table1(self, capsys, tmp_path):
        out = tmp_path / "t1.json"
        rows = table1.run(seed=1, json_path=str(out))
        assert len(rows) == 7
        printed = capsys.readouterr().out
        assert "Tab. 1" in printed
        payload = json.loads(out.read_text())
        assert set(payload) == {"meta", "data"}
        assert payload["meta"]["experiment"] == "table1"
        assert payload["meta"]["seed"] == 1
        assert payload["meta"]["runtime_s"] >= 0
        assert payload["data"]["rows"] == rows
        table1.check(rows)

        doctored = copy.deepcopy(rows)
        doctored[-1]["channels"] = 3384  # the paper's, not our substitute's
        assert_check_fails(table1.check, doctored, "tsubame2.5 channels")

    def test_fig01(self, capsys):
        rows = fig01.run(seed=1, sample_phases=40)
        assert "Fig. 1" in capsys.readouterr().out
        fig01.check(rows)

        doctored = copy.deepcopy(rows)
        for row in doctored:
            if row["routing"] == "nue-4vl":
                row["throughput_gbs"] = 1.0
        assert_check_fails(fig01.check, doctored, "nue-4vl beats nue-1vl")

    def test_fig09_tiny(self, capsys, tmp_path):
        out = tmp_path / "f9.json"
        summary = fig09.run(
            n_topologies=1, max_k=8, seed=2016,
            n_switches=40, n_links=200, terminals_per_switch=4,
            json_path=str(out),
        )
        assert set(summary) == {
            *(f"nue-{k}vl" for k in range(1, 9)), "lash", "dfsssp"}
        for stats in summary.values():
            assert stats["max"] >= stats["min"] >= 0
        assert "Fig. 9" in capsys.readouterr().out
        fig09.check(summary)

        doctored = copy.deepcopy(summary)
        doctored["nue-8vl"]["maxlen"] = doctored["dfsssp"]["maxlen"] + 3
        assert_check_fails(fig09.check, doctored,
                           "max path length(nue-8vl)")

    def test_fig10_single_topology(self, capsys):
        table = fig10.run(
            paper_scale=False, max_vls=8, sample_phases=24, seed=1,
            only=["torus-4x4x3", "4-ary-3-tree", "random"],
        )
        assert set(table) == {"torus-4x4x3", "4-ary-3-tree", "random"}
        row = table["torus-4x4x3"]
        assert row["torus-2qos"] is not None
        assert row["ftree"] is None  # not applicable off-tree
        assert row["nue-1vl"] is not None
        fig10.check(table)

        doctored = copy.deepcopy(table)
        doctored["4-ary-3-tree"]["ftree"] = None
        assert_check_fails(fig10.check, doctored, "tree: ftree beats updn")

    def test_fig11_tiny(self, capsys, tmp_path):
        out = tmp_path / "f11.json"
        data = fig11.run(max_dim=4, json_path=str(out))
        runtimes = data["runtimes_s"]
        assert set(runtimes) == {"nue-8vl", "dfsssp", "lash", "torus-2qos"}
        assert runtimes["nue-8vl"]["2x2x2"] is not None
        printed = capsys.readouterr().out
        assert "applicability" in printed
        payload = json.loads(out.read_text())
        assert payload["data"]["vls_used"]["torus-2qos"]["4x4x4"] == 2
        fig11.check(data)

        doctored = copy.deepcopy(data)
        doctored["runtimes_s"]["dfsssp"]["4x4x4"] = 0.1
        assert_check_fails(fig11.check, doctored,
                           "dfsssp runs out of virtual layers at 4x4x4")

    def test_scaling_tiny(self, capsys):
        points, slope = scaling.run()
        assert len(points) == 4
        assert points[1][0] > points[0][0]
        scaling.check((points, slope))
        assert_check_fails(scaling.check, (points, 3.2), "log-log slope")

    def test_scaling_single_size_measures_no_slope(self, capsys):
        """One size cannot fit a line: the slope is n/a, not a number
        polyfit invents, and ``check`` refuses it."""
        points, slope = scaling.run(sizes=[8], terminals_per_switch=1)
        assert len(points) == 1 and slope is None
        assert "log-log slope: n/a" in capsys.readouterr().out
        assert_check_fails(scaling.check, (points, slope), "log-log slope")

    def test_tori_dimensions_sequence(self):
        dims = fig11.tori_dimensions(3)
        assert dims[0] == (2, 2, 2)
        assert (2, 2, 3) in dims and (3, 3, 3) in dims
        assert all(max(d) - min(d) <= 1 for d in dims)


class TestFallbacksHarness:
    def test_fallbacks_tiny(self, capsys, tmp_path):
        from repro.experiments import fallbacks
        out = tmp_path / "fb.json"
        summary = fallbacks.run(
            n_topologies=2, ks=[1, 2], seed=3,
            n_switches=12, n_links=30, terminals_per_switch=2,
            json_path=str(out),
        )
        assert set(summary) == {1, 2}
        for stats in summary.values():
            assert 0 <= stats["min_rate"] <= stats["max_rate"] <= 1
        assert "fallback" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["meta"]["experiment"] == "fallbacks"
        assert payload["meta"]["config"]["n_topologies"] == 2
        assert set(payload["data"]["summary"]) == {"1", "2"}


class TestRunnerDispatch:
    def test_unknown_experiment(self, capsys):
        import sys
        from repro.experiments import runner
        before = list(sys.argv)
        with pytest.raises(SystemExit) as exc:
            runner.main(["figZZ"])
        assert exc.value.code == 2
        assert "unknown experiment" in capsys.readouterr().out
        assert sys.argv == before  # dispatcher never mutated argv

    def test_usage_line(self, capsys):
        from repro.experiments import runner
        with pytest.raises(SystemExit) as exc:
            runner.main([])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        from repro.experiments import runner
        with pytest.raises(SystemExit) as exc:
            runner.main(["--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out

    def test_list_enumerates_experiments(self, capsys):
        from repro.experiments import runner
        runner.main(["--list"])
        out = capsys.readouterr().out
        for name in runner.EXPERIMENTS:
            assert name in out
        # every line carries the experiment's one-line description
        assert "Table 1" in out

    @pytest.mark.parametrize(
        "name",
        sorted(["fallbacks", "fig01", "fig09", "fig10", "fig11",
                "scaling", "table1"]),
    )
    def test_every_experiment_helps_cleanly(self, name, capsys):
        import sys
        from repro.experiments import runner
        assert name in runner.EXPERIMENTS
        before = list(sys.argv)
        with pytest.raises(SystemExit) as exc:
            runner.main([name, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
        assert sys.argv == before  # restored after dispatch

    def test_dispatch_runs_experiment(self, capsys):
        import sys
        from repro.experiments import runner
        before = list(sys.argv)
        runner.main(["table1"])
        assert "Tab. 1" in capsys.readouterr().out
        assert sys.argv == before

    def test_module_runs_once_without_warning(self):
        """``python -m repro.experiments.<name>`` must not find its
        module already imported by the package (runpy's RuntimeWarning:
        the harness would run from two module objects)."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "repro.experiments.table1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert "Tab. 1" in proc.stdout

    def test_dispatch_restores_argv_on_error(self):
        import sys
        from repro.experiments import runner
        before = list(sys.argv)
        with pytest.raises(SystemExit):
            runner.main(["table1", "--no-such-flag"])
        assert sys.argv == before

    def test_trace_flag_writes_jsonl(self, capsys, tmp_path):
        from repro import obs
        from repro.experiments import runner
        trace = tmp_path / "trace.jsonl"
        runner.main(["scaling", "--trace", str(trace), "--sizes", "8",
                     "--terminals", "1"])
        assert not obs.enabled()  # disabled again after the dispatch
        events = [json.loads(line)
                  for line in trace.read_text().splitlines()]
        assert events
        assert {ev["type"] for ev in events} >= {"span", "counter"}
        span_names = {ev["name"] for ev in events
                      if ev["type"] == "span"}
        assert "route.nue" in span_names and "nue.layer" in span_names

    def test_profile_flag_prints_report(self, capsys):
        from repro import obs
        from repro.experiments import runner
        runner.main(["scaling", "--profile", "--sizes", "8",
                     "--terminals", "1"])
        out = capsys.readouterr().out
        assert "route.nue" in out  # span table rendered
        assert "nue.route_steps" in out  # counter table rendered
        assert not obs.enabled()


class TestFig01Network:
    def test_build_network_counts(self):
        from repro.experiments.fig01 import build_network
        net = build_network()
        assert len(net.switches) == 47
        assert len(net.terminals) == 188
