"""CLI: the generate/route/analyze/simulate workflow end to end."""

import json

import pytest

from repro.cli import main
from repro.io import load_topology


@pytest.fixture
def fabric(tmp_path):
    path = tmp_path / "fab.topo"
    rc = main([
        "generate", "torus", "--dims", "3", "3",
        "--terminals", "2", "-o", str(path),
    ])
    assert rc == 0
    return path


class TestGenerate:
    def test_torus(self, fabric):
        net = load_topology(fabric)
        assert len(net.switches) == 9
        assert len(net.terminals) == 18

    def test_random_with_faults(self, tmp_path):
        out = tmp_path / "r.topo"
        rc = main([
            "generate", "random", "--dims", "12", "30",
            "--terminals", "1", "--link-faults", "0.1",
            "--seed", "5", "-o", str(out),
        ])
        assert rc == 0
        net = load_topology(out)
        assert net.is_connected()

    def test_fattree(self, tmp_path):
        out = tmp_path / "t.topo"
        assert main(["generate", "fattree", "--dims", "3", "2",
                     "-o", str(out)]) == 0
        assert len(load_topology(out).switches) == 6


class TestRoute:
    def test_nue_with_validation(self, fabric, tmp_path, capsys):
        tables = tmp_path / "t.json"
        rc = main([
            "route", str(fabric), "-a", "nue", "--vls", "2",
            "--seed", "1", "-o", str(tables), "--validate",
        ])
        assert rc == 0
        payload = json.loads(tables.read_text())
        assert payload["algorithm"] == "nue"
        assert payload["n_vls"] <= 2

    def test_baseline_algorithm(self, fabric, tmp_path):
        tables = tmp_path / "t.json"
        rc = main([
            "route", str(fabric), "-a", "updn", "-o", str(tables),
        ])
        assert rc == 0

    def test_out_writes_binary_npz(self, fabric, tmp_path):
        import numpy as np

        from repro.io import load_tables_npz, load_topology

        tables = tmp_path / "t.json"
        npz = tmp_path / "t.npz"
        rc = main([
            "route", str(fabric), "-a", "updn", "--seed", "4",
            "-o", str(tables), "--out", str(npz),
        ])
        assert rc == 0
        net = load_topology(fabric)
        back = load_tables_npz(net, npz)
        payload = json.loads(tables.read_text())
        np.testing.assert_array_equal(
            back.next_channel,
            np.asarray(payload["next_channel"], dtype=np.int32))
        # the binary dump is a fraction of the nested-list JSON
        assert npz.stat().st_size < tables.stat().st_size

    def test_unknown_algorithm(self, fabric, capsys):
        rc = main(["route", str(fabric), "-a", "wizardry"])
        assert rc == 2
        err = capsys.readouterr().err
        # the registry's one-line error names the valid choices
        assert "unknown routing algorithm" in err
        assert "nue" in err

    def test_routing_failure_reported(self, tmp_path, capsys):
        # a topology torus-2qos cannot route: a plain ring
        path = tmp_path / "ring.topo"
        main(["generate", "ring", "--dims", "5", "--terminals", "1",
              "-o", str(path)])
        rc = main(["route", str(path), "-a", "torus-2qos"])
        assert rc == 1
        assert "routing failed" in capsys.readouterr().err

    def test_lft_dump(self, fabric, capsys):
        rc = main([
            "route", str(fabric), "-a", "nue", "--vls", "1",
            "--seed", "1", "--lft", "--lft-dests", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LFT dump" in out
        assert "destination" in out


class TestAnalyzeSimulate:
    def test_full_pipeline(self, fabric, tmp_path, capsys):
        tables = tmp_path / "t.json"
        main(["route", str(fabric), "-a", "nue", "--vls", "2",
              "--seed", "1", "-o", str(tables)])
        rc = main(["analyze", str(fabric), str(tables)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "deadlock-free:    True" in out

        rc = main(["simulate", str(fabric), str(tables),
                   "--sample-phases", "5"])
        assert rc == 0
        assert "GB/s" in capsys.readouterr().out

    def test_analyze_flags_deadlock(self, fabric, tmp_path, capsys):
        tables = tmp_path / "t.json"
        main(["route", str(fabric), "-a", "minhop", "-o", str(tables)])
        rc = main(["analyze", str(fabric), str(tables)])
        assert rc == 1  # minhop on a torus is not deadlock-free
        assert "deadlock-free:    False" in capsys.readouterr().out


class TestAnalyzeRejectsBrokenTables:
    """A hole or a forwarding loop is a one-line exit 1, no traceback."""

    @pytest.fixture
    def routed(self, fabric, tmp_path):
        tables = tmp_path / "t.json"
        main(["route", str(fabric), "-a", "nue", "--vls", "2",
              "--seed", "1", "-o", str(tables)])
        return load_topology(fabric), json.loads(tables.read_text())

    def _analyze(self, fabric, tmp_path, payload, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        capsys.readouterr()
        rc = main(["analyze", str(fabric), str(bad)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("invalid tables: ")
        return line

    def test_hole(self, fabric, routed, tmp_path, capsys):
        net, payload = routed
        s = net.switches[0]  # dests are terminals: s is no destination
        payload["next_channel"][s][0] = -1
        line = self._analyze(fabric, tmp_path, payload, capsys)
        assert "no route from" in line

    def test_forwarding_loop(self, fabric, routed, tmp_path, capsys):
        net, payload = routed
        u, v = net.switches[0], net.switches[1]
        payload["next_channel"][u][0] = net.find_channels(u, v)[0]
        payload["next_channel"][v][0] = net.find_channels(v, u)[0]
        line = self._analyze(fabric, tmp_path, payload, capsys)
        assert "loop" in line


class TestExplainDeadlock:
    def test_cycle_witness_printed(self, fabric, tmp_path, capsys):
        tables = tmp_path / "t.json"
        main(["route", str(fabric), "-a", "minhop", "-o", str(tables)])
        rc = main(["analyze", str(fabric), str(tables), "--explain"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "dependency cycle" in out
        assert "VL 0" in out

    def test_no_witness_when_clean(self, fabric, tmp_path, capsys):
        tables = tmp_path / "t.json"
        main(["route", str(fabric), "-a", "updn", "-o", str(tables)])
        rc = main(["analyze", str(fabric), str(tables), "--explain"])
        assert rc == 0
        assert "dependency cycle" not in capsys.readouterr().out
