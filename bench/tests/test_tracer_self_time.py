"""Spans: parents, request ids, self time = span - children."""

import json
import time

from bench.tracer import ROOT, Tracer


def test_self_times_add_up_to_the_root(tmp_path):
    tracer = Tracer()
    with tracer.request(7):
        with tracer.span("a"):
            time.sleep(0.01)
            with tracer.span("b"):
                time.sleep(0.01)
        time.sleep(0.005)
    (spans,) = [v for k, v in tracer.self_times().items() if k == 7]
    (root_s,) = tracer.durations(ROOT)
    assert set(spans) == {ROOT, "a", "b"}
    assert abs(sum(spans.values()) - root_s) < 1e-9
    assert spans["b"] >= 0.009 and spans["a"] >= 0.009
    assert 0 < tracer.unattributed_frac() < 0.5

    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    by_name = {r["name"]: r for r in rows}
    assert by_name["b"]["parent"] == by_name["a"]["id"]
    assert by_name["a"]["parent"] == by_name[ROOT]["id"]
    assert all(r["request"] == 7 for r in rows)


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.request(1):
        with tracer.span("a"):
            pass
    assert tracer.spans == []
    assert tracer.unattributed_frac() == 0.0
