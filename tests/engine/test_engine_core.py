"""Engine plumbing: worker resolution, pool fan-out, serial fallback,
and observability re-emission from workers."""

import warnings

import pytest

from repro import engine, obs


def _scale(ctx, task):
    """Module-level so the pool can pickle it by reference."""
    idx, value = task
    return idx, value * ctx


def _scale_counting(ctx, task):
    idx, value = task
    obs.count("testworker.calls")
    with obs.span("testworker.step"):
        pass
    return idx, value * ctx


def _return_unpicklable(ctx, task):
    return lambda: task  # closures cannot cross the result queue


def _refuse_counting(ctx, task):
    obs.count("testworker.calls")
    raise ValueError(f"task {task[0]} refused")


class TestResolveWorkers:
    def test_none_uses_default(self):
        saved = engine.get_default_workers()
        try:
            engine.set_default_workers(3)
            assert engine.resolve_workers(None, n_tasks=8) == 3
        finally:
            engine.set_default_workers(saved)

    def test_clamped_to_task_count(self):
        assert engine.resolve_workers(16, n_tasks=2) == 2

    def test_at_least_one(self):
        assert engine.resolve_workers(1, n_tasks=0) == 1

    def test_zero_means_all_cores(self):
        import os
        n = engine.resolve_workers(0, n_tasks=64)
        assert n == min(os.cpu_count() or 1, 64)

    def test_default_setter_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            engine.set_default_workers(0)


class TestRunLayerTasks:
    TASKS = [(i, i + 10) for i in range(5)]

    def test_serial_path(self):
        out = engine.run_layer_tasks(_scale, 2, self.TASKS, workers=1)
        assert out == [(i, 2 * (i + 10)) for i in range(5)]

    def test_pool_path_matches_serial(self):
        serial = engine.run_layer_tasks(_scale, 2, self.TASKS, workers=1)
        pooled = engine.run_layer_tasks(_scale, 2, self.TASKS, workers=2)
        assert pooled == serial

    def test_results_stay_in_task_order(self):
        out = engine.run_layer_tasks(_scale, 1, self.TASKS, workers=3)
        assert [idx for idx, _ in out] == list(range(5))

    def test_unpicklable_result_falls_back_to_serial(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = engine.run_layer_tasks(_return_unpicklable, None,
                                         self.TASKS, workers=2)
        assert [f() for f in out] == self.TASKS
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)

    def test_task_error_is_raised_once_not_a_fallback(self):
        """A task's own ValueError is the task's: no serial rerun, no
        "pool unavailable" warning, the first task's error as is."""
        obs.enable(obs.MemorySink(keep_events=False))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match="^task 0 refused$"):
                engine.run_layer_tasks(_refuse_counting, None, self.TASKS,
                                       workers=2)
        assert obs.counters().get("testworker.calls") == len(self.TASKS)
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_worker_counters_reach_parent(self):
        obs.enable(obs.MemorySink(keep_events=False))
        engine.run_layer_tasks(_scale_counting, 1, self.TASKS, workers=2)
        assert obs.counters().get("testworker.calls") == len(self.TASKS)

    def test_worker_spans_reroot_under_parent(self):
        sink = obs.MemorySink(keep_events=True)
        obs.enable(sink)
        with obs.span("parent"):
            engine.run_layer_tasks(_scale_counting, 1, self.TASKS,
                                   workers=2)
        replayed = [e for e in sink.events if e.get("replayed")]
        assert replayed, "worker events must be re-emitted in the parent"
        span_paths = {e["path"] for e in replayed
                      if e.get("type") == "span"}
        assert any(p.startswith("parent/") for p in span_paths)

    def test_obs_disabled_means_no_capture(self):
        out = engine.run_layer_tasks(_scale_counting, 1, self.TASKS,
                                     workers=2)
        assert len(out) == len(self.TASKS)
        assert obs.counters() == {}
