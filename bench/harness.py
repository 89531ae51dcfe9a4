"""Run one workload in this process and produce its result record.

The load model is a closed loop: a lane sends its next request only
when the previous one has returned.  A run is bounded either by a
fixed op count (``bench run``: both commits do identical work) or by a
time budget with an op floor (``bench measure --seconds``, the PR
driver's form); either way request ``i`` is the same request, because
inputs are a function of ``(seed, i)`` alone.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from bench import hostspeed, runtime, spec, stats
from bench.tracer import ROOT, Tracer
from bench.workloads.base import CheckFailed, Variant, Workload

#: a cheap set-up is repeated (and the median reported) until this many
#: seconds of set-up have been spent or :data:`SETUP_MAX_REPEATS` ran
SETUP_REPEAT_BUDGET_S = 2.0
SETUP_MAX_REPEATS = 3
#: failure messages kept per record (the count is always exact)
MAX_FAILURE_MESSAGES = 5

OpFn = Callable[[int, int], Any]


@dataclass
class Budget:
    """Fixed ``ops``, or ``seconds`` with an op floor."""

    ops: Optional[int] = None
    seconds: Optional[float] = None
    #: fewest ops a time-budget run makes, however slow they are
    floor: int = 1

    def __post_init__(self) -> None:
        if (self.ops is None) == (self.seconds is None):
            raise ValueError("give exactly one of ops / seconds")

    def with_floor(self, floor: int) -> "Budget":
        if self.ops is not None:
            return self
        return Budget(seconds=self.seconds, floor=floor)

    def share(self, parts: int) -> "Budget":
        """The budget of one of ``parts`` phases run one after another."""
        if self.ops is not None:
            return self
        return Budget(seconds=self.seconds / parts, floor=self.floor)

    def spent(self, i: int, start: float) -> bool:
        """Whether op index ``i`` is past the budget."""
        if self.ops is not None:
            return i >= self.ops
        return time.perf_counter() - start >= self.seconds \
            and i >= self.floor

    def describe(self) -> Dict[str, Any]:
        return {"ops": self.ops} if self.ops is not None \
            else {"seconds": self.seconds}


@dataclass
class OpRecord:
    index: int
    seconds: float              #: measured wall seconds
    kept: Any = None
    error: Optional[str] = None
    #: on host-corrected workloads, what ``seconds`` is on the nominal
    #: host (:func:`bench.hostspeed.corrected`)
    corrected: Optional[float] = None
    #: seconds of the in-process reference execution, when check made one
    ref_seconds: Optional[float] = None

    @property
    def reported(self) -> float:
        """The op's time as the metrics report it."""
        return self.seconds if self.corrected is None else self.corrected


@dataclass
class LoopResult:
    records: List[OpRecord] = field(default_factory=list)
    #: seconds the loop took, without the untimed bookkeeping, on the
    #: same scale as :attr:`OpRecord.reported`
    wall: float = 0.0

    def ok(self) -> List[OpRecord]:
        return [r for r in self.records if r.error is None]

    def p50(self) -> Optional[float]:
        ok = self.ok()
        return stats.median([r.reported for r in ok]) if ok else None


class _HostRef:
    """The reference samples around consecutive ops: the sample after
    one op is the sample before the next.  Inert on a workload that
    reports raw times."""

    def __init__(self, workload: Workload) -> None:
        self._last = hostspeed.sample() if workload.host_corrected \
            else None
        self._samples = [self._last]
        self._whole_run = workload.host_whole_run

    def correct(self, seconds: float) -> Optional[float]:
        """``seconds`` just measured, on the nominal host."""
        if self._last is None:
            return None
        before, self._last = self._last, hostspeed.sample()
        self._samples.append(self._last)
        return hostspeed.corrected(seconds, before, self._last)

    def settle(self, records: Sequence[OpRecord]) -> None:
        """At the end of a loop of long ops: put every op on the scale
        of the loop's median sample instead of its own two (see
        :attr:`Workload.host_whole_run`)."""
        if self._last is None or not self._whole_run:
            return
        speed = stats.median(self._samples)
        for r in records:
            r.corrected = hostspeed.corrected(r.seconds, speed, speed)


def _timed_op(workload: Workload, fn: OpFn, i: int, lane: int,
              host: _HostRef, label: str = "") -> OpRecord:
    """One op under the deadline; a raised exception is a failed op."""
    t0 = time.perf_counter()
    out, error = None, None
    try:
        with runtime.deadline():
            out = fn(i, lane)
    except Exception as exc:  # the op failed: count it, go on
        error = f"op {i}{label}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    kept = workload.keep(i, out) if error is None else None
    return OpRecord(i, seconds, kept, error, host.correct(seconds))


def _lane_loop(workload: Workload, fn: OpFn, budget: Budget, lane: int,
               start: float, records: List[OpRecord]) -> float:
    """One lane's closed loop; returns the seconds it spent outside ops
    (shrinking outputs, sampling the reference kernel)."""
    outside = 0.0
    host = _HostRef(workload)
    i = lane
    while not budget.spent(i, start):
        t0 = time.perf_counter()
        record = _timed_op(workload, fn, i, lane, host)
        records.append(record)
        outside += time.perf_counter() - t0 - record.seconds
        i += workload.lanes
    host.settle(records)
    return outside


def drive(workload: Workload, fn: OpFn, budget: Budget) -> LoopResult:
    """Run the closed loop on every lane; records come back by index."""
    lanes = workload.lanes
    per_lane: List[List[OpRecord]] = [[] for _ in range(lanes)]
    outside = [0.0] * lanes
    start = time.perf_counter()

    def run(lane: int) -> None:
        outside[lane] = _lane_loop(workload, fn, budget, lane, start,
                                   per_lane[lane])

    if lanes == 1:
        run(0)
    else:
        threads = [threading.Thread(target=run, args=(lane,),
                                    name=f"bench-lane-{lane}")
                   for lane in range(lanes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    wall = time.perf_counter() - start - max(outside)
    records = sorted((r for lane in per_lane for r in lane),
                     key=lambda r: r.index)
    if workload.host_corrected:  # one lane: the loop is its ops
        wall = sum(r.reported for r in records)
    return LoopResult(records, wall)


def _drive_interleaved(workload: Workload, variants: Sequence[Variant],
                       budget: Budget) -> Dict[str, LoopResult]:
    """Run op ``i`` under every variant back to back, then op ``i+1``.

    The variants of one op see the same few seconds of host weather,
    so their ratio is about the code; phases run one after the other
    would put minutes of drift into it.  Single lane (every in-process
    workload is)."""
    loops = {label: LoopResult() for label, _fn, _t in variants}
    host = _HostRef(workload)
    start = time.perf_counter()
    i = 0
    while not budget.spent(i, start):
        for label, fn, _traced in variants:
            loops[label].records.append(
                _timed_op(workload, fn, i, 0, host, f" ({label})"))
        i += 1
    for loop in loops.values():
        host.settle(loop.records)
        loop.wall = sum(r.reported for r in loop.records)
    return loops


def _drive_in_turn(workload: Workload, variants: Sequence[Variant],
                   budget: Budget) -> Dict[str, LoopResult]:
    """One whole phase per variant, the program restarted in between:
    for workloads whose program keeps state across requests (a daemon's
    caches), where repeating op ``i`` at once would measure a cache."""
    first_label, first_fn, _ = variants[0]
    loops = {first_label: drive(workload, first_fn,
                                budget.share(len(variants)))}
    n_ops = len(loops[first_label].records)
    for label, fn, _traced in variants[1:]:
        workload.teardown()
        _setup_with_warmups(workload)
        loops[label] = drive(workload, fn, Budget(ops=n_ops))
    return loops


def _setup_with_warmups(workload: Workload) -> None:
    workload.setup()
    for j in range(workload.warmups):
        with runtime.deadline():
            workload.op(-1 - j, j % workload.lanes)


def _timed_setups(workload: Workload, repeat: bool,
                  import_s: float = 0.0) -> List[float]:
    """Set up (with warm-ups) one or more times; the last one stays up.
    Returns, per set-up, the reported seconds from process start:
    ``import_s`` (the imports, just finished) plus the set-up."""
    samples: List[float] = []
    spent = 0.0
    host = _HostRef(workload)

    def reported(seconds: float) -> float:
        corrected = host.correct(seconds)
        return seconds if corrected is None else corrected

    imports = reported(import_s)
    while True:
        t0 = time.perf_counter()
        _setup_with_warmups(workload)
        seconds = time.perf_counter() - t0
        spent += seconds
        samples.append(imports + reported(seconds))
        if (not repeat or len(samples) >= SETUP_MAX_REPEATS
                or spent >= SETUP_REPEAT_BUDGET_S):
            return samples
        workload.teardown()


def _run_checks(workload: Workload, loop: LoopResult) -> None:
    for r in loop.ok():
        try:
            with runtime.deadline():
                r.ref_seconds = workload.check(r.index, r.kept)
        except CheckFailed as exc:
            r.error = f"op {r.index}: wrong output: {exc}"
        except runtime.OpTimeout as exc:
            r.error = f"op {r.index}: check timed out: {exc}"


def _collect_failures(records: Sequence[OpRecord],
                      failures: List[str]) -> int:
    failed = [r for r in records if r.error is not None]
    failures.extend(r.error for r in failed)
    return len(failed)


def _timing_metrics(loop: LoopResult) -> Dict[str, Any]:
    times = [r.reported for r in loop.ok()]
    return {
        "request_p50_s": stats.median(times) if times else None,
        "request_p95_s": stats.supported_percentile(times, 95.0)
        if times else None,
        "requests_per_s": len(loop.records) / loop.wall
        if loop.wall > 0 else None,
    }


def _span_layers(tracer: Tracer, traced: LoopResult) -> Dict[str, float]:
    """Median per-request self seconds of every span name, each request
    on the scale of its op's reported time."""
    per_request = tracer.self_times()
    per_request.pop(None, None)
    scale = {r.index: r.reported / r.seconds for r in traced.records}
    names = {n for spans in per_request.values() for n in spans}
    return {
        name: stats.median([scale.get(request, 1.0) * spans.get(name, 0.0)
                            for request, spans in per_request.items()])
        for name in names if name != ROOT
    }


def _paired_ratios(base: LoopResult, other: LoopResult) -> List[float]:
    """Per op index, ``other`` seconds / ``base`` seconds."""
    return [o.reported / b.reported
            for b, o in zip(base.records, other.records)
            if b.error is None and o.error is None]


def measure(workload: Workload, budget: Budget, trace: bool,
            import_s: float, quick: bool = False) -> Dict[str, Any]:
    """Measure ``workload`` and return its result record.

    ``quick`` (selftest) drops the warm-ups and the repeated set-up:
    the checks are what is being exercised, not the clock."""
    before = runtime.shm_segments()
    if quick:
        workload.warmups = 0
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "budget": budget.describe(),
        "trace": trace,
        "host_corrected": workload.host_corrected,
    }
    failures: List[str] = []
    try:
        if trace:
            record.update(_measure_traced(workload, budget, failures))
        else:
            record.update(_measure_plain(workload, budget, import_s,
                                         failures, repeat=not quick))
    finally:
        workload.teardown()
    # quick (selftest) runs share the box with a sibling workload, whose
    # live segments are not this one's leaks; selftest checks /dev/shm
    # itself, once, after all of them
    leaked = set() if quick else runtime.shm_segments() - before
    if leaked:
        failures.append(f"/dev/shm leak: {sorted(leaked)}")
        runtime.unlink_segments(leaked)
    record["shm_leak"] = sorted(leaked)
    if not trace:
        # after teardown: the daemon and the pool have been waited for
        record["end_to_end"]["peak_rss_mb"] = runtime.peak_rss_mb()
    record["correct"] = not failures and record["failed"] == 0
    record["failures"] = failures[:MAX_FAILURE_MESSAGES]
    record["typed_refusals"] = dict(workload.typed_refusals)
    record["notes"] = dict(workload.notes)
    return record


def _measure_plain(workload: Workload, budget: Budget, import_s: float,
                   failures: List[str], repeat: bool) -> Dict[str, Any]:
    setups = _timed_setups(workload, repeat, import_s)
    budget = budget.with_floor(workload.min_ops)
    if budget.ops is None:
        workload.quality_ops = budget.floor
    loop = drive(workload, workload.op, budget)
    _run_checks(workload, loop)
    failed = _collect_failures(loop.records, failures)
    attempted = len(loop.records)
    quality = workload.quality()
    end_to_end: Dict[str, Any] = {
        "setup_s": stats.median(setups),
        **_timing_metrics(loop),
        "failed_frac": failed / attempted,
    }
    for m in spec.END_TO_END:
        if m.name in quality:
            end_to_end[m.name] = quality[m.name]
    return {
        "attempted": attempted,
        "failed": failed,
        "samples": len(loop.ok()),
        "end_to_end": end_to_end,
        # the ops as measured, before any host-speed correction
        "op_seconds": [round(r.seconds, 6) for r in loop.ok()],
        "setup_seconds": [round(x, 6) for x in setups],
        "digest": quality.get("digest"),
    }


def _measure_traced(workload: Workload, budget: Budget,
                    failures: List[str]) -> Dict[str, Any]:
    tracer = Tracer()
    _timed_setups(workload, repeat=False)
    variants = workload.trace_variants(tracer)
    budget = budget.with_floor(workload.trace_min_ops or workload.min_ops)
    if budget.ops is None:
        workload.quality_ops = budget.floor
    run_phases = _drive_in_turn if workload.restart_between_phases \
        else _drive_interleaved
    phases = run_phases(workload, variants, budget)
    first_label = variants[0][0]
    n_ops = len(phases[first_label].records)

    reference = phases[first_label].records
    _run_checks(workload, phases[first_label])
    failed = _collect_failures(reference, failures)
    for label, _fn, _traced in variants[1:]:
        failed += _collect_failures(phases[label].records, failures)
        for ref, other in zip(reference, phases[label].records):
            if ref.error is None and other.error is None \
                    and not workload.same_output(ref.kept, other.kept):
                failed += 1
                failures.append(
                    f"op {ref.index}: {label} output differs from "
                    f"{first_label}: the trace describes another program")

    traced = phases[next(label for label, _fn, t in variants if t)]
    layers = _span_layers(tracer, traced)
    per_layer: Dict[str, Any] = {name: None for name, _u, _b
                                 in spec.PER_LAYER}
    per_layer.update({k: v for k, v in layers.items() if k in per_layer})
    # without a single layer span (the composed pipeline's probes are
    # gone, or the workload attributes on its own) there is no closure
    # to speak of: null, not "100 % unattributed"
    per_layer["trace.unattributed_frac"] = \
        tracer.unattributed_frac() if layers else None
    # a workload whose op is already made of public calls (or whose
    # composed pipeline lost a probe) has no separate composed phase:
    # its spans then sit around the api op itself
    composed = phases.get("composed")
    overhead = _paired_ratios(composed or phases[first_label], traced)
    if overhead:
        per_layer["trace.overhead_frac"] = stats.median(overhead) - 1.0
    extra = workload.per_layer(tracer, phases, layers)
    # composed seconds / api seconds per op; the RPC workloads pair
    # their in-process reference with the composed path themselves
    closure_ratios = extra.pop(
        "closure_ratios",
        _paired_ratios(phases[first_label], composed or traced))
    if closure_ratios:
        per_layer["trace.composed_vs_api_frac"] = \
            abs(stats.median(closure_ratios) - 1.0)
    per_layer.update(extra)
    # the end-to-end rows the driver does not bound, from the plain phase
    unbounded = {"failed_frac": failed / max(1, n_ops * len(variants)),
                 **_timing_metrics(phases[first_label]),
                 **workload.quality()}
    for m in spec.END_TO_END:
        if m.driver_bound is None:
            per_layer[spec.DRIVER_EXTRA_PREFIX + m.name] = \
                unbounded.get(m.name)

    # a ratio of two timings needs pairs to mean anything (on this box
    # one pair is off by +-10 % on its own), and a time budget fits few
    # (one on simulate-torus): the composed-vs-api limit is enforced
    # where the op count is fixed, as in ``bench run --trace``
    limit = spec.CLOSURE_LIMIT[workload.name]
    judged = ["trace.unattributed_frac"]
    if budget.ops is not None:
        judged.append("trace.composed_vs_api_frac")
    for name in judged:
        if per_layer[name] is not None and per_layer[name] > limit:
            failures.append(f"accounting closure: {name} = "
                            f"{per_layer[name]:.3f} > {limit:g}")

    runtime.OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = runtime.OUT_DIR / f"trace-{workload.name}.jsonl"
    tracer.write_jsonl(str(trace_path))
    return {
        "attempted": sum(len(loop.records) for loop in phases.values()),
        "failed": failed,
        "samples": n_ops,
        "phase_p50_s": {label: loop.p50() for label, loop in phases.items()
                        if loop.ok()},
        "closure": f"{', '.join(judged)} <= {limit:g} "
                   f"({len(closure_ratios)} composed/api pairs)",
        "per_layer": per_layer,
        "trace_file": str(trace_path.relative_to(runtime.ROOT)),
    }
