"""What a workload is, to the harness.

A workload owns its inputs (all derived from ``--seed``), its set-up
and tear-down, the one *op* the closed loop repeats, and the checks
that decide whether an op's output was right.  The harness owns the
clock, the loop, the deadline, the failure count and the metrics that
every workload reports the same way.
"""

from __future__ import annotations

import hashlib
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from bench import probes, stats
from bench.tracer import Tracer

#: ``(label, op function, traced?)`` — one phase of a traced run
Variant = Tuple[str, Callable[[int, int], Any], bool]


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def derive_seed(seed: int, *labels: object) -> int:
    """A 31-bit seed that is a pure function of ``(seed, labels)``.

    Hash-based (not ``hash()``, which is salted per process), so the
    request list of a given ``--seed`` is the same in every process.
    """
    text = ":".join(str(x) for x in (seed, *labels))
    digest = hashlib.blake2b(text.encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big") & 0x7FFFFFFF


def table_digest(*arrays: Any) -> str:
    """blake2b-128 over the raw bytes of forwarding-table arrays."""
    h = hashlib.blake2b(digest_size=16)
    for arr in arrays:
        h.update(arr.tobytes())
    return h.hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """One digest over an ordered sequence of digests."""
    return hashlib.blake2b("".join(digests).encode(),
                           digest_size=16).hexdigest()


def timed_median(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Median wall seconds of ``repeats`` calls of ``fn`` (micro-probes)."""
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return stats.median(samples)


#: per-layer metric -> the ``repro.obs`` counter it reads
ENGINE_COUNTERS = {
    "engine.pool_spawns": "fabric.pool_spawns",
    "engine.table_writes": "fabric.table_writes",
    "engine.result_exports": "fabric.result_exports",
    "engine.cache_hits": "engine.cache_hits",
}


def engine_counts(seen: Dict[str, float]) -> Dict[str, float]:
    """The engine-layer counts out of an obs counter snapshot."""
    return {metric: seen.get(counter, 0)
            for metric, counter in ENGINE_COUNTERS.items()}


class Workload:
    """Base class; see the module docstring for the division of work."""

    name = ""
    #: client connections / threads of the closed loop
    lanes = 1
    #: ops run and discarded at the end of every set-up
    warmups = 2
    #: op floor of a time-budget run
    min_ops = 2
    #: whether times are reported on the nominal host
    #: (:mod:`bench.hostspeed`): yes where the op computes on this
    #: process's one thread, no where a daemon does the work
    host_corrected = True
    #: scale every op of a loop by the loop's median reference sample,
    #: not by the two samples around the op: for ops that outlast the
    #: host's speed changes (seconds), whose own two samples say little
    #: about the speed inside them (correlation -0.1 on
    #: ``simulate-torus``, 0.5-0.8 on ops of 0.3-1.3 s)
    host_whole_run = False

    #: how many ops, from the first, the quality metrics cover where
    #: they cost time of their own (``gamma_summary`` and
    #: ``path_length_stats`` on the routed workloads: 0.28 s an op next
    #: to a 0.3 s route); ``None`` is every op.  The harness sets the op
    #: floor on a time-budget run: its quality values go into no bound,
    #: seven seconds of them a run do not fit the driver's time limit,
    #: and over the ops every such run makes they depend on the seed
    #: alone.  Fixed-op runs (every ledger file) cover every op, and
    #: every op is validated either way.
    quality_ops: Optional[int] = None

    #: tear down and set up again before every later phase of a traced
    #: run, for workloads whose program keeps state between requests
    #: (a daemon's caches) that would favour the later phase
    restart_between_phases = False
    #: op floor of a traced run's first phase (default: ``min_ops``)
    trace_min_ops: Optional[int] = None

    def __init__(self, seed: int) -> None:
        self.seed = seed
        #: probe name -> reason, for per-layer values reported as null
        self.notes: Dict[str, str] = {}
        #: typed "not applicable" answers, counted per exception type
        self.typed_refusals: Dict[str, int] = {}
        #: resolved :mod:`bench.probes` of the traced run
        self._probes: Dict[str, Any] = {}
        #: work tallies of each traced op (what ``composed_op`` filled in)
        self._trace_counts: List[Dict[str, float]] = []

    # -- lifecycle --------------------------------------------------------------

    def setup(self) -> None:
        """Build everything the first op needs (may run several times,
        each after a :meth:`teardown`)."""

    def teardown(self) -> None:
        """Release everything :meth:`setup` made; idempotent."""

    # -- the closed loop --------------------------------------------------------

    def describe(self, i: int) -> Any:
        """JSON-able description of request ``i`` — a pure function of
        ``(seed, i)``; what "same seed, same inputs" is tested on."""
        raise NotImplementedError

    def op(self, i: int, lane: int = 0) -> Any:
        """One request, through the public surface only.  Timed."""
        raise NotImplementedError

    def keep(self, i: int, out: Any) -> Any:
        """Shrink an op's output to what :meth:`check` needs (untimed;
        matters where outputs are large enough to distort peak RSS)."""
        return out

    def check(self, i: int, kept: Any) -> Optional[float]:
        """Verify one output, outside the timed region; raise
        :class:`CheckFailed` when it is wrong.  May return the seconds
        an in-process reference execution of the same request took."""
        return None

    def quality(self) -> Dict[str, Any]:
        """Workload-specific end-to-end metrics (means over every op
        :meth:`check` has seen) plus ``"digest"``."""
        return {}

    # -- the traced run ---------------------------------------------------------

    def trace_variants(self, tracer: Tracer) -> List[Variant]:
        """The ways a traced run executes every op, the plain op first."""
        def traced(i: int, lane: int = 0) -> Any:
            with tracer.request(i):
                return self.op(i, lane)

        return [("api", self.op, False), ("traced", traced, True)]

    def composed_op(self, i: int, tracer: Tracer,
                    counts: Dict[str, float]) -> Any:
        """Op ``i`` re-composed from ``self._probes`` with a span per
        layer; ``counts`` receives its work tallies."""
        raise NotImplementedError

    def composed_variants(self, tracer: Tracer, required: Sequence[str],
                          optional: Sequence[str] = ()) -> List[Variant]:
        """``api`` / ``composed`` (tracer off) / ``traced`` variants
        around :meth:`composed_op` — or, when a required probe no longer
        imports, the plain pair with the reason noted."""
        self._probes, missing = probes.resolve(
            tuple(required) + tuple(optional))
        self.notes.update(missing)
        if any(name in missing for name in required):
            self.notes["composed"] = (
                "composed op unavailable; its per-layer spans are null")
            return Workload.trace_variants(self, tracer)
        off = Tracer(enabled=False)

        def composed(i: int, lane: int = 0) -> Any:
            return self.composed_op(i, off, {})

        def traced(i: int, lane: int = 0) -> Any:
            counts: Dict[str, float] = {}
            with tracer.request(i):
                out = self.composed_op(i, tracer, counts)
            self._trace_counts.append(counts)
            return out

        return [("api", self.op, False), ("composed", composed, False),
                ("traced", traced, True)]

    def same_output(self, a: Any, b: Any) -> bool:
        """Whether two variants' kept outputs for one op index agree."""
        return a == b

    def per_layer(self, tracer: Tracer, phases: Dict[str, Any],
                  layers: Dict[str, float]) -> Dict[str, Any]:
        """Per-layer metrics beyond the span self times the harness
        derives itself (counts, micro-probes, RPC attribution).
        ``phases`` maps a variant label to its
        :class:`bench.harness.LoopResult`; ``layers`` holds those span
        self times, median reported seconds per request by span name."""
        return {}
