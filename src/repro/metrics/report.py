"""One-stop quality report for a routing result.

Collects every metric the paper evaluates — validity, deadlock
freedom, required VCs, edge forwarding index, path lengths, layer
usage — into a structured :class:`QualityReport` with a text rendering,
so comparisons like Fig. 1's table are one call per routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.metrics.deadlock import DeadlockAnalysis
from repro.metrics.forwarding_index import GammaSummary, summarise_gamma
from repro.metrics.layers import layer_balance
from repro.metrics.path_stats import PathLengthStats, summarise_path_lengths
from repro.metrics.validate import (
    ValidationError,
    cycle_message,
    validate_routing,
)
from repro.routing.base import RoutingResult
from repro.routing.walk import census

__all__ = ["QualityReport", "quality_report", "gamma_and_path_lengths"]


@dataclass(frozen=True)
class QualityReport:
    """Everything the evaluation section measures, for one routing."""

    algorithm: str
    network: str
    n_vls: int
    valid: bool
    validity_error: Optional[str]
    deadlock_free: bool
    required_vcs: int
    gamma: GammaSummary
    path_lengths: PathLengthStats
    layer_balance: float
    runtime_s: float

    def render(self) -> str:
        g, p = self.gamma, self.path_lengths
        lines = [
            f"routing quality report — {self.algorithm} on {self.network}",
            f"  valid (Def. 3):      {self.valid}"
            + (f"  [{self.validity_error}]" if self.validity_error else ""),
            f"  deadlock-free:       {self.deadlock_free}",
            f"  virtual lanes used:  {self.n_vls}",
            f"  required VCs:        {self.required_vcs}",
            f"  gamma min/avg/max:   {g.minimum:.0f} / {g.average:.1f} / "
            f"{g.maximum:.0f}  (sd {g.stddev:.1f})",
            f"  path len min/avg/max: {p.minimum} / {p.average:.2f} / "
            f"{p.maximum}",
            f"  layer balance:       {self.layer_balance:.2f}",
            f"  routing runtime:     {self.runtime_s:.3f}s",
        ]
        return "\n".join(lines)


def gamma_and_path_lengths(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
    workers: Optional[int] = None,
) -> Tuple[GammaSummary, PathLengthStats]:
    """``gamma_summary`` and ``path_length_stats`` from one census."""
    pairs = census(result, sources, workers)
    return (summarise_gamma(result.net, pairs.channel_routes),
            summarise_path_lengths(pairs.hops))


def quality_report(
    result: RoutingResult,
    sources: Optional[Sequence[int]] = None,
) -> QualityReport:
    """Measure everything; validity failures are recorded, not raised.

    The dependency graph is lifted once and serves the validity gate's
    Theorem-1 step, the deadlock verdict and the VC requirement.
    """
    valid, error = True, None
    try:
        validate_routing(result, sources=sources, check_deadlock=False)
    except ValidationError as exc:
        valid, error = False, str(exc)[:120]
    deadlock = DeadlockAnalysis(result)
    if valid and not deadlock.deadlock_free:
        valid, error = False, cycle_message(result, deadlock.cycle())[:120]
    gamma, path_lengths = gamma_and_path_lengths(result, sources)
    return QualityReport(
        algorithm=result.algorithm,
        network=result.net.name,
        n_vls=result.n_vls,
        valid=valid,
        validity_error=error,
        deadlock_free=deadlock.deadlock_free,
        required_vcs=deadlock.required_vcs(),
        gamma=gamma,
        path_lengths=path_lengths,
        layer_balance=layer_balance(result, sources),
        runtime_s=result.runtime_s,
    )
