"""Plain-text reporting helpers for the experiment harnesses.

Every experiment prints the same rows/series its paper figure shows —
an ASCII table (and optionally a JSON dump for downstream plotting),
since the reproduction is judged on shapes and orderings, not pixels.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "render_table", "dump_json", "format_value", "assert_facts",
    "check_or_exit",
]

#: one paper-shape fact: its name and a thunk that says whether it holds
Fact = Tuple[str, Callable[[], bool]]


def format_value(v: object) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3f}"
    return str(v)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    out: List[str] = []
    if title:
        out.append(title)
    sep = "-+-".join("-" * w for w in widths)
    out.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    out.append(sep)
    for row in cells:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def dump_json(path: str, payload: Dict) -> None:
    """Write an experiment's raw numbers for external plotting."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)


def assert_facts(experiment: str, facts: Sequence[Fact]) -> None:
    """Raise one ``AssertionError`` naming every fact that does not hold.

    A fact whose inputs the run lacks (a ``KeyError`` on an absent
    routing or size, a ``TypeError`` comparing a failed routing's
    ``None``) is broken too: a run that cannot show the paper's shape
    does not pass its check.
    """
    broken = []
    for name, holds in facts:
        try:
            ok = bool(holds())
        except (KeyError, TypeError):
            ok = False
        if not ok:
            broken.append(name)
    if broken:
        raise AssertionError(
            f"{experiment} shape check failed: " + "; ".join(broken)
        )


def check_or_exit(check: Callable[[object], None], result: object) -> None:
    """A harness ``main``'s last step: exit 1 with ``check``'s message
    when a paper-shape fact breaks."""
    try:
        check(result)
    except AssertionError as exc:
        raise SystemExit(str(exc)) from None
