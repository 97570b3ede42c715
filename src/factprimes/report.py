"""Per-point evaluation record for one inequality check."""

from __future__ import annotations

from dataclasses import dataclass

# Slacks smaller than this are flagged marginal so a reader knows the
# comparison is within floating-point shouting distance of the boundary.
MARGINAL_SLACK = 1e-6


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Outcome of evaluating one bound at one point.

    slack is signed with positive meaning the inequality holds with margin,
    so ``holds == (slack > 0)`` up to the tie-handling of each evaluator.
    ``applicable`` is False when the point lies outside the bound's stated
    validity window (the check is still evaluated and reported).
    """

    theorem_id: str
    n: float
    lhs: float
    rhs: float
    slack: float
    holds: bool
    applicable: bool = True
    marginal: bool = False
