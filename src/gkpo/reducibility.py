"""Membership probes for the fixed-reference class and finite witnesses.

An objective sits inside the reducible class when its reference is fixed, its
penalties are plain additive terms (no gates), and its weight does not depend
on the score gap. `classify` reads which of these fail from the reasons of
the document's fold, `collect(ladder_of(obj))`, as `algebra.object_normal_form`
records it on the object. Each probe certifies feasibility with a concrete
surrogate or returns a small witness showing no surrogate exists:

* probe_shift: is there one fixed reference value reproducing the decisions of
  per-prompt references? (interval intersection over the gap constraints)
* probe_gate: can nonnegative plain coefficients reproduce gated penalty
  totals? (exact elimination for the two unknowns)
* probe_score: do the two operator orders of a score-dependent weight and an
  additive penalty decide differently on the same pair?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from .schema import GkpoObject, ReducibilityBlock


@dataclass(frozen=True)
class PiecewisePsi:
    """Two-valued score-dependent weight: value_below for gaps < threshold,
    value_at_or_above otherwise. Both values must be positive."""

    value_below: float
    value_at_or_above: float
    threshold: float = 0.0

    def __post_init__(self):
        if not (self.value_below > 0 and self.value_at_or_above > 0):
            raise ValueError("psi values must be positive")

    def __call__(self, gap: float) -> float:
        return self.value_below if gap < self.threshold else self.value_at_or_above

    @property
    def constant(self) -> bool:
        return self.value_below == self.value_at_or_above


# ---------------------------------------------------------------------------
# Reference shift


@dataclass(frozen=True)
class ShiftWitness:
    """Two prompts whose margins cannot share a fixed reference."""

    raw_gap: float
    delta_ref_1: float
    delta_ref_2: float

    def __post_init__(self):
        m1, m2 = self.margins
        if m1 == 0 or m2 == 0 or (m1 > 0) == (m2 > 0):
            raise ValueError("witness margins must be nonzero with opposite signs")

    @property
    def margins(self) -> tuple[float, float]:
        return (self.raw_gap - self.delta_ref_1, self.raw_gap - self.delta_ref_2)

    def as_witness_map(self) -> dict[str, float]:
        return {
            "raw_gap": self.raw_gap,
            "delta_ref_prompt1": self.delta_ref_1,
            "delta_ref_prompt2": self.delta_ref_2,
        }


@dataclass(frozen=True)
class ShiftProbeResult:
    feasible: bool
    fixed_reference: float | None = None
    witness: ShiftWitness | None = None


def probe_shift(pairs: Iterable[tuple[float, float]]) -> ShiftProbeResult:
    """Find one fixed reference matching every pair's decision sign.

    Each pair (d, delta_ref) demands sign(d - x) == sign(d - delta_ref). A
    positive sign bounds x above by d, a negative sign bounds it below, so the
    feasible set is an open interval; when it is empty the two tightest
    conflicting pairs form the witness. Among pairs with equal d, the first
    one is the tightest.
    """
    pairs = [(float(d), float(r)) for d, r in pairs]
    if not pairs:
        raise ValueError("need at least one pair")
    for d, r in pairs:
        if d == r:
            raise ValueError(
                f"degenerate pair (d={d}, delta_ref={r}): margin sign undefined"
            )
    upper = None  # tightest (d, ref) with positive margin: x < d
    lower = None  # tightest (d, ref) with negative margin: x > d
    for d, r in pairs:
        if d - r > 0:
            if upper is None or d < upper[0]:
                upper = (d, r)
        else:
            if lower is None or d > lower[0]:
                lower = (d, r)
    if lower is None:
        return ShiftProbeResult(True, fixed_reference=upper[0] - 1.0)
    if upper is None:
        return ShiftProbeResult(True, fixed_reference=lower[0] + 1.0)
    if lower[0] < upper[0]:
        return ShiftProbeResult(
            True, fixed_reference=(lower[0] + upper[0]) / 2.0
        )
    witness = ShiftWitness(
        raw_gap=upper[0], delta_ref_1=lower[1], delta_ref_2=upper[1]
    )
    return ShiftProbeResult(False, witness=witness)


# ---------------------------------------------------------------------------
# Non-additive gates


@dataclass(frozen=True)
class GateWitness:
    """Penalty observations no nonnegative plain coefficients can reproduce.

    forced_coefficients is the unique unconstrained solution when one exists
    (its negative entry is the certificate); None when the system is outright
    inconsistent.
    """

    items: tuple[tuple[float, float, float], ...]
    forced_coefficients: tuple[float, float] | None = None

    def as_witness_map(self) -> dict[str, Any]:
        flat: list[float] = []
        for phi1, phi2, _ in self.items:
            flat.extend((phi1, phi2))
        out: dict[str, Any] = {"phi_pairs": flat}
        totals = [total for _, _, total in self.items]
        if len(set(totals)) == 1:
            out["phi_value_equal"] = totals[0]
        else:
            out["phi_values"] = totals
        return out


@dataclass(frozen=True)
class GateProbeResult:
    feasible: bool
    coefficients: tuple[float, float] | None = None
    witness: GateWitness | None = None


def _solve_rank1(rows, tol):
    """Feasibility of a*l1 + b*l2 = c over l1, l2 >= 0 for parallel rows."""
    a, b, c = next(row for row in rows if abs(row[0]) > tol or abs(row[1]) > tol)
    for a2, b2, c2 in rows:
        # parallel rows must scale consistently with (a, b, c)
        if abs(a * c2 - a2 * c) > tol or abs(b * c2 - b2 * c) > tol:
            return None
    # each axis alone reaches either [0, inf) or (-inf, 0]; try both
    if abs(a) > tol and (c / a) >= -tol:
        return (max(0.0, c / a), 0.0)
    if abs(b) > tol and (c / b) >= -tol:
        return (0.0, max(0.0, c / b))
    return None


def probe_gate(
    items: Iterable[tuple[float, float, float]], tol: float = 1e-9
) -> GateProbeResult:
    """Exact elimination for lambda1*phi1 + lambda2*phi2 = total, lambdas >= 0.

    Two rows are independent only when |det| > tol; |det| == tol counts as
    dependent."""
    rows = [(float(p1), float(p2), float(t)) for p1, p2, t in items]
    if not rows:
        raise ValueError("need at least one item")
    witness_items = tuple(rows)

    if all(abs(a) <= tol and abs(b) <= tol for a, b, _ in rows):
        if all(abs(c) <= tol for _, _, c in rows):
            return GateProbeResult(True, coefficients=(0.0, 0.0))
        return GateProbeResult(False, witness=GateWitness(witness_items))

    # look for two independent rows (rank 2)
    pivot = None
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a1, b1, c1 = rows[i]
            a2, b2, c2 = rows[j]
            det = a1 * b2 - a2 * b1
            if abs(det) > tol:
                pivot = (
                    (c1 * b2 - c2 * b1) / det,
                    (a1 * c2 - a2 * c1) / det,
                )
                break
        if pivot:
            break

    if pivot is None:
        point = _solve_rank1(rows, tol)
        if point is None:
            return GateProbeResult(False, witness=GateWitness(witness_items))
        return GateProbeResult(True, coefficients=point)

    l1, l2 = pivot
    consistent = all(abs(a * l1 + b * l2 - c) <= tol for a, b, c in rows)
    if not consistent:
        return GateProbeResult(False, witness=GateWitness(witness_items))
    if l1 >= -tol and l2 >= -tol:
        return GateProbeResult(True, coefficients=(max(0.0, l1), max(0.0, l2)))
    return GateProbeResult(
        False, witness=GateWitness(witness_items, forced_coefficients=(l1, l2))
    )


# ---------------------------------------------------------------------------
# Score-dependent weights


@dataclass(frozen=True)
class ScoreWitness:
    delta_u: float
    penalty_shift: float
    psi_neg: float
    psi_pos: float

    def __post_init__(self):
        if not (self.psi_neg > 0 and self.psi_pos > 0):
            raise ValueError("psi values must be positive")

    def as_witness_map(self) -> dict[str, float]:
        return {
            "delta_u": self.delta_u,
            "penalty_shift": self.penalty_shift,
            "psi_neg": self.psi_neg,
            "psi_pos": self.psi_pos,
        }


@dataclass(frozen=True)
class ScoreProbeResult:
    order_weight_first: float
    order_penalty_first: float
    flipped: bool


def interleaving_margins(
    delta_u: float, penalty_shift: float, psi: PiecewisePsi
) -> tuple[float, float]:
    """Margins of the two operator orders on one pair.

    Weight first: the weight samples the pre-penalty gap, margin
    delta_u * psi(delta_u). Penalty first: the weight samples the shifted gap,
    margin (delta_u + shift) * psi(delta_u + shift).
    """
    weight_first = delta_u * psi(delta_u)
    shifted = delta_u + penalty_shift
    penalty_first = shifted * psi(shifted)
    return weight_first, penalty_first


def probe_score(
    delta_u: float, penalty_shift: float, psi: PiecewisePsi
) -> ScoreProbeResult:
    if psi.constant:
        raise ValueError("psi must be nonconstant for a score-dependence probe")
    m1, m2 = interleaving_margins(delta_u, penalty_shift, psi)
    s1 = (m1 > 0) - (m1 < 0)
    s2 = (m2 > 0) - (m2 < 0)
    return ScoreProbeResult(m1, m2, flipped=s1 != s2)


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class Evidence:
    """Optional realized data backing the structural flags with witnesses."""

    shift_pairs: tuple[tuple[float, float], ...] | None = None
    gate_items: tuple[tuple[float, float, float], ...] | None = None
    score_case: tuple[float, float, PiecewisePsi] | None = None


def classify(obj: GkpoObject, evidence: Evidence | None = None) -> ReducibilityBlock:
    """The reasons of obj's fold as a reducibility block, plus the witnesses
    that evidence backs for the flagged mechanisms."""
    from . import algebra  # `gkpo probe` runs the probes and never folds

    reasons = algebra.object_normal_form(obj).reasons
    witness: dict[str, Any] = {}

    if evidence is not None:
        if evidence.shift_pairs and "reference_shift" in reasons:
            outcome = probe_shift(evidence.shift_pairs)
            if outcome.witness is not None:
                witness.update(outcome.witness.as_witness_map())
        if evidence.gate_items and "non_additive_gate" in reasons:
            outcome = probe_gate(evidence.gate_items)
            if outcome.witness is not None:
                witness.update(outcome.witness.as_witness_map())
        if evidence.score_case and "score_dependent_weight" in reasons:
            delta_u, shift, psi = evidence.score_case
            outcome = probe_score(delta_u, shift, psi)
            if outcome.flipped:
                witness.update(
                    ScoreWitness(
                        delta_u=delta_u,
                        penalty_shift=shift,
                        psi_neg=psi.value_below,
                        psi_pos=psi.value_at_or_above,
                    ).as_witness_map()
                )

    return ReducibilityBlock(
        inside_R=not reasons, reasons=tuple(sorted(reasons)), witness=witness
    )
