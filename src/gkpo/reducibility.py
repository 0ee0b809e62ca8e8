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
* probe_score: do the two operator orders of a score-dependent weight, which
  steps at a gap of 0, and an additive penalty decide differently on the same
  pair? (the pair is the witness when they do)

Each probe returns its own typed witness, so `classify` attaches the witness
of every flagged mechanism that evidence backs in the same way. GATE_TOL sets
the gate probe's tie rule: |det| == GATE_TOL counts as dependent.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Any, Iterable

from .schema import GkpoObject, ReducibilityBlock


@dataclass(frozen=True)
class PiecewisePsi:
    """Two-valued score-dependent weight: value_below for gaps < 0,
    value_at_or_above otherwise. Both values must be positive."""

    value_below: float
    value_at_or_above: float

    def __post_init__(self):
        if not (self.value_below > 0 and self.value_at_or_above > 0):
            raise ValueError("psi values must be positive")

    def __call__(self, gap: float) -> float:
        return self.value_below if gap < 0 else self.value_at_or_above

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


# probe_gate counts a determinant, residual or coefficient within GATE_TOL of 0 as 0
GATE_TOL = 1e-9


def _solve_rank1(rows):
    """Feasibility of a*l1 + b*l2 = c over l1, l2 >= 0 for parallel rows."""
    a, b, c = next(row for row in rows if abs(row[0]) > GATE_TOL or abs(row[1]) > GATE_TOL)
    for a2, b2, c2 in rows:
        # parallel rows must scale consistently with (a, b, c)
        if abs(a * c2 - a2 * c) > GATE_TOL or abs(b * c2 - b2 * c) > GATE_TOL:
            return None
    # each axis alone reaches either [0, inf) or (-inf, 0]; try both
    if abs(a) > GATE_TOL and (c / a) >= -GATE_TOL:
        return (max(0.0, c / a), 0.0)
    if abs(b) > GATE_TOL and (c / b) >= -GATE_TOL:
        return (0.0, max(0.0, c / b))
    return None


def probe_gate(items: Iterable[tuple[float, float, float]]) -> GateProbeResult:
    """Exact elimination for lambda1*phi1 + lambda2*phi2 = total, lambdas >= 0.

    Two rows are independent only when |det| > GATE_TOL; |det| == GATE_TOL
    counts as dependent."""
    rows = [(float(p1), float(p2), float(t)) for p1, p2, t in items]
    if not rows:
        raise ValueError("need at least one item")
    witness_items = tuple(rows)

    if all(abs(a) <= GATE_TOL and abs(b) <= GATE_TOL for a, b, _ in rows):
        if all(abs(c) <= GATE_TOL for _, _, c in rows):
            return GateProbeResult(True, coefficients=(0.0, 0.0))
        return GateProbeResult(False, witness=GateWitness(witness_items))

    # look for two independent rows (rank 2)
    pivot = None
    for (a1, b1, c1), (a2, b2, c2) in combinations(rows, 2):
        det = a1 * b2 - a2 * b1
        if abs(det) > GATE_TOL:
            pivot = ((c1 * b2 - c2 * b1) / det, (a1 * c2 - a2 * c1) / det)
            break

    if pivot is None:
        point = _solve_rank1(rows)
        if point is None:
            return GateProbeResult(False, witness=GateWitness(witness_items))
        return GateProbeResult(True, coefficients=point)

    l1, l2 = pivot
    consistent = all(abs(a * l1 + b * l2 - c) <= GATE_TOL for a, b, c in rows)
    if not consistent:
        return GateProbeResult(False, witness=GateWitness(witness_items))
    if l1 >= -GATE_TOL and l2 >= -GATE_TOL:
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
    witness: ScoreWitness | None = None


def probe_score(
    delta_u: float, penalty_shift: float, psi: PiecewisePsi
) -> ScoreProbeResult:
    """Margins of the two operator orders on one pair, and the case itself as
    the witness when their signs differ.

    Weight first: the weight samples the pre-penalty gap, margin
    delta_u * psi(delta_u). Penalty first: the weight samples the shifted gap,
    margin (delta_u + shift) * psi(delta_u + shift).
    """
    if psi.constant:
        raise ValueError("psi must be nonconstant for a score-dependence probe")
    m1 = delta_u * psi(delta_u)
    shifted = delta_u + penalty_shift
    m2 = shifted * psi(shifted)
    if (m1 > 0) - (m1 < 0) == (m2 > 0) - (m2 < 0):
        return ScoreProbeResult(m1, m2, flipped=False)
    witness = ScoreWitness(delta_u, penalty_shift, psi.value_below, psi.value_at_or_above)
    return ScoreProbeResult(m1, m2, flipped=True, witness=witness)


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
        for reason, data, probe in (
            ("reference_shift", evidence.shift_pairs, probe_shift),
            ("non_additive_gate", evidence.gate_items, probe_gate),
            ("score_dependent_weight", evidence.score_case, lambda case: probe_score(*case)),
        ):
            if data and reason in reasons:
                found = probe(data).witness
                if found is not None:
                    witness.update(found.as_witness_map())
    return ReducibilityBlock(
        inside_R=not reasons, reasons=tuple(sorted(reasons)), witness=witness
    )
