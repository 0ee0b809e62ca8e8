"""Ladders of margin operators and their collected normal form.

An objective is written as an ordered ladder of three primitive operators
applied to the base pair (score gap, weight 1): additive penalties subtract
coefficient-weighted penalty gaps from the score side, multiplicative weights
multiply named positive factors onto the weight side, and reference adjusts
accumulate named reference terms. Collection folds any ladder into a normal
form in one pass; margins evaluated through either route coincide.

A GKPO object folds to a normal form through `object_normal_form`;
`object_margins_and_weights` evaluates its margin through `delta_score` and
`weight`, with the object's reference and constant weight applied on top.

The evaluators use only `-`, `*` and `/` on the sample's attributes
`delta_u`, `delta_phi`, `omega` and `delta_ref`, so they run unchanged on one
`PairSample` of floats and on a columnar batch whose attributes are arrays
(`harness.PairBatch`). They never update in place (`gap = gap - x`, not
`gap -= x`), which on a batch would write into its columns. This module does
not import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .schema import GkpoObject, is_finite_number


@dataclass(frozen=True)
class AdditivePenalty:
    coeff: float
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("penalty name must be nonempty")


@dataclass(frozen=True)
class MultiplicativeWeight:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("weight factor name must be nonempty")


@dataclass(frozen=True)
class ReferenceAdjust:
    name: str

    def __post_init__(self):
        if not self.name:
            raise ValueError("reference term name must be nonempty")


Operator = AdditivePenalty | MultiplicativeWeight | ReferenceAdjust


@dataclass(frozen=True)
class Ladder:
    ops: tuple[Operator, ...]

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))


@dataclass(frozen=True)
class PairSample:
    """Realized quantities for one preference pair.

    delta_u is the raw score gap; delta_phi, omega, and delta_ref supply the
    named penalty gaps, weight factors, and reference terms an objective may
    consume. All omega values must be positive.
    """

    prompt_id: str
    delta_u: float
    delta_phi: Mapping[str, float] = field(default_factory=dict)
    omega: Mapping[str, float] = field(default_factory=dict)
    delta_ref: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "delta_phi", dict(self.delta_phi))
        object.__setattr__(self, "omega", dict(self.omega))
        object.__setattr__(self, "delta_ref", dict(self.delta_ref))
        for name, value in self.omega.items():
            if not value > 0:
                raise ValueError(
                    f"omega[{name!r}] must be positive, got {value!r}"
                )

    def lacking(self, table: Mapping[str, float], name: str) -> str:
        """Prompt id an error names when `name` is missing from `table`."""
        return self.prompt_id


def sample_from_row(row: Any) -> PairSample:
    """PairSample from one decoded JSON row of a probe or pair-dataset file.

    prompt_id (string) and delta_u (number) are required; delta_phi, omega and
    delta_ref are optional name -> number maps. Other keys are the caller's.
    Every number must be finite as a float. Raises ValueError naming the
    first bad field.
    """
    if not isinstance(row, dict):
        raise ValueError("sample row must be a JSON object")
    if not isinstance(row.get("prompt_id"), str):
        raise ValueError("prompt_id must be a string")
    if not is_finite_number(row.get("delta_u")):
        raise ValueError("delta_u must be a finite number")
    tables = {}
    for key in ("delta_phi", "omega", "delta_ref"):
        table = row.get(key, {})
        if not isinstance(table, dict) or not all(map(is_finite_number, table.values())):
            raise ValueError(f"{key} must map names to finite numbers")
        tables[key] = table
    return PairSample(row["prompt_id"], row["delta_u"], **tables)


@dataclass(frozen=True)
class NormalForm:
    penalty_coeffs: Mapping[str, float]
    weight_factors: tuple[str, ...]
    ref_terms: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "penalty_coeffs", dict(self.penalty_coeffs))
        object.__setattr__(self, "weight_factors", tuple(self.weight_factors))
        object.__setattr__(self, "ref_terms", tuple(self.ref_terms))


def collect(ladder: Ladder | Iterable[Operator]) -> NormalForm:
    """Fold a ladder into normal form in a single pass over its operators.

    Repeated penalty names sum; weight factors and reference terms are kept as
    multisets (stored sorted so collection is order-insensitive).
    """
    ops = ladder.ops if isinstance(ladder, Ladder) else ladder
    coeffs: dict[str, float] = {}
    factors: list[str] = []
    refs: list[str] = []
    for op in ops:
        if isinstance(op, AdditivePenalty):
            coeffs[op.name] = coeffs.get(op.name, 0.0) + op.coeff
        elif isinstance(op, MultiplicativeWeight):
            factors.append(op.name)
        elif isinstance(op, ReferenceAdjust):
            refs.append(op.name)
        else:
            raise TypeError(f"not a ladder operator: {op!r}")
    return NormalForm(coeffs, tuple(sorted(factors)), tuple(sorted(refs)))


def _lookup(table: Mapping[str, Any], name: str, kind: str, sample: Any):
    try:
        return table[name]
    except KeyError:
        raise KeyError(
            f"{kind} {name!r} missing from sample {sample.lacking(table, name)!r}"
        ) from None


def delta_score(nf: NormalForm, sample: PairSample) -> float:
    """delta_u - sum(coeff * delta_phi), penalty names consumed in sorted order
    so that ladders differing only in operator order give bit-identical sums."""
    gap = sample.delta_u
    for name in sorted(nf.penalty_coeffs):
        gap = gap - nf.penalty_coeffs[name] * _lookup(
            sample.delta_phi, name, "penalty", sample
        )
    return gap


def weight(nf: NormalForm, sample: PairSample) -> float:
    """prod(omega) over the normal form's weight factors."""
    w = 1.0
    for name in nf.weight_factors:
        w = w * _lookup(sample.omega, name, "weight factor", sample)
    return w


def margin(nf: NormalForm, sample: PairSample) -> float:
    """(delta_u - sum(coeff * delta_phi) - sum(delta_ref)) * prod(omega)."""
    gap = delta_score(nf, sample)
    for name in nf.ref_terms:
        gap = gap - _lookup(sample.delta_ref, name, "reference term", sample)
    return gap * weight(nf, sample)


def ladder_margin(ladder: Ladder | Iterable[Operator], sample: PairSample) -> float:
    """Evaluate a ladder left to right without collecting it first."""
    ops = ladder.ops if isinstance(ladder, Ladder) else ladder
    gap = sample.delta_u
    ref = 0.0
    w = 1.0
    for op in ops:
        if isinstance(op, AdditivePenalty):
            gap = gap - op.coeff * _lookup(sample.delta_phi, op.name, "penalty", sample)
        elif isinstance(op, MultiplicativeWeight):
            w = w * _lookup(sample.omega, op.name, "weight factor", sample)
        elif isinstance(op, ReferenceAdjust):
            ref = ref + _lookup(sample.delta_ref, op.name, "reference term", sample)
        else:
            raise TypeError(f"not a ladder operator: {op!r}")
    return (gap - ref) * w


# ---------------------------------------------------------------------------
# Object-level evaluation (GKPO object + realized sample)

# Keys under which per-prompt / per-dataset reference values travel in
# PairSample.delta_ref when an object's reference form is not fixed.
PROMPT_OFFSET_KEY = "prompt_offset"
DATASET_OFFSET_KEY = "dataset_offset"


def object_normal_form(obj: GkpoObject) -> NormalForm:
    coeffs: dict[str, float] = {}
    for p in obj.penalties:
        coeffs[p.name] = coeffs.get(p.name, 0.0) + p.coeff
    factors = obj.weight.factors if obj.weight.form == "product" else ()
    return NormalForm(coeffs, tuple(sorted(factors)), ())


def _object_weight(obj: GkpoObject, nf: NormalForm, sample: Any) -> Any:
    if obj.weight.form == "constant":
        return float(obj.weight.constant)
    if obj.weight.form == "product":
        return weight(nf, sample)
    raise ValueError(
        f"weight form {obj.weight.form!r} has no sample-level numeric value"
    )


def _object_reference(obj: GkpoObject, sample: Any) -> Any:
    form = obj.reference.form
    if form in ("fixed_zero", "fixed_scalar"):
        return float(obj.reference.value)
    if form == "per_prompt":
        return _lookup(sample.delta_ref, PROMPT_OFFSET_KEY, "reference term", sample)
    if form == "per_dataset":
        return sample.delta_ref.get(DATASET_OFFSET_KEY, 0.0)
    raise ValueError(f"reference form {form!r} has no sample-level numeric value")


def object_reference(obj: GkpoObject, sample: PairSample) -> float:
    """Fixed value, or the sample's per-prompt / per-dataset offset."""
    return float(_object_reference(obj, sample))


def object_margins_and_weights(obj: GkpoObject, s: Any) -> tuple[Any, Any]:
    """(margin, weight) of obj on s, folding obj to its normal form once.

    margin = (delta_score - reference) * weight. s is one PairSample (two
    floats come back) or a batch of columns (arrays come back; a constant
    weight stays one float). Each batch entry equals the PairSample result
    bit for bit.
    """
    nf = object_normal_form(obj)
    gap = delta_score(nf, s) - _object_reference(obj, s)
    w = _object_weight(obj, nf, s)
    return gap * w, w


def object_weight(obj: GkpoObject, sample: PairSample) -> float:
    return _object_weight(obj, object_normal_form(obj), sample)


def object_margin(obj: GkpoObject, sample: PairSample) -> float:
    """(delta_score - reference) * weight for the object's normal form."""
    return object_margins_and_weights(obj, sample)[0]


def scale_fix(nf: NormalForm, probe: Iterable[PairSample]) -> float | None:
    """The c that brings the probe median of |delta_score| to 1.

    Zero gaps are excluded from the median; an all-zero probe has no such c
    and gives None instead of failing. Applying c as (beta * c, w / c) leaves
    beta * margin unchanged on every sample.
    """
    import statistics  # loads fractions; only the probe median needs it

    probe = list(probe)
    if not probe:
        raise ValueError("probe must contain at least one sample")
    magnitudes = [abs(delta_score(nf, s)) for s in probe]
    magnitudes = [m for m in magnitudes if m != 0.0]
    if not magnitudes:
        return None
    return 1.0 / statistics.median(magnitudes)
