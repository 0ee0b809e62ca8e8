"""Ladders of GKPO nodes and their collected normal form.

An objective is an ordered ladder of a document's own nodes on the base pair
(score gap, weight 1): a penalty subtracts its coefficient times a named
penalty gap, the weight multiplies in named positive factors or a constant,
and the reference subtracts a fixed value or a dataset or prompt offset term.
Three nodes break the paper's reduction law and carry its reason code: a
gated penalty, a per-prompt reference, and a form with no sample-level value
(a score-dependent or custom weight, a custom reference). `collect`, the one
fold, reads each node by form and gate and takes any ladder to a normal form
that carries the reasons; `ladder_margin` evaluates it in order instead. A
document's ladder is `ladder_of(obj)`. `object_normal_form(obj)` records the
fold on the object, and margins, classification, conversion and scale fixing
read that record, so each object is folded once.

The evaluators use only `-`, `*` and `/` on the sample's attributes
`delta_u`, `delta_phi`, `omega` and `delta_ref`, so they run unchanged on one
`PairSample` of floats and on a columnar batch whose attributes are arrays
(`harness.PairBatch`). They never update in place (`gap = gap - x`, not
`gap -= x`), which on a batch would write into its columns. Their identities
are the ints 0 and 1, so a sample and normal form of `fractions.Fraction`s
give an exact margin, and floats and arrays the bits a 0.0 and 1.0 start
gives. This module does not import numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .schema import GkpoObject, PenaltyEntry, ReferenceSpec, WeightSpec, is_finite_number

# Keys of the per-prompt / per-dataset reference values in PairSample.delta_ref
PROMPT_OFFSET_KEY = "prompt_offset"
DATASET_OFFSET_KEY = "dataset_offset"


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

    def lacking(self) -> str:
        """Prompt id that an error for a name this sample lacks names."""
        return self.prompt_id


def sample_from_row(row: Any) -> PairSample:
    """PairSample from one decoded JSON row of a probe file.

    prompt_id (string) and delta_u (number) are required; delta_phi, omega and
    delta_ref are optional name -> number maps. Other keys are the caller's.
    Every number must be finite as a float; omega values are read as floats,
    so a probe's weight is the float product. Raises ValueError naming the
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
    tables["omega"] = {name: float(value) for name, value in tables["omega"].items()}
    return PairSample(row["prompt_id"], row["delta_u"], **tables)


@dataclass(frozen=True)
class NormalForm:
    """A collected ladder; the evaluators read each side in sorted order.
    reasons name the laws it breaks, unvalued its forms that have no
    sample-level value."""

    penalty_coeffs: Mapping[str, float]
    weight_factors: tuple[str, ...]
    ref_terms: tuple[str, ...]
    ref_values: tuple[float, ...] = ()
    weight_constants: tuple[float, ...] = ()
    reasons: frozenset[str] = frozenset()
    unvalued: tuple[str, ...] = ()

    def __post_init__(self):  # collect, which skips this, builds sorted sides
        object.__setattr__(self, "penalty_coeffs", dict(sorted(self.penalty_coeffs.items())))
        object.__setattr__(self, "weight_factors", tuple(self.weight_factors))
        object.__setattr__(self, "ref_terms", tuple(self.ref_terms))


def collect(ladder: Iterable[Any]) -> NormalForm:
    """Fold a ladder of document nodes (see ladder_of) into normal form in one
    pass, whatever its order. A penalty's coefficient is kept as a float; a
    repeated name's coefficients sum with math.fsum, or exactly and then
    rounded (+-inf past float range) when fsum overflows. A reference or
    weight is read by its form; every other side is a sorted multiset of
    values only stored, so every document that parse accepts folds. A gated
    penalty, a per-prompt or custom reference, and a weight form other than
    constant or product add their reason; an unvalued form is named in
    unvalued. Anything else is a TypeError."""
    coeffs: dict[str, float] = {}
    repeated: dict[str, list[float]] = {}
    factors, constants, terms, values, unvalued, reasons = [], [], [], [], [], set()
    for op in ladder:
        kind = type(op)  # one dispatch; a document's penalties come first
        if kind is PenaltyEntry:
            name, coeff = op.name, op.coeff + 0.0  # a float, as math.fsum gives
            if name in coeffs:
                repeated.setdefault(name, [coeffs[name]]).append(coeff)
            else:
                coeffs[name] = coeff
            if op.meta_gate:
                reasons.add("non_additive_gate")
        elif kind is ReferenceSpec:  # a value, an offset term, or no value
            if op.form == "fixed_zero" or op.form == "fixed_scalar":
                values.append(op.value)
            elif op.form == "per_dataset":
                terms.append(DATASET_OFFSET_KEY)
            elif op.form == "per_prompt":  # a term that differs per prompt
                terms.append(PROMPT_OFFSET_KEY)
                reasons.add("reference_shift")
            else:
                unvalued.append(f"reference form {op.form!r}")
                reasons.add("reference_shift")
        elif kind is WeightSpec:  # a constant, factors, or no sample-level value
            if op.form == "constant":
                constants.append(op.constant)
            elif op.form == "product":
                factors += op.factors
            else:
                unvalued.append(f"weight form {op.form!r}")
                reasons.add("score_dependent_weight")
        else:
            raise TypeError(f"not a ladder operator: {op!r}")
    for name, addends in repeated.items():
        try:
            coeffs[name] = math.fsum(addends)
        except OverflowError:  # partial sums past float range: round the exact sum
            from fractions import Fraction

            exact = sum(map(Fraction, addends))
            finite = abs(exact) < 2**1024 - 2**970  # the sums that round to a finite float
            coeffs[name] = float(exact) if finite else math.inf if exact > 0 else -math.inf
    nf = object.__new__(NormalForm)  # the frozen __init__ would setattr each field
    nf.__dict__.update(  # a side of fewer than two entries is sorted already
        penalty_coeffs=coeffs if len(coeffs) < 2 else dict(sorted(coeffs.items())),
        weight_factors=tuple(factors) if len(factors) < 2 else tuple(sorted(factors)),
        ref_terms=tuple(terms) if len(terms) < 2 else tuple(sorted(terms)),
        ref_values=tuple(values) if len(values) < 2 else tuple(sorted(values)),
        weight_constants=tuple(constants) if len(constants) < 2 else tuple(sorted(constants)),
        reasons=frozenset(reasons), unvalued=tuple(sorted(unvalued)))
    return nf


def ladder_of(obj: GkpoObject) -> list[Any]:
    """obj's ladder, its own nodes: reference, weight, then penalties in file
    order. collect reads a reference or weight by form (a per_dataset or
    per_prompt reference is a dataset or prompt offset term) and a penalty by
    its gate; values are carried as they are."""
    return [obj.reference, obj.weight, *obj.penalties]


def _missing(name: str, kind: str, sample: Any) -> KeyError:
    return KeyError(f"{kind} {name!r} missing from sample {sample.lacking()!r}")


def _value(table: Mapping[str, Any], name: str, kind: str, sample: Any) -> Any:
    if name not in table:
        raise _missing(name, kind, sample)
    return table[name]


def _reference_term(sample: Any, name: str) -> Any:
    if name == DATASET_OFFSET_KEY:  # 0 in a sample that carries none
        return sample.delta_ref.get(name, 0)
    return _value(sample.delta_ref, name, "reference term", sample)


def delta_score(nf: NormalForm, sample: PairSample) -> float:
    """delta_u - sum(coeff * delta_phi), penalty names consumed in sorted order
    so that ladders differing only in operator order give bit-identical sums."""
    gap, phi = sample.delta_u, sample.delta_phi
    try:
        for name, coeff in nf.penalty_coeffs.items():
            gap = gap - coeff * phi[name]
    except KeyError:
        raise _missing(name, "penalty", sample) from None
    return gap


def weight(nf: NormalForm, sample: PairSample) -> float:
    """prod(weight_constants) * prod(omega); an unvalued form is a ValueError."""
    if nf.unvalued:
        raise ValueError(f"{nf.unvalued[0]} has no sample-level numeric value")
    w, omega = 1, sample.omega
    for value in nf.weight_constants:
        w = w * value
    try:
        for name in nf.weight_factors:
            w = w * omega[name]
    except KeyError:
        raise _missing(name, "weight factor", sample) from None
    return w


def _margin_and_weight(nf: NormalForm, sample: Any) -> tuple[Any, Any]:
    gap = delta_score(nf, sample)
    for value in nf.ref_values:
        gap = gap - value
    for name in nf.ref_terms:
        gap = gap - _reference_term(sample, name)
    w = weight(nf, sample)
    return gap * w, w


def margin(nf: NormalForm, sample: PairSample) -> float:
    """(delta_u - sum(coeff * delta_phi) - sum(references)) * weight."""
    return _margin_and_weight(nf, sample)[0]


def ladder_margin(ladder: Iterable[Any], sample: PairSample) -> float:
    """Evaluate a ladder left to right without collecting it as a whole: each
    node is read as collect reads it alone, and an unvalued form raises where
    it stands."""
    gap, ref, w = sample.delta_u, 0, 1
    for op in ladder:
        one = collect((op,))
        for name, coeff in one.penalty_coeffs.items():
            gap = gap - coeff * _value(sample.delta_phi, name, "penalty", sample)
        for value in one.ref_values:
            ref = ref + value
        for name in one.ref_terms:
            ref = ref + _reference_term(sample, name)
        w = w * weight(one, sample)
    return (gap - ref) * w


# ---------------------------------------------------------------------------
# Object-level evaluation (GKPO object + realized sample)

_FOLD = "_fold"  # an instance attribute, like schema's _PARSED and _VALID


def object_normal_form(obj: GkpoObject) -> NormalForm:
    """collect(ladder_of(obj)), recorded on the frozen obj by the first call."""
    nf = obj.__dict__.get(_FOLD)
    if nf is None:
        nf = collect(ladder_of(obj))
        object.__setattr__(obj, _FOLD, nf)
    return nf


def object_margins_and_weights(obj: GkpoObject, s: Any) -> tuple[Any, Any]:
    """(margin, weight) of obj on s, folding obj once. s is one PairSample
    (two floats come back) or a batch of columns (arrays come back, a constant
    weight as one float), each entry equal to its PairSample's bit for bit."""
    return _margin_and_weight(object_normal_form(obj), s)


def object_weight(obj: GkpoObject, sample: PairSample) -> float:
    return weight(object_normal_form(obj), sample)


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
