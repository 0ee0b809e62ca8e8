"""Named-method configs and their mappings onto GKPO objects.

Configs are flat JSON maps. One table, METHOD_SHAPES, states each method
once: its config keys in written order, each with a kind and a default; the
keys each value of its mode key requires or accepts; and what the method
carries of an inside-R object. normalize_config checks and fills a config by
walking its entry, to_gkpo builds the object from it, and from_gkpo tests an
object against it and writes the target's params in its key order. Values are
checked by kind, never coerced (a number is finite and not a bool, a flag is a
JSON boolean, a name matches schema's name pattern), and a refusal names the
key. Outside the table: PPO_RM's fold_kl folds kl_coeff * anchor_offset into
the reference and emits the DPO object it reduces to, and unfolded, a nonzero
kl_coeff is the coefficient of a penalty named "kl_anchor"; ORPO's per_prompt
mode emits a per-prompt reference, with shift_evidence {"raw_gap": g,
"offsets": [o1, o2]} as the witness's evidence; KTO_GRPO's weight_mode names
its weight form.

from_gkpo reads the fold an object records (algebra.object_normal_form), and
the first call on a valid object records what every target reads of it (see
_analysis). It blocks when the fold or the reducibility block puts the object
outside the reducible class, or when the target shape cannot express the
normal form, with result-level codes that are not schema reason codes:
"weight_not_absorbable" (a product weight and no probe, or probe products not
constant to a relative ABSORB_TOL; the probe is read on every call),
"penalty_not_representable" and "reference_not_representable".
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from copy import copy
from dataclasses import dataclass, field
from typing import Any, Iterable, NamedTuple

from . import algebra
from .algebra import PairSample
from .reducibility import Evidence, classify
from .schema import (
    METHODS,
    REQUIRED,
    DatasetOps,
    GkpoObject,
    PenaltyEntry,
    Provenance,
    ReferenceSpec,
    ScoreSpec,
    WeightSpec,
    is_finite_number,
    is_name,
    require_valid,
)

CITATIONS: dict[str, tuple[str, ...]] = {
    "DPO": ("rafailov2023direct",),
    "PPO_RM": ("christiano2017deep",),
    "RRHF": ("yuan2023rrhf",),
    "ORPO": ("orpo2024",),
    "KTO_GRPO": ("Ethayarajh2024kto", "shao2024deepseekmath"),
}

CONVERTED = "converted"
BLOCKED = "blocked"

# Spread (max - min), relative to the largest product, allowed when a probe
# decides a product weight is constant; relative, so the units of omega do
# not change the decision.
ABSORB_TOL = 1e-9


@dataclass(frozen=True)
class MethodConfig:
    method: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        object.__setattr__(self, "params", dict(self.params))


@dataclass(frozen=True)
class ConversionResult:
    outcome: str
    target: MethodConfig | None = None
    scale_applied: float | None = None
    reasons: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "reasons", tuple(self.reasons))
        if self.outcome == BLOCKED and not self.reasons:
            raise ValueError("blocked result needs at least one reason")

    @property
    def blocked(self) -> bool:
        return self.outcome == BLOCKED


class BlockedConversionError(ValueError):
    def __init__(self, reasons: tuple[str, ...]):
        self.reasons = tuple(reasons)
        super().__init__(f"conversion blocked: {', '.join(self.reasons)}")


# ---------------------------------------------------------------------------
# The method table

# Config value kinds, each named by what it asks of a value
NUMBER = "a finite number"
FLAG = "true or false"
PENALTIES = "a map of penalty names to finite numbers"
MODE = "one of"  # the mode values follow
FACTORS = "a list of factor names"
EVIDENCE = '{"raw_gap": g, "offsets": [o1, o2]} with finite numbers g, o1 and o2'
SCORE_FN = "a score function name"


class MethodShape(NamedTuple):
    # key -> (kind, default or REQUIRED), in written order; a None default
    # leaves the key unset, and a null value is taken as unset
    keys: dict[str, tuple[str, Any]]
    ref: str  # the key holding the fixed reference
    # the key holding the penalties (a PENALTIES map, or one NUMBER that is
    # the coefficient of the one name allowed) and the names allowed (None: any)
    penalties: str | None = None
    penalty_names: frozenset[str] | None = frozenset()
    product: str | None = None  # the key carrying a product weight's factors
    # the mode key and, per value, the keys that mode takes -> whether it
    # requires them; a key only other modes take must keep its default
    modes: tuple[str, dict[str, dict[str, bool]]] | None = None


METHOD_SHAPES: dict[str, MethodShape] = {
    "DPO": MethodShape(
        keys={"beta": (NUMBER, REQUIRED), "ref": (NUMBER, REQUIRED),
              "score_penalties": (PENALTIES, {})},
        ref="ref", penalties="score_penalties", penalty_names=None,
    ),
    "PPO_RM": MethodShape(
        keys={"beta": (NUMBER, REQUIRED), "ref": (NUMBER, REQUIRED),
              "kl_coeff": (NUMBER, REQUIRED), "anchor_offset": (NUMBER, 0.0),
              "fold_kl": (FLAG, False)},
        ref="ref", penalties="kl_coeff", penalty_names=frozenset({"kl_anchor"}),
    ),
    "RRHF": MethodShape(
        keys={"beta": (NUMBER, REQUIRED), "penalties": (PENALTIES, REQUIRED),
              "ref": (NUMBER, 0.0)},
        ref="ref", penalties="penalties", penalty_names=None,
    ),
    "ORPO": MethodShape(
        keys={"beta": (NUMBER, REQUIRED), "offset_mode": (MODE, REQUIRED),
              "offset": (NUMBER, None), "shift_evidence": (EVIDENCE, None)},
        ref="offset",
        modes=("offset_mode", {"fixed": {"offset": True},
                               "per_prompt": {"shift_evidence": False}}),
    ),
    "KTO_GRPO": MethodShape(
        keys={"beta": (NUMBER, REQUIRED), "ref": (NUMBER, REQUIRED),
              "weight_mode": (MODE, REQUIRED), "factors": (FACTORS, []),
              "score_fn": (SCORE_FN, None)},
        ref="ref", product="factors",
        modes=("weight_mode", {"constant": {}, "product": {"factors": True},
                               "score_dependent": {"score_fn": True}}),
    ),
}

_REFUSED = object()


def _value(kind: str, value: Any, modes: Mapping[str, Any]) -> Any:
    """value as a normalized config holds it (floats; maps and lists sorted
    and fresh), or _REFUSED when its kind does not allow it."""
    if kind is NUMBER:
        return float(value) if is_finite_number(value) else _REFUSED
    if kind is FLAG:
        return value if type(value) is bool else _REFUSED
    if kind is PENALTIES:
        if isinstance(value, Mapping) and all(
            is_name(name) and is_finite_number(value[name]) for name in value
        ):
            return {name: float(value[name]) for name in sorted(value)}
    elif kind is MODE:
        if isinstance(value, str) and value in modes:
            return value
    elif kind is FACTORS:
        if isinstance(value, (list, tuple)) and all(map(is_name, value)):
            return sorted(value)
    elif kind is EVIDENCE:
        if isinstance(value, Mapping) and set(value) == {"raw_gap", "offsets"}:
            offsets = value["offsets"] if isinstance(value["offsets"], (list, tuple)) else ()
            numbers = [value["raw_gap"], *offsets]
            if len(numbers) == 3 and all(map(is_finite_number, numbers)):
                return {"raw_gap": float(numbers[0]), "offsets": [float(o) for o in offsets]}
    elif is_name(value):  # SCORE_FN
        return value
    return _REFUSED


def _mode_problem(shape: MethodShape, mode: str, params: Mapping[str, Any]) -> str | None:
    """Why params (an absent key holds its default) do not fit mode: a key it
    requires keeps its default, or a key only other modes take does not;
    None when they fit."""
    modes = shape.modes[1]
    taken = modes[mode]
    for key, required in taken.items():
        default = shape.keys[key][1]
        if required and params.get(key, default) == default:
            return f"requires {key}"
    for other in modes.values():
        for key in other:
            default = shape.keys[key][1]
            if key not in taken and params.get(key, default) != default:
                return f"takes no {key}"
    return None


def normalize_config(cfg: MethodConfig) -> MethodConfig:
    """cfg checked against its METHOD_SHAPES entry and written in its key
    order, defaults filled in. A missing or unknown key, a value its kind
    refuses, a key its mode requires or refuses, and a beta that is not
    positive are ValueErrors that name the key."""
    method, given = cfg.method, cfg.params
    shape = METHOD_SHAPES[method]
    modes = shape.modes[1] if shape.modes else {}
    params: dict[str, Any] = {}
    for key, (kind, default) in shape.keys.items():
        value = given.get(key, default)
        if value is REQUIRED:
            raise ValueError(f"{method} config missing required key {key!r}")
        if value is not None or default is not None:
            value = _value(kind, value, modes)
            if value is _REFUSED:
                listed = f" {', '.join(modes)}" if kind is MODE else ""
                raise ValueError(f"{method} config {key} must be {kind}{listed}")
        params[key] = value
    for key in given:
        if key not in shape.keys:
            raise ValueError(f"{method} config has unknown key {key!r}")
    if not params["beta"] > 0:
        raise ValueError(f"{method} config beta must be positive")
    if shape.modes:
        mode = params[shape.modes[0]]
        if problem := _mode_problem(shape, mode, params):
            raise ValueError(f"{method} {mode} mode {problem}")
    return MethodConfig(method, params)


# ---------------------------------------------------------------------------
# Emission: config -> GKPO


def _reference(value: float) -> ReferenceSpec:
    if value == 0:
        return ReferenceSpec(form="fixed_zero", value=0.0)
    return ReferenceSpec(form="fixed_scalar", value=value)


def to_gkpo(cfg: MethodConfig) -> GkpoObject:
    """The GKPO object of a method config; its reducibility block is classify's,
    with ORPO's shift_evidence (when given) as the witness's evidence."""
    cfg = normalize_config(cfg)
    method, p = cfg.method, cfg.params
    shape = METHOD_SHAPES[method]
    if p.get("fold_kl"):
        # the fold IS the reduction: emit the DPO object it reduces to
        folded = p["ref"] + p["kl_coeff"] * p["anchor_offset"]
        return to_gkpo(MethodConfig("DPO", {"beta": p["beta"], "ref": folded}))

    ref = p[shape.ref]  # None in ORPO's per_prompt mode
    evidence = None
    if (ev := p.get("shift_evidence")) is not None:
        gap, (o1, o2) = ev["raw_gap"], ev["offsets"]
        evidence = Evidence(shift_pairs=((gap, o1), (gap, o2)))
    held = p[shape.penalties] if shape.penalties else {}
    if not isinstance(held, dict):  # one coefficient; a zero one emits no penalty
        held = dict.fromkeys(shape.penalty_names, held) if held else {}
    form = p.get("weight_mode", "constant")  # KTO_GRPO's weight mode names its form
    factors = tuple(p[shape.product]) if shape.product else ()
    obj = GkpoObject(
        score=ScoreSpec(type="logpi"),
        weight=WeightSpec(form, 1.0 if form == "constant" else None, factors, p.get("score_fn")),
        reference=ReferenceSpec(form="per_prompt", value=None) if ref is None else _reference(ref),
        link="identity",
        loss="logistic",
        beta=p["beta"],
        penalties=tuple(PenaltyEntry(name=n, coeff=c) for n, c in held.items()),
        dataset_ops=DatasetOps(),
        provenance=Provenance(method=method, citations=CITATIONS[method]),
    )
    # set in place, so obj keeps the fold classify records (the block is not in it)
    object.__setattr__(obj, "reducibility", classify(obj, evidence))
    return require_valid(obj)


# ---------------------------------------------------------------------------
# Recovery: GKPO -> config

_NOT_ABSORBABLE = ConversionResult(BLOCKED, reasons=("weight_not_absorbable",))
_NO_REFERENCE = ConversionResult(BLOCKED, reasons=("reference_not_representable",))
_NO_PENALTY = ConversionResult(BLOCKED, reasons=("penalty_not_representable",))

_ANALYSIS = "_conversion"  # an instance attribute, like schema's _PARSED and _VALID


def _analysis(obj: GkpoObject) -> Any:
    """from_gkpo's target-independent facts about obj, from its fold: the
    blocked result of a flagged object (the fold's and the declared reasons),
    else the normal form. The first call checks obj with require_valid and
    records the facts on it as _ANALYSIS, so only a valid object holds them."""
    facts = obj.__dict__.get(_ANALYSIS) if isinstance(obj, GkpoObject) else None
    if facts is None:
        require_valid(obj)
        facts = algebra.object_normal_form(obj)
        flagged = facts.reasons.union(obj.reducibility.reasons)
        if flagged or not obj.reducibility.inside_R:
            facts = ConversionResult(BLOCKED, reasons=tuple(sorted(flagged)))
        object.__setattr__(obj, _ANALYSIS, facts)
    return facts


def _absorbable_weight(
    nf: algebra.NormalForm, probe: Iterable[PairSample] | None
) -> float | None:
    """Constant value of nf's product weight across the probe, or None.

    Factor values are positive by construction, so None is unambiguous."""
    if probe is None:
        return None
    try:
        products = [algebra.weight(nf, sample) for sample in probe]
    except KeyError:  # a sample lacks one of the factors
        return None
    if not products:
        return None
    if max(products) - min(products) > ABSORB_TOL * max(products):
        return None
    return products[0]


def from_gkpo(
    obj: GkpoObject, target: str, probe: Iterable[PairSample] | None = None
) -> ConversionResult:
    if target not in METHODS:
        raise ValueError(f"unknown target method {target!r}")
    facts = _analysis(obj)
    if isinstance(facts, ConversionResult):  # flagged
        return facts
    nf, shape = facts, METHOD_SHAPES[target]
    penalties = nf.penalty_coeffs  # sorted, with float sums as normalize_config has

    # weight: fold a constant into beta; carry a product's factors, or absorb it
    factors = ()
    if not nf.weight_factors:
        scale = nf.weight_constants[0]
    elif shape.product:
        scale, factors = 1.0, nf.weight_factors
    else:
        scale = _absorbable_weight(nf, probe)  # the probe is read on every call
        if scale is None:
            return _NOT_ABSORBABLE
    if nf.ref_terms:  # a reference read from the data has no fixed value
        return _NO_REFERENCE
    if shape.penalty_names is not None and not penalties.keys() <= shape.penalty_names:
        return _NO_PENALTY

    beta = float(obj.beta * scale)
    if not beta > 0:  # an absorbed product can underflow to 0
        raise ValueError(f"{target} config beta must be positive")
    # params are written as normalize_config writes them, in the table's order
    written: dict[str, Any] = {"beta": beta, shape.ref: float(nf.ref_values[0])}
    if shape.penalty_names is None:  # a map takes every penalty
        written[shape.penalties] = dict(penalties)
    elif shape.penalties:  # one number: the coefficient of the one name allowed, or 0
        written[shape.penalties] = next(iter(penalties.values()), 0.0)
    if factors:
        written[shape.product] = list(factors)
    if shape.modes:  # the first mode that the written values fit
        key, modes = shape.modes
        written[key] = next(mode for mode in modes if _mode_problem(shape, mode, written) is None)
    params = {  # a default map or list is copied, so each config owns its own
        key: written[key] if key in written else copy(default)
        for key, (_, default) in shape.keys.items()
    }
    cfg = MethodConfig(target, params)
    return ConversionResult(CONVERTED, target=cfg, scale_applied=scale)


def roundtrip(cfg: MethodConfig) -> MethodConfig:
    """config -> GKPO -> config; raises BlockedConversionError when flagged."""
    obj = to_gkpo(cfg)
    result = from_gkpo(obj, cfg.method)
    if result.blocked:
        raise BlockedConversionError(result.reasons)
    return result.target


def configs_equal(a: MethodConfig, b: MethodConfig, tol: float = 1e-6) -> bool:
    """Same method and the same normalized params, with every number in them
    (a number key, a penalty coefficient, an evidence number) within tol."""
    return a.method == b.method and _close(
        normalize_config(a).params, normalize_config(b).params, tol
    )


def _close(a: Any, b: Any, tol: float) -> bool:
    # normalized values have one Python type per kind: floats, dicts, lists
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=0.0, abs_tol=tol)
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y, tol) for x, y in zip(a, b))
    return a == b
