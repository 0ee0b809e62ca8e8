"""The per-call `from_gkpo` that `gkpo.adapters` replaced.

`gkpo.adapters.from_gkpo` derives an object's reasons, reference, penalties
and weight once, records them on the object, and then does only the
per-target part on each call. This module keeps the earlier path as a test
oracle: every call derives everything afresh and blocks through one branch
per target. For any object, target and probe both must give the same result,
down to the key order of the converted params.
"""

from __future__ import annotations

from typing import Any, Iterable

from gkpo import algebra
from gkpo.adapters import (
    ABSORB_TOL,
    BLOCKED,
    CONVERTED,
    ConversionResult,
    MethodConfig,
    normalize_config,
)
from gkpo.algebra import PairSample
from gkpo.reducibility import classify
from gkpo.schema import METHODS, GkpoObject, require_valid


def _absorbable_weight(
    obj: GkpoObject, probe: Iterable[PairSample] | None
) -> float | None:
    if probe is None:
        return None
    nf = algebra.object_normal_form(obj)
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
    require_valid(obj)

    flagged = set(classify(obj).reasons).union(obj.reducibility.reasons)
    if flagged or not obj.reducibility.inside_R:
        return ConversionResult(BLOCKED, reasons=tuple(sorted(flagged)))

    # weight: fold a constant into beta; KTO_GRPO carries product factors as-is
    scale = 1.0
    weight_mode = "constant"
    factors: list[str] = []
    if obj.weight.form == "constant":
        scale = obj.weight.constant
    elif obj.weight.form == "product":
        if target == "KTO_GRPO":
            weight_mode = "product"
            factors = sorted(obj.weight.factors)
        else:
            found = _absorbable_weight(obj, probe)
            if found is None:
                return ConversionResult(BLOCKED, reasons=("weight_not_absorbable",))
            scale = found
    beta = obj.beta * scale

    if obj.reference.form == "per_dataset":
        return ConversionResult(BLOCKED, reasons=("reference_not_representable",))
    ref = float(obj.reference.value)

    penalties = {p.name: p.coeff for p in obj.penalties}

    if target == "DPO":
        params: dict[str, Any] = {"beta": beta, "ref": ref, "score_penalties": penalties}
    elif target == "PPO_RM":
        extra = {n for n in penalties if n != "kl_anchor"}
        if extra:
            return ConversionResult(BLOCKED, reasons=("penalty_not_representable",))
        params = {"beta": beta, "ref": ref, "kl_coeff": penalties.get("kl_anchor", 0.0)}
    elif target == "RRHF":
        params = {"beta": beta, "ref": ref, "penalties": penalties}
    elif target == "ORPO":
        if penalties:
            return ConversionResult(BLOCKED, reasons=("penalty_not_representable",))
        params = {"beta": beta, "offset_mode": "fixed", "offset": ref}
    else:  # KTO_GRPO
        if penalties:
            return ConversionResult(BLOCKED, reasons=("penalty_not_representable",))
        params = {"beta": beta, "ref": ref, "weight_mode": weight_mode}
        if weight_mode == "product":
            params["factors"] = factors
    cfg = normalize_config(MethodConfig(target, params))
    return ConversionResult(CONVERTED, target=cfg, scale_applied=scale)
