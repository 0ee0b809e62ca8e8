"""Typed object model for the gkpo-1.0 interchange format.

A GKPO document is a JSON object with a fixed key set describing one pairwise
margin objective: score source, weight, reference, link/loss pair, temperature,
additive penalties, dataset-level operations, provenance, and a reducibility
block. Parsing is strict (unknown keys, nulls, NaN/Infinity, and type
mismatches are rejected with a path); validation is non-throwing and returns
every violation so callers can report them all at once.

Optional keys are absent when unused; an explicit null is a parse error.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from typing import Any, Callable, Mapping

SCHEMA_VERSION = "gkpo-1.0"

SCORE_TYPES = frozenset({"logpi", "logit", "custom"})
WEIGHT_FORMS = frozenset({"constant", "product", "score_dependent", "custom"})
REFERENCE_FORMS = frozenset(
    {"fixed_zero", "fixed_scalar", "per_dataset", "per_prompt", "custom"}
)
LINK_NAMES = frozenset({"identity", "logistic", "tanh", "hinge", "custom"})
LOSS_NAMES = frozenset({"logistic", "bce", "hinge", "mse", "custom"})
METHODS = ("DPO", "PPO_RM", "RRHF", "ORPO", "KTO_GRPO")  # the adapters' targets
COMPOSITIONS = frozenset({"dataset_then_policy", "policy_then_dataset"})
REASON_CODES = frozenset(
    {"reference_shift", "non_additive_gate", "score_dependent_weight"}
)

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")
# Identifier strings name penalties, factors, score functions, witness keys.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


class ParseError(ValueError):
    """Raised on malformed GKPO text: syntax, unknown key, type, or enum."""

    def __init__(self, message: str, path: str = ""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class Violation:
    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


@dataclass(frozen=True)
class ScoreSpec:
    type: str = "logpi"
    custom_name: str | None = None


@dataclass(frozen=True)
class WeightSpec:
    form: str = "constant"
    constant: float | None = 1.0
    factors: tuple[str, ...] = ()
    score_fn: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class ReferenceSpec:
    form: str = "fixed_zero"
    value: float | None = 0.0


@dataclass(frozen=True)
class PenaltyEntry:
    name: str
    coeff: float  # wire key "lambda"
    meta_gate: bool | None = None


@dataclass(frozen=True)
class DatasetOps:
    group_weights: tuple[str, ...] = ()
    group_penalties: tuple[str, ...] = ()
    composition: str = "dataset_then_policy"

    def __post_init__(self):
        object.__setattr__(self, "group_weights", tuple(self.group_weights))
        object.__setattr__(self, "group_penalties", tuple(self.group_penalties))


@dataclass(frozen=True)
class Provenance:
    method: str = ""
    citations: tuple[str, ...] = ()
    notes: str = ""
    opal_hash: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "citations", tuple(self.citations))


@dataclass(frozen=True)
class ReducibilityBlock:
    inside_R: bool = True
    reasons: tuple[str, ...] = ()
    witness: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "reasons", tuple(self.reasons))
        object.__setattr__(self, "witness", dict(self.witness))


@dataclass(frozen=True)
class GkpoObject:
    score: ScoreSpec = field(default_factory=ScoreSpec)
    weight: WeightSpec = field(default_factory=WeightSpec)
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    link: str = "identity"
    loss: str = "logistic"
    beta: float = 1.0
    penalties: tuple[PenaltyEntry, ...] = ()
    dataset_ops: DatasetOps = field(default_factory=DatasetOps)
    provenance: Provenance = field(default_factory=Provenance)
    reducibility: ReducibilityBlock = field(default_factory=ReducibilityBlock)
    version: str = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "penalties", tuple(self.penalties))


# ---------------------------------------------------------------------------
# Parsing


def _reject_constant(token: str):
    raise ParseError(f"non-finite number {token} not allowed")


def _strict_pairs(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ParseError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _float(value: int | float, path: str) -> float:
    try:
        return float(value)
    except OverflowError:
        raise ParseError("number out of range", path) from None


class _Node:
    """One JSON object during parsing: typed extraction plus unknown-key rejection."""

    def __init__(self, data: Any, path: str):
        if not isinstance(data, dict):
            raise ParseError("expected an object", path or "<root>")
        self.data = dict(data)
        self.path = path

    def _sub(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def _pop(self, key: str, required: bool):
        if key not in self.data:
            if required:
                raise ParseError("missing required key", self._sub(key))
            return None, False
        value = self.data.pop(key)
        if value is None:
            raise ParseError("null not allowed; omit the key instead", self._sub(key))
        return value, True

    def take_str(self, key: str, *, required: bool = True, default: Any = None):
        value, present = self._pop(key, required)
        if not present:
            return default
        if not isinstance(value, str):
            raise ParseError("expected a string", self._sub(key))
        return value

    def take_enum(self, key: str, allowed: frozenset, *, required: bool = True,
                  default: Any = None):
        value = self.take_str(key, required=required, default=None)
        if value is None:
            return default
        if value not in allowed:
            raise ParseError(
                f"{value!r} is not one of {sorted(allowed)}", self._sub(key)
            )
        return value

    def take_number(self, key: str, *, required: bool = True, default: Any = None):
        value, present = self._pop(key, required)
        if not present:
            return default
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ParseError("expected a number", self._sub(key))
        return _float(value, self._sub(key))

    def take_bool(self, key: str, *, required: bool = True, default: Any = None):
        value, present = self._pop(key, required)
        if not present:
            return default
        if not isinstance(value, bool):
            raise ParseError("expected a boolean", self._sub(key))
        return value

    def take_str_list(self, key: str, *, required: bool = True) -> tuple[str, ...]:
        value, present = self._pop(key, required)
        if not present:
            return ()
        if not isinstance(value, list):
            raise ParseError("expected an array", self._sub(key))
        out = []
        for i, item in enumerate(value):
            if not isinstance(item, str):
                raise ParseError("expected a string", f"{self._sub(key)}[{i}]")
            out.append(item)
        return tuple(out)

    def take_list(self, key: str, *, required: bool = True):
        value, present = self._pop(key, required)
        if not present:
            return []
        if not isinstance(value, list):
            raise ParseError("expected an array", self._sub(key))
        return value

    def take_node(self, key: str, *, required: bool = True):
        value, present = self._pop(key, required)
        if not present:
            return None
        return _Node(value, self._sub(key))

    def finish(self):
        if self.data:
            key = sorted(self.data)[0]
            raise ParseError(f"unknown key {key!r}", self.path or "<root>")


def _parse_witness(node: _Node | None) -> dict[str, Any]:
    if node is None:
        return {}
    out: dict[str, Any] = {}
    for key in sorted(node.data):
        value = node.data.pop(key)
        path = node._sub(key)
        if value is None:
            raise ParseError("null not allowed; omit the key instead", path)
        if isinstance(value, bool):
            raise ParseError("expected a number or a flat number array", path)
        if isinstance(value, (int, float)):
            out[key] = _float(value, path)
        elif isinstance(value, list):
            items = []
            for i, item in enumerate(value):
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise ParseError("expected a number", f"{path}[{i}]")
                items.append(_float(item, f"{path}[{i}]"))
            out[key] = items
        else:
            raise ParseError("expected a number or a flat number array", path)
    return out


def parse(text: str) -> GkpoObject:
    """Parse GKPO JSON text strictly; raises ParseError with a path on failure."""
    try:
        raw = json.loads(
            text, parse_constant=_reject_constant, object_pairs_hook=_strict_pairs
        )
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # e.g. integer digit limit, depth
        raise ParseError(f"invalid JSON: {exc}") from None

    root = _Node(raw, "")
    version = root.take_str("version")
    if version != SCHEMA_VERSION:
        # other versions may redefine key semantics; refuse to guess
        raise ParseError(f"unsupported version {version!r}", "version")

    score_node = root.take_node("score")
    score = ScoreSpec(
        type=score_node.take_enum("type", SCORE_TYPES),
        custom_name=score_node.take_str("custom_name", required=False),
    )
    score_node.finish()

    weight_node = root.take_node("weight")
    weight = WeightSpec(
        form=weight_node.take_enum("form", WEIGHT_FORMS),
        constant=weight_node.take_number("constant", required=False),
        factors=weight_node.take_str_list("factors", required=False),
        score_fn=weight_node.take_str("score_fn", required=False),
    )
    weight_node.finish()

    ref_node = root.take_node("reference")
    reference = ReferenceSpec(
        form=ref_node.take_enum("form", REFERENCE_FORMS),
        value=ref_node.take_number("value", required=False),
    )
    ref_node.finish()

    link = root.take_enum("link", LINK_NAMES)
    loss = root.take_enum("loss", LOSS_NAMES)
    beta = root.take_number("beta")

    penalties = []
    for i, item in enumerate(root.take_list("penalties")):
        entry = _Node(item, f"penalties[{i}]")
        name = entry.take_str("name")
        coeff = entry.take_number("lambda")
        meta = entry.take_node("meta", required=False)
        gate = None
        if meta is not None:
            gate = meta.take_bool("gate", required=False)
            meta.finish()
        entry.finish()
        penalties.append(PenaltyEntry(name=name, coeff=coeff, meta_gate=gate))

    ops_node = root.take_node("dataset_ops")
    dataset_ops = DatasetOps(
        group_weights=ops_node.take_str_list("group_weights", required=False),
        group_penalties=ops_node.take_str_list("group_penalties", required=False),
        composition=ops_node.take_enum("composition", COMPOSITIONS),
    )
    ops_node.finish()

    prov_node = root.take_node("provenance")
    provenance = Provenance(
        method=prov_node.take_str("method"),
        citations=prov_node.take_str_list("citations", required=False),
        notes=prov_node.take_str("notes", required=False, default=""),
        opal_hash=prov_node.take_str("opal_hash", required=False),
    )
    prov_node.finish()

    red_node = root.take_node("reducibility")
    inside = red_node.take_bool("inside_R")
    reasons = red_node.take_str_list("reasons")
    for i, reason in enumerate(reasons):
        if reason not in REASON_CODES:
            raise ParseError(
                f"{reason!r} is not one of {sorted(REASON_CODES)}",
                f"reducibility.reasons[{i}]",
            )
    witness = _parse_witness(red_node.take_node("witness", required=False))
    red_node.finish()
    reducibility = ReducibilityBlock(inside_R=inside, reasons=reasons, witness=witness)

    root.finish()
    return GkpoObject(
        version=version,
        score=score,
        weight=weight,
        reference=reference,
        link=link,
        loss=loss,
        beta=beta,
        penalties=tuple(penalties),
        dataset_ops=dataset_ops,
        provenance=provenance,
        reducibility=reducibility,
    )


# ---------------------------------------------------------------------------
# Serialization (plain; the canonical byte form lives in gkpo.canonical)


def to_json_dict(obj: GkpoObject) -> dict[str, Any]:
    """Full-fidelity JSON mapping; unused optionals are omitted, never null."""
    score: dict[str, Any] = {"type": obj.score.type}
    if obj.score.custom_name is not None:
        score["custom_name"] = obj.score.custom_name

    weight: dict[str, Any] = {"form": obj.weight.form}
    if obj.weight.constant is not None:
        weight["constant"] = obj.weight.constant
    if obj.weight.factors:
        weight["factors"] = list(obj.weight.factors)
    if obj.weight.score_fn is not None:
        weight["score_fn"] = obj.weight.score_fn

    reference: dict[str, Any] = {"form": obj.reference.form}
    if obj.reference.value is not None:
        reference["value"] = obj.reference.value

    penalties = []
    for p in obj.penalties:
        entry: dict[str, Any] = {"name": p.name, "lambda": p.coeff}
        if p.meta_gate is not None:
            entry["meta"] = {"gate": p.meta_gate}
        penalties.append(entry)

    provenance: dict[str, Any] = {
        "method": obj.provenance.method,
        "citations": list(obj.provenance.citations),
        "notes": obj.provenance.notes,
    }
    if obj.provenance.opal_hash is not None:
        provenance["opal_hash"] = obj.provenance.opal_hash

    return {
        "version": obj.version,
        "score": score,
        "weight": weight,
        "reference": reference,
        "link": obj.link,
        "loss": obj.loss,
        "beta": obj.beta,
        "penalties": penalties,
        "dataset_ops": {
            "group_weights": list(obj.dataset_ops.group_weights),
            "group_penalties": list(obj.dataset_ops.group_penalties),
            "composition": obj.dataset_ops.composition,
        },
        "provenance": provenance,
        "reducibility": {
            "inside_R": obj.reducibility.inside_R,
            "reasons": list(obj.reducibility.reasons),
            "witness": dict(obj.reducibility.witness),
        },
    }


def serialize(obj: GkpoObject) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Validation


def _finite(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


_QUANTUM = Decimal("0.000001")
_STEP = float(_QUANTUM)  # a value of at least one step never quantizes to 0


def quantize(value) -> Decimal:
    """Round half-even to the canonical 1e-6 grid."""
    with localcontext() as ctx:
        ctx.prec = 500  # exact for any finite double at this quantum
        return Decimal(value).quantize(_QUANTUM, rounding=ROUND_HALF_EVEN)


def validate(obj: GkpoObject) -> list[Violation]:
    """Check every schema invariant; returns an empty list iff the object is valid."""
    v: list[Violation] = []

    def bad(path: str, message: str):
        v.append(Violation(path, message))

    def positive(path: str, x: Any):
        # a positive value that quantizes to 0 would canonicalize to an
        # invalid object and hash equal to every other such value
        if not _finite(x) or x <= 0:
            bad(path, "must be a finite positive real")
        elif x < _STEP and quantize(x) == 0:
            bad(path, "must not round to 0 on the canonical 1e-6 grid")

    if obj.version != SCHEMA_VERSION:
        bad("version", f"must be {SCHEMA_VERSION!r}, got {obj.version!r}")

    # score
    if obj.score.type not in SCORE_TYPES:
        bad("score.type", f"unknown score type {obj.score.type!r}")
    if (obj.score.custom_name is not None) != (obj.score.type == "custom"):
        bad("score.custom_name", "present iff score.type is 'custom'")

    # weight
    w = obj.weight
    if w.form not in WEIGHT_FORMS:
        bad("weight.form", f"unknown weight form {w.form!r}")
    if w.form == "constant":
        if w.constant is None:
            bad("weight.constant", "required for constant form")
        else:
            positive("weight.constant", w.constant)
    elif w.constant is not None:
        bad("weight.constant", "only allowed for constant form")
    if (len(w.factors) > 0) != (w.form == "product"):
        bad("weight.factors", "nonempty iff weight form is 'product'")
    for i, name in enumerate(w.factors):
        if not isinstance(name, str) or not _NAME_RE.match(name):
            bad(f"weight.factors[{i}]", f"invalid factor name {name!r}")
    if (w.score_fn is not None) != (w.form == "score_dependent"):
        bad("weight.score_fn", "present iff weight form is 'score_dependent'")

    # reference
    r = obj.reference
    if r.form not in REFERENCE_FORMS:
        bad("reference.form", f"unknown reference form {r.form!r}")
    if r.form in ("fixed_zero", "fixed_scalar"):
        if r.value is None:
            bad("reference.value", "required for fixed reference forms")
        elif not _finite(r.value):
            bad("reference.value", "must be a finite real")
        elif r.form == "fixed_zero" and r.value != 0:
            bad("reference.value", "must be 0 for fixed_zero")
    elif r.value is not None:
        bad("reference.value", "only allowed for fixed reference forms")

    if obj.link not in LINK_NAMES:
        bad("link", f"unknown link {obj.link!r}")
    if obj.loss not in LOSS_NAMES:
        bad("loss", f"unknown loss {obj.loss!r}")
    positive("beta", obj.beta)

    seen = set()
    for i, p in enumerate(obj.penalties):
        if not isinstance(p.name, str) or not _NAME_RE.match(p.name):
            bad(f"penalties[{i}].name", f"invalid penalty name {p.name!r}")
        if p.name in seen:
            bad(f"penalties[{i}].name", f"duplicate penalty name {p.name!r}")
        seen.add(p.name)
        if not _finite(p.coeff):
            bad(f"penalties[{i}].lambda", "must be a finite real")
        if p.meta_gate is not None and not isinstance(p.meta_gate, bool):
            bad(f"penalties[{i}].meta.gate", "must be a boolean")

    if obj.dataset_ops.composition not in COMPOSITIONS:
        bad("dataset_ops.composition",
            f"unknown composition {obj.dataset_ops.composition!r}")

    if obj.provenance.opal_hash is not None and not _HASH_RE.match(
        obj.provenance.opal_hash
    ):
        bad("provenance.opal_hash", "must be 64 lowercase hex characters")

    red = obj.reducibility
    if red.inside_R and red.reasons:
        bad("reducibility", "inside_R is true but reasons are present")
    if not red.inside_R and not red.reasons:
        bad("reducibility.reasons", "inside_R is false but no reason is given")
    for i, reason in enumerate(red.reasons):
        if reason not in REASON_CODES:
            bad(f"reducibility.reasons[{i}]", f"unknown reason {reason!r}")
    for key in red.witness:
        value = red.witness[key]
        path = f"reducibility.witness.{key}"
        if isinstance(value, bool):
            bad(path, "must be a number or a flat number array")
        elif isinstance(value, (int, float)):
            if not math.isfinite(value):
                bad(path, "must be finite")
        elif isinstance(value, (list, tuple)):
            for j, item in enumerate(value):
                if not _finite(item):
                    bad(f"{path}[{j}]", "must be a finite number")
        else:
            bad(path, "must be a number or a flat number array")

    return v


def require_valid(obj: GkpoObject) -> GkpoObject:
    problems = validate(obj)
    if problems:
        head = "; ".join(str(p) for p in problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise ValueError(f"invalid GKPO object: {head}{more}")
    return obj
