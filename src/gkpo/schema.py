"""Typed object model for the gkpo-1.0 interchange format.

A GKPO document is a JSON object with a fixed key set describing one pairwise
margin objective: score source, weight, reference, link/loss pair, temperature,
additive penalties, dataset-level operations, provenance, and a reducibility
block. One table of node shapes, SHAPES, states its structure: parse reads by
it strictly (unknown keys, nulls, non-finite numbers, and type mismatches are
rejected with a path), validate checks objects built in Python against it, and
to_json_dict writes by it. Validation is non-throwing and returns every
violation so callers can report them all at once.

A GkpoObject is immutable all the way down: every field is a frozen
dataclass, a tuple or a scalar, and the reducibility witness is a read-only
mapping whose arrays are tuples. So a parsed object meets SHAPES for good, and
a valid one stays valid: parse and `validate` record this on the instance, and
`validate` and `require_valid` trust the records. `adapters.from_gkpo` records
its conversion analysis on the instance the same way: the reasons, reference,
penalties and weight that every target's verdict reads. These records are
instance attributes, not fields, so they change no `==`, `repr` or
serialization. `dataclasses.replace` builds a new, unrecorded instance, which
is checked and analysed again.

Optional keys are absent when unused; an explicit null is a parse error.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from decimal import (
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    InvalidOperation,
    Overflow,
)
from types import MappingProxyType
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

_HASH_RE = re.compile(r"[0-9a-f]{64}")  # both fullmatch: "$" passes a final "\n"
# Identifier strings name penalties, factors, score functions, witness keys.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")


def is_name(value: Any) -> bool:
    """True for a string that may name a penalty, factor or score function."""
    return isinstance(value, str) and _NAME_RE.fullmatch(value) is not None


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
        witness = dict(self.witness)  # a private copy that only the proxy reads
        for key, value in witness.items():
            if isinstance(value, list):
                witness[key] = tuple(value)
        object.__setattr__(self, "witness", MappingProxyType(witness))


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
    obj = dict(pairs)
    if len(obj) < len(pairs):  # a key repeats; name the first repeat
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ParseError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def _frozen(cls: type) -> Callable[[dict], Any]:
    """Fill a frozen dataclass from field values that are already frozen.

    This is how unpickling restores an instance. The reader hands over tuples
    and a read-only witness, so __init__'s per-field setattr and the
    __post_init__ conversions would only repeat work.
    """

    def make(fields: dict) -> Any:
        obj = object.__new__(cls)
        obj.__dict__.update(fields)
        return obj

    make.cls = cls  # what validate requires a node of this shape to be
    return make


# The structural rules of the format. For each node of a document: its wire
# keys in reading and writing order, each with its kind, what an absent key
# reads as (REQUIRED: it may not be absent), its allowed values (ENUM, STRS)
# or child node (NODE, ARRAY of nodes), and the field it fills. A child node
# is read whole when its key is reached, and a node's unknown keys are
# reported after its last key. An explicit null is an error for every key.
STR, ENUM, NUMBER, BOOL, STRS, ARRAY, NODE, NUMBER_MAP = (
    "string", "enum", "number", "bool", "string list", "array", "node",
    "number map",  # name -> number or flat number array (the witness)
)
REQUIRED = object()

SHAPES: dict[str, tuple[Callable[[dict], Any], tuple[tuple, ...]]] = {
    "document": (_frozen(GkpoObject), (
        ("version", STR, REQUIRED, None, "version"),
        ("score", NODE, REQUIRED, "score", "score"),
        ("weight", NODE, REQUIRED, "weight", "weight"),
        ("reference", NODE, REQUIRED, "reference", "reference"),
        ("link", ENUM, REQUIRED, LINK_NAMES, "link"),
        ("loss", ENUM, REQUIRED, LOSS_NAMES, "loss"),
        ("beta", NUMBER, REQUIRED, None, "beta"),
        ("penalties", ARRAY, REQUIRED, "penalty", "penalties"),
        ("dataset_ops", NODE, REQUIRED, "dataset_ops", "dataset_ops"),
        ("provenance", NODE, REQUIRED, "provenance", "provenance"),
        ("reducibility", NODE, REQUIRED, "reducibility", "reducibility"),
    )),
    "score": (_frozen(ScoreSpec), (
        ("type", ENUM, REQUIRED, SCORE_TYPES, "type"),
        ("custom_name", STR, None, None, "custom_name"),
    )),
    "weight": (_frozen(WeightSpec), (
        ("form", ENUM, REQUIRED, WEIGHT_FORMS, "form"),
        ("constant", NUMBER, None, None, "constant"),
        ("factors", STRS, (), None, "factors"),
        ("score_fn", STR, None, None, "score_fn"),
    )),
    "reference": (_frozen(ReferenceSpec), (
        ("form", ENUM, REQUIRED, REFERENCE_FORMS, "form"),
        ("value", NUMBER, None, None, "value"),
    )),
    "penalty": (_frozen(PenaltyEntry), (
        ("name", STR, REQUIRED, None, "name"),
        ("lambda", NUMBER, REQUIRED, None, "coeff"),
        ("meta", NODE, None, "meta", "meta_gate"),
    )),
    "meta": (lambda fields: fields["gate"], (  # a penalty's meta is its gate
        ("gate", BOOL, None, None, "gate"),
    )),
    "dataset_ops": (_frozen(DatasetOps), (
        ("group_weights", STRS, (), None, "group_weights"),
        ("group_penalties", STRS, (), None, "group_penalties"),
        ("composition", ENUM, REQUIRED, COMPOSITIONS, "composition"),
    )),
    "provenance": (_frozen(Provenance), (
        ("method", STR, REQUIRED, None, "method"),
        ("citations", STRS, (), None, "citations"),
        ("notes", STR, "", None, "notes"),
        ("opal_hash", STR, None, None, "opal_hash"),
    )),
    "reducibility": (_frozen(ReducibilityBlock), (
        ("inside_R", BOOL, REQUIRED, None, "inside_R"),
        ("reasons", STRS, REQUIRED, REASON_CODES, "reasons"),
        ("witness", NUMBER_MAP, MappingProxyType({}), None, "witness"),
    )),
}
_ABSENT = object()


def _read(data: Any, path: str, shape: str) -> Any:
    """Build the value of one node from its JSON object, per SHAPES[shape]."""
    if type(data) is not dict:
        raise ParseError("expected an object", path or "<root>")
    make, entries = SHAPES[shape]
    fields = {}
    present = len(entries)  # how many of the table's keys data holds
    for key, kind, absent, arg, field_name in entries:
        value = data.get(key, _ABSENT)
        if value is _ABSENT:
            if absent is REQUIRED:
                raise ParseError("missing required key", _at(path, key))
            fields[field_name] = absent
            present -= 1
            continue
        if value is None:
            raise ParseError("null not allowed; omit the key instead", _at(path, key))
        if kind is STR:
            if type(value) is not str:
                raise ParseError("expected a string", _at(path, key))
        elif kind is ENUM:
            if type(value) is not str:
                raise ParseError("expected a string", _at(path, key))
            if value not in arg:
                raise ParseError(f"{value!r} is not one of {sorted(arg)}", _at(path, key))
        elif kind is NODE:
            value = _read(value, f"{path}.{key}" if path else key, arg)
        elif kind is NUMBER:
            if type(value) is not float or not math.isfinite(value):
                value = _number(value, _at(path, key))
        elif kind is BOOL:
            if type(value) is not bool:
                raise ParseError("expected a boolean", _at(path, key))
        elif kind is NUMBER_MAP:
            sub = _at(path, key)
            if type(value) is not dict:
                raise ParseError("expected an object", sub)
            value = MappingProxyType(
                {name: _numbers(value[name], f"{sub}.{name}") for name in sorted(value)}
            )
        elif type(value) is not list:
            raise ParseError("expected an array", _at(path, key))
        elif kind is STRS:
            for i, item in enumerate(value):
                if type(item) is not str:
                    raise ParseError("expected a string", f"{_at(path, key)}[{i}]")
            if arg is not None:
                for i, item in enumerate(value):
                    if item not in arg:
                        raise ParseError(
                            f"{item!r} is not one of {sorted(arg)}", f"{_at(path, key)}[{i}]"
                        )
            value = tuple(value)
        else:  # ARRAY of child nodes
            sub = _at(path, key)
            value = tuple([_read(item, f"{sub}[{i}]", arg) for i, item in enumerate(value)])
        fields[field_name] = value
    if len(data) > present:
        key = min(data.keys() - {entry[0] for entry in entries})
        raise ParseError(f"unknown key {key!r}", path or "<root>")
    return make(fields)


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _number(value: Any, path: str, message: str = "expected a number") -> float:
    # json.loads yields exact types, so a bool is never taken for an int
    if type(value) is not float and type(value) is not int:
        raise ParseError(message, path)
    if not is_finite_number(value):  # 10**400, or a literal such as 1e400 (inf)
        raise ParseError("number out of range", path)
    return float(value)


def _numbers(value: Any, path: str) -> float | tuple[float, ...]:
    """A NUMBER_MAP value: a number, or a flat array of numbers as a tuple."""
    if value is None:
        raise ParseError("null not allowed; omit the key instead", path)
    if type(value) is list:
        return tuple([_number(item, f"{path}[{i}]") for i, item in enumerate(value)])
    return _number(value, path, "expected a number or a flat number array")


# one decoder serves every parse; json.loads would build one per call with hooks
_DECODER = json.JSONDecoder(parse_constant=_reject_constant, object_pairs_hook=_strict_pairs)
# UTF-8 cannot encode a surrogate code point, so a string holding one could not
# be hashed. JSON text carries one as itself or as a \uD800-\uDFFF escape.
_SURROGATE = re.compile(r"[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _require_utf8(value: Any, path: str) -> None:
    """Reject any key or string that UTF-8 cannot encode."""
    if isinstance(value, str):
        if _SURROGATE.search(value):
            raise ParseError("string is not UTF-8 encodable (lone surrogate)", path)
    elif isinstance(value, dict):
        for key, item in value.items():
            if _SURROGATE.search(key):
                raise ParseError(
                    f"key {key!r} is not UTF-8 encodable (lone surrogate)",
                    path or "<root>",
                )
            _require_utf8(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _require_utf8(item, f"{path}[{i}]")


def parse(text: str) -> GkpoObject:
    """Parse GKPO JSON text strictly; raises ParseError with a path on failure."""
    try:
        if text.startswith("\ufeff"):  # refused as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _DECODER.decode(text)
        if _SURROGATE_ESCAPE.search(text) or (
            not text.isascii() and _SURROGATE.search(text)
        ):
            _require_utf8(raw, "")  # finds the path; an escaped pair passes
    except ParseError:
        raise
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # e.g. integer digit limit, depth
        raise ParseError(f"invalid JSON: {exc}") from None

    if type(raw) is dict and type(raw.get("version")) is str:
        # other versions may redefine key semantics; refuse to guess. Any
        # other defect of the version key is the first one _read reports.
        if raw["version"] != SCHEMA_VERSION:
            raise ParseError(f"unsupported version {raw['version']!r}", "version")
    obj = _read(raw, "", "document")
    object.__setattr__(obj, _PARSED, True)  # validate need not check SHAPES again
    return obj


# ---------------------------------------------------------------------------
# Serialization (plain; the canonical byte form lives in gkpo.canonical)


def to_json_dict(obj: GkpoObject) -> dict[str, Any]:
    """Full-fidelity JSON mapping in SHAPES key order; an unused optional
    (None) is omitted, never null, and so is an empty weight.factors."""
    return _json_node(obj, "document")


def _fields(node: Any, shape: str) -> Mapping[str, Any]:
    return {"gate": node} if shape == "meta" else node.__dict__  # meta is its gate


def _json_node(node: Any, shape: str) -> dict[str, Any]:
    fields = _fields(node, shape)
    out = {}
    for key, kind, absent, arg, field_name in SHAPES[shape][1]:
        value = fields[field_name]
        # an empty weight.factors is the one omission SHAPES does not state
        if value is None and absent is None or (key == "factors" and not value):
            continue
        if kind is NODE:
            value = _json_node(value, arg)
        elif kind is ARRAY:
            value = [_json_node(item, arg) for item in value]
        elif kind is STRS:
            value = list(value)
        elif kind is NUMBER_MAP:
            value = dict(value)
        out[key] = value
    return out


def serialize(obj: GkpoObject) -> str:
    return json.dumps(to_json_dict(obj), sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# Validation


def is_finite_number(x: Any) -> bool:
    """True for an int or float (not a bool) that is finite as a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond float range
        return False


_QUANTUM = Decimal("0.000001")
_STEP = float(_QUANTUM)  # a value of at least one step never quantizes to 0


# Every field is stated, so canonical numbers never depend on the caller's
# thread-local decimal context. 500 digits hold any finite double on the grid.
# Quantizing sets this context's flags; no result reads them.
_CONTEXT = Context(
    prec=500,
    rounding=ROUND_HALF_EVEN,
    Emin=-999999,
    Emax=999999,
    capitals=1,
    clamp=0,
    flags=[],
    traps=[InvalidOperation, DivisionByZero, Overflow],
)


def quantize(value) -> Decimal:
    """Round half-even to the canonical 1e-6 grid."""
    return Decimal(value).quantize(_QUANTUM, context=_CONTEXT)


# Instance attributes (not dataclass fields) that record checks: _PARSED marks
# an object parse built, which meets every SHAPES rule; _VALID marks an object
# that validate passed.
_PARSED = "_parsed"
_VALID = "_validated"


def _problem(kind: str, value: Any, allowed: Any) -> str | None:
    """Why parse would refuse a NUMBER, BOOL, STR or ENUM value, or a STRS
    item, that allows `allowed`; None when it would not."""
    if kind is NUMBER:
        return None if is_finite_number(value) else "expected a finite number"
    if kind is BOOL:
        return None if type(value) is bool else "expected a boolean"
    if not isinstance(value, str):
        return "expected a string"
    if allowed is not None:
        return None if value in allowed else f"{value!r} is not one of {sorted(allowed)}"
    surrogate = not value.isascii() and _SURROGATE.search(value)
    return "string is not UTF-8 encodable (lone surrogate)" if surrogate else None


def _check_shape(node: Any, shape: str, path: str, bad: Callable[[str, str], None]) -> None:
    """Report each value under node that SHAPES[shape] does not allow; a node
    that is not the dataclass its shape builds is reported, not entered."""
    make, entries = SHAPES[shape]
    if shape != "meta" and not isinstance(node, make.cls):  # meta is its gate
        bad(path, "expected an object")
        return
    fields = _fields(node, shape)
    for key, kind, absent, arg, field_name in entries:
        value = fields[field_name]
        if value is None and absent is None:  # an unused optional
            continue
        if kind is NODE:
            _check_shape(value, arg, _at(path, key), bad)
        elif kind is ARRAY:
            for i, item in enumerate(value):
                _check_shape(item, arg, f"{_at(path, key)}[{i}]", bad)
        elif kind is STRS:
            for i, item in enumerate(value):
                if problem := _problem(STR, item, arg):
                    bad(f"{_at(path, key)}[{i}]", problem)
        elif kind is NUMBER_MAP:
            for name, item in value.items():
                sub = f"{_at(path, key)}.{name}"
                if problem := _problem(STR, name, None):
                    bad(sub, problem)
                if isinstance(item, tuple):
                    for j, number in enumerate(item):
                        if not is_finite_number(number):
                            bad(f"{sub}[{j}]", "expected a finite number")
                elif not is_finite_number(item):
                    bad(sub, "expected a finite number or a flat number array")
        elif problem := _problem(kind, value, arg):
            bad(_at(path, key), problem)


def validate(obj: GkpoObject) -> list[Violation]:
    """Check every schema invariant; returns an empty list iff the object is valid.

    An argument that is not a GkpoObject is one violation at "<root>". An
    object that parse did not build is first checked against SHAPES, in
    parse's words. The cross-field rules below read a node only if it is the
    table's dataclass, and a field only if it has the table's type. A valid
    object is marked so that require_valid trusts it.
    """
    if not isinstance(obj, GkpoObject):  # parse's words for a wrong-typed root
        return [Violation("<root>", "expected an object")]
    v: list[Violation] = []

    def bad(path: str, message: str):
        v.append(Violation(path, message))

    if not obj.__dict__.get(_PARSED):
        _check_shape(obj, "document", "", bad)

    def positive(path: str, x: Any):
        # a positive value that quantizes to 0 would canonicalize to an
        # invalid object and hash equal to every other such value
        if not is_finite_number(x):
            pass  # reported by the walk
        elif x <= 0:
            bad(path, "must be a finite positive real")
        elif x < _STEP and quantize(x) == 0:
            bad(path, "must not round to 0 on the canonical 1e-6 grid")

    if isinstance(obj.version, str) and obj.version != SCHEMA_VERSION:
        bad("version", f"must be {SCHEMA_VERSION!r}, got {obj.version!r}")

    score, w, r = obj.score, obj.weight, obj.reference
    if not isinstance(score, ScoreSpec):
        pass  # reported by the walk, as is each node below
    elif (score.custom_name is not None) != (score.type == "custom"):
        bad("score.custom_name", "present iff score.type is 'custom'")

    if isinstance(w, WeightSpec):
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
            if isinstance(name, str) and not is_name(name):
                bad(f"weight.factors[{i}]", f"invalid factor name {name!r}")
        if (w.score_fn is not None) != (w.form == "score_dependent"):
            bad("weight.score_fn", "present iff weight form is 'score_dependent'")

    if not isinstance(r, ReferenceSpec):
        pass
    elif r.form in ("fixed_zero", "fixed_scalar"):
        if r.value is None:
            bad("reference.value", "required for fixed reference forms")
        elif r.form == "fixed_zero" and is_finite_number(r.value) and r.value != 0:
            bad("reference.value", "must be 0 for fixed_zero")
    elif r.value is not None:
        bad("reference.value", "only allowed for fixed reference forms")

    positive("beta", obj.beta)

    seen = set()
    for i, p in enumerate(obj.penalties):
        if not isinstance(p, PenaltyEntry) or not isinstance(p.name, str):
            continue
        if not is_name(p.name):
            bad(f"penalties[{i}].name", f"invalid penalty name {p.name!r}")
        elif p.name in seen:
            bad(f"penalties[{i}].name", f"duplicate penalty name {p.name!r}")
        else:
            seen.add(p.name)

    prov = obj.provenance
    opal_hash = prov.opal_hash if isinstance(prov, Provenance) else None
    if isinstance(opal_hash, str) and not _HASH_RE.fullmatch(opal_hash):
        bad("provenance.opal_hash", "must be 64 lowercase hex characters")

    red = obj.reducibility
    if not isinstance(red, ReducibilityBlock):
        pass
    elif red.inside_R is True and red.reasons:
        bad("reducibility", "inside_R is true but reasons are present")
    elif red.inside_R is False and not red.reasons:
        bad("reducibility.reasons", "inside_R is false but no reason is given")

    if not v:
        object.__setattr__(obj, _VALID, True)
    return v


def require_valid(obj: GkpoObject) -> GkpoObject:
    """obj if it is valid, else ValueError naming its first violations.

    An object that validate has passed is returned without a second check.
    """
    if isinstance(obj, GkpoObject) and obj.__dict__.get(_VALID):
        return obj
    problems = validate(obj)
    if problems:
        head = "; ".join(str(p) for p in problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise ValueError(f"invalid GKPO object: {head}{more}")
    return obj
