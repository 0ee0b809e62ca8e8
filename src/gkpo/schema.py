"""Typed object model for the gkpo-1.0 interchange format.

A GKPO document is a JSON object with a fixed key set describing one pairwise
margin objective: score source, weight, reference, link/loss pair, temperature,
additive penalties, dataset-level operations, provenance, and a reducibility
block. Parsing is strict (unknown keys, nulls, NaN/Infinity, and type
mismatches are rejected with a path) and follows one table of node shapes,
SHAPES; validation is non-throwing and returns every violation so callers can
report them all at once.

A GkpoObject is immutable all the way down: every field is a frozen
dataclass, a tuple or a scalar, and the reducibility witness is a read-only
mapping whose arrays are tuples. So a valid object stays valid: `validate`
records a clean result on the instance and `require_valid` trusts that record.
`dataclasses.replace` builds a new, unrecorded instance, which is checked again.

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

_HASH_RE = re.compile(r"^[0-9a-f]{64}$")
# Identifier strings name penalties, factors, score functions, witness keys.
_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*$")


def is_name(value: Any) -> bool:
    """True for a string that may name a penalty, factor or score function."""
    return isinstance(value, str) and _NAME_RE.match(value) is not None


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

    return make


# The structural parse rules. For each node of a document: its wire keys in
# the order they are read, each with its kind, what an absent key reads as
# (REQUIRED: it may not be absent), its allowed values (ENUM, STRS) or child
# node (NODE, ARRAY of nodes), and the field it fills. A child node is read
# whole when its key is reached, and a node's unknown keys are reported after
# its last key. An explicit null is an error for every key.
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
            if type(value) is not float:
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
    if type(value) is float:
        return value
    if type(value) is int:
        try:
            return float(value)
        except OverflowError:
            raise ParseError("number out of range", path) from None
    raise ParseError(message, path)


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
    return _read(raw, "", "document")


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


# Instance attribute (not a dataclass field) that marks a validated object.
_VALID = "_validated"


def validate(obj: GkpoObject) -> list[Violation]:
    """Check every schema invariant; returns an empty list iff the object is valid.

    A valid object is marked as such, so require_valid need not check it again.
    """
    v: list[Violation] = []

    def bad(path: str, message: str):
        v.append(Violation(path, message))

    def positive(path: str, x: Any):
        # a positive value that quantizes to 0 would canonicalize to an
        # invalid object and hash equal to every other such value
        if not is_finite_number(x) or x <= 0:
            bad(path, "must be a finite positive real")
        elif x < _STEP and quantize(x) == 0:
            bad(path, "must not round to 0 on the canonical 1e-6 grid")

    if obj.version != SCHEMA_VERSION:
        bad("version", f"must be {SCHEMA_VERSION!r}, got {obj.version!r}")

    # score
    if not isinstance(obj.score.type, str) or obj.score.type not in SCORE_TYPES:
        bad("score.type", f"unknown score type {obj.score.type!r}")
    if (obj.score.custom_name is not None) != (obj.score.type == "custom"):
        bad("score.custom_name", "present iff score.type is 'custom'")

    # weight
    w = obj.weight
    if not isinstance(w.form, str) or w.form not in WEIGHT_FORMS:
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
        if not is_name(name):
            bad(f"weight.factors[{i}]", f"invalid factor name {name!r}")
    if (w.score_fn is not None) != (w.form == "score_dependent"):
        bad("weight.score_fn", "present iff weight form is 'score_dependent'")

    # reference
    r = obj.reference
    if not isinstance(r.form, str) or r.form not in REFERENCE_FORMS:
        bad("reference.form", f"unknown reference form {r.form!r}")
    if r.form in ("fixed_zero", "fixed_scalar"):
        if r.value is None:
            bad("reference.value", "required for fixed reference forms")
        elif not is_finite_number(r.value):
            bad("reference.value", "must be a finite real")
        elif r.form == "fixed_zero" and r.value != 0:
            bad("reference.value", "must be 0 for fixed_zero")
    elif r.value is not None:
        bad("reference.value", "only allowed for fixed reference forms")

    if not isinstance(obj.link, str) or obj.link not in LINK_NAMES:
        bad("link", f"unknown link {obj.link!r}")
    if not isinstance(obj.loss, str) or obj.loss not in LOSS_NAMES:
        bad("loss", f"unknown loss {obj.loss!r}")
    positive("beta", obj.beta)

    seen = set()
    for i, p in enumerate(obj.penalties):
        if not is_name(p.name):
            bad(f"penalties[{i}].name", f"invalid penalty name {p.name!r}")
        elif p.name in seen:
            bad(f"penalties[{i}].name", f"duplicate penalty name {p.name!r}")
        else:
            seen.add(p.name)
        if not is_finite_number(p.coeff):
            bad(f"penalties[{i}].lambda", "must be a finite real")
        if p.meta_gate is not None and not isinstance(p.meta_gate, bool):
            bad(f"penalties[{i}].meta.gate", "must be a boolean")

    composition = obj.dataset_ops.composition
    if not isinstance(composition, str) or composition not in COMPOSITIONS:
        bad("dataset_ops.composition", f"unknown composition {composition!r}")

    opal_hash = obj.provenance.opal_hash
    if opal_hash is not None and not (
        isinstance(opal_hash, str) and _HASH_RE.match(opal_hash)
    ):
        bad("provenance.opal_hash", "must be 64 lowercase hex characters")

    red = obj.reducibility
    if not isinstance(red.inside_R, bool):
        bad("reducibility.inside_R", "must be a boolean")
    elif red.inside_R and red.reasons:
        bad("reducibility", "inside_R is true but reasons are present")
    elif not red.inside_R and not red.reasons:
        bad("reducibility.reasons", "inside_R is false but no reason is given")
    for i, reason in enumerate(red.reasons):
        if not isinstance(reason, str) or reason not in REASON_CODES:
            bad(f"reducibility.reasons[{i}]", f"unknown reason {reason!r}")
    for key in red.witness:
        value = red.witness[key]
        path = f"reducibility.witness.{key}"
        if isinstance(value, bool):
            bad(path, "must be a number or a flat number array")
        elif isinstance(value, (int, float)):
            if not is_finite_number(value):
                bad(path, "must be finite")
        elif isinstance(value, (list, tuple)):
            for j, item in enumerate(value):
                if not is_finite_number(item):
                    bad(f"{path}[{j}]", "must be a finite number")
        else:
            bad(path, "must be a number or a flat number array")

    # free text that no name rule covers must be strings that encode, or
    # hashing fails; None stands for an absent custom_name or score_fn
    prov, ops = obj.provenance, obj.dataset_ops
    custom_name, score_fn = obj.score.custom_name, w.score_fn
    try:  # encoding all of it at once spares the usual object the walk by field
        "".join([
            "" if custom_name is None else custom_name,
            "" if score_fn is None else score_fn,
            prov.method, prov.notes,
            *prov.citations, *ops.group_weights, *ops.group_penalties, *red.witness,
        ]).encode("utf-8")
    except (TypeError, UnicodeEncodeError):  # a non-string, or a lone surrogate
        def encodable(path: str, text: Any):
            if not isinstance(text, str):
                bad(path, "must be a string")
            elif _SURROGATE.search(text):
                bad(path, "not UTF-8 encodable (lone surrogate)")

        if custom_name is not None:
            encodable("score.custom_name", custom_name)
        if score_fn is not None:
            encodable("weight.score_fn", score_fn)
        for group in ("group_weights", "group_penalties"):
            for i, text in enumerate(getattr(ops, group)):
                encodable(f"dataset_ops.{group}[{i}]", text)
        encodable("provenance.method", prov.method)
        for i, text in enumerate(prov.citations):
            encodable(f"provenance.citations[{i}]", text)
        encodable("provenance.notes", prov.notes)
        for key in red.witness:
            encodable(f"reducibility.witness.{key}", key)

    if not v:
        object.__setattr__(obj, _VALID, True)
    return v


def require_valid(obj: GkpoObject) -> GkpoObject:
    """obj if it is valid, else ValueError naming its first violations.

    An object that validate has passed is returned without a second check.
    """
    if obj.__dict__.get(_VALID):
        return obj
    problems = validate(obj)
    if problems:
        head = "; ".join(str(p) for p in problems[:3])
        more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
        raise ValueError(f"invalid GKPO object: {head}{more}")
    return obj
