"""Canonical byte serialization and content hashing for GKPO objects.

One writer reads the frozen object and appends its canonical text node by node:

* the object must be valid, so penalty names are unique. An object that
  `schema.validate` has already passed is not checked again (it is
  immutable); any other object is validated first (ValueError);
* optional scale fixing first: with a probe set, the constant c that brings
  the probe median of |delta f*| to 1 is absorbed as weight.constant/c and
  beta*c (constant-form weights only; an all-zero probe leaves the object as
  it is). The rescaled object is validated, so a beta pushed below the 1e-6
  grid raises ValueError instead of emitting "beta":0;
* each node's keys in sorted order, penalties sorted by name, factor /
  citation / group / reason lists sorted (reasons deduplicated), unused
  optionals left out where `schema.to_json_dict` leaves them out, and no
  provenance.opal_hash; numbers rounded half-even to 1e-6 as the shortest
  plain decimal (no exponent, no trailing zeros, "-0" becomes "0"), strings
  escaped as json.dumps does, compact separators, UTF-8 bytes.

`canonical_form` reads those bytes back, so `diff` and the opal hash (the
SHA-256 of the bytes, lowercase hex) come from one path.
"""

from __future__ import annotations

import json
from dataclasses import replace
from decimal import Decimal
from json.encoder import encode_basestring as _str  # json.dumps' str escaper
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Iterable

from .schema import GkpoObject, PenaltyEntry, quantize, require_valid

if TYPE_CHECKING:
    from .algebra import PairSample


def canonical_number(value) -> str:
    """Round half-even to 1e-6; emit the shortest plain decimal form."""
    # float formatting rounds correctly, with ties to even, so for a finite
    # float it equals the Decimal quantize. An int may exceed 2**53, so ints
    # and Decimals take the exact path.
    text = format(value if type(value) is float else quantize(value), ".6f")
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


_num = canonical_number
_name = attrgetter("name")
_BOOL = {True: "true", False: "false"}


def scale_fix_object(
    obj: GkpoObject, probe: Iterable[PairSample]
) -> tuple[GkpoObject, float | None]:
    """Absorb the probe-derived scale constant c into (weight.constant, beta).

    Returns the rescaled object and c, or obj and None when every probe gap
    is zero. The product beta * margin is invariant under (beta * c, w / c),
    so losses and decisions on the probe (or any data) are unchanged. Both
    the object and its rescaling are validated, and a probe sample that
    lacks one of the object's penalties is refused (ValueError).
    """
    from . import algebra  # only scale fixing needs it; `hash` alone does not

    require_valid(obj)
    if obj.weight.form != "constant":
        raise ValueError("scale fixing requires a constant-form weight")
    try:
        c = algebra.scale_fix(algebra.object_normal_form(obj), probe)
    except KeyError as exc:  # a probe sample lacks one of the penalties
        raise ValueError(exc.args[0]) from None
    if c is None:
        return obj, None
    fixed = replace(
        obj,
        weight=replace(obj.weight, constant=obj.weight.constant / c),
        beta=obj.beta * c,
    )
    return require_valid(fixed), c


def _strings(items) -> str:
    return "[" + ",".join([_str(item) for item in sorted(items)]) + "]"


def _numbers(value) -> str:
    """A witness value: a number, or a flat tuple of numbers."""
    if isinstance(value, tuple):
        return "[" + ",".join([_num(item) for item in value]) + "]"
    return _num(value)


def _penalty(p: PenaltyEntry) -> str:
    gate = "" if p.meta_gate is None else f',"meta":{{"gate":{_BOOL[p.meta_gate]}}}'
    return f'{{"lambda":{_num(p.coeff)}{gate},"name":{_str(p.name)}}}'


def _write(obj: GkpoObject) -> str:
    """The canonical text of a valid object, each node's keys in sorted order.

    An optional is left out exactly where schema.to_json_dict leaves it out.
    """
    score, weight, ref = obj.score, obj.weight, obj.reference
    ops, prov, red = obj.dataset_ops, obj.provenance, obj.reducibility
    witness = red.witness
    out = [
        '{"beta":', _num(obj.beta),
        ',"dataset_ops":{"composition":', _str(ops.composition),
        ',"group_penalties":', _strings(ops.group_penalties),
        ',"group_weights":', _strings(ops.group_weights),
        '},"link":', _str(obj.link),
        ',"loss":', _str(obj.loss),
        ',"penalties":[', ",".join([_penalty(p) for p in sorted(obj.penalties, key=_name)]),
        # opal_hash is left out so the hash can be written back into the
        # object without changing what it hashes to
        '],"provenance":{"citations":', _strings(prov.citations),
        ',"method":', _str(prov.method),
        ',"notes":', _str(prov.notes),
        '},"reducibility":{"inside_R":', _BOOL[red.inside_R],
        ',"reasons":', _strings(set(red.reasons)),
        ',"witness":{', ",".join([f"{_str(k)}:{_numbers(witness[k])}" for k in sorted(witness)]),
        '}},"reference":{"form":', _str(ref.form),
    ]
    if ref.value is not None:
        out += ',"value":', _num(ref.value)
    out.append('},"score":{')
    if score.custom_name is not None:
        out += '"custom_name":', _str(score.custom_name), ","
    out += '"type":', _str(score.type), '},"version":', _str(obj.version), ',"weight":{'
    if weight.constant is not None:
        out += '"constant":', _num(weight.constant), ","
    if weight.factors:
        out += '"factors":', _strings(weight.factors), ","
    out += '"form":', _str(weight.form)
    if weight.score_fn is not None:
        out += ',"score_fn":', _str(weight.score_fn)
    out.append("}}")
    return "".join(out)


def canonicalize(obj: GkpoObject, probe: Iterable[PairSample] | None = None) -> bytes:
    # scale_fix_object validates obj and its rescaling
    obj = require_valid(obj) if probe is None else scale_fix_object(obj, probe)[0]
    return _write(obj).encode("utf-8")


def canonical_form(obj: GkpoObject, probe: Iterable[PairSample] | None = None) -> dict:
    """The canonical bytes read back as JSON; numbers are exact Decimals."""
    return json.loads(canonicalize(obj, probe), parse_float=Decimal, parse_int=Decimal)


def opal_hash(obj: GkpoObject, probe: Iterable[PairSample] | None = None) -> str:
    import hashlib  # loads OpenSSL; only hashing needs it

    return hashlib.sha256(canonicalize(obj, probe)).hexdigest()


def attach_hash(
    obj: GkpoObject, probe: Iterable[PairSample] | None = None
) -> GkpoObject:
    digest = opal_hash(obj, probe)
    return replace(obj, provenance=replace(obj.provenance, opal_hash=digest))


def diff(a: GkpoObject, b: GkpoObject) -> list[tuple[str, Any, Any]]:
    """Path-keyed deltas between canonical operator content.

    The provenance block (labels, citations, notes) is excluded: two objects
    that differ only in where they came from compare equal. Dicts are
    descended; lists and scalars compare atomically. A missing key appears as
    None on its side.
    """
    form_a = canonical_form(a)
    form_b = canonical_form(b)
    form_a.pop("provenance")
    form_b.pop("provenance")
    out: list[tuple[str, Any, Any]] = []

    def walk(path: str, left: Any, right: Any):
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                sub = f"{path}.{key}" if path else key
                walk(sub, left.get(key), right.get(key))
            return
        if left != right:  # exact Decimals are reported as JSON-native floats
            out.append((path, *json.loads(json.dumps([left, right], default=float))))

    walk("", form_a, form_b)
    return out
