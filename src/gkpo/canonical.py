"""Canonical byte serialization and content hashing for GKPO objects.

Canonical form is produced in three steps:

* normalisation: the plain `schema.to_json_dict` mapping with penalties sorted
  by name and factor / citation / group / reason lists sorted (reasons
  deduplicated); the object must be valid, so penalty names are unique. An
  object that `schema.validate` has already passed is not checked again (it
  is immutable); any other object is validated first (ValueError);
* optional scale fixing: with a probe set, the constant c that brings the
  probe median of |delta f*| to 1 is absorbed as weight.constant/c and beta*c
  (constant-form weights only; an all-zero probe leaves c at 1 and flags
  scale_undefined); the rescaled object is a new object and is validated, so
  a beta pushed below the 1e-6 grid raises ValueError instead of emitting
  "beta":0;
* serialization: keys sorted lexicographically at every level, numbers rounded
  half-even to 1e-6 and emitted as the shortest plain decimal of the rounded
  value (no exponent, no trailing zeros, "-0" becomes "0"), compact
  separators, UTF-8 bytes. provenance.opal_hash never enters the byte form.

The opal hash is the SHA-256 of the canonical bytes, lowercase hex.
"""

from __future__ import annotations

from dataclasses import replace
from decimal import Decimal
from json.encoder import encode_basestring  # json.dumps' str escaper
from typing import TYPE_CHECKING, Any, Iterable

from .schema import GkpoObject, quantize, require_valid, to_json_dict

if TYPE_CHECKING:
    from .algebra import PairSample, ScaleFixResult


def canonical_number(value) -> str:
    """Round half-even to 1e-6; emit the shortest plain decimal form."""
    # float formatting rounds correctly, with ties to even, so for a finite
    # float it equals the Decimal quantize. An int may exceed 2**53, so ints
    # and Decimals take the exact path.
    text = format(value if type(value) is float else quantize(value), ".6f")
    text = text.rstrip("0").rstrip(".")
    return "0" if text == "-0" else text


def _emit(value: Any, out: list[str]) -> None:
    """Append the canonical text of value to out, piece by piece."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, float, Decimal)):
        out.append(canonical_number(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if i:
                out.append(",")
            out.append(encode_basestring(key))
            out.append(":")
            _emit(value[key], out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(",")
            _emit(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def scale_fix_object(
    obj: GkpoObject, probe: Iterable[PairSample]
) -> tuple[GkpoObject, ScaleFixResult]:
    """Absorb the probe-derived scale constant into (weight.constant, beta).

    The product beta * margin is exactly invariant under the transform, so
    losses and decisions on the probe (or any data) are unchanged. Both the
    object and its rescaling are validated (ValueError).
    """
    from . import algebra  # only scale fixing needs it; `hash` alone does not

    require_valid(obj)
    if obj.weight.form != "constant":
        raise ValueError("scale fixing requires a constant-form weight")
    result = algebra.scale_fix(algebra.object_normal_form(obj), probe)
    if result.scale_undefined:
        return obj, result
    c = result.c
    fixed = replace(
        obj,
        weight=replace(obj.weight, constant=obj.weight.constant / c),
        beta=obj.beta * c,
    )
    return require_valid(fixed), result


def _normalized(obj: GkpoObject, probe: Iterable[PairSample] | None) -> dict:
    """to_json_dict without provenance.opal_hash, order-free lists sorted."""
    if probe is None:
        require_valid(obj)
    else:
        obj, _ = scale_fix_object(obj, probe)  # validates obj and its rescaling
    form = to_json_dict(obj)
    # opal_hash is excluded so the hash can be written back into the object
    # without changing what it hashes to.
    form["provenance"].pop("opal_hash", None)
    form["provenance"]["citations"].sort()
    form["penalties"].sort(key=lambda entry: entry["name"])
    form["weight"].get("factors", []).sort()
    form["dataset_ops"]["group_weights"].sort()
    form["dataset_ops"]["group_penalties"].sort()
    red = form["reducibility"]
    red["reasons"] = sorted(set(red["reasons"]))
    return form


def _quantized(value: Any) -> Any:
    if isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, float)):
        return quantize(value)
    if isinstance(value, dict):
        return {key: _quantized(item) for key, item in value.items()}
    return [_quantized(item) for item in value]


def canonical_form(obj: GkpoObject, probe: Iterable[PairSample] | None = None) -> dict:
    """Nested dict of the canonical content; numbers are quantized Decimals."""
    return _quantized(_normalized(obj, probe))


def canonicalize(obj: GkpoObject, probe: Iterable[PairSample] | None = None) -> bytes:
    out: list[str] = []
    _emit(_normalized(obj, probe), out)
    return "".join(out).encode("utf-8")


def opal_hash(obj: GkpoObject, probe: Iterable[PairSample] | None = None) -> str:
    import hashlib  # loads OpenSSL; only hashing needs it

    return hashlib.sha256(canonicalize(obj, probe)).hexdigest()


def attach_hash(
    obj: GkpoObject, probe: Iterable[PairSample] | None = None
) -> GkpoObject:
    digest = opal_hash(obj, probe)
    return replace(obj, provenance=replace(obj.provenance, opal_hash=digest))


ABSENT = None  # diff sentinel: key missing on that side


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

    def plain(value: Any) -> Any:
        # canonical forms hold quantized Decimals; report JSON-native values
        if isinstance(value, Decimal):
            return float(value)
        if isinstance(value, list):
            return [plain(v) for v in value]
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value

    def walk(path: str, left: Any, right: Any):
        if isinstance(left, dict) and isinstance(right, dict):
            for key in sorted(set(left) | set(right)):
                sub = f"{path}.{key}" if path else key
                walk(sub, left.get(key, ABSENT), right.get(key, ABSENT))
            return
        if left != right:
            out.append((path, plain(left), plain(right)))

    walk("", form_a, form_b)
    return out
