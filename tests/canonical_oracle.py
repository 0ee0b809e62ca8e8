"""The dict-walking canonicalizer that `gkpo.canonical` replaced.

`gkpo.canonical.canonicalize` writes the canonical bytes straight from the
frozen object. This module keeps the earlier path as a test oracle: it builds
`schema.to_json_dict`, sorts the order-free lists, drops
`provenance.opal_hash`, and walks the dict with a generic emitter that sorts
every object's keys. For any valid object both must give the same bytes, and
the same `diff`.
"""

from __future__ import annotations

from decimal import Decimal
from json.encoder import encode_basestring
from typing import Any

from gkpo.canonical import canonical_number, scale_fix_object
from gkpo.schema import GkpoObject, quantize, require_valid, to_json_dict


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


def _normalized(obj: GkpoObject, probe=None) -> dict:
    """to_json_dict without provenance.opal_hash, order-free lists sorted."""
    if probe is None:
        require_valid(obj)
    else:
        obj, _ = scale_fix_object(obj, probe)
    form = to_json_dict(obj)
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


def canonical_form(obj: GkpoObject, probe=None) -> dict:
    """Nested dict of the canonical content; numbers are quantized Decimals."""
    return _quantized(_normalized(obj, probe))


def canonicalize(obj: GkpoObject, probe=None) -> bytes:
    out: list[str] = []
    _emit(_normalized(obj, probe), out)
    return "".join(out).encode("utf-8")


def diff(a: GkpoObject, b: GkpoObject) -> list[tuple[str, Any, Any]]:
    """Path-keyed deltas between canonical forms, provenance excluded."""
    form_a = canonical_form(a)
    form_b = canonical_form(b)
    form_a.pop("provenance")
    form_b.pop("provenance")
    out: list[tuple[str, Any, Any]] = []

    def plain(value: Any) -> Any:
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
                walk(sub, left.get(key), right.get(key))
            return
        if left != right:
            out.append((path, plain(left), plain(right)))

    walk("", form_a, form_b)
    return out
