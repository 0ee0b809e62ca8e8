"""The node-by-node GKPO parser that `gkpo.schema.parse` replaced.

`gkpo.schema.parse` reads every node from one table of node shapes. This
module keeps the earlier parser, which states each node's keys as a sequence
of typed extractions, as a test oracle: for any text, both must return an
equal object or raise a ParseError with the same path and message.
"""

from __future__ import annotations

import json
import math
from typing import Any

from gkpo.schema import (
    COMPOSITIONS,
    LINK_NAMES,
    LOSS_NAMES,
    REASON_CODES,
    REFERENCE_FORMS,
    SCHEMA_VERSION,
    SCORE_TYPES,
    WEIGHT_FORMS,
    DatasetOps,
    GkpoObject,
    ParseError,
    PenaltyEntry,
    Provenance,
    ReducibilityBlock,
    ReferenceSpec,
    ScoreSpec,
    WeightSpec,
    _SURROGATE,
    _SURROGATE_ESCAPE,
    _require_utf8,
)


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
        value = float(value)
    except OverflowError:
        raise ParseError("number out of range", path) from None
    if not math.isfinite(value):  # a literal such as 1e400 decodes to inf
        raise ParseError("number out of range", path)
    return value


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
    """The reference parse: one typed extraction per key, in document order."""
    try:
        raw = json.loads(
            text, parse_constant=_reject_constant, object_pairs_hook=_strict_pairs
        )
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
