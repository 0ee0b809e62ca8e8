"""Strict parsing and validation behavior."""

import dataclasses
import hashlib
import json
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpo.canonical import opal_hash
from gkpo.schema import (
    DatasetOps,
    GkpoObject,
    ParseError,
    PenaltyEntry,
    Provenance,
    ReducibilityBlock,
    ReferenceSpec,
    NODE,
    SHAPES,
    ScoreSpec,
    Violation,
    WeightSpec,
    parse,
    require_valid,
    serialize,
    to_json_dict,
    validate,
)

from conftest import FIXTURES, fixture_text, load_fixture, random_object

MINIMAL = {
    "version": "gkpo-1.0",
    "score": {"type": "logpi"},
    "weight": {"form": "constant", "constant": 1.0},
    "reference": {"form": "fixed_zero", "value": 0.0},
    "link": "identity",
    "loss": "logistic",
    "beta": 1.0,
    "penalties": [],
    "dataset_ops": {
        "group_weights": [],
        "group_penalties": [],
        "composition": "dataset_then_policy",
    },
    "provenance": {"method": "DPO", "citations": ["rafailov2023direct"], "notes": ""},
    "reducibility": {"inside_R": True, "reasons": [], "witness": {}},
}


def doc(**overrides) -> str:
    d = json.loads(json.dumps(MINIMAL))
    for key, value in overrides.items():
        d[key] = value
    return json.dumps(d)


def test_minimal_document_parses_and_validates():
    obj = parse(doc())
    assert validate(obj) == []
    assert obj.version == "gkpo-1.0"
    assert obj.weight.constant == 1.0
    assert obj.penalties == ()


def test_fixture_corpus_parses_clean(dpo_obj, rrhf_obj, orpo_shift_obj, gated_obj):
    for obj in (dpo_obj, rrhf_obj, orpo_shift_obj, gated_obj):
        assert validate(obj) == []


def test_parse_serialize_roundtrip_identity(rrhf_obj):
    assert parse(serialize(rrhf_obj)) == rrhf_obj


def test_lambda_wire_key_maps_to_coeff(rrhf_obj):
    by_name = {p.name: p for p in rrhf_obj.penalties}
    assert by_name["rank_margin_1"].coeff == 0.50
    emitted = to_json_dict(rrhf_obj)["penalties"]
    assert all("lambda" in e and "coeff" not in e for e in emitted)


def test_meta_gate_round_trips(gated_obj):
    assert all(p.meta_gate is True for p in gated_obj.penalties)
    emitted = to_json_dict(gated_obj)["penalties"]
    assert all(e["meta"] == {"gate": True} for e in emitted)


# --- strict-mode rejections -------------------------------------------------


def test_rejects_unknown_top_level_key():
    bad = json.loads(doc())
    bad["extra"] = 1
    with pytest.raises(ParseError) as err:
        parse(json.dumps(bad))
    assert "extra" in str(err.value)


def test_rejects_unknown_nested_key():
    bad = json.loads(doc())
    bad["weight"]["bogus"] = 2
    with pytest.raises(ParseError) as err:
        parse(json.dumps(bad))
    assert "weight" in str(err.value)


def test_rejects_null_values():
    with pytest.raises(ParseError):
        parse(doc(beta=None))


def test_rejects_nan_and_infinity_tokens():
    base = doc()
    for token in ("NaN", "Infinity", "-Infinity"):
        text = base.replace('"beta": 1.0', f'"beta": {token}')
        assert token in text
        with pytest.raises(ParseError):
            parse(text)


def test_rejects_duplicate_json_keys():
    text = doc().replace('"beta": 1.0', '"beta": 1.0, "beta": 2.0')
    with pytest.raises(ParseError) as err:
        parse(text)
    assert "duplicate" in str(err.value).lower()


def test_rejects_boolean_where_number_expected():
    with pytest.raises(ParseError):
        parse(doc(beta=True))


def test_rejects_wrong_version():
    with pytest.raises(ParseError):
        parse(doc(version="gkpo-2.0"))


def test_rejects_bad_enum_values():
    for field, value in (
        ("link", "sigmoid"),
        ("loss", "huber"),
    ):
        with pytest.raises(ParseError):
            parse(doc(**{field: value}))
    bad = json.loads(doc())
    bad["weight"] = {"form": "quadratic", "constant": 1.0}
    with pytest.raises(ParseError):
        parse(json.dumps(bad))
    bad = json.loads(doc())
    bad["reference"] = {"form": "moving_average"}
    with pytest.raises(ParseError):
        parse(json.dumps(bad))


def test_rejects_missing_required_key():
    bad = json.loads(doc())
    del bad["provenance"]
    with pytest.raises(ParseError) as err:
        parse(json.dumps(bad))
    assert "provenance" in str(err.value)


def test_rejects_non_object_top_level():
    with pytest.raises(ParseError):
        parse("[1, 2, 3]")


def test_error_carries_json_path():
    bad = json.loads(doc())
    bad["penalties"] = [{"name": "x", "lambda": "high"}]
    with pytest.raises(ParseError) as err:
        parse(json.dumps(bad))
    assert "penalties" in err.value.path


def test_witness_rejects_nested_structures():
    bad = json.loads(doc())
    bad["reducibility"] = {
        "inside_R": False,
        "reasons": ["reference_shift"],
        "witness": {"raw_gap": {"nested": 1}},
    }
    with pytest.raises(ParseError):
        parse(json.dumps(bad))


# --- validate() invariants ---------------------------------------------------


def paths(violations):
    return {v.path for v in violations}


def test_validate_beta_must_be_positive():
    obj = GkpoObject(beta=0.0)
    assert "beta" in paths(validate(obj))
    obj = GkpoObject(beta=-1.5)
    assert "beta" in paths(validate(obj))


def test_validate_constant_iff_constant_form():
    assert "weight.constant" in paths(
        validate(GkpoObject(weight=WeightSpec(form="constant", constant=None)))
    )
    assert "weight.constant" in paths(
        validate(GkpoObject(weight=WeightSpec(form="constant", constant=0.0)))
    )
    bad = WeightSpec(form="product", constant=2.0, factors=("clip_snr",))
    assert "weight.constant" in paths(validate(GkpoObject(weight=bad)))


def test_validate_factors_iff_product_form():
    assert "weight.factors" in paths(
        validate(GkpoObject(weight=WeightSpec(form="product", constant=None)))
    )
    bad = WeightSpec(form="constant", constant=1.0, factors=("clip_snr",))
    assert "weight.factors" in paths(validate(GkpoObject(weight=bad)))


def test_validate_score_fn_iff_score_dependent():
    assert "weight.score_fn" in paths(
        validate(GkpoObject(weight=WeightSpec(form="score_dependent", constant=None)))
    )
    bad = WeightSpec(form="constant", constant=1.0, score_fn="psi")
    assert "weight.score_fn" in paths(validate(GkpoObject(weight=bad)))


def test_validate_reference_value_rules():
    assert "reference.value" in paths(
        validate(GkpoObject(reference=ReferenceSpec(form="fixed_scalar", value=None)))
    )
    assert "reference.value" in paths(
        validate(GkpoObject(reference=ReferenceSpec(form="fixed_zero", value=0.2)))
    )
    assert "reference.value" in paths(
        validate(GkpoObject(reference=ReferenceSpec(form="per_prompt", value=0.1)))
    )
    assert "reference.value" in paths(
        validate(
            GkpoObject(
                reference=ReferenceSpec(form="fixed_scalar", value=math.inf)
            )
        )
    )


def test_validate_duplicate_penalty_names():
    obj = GkpoObject(
        penalties=(
            PenaltyEntry(name="kl_anchor", coeff=0.1),
            PenaltyEntry(name="kl_anchor", coeff=0.2),
        )
    )
    assert "penalties[1].name" in paths(validate(obj))


def test_validate_penalty_coeff_finite():
    obj = GkpoObject(penalties=(PenaltyEntry(name="kl_anchor", coeff=math.nan),))
    assert "penalties[0].lambda" in paths(validate(obj))


def test_validate_opal_hash_regex():
    ok = Provenance(method="DPO", opal_hash="a" * 64)
    assert validate(GkpoObject(provenance=ok)) == []
    bad = Provenance(method="DPO", opal_hash="XYZ")
    assert "provenance.opal_hash" in paths(validate(GkpoObject(provenance=bad)))
    upper = Provenance(method="DPO", opal_hash="A" * 64)
    assert "provenance.opal_hash" in paths(validate(GkpoObject(provenance=upper)))


def test_hash_and_name_patterns_refuse_a_trailing_newline():
    """The patterns must match the whole string: "$" alone also matches
    before a final newline."""
    hash_line = "a" * 64 + "\n"
    built = GkpoObject(
        weight=WeightSpec(form="product", constant=None, factors=("om_a\n",)),
        penalties=(PenaltyEntry(name="len\n", coeff=0.2),),
        provenance=Provenance(method="DPO", opal_hash=hash_line),
    )
    expected = [
        ("weight.factors[0]", "invalid factor name 'om_a\\n'"),
        ("penalties[0].name", "invalid penalty name 'len\\n'"),
        ("provenance.opal_hash", "must be 64 lowercase hex characters"),
    ]
    for obj in (built, parse(serialize(built))):
        assert [(v.path, v.message) for v in validate(obj)] == expected


def test_validate_inside_r_implies_no_reasons():
    obj = GkpoObject(
        reducibility=ReducibilityBlock(inside_R=True, reasons=("reference_shift",))
    )
    assert "reducibility" in paths(validate(obj))


def test_validate_unknown_reason_code():
    obj = GkpoObject(
        reducibility=ReducibilityBlock(inside_R=False, reasons=("bad_code",))
    )
    assert "reducibility.reasons[0]" in paths(validate(obj))


def test_validate_witness_contents():
    obj = GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("non_additive_gate",),
            witness={"phi_pairs": [1.0, math.inf]},
        )
    )
    assert "reducibility.witness.phi_pairs[1]" in paths(validate(obj))
    obj = GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("non_additive_gate",),
            witness={"flag": True},
        )
    )
    assert "reducibility.witness.flag" in paths(validate(obj))


def test_witness_is_read_only(gated_obj):
    with pytest.raises(TypeError):
        gated_obj.reducibility.witness["phi_value_equal"] = 2.0
    with pytest.raises(TypeError):
        gated_obj.reducibility.witness["added"] = 1.0


def test_witness_arrays_are_stored_as_tuples():
    source = {"phi_pairs": [1.0, 10.0, 0.0, 1.0], "phi_value_equal": 1.0}
    block = ReducibilityBlock(
        inside_R=False, reasons=("non_additive_gate",), witness=source
    )
    assert block.witness["phi_pairs"] == (1.0, 10.0, 0.0, 1.0)
    source["phi_value_equal"] = 2.0  # the block holds its own copy
    assert block.witness["phi_value_equal"] == 1.0
    assert load_fixture("gated_penalty.json").reducibility.witness["phi_pairs"] == (
        1.0, 10.0, 0.0, 1.0,
    )


def test_validity_record_is_not_a_field(rrhf_obj):
    fresh = parse(fixture_text("rrhf_rank_penalties.json"))
    names = [f.name for f in dataclasses.fields(rrhf_obj)]
    assert validate(rrhf_obj) == []
    assert [f.name for f in dataclasses.fields(rrhf_obj)] == names
    assert rrhf_obj == fresh
    assert repr(rrhf_obj) == repr(fresh)
    assert to_json_dict(rrhf_obj) == to_json_dict(fresh)
    assert serialize(rrhf_obj) == serialize(fresh)


def test_require_valid_never_trusts_an_invalid_object():
    bad = GkpoObject(beta=-1.0)
    for _ in range(2):
        assert paths(validate(bad)) == {"beta"}
        with pytest.raises(ValueError, match="beta"):
            require_valid(bad)


def test_validate_custom_score_name_pairing():
    assert "score.custom_name" in paths(
        validate(GkpoObject(score=ScoreSpec(type="custom")))
    )
    assert "score.custom_name" in paths(
        validate(GkpoObject(score=ScoreSpec(type="logpi", custom_name="f")))
    )
    ok = GkpoObject(score=ScoreSpec(type="custom", custom_name="my_score"))
    assert validate(ok) == []


def test_require_valid_raises_with_joined_message():
    with pytest.raises(ValueError) as err:
        require_valid(GkpoObject(beta=-1.0))
    assert "beta" in str(err.value)


def test_serialized_fixture_reparses_to_same_object():
    text = fixture_text("kto_product_weight.json")
    obj = parse(text)
    assert parse(serialize(obj)) == obj
    assert obj.weight.factors == ("clip_snr", "var_floor")


def test_unused_optionals_are_omitted_not_null():
    d = to_json_dict(load_fixture("dpo_fixed_reference.json"))
    assert "score_fn" not in d["weight"]
    assert "factors" not in d["weight"]
    assert "custom_name" not in d["score"]
    assert "opal_hash" not in d["provenance"]
    assert "null" not in json.dumps(d)


def test_validate_outside_R_requires_a_reason():
    obj = GkpoObject(reducibility=ReducibilityBlock(inside_R=False, reasons=()))
    assert "reducibility.reasons" in paths(validate(obj))
    with_reason = GkpoObject(
        reducibility=ReducibilityBlock(inside_R=False, reasons=("reference_shift",))
    )
    assert validate(with_reason) == []


def test_parse_out_of_range_integer_is_parse_error():
    doc = dict(MINIMAL, beta=10**400)
    with pytest.raises(ParseError) as info:
        parse(json.dumps(doc))
    assert info.value.path == "beta"


def test_parse_deep_nesting_is_parse_error():
    with pytest.raises(ParseError):
        parse("[" * 100_000)


@pytest.mark.parametrize(
    "where, path",
    [
        ({"provenance": {"method": "DPO", "notes": "\ud800"}}, "provenance.notes"),
        ({"provenance": {"method": "DPO", "citations": ["a", "b\udfff"]}},
         "provenance.citations[1]"),
        ({"reducibility": {"inside_R": False, "reasons": ["reference_shift"],
                           "witness": {"x\udc00": 1.0}}}, "reducibility.witness"),
    ],
)
@pytest.mark.parametrize("escaped", [True, False])
def test_parse_rejects_strings_utf8_cannot_encode(where, path, escaped):
    """A lone surrogate, escaped or raw, is a ParseError at its JSON path:
    UTF-8 cannot encode it, so the object could never be hashed."""
    text = json.dumps(dict(json.loads(doc()), **where), ensure_ascii=escaped)
    assert ("\\u" in text) == escaped
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.path == path
    assert "UTF-8" in str(info.value)


_LONE = "a\udc00b"
# path of a free-text field no name rule covers -> an object with a lone
# surrogate there
_UNENCODABLE = {
    "score.custom_name": GkpoObject(score=ScoreSpec(type="custom", custom_name=_LONE)),
    "weight.score_fn": GkpoObject(
        weight=WeightSpec(form="score_dependent", constant=None, score_fn=_LONE)
    ),
    "dataset_ops.group_weights[1]": GkpoObject(
        dataset_ops=DatasetOps(group_weights=("g", _LONE))
    ),
    "dataset_ops.group_penalties[0]": GkpoObject(
        dataset_ops=DatasetOps(group_penalties=(_LONE,))
    ),
    "provenance.method": GkpoObject(provenance=Provenance(method=_LONE)),
    "provenance.citations[1]": GkpoObject(
        provenance=Provenance(method="DPO", citations=("c", _LONE))
    ),
    "provenance.notes": GkpoObject(provenance=Provenance(method="DPO", notes="\ud800")),
    f"reducibility.witness.{_LONE}": GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False, reasons=("reference_shift",), witness={_LONE: 1.0}
        )
    ),
}


@pytest.mark.parametrize("path", list(_UNENCODABLE))
def test_validate_rejects_free_text_utf8_cannot_encode(path):
    """An object built in Python skips parse; validate must still refuse a lone
    surrogate, so hashing fails with a violation rather than UnicodeEncodeError."""
    obj = _UNENCODABLE[path]
    assert [v.path for v in validate(obj)] == [path]
    with pytest.raises(ValueError, match="invalid GKPO object") as info:
        opal_hash(obj)
    assert not isinstance(info.value, UnicodeError)


def test_parse_accepts_escaped_surrogate_pairs_and_backslash_u_text():
    notes = "\U0001f600 and the six characters \\ud800"
    obj = parse(doc(provenance={"method": "DPO", "notes": notes}))
    assert obj.provenance.notes == notes



# --- validate never raises on wrong-typed fields ----------------------------------

_FULL = GkpoObject(
    score=ScoreSpec(type="custom", custom_name="my_score"),
    weight=WeightSpec(form="score_dependent", constant=None, score_fn="psi"),
    reference=ReferenceSpec(form="fixed_scalar", value=0.5),
    penalties=(PenaltyEntry(name="len", coeff=0.2, meta_gate=False),),
    dataset_ops=DatasetOps(group_weights=("g",), group_penalties=("h",)),
    provenance=Provenance(method="X", citations=("c",), notes="n", opal_hash="0" * 64),
    reducibility=ReducibilityBlock(
        inside_R=False,
        reasons=("score_dependent_weight",),
        witness={"delta_u": 1.0, "phi_pairs": [1.0, 2.0]},
    ),
)
# one value of each JSON type; a field gets every type but its own
_JSON_VALUES = {"null": None, "boolean": True, "number": 1, "string": "x",
                "array": ["x"], "object": {"x": 1}}
_WIRE_NAMES = {"coeff": "lambda", "meta_gate": "meta.gate"}


def _json_type(value):
    if value is None or isinstance(value, bool):
        return "null" if value is None else "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", tuple: "array", dict: "object",
            MappingProxyType: "object"}[type(value)]


def _leaves(node, path=()):
    """(path, value) for every scalar under node; path holds field names,
    witness keys and sequence indices."""
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            yield from _leaves(getattr(node, f.name), (*path, f.name))
    elif isinstance(node, (dict, MappingProxyType)):  # a witness is read-only
        for key, item in node.items():
            yield from _leaves(item, (*path, key))
    elif isinstance(node, (list, tuple)):
        for i, item in enumerate(node):
            yield from _leaves(item, (*path, i))
    elif node is not None:
        yield path, node


def _replaced(node, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{head: _replaced(getattr(node, head), rest, value)})
    if isinstance(node, (dict, MappingProxyType)):
        return {**node, head: _replaced(node[head], rest, value)}
    items = list(node)
    items[head] = _replaced(items[head], rest, value)
    return type(node)(items)


def _violation_path(path):
    text = ""
    for part in path:
        if isinstance(part, int):
            text += f"[{part}]"
        else:
            text += ("." if text else "") + _WIRE_NAMES.get(part, part)
    return text


def _wrong_typed_cases():
    objects = [_FULL] + [
        load_fixture(name) for name in sorted(p.name for p in FIXTURES.glob("*.json"))
    ]
    for obj in objects:
        for path, value in _leaves(obj):
            for kind, replacement in [*_JSON_VALUES.items(), ("big int", 10**400)]:
                if kind == _json_type(value):
                    continue
                if replacement is None and path[-1] in ("opal_hash", "meta_gate"):
                    continue  # None is how these optional fields are absent
                yield obj, path, replacement


def test_validate_reports_wrong_typed_fields_without_raising():
    """Each scalar of a valid object built in Python, replaced by a value of
    another JSON type or by an int beyond float range, gives a violation at
    its own path."""
    assert validate(_FULL) == []
    cases = 0
    for obj, path, replacement in _wrong_typed_cases():
        assert validate(obj) == []
        found = validate(_replaced(obj, path, replacement))
        where = _violation_path(path)
        # a witness value that became an array is reported at its item
        assert any(v.path in (where, f"{where}[0]") for v in found), (
            where, replacement, found,
        )
        cases += 1
    assert cases > 500


_DOCUMENT_NODES = [key for key, kind, *_ in SHAPES["document"][1] if kind is NODE]


@pytest.mark.parametrize("where", [*_DOCUMENT_NODES, "penalties[0]"])
def test_validate_reports_a_wrong_typed_node_without_raising(where):
    """A node that is not the dataclass of its shape is one violation at its
    path, in parse's words; validate neither enters it nor raises, and
    require_valid raises ValueError."""
    assert len(_DOCUMENT_NODES) == 6
    wrong_kind = WeightSpec() if where == "score" else ScoreSpec()
    for value in (None, 1, "x", wrong_kind):
        if where == "penalties[0]":
            obj = dataclasses.replace(_FULL, penalties=(value,))
        else:
            obj = dataclasses.replace(_FULL, **{where: value})
        assert validate(obj) == [Violation(where, "expected an object")], value
        with pytest.raises(ValueError, match=r"expected an object"):
            require_valid(obj)
    doc = to_json_dict(_FULL)
    if where == "penalties[0]":
        doc["penalties"] = [1]
    else:
        doc[where] = 1
    with pytest.raises(ParseError, match=r"expected an object") as err:
        parse(json.dumps(doc))
    assert err.value.path == where


_NOT_OBJECTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner) | st.tuples(inner),
    max_leaves=8,
) | st.sampled_from([ScoreSpec(), WeightSpec(), object(), GkpoObject])


@settings(max_examples=200, deadline=None)
@given(value=_NOT_OBJECTS)
def test_validate_reports_a_non_object_argument_without_raising(value):
    """An argument that is not a GkpoObject is one violation at the root, in
    the words parse uses for a root that is not an object."""
    assert validate(value) == [Violation("<root>", "expected an object")]
    with pytest.raises(ValueError, match=r"<root>: expected an object"):
        require_valid(value)


# --- the plain serialization's bytes ------------------------------------------------

# sha256 over serialize(parse(text)) for every fixtures/*.json in sorted order,
# then serialize(random_object(rng)) 3000 times with rng = random.Random(2024);
# each item is followed by b"\n". It pins the exact bytes of the plain form:
# its keys, their order and the optionals it leaves out.
SERIALIZE_DIGEST = "b73b9b8570d291c77b2cd71fc2c332d0798fe850ec7ed399f40a74a9284c2e4c"


def test_serialize_bytes_pinned_over_fixtures_and_fuzz_corpus():
    digest = hashlib.sha256()
    paths = sorted(FIXTURES.glob("*.json"))
    assert len(paths) == 12
    for path in paths:
        digest.update(serialize(parse(path.read_text(encoding="utf-8"))).encode() + b"\n")
    rng = random.Random(2024)
    for _ in range(3000):
        digest.update(serialize(random_object(rng)).encode() + b"\n")
    assert digest.hexdigest() == SERIALIZE_DIGEST


# --- a parsed object needs no SHAPES walk -------------------------------------------


def _one_node_mutations(node, path=()):
    """(path, value) for every node of a JSON document replaced by a value of
    each JSON type; "x" is outside every enum."""
    if path:
        for replacement in _JSON_VALUES.values():
            yield path, replacement
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _one_node_mutations(child, (*path, key))


def _mutated(doc, path, value, raw=None):
    """doc as JSON text with the node at path set to value, or to the JSON
    token raw, which json.dumps could not write (it writes inf as Infinity)."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "\x00hole\x00" if raw else value
    return json.dumps(doc).replace('"\\u0000hole\\u0000"', raw or "")


_FULL_DOC = json.loads(serialize(_FULL))
# documents that parse but break a rule relating fields to each other
_RULE_VIOLATIONS = [
    _mutated(_FULL_DOC, ("beta",), 0),
    _mutated(json.loads(fixture_text("kto_product_weight.json")), ("weight", "constant"), 1.0),
    _mutated(_FULL_DOC, ("penalties",), [{"name": "len", "lambda": 0.2}] * 2),
    _mutated(_FULL_DOC, ("reducibility", "inside_R"), True),
]


def _parity_texts():
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.read_text(encoding="utf-8")
    rng = random.Random(11)
    for _ in range(3000):
        yield serialize(random_object(rng))
    yield from _RULE_VIOLATIONS
    # parse refuses most of these; a parse that let one of those through
    # would fail the comparison, as the walk validate skips would report it
    for path, value in _one_node_mutations(_FULL_DOC):
        yield _mutated(_FULL_DOC, path, value)
    # number literals that decode to an infinite float, at every node
    for path in dict.fromkeys(path for path, _ in _one_node_mutations(_FULL_DOC)):
        for raw in ("1e400", "-1e400"):
            yield _mutated(_FULL_DOC, path, None, raw)


def test_validate_of_a_parsed_object_equals_validate_of_its_unrecorded_copy():
    """validate skips the SHAPES walk for an object parse built; on every
    document that parses, that must lose no violation and change no message."""
    for text in _RULE_VIOLATIONS:
        assert validate(parse(text)), text
    compared = 0
    for text in _parity_texts():
        try:
            obj = parse(text)
        except ParseError:
            continue
        as_parsed = [(v.path, v.message) for v in validate(obj)]
        walked = [(v.path, v.message) for v in validate(dataclasses.replace(obj))]
        assert as_parsed == walked, text
        compared += 1
    assert compared >= 3000 + 12 + len(_RULE_VIOLATIONS)
