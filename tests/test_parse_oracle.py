"""`schema.parse` against the node-by-node parser it replaced.

For every text, both parsers must build an equal object or raise a ParseError
with the same path and message. The inputs cover the shipped fixtures, the
conftest fuzzer, every one-node mutation of the fixtures, pairs of defects at
different nodes (which pin the order in which errors are found), truncated
texts, duplicate keys and non-finite tokens.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import fields, is_dataclass, replace
from types import MappingProxyType

import pytest

import parse_oracle
from gkpo.schema import ParseError, parse, serialize

from conftest import FIXTURES, fixture_text, random_object

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))

# every JSON type, an explicit null and an integer beyond float range
REPLACEMENTS = ({}, [], "x", "", 0, 1.5, -2, True, False, None, 10**400, [1.0], ["x"])


def outcome(parser, text: str):
    try:
        return parser(text)
    except ParseError as exc:
        return ("ParseError", exc.path, str(exc))


def assert_agree(text: str):
    assert outcome(parse, text) == outcome(parse_oracle.parse, text), text


def node_paths(value, path=()):
    """The path of every node below the root: object keys and array indices."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield path + (key,)
        yield from node_paths(child, path + (key,))


def object_paths(value, path=()):
    """The path of every JSON object, the root included."""
    if isinstance(value, dict):
        yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from object_paths(child, path + (key,))


def at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def mutated(doc, *edits):
    """A copy of doc with each (path, action, value) edit applied in order.

    action is "delete", "replace" or "add" (a key, into the object at path).
    """
    out = copy.deepcopy(doc)
    for path, action, value in edits:
        if action == "add":
            at(out, path)[value] = 1
        elif action == "delete":
            del at(out, path[:-1])[path[-1]]
        elif path:
            at(out, path[:-1])[path[-1]] = value
        else:
            out = value
    return out


def one_node_edits(doc):
    for path in node_paths(doc):
        yield (path, "delete", None)
        for value in REPLACEMENTS:
            yield (path, "replace", value)
    yield ((), "replace", [])
    for path in object_paths(doc):
        for key in ("zz_unknown", "a_unknown"):
            yield (path, "add", key)


def test_parsers_agree_on_fixtures_and_fuzzed_documents():
    for name in FIXTURE_NAMES:
        assert_agree(fixture_text(name))
    rng = random.Random(2031)
    for _ in range(300):
        text = serialize(random_object(rng))
        assert not isinstance(outcome(parse, text), tuple)
        assert_agree(text)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_parsers_agree_on_one_node_mutations(name):
    doc = json.loads(fixture_text(name))
    for edit in one_node_edits(doc):
        assert_agree(json.dumps(mutated(doc, edit)))
    # two unknown keys in one object: the first in sorted order is reported
    assert_agree(json.dumps(mutated(doc, ((), "add", "zz"), ((), "add", "aa"))))


def test_parsers_agree_on_one_node_mutations_of_fuzzed_documents():
    rng = random.Random(7)
    for _ in range(20):
        doc = json.loads(serialize(random_object(rng)))
        for edit in one_node_edits(doc):
            assert_agree(json.dumps(mutated(doc, edit)))


def defect_path(edit):
    path, action, value = edit
    return path + (value,) if action == "add" else path


def test_parsers_agree_on_two_defects_at_different_nodes():
    """The first error found must be the same one when a text has two."""
    rng = random.Random(11)
    checked = 0
    for name in FIXTURE_NAMES:
        doc = json.loads(fixture_text(name))
        edits = list(one_node_edits(doc))
        for _ in range(300):
            first, second = rng.sample(edits, 2)
            a, b = defect_path(first), defect_path(second)
            if a[: len(b)] == b or b[: len(a)] == a:
                continue  # one node inside the other: not two separate defects
            assert_agree(json.dumps(mutated(doc, first, second)))
            checked += 1
    assert checked > 1000


def test_parsers_agree_on_malformed_texts():
    texts = []
    for name in FIXTURE_NAMES:
        text = fixture_text(name)
        texts += [text[:cut] for cut in range(0, len(text), 7)]
        # a repeated key, at the top and inside a node
        texts.append(text.replace('"link"', '"link": "identity", "link"', 1))
        texts.append(text.replace('"form"', '"form": "x", "form"', 1))
        for token in ("NaN", "Infinity", "-Infinity"):
            texts.append(text.replace('"beta": ', f'"beta": {token}, "x": ', 1))
        texts.append("\ufeff" + text)  # a byte order mark is refused, not skipped
    texts += ["", "null", "[]", '"gkpo-1.0"', "1", "{}", '{"version": 1}', "\ufeff"]
    for text in texts:
        assert_agree(text)


def test_parsers_agree_on_number_literals_beyond_float_range():
    """json.dumps cannot write 1e400 (it writes Infinity), so these texts put
    the raw token in place of every node of every fixture."""
    checked = 0
    for name in FIXTURE_NAMES:
        doc = json.loads(fixture_text(name))
        for path in node_paths(doc):
            hole = json.dumps(mutated(doc, (path, "replace", "\x00hole\x00")))
            for token in ("1e400", "-1e400", "1e-400"):
                assert_agree(hole.replace('"\\u0000hole\\u0000"', token))
                checked += 1
    assert checked > 900


def _frozen_all_the_way(value) -> bool:
    if is_dataclass(value):
        # __init__ and __post_init__ rebuild an equal object
        return replace(value) == value and all(
            _frozen_all_the_way(getattr(value, f.name)) for f in fields(value)
        )
    if isinstance(value, MappingProxyType):
        return all(_frozen_all_the_way(v) for v in value.values())
    if isinstance(value, tuple):
        return all(_frozen_all_the_way(v) for v in value)
    return isinstance(value, (str, float, bool, type(None)))


def test_parse_builds_frozen_objects():
    """Parsed objects hold only tuples, read-only mappings and scalars, as
    objects built through the dataclass constructors do."""
    rng = random.Random(5)
    texts = [fixture_text(n) for n in FIXTURE_NAMES]
    texts += [serialize(random_object(rng)) for _ in range(50)]
    for text in texts:
        obj = parse(text)
        assert _frozen_all_the_way(obj)
        assert obj == parse_oracle.parse(text)
