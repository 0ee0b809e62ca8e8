"""`canonical.canonicalize` against the dict-walking canonicalizer it replaced.

For every valid object, the writer and `canonical_oracle` must give the same
bytes, the same canonical form and the same `diff`, and refuse the same
objects and probes with the same message. The inputs cover the shipped
fixtures, the conftest fuzzer, scale fixing with probes, and hand-written
edges of escaping, number formatting and the omit-when-unused rules.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import replace
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

import canonical_oracle
from gkpo.algebra import PairSample
from gkpo.canonical import canonical_form, canonicalize, diff
from gkpo.schema import (
    GkpoObject,
    PenaltyEntry,
    Provenance,
    ReducibilityBlock,
    ReferenceSpec,
    ScoreSpec,
    WeightSpec,
    parse,
    validate,
)

from conftest import FIXTURES, load_fixture, load_probe_jsonl, random_object

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))


def outcome(fn, obj, probe=None):
    try:
        return fn(obj, probe)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_agree(obj, probe=None):
    got = outcome(canonicalize, obj, probe)
    assert got == outcome(canonical_oracle.canonicalize, obj, probe), obj
    if isinstance(got, bytes):
        assert canonical_form(obj, probe) == canonical_oracle.canonical_form(obj, probe)


def test_writer_agrees_on_fixtures():
    for name in FIXTURE_NAMES:
        assert_agree(load_fixture(name))


def test_writer_agrees_on_fuzzed_objects():
    rng = random.Random(2718)
    for _ in range(3000):
        assert_agree(random_object(rng))


def test_writer_agrees_on_scale_fixed_objects():
    assert_agree(load_fixture("scale_half_weight.json"), load_probe_jsonl("scale_probe.jsonl"))
    rng = random.Random(31)
    for _ in range(300):
        obj = random_object(rng)
        names = [p.name for p in obj.penalties]
        probe = [
            PairSample(
                f"p{i}",
                rng.uniform(-10, 10) * 10.0 ** rng.randint(-8, 8),
                delta_phi={name: rng.uniform(-2, 2) for name in names},
                delta_ref={"prompt_offset": rng.uniform(-1, 1)},
            )
            for i in range(rng.randint(1, 4))
        ]
        # product weights and rescalings off the 1e-6 grid are refused
        assert_agree(obj, probe)
    assert_agree(GkpoObject(), [PairSample("p", 0.0)])  # an all-zero probe


EDGES = {
    "escaped and non-ASCII text": GkpoObject(
        score=ScoreSpec(type="custom", custom_name="scöre"),
        provenance=Provenance(
            method='q"uote\\back',
            citations=("\u2028line", "tab\there", "\U0001f600", "\x00nul", "\x7f"),
            notes="héllo ä\n",
        ),
    ),
    "negative zeros": GkpoObject(
        reference=ReferenceSpec(form="fixed_scalar", value=-0.0),
        penalties=(PenaltyEntry("phi", -0.0), PenaltyEntry("psi", -1e-9)),
        reducibility=ReducibilityBlock(
            inside_R=False, reasons=("reference_shift",), witness={"gap": -0.0}
        ),
    ),
    "below half a step": GkpoObject(
        penalties=(PenaltyEntry("phi", 1e-7), PenaltyEntry("psi", -4e-7)),
        reference=ReferenceSpec(form="fixed_scalar", value=5e-7),
    ),
    "integers beyond 2**53": GkpoObject(
        beta=2**53 + 1,
        weight=WeightSpec(form="constant", constant=3),
        penalties=(PenaltyEntry("phi", -(2**60) - 1),),
        reducibility=ReducibilityBlock(
            inside_R=False, reasons=("reference_shift",), witness={"big": 2**64 + 1}
        ),
    ),
    "witness arrays": GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("reference_shift",),
            witness={"z": [0.5, -0.0, 2**53 + 1], "a": [], "m": 0.1234565, "é": [1]},
        ),
    ),
    "repeated reasons": GkpoObject(
        reducibility=ReducibilityBlock(
            inside_R=False,
            reasons=("score_dependent_weight", "reference_shift", "score_dependent_weight"),
        ),
    ),
    "repeated factors and groups": GkpoObject(
        weight=WeightSpec(form="product", constant=None, factors=("b", "a", "b")),
        dataset_ops=replace(
            GkpoObject().dataset_ops, group_weights=("y", "x", "y"), group_penalties=("q", "p")
        ),
    ),
}


def test_writer_agrees_on_hand_written_edges():
    for name, obj in EDGES.items():
        assert validate(obj) == [], name
        assert_agree(obj)
        assert_agree(parse(canonicalize(obj).decode("utf-8")))


def test_diff_agrees_on_every_pair_of_fixtures():
    """Key order inside list entries is not compared: the writer's form holds
    it sorted, the oracle's in to_json_dict order."""
    objs = [load_fixture(name) for name in FIXTURE_NAMES]
    for a, b in itertools.product(objs, repeat=2):
        got = json.dumps(diff(a, b), sort_keys=True)
        assert got == json.dumps(canonical_oracle.diff(a, b), sort_keys=True)


def test_diff_reports_a_negative_zero_as_zero():
    zero = EDGES["negative zeros"]
    other = replace(zero, reference=ReferenceSpec(form="fixed_scalar", value=0.1))
    [(path, before, after)] = diff(zero, other)
    assert (path, before, after) == ("reference.value", 0.0, 0.1)
    assert math.copysign(1.0, before) == 1.0


# quotes, backslashes, control characters, the JavaScript line separators and
# non-BMP characters, beside any other encodable character
_AWKWARD = '"\\\x00\x1f\x7f\u2028\u2029\U0001f600\U00010000'
_free_text = st.text(
    st.sampled_from(_AWKWARD) | st.characters(exclude_categories=("Cs",)), max_size=8
)
_witness_value = st.floats(-1e3, 1e3) | st.lists(st.floats(-1e3, 1e3), max_size=3)


def _keys_sorted(pairs):
    keys = [key for key, _ in pairs]
    assert keys == sorted(keys)
    return dict(pairs)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    method=_free_text,
    notes=_free_text,
    citations=st.lists(_free_text, max_size=3),
    witness=st.dictionaries(_free_text, _witness_value, max_size=4),
    beta=st.floats(1e-3, 1e3),
)
def test_canonical_bytes_match_the_oracle_on_awkward_text(
    seed, method, notes, citations, witness, beta
):
    """json.loads with exact decimals finds every object's keys sorted, and
    the writer's bytes equal the oracle's: escaping and numbers are checked
    against the standard library and the old emitter."""
    obj = replace(
        random_object(random.Random(seed)),
        beta=beta,
        provenance=Provenance(method=method, citations=citations, notes=notes),
        reducibility=ReducibilityBlock(
            inside_R=False, reasons=("reference_shift",), witness=witness
        ),
    )
    assert validate(obj) == []
    blob = canonicalize(obj)
    json.loads(
        blob.decode("utf-8"),
        parse_float=Decimal,
        parse_int=Decimal,
        object_pairs_hook=_keys_sorted,
    )
    assert blob == canonical_oracle.canonicalize(obj)
