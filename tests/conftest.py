"""Shared fixtures: shipped-object loaders, a seeded document generator
read from schema.SHAPES, and one walker for editing JSON documents."""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from gkpo import schema
from gkpo.algebra import object_normal_form
from gkpo.reducibility import Evidence, PiecewisePsi, classify
from gkpo.schema import GkpoObject, parse

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
DATA = Path(__file__).resolve().parent / "data"


def fixture_path(name: str) -> Path:
    return FIXTURES / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def load_fixture(name: str) -> GkpoObject:
    return parse(fixture_text(name))


def load_probe_jsonl(name: str):
    from gkpo.algebra import sample_from_row

    lines = fixture_text(name).splitlines()
    return [sample_from_row(json.loads(line)) for line in lines if line.strip()]


def exact_normal_form(nf):
    """nf with every number it stores lifted to a Fraction. Fraction(float)
    is the float's own value, so algebra's evaluators then give the exact
    margin of the float inputs."""
    from fractions import Fraction

    return replace(
        nf,
        penalty_coeffs={name: Fraction(c) for name, c in nf.penalty_coeffs.items()},
        ref_values=tuple(map(Fraction, nf.ref_values)),
        weight_constants=tuple(map(Fraction, nf.weight_constants)),
    )


def exact_sample(sample):
    """sample with delta_u and every table value lifted to a Fraction."""
    from fractions import Fraction

    from gkpo.algebra import PairSample

    def lift(table):
        return {name: Fraction(value) for name, value in table.items()}

    return PairSample(sample.prompt_id, Fraction(sample.delta_u), lift(sample.delta_phi),
                      lift(sample.omega), lift(sample.delta_ref))


def batch_of(samples):
    """The PairBatch of samples that carry the same names in each table: one
    float64 column per name, as gen_dataset builds them."""
    import numpy as np

    from gkpo.harness import PairBatch

    tables = {}
    for attr in ("delta_phi", "omega", "delta_ref"):
        maps = [getattr(s, attr) for s in samples]
        assert all(m.keys() == maps[0].keys() for m in maps), f"{attr} is ragged"
        tables[attr] = {name: np.array([m[name] for m in maps], dtype=float) for name in maps[0]}
    return PairBatch(
        prompt_ids=tuple(s.prompt_id for s in samples),
        delta_u=np.array([s.delta_u for s in samples], dtype=float),
        **tables,
    )


@pytest.fixture
def dpo_obj() -> GkpoObject:
    return load_fixture("dpo_fixed_reference.json")


@pytest.fixture
def rrhf_obj() -> GkpoObject:
    return load_fixture("rrhf_rank_penalties.json")


@pytest.fixture
def orpo_shift_obj() -> GkpoObject:
    return load_fixture("orpo_prompt_shift.json")


@pytest.fixture
def gated_obj() -> GkpoObject:
    return load_fixture("gated_penalty.json")


@pytest.fixture
def score_weight_obj() -> GkpoObject:
    return load_fixture("score_dependent_weight.json")


# ---------------------------------------------------------------------------
# Seeded document generator. It walks schema.SHAPES, so it draws every key,
# enum value and node form the format states: each optional key is present
# or absent, nodes and arrays recurse. A rules step then makes validate's
# cross-field rules hold, and the reducibility block is classify's, with
# evidence that gives each reason its probe's witness. Numbers are integer
# counts of 1e-6 steps, and sums are formed in steps, so quantization is the
# identity and hash-stability statements stay sharp.

# names that match the name pattern, for every STR and name list
_NAMES = ("rank_margin_1", "rank_margin_2", "length_shift", "kl_anchor", "safety_gate_phi1",
          "toxicity_phi", "fmt_bonus", "clip_snr", "var_floor", "trust_band")
_STEP = 1_000_000  # grid steps per unit
_SPAN = 4 * _STEP  # numbers are drawn from [-4, 4]


def _draw(rng: random.Random, kind: str, arg):
    """A JSON value of one SHAPES kind; arg is its allowed values or node."""
    if kind is schema.NODE:  # each optional key present or absent
        entries = schema.SHAPES[arg][1]
        return {key: _draw(rng, sub, allowed) for key, sub, absent, allowed, _ in entries
                if absent is schema.REQUIRED or rng.random() < 0.5}
    if kind is schema.ARRAY:
        return [_draw(rng, schema.NODE, arg) for _ in range(rng.randint(0, 4))]
    if kind is schema.ENUM:
        return rng.choice(sorted(arg))
    if kind is schema.STR:
        return rng.choice(_NAMES)
    if kind is schema.NUMBER:
        return rng.randint(-_SPAN, _SPAN) / _STEP
    if kind is schema.BOOL:
        return rng.random() < 0.5
    if kind is schema.STRS:
        return rng.sample(sorted(arg) if arg else _NAMES, rng.randint(0, 3))
    names = rng.sample(_NAMES, rng.randint(0, 2))  # NUMBER_MAP
    return {name: _draw(rng, schema.NUMBER, None) for name in names}


def _hold_rules(rng: random.Random, doc: dict) -> None:
    """Make validate's cross-field rules hold on a drawn document."""
    score, weight, reference = doc["score"], doc["weight"], doc["reference"]
    name, positive = rng.choice(_NAMES), rng.randint(1, _SPAN) / _STEP
    # each optional key that one type or form needs: present exactly then
    for node, key, needed, value in (
        (score, "custom_name", score["type"] == "custom", name),
        (weight, "constant", weight["form"] == "constant", positive),
        (weight, "factors", weight["form"] == "product", [name]),
        (weight, "score_fn", weight["form"] == "score_dependent", name),
        (reference, "value", reference["form"] in ("fixed_zero", "fixed_scalar"), positive),
    ):
        if not needed:
            node.pop(key, None)
        elif not node.get(key):  # absent, or an empty list
            node[key] = value
    if "constant" in weight:  # positive: a drawn 0 was replaced above
        weight["constant"] = abs(weight["constant"])
    if reference["form"] == "fixed_zero":
        reference["value"] = 0.0
    doc["beta"] = rng.randint(1, _SPAN) / _STEP
    doc["version"] = schema.SCHEMA_VERSION
    unique = {}  # the first penalty of each name
    for penalty in doc["penalties"]:
        unique.setdefault(penalty["name"], penalty)
    doc["penalties"] = list(unique.values())
    provenance = doc["provenance"]
    if "opal_hash" in provenance:
        provenance["opal_hash"] = hashlib.sha256(provenance["opal_hash"].encode()).hexdigest()


def _evidence(rng: random.Random, reasons) -> Evidence:
    """Probe data whose witness backs each reason: SHIFT pairs (g, g+a) and
    (g, g-b); GATE rows (1, x, t) and (0, 1, t) with x > 1, which force a
    negative coefficient; SCORE (u, -(u+v), psi) with psi nonconstant."""
    shift = gate = score = None
    if "reference_shift" in reasons:
        g, a, b = rng.randint(-_SPAN, _SPAN), rng.randint(1, _SPAN), rng.randint(1, _SPAN)
        shift = ((g / _STEP, (g + a) / _STEP), (g / _STEP, (g - b) / _STEP))
    if "non_additive_gate" in reasons:  # t * (x - 1) >= 1e-6, well past GATE_TOL
        x, t = rng.randint(_STEP + 1000, _SPAN) / _STEP, rng.randint(1000, _SPAN) / _STEP
        gate = ((1.0, x, t), (0.0, 1.0, t))
    if "score_dependent_weight" in reasons:
        u, v = rng.randint(1, _SPAN), rng.randint(1, _SPAN)
        below, at_or_above = rng.sample(range(1, _SPAN + 1), 2)
        score = (u / _STEP, -(u + v) / _STEP, PiecewisePsi(below / _STEP, at_or_above / _STEP))
    return Evidence(shift, gate, score)


def random_object(rng: random.Random) -> GkpoObject:
    doc = _draw(rng, schema.NODE, "document")
    _hold_rules(rng, doc)
    obj = parse(json.dumps(doc))
    evidence = _evidence(rng, object_normal_form(obj).reasons)
    return replace(obj, reducibility=classify(obj, evidence))


# ---------------------------------------------------------------------------
# One walker over JSON values, for tests that edit a document node by node.

DELETE = object()  # the edit that removes a node
HOLE = "\x00hole\x00"  # a string that dumps writes as a raw token


def nodes(value, path=()):
    """(path, node) for every node below the root of a JSON value, parents
    first: object keys in order, array indices in order."""
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield (*path, key), child
            yield from nodes(child, (*path, key))


def edited(value, *edits):
    """A copy of a JSON value with each (path, new) edit applied in order: the
    node at path is set to new, or deleted when new is DELETE. A path one key
    past an object adds that key."""
    value = json.loads(json.dumps(value))
    for path, new in edits:
        parent = value
        for key in path[:-1]:
            parent = parent[key]
        if new is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return value


def dumps(value, token: str = "") -> str:
    """value as JSON text with each HOLE written as the raw token, such as
    1e400, which json.dumps cannot write (it writes inf as Infinity)."""
    return json.dumps(value).replace(json.dumps(HOLE), token)
