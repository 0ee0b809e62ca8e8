"""Shared fixtures: shipped-object loaders and a seeded object fuzzer."""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from gkpo.schema import (
    DatasetOps,
    GkpoObject,
    PenaltyEntry,
    Provenance,
    ReducibilityBlock,
    ReferenceSpec,
    ScoreSpec,
    WeightSpec,
    parse,
)

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
# Seeded fuzzer. Coefficients are drawn on the 1e-6 canonical grid so that
# quantization is the identity and hash-stability statements stay sharp.

_NAME_POOL = (
    "rank_margin_1",
    "rank_margin_2",
    "length_shift",
    "kl_anchor",
    "safety_gate_phi1",
    "toxicity_phi",
    "fmt_bonus",
)
_FACTOR_POOL = ("clip_snr", "var_floor", "conf_gate", "trust_band")
_METHOD_POOL = ("DPO", "PPO_RM", "RRHF", "ORPO", "KTO_GRPO", "custom_gated")
_LINKS = ("identity", "logistic", "tanh", "hinge")
_LOSSES = ("logistic", "bce", "hinge", "mse")


def grid_float(rng: random.Random, lo: float = -4.0, hi: float = 4.0) -> float:
    # integer count of 1e-6 steps keeps the value exactly on the grid
    steps = rng.randint(int(lo * 1_000_000), int(hi * 1_000_000))
    return steps / 1_000_000


def grid_positive(rng: random.Random, hi: float = 4.0) -> float:
    steps = rng.randint(1, int(hi * 1_000_000))
    return steps / 1_000_000


def random_object(rng: random.Random) -> GkpoObject:
    if rng.random() < 0.5:
        weight = WeightSpec(form="constant", constant=grid_positive(rng))
    else:
        k = rng.randint(1, 3)
        weight = WeightSpec(
            form="product", constant=None, factors=tuple(rng.sample(_FACTOR_POOL, k))
        )

    ref_form = rng.choice(("fixed_zero", "fixed_scalar", "per_dataset"))
    if ref_form == "fixed_zero":
        reference = ReferenceSpec(form="fixed_zero", value=0.0)
    elif ref_form == "fixed_scalar":
        reference = ReferenceSpec(form="fixed_scalar", value=grid_float(rng))
    else:
        # non-fixed forms carry their offsets in the data, not the spec
        reference = ReferenceSpec(form="per_dataset", value=None)

    names = rng.sample(_NAME_POOL, rng.randint(0, 4))
    penalties = tuple(
        PenaltyEntry(
            name=n,
            coeff=grid_float(rng),
            meta_gate=rng.choice((None, False, True)) if rng.random() < 0.3 else None,
        )
        for n in names
    )

    method = rng.choice(_METHOD_POOL)
    citations = tuple(
        f"cite{rng.randint(2017, 2024)}{c}" for c in rng.sample("abcdef", rng.randint(1, 3))
    )
    prov = Provenance(
        method=method,
        citations=citations,
        notes=rng.choice(("", "fuzzed", "synthetic case")),
    )

    if rng.random() < 0.2:
        red = ReducibilityBlock(
            inside_R=False,
            reasons=("reference_shift",),
            witness={
                "raw_gap": grid_float(rng, 0.0, 2.0),
                "delta_ref_prompt1": grid_float(rng),
                "delta_ref_prompt2": grid_float(rng),
            },
        )
    else:
        red = ReducibilityBlock()

    ops = DatasetOps()
    if rng.random() < 0.3 and penalties:
        ops = DatasetOps(group_penalties=(penalties[0].name,))

    return GkpoObject(
        score=ScoreSpec(),
        link=rng.choice(_LINKS),
        loss=rng.choice(_LOSSES),
        weight=weight,
        reference=reference,
        penalties=penalties,
        beta=grid_positive(rng),
        dataset_ops=ops,
        provenance=prov,
        reducibility=red,
    )
