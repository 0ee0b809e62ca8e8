"""`adapters.from_gkpo` against the per-call conversion it replaced.

`from_gkpo` records an object's target-independent facts on the first call
and does only the per-target part after it; `convert_oracle.from_gkpo`
derives everything on every call. On the shipped fixtures and the conftest
fuzzer, under every kind of probe and in every call order, both must give
the same outcome, reasons, scale, target method and params, down to the key
order that `gkpo convert` prints.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

import convert_oracle
from gkpo.adapters import from_gkpo
from gkpo.algebra import PairSample
from gkpo.schema import METHODS, PenaltyEntry, ReferenceSpec, WeightSpec

from conftest import FIXTURES, load_fixture, random_object

FIXTURE_NAMES = sorted(p.name for p in FIXTURES.glob("*.json"))
FACTORS = ("clip_snr", "var_floor", "conf_gate", "trust_band")  # the fuzzer's pool

ORDERS = {
    "forward": METHODS,
    "reverse": METHODS[::-1],
    "twice": tuple(m for m in METHODS for _ in range(2)),
}


def _samples(values):
    return [
        PairSample(f"p{i}", 1.0, omega={name: v for name in FACTORS})
        for i, v in enumerate(values)
    ]


# Each kind builds the probe one call sequence shares; "growing" is a list
# that the caller extends after every call
PROBES = {
    "none": lambda: None,
    "empty": lambda: [],
    "constant": lambda: _samples([1.5, 1.5, 1.5]),
    "varying": lambda: _samples([1.0, 2.0, 3.0]),
    "lacking": lambda: [PairSample("p", 1.0, omega={"clip_snr": 1.0})],
    "tiny": lambda: _samples([1e-200, 1e-200]),  # two factors underflow beta to 0
    "huge": lambda: _samples([1e200, 1e200]),  # two factors overflow beta to inf
    "one_shot": lambda: iter(_samples([0.5, 0.5])),
    "growing": lambda: _samples([2.0]),
}


def summary(result) -> tuple:
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    cfg = result.target
    params = None if cfg is None else json.dumps(cfg.params)  # key order included
    return (
        result.outcome,
        result.reasons,
        result.scale_applied,
        type(result.scale_applied),
        None if cfg is None else cfg.method,
        params,
    )


def run(convert, obj, kind: str, order: str) -> list[tuple]:
    """Summaries of convert over a fresh copy of obj, one probe of the kind,
    and the targets in the order."""
    obj, probe = replace(obj), PROBES[kind]()  # replace records nothing
    out = []
    for target in ORDERS[order]:
        try:
            out.append(summary(convert(obj, target, probe)))
        except Exception as exc:  # noqa: BLE001 - compared, not hidden
            out.append(summary(exc))
        if kind == "growing":
            probe.append(_samples([2.0 + len(probe)])[0])
    return out


def assert_agree(obj, kind: str, order: str) -> None:
    got = run(from_gkpo, obj, kind, order)
    assert got == run(convert_oracle.from_gkpo, obj, kind, order), (obj, kind, order)


def test_conversions_agree_on_fixtures():
    for name in FIXTURE_NAMES:
        obj = load_fixture(name)
        for kind in PROBES:
            for order in ORDERS:
                assert_agree(obj, kind, order)


def test_conversions_agree_on_fuzzed_objects():
    rng = random.Random(2024)
    orders = tuple(ORDERS)
    for i in range(3000):
        obj = random_object(rng)
        for kind in PROBES:
            assert_agree(obj, kind, orders[i % len(orders)])


def test_conversions_agree_on_integer_numbers():
    """A Python caller may give numbers as ints; the params carry floats, as
    normalize_config writes them (printed 1.0, not 1)."""
    base = load_fixture("rrhf_rank_penalties.json")
    objects = (
        replace(base, beta=2, penalties=(PenaltyEntry("kl_anchor", 1),)),
        replace(base, penalties=(PenaltyEntry("b_phi", 2), PenaltyEntry("a_phi", -1))),
        replace(
            base,
            beta=3,
            penalties=(),
            weight=WeightSpec(form="constant", constant=2),
            reference=ReferenceSpec(form="fixed_scalar", value=1),
        ),
    )
    for obj in objects:
        for kind in PROBES:
            for order in ORDERS:
                assert_agree(obj, kind, order)


@pytest.mark.parametrize("convert", [from_gkpo, convert_oracle.from_gkpo])
def test_unknown_target_and_invalid_object_are_refused_alike(convert):
    obj = load_fixture("dpo_fixed_reference.json")
    with pytest.raises(ValueError, match="unknown target method"):
        convert(obj, "SFT")
    for target in METHODS:
        with pytest.raises(ValueError, match="invalid GKPO object"):
            convert(replace(obj, beta=-1.0), target)
