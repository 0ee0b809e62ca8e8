"""train_runs shares one descent between specs with byte-equal moving problems.

Sharing must be invisible: every run train_runs returns equals, bit for bit,
what train_run gives for that spec alone. A descent is counted by wrapping
harness._descend, the one place the gradient steps run.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from gkpo import harness
from gkpo.algebra import PROMPT_OFFSET_KEY, object_margins_and_weights
from gkpo.cli import main
from gkpo.harness import HarnessParams, gen_dataset, train_run, train_runs
from gkpo.schema import WeightSpec

from test_harness import dpo_spec, folded_ppo_spec, orpo_shift_spec
from test_harness_pins import REPORT_CONFIG, REPORT_DIGESTS

HP = HarnessParams(steps=12, seeds=(0,))


@pytest.fixture
def descents(monkeypatch):
    """A list that grows by one entry per call of harness._descend."""
    calls = []
    descend = harness._descend

    def counted(*args):
        calls.append(args)
        return descend(*args)

    monkeypatch.setattr(harness, "_descend", counted)
    return calls


def with_offsets(data, rows, value):
    """data with the per-prompt offset set to value on the given rows."""
    offsets = data.batch.delta_ref[PROMPT_OFFSET_KEY].copy()
    offsets[rows] = value
    batch = replace(data.batch, delta_ref={PROMPT_OFFSET_KEY: offsets})
    return replace(data, batch=batch)


def signed_zero_data():
    """Row 0 (a moving pair) holds delta_u = -0.0 and offset -0.0: the
    fixed-zero reference gives margin -0.0 - 0.0 = -0.0, the per-prompt one
    -0.0 - (-0.0) = +0.0, and every other offset is 0.0, so every other
    margin is the same float."""
    data = with_offsets(gen_dataset(40, 4, "none", seed=6), [0], -0.0)
    delta_u = data.batch.delta_u.copy()
    delta_u[0] = -0.0
    return replace(data, batch=replace(data.batch, delta_u=delta_u))


def constant_weight(value):
    return WeightSpec(form="constant", constant=value)


DPO = dpo_spec(0.0)
WITNESS = gen_dataset(48, 4, "witness_slice", seed=5)
PLAIN = gen_dataset(40, 4, "none", seed=2)

SHARING = {
    "h2-base-and-shifted": (DPO, orpo_shift_spec(), WITNESS),
    "hash-equal-twins": (dpo_spec(0.10), folded_ppo_spec(), PLAIN),
    "same-spec-twice": (DPO, DPO, PLAIN),
}
NOT_SHARING = {
    "beta": (DPO, replace(DPO, beta=2.0), PLAIN),
    "loss": (DPO, replace(DPO, loss="mse"), PLAIN),
    "link": (DPO, replace(DPO, link="tanh"), PLAIN),
    "constant-weight": (DPO, replace(DPO, weight=constant_weight(1.5)), PLAIN),
    "offset-on-a-moving-row": (DPO, orpo_shift_spec(), with_offsets(WITNESS, [3], 0.25)),
    "z0-sign-of-zero": (DPO, orpo_shift_spec(), signed_zero_data()),
}


def assert_runs_identical(got, want):
    for field in ("theta", "margin_trace", "loss_trace"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize(
    "a,b,data,shared",
    [
        *(pytest.param(*case, True, id=name) for name, case in SHARING.items()),
        *(pytest.param(*case, False, id=name) for name, case in NOT_SHARING.items()),
    ],
)
def test_train_runs_equal_separate_train_runs_bitwise(a, b, data, shared, descents):
    want = [train_run(a, data, HP, seed=3), train_run(b, data, HP, seed=3)]
    assert len(descents) == 2
    descents.clear()
    got = train_runs([a, b], data, HP, seed=3)
    assert len(descents) == (1 if shared else 2)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert_runs_identical(g, w)
    # a shared run owns its arrays: writing one leaves the other as it was
    got[1].theta[:] = np.nan
    assert not np.isnan(got[0].theta).any()


def test_signed_zero_case_differs_only_in_the_sign_of_a_zero():
    a, b, data = NOT_SHARING["z0-sign-of-zero"]
    ma, mb = (object_margins_and_weights(spec, data.batch)[0] for spec in (a, b))
    assert np.array_equal(ma, mb)
    assert np.signbit(ma[0]) and not np.signbit(mb[0])
    assert ma.tobytes() != mb.tobytes()


@pytest.mark.parametrize("which,per_seed", [("h1", 2), ("h2", 1)])
def test_harness_descents_per_seed_and_report_pin(which, per_seed, descents, capsys, tmp_path):
    """h2 descends once per seed (base and shifted share), h1 twice: its report
    verifies trace equality by training both specs. The report bytes are the
    pinned ones on the same run."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(REPORT_CONFIG))
    assert main(["harness", which, "--config", str(cfg)]) == 0
    assert len(descents) == per_seed * len(REPORT_CONFIG["seeds"])
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == REPORT_DIGESTS[which]
