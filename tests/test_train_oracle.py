"""train_run against the dense margin-space loop it replaced.

train_run trains in z = beta * margin and leaves stationary pairs (an all-zero
row of weight * feature difference) out of the matrix products. The oracle
below is the earlier loop: every pair, every step, the slope taken in the
margin. The two sum in different orders, so they agree to rounding, not bit
for bit. A margin that cancels to near zero keeps the rounding of its larger
terms, so margins are compared with an absolute floor of RTOL times the
largest margin of the trace.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from gkpo.adapters import MethodConfig, to_gkpo
from gkpo.algebra import object_margins_and_weights
from gkpo.canonical import canonicalize
from gkpo.engine import LINKS, LOSSES, link_grad, link_value, loss_grad, objective
from gkpo.harness import (
    SHIFT_PROFILES,
    SLICE_KEY,
    HarnessParams,
    gen_dataset,
    train_run,
)
from gkpo.schema import WeightSpec, parse

# a rate at which no case's descent amplifies rounding: at 0.4, hinge-link mse
# with product weights grows a last-bit difference to 1e-5 in 30 steps
HP = HarnessParams(steps=30, learning_rate=0.2, seeds=(0,))
RTOL = 1e-12

WEIGHTS = {
    "constant": WeightSpec(form="constant", constant=1.5),
    "product": WeightSpec(form="product", constant=None, factors=("om_a", "om_b")),
}


def dense_train_run(spec, data, hp, seed):
    """(theta, margin_trace, loss_trace) from the margin-space loop."""
    obj = parse(canonicalize(spec).decode("utf-8"))
    n = len(data)
    base_margins, weights = object_margins_and_weights(obj, data.batch)
    dmat = data.delta_feature_matrix
    theta = hp.init_scale * np.random.default_rng(seed).standard_normal(dmat.shape[1])
    margins, losses = [], []
    for step in range(hp.steps + 1):
        m = base_margins + (dmat @ theta) * weights
        if step in (0, hp.steps):
            margins.append(m)
            losses.append(float(np.mean(objective(obj.loss, obj.link, obj.beta, m))))
        if step < hp.steps:
            z = obj.beta * m
            slope = loss_grad(obj.loss, link_value(obj.link, z))
            slope = slope * link_grad(obj.link, z) * obj.beta
            theta = theta - hp.learning_rate * (dmat.T @ (slope * weights)) / n
    return theta, np.stack(margins), np.array(losses)


def weighted_data(profile, seed=0, size=64, dim=4):
    """gen_dataset plus two weight factors; a few background pairs weigh 0."""
    data = gen_dataset(size, dim, profile, seed=seed)
    rng = np.random.default_rng(seed + 100)
    om_a, om_b = rng.uniform(0.5, 2.0, (2, size))
    om_a[:3] = 0.0
    batch = replace(data.batch, omega={"om_a": om_a, "om_b": om_b})
    return replace(data, batch=batch)


def spec_for(loss, link, weight):
    dpo = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.1}))
    return replace(dpo, loss=loss, link=link, beta=0.7, weight=WEIGHTS[weight])


@pytest.mark.parametrize("profile", SHIFT_PROFILES)
@pytest.mark.parametrize("weight", sorted(WEIGHTS))
@pytest.mark.parametrize("loss", LOSSES)
@pytest.mark.parametrize("link", LINKS)
def test_train_run_matches_dense_margin_loop(link, loss, weight, profile):
    data = weighted_data(profile)
    spec = spec_for(loss, link, weight)
    try:
        theta, margins, losses = dense_train_run(spec, data, HP, seed=3)
    except ValueError as exc:
        # bce outside (0, 1): the link leaves the loss's domain
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            train_run(spec, data, HP, seed=3)
        return
    run = train_run(spec, data, HP, seed=3)
    np.testing.assert_allclose(run.theta, theta, rtol=RTOL, atol=0)
    floor = RTOL * np.max(np.abs(margins))
    np.testing.assert_allclose(run.margin_trace, margins, rtol=RTOL, atol=floor)
    np.testing.assert_allclose(run.loss_trace, losses, rtol=RTOL, atol=0)


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_stationary_pairs_are_bitwise_constant(weight):
    data = weighted_data("witness_slice")
    run = train_run(spec_for("logistic", "identity", weight), data, HP, seed=1)
    stationary = list(data.slices[SLICE_KEY])
    if weight == "product":
        stationary += [0, 1, 2]  # zero weight
    trace = run.margin_trace
    assert (trace[:, stationary] == trace[0, stationary]).all()
    # the moving pairs did move
    assert not np.array_equal(trace[0], trace[-1])


@pytest.mark.parametrize("weight", sorted(WEIGHTS))
def test_all_stationary_pairs_leave_theta_at_its_draw(weight):
    data = weighted_data("none")
    if weight == "product":
        batch = data.batch
        om = dict(batch.omega, om_a=np.zeros(len(data)))
        data = replace(data, batch=replace(batch, omega=om))
    else:
        data = replace(data, delta_feature_matrix=np.zeros_like(data.delta_feature_matrix))
    run = train_run(spec_for("logistic", "identity", weight), data, HP, seed=4)
    draw = HP.init_scale * np.random.default_rng(4).standard_normal(4)
    assert np.array_equal(run.theta, draw)
    assert (run.margin_trace == run.margin_trace[0]).all()


def test_stationary_pair_outside_bce_domain_raises_at_step_zero():
    # logistic(z) rounds to 1.0 for a large gap; that pair never moves, so
    # only the loss over all pairs can see it
    data = gen_dataset(64, 4, "witness_slice", seed=0)
    delta_u = data.batch.delta_u.copy()
    delta_u[data.slices[SLICE_KEY][0]] = 100.0
    data = replace(data, batch=replace(data.batch, delta_u=delta_u))
    spec = spec_for("bce", "logistic", "constant")
    with pytest.raises(ValueError, match="bce loss"):
        train_run(spec, data, HarnessParams(steps=1, seeds=(0,)), seed=0)
