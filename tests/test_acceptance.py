"""Acceptance gate: ten criteria, one test and one pass/fail line each.

Every tolerance and time budget is pinned in the assertion itself. Oracles are
computed inside the tests (hand arithmetic, brute-force enumeration, dense
grid scans, finite differences) independently of the library code paths they
check.
"""

import hashlib
import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np

from gkpo.adapters import MethodConfig, configs_equal, from_gkpo, to_gkpo
from gkpo.algebra import (
    PairSample,
    collect,
    ladder_margin,
    margin,
    object_margin,
)
from gkpo.canonical import canonicalize, opal_hash, scale_fix_object
from gkpo.engine import (
    kendall_tau,
    link_grad,
    link_value,
    loss_grad,
    loss_value,
    mcnemar_exact,
)
from gkpo.harness import (
    HarnessParams,
    SyntheticDataset,
    gen_dataset,
    run_h1,
    run_h2,
    train_run,
)
from gkpo.reducibility import PiecewisePsi, probe_gate, probe_score, probe_shift
from gkpo.schema import PenaltyEntry, WeightSpec, parse

from conftest import batch_of, load_fixture, load_probe_jsonl, random_object


def test_worked_margin_golden_suite():
    start = time.perf_counter()

    dpo = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.10}))
    rrhf = to_gkpo(
        MethodConfig(
            "RRHF",
            {"beta": 1.0, "penalties": {"rank_margin_1": 0.50, "rank_margin_2": 0.10}},
        )
    )
    dpo_alt = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.15}))
    rrhf_folded = to_gkpo(
        MethodConfig(
            "RRHF",
            {"beta": 1.0, "penalties": {"rank_margin_1": 0.4, "rank_margin_2": 0.2}},
        )
    )

    plain = PairSample("case", 0.50)
    ranked = PairSample(
        "case", 0.50, delta_phi={"rank_margin_1": 0.20, "rank_margin_2": -0.10}
    )
    folded = PairSample(
        "case", 0.50, delta_phi={"rank_margin_1": 0.10, "rank_margin_2": -0.05}
    )

    cases = [
        (dpo, plain, 0.50 - 0.10),                                  # 0.40
        (rrhf, ranked, 0.50 - (0.50 * 0.20 + 0.10 * -0.10)),        # 0.41
        (dpo_alt, plain, 0.50 - 0.15),                              # 0.35
        (rrhf_folded, folded, 0.50 - (0.4 * 0.10 + 0.2 * -0.05)),   # 0.47
    ]
    for obj, sample, oracle in cases:
        assert abs(object_margin(obj, sample) - oracle) <= 1e-12
    assert [round(object_margin(o, s), 2) for o, s, _ in cases] == [
        0.40, 0.41, 0.35, 0.47,
    ]

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"margin suite took {elapsed:.3f}s"
    print("PASS: worked-margin golden suite (0.40/0.41/0.35/0.47, <1s)")


def test_shift_reproduction():
    result = probe_shift([(0.20, 0.50), (0.20, -0.50)])
    assert not result.feasible
    assert result.witness.as_witness_map() == {
        "raw_gap": 0.20,
        "delta_ref_prompt1": 0.50,
        "delta_ref_prompt2": -0.50,
    }
    m1, m2 = result.witness.margins
    assert abs(m1 - -0.30) <= 1e-12 and abs(m2 - 0.70) <= 1e-12

    variant = probe_shift([(0.30, 0.40), (0.30, -0.10)])
    assert not variant.feasible
    v1, v2 = variant.witness.margins
    assert abs(v1 - -0.10) <= 1e-12 and abs(v2 - 0.40) <= 1e-12
    assert set(variant.witness.as_witness_map()) == {
        "raw_gap", "delta_ref_prompt1", "delta_ref_prompt2",
    }
    print("PASS: SHIFT witness reproduction (-0.30/+0.70; variant -0.10/+0.40)")


def test_gate_reproduction():
    result = probe_gate([(1.0, 10.0, 1.0), (0.0, 1.0, 1.0)])
    assert not result.feasible
    l1, l2 = result.witness.forced_coefficients
    assert abs(l1 - -9.0) <= 1e-12 and abs(l2 - 1.0) <= 1e-12

    def grid_feasible(items) -> bool:
        grid = np.arange(0.0, 20.0 + 0.005, 0.01)
        ok = np.ones((grid.size, grid.size), dtype=bool)
        for a, b, c in items:
            ok &= np.abs(a * grid[:, None] + b * grid[None, :] - c) <= 1e-9
            if not ok.any():
                return False
        return bool(ok.any())

    gated = load_fixture("gated_penalty.json")
    w = gated.reducibility.witness
    shipped = [
        (w["phi_pairs"][0], w["phi_pairs"][1], w["phi_value_equal"]),
        (w["phi_pairs"][2], w["phi_pairs"][3], w["phi_value_equal"]),
    ]
    instances = [
        shipped,
        [(1.0, 10.0, 1.0), (0.0, 1.0, 1.0)],
        [(1.0, 0.0, 0.5), (0.0, 1.0, 2.0)],
        [(1.0, 2.0, 2.0), (2.0, 4.0, 4.0)],
    ]
    for items in instances:
        assert probe_gate(items).feasible == grid_feasible(items), items
    print("PASS: GATE reproduction (forced lambda1=-9, lambda2=1; grid agreement)")


def test_score_reproduction():
    result = probe_score(0.40, -0.80, PiecewisePsi(2.0, 0.5))
    assert abs(result.order_weight_first - 0.20) <= 1e-12
    assert abs(result.order_penalty_first - -0.80) <= 1e-12
    assert result.flipped
    print("PASS: SCORE reproduction (0.20 vs -0.80, decision flip)")


def test_scale_fixing():
    half = load_fixture("scale_half_weight.json")
    twin = load_fixture("scale_prescaled_twin.json")
    probe = load_probe_jsonl("scale_probe.jsonl")
    assert sorted(abs(s.delta_u) for s in probe)[len(probe) // 2] == 2.0

    fixed, c = scale_fix_object(half, probe)
    assert c == 0.5
    assert fixed.weight.constant == 1.0
    assert fixed.beta == half.beta * 0.5
    for s in probe:
        before = object_margin(half, s) * half.beta
        after = object_margin(fixed, s) * fixed.beta
        assert np.sign(before) == np.sign(after)
        assert abs(before - after) <= 1e-12
    assert opal_hash(fixed) == opal_hash(twin)
    print("PASS: scale fixing (c=0.5, weight 1.0, beta x0.5, decisions unchanged)")


def test_hash_properties_on_fuzzed_objects():
    start = time.perf_counter()
    rng = random.Random(20240817)
    shuffler = random.Random(99)

    for i in range(1000):
        obj = random_object(rng)
        blob = canonicalize(obj)
        h = opal_hash(obj)
        assert hashlib.sha256(blob).hexdigest() == h

        # idempotence
        assert canonicalize(parse(blob.decode("utf-8"))) == blob

        # permutation invariance over every order-free tuple field
        penalties = list(obj.penalties)
        citations = list(obj.provenance.citations)
        factors = list(obj.weight.factors)
        reasons = list(obj.reducibility.reasons)
        for seq in (penalties, citations, factors, reasons):
            shuffler.shuffle(seq)
        shuffled = replace(
            obj,
            penalties=tuple(penalties),
            provenance=replace(obj.provenance, citations=tuple(citations)),
            weight=replace(obj.weight, factors=tuple(factors)),
            reducibility=replace(obj.reducibility, reasons=tuple(reasons)),
        )
        assert opal_hash(shuffled) == h, i

        # sensitivity at 1e-5, insensitivity below 4e-7 (values sit on the
        # 1e-6 grid by construction)
        assert opal_hash(replace(obj, beta=obj.beta + 1e-5)) != h
        assert opal_hash(replace(obj, beta=obj.beta - 1e-5)) != h
        assert opal_hash(replace(obj, beta=obj.beta + 3.9e-7)) == h
        if obj.penalties:
            p = obj.penalties[0]
            moved = (replace(p, coeff=p.coeff + 1e-5),) + obj.penalties[1:]
            assert opal_hash(replace(obj, penalties=moved)) != h
            close = (replace(p, coeff=p.coeff - 3.9e-7),) + obj.penalties[1:]
            assert opal_hash(replace(obj, penalties=close)) == h

        # embedded hash is excluded from the hashed bytes
        stamped = replace(obj, provenance=replace(obj.provenance, opal_hash=h))
        assert opal_hash(stamped) == h

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"1000-object fuzz took {elapsed:.2f}s"
    print(f"PASS: hash properties on 1000 fuzzed objects ({elapsed:.2f}s < 10s)")


def test_round_trips():
    dpo_cfg = MethodConfig("DPO", {"beta": 1.0, "ref": 0.10})
    rrhf_cfg = MethodConfig(
        "RRHF",
        {"beta": 1.0, "penalties": {"rank_margin_1": 0.50, "rank_margin_2": 0.10}},
    )
    for cfg in (dpo_cfg, rrhf_cfg):
        assert configs_equal(from_gkpo(to_gkpo(cfg), cfg.method).target, cfg)

    folded_cfg = MethodConfig(
        "PPO_RM",
        {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5, "anchor_offset": 0.1,
         "fold_kl": True},
    )
    unfolded_cfg = MethodConfig(
        "PPO_RM", {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5}
    )
    dpo_equiv = MethodConfig("DPO", {"beta": 1.0, "ref": 0.05 + 0.5 * 0.1})
    folded, unfolded, equiv = map(to_gkpo, (folded_cfg, unfolded_cfg, dpo_equiv))
    assert opal_hash(folded) == opal_hash(equiv)

    rng = np.random.default_rng(7)
    for _ in range(100):
        sample = PairSample(
            "s", float(rng.normal()), delta_phi={"kl_anchor": 0.1}
        )
        assert abs(
            object_margin(unfolded, sample) - object_margin(folded, sample)
        ) <= 1e-9
    print("PASS: round-trips (DPO/RRHF configs; folded PPO-RM = DPO hash & margins)")


def test_gradient_equivalence():
    rng = np.random.default_rng(42)
    combos = [("logistic", "identity"), ("mse", "tanh"), ("bce", "logistic")]
    dpo = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.0}))
    for trial in range(100):
        dim = int(rng.integers(2, 7))
        fp, fn = rng.normal(size=dim), rng.normal(size=dim)
        # train_run trains on the canonical spec: draw its numbers on the grid
        beta = round(float(rng.uniform(0.2, 2.0)), 6)
        w = round(float(rng.uniform(0.2, 2.0)), 6)
        names = [f"pen_{k}" for k in range(int(rng.integers(0, 4)))]
        ops = [PenaltyEntry(n, round(float(rng.uniform(-1, 1)), 6)) for n in names]
        rng.shuffle(ops)
        ladder = tuple(ops)
        sample = PairSample(
            "p",
            float(rng.normal()),
            delta_phi={n: float(rng.normal()) for n in names},
        )
        loss, link = combos[trial % len(combos)]

        # one step of train_run on a one-pair dataset: theta moves by
        # -learning_rate times the gradient
        spec = replace(
            dpo,
            loss=loss,
            link=link,
            beta=beta,
            weight=WeightSpec(form="constant", constant=w),
            penalties=ladder,
        )
        data = SyntheticDataset(batch_of([sample]), fp[None] - fn[None], {})
        hp = HarnessParams(steps=1, seeds=(trial,), init_scale=1.0)
        theta0 = np.random.default_rng(trial).standard_normal(dim)
        grad = (theta0 - train_run(spec, data, hp, seed=trial).theta) / hp.learning_rate

        def scored(theta):
            return replace(sample, delta_u=sample.delta_u + float(theta @ (fp - fn)))

        # ladder-route oracle: chain rule with the margin evaluated through
        # the raw ladder of penalty nodes, never through the normal form
        m = ladder_margin(ladder, scored(theta0)) * w
        z = beta * m
        coeff = (
            float(loss_grad(loss, link_value(link, z)))
            * float(link_grad(link, z))
            * beta
            * w
        )
        oracle = coeff * (fp - fn)
        assert np.max(np.abs(grad - oracle)) <= 1e-12

        # central finite differences, 1e-6 relative
        nf = collect(ladder)

        def f(theta):
            return float(
                loss_value(loss, link_value(link, beta * margin(nf, scored(theta)) * w))
            )

        h = 1e-5
        fd = np.empty(dim)
        for i in range(dim):
            bump = np.zeros(dim)
            bump[i] = h
            fd[i] = (f(theta0 + bump) - f(theta0 - bump)) / (2 * h)
        denom = max(1.0, float(np.max(np.abs(grad))))
        assert np.max(np.abs(grad - fd)) / denom <= 1e-6
    print("PASS: gradient equivalence (ladder route <=1e-12; FD within 1e-6)")


def test_harness_h1_h2():
    start = time.perf_counter()
    hp = HarnessParams()  # 150 steps, seeds 0..9
    assert len(hp.seeds) == 10

    spec_a = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.10}))
    spec_b = to_gkpo(
        MethodConfig(
            "PPO_RM",
            {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5, "anchor_offset": 0.1,
             "fold_kl": True},
        )
    )
    h1_data = gen_dataset(300, 6, "none", seed=0)
    h1 = run_h1(spec_a, spec_b, h1_data, hp).summary()
    assert h1["min_tau"] == 1.0
    assert h1["min_decision_match"] == 1.0
    assert h1["all_traces_equal"]

    base = to_gkpo(MethodConfig("DPO", {"beta": 1.0, "ref": 0.0}))
    shifted = to_gkpo(
        MethodConfig(
            "ORPO",
            {
                "beta": 1.0,
                "offset_mode": "per_prompt",
                "shift_evidence": {"raw_gap": 0.20, "offsets": [0.50, -0.50]},
            },
        )
    )
    h2_data = gen_dataset(1000, 8, "witness_slice", seed=0)
    h2 = run_h2(base, shifted, h2_data, hp).summary()
    assert h2["min_discordant_slice_pairs"] >= 200
    assert h2["max_slice_mcnemar_p"] < 0.01
    assert h2["min_flip_agreement"] == 1.0
    assert h2["direction_consistency"] == 1.0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"harness took {elapsed:.1f}s"
    print(
        f"PASS: harness (H1 tau=1.0, 100% match; H2 "
        f"{h2['min_discordant_slice_pairs']} discordant, "
        f"p<0.01, 100% flips; {elapsed:.1f}s < 60s)"
    )


def test_statistics_oracles():
    # exact enumeration over all 2^10 equally likely discordance splits
    n = 10
    extreme = sum(
        1 for bits in itertools.product((0, 1), repeat=n)
        if min(sum(bits), n - sum(bits)) <= 1
    )
    oracle_p = extreme / 2**n
    p = mcnemar_exact(9, 1)
    assert abs(p - oracle_p) <= 1e-12
    assert abs(p - 0.021484) <= 1e-6

    a, b = [1, 2, 3, 4], [1, 3, 2, 4]
    conc = disc = 0
    for i, j in itertools.combinations(range(4), 2):
        if (a[i] - a[j]) * (b[i] - b[j]) > 0:
            conc += 1
        else:
            disc += 1
    oracle_tau = (conc - disc) / math.comb(4, 2)
    tau = kendall_tau(a, b)
    assert abs(tau - oracle_tau) <= 1e-12
    assert abs(tau - 2 / 3) <= 1e-6
    print("PASS: statistics oracles (McNemar 0.021484; Kendall 2/3)")
