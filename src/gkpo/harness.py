"""Desk-scale training comparisons between objective specs.

Two hypotheses are checked on synthetic pairwise data with linear scorers and
full-batch gradient descent:

* H1 (equivalence): two specs with equal opal_hash train to functionally
  indistinguishable scorers. Identical hash means identical canonical bytes,
  so both runs execute the same arithmetic and their margin traces match
  bitwise; tau and decision match are 1.0 by construction, and the harness
  verifies rather than assumes it.
* H2 (divergence): a per-prompt reference shift flips decisions exactly where
  its witness predicts. The dataset embeds the witness pairs in a named
  "target_slice" whose members carry zero feature vectors, so their margins
  never depend on the trained scorer and the predicted flips are a property
  of the spec, not of the optimizer. The prediction for a slice pair is the
  sign of the shifted spec's own margin, from object_margins_and_weights.

Training runs in z = beta * margin and leaves stationary pairs (an all-zero
row of weight * feature difference) out of the descent. `train_runs` trains
several specs on one dataset and seed, and specs whose moving problems are
byte-equal (loss, link, beta, moving pairs, beta * weights and z0) share one
descent; each run is bit for bit what `train_run` gives for its spec alone.
H2's shifted spec differs from its base only on the stationary witness pairs,
so run_h2 descends once per seed. Every run traces step 0 and its last step,
which is all either report reads. run_h1 trains its two specs separately, so
that its trace equality is checked on two runs, not assumed.

Datasets are generated in process and held as columns: a SyntheticDataset
holds one PairBatch (prompt ids formatted from the row index on access,
delta_u and name -> column maps that every row carries), one (n, d) block of
feature differences and range slices. Draws live one row block at a time and
training holds only its moving block, so h2 at MAX_HARNESS_CELLS peaks near
117 MB RSS (x86-64 Linux, numpy 2.4.6). The spec's margins are evaluated once
per column, not once per pair.

Both runners return one Report type: a row of REPORTS states a hypothesis's
summary keys (each a min, max, all or mean over a per-seed field), their text
and its table columns, and `to_json_dict` and `to_text` read only that row.

`gkpo harness h1|h2` runs one row of HYPOTHESES; `setup` checks a whole
--config against it, HarnessParams, MAX_HARNESS_CELLS and
MAX_DESCENT_PAIR_STEPS, then builds it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Any, Callable, Sequence

import numpy as np

from . import adapters
from .algebra import (
    PROMPT_OFFSET_KEY,
    object_margin,  # noqa: F401  bench/tracing.py resolves it here by name
    object_margins_and_weights,
    object_weight,  # noqa: F401  likewise
)
from .canonical import canonicalize, opal_hash
from .engine import (
    bootstrap_diff_ci,
    kendall_tau,
    mcnemar_exact,
    objective,
    z_slope,
)
from .schema import GkpoObject, parse

SLICE_KEY = "target_slice"
BACKGROUND_KEY = "background"
SHIFT_PROFILES = ("none", "two_prompt_flip", "witness_slice")

# the two-prompt flip pattern: raw gap d with per-prompt offsets +/- 0.50
FLIP_GAP = 0.20
FLIP_OFFSET = 0.50

# floats drawn, or multiplied, per row block in gen_dataset and _train
_ROW_BLOCK = 1 << 14


@dataclass(frozen=True)
class _PromptIds(Sequence[str]):
    """gen_dataset's prompt ids, formatted from the row index on access: p{i}
    for the n_global pool rows, then w{k}a and w{k}b for witness instance k."""

    n_global: int
    rows: range

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index):
        i = self.rows[index]  # range's IndexError, negative and slice rules
        if isinstance(i, range):
            return tuple(map(self.__getitem__, i))
        k, tag = divmod(i - self.n_global, 2)
        return f"p{i}" if k < 0 else f"w{k}{'ab'[tag]}"


@dataclass(frozen=True, eq=False)
class PairBatch:
    """PairSample's attributes as columns, one entry per pair.

    algebra's evaluators run on it unchanged: delta_u is an array and each
    name -> value map holds one float64 column per name, which every row
    carries.
    """

    prompt_ids: Sequence[str]
    delta_u: np.ndarray
    delta_phi: dict[str, np.ndarray]
    omega: dict[str, np.ndarray]
    delta_ref: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.delta_u)

    def lacking(self) -> str:
        """Prompt id that an error for a name this batch lacks names: every
        row lacks it, so the first row's."""
        return self.prompt_ids[0]


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Pairs held as columns: a PairBatch and the (n, d) block of pos - neg
    feature differences. The pos side is the preferred one on every row.
    """

    batch: PairBatch
    delta_feature_matrix: np.ndarray
    slices: dict[str, Sequence[int]]

    def __len__(self) -> int:
        return len(self.batch)


def require_int(name: str, value: Any) -> None:
    """TypeError unless value is an integer; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


# 1000 times the default; bootstrap_ci holds one float per resample
MAX_BOOTSTRAP_RESAMPLES = 1_000_000
# Largest array a harness run may hold, in floats: the dataset's feature cells
# (size * feature_dim) and a run's margin trace (2 rows * size). It is 10 times
# the benchmark's h2 dataset of 50 000 x 8, so a larger config is a usage error,
# not an allocation.
MAX_HARNESS_CELLS = 4_000_000
# Most descent work a report may ask for, in pair-steps (steps * size * seeds).
# It is 10 times the benchmark's h2 report of 150 steps x 50 000 pairs x 2
# seeds, so a config that would descend for hours is a usage error, not a hang.
MAX_DESCENT_PAIR_STEPS = 150_000_000


@dataclass(frozen=True)
class HarnessParams:
    steps: int = 150
    learning_rate: float = 0.5
    seeds: tuple[int, ...] = tuple(range(10))
    init_scale: float = 0.1
    bootstrap_resamples: int = 1000

    def __post_init__(self):
        # a JSON array; a string or a number is not read as a run of seeds
        if not isinstance(self.seeds, (list, tuple)):
            raise TypeError(f"seeds must be a list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for name in ("steps", "bootstrap_resamples"):
            require_int(name, getattr(self, name))
        for seed in self.seeds:
            require_int("seeds", seed)
            if seed < 0:  # np.random.default_rng takes no negative seed
                raise ValueError(f"seeds must be non-negative, got {seed}")
        for name in ("learning_rate", "init_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int beyond float range
                raise ValueError(f"{name} must be finite, got an int beyond float range") from None
            if not finite:
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.steps < 1 or self.learning_rate <= 0:
            raise ValueError("steps and learning_rate must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        # bootstrap_ci's floor and this module's ceiling, checked here so a bad
        # config fails before training
        if not 100 <= self.bootstrap_resamples <= MAX_BOOTSTRAP_RESAMPLES:
            raise ValueError(
                "bootstrap_resamples must be between 100 and "
                f"{MAX_BOOTSTRAP_RESAMPLES}, got {self.bootstrap_resamples}"
            )


@dataclass(frozen=True, eq=False)
class TrainRun:
    spec: GkpoObject
    seed: int
    theta: np.ndarray
    margin_trace: np.ndarray  # (2, n_pairs): step 0 and the last step
    loss_trace: np.ndarray  # (2,): likewise

    @property
    def final_margins(self) -> np.ndarray:
        return self.margin_trace[-1]


# ---------------------------------------------------------------------------
# Data generation


def gen_dataset(
    size: int, feature_dim: int, shift_profile: str = "none", seed: int = 0
) -> SyntheticDataset:
    """Deterministic synthetic pairwise data.

    Profiles: "none" is a plain random pool; "two_prompt_flip" ends with the
    single two-prompt flip pattern (gap 0.20, offsets +/-0.50); "witness_slice"
    devotes half the pairs to repeated copies of that pattern. Flip-pattern
    pairs carry zero features; everything else gets standard-normal features
    and is oriented so that a hidden scoring direction prefers its pos side.
    """
    if size < 2:
        raise ValueError("size must be at least 2")
    if feature_dim < 1:
        raise ValueError("feature_dim must be at least 1")
    if shift_profile not in SHIFT_PROFILES:
        raise ValueError(f"unknown shift profile {shift_profile!r}")

    if shift_profile == "none":
        instances = 0
    elif shift_profile == "two_prompt_flip":
        instances = 1
    else:
        instances = size // 4  # half the pairs, two per instance
        if instances == 0:
            raise ValueError("witness_slice needs size >= 4")
    n_global = size - 2 * instances

    rng = np.random.default_rng(seed)
    theta_star = rng.standard_normal(feature_dim)
    # the one feature block and the columns, written in place; slice rows stay 0
    delta_features = np.zeros((size, feature_dim))
    delta_u = np.full(size, FLIP_GAP)
    offsets = np.zeros(size)
    offsets[n_global:].reshape(instances, 2)[:] = FLIP_OFFSET, -FLIP_OFFSET
    # row i is what per-pair draws of fp(d), fn(d), du give, in row blocks or not
    rows = max(1, _ROW_BLOCK // (2 * feature_dim + 1))
    for start in range(0, n_global, rows):
        draws = rng.standard_normal((min(rows, n_global - start), 2 * feature_dim + 1))
        fp, fn, du = draws[:, :feature_dim], draws[:, feature_dim:-1], draws[:, -1]
        du *= 0.5
        delta = np.subtract(fp, fn, out=delta_features[start : start + len(du)])
        # how far the matrix product below may round from a per-row dot product
        bound = np.abs(delta, out=delta) @ np.abs(theta_star)
        bound += np.abs(du)
        bound *= 2 * (feature_dim + 1) * np.finfo(float).eps
        np.subtract(fp, fn, out=delta)
        # orient each pair so the side a hidden scorer prefers sits on pos;
        # the trainer's loss presumes that layout, as collected data would
        score = delta @ theta_star
        score += du
        flip = score < 0
        # where the rounding could move the sign, decide with the per-row product
        for i in np.flatnonzero(np.abs(score, out=score) <= bound):
            flip[i] = du[i] + float(theta_star @ (fp[i] - fn[i])) < 0
        # fn - fp on flipped rows, as the swapped pair gives: -(fp - fn) is -0.0 where they share
        np.subtract(fn, fp, out=delta, where=flip[:, None])
        delta_u[start : start + len(du)] = np.negative(du, out=du, where=flip)
    batch = PairBatch(
        prompt_ids=_PromptIds(n_global, range(size)),
        delta_u=delta_u,
        delta_phi={},
        omega={},
        delta_ref={PROMPT_OFFSET_KEY: offsets},
    )
    slices = {SLICE_KEY: range(n_global, size), BACKGROUND_KEY: range(n_global)}
    return SyntheticDataset(batch=batch, delta_feature_matrix=delta_features, slices=slices)


# ---------------------------------------------------------------------------
# Training


def train_run(
    spec: GkpoObject, data: SyntheticDataset, hp: HarnessParams, seed: int
) -> TrainRun:
    return train_runs([spec], data, hp, seed)[0]


def train_runs(
    specs: Sequence[GkpoObject], data: SyntheticDataset, hp: HarnessParams, seed: int
) -> tuple[TrainRun, ...]:
    """One TrainRun per spec, each bit for bit what training it alone gives.

    Specs whose moving problems are byte-equal (same loss, link and beta, and
    byte-equal moving indices, beta * weights and z0) share one descent: the
    first such spec runs it, and the others copy its theta, moving-pair
    margins and moving-pair losses.
    """
    # problem key -> (the run that descended, its moving pairs' loss sums)
    descents: dict[tuple, tuple[TrainRun, np.ndarray]] = {}
    return tuple(_train(spec, data, hp, seed, descents) for spec in specs)


def _train(
    spec: GkpoObject,
    data: SyntheticDataset,
    hp: HarnessParams,
    seed: int,
    descents: dict[tuple, tuple[TrainRun, np.ndarray]],
) -> TrainRun:
    # hash-equal specs must execute identical arithmetic: train on the parse
    # of the canonical bytes, not on the object as handed in
    obj = parse(canonicalize(spec).decode("utf-8"))
    n = len(data)
    if n == 0:
        raise ValueError("dataset is empty")
    base_margins, weights = object_margins_and_weights(obj, data.batch)
    # z = beta * margin = z0 + zmat @ theta, zmat = features * beta * weights
    # by row. A pair whose zmat row is all zero (no feature difference, or a
    # zero weight) is stationary: it keeps its base margin and is left out of
    # both products (faster column-major). Its loss is taken once, here, so a
    # stationary pair outside its domain raises before the first step.
    beta_weights = np.asarray(obj.beta * weights, dtype=float)
    features, row_weights = data.delta_feature_matrix, np.broadcast_to(beta_weights, n)
    rows = max(1, _ROW_BLOCK // features.shape[1])
    is_moving = np.concatenate([  # zmat's rows, one block at a time
        (features[i : i + rows] * row_weights[i : i + rows, None]).any(axis=1)
        for i in range(0, n, rows)
    ])
    moving = np.flatnonzero(is_moving)
    still_loss = np.sum(objective(obj.loss, obj.link, obj.beta, base_margins[~is_moving]))
    z0 = obj.beta * base_margins[moving]
    # bytes, not values: -0.0 and 0.0, or two NaNs, never share
    key = (obj.loss, obj.link, obj.beta)
    key += (moving.tobytes(), beta_weights.tobytes(), z0.tobytes())
    if key in descents:
        first, moving_loss = descents[key]
        theta = first.theta.copy()
        margin_trace = first.margin_trace.copy()
        np.copyto(margin_trace, base_margins, where=~is_moving)
    else:
        zmat = np.empty((moving.size, features.shape[1]), order="F")
        moving_weights = row_weights[moving]
        for j, column in enumerate(zmat.T):
            np.multiply(features[moving, j], moving_weights, out=column)
        theta, margin_trace, moving_loss = _descend(
            obj, zmat, z0, moving, base_margins, hp, seed
        )
    run = TrainRun(
        spec=obj,
        seed=seed,
        theta=theta,
        margin_trace=margin_trace,
        loss_trace=(still_loss + moving_loss) / n,
    )
    descents.setdefault(key, (run, moving_loss))
    return run


def _descend(obj, zmat, z0, moving, base_margins, hp, seed):
    """Full-batch gradient descent on the moving pairs, in z.

    Returns the final theta, the margin trace (base margins, with the moving
    pairs' margins at step 0 and at the last step) and the moving pairs' loss
    sum at those two steps. Finiteness is checked there only: a theta that
    leaves float range never returns to it. A non-finite theta, margin or
    loss raises ValueError.
    """
    n = base_margins.size
    margin_trace = np.tile(base_margins, (2, 1))
    moving_loss = np.empty(2)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = hp.init_scale * np.random.default_rng(seed).standard_normal(zmat.shape[1])
        for step in range(hp.steps + 1):
            zm = z0 + zmat @ theta
            if step in (0, hp.steps):
                row = min(step, 1)
                m = zm / obj.beta
                margin_trace[row, moving] = m
                moving_loss[row] = np.sum(objective(obj.loss, obj.link, obj.beta, m))
                finite = np.isfinite(theta).all() and np.isfinite(m).all()
                if not (finite and np.isfinite(moving_loss[row])):
                    raise ValueError(
                        f"the descent diverged: seed {seed}, step {step} has a "
                        "non-finite theta, margin or loss"
                    )
            if step < hp.steps:
                slope = z_slope(obj.loss, obj.link, zm)
                theta = theta - hp.learning_rate * (zmat.T @ slope) / n
    return theta, margin_trace, moving_loss


# ---------------------------------------------------------------------------
# H1: equivalence under matched hashes


@dataclass(frozen=True)
class H1SeedResult:
    seed: int
    tau: float
    decision_match: float
    win_rate_a: float
    win_rate_b: float
    win_diff_ci: tuple[float, float]
    mcnemar_p: float
    traces_equal: bool


def run_h1(
    spec_a: GkpoObject,
    spec_b: GkpoObject,
    data: SyntheticDataset,
    hp: HarnessParams | None = None,
) -> Report:
    hp = hp or HarnessParams()
    hash_a = opal_hash(spec_a)
    hash_b = opal_hash(spec_b)
    if hash_a != hash_b:
        raise ValueError(
            f"H1 precondition failed: opal_hash mismatch ({hash_a} vs {hash_b})"
        )
    results = []
    for seed in hp.seeds:
        run_a = train_run(spec_a, data, hp, seed)
        run_b = train_run(spec_b, data, hp, seed)
        ma, mb = run_a.final_margins, run_b.final_margins
        # every pos side is the preferred one; a zero margin abstains, a loss
        wins_a, wins_b = ma > 0, mb > 0
        results.append(
            H1SeedResult(
                seed=seed,
                tau=kendall_tau(ma, mb),
                decision_match=float(np.mean(np.sign(ma) == np.sign(mb))),
                win_rate_a=float(np.mean(wins_a)),
                win_rate_b=float(np.mean(wins_b)),
                win_diff_ci=bootstrap_diff_ci(
                    wins_a.astype(float),
                    wins_b.astype(float),
                    resamples=hp.bootstrap_resamples,
                    seed=seed,
                ),
                mcnemar_p=mcnemar_exact(
                    int(np.sum(wins_a & ~wins_b)), int(np.sum(~wins_a & wins_b))
                ),
                traces_equal=bool(
                    np.array_equal(run_a.margin_trace, run_b.margin_trace)
                ),
            )
        )
    return Report("H1", tuple(results), opal_hash=hash_a)


# ---------------------------------------------------------------------------
# H2: divergence under a reference shift


@dataclass(frozen=True)
class H2SeedResult:
    seed: int
    global_win_base: float
    global_win_shifted: float
    slice_win_base: float
    slice_win_shifted: float
    predicted_flips: int
    observed_flips: int
    flip_agreement: float
    discordant_slice_pairs: int
    slice_mcnemar_p: float
    direction_consistent: bool


def run_h2(
    base: GkpoObject,
    shifted: GkpoObject,
    data: SyntheticDataset,
    hp: HarnessParams | None = None,
) -> Report:
    hp = hp or HarnessParams()
    if "reference_shift" not in shifted.reducibility.reasons:
        raise ValueError("H2 precondition failed: shifted spec lacks reference_shift")
    if not shifted.reducibility.witness:
        raise ValueError("H2 precondition failed: shifted spec carries no witness")
    if not base.reducibility.inside_R:
        raise ValueError("H2 precondition failed: base spec is not inside R")
    slice_idx = np.fromiter(data.slices.get(SLICE_KEY, ()), dtype=int)
    if slice_idx.size == 0:
        raise ValueError(f"H2 needs a nonempty {SLICE_KEY!r} slice")

    # witness prediction per slice pair: the sign of the shifted spec's own margin
    pred_sign = np.sign(object_margins_and_weights(shifted, data.batch)[0][slice_idx])
    pred_wins = pred_sign > 0
    results = []
    for seed in hp.seeds:
        # copies of the final margins, not the runs: this seed's traces are
        # freed before the next seed trains
        runs = train_runs([base, shifted], data, hp, seed)
        mb, ms = (run.final_margins.copy() for run in runs)
        del runs
        wins_base, wins_shift = mb > 0, ms > 0

        sb = np.sign(mb[slice_idx])
        ss = np.sign(ms[slice_idx])
        predicted_flip = pred_sign != sb
        observed = predicted_flip & (ss == pred_sign)
        n_predicted = int(np.sum(predicted_flip))
        n_observed = int(np.sum(observed))
        agreement = n_observed / n_predicted if n_predicted else 1.0

        slice_wins_base = wins_base[slice_idx]
        slice_wins_shift = wins_shift[slice_idx]
        observed_dir = np.sign(np.mean(slice_wins_shift) - np.mean(slice_wins_base))
        predicted_dir = np.sign(np.mean(pred_wins) - np.mean(slice_wins_base))
        n01 = int(np.sum(slice_wins_base & ~slice_wins_shift))
        n10 = int(np.sum(~slice_wins_base & slice_wins_shift))
        results.append(
            H2SeedResult(
                seed=seed,
                global_win_base=float(np.mean(wins_base)),
                global_win_shifted=float(np.mean(wins_shift)),
                slice_win_base=float(np.mean(slice_wins_base)),
                slice_win_shifted=float(np.mean(slice_wins_shift)),
                predicted_flips=n_predicted,
                observed_flips=n_observed,
                flip_agreement=agreement,
                discordant_slice_pairs=int(np.sum(sb != ss)),
                slice_mcnemar_p=mcnemar_exact(n01, n10),
                direction_consistent=bool(observed_dir == predicted_dir),
            )
        )
    return Report("H2", tuple(results))


# ---------------------------------------------------------------------------
# Reports


# Per hypothesis: the text report's title; the summary keys, each a JSON key,
# the reduction over a per-seed field and the text summary's item; and the
# table's columns (header, width, cell), where width 0 leaves a column unpadded
REPORTS: dict[str, tuple[str, tuple, tuple]] = {
    "H1": ("H1 equivalence report", (
        ("min_tau", min, "tau", lambda v: f"min tau {v:.4f}"),
        ("min_decision_match", min, "decision_match",
         lambda v: f"min decision match {v:.2%}"),
        ("all_traces_equal", all, "traces_equal",
         lambda v: f"traces {'all equal' if v else 'NOT all equal'}"),
    ), (
        ("seed", 4, lambda r: r.seed),
        ("tau", 8, lambda r: f"{r.tau:.4f}"),
        ("match", 7, lambda r: f"{r.decision_match:.2%}"),
        ("win_a", 7, lambda r: f"{r.win_rate_a:.2%}"),
        ("win_b", 7, lambda r: f"{r.win_rate_b:.2%}"),
        ("diff_ci", 18, lambda r: "[{:+.4f},{:+.4f}]".format(*r.win_diff_ci)),
        ("mcnemar", 9, lambda r: f"{r.mcnemar_p:.4f}"),
        ("traces", 0, lambda r: "equal" if r.traces_equal else "DIFFER"),
    )),
    "H2": ("H2 divergence report", (
        ("min_discordant_slice_pairs", min, "discordant_slice_pairs",
         lambda v: f"min discordant {v}"),
        ("max_slice_mcnemar_p", max, "slice_mcnemar_p",
         lambda v: f"max slice p {v:.3e}"),
        ("min_flip_agreement", min, "flip_agreement",
         lambda v: f"min flip agreement {v:.2%}"),
        ("direction_consistency", lambda v: float(np.mean(v)), "direction_consistent",
         lambda v: f"direction consistency {v:.2%}"),
    ), (
        ("seed", 4, lambda r: r.seed),
        ("glob_b", 7, lambda r: f"{r.global_win_base:.2%}"),
        ("glob_s", 7, lambda r: f"{r.global_win_shifted:.2%}"),
        ("slice_b", 8, lambda r: f"{r.slice_win_base:.2%}"),
        ("slice_s", 8, lambda r: f"{r.slice_win_shifted:.2%}"),
        ("flips", 9, lambda r: f"{r.observed_flips}/{r.predicted_flips}"),
        ("discord", 7, lambda r: r.discordant_slice_pairs),
        ("mcnemar_p", 11, lambda r: f"{r.slice_mcnemar_p:.3e}"),
        ("dir", 0, lambda r: "ok" if r.direction_consistent else "WRONG"),
    )),
}


@dataclass(frozen=True)
class Report:
    """One hypothesis's per-seed results, laid out by its row of REPORTS."""

    hypothesis: str
    results: tuple
    opal_hash: str | None = None

    def summary(self) -> dict[str, Any]:
        return {
            key: reduce([getattr(r, name) for r in self.results])
            for key, reduce, name, _ in REPORTS[self.hypothesis][1]
        }

    def to_json_dict(self) -> dict[str, Any]:
        head = {"hypothesis": self.hypothesis}
        if self.opal_hash is not None:
            head["opal_hash"] = self.opal_hash
        return {**head, **self.summary(), "per_seed": [asdict(r) for r in self.results]}

    def to_text(self) -> str:
        title, summary, columns = REPORTS[self.hypothesis]
        if self.opal_hash is not None:
            title += f" (opal_hash {self.opal_hash[:16]})"
        lines = [title, "  ".join(f"{head:>{width}}" for head, width, _ in columns)]
        for r in self.results:
            lines.append("  ".join(f"{cell(r):>{width}}" for _, width, cell in columns))
        values = self.summary()
        lines.append(", ".join(text(values[key]) for key, _, _, text in summary))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# `gkpo harness h1|h2`


# Per hypothesis: the data keys' defaults, the dataset's shift profile, the
# runner and the two method configs it compares
HYPOTHESES = {
    "h1": ({"size": 300, "feature_dim": 6, "data_seed": 0}, "none", run_h1, (
        ("DPO", {"beta": 1.0, "ref": 0.10}),
        ("PPO_RM", {"beta": 1.0, "ref": 0.05, "kl_coeff": 0.5, "anchor_offset": 0.1,
                    "fold_kl": True}),
    )),
    "h2": ({"size": 1000, "feature_dim": 8, "data_seed": 0}, "witness_slice", run_h2, (
        ("DPO", {"beta": 1.0, "ref": 0.0}),
        ("ORPO", {"beta": 1.0, "offset_mode": "per_prompt", "shift_evidence": {
            "raw_gap": FLIP_GAP, "offsets": [FLIP_OFFSET, -FLIP_OFFSET]}}),
    )),
}


def setup(which: str, config: Any) -> tuple[Callable, tuple, SyntheticDataset, HarnessParams]:
    """The runner, specs, dataset and params of HYPOTHESES[which] under config.

    config is a JSON object of data keys and HarnessParams fields. Any other
    key, a data key that is not an integer or is below gen_dataset's floor for
    it, a dataset or margin trace over MAX_HARNESS_CELLS, a descent over
    MAX_DESCENT_PAIR_STEPS, or a bad HarnessParams value is a ValueError or
    TypeError, raised before the dataset exists.
    """
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    data_keys, profile, run, configs = HYPOTHESES[which]
    unknown = config.keys() - data_keys.keys() - {f.name for f in fields(HarnessParams)}
    if unknown:
        raise ValueError(f"unknown keys: {sorted(unknown)}")
    # gen_dataset's floors, checked here so that a refusal names the config key
    values = {key: config.get(key, value) for key, value in data_keys.items()}
    for key, least in zip(values, (4 if profile == "witness_slice" else 2, 1, 0)):
        require_int(key, values[key])
        if values[key] < least:
            raise ValueError(f"{key} must be at least {least}, got {values[key]}")
    size, dim, data_seed = values.values()
    limits = (("size * feature_dim", size * dim), ("the margin trace, 2 * size,", 2 * size))
    for what, cells in limits:
        if cells > MAX_HARNESS_CELLS:
            raise ValueError(f"{what} is {cells}, over the limit of {MAX_HARNESS_CELLS} cells")
    hp = HarnessParams(**{k: v for k, v in config.items() if k not in data_keys})
    if hp.steps * size * len(hp.seeds) > MAX_DESCENT_PAIR_STEPS:
        raise ValueError(
            f"the descent, {hp.steps} steps x {size} pairs x {len(hp.seeds)} seeds, "
            f"is over the limit of {MAX_DESCENT_PAIR_STEPS} pair-steps"
        )
    specs = tuple(adapters.to_gkpo(adapters.MethodConfig(*c)) for c in configs)
    return run, specs, gen_dataset(size, dim, profile, seed=data_seed), hp
