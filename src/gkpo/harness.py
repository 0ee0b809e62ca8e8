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
  of the spec, not of the optimizer.

Training runs in z = beta * margin and leaves stationary pairs (an all-zero
row of weight * feature difference) out of the descent. `train_runs` trains
several specs on one dataset and seed, and specs whose moving problems are
byte-equal (loss, link, beta, moving pairs, beta * weights and z0) share one
descent; each run is bit for bit what `train_run` gives for its spec alone.
H2's shifted spec differs from its base only on the stationary witness pairs,
so run_h2 descends once per seed. run_h1 trains its two specs separately, so
that its trace equality is checked on two runs, not assumed.

Datasets are columnar: a SyntheticDataset holds one PairBatch (prompt ids,
delta_u and name -> column maps) plus (n, d) feature blocks and labels, and
the spec's margins are evaluated once per column, not once per pair.

Datasets serialize to line-delimited JSON: a header line
{"format": "gkpo-pairs-1", "seed": ...} followed by one pair per line with
keys, in order: prompt_id, delta_u, features_pos, features_neg, label, slice,
delta_phi, omega, delta_ref.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from .algebra import (
    PROMPT_OFFSET_KEY,
    PairSample,
    object_margin,  # noqa: F401  bench/tracing.py resolves it here by name
    object_margins_and_weights,
    object_weight,  # noqa: F401  likewise
    sample_from_row,
)
from .canonical import canonicalize, opal_hash
from .engine import (
    bootstrap_diff_ci,
    kendall_tau,
    mcnemar_exact,
    objective,
    z_slope,
)
from .schema import GkpoObject, is_finite_number, parse

SLICE_KEY = "target_slice"
BACKGROUND_KEY = "background"
SHIFT_PROFILES = ("none", "two_prompt_flip", "witness_slice")

# the two-prompt flip pattern: raw gap d with per-prompt offsets +/- 0.50
FLIP_GAP = 0.20
FLIP_OFFSET = 0.50


class Columns(dict):
    """name -> float64 column for the names every row of a batch carries.

    `partial` maps each name that only some rows carry to (present mask,
    values with 0.0 where absent). Indexing such a name raises KeyError, as a
    PairSample lacking it would; `get` fills the absent rows with the default.
    """

    def __init__(self, full=(), partial=()):
        super().__init__(full)
        self.partial = dict(partial)

    def get(self, name, default=None):
        if name in self.partial:
            present, values = self.partial[name]
            return np.where(present, values, default)
        return super().get(name, default)

    def rows(self, n: int) -> list[dict[str, float]]:
        """The per-row name -> value maps, full names first."""
        rows: list[dict[str, float]] = [{} for _ in range(n)]
        for name, col in self.items():
            for row, value in zip(rows, col.tolist()):
                row[name] = value
        for name, (present, values) in self.partial.items():
            for row, has, value in zip(rows, present.tolist(), values.tolist()):
                if has:
                    row[name] = value
        return rows


_TABLES = ("delta_phi", "omega", "delta_ref")


@dataclass(frozen=True, eq=False)
class PairBatch:
    """PairSample's attributes as columns, one entry per pair.

    algebra's evaluators run on it unchanged: delta_u is an array and each
    name -> value map is a Columns of arrays.
    """

    prompt_ids: tuple[str, ...]
    delta_u: np.ndarray
    delta_phi: Columns
    omega: Columns
    delta_ref: Columns

    def __len__(self) -> int:
        return len(self.delta_u)

    def lacking(self, table: Columns, name: str) -> str:
        """Prompt id of the first row whose table lacks name."""
        entry = table.partial.get(name)
        return self.prompt_ids[0 if entry is None else int(np.argmin(entry[0]))]

    @classmethod
    def from_samples(cls, samples: Sequence[PairSample]) -> PairBatch:
        tables = {}
        for attr in _TABLES:
            maps = [getattr(s, attr) for s in samples]
            full, partial = {}, {}
            for name in dict.fromkeys(name for m in maps for name in m):
                present = np.array([name in m for m in maps])
                values = np.array([m.get(name, 0.0) for m in maps], dtype=float)
                if present.all():
                    full[name] = values
                else:
                    partial[name] = (present, values)
            tables[attr] = Columns(full, partial)
        return cls(
            prompt_ids=tuple(s.prompt_id for s in samples),
            delta_u=np.array([s.delta_u for s in samples], dtype=float),
            **tables,
        )


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Pairs held as columns: a PairBatch, (n, d) feature blocks for the pos
    and neg sides, and labels[n] as floats (+1: pos side preferred, -1: neg).
    """

    batch: PairBatch
    features_pos: np.ndarray
    features_neg: np.ndarray
    labels: np.ndarray
    slices: dict[str, tuple[int, ...]]
    seed: int

    def __post_init__(self):
        object.__setattr__(
            self, "slices", {k: tuple(v) for k, v in self.slices.items()}
        )

    def __len__(self) -> int:
        return len(self.batch)

    @cached_property
    def delta_feature_matrix(self) -> np.ndarray:
        return self.features_pos - self.features_neg


def require_int(name: str, value: Any) -> None:
    """TypeError unless value is an integer; a bool is not one here."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


# 1000 times the default; bootstrap_ci holds one float per resample
MAX_BOOTSTRAP_RESAMPLES = 1_000_000


@dataclass(frozen=True)
class HarnessParams:
    steps: int = 150
    learning_rate: float = 0.5
    seeds: tuple[int, ...] = tuple(range(10))
    eval_every: int = 10
    init_scale: float = 0.1
    bootstrap_resamples: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "seeds", tuple(self.seeds))
        for name in ("steps", "eval_every", "bootstrap_resamples"):
            require_int(name, getattr(self, name))
        for seed in self.seeds:
            require_int("seeds", seed)
            if seed < 0:  # np.random.default_rng takes no negative seed
                raise ValueError(f"seeds must be non-negative, got {seed}")
        for name in ("learning_rate", "init_scale"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise TypeError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.steps < 1 or self.learning_rate <= 0 or self.eval_every < 1:
            raise ValueError("steps, learning_rate, eval_every must be positive")
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
    steps: int
    learning_rate: float
    theta: np.ndarray
    trace_steps: tuple[int, ...]
    margin_trace: np.ndarray  # (len(trace_steps), n_pairs)
    loss_trace: np.ndarray

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
    pairs carry zero features; everything else gets standard-normal features,
    a hidden scoring direction, and labels from the resulting true margin.
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
    n_slice = 2 * instances
    n_global = size - n_slice

    rng = np.random.default_rng(seed)
    theta_star = rng.standard_normal(feature_dim)
    # row i is what per-pair draws of fp(d), fn(d), du would give
    draws = rng.standard_normal((n_global, 2 * feature_dim + 1))
    fp, fn = draws[:, :feature_dim], draws[:, feature_dim:-1]
    du = 0.5 * draws[:, -1]
    # orient each pair so the side a hidden scorer prefers sits on pos;
    # the trainer's loss presumes that layout, as collected data would
    delta = fp - fn
    score = du + delta @ theta_star
    # the matrix product rounds differently from a per-row dot product; where
    # that could move the sign, decide with the per-row product
    bound = 2 * (feature_dim + 1) * np.finfo(float).eps
    bound *= np.abs(du) + np.abs(delta) @ np.abs(theta_star)
    for i in np.flatnonzero(np.abs(score) <= bound):
        score[i] = du[i] + float(theta_star @ (fp[i] - fn[i]))
    flip = score < 0
    flip_rows = flip[:, None]

    zeros = np.zeros((n_slice, feature_dim))
    offsets = np.tile([FLIP_OFFSET, -FLIP_OFFSET], instances)
    batch = PairBatch(
        prompt_ids=tuple(f"p{i}" for i in range(n_global))
        + tuple(f"w{k}{tag}" for k in range(instances) for tag in "ab"),
        delta_u=np.concatenate([np.where(flip, -du, du), np.full(n_slice, FLIP_GAP)]),
        delta_phi=Columns(),
        omega=Columns(),
        delta_ref=Columns(
            {PROMPT_OFFSET_KEY: np.concatenate([np.zeros(n_global), offsets])}
        ),
    )
    slices = {
        SLICE_KEY: tuple(range(n_global, size)),
        BACKGROUND_KEY: tuple(range(n_global)),
    }
    return SyntheticDataset(
        batch=batch,
        features_pos=np.concatenate([np.where(flip_rows, fn, fp), zeros]),
        features_neg=np.concatenate([np.where(flip_rows, fp, fn), zeros]),
        labels=np.ones(size),
        slices=slices,
        seed=seed,
    )


_ROW_KEYS = (
    "prompt_id", "delta_u", "features_pos", "features_neg", "label", "slice", *_TABLES
)


def save_jsonl(data: SyntheticDataset, path: str) -> None:
    n = len(data)
    slice_of = [BACKGROUND_KEY] * n
    for name, idx in data.slices.items():
        for i in idx:
            slice_of[i] = name
    batch = data.batch
    rows = zip(
        batch.prompt_ids,
        batch.delta_u.tolist(),
        data.features_pos.tolist(),
        data.features_neg.tolist(),
        data.labels.astype(int).tolist(),
        slice_of,
        *(getattr(batch, attr).rows(n) for attr in _TABLES),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "gkpo-pairs-1", "seed": data.seed}) + "\n")
        for values in rows:
            fh.write(json.dumps(dict(zip(_ROW_KEYS, values))) + "\n")


def load_jsonl(path: str) -> SyntheticDataset:
    """Read a gkpo-pairs-1 file; a malformed line raises ValueError at path:line."""
    samples: list[PairSample] = []
    features_pos: list[np.ndarray] = []
    features_neg: list[np.ndarray] = []
    labels: list[int] = []
    slices: dict[str, list[int]] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("format") != "gkpo-pairs-1":
                raise ValueError("not a gkpo-pairs-1 file")
            seed = header["seed"]
        except (ValueError, KeyError, RecursionError) as exc:
            raise ValueError(f"{path}:1: bad header: {exc}") from exc
        for lineno, line in enumerate(fh, start=2):
            try:
                row = json.loads(line)
                sample = sample_from_row(row)
                fp = np.asarray(row["features_pos"], dtype=float)
                fn = np.asarray(row["features_neg"], dtype=float)
                if isinstance(row["label"], bool) or row["label"] not in (-1, 1):
                    raise ValueError("label must be +1 or -1")
                shape = (features_pos[0] if features_pos else fp).shape
                if not fp.shape == fn.shape == shape:
                    raise ValueError(f"features must have shape {shape}")
                # the raw items must be numbers: numpy reads "1.5" and true as floats
                if len(shape) != 1 or not all(
                    map(is_finite_number, row["features_pos"] + row["features_neg"])
                ):
                    raise ValueError("features must be lists of finite numbers")
                slices.setdefault(row["slice"], []).append(len(samples))
            # OverflowError: an integer feature beyond float range;
            # RecursionError: JSON nested too deeply
            except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad pair row: {exc}") from exc
            samples.append(sample)
            features_pos.append(fp)
            features_neg.append(fn)
            labels.append(row["label"])
    n = len(samples)
    dim = len(features_pos[0]) if n else 0
    return SyntheticDataset(
        batch=PairBatch.from_samples(samples),
        features_pos=np.array(features_pos).reshape(n, dim),
        features_neg=np.array(features_neg).reshape(n, dim),
        labels=np.array(labels, dtype=float),
        slices=slices,
        seed=seed,
    )


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
    # z = beta * margin = z0 + zmat @ theta. A pair whose zmat row is all zero
    # (no feature difference, or a zero weight) is stationary: it keeps its
    # base margin and is left out of both products (faster column-major). Its
    # loss is taken once, here, so a stationary pair outside its domain raises
    # before the first step.
    beta_weights = np.asarray(obj.beta * weights, dtype=float)
    zmat = data.delta_feature_matrix * beta_weights[..., None]
    is_moving = zmat.any(axis=1)
    moving = np.flatnonzero(is_moving)
    still_loss = np.sum(objective(obj.loss, obj.link, obj.beta, base_margins[~is_moving]))
    z0 = obj.beta * base_margins[moving]
    # bytes, not values: -0.0 and 0.0, or two NaNs, never share
    key = (obj.loss, obj.link, obj.beta)
    key += (moving.tobytes(), beta_weights.tobytes(), z0.tobytes())
    trace_steps = (*range(0, hp.steps, hp.eval_every), hp.steps)
    if key in descents:
        del zmat  # solved already; freed before the trace copy
        first, moving_loss = descents[key]
        theta = first.theta.copy()
        margin_trace = first.margin_trace.copy()
        np.copyto(margin_trace, base_margins, where=~is_moving)
    else:
        zmat = np.asfortranarray(zmat[moving])
        theta, margin_trace, moving_loss = _descend(
            obj, zmat, z0, moving, base_margins, trace_steps, hp, seed
        )
    run = TrainRun(
        spec=obj,
        seed=seed,
        steps=hp.steps,
        learning_rate=hp.learning_rate,
        theta=theta,
        trace_steps=trace_steps,
        margin_trace=margin_trace,
        loss_trace=(still_loss + moving_loss) / n,
    )
    descents.setdefault(key, (run, moving_loss))
    return run


def _descend(obj, zmat, z0, moving, base_margins, trace_steps, hp, seed):
    """Full-batch gradient descent on the moving pairs, in z.

    Returns the final theta, the margin trace (base margins, with the moving
    pairs' margins at each traced step) and the moving pairs' loss sum at
    each traced step.
    """
    n = base_margins.size
    theta = hp.init_scale * np.random.default_rng(seed).standard_normal(zmat.shape[1])
    margin_trace = np.tile(base_margins, (len(trace_steps), 1))
    moving_loss = np.empty(len(trace_steps))
    row = 0
    for step in range(hp.steps + 1):
        zm = z0 + zmat @ theta
        if step in trace_steps:
            m = zm / obj.beta
            margin_trace[row, moving] = m
            moving_loss[row] = np.sum(objective(obj.loss, obj.link, obj.beta, m))
            row += 1
        if step < hp.steps:
            slope = z_slope(obj.loss, obj.link, zm)
            theta = theta - hp.learning_rate * (zmat.T @ slope) / n
    return theta, margin_trace, moving_loss


def _wins(margins: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # zero margin is an abstention and counts as a loss
    return (labels * margins) > 0


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


@dataclass(frozen=True)
class H1Report:
    opal_hash: str
    results: tuple[H1SeedResult, ...]

    @property
    def min_tau(self) -> float:
        return min(r.tau for r in self.results)

    @property
    def min_decision_match(self) -> float:
        return min(r.decision_match for r in self.results)

    @property
    def all_traces_equal(self) -> bool:
        return all(r.traces_equal for r in self.results)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "hypothesis": "H1",
            "opal_hash": self.opal_hash,
            "min_tau": self.min_tau,
            "min_decision_match": self.min_decision_match,
            "all_traces_equal": self.all_traces_equal,
            "per_seed": [asdict(r) for r in self.results],
        }

    def to_text(self) -> str:
        lines = [
            f"H1 equivalence report (opal_hash {self.opal_hash[:16]})",
            f"{'seed':>4}  {'tau':>8}  {'match':>7}  {'win_a':>7}  "
            f"{'win_b':>7}  {'diff_ci':>18}  {'mcnemar':>9}  traces",
        ]
        for r in self.results:
            ci = f"[{r.win_diff_ci[0]:+.4f},{r.win_diff_ci[1]:+.4f}]"
            lines.append(
                f"{r.seed:>4}  {r.tau:>8.4f}  {r.decision_match:>7.2%}  "
                f"{r.win_rate_a:>7.2%}  {r.win_rate_b:>7.2%}  {ci:>18}  "
                f"{r.mcnemar_p:>9.4f}  {'equal' if r.traces_equal else 'DIFFER'}"
            )
        lines.append(
            f"min tau {self.min_tau:.4f}, min decision match "
            f"{self.min_decision_match:.2%}, traces "
            f"{'all equal' if self.all_traces_equal else 'NOT all equal'}"
        )
        return "\n".join(lines)


def run_h1(
    spec_a: GkpoObject,
    spec_b: GkpoObject,
    data: SyntheticDataset,
    hp: HarnessParams | None = None,
) -> H1Report:
    hp = hp or HarnessParams()
    hash_a = opal_hash(spec_a)
    hash_b = opal_hash(spec_b)
    if hash_a != hash_b:
        raise ValueError(
            f"H1 precondition failed: opal_hash mismatch ({hash_a} vs {hash_b})"
        )
    labels = data.labels
    results = []
    for seed in hp.seeds:
        run_a = train_run(spec_a, data, hp, seed)
        run_b = train_run(spec_b, data, hp, seed)
        ma, mb = run_a.final_margins, run_b.final_margins
        wins_a = _wins(ma, labels)
        wins_b = _wins(mb, labels)
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
    return H1Report(opal_hash=hash_a, results=tuple(results))


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


@dataclass(frozen=True)
class H2Report:
    results: tuple[H2SeedResult, ...]

    @property
    def min_discordant(self) -> int:
        return min(r.discordant_slice_pairs for r in self.results)

    @property
    def max_slice_p(self) -> float:
        return max(r.slice_mcnemar_p for r in self.results)

    @property
    def min_flip_agreement(self) -> float:
        return min(r.flip_agreement for r in self.results)

    @property
    def direction_consistency(self) -> float:
        return float(np.mean([r.direction_consistent for r in self.results]))

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "hypothesis": "H2",
            "min_discordant_slice_pairs": self.min_discordant,
            "max_slice_mcnemar_p": self.max_slice_p,
            "min_flip_agreement": self.min_flip_agreement,
            "direction_consistency": self.direction_consistency,
            "per_seed": [asdict(r) for r in self.results],
        }

    def to_text(self) -> str:
        lines = [
            "H2 divergence report",
            f"{'seed':>4}  {'glob_b':>7}  {'glob_s':>7}  {'slice_b':>8}  "
            f"{'slice_s':>8}  {'flips':>9}  {'discord':>7}  {'mcnemar_p':>11}  dir",
        ]
        for r in self.results:
            flips = f"{r.observed_flips}/{r.predicted_flips}"
            lines.append(
                f"{r.seed:>4}  {r.global_win_base:>7.2%}  "
                f"{r.global_win_shifted:>7.2%}  {r.slice_win_base:>8.2%}  "
                f"{r.slice_win_shifted:>8.2%}  {flips:>9}  "
                f"{r.discordant_slice_pairs:>7}  {r.slice_mcnemar_p:>11.3e}  "
                f"{'ok' if r.direction_consistent else 'WRONG'}"
            )
        lines.append(
            f"min discordant {self.min_discordant}, max slice p "
            f"{self.max_slice_p:.3e}, min flip agreement "
            f"{self.min_flip_agreement:.2%}, direction consistency "
            f"{self.direction_consistency:.2%}"
        )
        return "\n".join(lines)


def run_h2(
    base: GkpoObject,
    shifted: GkpoObject,
    data: SyntheticDataset,
    hp: HarnessParams | None = None,
) -> H2Report:
    hp = hp or HarnessParams()
    if "reference_shift" not in shifted.reducibility.reasons:
        raise ValueError("H2 precondition failed: shifted spec lacks reference_shift")
    if not shifted.reducibility.witness:
        raise ValueError("H2 precondition failed: shifted spec carries no witness")
    if not base.reducibility.inside_R:
        raise ValueError("H2 precondition failed: base spec is not inside R")
    slice_idx = np.array(data.slices.get(SLICE_KEY, ()), dtype=int)
    if slice_idx.size == 0:
        raise ValueError(f"H2 needs a nonempty {SLICE_KEY!r} slice")

    labels = data.labels
    # witness prediction per slice pair: shifted margin sign is the sign of
    # the frozen gap minus that prompt's offset
    batch = data.batch
    pred_sign = np.sign(
        batch.delta_u[slice_idx] - batch.delta_ref[PROMPT_OFFSET_KEY][slice_idx]
    )
    results = []
    for seed in hp.seeds:
        # copies of the final margins, not the runs: this seed's traces are
        # freed before the next seed trains
        runs = train_runs([base, shifted], data, hp, seed)
        mb, ms = (run.final_margins.copy() for run in runs)
        del runs
        wins_base = _wins(mb, labels)
        wins_shift = _wins(ms, labels)

        sb = np.sign(mb[slice_idx])
        ss = np.sign(ms[slice_idx])
        predicted_flip = pred_sign != sb
        observed = predicted_flip & (ss == pred_sign)
        n_predicted = int(np.sum(predicted_flip))
        n_observed = int(np.sum(observed))
        agreement = n_observed / n_predicted if n_predicted else 1.0

        slice_wins_base = wins_base[slice_idx]
        slice_wins_shift = wins_shift[slice_idx]
        pred_wins = (labels[slice_idx] * pred_sign) > 0
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
    return H2Report(results=tuple(results))
