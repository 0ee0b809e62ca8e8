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

Datasets serialize to line-delimited JSON: a header line
{"format": "gkpo-pairs-1", "seed": ...} followed by one pair per line with
keys, in order: prompt_id, delta_u, features_pos, features_neg, label, slice,
delta_phi, omega, delta_ref.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

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
    link_grad,
    link_value,
    loss_grad,
    loss_value,
    mcnemar_exact,
)
from .schema import GkpoObject, parse

SLICE_KEY = "target_slice"
BACKGROUND_KEY = "background"
SHIFT_PROFILES = ("none", "two_prompt_flip", "witness_slice")

# the two-prompt flip pattern: raw gap d with per-prompt offsets +/- 0.50
FLIP_GAP = 0.20
FLIP_OFFSET = 0.50


@dataclass(frozen=True)
class DatasetPair:
    sample: PairSample
    features_pos: np.ndarray
    features_neg: np.ndarray
    label: int  # +1: pos side preferred, -1: neg side preferred

    def __post_init__(self):
        object.__setattr__(
            self, "features_pos", np.asarray(self.features_pos, dtype=float)
        )
        object.__setattr__(
            self, "features_neg", np.asarray(self.features_neg, dtype=float)
        )
        if self.label not in (-1, 1):
            raise ValueError("label must be +1 or -1")


@dataclass(frozen=True)
class SyntheticDataset:
    pairs: tuple[DatasetPair, ...]
    slices: dict[str, tuple[int, ...]]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "pairs", tuple(self.pairs))
        object.__setattr__(
            self, "slices", {k: tuple(v) for k, v in self.slices.items()}
        )

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def labels(self) -> np.ndarray:
        return np.array([p.label for p in self.pairs], dtype=float)

    @property
    def delta_feature_matrix(self) -> np.ndarray:
        return np.stack([p.features_pos - p.features_neg for p in self.pairs])


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
        if self.steps < 1 or self.learning_rate <= 0 or self.eval_every < 1:
            raise ValueError("steps, learning_rate, eval_every must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        # bootstrap_ci's floor, checked here so a bad config fails before training
        if self.bootstrap_resamples < 100:
            raise ValueError("bootstrap_resamples must be at least 100")


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
    pairs: list[DatasetPair] = []
    for i in range(n_global):
        fp = rng.standard_normal(feature_dim)
        fn = rng.standard_normal(feature_dim)
        du = 0.5 * rng.standard_normal()
        # orient each pair so the side a hidden scorer prefers sits on pos;
        # the trainer's loss presumes that layout, as collected data would
        if du + float(theta_star @ (fp - fn)) < 0:
            fp, fn, du = fn, fp, -du
        pairs.append(
            DatasetPair(
                sample=PairSample(
                    prompt_id=f"p{i}",
                    delta_u=du,
                    delta_ref={PROMPT_OFFSET_KEY: 0.0},
                ),
                features_pos=fp,
                features_neg=fn,
                label=1,
            )
        )
    zeros = np.zeros(feature_dim)
    for k in range(instances):
        for tag, offset in (("a", FLIP_OFFSET), ("b", -FLIP_OFFSET)):
            pairs.append(
                DatasetPair(
                    sample=PairSample(
                        prompt_id=f"w{k}{tag}",
                        delta_u=FLIP_GAP,
                        delta_ref={PROMPT_OFFSET_KEY: offset},
                    ),
                    features_pos=zeros,
                    features_neg=zeros,
                    label=1,
                )
            )
    slices = {
        SLICE_KEY: tuple(range(n_global, size)),
        BACKGROUND_KEY: tuple(range(n_global)),
    }
    return SyntheticDataset(pairs=tuple(pairs), slices=slices, seed=seed)


def save_jsonl(data: SyntheticDataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": "gkpo-pairs-1", "seed": data.seed}) + "\n")
        slice_of = {}
        for name, idx in data.slices.items():
            for i in idx:
                slice_of[i] = name
        for i, pair in enumerate(data.pairs):
            s = pair.sample
            row = {
                "prompt_id": s.prompt_id,
                "delta_u": s.delta_u,
                "features_pos": list(pair.features_pos),
                "features_neg": list(pair.features_neg),
                "label": pair.label,
                "slice": slice_of.get(i, BACKGROUND_KEY),
                "delta_phi": s.delta_phi,
                "omega": s.omega,
                "delta_ref": s.delta_ref,
            }
            fh.write(json.dumps(row) + "\n")


def load_jsonl(path: str) -> SyntheticDataset:
    """Read a gkpo-pairs-1 file; a malformed line raises ValueError at path:line."""
    pairs = []
    slices: dict[str, list[int]] = {}
    with open(path, encoding="utf-8") as fh:
        try:
            header = json.loads(fh.readline())
            if not isinstance(header, dict) or header.get("format") != "gkpo-pairs-1":
                raise ValueError("not a gkpo-pairs-1 file")
            seed = header["seed"]
        except (ValueError, KeyError) as exc:
            raise ValueError(f"{path}:1: bad header: {exc}") from exc
        for lineno, line in enumerate(fh, start=2):
            try:
                row = json.loads(line)
                pair = DatasetPair(
                    sample=sample_from_row(row),
                    features_pos=row["features_pos"],
                    features_neg=row["features_neg"],
                    label=row["label"],
                )
                slices.setdefault(row["slice"], []).append(len(pairs))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: bad pair row: {exc}") from exc
            pairs.append(pair)
    return SyntheticDataset(
        pairs=tuple(pairs),
        slices={k: tuple(v) for k, v in slices.items()},
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Training


def _canonical_spec(obj: GkpoObject) -> GkpoObject:
    # hash-equal specs must execute identical arithmetic: train on the parse
    # of the canonical bytes, not on the object as handed in
    return parse(canonicalize(obj).decode("utf-8"))


def train_run(
    spec: GkpoObject, data: SyntheticDataset, hp: HarnessParams, seed: int
) -> TrainRun:
    obj = _canonical_spec(spec)
    n = len(data.pairs)
    if n == 0:
        raise ValueError("dataset is empty")
    base, w = object_margins_and_weights(obj, [p.sample for p in data.pairs])
    base_margins = np.array(base, dtype=float)
    weights = np.array(w, dtype=float)
    dmat = data.delta_feature_matrix
    dim = dmat.shape[1]

    rng = np.random.default_rng(seed)
    theta = hp.init_scale * rng.standard_normal(dim)

    trace_steps: list[int] = []
    margin_rows: list[np.ndarray] = []
    loss_rows: list[float] = []

    def margins(t: np.ndarray) -> np.ndarray:
        return base_margins + (dmat @ t) * weights

    for step in range(hp.steps):
        m = margins(theta)
        z = obj.beta * m
        g = link_value(obj.link, z)
        if step % hp.eval_every == 0:
            trace_steps.append(step)
            margin_rows.append(m)
            loss_rows.append(float(np.mean(loss_value(obj.loss, g))))
        coeff = loss_grad(obj.loss, g) * link_grad(obj.link, z) * obj.beta * weights
        theta = theta - hp.learning_rate * (dmat.T @ coeff) / n

    m = margins(theta)
    z = obj.beta * m
    trace_steps.append(hp.steps)
    margin_rows.append(m)
    loss_rows.append(float(np.mean(loss_value(obj.loss, link_value(obj.link, z)))))

    return TrainRun(
        spec=obj,
        seed=seed,
        steps=hp.steps,
        learning_rate=hp.learning_rate,
        theta=theta,
        trace_steps=tuple(trace_steps),
        margin_trace=np.stack(margin_rows),
        loss_trace=np.array(loss_rows),
    )


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
            "per_seed": [
                {
                    "seed": r.seed,
                    "tau": r.tau,
                    "decision_match": r.decision_match,
                    "win_rate_a": r.win_rate_a,
                    "win_rate_b": r.win_rate_b,
                    "win_diff_ci": list(r.win_diff_ci),
                    "mcnemar_p": r.mcnemar_p,
                    "traces_equal": r.traces_equal,
                }
                for r in self.results
            ],
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
            "per_seed": [
                {
                    "seed": r.seed,
                    "global_win_base": r.global_win_base,
                    "global_win_shifted": r.global_win_shifted,
                    "slice_win_base": r.slice_win_base,
                    "slice_win_shifted": r.slice_win_shifted,
                    "predicted_flips": r.predicted_flips,
                    "observed_flips": r.observed_flips,
                    "flip_agreement": r.flip_agreement,
                    "discordant_slice_pairs": r.discordant_slice_pairs,
                    "slice_mcnemar_p": r.slice_mcnemar_p,
                    "direction_consistent": r.direction_consistent,
                }
                for r in self.results
            ],
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


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


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
    pred_sign = np.array(
        [
            _sign(
                data.pairs[i].sample.delta_u
                - data.pairs[i].sample.delta_ref[PROMPT_OFFSET_KEY]
            )
            for i in slice_idx
        ]
    )
    results = []
    for seed in hp.seeds:
        run_base = train_run(base, data, hp, seed)
        run_shift = train_run(shifted, data, hp, seed)
        mb, ms = run_base.final_margins, run_shift.final_margins
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
        observed_dir = _sign(
            float(np.mean(slice_wins_shift)) - float(np.mean(slice_wins_base))
        )
        predicted_dir = _sign(
            float(np.mean(pred_wins)) - float(np.mean(slice_wins_base))
        )
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
                direction_consistent=observed_dir == predicted_dir,
            )
        )
    return H2Report(results=tuple(results))
