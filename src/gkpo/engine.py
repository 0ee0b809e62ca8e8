"""Objective evaluation and decision statistics.

`objective` evaluates loss(link(beta * margin)) and `z_slope` its slope in
z = beta * margin, the one place that applies the chain rule. Both run
elementwise. `harness._descend`, the library's one gradient path, trains in
z and calls `z_slope` only on pairs whose z can move, not on stationary ones.
The logistic loss uses the overflow-safe form max(0, -z) + log1p(exp(-|z|)).
The logistic and tanh slopes keep full precision at large |z|. Where exp
overflows to inf, the result is its limit, within 1e-300 of the true value,
and no warning is raised. Decisions are strict margin signs; a zero margin is
a zero decision.

The decision statistics stay bounded at harness scale (n pairs):
`kendall_tau` is Knight's O(n log n) merge-sort tau-b. `mcnemar_exact` sums
the binomial tail down from C(n, k) in 128-bit fixed point, with a bound on
its rounding error, until the rest cannot change the rounded p-value; only
if that bound cannot certify the float does it sum the exact integers (one
math.comb, about sqrt(n) steps). `bootstrap_ci` draws each resample of a
few-valued sample, such as paired win differences, as counts of its distinct
values rather than as n indices.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .algebra import object_weight  # noqa: F401  bench/tracing.py patches it here

LINKS = ("identity", "logistic", "tanh", "hinge")
LOSSES = ("logistic", "bce", "hinge", "mse")
# hinge is only weakly increasing; it is evaluatable but excluded from
# strict-monotonicity (order-preservation) claims.
STRICT_LINKS = frozenset({"identity", "logistic", "tanh"})


def link_value(kind: str, x):
    if kind == "identity":
        return x
    if kind == "logistic":
        with np.errstate(over="ignore"):  # exp(-x) = inf gives the limit, 0
            return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))
    if kind == "tanh":
        return np.tanh(x)
    if kind == "hinge":
        return np.maximum(0.0, x)
    raise ValueError(f"link {kind!r} is not evaluatable")


def link_grad(kind: str, x):
    if kind == "identity":
        return np.ones_like(np.asarray(x, dtype=float))
    if kind == "logistic":  # s * (1 - s), without its cancellation once s rounds to 1
        e = np.exp(-np.abs(np.asarray(x, dtype=float)))
        return e / ((1.0 + e) * (1.0 + e))
    if kind == "tanh":  # 1 - tanh(x)**2, without its cancellation at large |x|
        e = np.exp(-2.0 * np.abs(np.asarray(x, dtype=float)))
        return 4.0 * e / ((1.0 + e) * (1.0 + e))
    if kind == "hinge":
        return np.where(np.asarray(x, dtype=float) > 0.0, 1.0, 0.0)
    raise ValueError(f"link {kind!r} is not evaluatable")


def loss_value(kind: str, z):
    z = np.asarray(z, dtype=float)
    if kind == "logistic":
        return np.maximum(0.0, -z) + np.log1p(np.exp(-np.abs(z)))
    if kind == "bce":
        if np.any(z <= 0.0) or np.any(z >= 1.0):
            raise ValueError("bce loss requires link output strictly inside (0, 1)")
        return -np.log(z)
    if kind == "hinge":
        return np.maximum(0.0, 1.0 - z)
    if kind == "mse":
        return (z - 1.0) ** 2
    raise ValueError(f"loss {kind!r} is not evaluatable")


def loss_grad(kind: str, z):
    z = np.asarray(z, dtype=float)
    if kind == "logistic":  # sigmoid(z) - 1 cancels to 0 from z = 37
        with np.errstate(over="ignore"):  # exp(z) = inf gives the limit, -0
            return -1.0 / (1.0 + np.exp(z))
    if kind == "bce":
        if np.any(z <= 0.0) or np.any(z >= 1.0):
            raise ValueError("bce loss requires link output strictly inside (0, 1)")
        return -1.0 / z
    if kind == "hinge":
        return np.where(z < 1.0, -1.0, 0.0)
    if kind == "mse":
        return 2.0 * (z - 1.0)
    raise ValueError(f"loss {kind!r} is not evaluatable")


def objective(loss: str, link: str, beta: float, m):
    """loss(link(beta * m)), elementwise; a scalar m gives a numpy float."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    return loss_value(loss, link_value(link, beta * m))


def z_slope(loss: str, link: str, z):
    """d loss(link(z)) / dz = loss'(link(z)) * link'(z), elementwise."""
    slope = loss_grad(loss, link_value(link, z))
    return slope if link == "identity" else slope * link_grad(link, z)


# ---------------------------------------------------------------------------
# Decision statistics


def _tied_pairs(*keys: np.ndarray) -> int:
    """Pairs equal in every key, for keys sorted so that such pairs are adjacent.

    A non-finite value ties with nothing: inf - inf is nan, not 0.
    """
    new_run = np.zeros(keys[0].size, dtype=bool)
    new_run[0] = True
    for key in keys:
        new_run[1:] |= (key[1:] != key[:-1]) | ~np.isfinite(key[1:])
    lengths = np.diff(np.flatnonzero(np.append(new_run, True)))
    return int(np.sum(lengths * (lengths - 1) // 2))


def _inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by bottom-up merging.

    Level w stably merges sorted blocks of width w in pairs. A right-block
    element at index j that lands at merged position p has p - j left
    elements at or below it, so w - (p - j) left elements above it.
    """
    size = 1 << (ranks.size - 1).bit_length()
    a = np.full(size, ranks.size, dtype=np.int64)  # padding sorts last
    a[: ranks.size] = ranks
    count = 0
    w = 1
    while w < size:
        rows = a.reshape(-1, 2 * w)
        perm = np.argsort(rows, axis=1, kind="stable")
        pos = np.empty_like(perm)
        np.put_along_axis(pos, perm, np.broadcast_to(np.arange(2 * w), perm.shape), 1)
        count += w * w * rows.shape[0] - int(np.sum(pos[:, w:] - np.arange(w)))
        a = np.take_along_axis(rows, perm, axis=1).ravel()
        w *= 2
    return count


def kendall_tau(a: Sequence[float], b: Sequence[float]) -> float:
    """Tie-corrected (tau-b) rank correlation over all pairs.

    Knight's merge-sort algorithm (Knight 1966, JASA 61:436): O(n log n) time
    and O(n) memory. Pair counts are exact integers, so identical inputs give
    exactly 1.0. A nan, or an infinity that occurs twice, leaves a pair
    without a sign, and the result is nan.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be equal-length 1-d sequences")
    n = len(x)
    if n < 2:
        raise ValueError("need at least two observations")
    order = np.lexsort((y, x))
    x, y = x[order], y[order]
    y_sorted = np.sort(y)
    n0 = n * (n - 1) // 2
    n1 = _tied_pairs(x)  # pairs tied in x
    n2 = _tied_pairs(y_sorted)  # pairs tied in y
    n3 = _tied_pairs(x, y)  # pairs tied in both
    denom = math.sqrt(float(n0 - n1) * float(n0 - n2))
    if denom == 0.0:
        raise ValueError("kendall tau undefined: one input is entirely tied")
    for v in (x, y):
        if np.isnan(v).any() or max(
            np.count_nonzero(v == np.inf), np.count_nonzero(v == -np.inf)
        ) > 1:
            return math.nan
    # sorted by (x, y), so the pairs discordant are the strict inversions of y
    discordant = _inversions(np.searchsorted(y_sorted, y))
    return float(n0 - n1 - n2 + n3 - 2 * discordant) / denom


def mcnemar_exact(n01: int, n10: int) -> float:
    """Exact two-sided binomial test on discordant counts; p = 1 when none.

    p = tail / 2**(n-1), tail the sum of C(n, i) for i <= k = min(n01, n10).
    `_mcnemar_tail` sums it on C(n, k) shifted to 128 bits, and again on the
    exact integers only if that pass cannot certify the rounded p. Cost: one
    math.comb and about sqrt(n) 128-bit steps at near-balanced counts. When
    2k + 1 >= n the tail holds half the mass or more, and p is 1.
    """
    if isinstance(n01, bool) or isinstance(n10, bool):
        raise TypeError("counts must be integers, not bools")
    n01, n10 = operator.index(n01), operator.index(n10)  # 1 << n overflows numpy ints
    if n01 < 0 or n10 < 0:
        raise ValueError("counts must be nonnegative")
    n = n01 + n10
    k = min(n01, n10)
    if 2 * k + 1 >= n:
        return 1.0
    top = math.comb(n, k)
    p = _mcnemar_tail(top, n, k, max(0, top.bit_length() - 128))
    return _mcnemar_tail(top, n, k, 0) if p is None else p  # below 1, as 2k + 1 < n


def _mcnemar_tail(top: int, n: int, k: int, shift: int) -> float | None:
    """The sum of C(n, i) for i <= k over 2**(n-1), top = C(n, k); None if undecided.

    Let tau_j = C(n, j) / 2**shift and a_j the term summed: a_k = top >> shift,
    a_{j-1} = a_j * j // (n - j + 1). Then tau_j - e_j < a_j <= tau_j, where
    e_k = 1 and e_{j-1} = e_j * j / (n - j + 1) + 1 <= e_j + 1, as j <= k and
    2k + 1 < n. `err` is e_j and `total` the sum of the e_j so far, so the
    scaled tail lies in [tail, tail + total); with shift = 0 both are 0.
    Once a term is 64 bits shorter than the tail, the terms left, shrinking
    by at least (j-1)/(n-j+2) each, sum to less than rest, taken on
    term + err. If tail and tail + total + rest, over 2**(n-1-shift), round
    to the same float, that float is the result: int / int rounds correctly
    and monotonically, so every value between them rounds to it. Else the
    sum runs on to C(n, 0) and is tested again without rest, which only a
    shifted pass can fail.
    """
    half = 1 << (n - 1 - shift)  # shift <= C(n, k).bit_length() < n, as 2k + 1 < n
    term = tail = top >> shift
    err = total = step = 1 if shift else 0
    tested = False
    for j in range(k, 0, -1):
        term = term * j // (n - j + 1)  # C(n, j - 1) / 2**shift, floored
        tail += term
        err += step
        total += err
        if not tested and tail.bit_length() - term.bit_length() >= 64:
            tested = True
            rest = (term + err) * (j - 1) // (n - 2 * j + 3) + 1
            if tail / half == (tail + total + rest) / half:
                return tail / half
    p = tail / half
    return p if p == (tail + total) / half else None


# index elements, or value counts, drawn per block of bootstrap resamples
_BOOTSTRAP_BLOCK = 1 << 18


def bootstrap_ci(
    values: Sequence[float], resamples: int = 1000, seed: int = 0
) -> tuple[float, float]:
    """Seeded percentile bootstrap (2.5%, 97.5%) for the mean of values.

    A resample's mean depends only on how many of its n draws land on each
    distinct value, so when the sample takes k values with k * 32 <= n and
    n * max|value| within float range, each resample is drawn as value counts
    ~ Multinomial(n, counts / n):
    O(n log n + resamples * k) in all, against O(resamples * n) for drawing
    indices. Any other sample draws indices; if n * max|value| leaves float
    range while max|value| does not, the values are averaged scaled by a
    power of two no larger than 1/n, so no mean overflows where the sample's
    values do not. Either way resamples are drawn and averaged in row blocks
    of about 2**18 entries, so memory stays bounded; the generator yields the
    same stream drawn whole or in blocks, so the interval does not depend on
    the block size.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("values must be a 1-d sequence")
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if resamples < 100:
        raise ValueError("resamples must be at least 100")
    rng = np.random.default_rng(seed)
    n = arr.size
    levels, counts = np.unique(arr, return_counts=True)
    # ms for 1000 resamples on a 2-core Xeon, numpy 2.4.6:
    #         n   indices   counts, k = n/32   counts, k = n/16
    #     1 024        19                6.4                 15
    #     4 000        83                 21                 54
    #     8 000        72                 42                111
    #    50 000       395                253                681
    #   200 000      2325               1044               2595
    # k * 32 <= n kept counts at least 1.5x faster at every size measured.
    # counts @ levels sums terms of total size at most n * max|level|, so
    # counts are drawn only when that is within float range: a nan or
    # infinite level (a zero count times inf is nan), or one so large that
    # the sum would overflow where a mean of n values does not, stays on the
    # index path.
    if levels.size * 32 <= n and np.abs(levels).max() <= np.finfo(float).max / n:
        width, p = levels.size, counts / n

        def block_means(rows: int) -> np.ndarray:
            return rng.multinomial(n, p, size=rows) @ levels / n

    else:
        width = n
        # n finite values can sum beyond float range although their mean is
        # within it. Only then are the values scaled by 2**-k <= 1/n, averaged
        # and the means scaled back: exact where nothing underflows, so a
        # resample whose sum stays in range keeps its bits.
        k = n.bit_length() if np.finfo(float).max / n < np.abs(arr).max() < np.inf else 0
        scaled = np.ldexp(arr, -k) if k else arr

        def block_means(rows: int) -> np.ndarray:
            return np.ldexp(scaled[rng.integers(0, n, size=(rows, n))].mean(axis=1), k)

    rows = max(1, _BOOTSTRAP_BLOCK // width)
    means = np.empty(resamples)
    for start in range(0, resamples, rows):
        stop = min(resamples, start + rows)
        means[start:stop] = block_means(stop - start)
    lo, hi = np.percentile(means, [2.5, 97.5])
    return float(lo), float(hi)


def bootstrap_diff_ci(
    values_a: Sequence[float],
    values_b: Sequence[float],
    resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile CI for mean(values_a) - mean(values_b) over paired resamples.

    Both inputs are 1-d sequences of equal length.
    """
    a = np.asarray(values_a, dtype=float)
    b = np.asarray(values_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired inputs must have equal length")
    return bootstrap_ci(a - b, resamples=resamples, seed=seed)
