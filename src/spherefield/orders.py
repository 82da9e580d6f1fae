"""The random linear order induced by sorting the Gaussian field values.

Because the covariance is strictly positive definite, ties have
probability zero and every ordering of k points corresponds to the
difference vector of consecutive sorted values landing in the positive
orthant of a non-degenerate Gaussian, so every ordering has positive
probability. Orderings are keyed by strings such as "132": positions
(1-based) into the queried index tuple, listed from smallest value to
largest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .gaussian import Estimate, GaussianModel, sample
from .metric import space_hash
from .orthant import orthant_2d, orthant_3d_arcsine

MAX_POINTS = 8


@dataclass(frozen=True)
class OrderDistribution:
    """Empirical distribution over the k! orderings of chosen points."""

    k: int
    probs: dict[str, Estimate]
    n_samples: int
    seed: int
    indices: tuple[int, ...]
    space_hash: str
    tie_count: int
    flagged: bool

    def counts(self) -> dict[str, int]:
        return {key: round(e.value * self.n_samples) for key, e in self.probs.items()}

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "probs": {key: e.to_json() for key, e in sorted(self.probs.items())},
            "n_samples": self.n_samples,
            "seed": self.seed,
            "indices": list(self.indices),
            "space_hash": self.space_hash,
            "tie_count": self.tie_count,
            "flagged": self.flagged,
        }


def _perm_key(perm) -> str:
    return "".join(str(p + 1) for p in perm)


def order_distribution(
    model: GaussianModel, indices, n_samples: int, row_offset: int = 0
) -> OrderDistribution:
    """Frequencies of all k! orderings of the field values at `indices`.

    Exact float ties are resolved by index order (stable sort) and
    counted; more than 10 ties per 1e6 samples flags the distribution as
    suspicious since the continuous law has none.
    """
    indices = tuple(int(i) for i in indices)
    k = len(indices)
    if k > MAX_POINTS:
        raise ValueError(f"at most {MAX_POINTS} points supported, got {k}")
    if len(set(indices)) != k:
        raise ValueError("indices must be distinct")
    for i in indices:
        if not 0 <= i < model.n:
            raise IndexError(f"index {i} out of range")
    if k == 0:
        raise ValueError("need at least one index")

    draws = sample(model, n_samples, row_offset=row_offset)[:, indices]
    order = np.argsort(draws, axis=1, kind="stable")
    radix = k ** np.arange(k, dtype=np.int64)
    codes = order.astype(np.int64) @ radix
    uniq, counts = np.unique(codes, return_counts=True)
    count_of = dict(zip(uniq.tolist(), counts.tolist()))

    sorted_vals = np.take_along_axis(draws, order, axis=1)
    tie_count = int(np.count_nonzero(np.any(np.diff(sorted_vals, axis=1) == 0.0, axis=1)))

    probs: dict[str, Estimate] = {}
    for perm in itertools.permutations(range(k)):
        code = int(sum(p * k**j for j, p in enumerate(perm)))
        c = count_of.get(code, 0)
        p = c / n_samples
        probs[_perm_key(perm)] = Estimate(
            value=p,
            std_error=math.sqrt(p * (1.0 - p) / n_samples),
            n_samples=n_samples,
            seed=model.seed,
        )
    flagged = tie_count > 10 * n_samples / 1_000_000
    return OrderDistribution(
        k=k,
        probs=probs,
        n_samples=n_samples,
        seed=model.seed,
        indices=indices,
        space_hash=space_hash(model.space),
        tie_count=tie_count,
        flagged=flagged,
    )


def ordering_prob_exact(model: GaussianModel, permutation) -> float:
    """P(eta_{p0} < eta_{p1} < ... < eta_{p_{k-1}}) for point indices p.

    The event is the positive orthant of the consecutive-difference
    vector: k = 2 is exactly 1/2 (a centered difference), k = 3 and k = 4
    use the bivariate and trivariate arcsine closed forms on the correlation
    of the difference covariance. Larger k is not supported on the exact
    path.
    """
    perm = tuple(int(p) for p in permutation)
    k = len(perm)
    if len(set(perm)) != k:
        raise ValueError("permutation entries must be distinct")
    for p in perm:
        if not 0 <= p < model.n:
            raise IndexError(f"index {p} out of range")
    if k == 0:
        raise ValueError("permutation must be non-empty")
    if k == 1:
        return 1.0
    if k > 4:
        raise ValueError("exact path supports at most 4 points")
    sigma = model.sigma_float()[np.ix_(perm, perm)]
    diff = np.zeros((k - 1, k))
    for i in range(k - 1):
        diff[i, i] = -1.0
        diff[i, i + 1] = 1.0
    cov = diff @ sigma @ diff.T
    if np.any(np.diag(cov) <= 0):
        raise ValueError("degenerate difference covariance")
    if k == 2:
        return 0.5
    if k == 3:
        rho = cov[0, 1] / math.sqrt(cov[0, 0] * cov[1, 1])
        return orthant_2d(rho)
    s = np.sqrt(np.diag(cov))
    return orthant_3d_arcsine(cov / np.outer(s, s))


def uniformity_test(dist: OrderDistribution) -> tuple[float, float]:
    """Chi-square test of the ordering counts against the uniform law on k! cells.

    Requires every expected count to be at least 5. k = 1 is degenerate:
    statistic 0, p-value 1. `scipy.special` is imported here, so that only a
    process that runs a chi-square pays for loading it.
    """
    from scipy.special import chdtrc

    cells = math.factorial(dist.k)
    if cells == 1:
        return 0.0, 1.0
    expected = dist.n_samples / cells
    if expected < 5:
        raise ValueError(
            f"sample too small: expected count {expected:.2f} per cell is below 5"
        )
    counts = dist.counts()
    obs = np.asarray([counts[key] for key in sorted(counts)], dtype=float)
    e = obs.mean()
    stat = np.sum((obs - e) ** 2 / e)
    return float(stat), float(chdtrc(cells - 1, stat))


@dataclass(frozen=True)
class SupportReport:
    """Observed and (where available) exact positivity of every ordering."""

    all_observed: bool
    zero_cells: tuple[str, ...]
    min_count: int
    exact_probs: dict[str, float] | None
    exact_all_positive: bool | None
    suspicious: bool


def full_support_check(
    dist: OrderDistribution, model: GaussianModel | None = None
) -> SupportReport:
    """Verify every ordering occurred; with a model and k <= 4, also verify
    every exact ordering probability is strictly positive.

    A zero cell at a feasible sample size is reported as suspicious, not
    raised as an error.
    """
    counts = dist.counts()
    zero_cells = tuple(sorted(key for key, c in counts.items() if c == 0))
    all_observed = not zero_cells
    exact_probs = None
    exact_all_positive = None
    if model is not None and dist.k <= 4:
        exact_probs = {}
        for key in sorted(dist.probs):
            point_order = tuple(dist.indices[int(ch) - 1] for ch in key)
            exact_probs[key] = ordering_prob_exact(model, point_order)
        exact_all_positive = all(p > 0 for p in exact_probs.values())
    return SupportReport(
        all_observed=all_observed,
        zero_cells=zero_cells,
        min_count=min(counts.values()),
        exact_probs=exact_probs,
        exact_all_positive=exact_all_positive,
        suspicious=not all_observed,
    )
