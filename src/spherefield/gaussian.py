"""The Gaussian field indexed by a certified space.

The covariance of the field is exactly the rational Gram matrix of the
space: each variable is standard normal and the correlation of the
variables at two points equals their inner product. Sampling converts the
exact covariance to floats once, factors it, and drives the factor with a
counter-based normal stream, so draws are reproducible from (seed, count).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial.distance import cdist

from .errors import NotMemberError, PrecisionError
from .exact import FracMatrix, as_fraction, frac_to_pair
from .metric import (
    PartialIsometry,
    Rejection,
    SpaceDistances,
    certify_membership,
    verify_isometry,
)
from .sampling import normal_matrix


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo estimate with its provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GaussianModel:
    """Exact covariance (the Gram matrix) plus its float factor for sampling."""

    space: SpaceDistances
    sigma: FracMatrix
    chol: np.ndarray
    seed: int

    def __post_init__(self):
        c = np.array(self.chol, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "chol", c)

    @property
    def n(self) -> int:
        return self.space.n

    def sigma_float(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.sigma])


def build_model(space: SpaceDistances, seed: int = 0) -> GaussianModel:
    """Model of the field on a certified space; raises on non-members and on
    exact-PD matrices that degenerate at double precision."""
    cert = certify_membership(space)
    if isinstance(cert, Rejection):
        raise NotMemberError(f"space is not a certified member: {cert}", cert)
    sf = cert.to_float()
    try:
        chol = np.linalg.cholesky(sf) if space.n else np.zeros((0, 0))
    except np.linalg.LinAlgError as exc:
        raise PrecisionError("covariance is degenerate at double precision") from exc
    if space.n and np.max(np.abs(chol @ chol.T - sf)) > 1e-10:
        raise PrecisionError("factor round-trip exceeds 1e-10")
    return GaussianModel(space=space, sigma=cert.g, chol=chol, seed=seed)


def sample(model: GaussianModel, count: int, row_offset: int = 0) -> np.ndarray:
    """(count, n) draws, rows iid N(0, sigma); deterministic in (seed, count).

    Workers may partition a job into disjoint row ranges via row_offset;
    the blocks concatenate to the single-call output.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if model.n == 0 or count == 0:
        return np.zeros((count, model.n))
    z = normal_matrix(model.seed, count, model.n, row_offset=row_offset)
    return z @ model.chol.T


def _binomial_estimate(hits: int, n: int, seed: int) -> Estimate:
    p = hits / n
    return Estimate(value=p, std_error=math.sqrt(p * (1.0 - p) / n), n_samples=n, seed=seed)


# ---------------------------------------------------------------------------
# cylinder events
# ---------------------------------------------------------------------------

_OPS = ("<", ">")


@dataclass(frozen=True)
class CylinderEvent:
    """Conjunction of strict threshold constraints on finitely many coordinates."""

    constraints: tuple[tuple[int, str, Fraction], ...]

    def __post_init__(self):
        norm = []
        for idx, op, thr in self.constraints:
            if op not in _OPS:
                raise ValueError(f"op must be one of {_OPS}")
            norm.append((int(idx), op, as_fraction(thr)))
        object.__setattr__(self, "constraints", tuple(norm))

    @property
    def point_indices(self) -> tuple[int, ...]:
        return tuple(sorted({i for i, _, _ in self.constraints}))

    def evaluate(self, draws: np.ndarray, index_map=None) -> np.ndarray:
        """Boolean mask over sample rows; index_map relocates the event onto
        other columns (e.g. onto an isometric copy)."""
        mask = np.ones(draws.shape[0], dtype=bool)
        for idx, op, thr in self.constraints:
            col = draws[:, index_map[idx] if index_map is not None else idx]
            t = float(thr)
            mask &= (col > t) if op == ">" else (col < t)
        return mask

    def to_json(self) -> dict:
        return {
            "constraints": [[i, op, frac_to_pair(t)] for i, op, t in self.constraints]
        }

    @classmethod
    def from_json(cls, obj: dict) -> "CylinderEvent":
        return cls(
            constraints=tuple(
                (int(i), op, as_fraction(t)) for i, op, t in obj["constraints"]
            )
        )


# ---------------------------------------------------------------------------
# invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InvarianceReport:
    permutation: tuple[int, ...]
    exact_sigma_invariant: bool
    energy_statistic: float
    p_value: float
    n_samples: int
    n_permutations: int


def energy_distance_test(
    x: np.ndarray, y: np.ndarray, rng: np.random.Generator, n_permutations: int = 200
) -> tuple[float, float]:
    """Two-sample energy statistic with a permutation p-value.

    The pooled pairwise distance matrix D is computed once. Each label split
    (the observed one, then one `rng.permutation` per shuffle) is a 0/1
    column of A, so the single product D @ A gives the within-x distance sums
    of every split; the cross and within-y sums follow from the row sums of D.
    """
    nx, ny = x.shape[0], y.shape[0]
    if nx == 0 or ny == 0:
        raise ValueError("energy test needs two non-empty samples")
    pool = np.vstack([x, y])
    dist = cdist(pool, pool)

    labels = np.zeros((nx + ny, n_permutations + 1))
    labels[:nx, 0] = 1.0
    for j in range(1, n_permutations + 1):
        labels[rng.permutation(nx + ny)[:nx], j] = 1.0
    row_sums = dist.sum(axis=1)
    s_xx = np.einsum("ij,ij->j", labels, dist @ labels)
    s_x1 = row_sums @ labels
    s_xy = s_x1 - s_xx
    s_yy = row_sums.sum() - 2.0 * s_x1 + s_xx
    energy = 2.0 * s_xy / (nx * ny) - s_xx / (nx * nx) - s_yy / (ny * ny)

    observed = energy[0]
    hits = int(np.count_nonzero(energy[1:] >= observed))
    p = (hits + 1) / (n_permutations + 1)
    return float(observed), p


def invariance_check(
    model: GaussianModel,
    g: PartialIsometry,
    n_samples: int = 2000,
    n_permutations: int = 200,
    rng: np.random.Generator | None = None,
) -> InvarianceReport:
    """Check invariance of the field under a total self-isometry of the space.

    (i) Exact level: the permuted covariance must equal the covariance
    entrywise as rationals. (ii) Empirical level: a two-sample energy test
    between pushforward draws and fresh draws.
    """
    n = model.n
    dom, cod = g.domain_indices, g.codomain_indices
    if sorted(dom) != list(range(n)) or sorted(cod) != list(range(n)):
        raise ValueError("g must be a total permutation of the space's points")
    if not verify_isometry(model.space, model.space, g):
        raise ValueError("g is not a self-isometry of the space")
    perm = [0] * n
    for d, c in zip(dom, cod):
        perm[d] = c
    exact = all(
        model.sigma[perm[i]][perm[j]] == model.sigma[i][j]
        for i in range(n)
        for j in range(n)
    )
    x = sample(model, n_samples)
    y = sample(model, n_samples, row_offset=n_samples)[:, perm]
    if rng is None:
        rng = np.random.default_rng(model.seed + 1)
    stat, p = energy_distance_test(x, y, rng, n_permutations=n_permutations)
    return InvarianceReport(
        permutation=tuple(perm),
        exact_sigma_invariant=exact,
        energy_statistic=stat,
        p_value=p,
        n_samples=n_samples,
        n_permutations=n_permutations,
    )


# ---------------------------------------------------------------------------
# non-product certificate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonproductWitness:
    """A pair of points whose exact correlation is a nonzero rational.

    Any mixture of iid product measures would force every off-diagonal
    correlation to zero, so the exact value is the certificate; the
    empirical correlation is a sanity check only.
    """

    pair: tuple[int, int]
    exact_correlation: Fraction
    empirical_correlation: float
    confidence_interval: tuple[float, float]
    n_samples: int


def nonproduct_witness(
    model: GaussianModel, n_samples: int = 100_000
) -> NonproductWitness | None:
    """Pair with maximal |exact correlation|, or None when every pair is
    exactly orthogonal in this marginal (extend the space to find one)."""
    n = model.n
    if n < 2:
        raise ValueError("need at least two points")
    best, best_val = None, Fraction(0)
    for i in range(n):
        for j in range(i + 1, n):
            v = model.sigma[i][j]
            if abs(v) > abs(best_val):
                best, best_val = (i, j), v
    if best is None or best_val == 0:
        return None
    draws = sample(model, n_samples)
    xi, xj = draws[:, best[0]], draws[:, best[1]]
    r = float(np.corrcoef(xi, xj)[0, 1])
    se = (1.0 - r * r) / math.sqrt(n_samples)
    return NonproductWitness(
        pair=best,
        exact_correlation=best_val,
        empirical_correlation=r,
        confidence_interval=(r - 1.96 * se, r + 1.96 * se),
        n_samples=n_samples,
    )


# ---------------------------------------------------------------------------
# near-orthogonal copies and mixing
# ---------------------------------------------------------------------------

def near_orthogonal_copy(
    space: SpaceDistances, k: int
) -> tuple[SpaceDistances, SpaceDistances, PartialIsometry]:
    """Exactly isometric copy with every cross inner product bounded by 1/k.

    For k >= 2 the copy is mixed into the original's span: z_j carries the
    original geometry scaled by 1/k plus an orthogonal remainder, so
    <x_i, z_j> = g_ij / k exactly and the combined Gram is the Kronecker
    product of [[1, 1/k], [1/k, 1]] with the original Gram (positive
    definite). k = 1 places the copy exactly orthogonally (all cross
    inner products zero).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    cert = certify_membership(space)
    if isinstance(cert, Rejection):
        raise NotMemberError(f"space not certified: {cert}", cert)
    n = space.n
    s = Fraction(1, k) if k >= 2 else Fraction(0)

    labels = list(space.labels)
    used = set(labels)
    copy_labels = []
    for name in space.labels:
        cand = name + "*"
        while cand in used:
            cand += "*"
        used.add(cand)
        copy_labels.append(cand)
    copy = SpaceDistances(labels=tuple(copy_labels), sq_dist=space.sq_dist)

    total = 2 * n
    sq = [[Fraction(0)] * total for _ in range(total)]
    for i in range(n):
        for j in range(n):
            sq[i][j] = space.sq_dist[i][j]
            sq[n + i][n + j] = space.sq_dist[i][j]
            cross = 2 - 2 * s * cert.g[i][j]
            sq[i][n + j] = cross
            sq[n + j][i] = cross
    combined = SpaceDistances(
        labels=tuple(labels + copy_labels), sq_dist=tuple(tuple(r) for r in sq)
    )
    cc = certify_membership(combined)
    if isinstance(cc, Rejection):  # cannot happen for k >= 1
        raise AssertionError(f"near-orthogonal copy failed certification: {cc}")
    iso = PartialIsometry(
        domain_indices=tuple(range(n)), codomain_indices=tuple(range(n, total))
    )
    return copy, combined, iso


def kl_zero_mean(sigma_a: np.ndarray, sigma_b: np.ndarray) -> float:
    """KL(N(0, sigma_a) || N(0, sigma_b)) in closed form."""
    d = sigma_a.shape[0]
    sign_b, logdet_b = np.linalg.slogdet(sigma_b)
    sign_a, logdet_a = np.linalg.slogdet(sigma_a)
    if sign_a <= 0 or sign_b <= 0:
        raise ValueError("covariances must be positive definite")
    tr = float(np.trace(np.linalg.solve(sigma_b, sigma_a)))
    return float(0.5 * (tr - d + logdet_b - logdet_a))


def tv_discretized_2d(c: float, half_width: float = 8.0, n: int = 801) -> float:
    """Total variation between correlated and independent bivariate normals,
    by L1 quadrature of the densities on a grid (test-grade accuracy)."""
    xs = np.linspace(-half_width, half_width, n)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs)
    q = np.exp(-0.5 * (X * X + Y * Y)) / (2 * np.pi)
    det = 1.0 - c * c
    p = np.exp(-0.5 * (X * X - 2 * c * X * Y + Y * Y) / det) / (2 * np.pi * math.sqrt(det))
    return 0.5 * float(np.sum(np.abs(p - q))) * h * h


@dataclass(frozen=True)
class MixingReport:
    """Joint-vs-product estimates along a family of increasingly orthogonal copies."""

    k_values: tuple[int, ...]
    joint: tuple[Estimate, ...]
    mu_b: tuple[Estimate, ...]
    product: tuple[Estimate, ...]
    kl_bounds: tuple[float, ...]
    tv_bounds: tuple[float, ...]
    n_samples: int
    seed: int

    def __post_init__(self):
        if any(k < 0 for k in self.kl_bounds):
            raise ValueError("KL divergences must be nonnegative")

    def to_json(self) -> dict:
        return {
            "k_values": list(self.k_values),
            "joint": [e.to_json() for e in self.joint],
            "mu_b": [e.to_json() for e in self.mu_b],
            "product": [e.to_json() for e in self.product],
            "kl_bounds": list(self.kl_bounds),
            "tv_bounds": list(self.tv_bounds),
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


def mixing_experiment(
    space: SpaceDistances,
    event: CylinderEvent,
    k_values,
    samples: int = 1_000_000,
    seed: int = 0,
) -> MixingReport:
    """Estimate mu(B and g_k B) against mu(B)^2 along near-orthogonal copies.

    For each k, the event is transported onto the copy via the isometry,
    the joint probability is estimated on the combined 2n-dimensional
    field, and the closed-form KL divergence between the joint law and the
    independent product law is reported with its Pinsker bound sqrt(KL/2).
    """
    n = space.n
    for idx in event.point_indices:
        if not 0 <= idx < n:
            raise IndexError(f"event index {idx} out of range for a {n}-point space")
    k_values = tuple(int(k) for k in k_values)
    joints, mus, products, kls, tvs = [], [], [], [], []
    for pos, k in enumerate(k_values):
        _, combined, iso = near_orthogonal_copy(space, k)
        model = build_model(combined, seed=seed + pos)
        draws = sample(model, samples)
        copy_map = {iso.domain_indices[t]: iso.codomain_indices[t] for t in range(n)}
        on_original = event.evaluate(draws)
        on_copy = event.evaluate(draws, index_map=copy_map)
        joint_hits = int(np.count_nonzero(on_original & on_copy))
        mu_hits = int(np.count_nonzero(on_original))
        joint = _binomial_estimate(joint_hits, samples, seed + pos)
        mu = _binomial_estimate(mu_hits, samples, seed + pos)
        prod = Estimate(
            value=mu.value**2,
            std_error=2.0 * mu.value * mu.std_error,
            n_samples=samples,
            seed=seed + pos,
        )
        sigma_joint = model.sigma_float()
        sigma_prod = sigma_joint.copy()
        sigma_prod[:n, n:] = 0.0
        sigma_prod[n:, :n] = 0.0
        kl = kl_zero_mean(sigma_joint, sigma_prod)
        joints.append(joint)
        mus.append(mu)
        products.append(prod)
        kls.append(kl)
        tvs.append(math.sqrt(kl / 2.0))
    return MixingReport(
        k_values=k_values,
        joint=tuple(joints),
        mu_b=tuple(mus),
        product=tuple(products),
        kl_bounds=tuple(kls),
        tv_bounds=tuple(tvs),
        n_samples=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# cylinder approximation demo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CylinderApproximation:
    event: CylinderEvent
    sym_diff: Estimate
    reached: bool


def cylinder_approximation_demo(
    model: GaussianModel,
    predicate,
    epsilon: float,
    n_samples: int = 60_000,
    n_thresholds: int = 21,
    max_constraints: int | None = None,
) -> CylinderApproximation:
    """Greedy threshold-cylinder approximation of an arbitrary sampled event.

    `predicate` maps a (rows, n) draw matrix to a boolean mask. Constraints
    are added greedily (coordinate, direction, quantile threshold) while
    they shrink the estimated symmetric difference; the final estimate is
    computed on a held-out half of the draws. This is a demonstration
    harness, not an optimal approximator: when epsilon is unreachable the
    best effort is returned with reached=False.
    """
    if model.n == 0:
        raise ValueError("model must have at least one point")
    draws = sample(model, n_samples)
    half = n_samples // 2
    train, test = draws[:half], draws[half:]
    a_train = np.asarray(predicate(train), dtype=bool)
    a_test = np.asarray(predicate(test), dtype=bool)
    if max_constraints is None:
        max_constraints = model.n

    levels = np.linspace(0.05, 0.95, n_thresholds)
    used: set[int] = set()
    chosen: list[tuple[int, str, Fraction]] = []
    mask = np.ones(half, dtype=bool)
    best_err = float(np.mean(a_train != mask))
    while len(chosen) < max_constraints:
        best_step = None
        for col in range(model.n):
            if col in used:
                continue
            qs = np.quantile(train[:, col], levels)
            for q in qs:
                thr = Fraction(round(q * (1 << 20)), 1 << 20)
                t = float(thr)
                for op in ("<", ">"):
                    cand = mask & ((train[:, col] < t) if op == "<" else (train[:, col] > t))
                    err = float(np.mean(a_train != cand))
                    if err < best_err - 1e-12:
                        best_err = err
                        best_step = (col, op, thr, cand)
        if best_step is None:
            break
        col, op, thr, cand = best_step
        used.add(col)
        chosen.append((col, op, thr))
        mask = cand
        if best_err <= 0.9 * epsilon:
            break
    event = CylinderEvent(constraints=tuple(chosen))
    on_test = event.evaluate(test)
    est = _binomial_estimate(int(np.count_nonzero(a_test != on_test)), len(test), model.seed)
    return CylinderApproximation(
        event=event, sym_diff=est, reached=est.value <= epsilon
    )
