"""Rounding schemes, estimation metrics, and the curvature-certificate bound.

The SDP optimum has no independent solver here: it is estimated by running
the nonconvex solver at rank ceil(sqrt(2n)) + 1, where the rank-constrained
problem is known to share the SDP's global maximum.  The estimate is itself
a feasible objective value, hence a true lower bound; the bound checks below
are conservative in that direction and report the slack for analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import solver, sphere, stiefel
from .solver import SolverOptions, solve
from .symmat import SymmetricMatrix

__all__ = [
    "SdpEstimate",
    "RoundingResult",
    "estimate_sdp",
    "grothendieck_check",
    "oc_grothendieck_check",
    "gw_round",
    "principal_sign",
    "correlation",
    "cut_value",
    "maxcut_bruteforce",
    "ALPHA_GW",
]

# Goemans-Williamson constant, truncated; the exact value exceeds 0.87856
ALPHA_GW = 0.878


@dataclass(frozen=True)
class SdpEstimate:
    """Lower-bound estimates of SDP(A) and SDP(-A) from high-rank solves.

    ``point_plus`` and ``point_minus`` are the configurations whose objective
    values are reported (None for a zero matrix), so a dual certificate can
    be built at the same points.
    """

    value_plus: float
    value_minus: float
    rank_used: int
    epsilon_used: float
    converged_plus: bool = True
    converged_minus: bool = True
    point_plus: stiefel.StiefelConfig | None = field(default=None, compare=False, repr=False)
    point_minus: stiefel.StiefelConfig | None = field(default=None, compare=False, repr=False)

    @property
    def rg(self) -> float:
        """Estimated length of the SDP range, SDP(A) + SDP(-A)."""
        return self.value_plus + self.value_minus

    @property
    def converged(self) -> bool:
        return self.converged_plus and self.converged_minus


@dataclass(frozen=True)
class RoundingResult:
    labels: np.ndarray
    value: float
    samples_tried: int

    def __post_init__(self):
        if not np.all(np.abs(self.labels) == 1):
            raise ValueError("labels must be +1/-1")


def _estimate_rank(A: SymmetricMatrix, manifold: str) -> int:
    if manifold == "stiefel":
        if A.block_dim is None:
            raise ValueError("stiefel estimates need a matrix with block_dim set")
        d = A.block_dim
        return int(math.ceil((d + 1) * math.sqrt(A.num_blocks))) + 1
    return int(math.ceil(math.sqrt(2.0 * A.n))) + 1


def _one_sided_estimate(B: SymmetricMatrix, rank: int, epsilon: float, seed,
                        manifold: str, pga_iters: int, rtr_budget: int,
                        power_C: float, max_power_iters: int):
    if B.l1_norm() == 0.0:
        return 0.0, True, None
    rng = np.random.default_rng(seed)
    sigma0 = solver.warm_start(B, rank, rng, manifold=manifold, iters=pga_iters)
    opts = SolverOptions(k=rank, mode=solver.MODE_GRADIENT_EIGEN, epsilon=epsilon,
                         max_iters=rtr_budget, power_C=power_C, seed=int(rng.integers(2**32)),
                         manifold=manifold, max_power_iters=max_power_iters)
    report = solve(B, opts, sigma0=sigma0)
    return report.objective, report.converged, report.sigma


def estimate_sdp(A: SymmetricMatrix, epsilon: float | None = None, seed=0, *,
                 manifold: str = "sphere", rank: int | None = None,
                 pga_iters: int = 2000, rtr_budget: int = 40,
                 power_C: float = 2.0, max_power_iters: int = 200) -> SdpEstimate:
    """Estimate SDP(A) and SDP(-A) by solving at rank ceil(sqrt(2n)) + 1.

    Both values are feasible objectives, hence lower bounds of the true
    optima; they are estimates, not certified optima.  Budget exhaustion, or
    a final curvature certificate shortened by ``max_power_iters``, is
    reported through the converged flags, never raised.
    """
    rank = rank if rank is not None else _estimate_rank(A, manifold)
    if epsilon is None:
        epsilon = solver.default_epsilon(A, rank, manifold) if A.l1_norm() > 0.0 else 1.0
    seeds = np.random.SeedSequence(seed).spawn(2)
    value_plus, ok_plus, point_plus = _one_sided_estimate(
        A, rank, epsilon, seeds[0], manifold, pga_iters, rtr_budget, power_C, max_power_iters)
    value_minus, ok_minus, point_minus = _one_sided_estimate(
        -A, rank, epsilon, seeds[1], manifold, pga_iters, rtr_budget, power_C, max_power_iters)
    return SdpEstimate(value_plus=value_plus, value_minus=value_minus, rank_used=rank,
                       epsilon_used=epsilon, converged_plus=ok_plus, converged_minus=ok_minus,
                       point_plus=point_plus, point_minus=point_minus)


def grothendieck_check(A: SymmetricMatrix, config: stiefel.StiefelConfig, epsilon: float,
                       est: SdpEstimate, tol: float | None = None):
    """Check f(sigma) >= SDP_est - Rg_est/(k_d-1) - n*eps/2; returns (holds, slack).

    k_d = 2k/(d+1) is the effective rank, k itself on the sphere product
    (d = 1).  Since the estimate is a lower bound of SDP(A), a pass is
    conservative in one direction; the signed slack is returned for analysis
    either way.
    """
    k_d = solver.effective_rank(config.k, config.d)
    if k_d <= 1.0:
        raise ValueError("the bound needs k_d = 2k/(d+1) > 1")
    if tol is None:
        tol = 1e-6 * A.n * A.l1_norm()
    f_val = stiefel.oc_objective(A, config)
    bound = est.value_plus - est.rg / (k_d - 1.0) - A.n * epsilon / 2.0
    slack = f_val - bound
    return slack >= -tol, slack


oc_grothendieck_check = grothendieck_check


def _signs(x: np.ndarray) -> np.ndarray:
    # ties at exactly zero map to +1 (deterministic, measure-zero event)
    return np.where(x >= 0.0, 1.0, -1.0)


def _check_nonnegative_weights(A_G: SymmetricMatrix) -> None:
    if A_G.shift < 0.0:
        raise ValueError("graph weights must be nonnegative")
    core = A_G._core
    if A_G.is_sparse:
        if core.nnz and core.data.min() + A_G.shift < 0.0:
            raise ValueError("graph weights must be nonnegative")
    elif core.size and core.min() + A_G.shift < 0.0:
        raise ValueError("graph weights must be nonnegative")


def cut_value(A_G: SymmetricMatrix, labels: np.ndarray) -> float:
    """Cut weight (1/4) sum_ij A_ij (1 - x_i x_j) of a +-1 labeling."""
    x = np.asarray(labels, dtype=float)
    if x.shape != (A_G.n,):
        raise ValueError("label vector length must match the graph")
    total = float(np.sum(A_G.dot(np.ones(A_G.n))))
    quad = float(x @ A_G.dot(x))
    return 0.25 * (total - quad)


def gw_round(A_G: SymmetricMatrix, config: sphere.SphereConfig, num_samples: int,
             seed) -> RoundingResult:
    """Random-hyperplane rounding; keeps the best of ``num_samples`` draws.

    Each draw samples u ~ N(0, I_k) and labels vertex i by the sign of
    <sigma_i, u> (ties to +1).  Weights must be nonnegative.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    _check_nonnegative_weights(A_G)
    if A_G.n != config.n:
        raise ValueError("graph and configuration sizes differ")
    rng = np.random.default_rng(seed)
    # sample-major draws keep the hyperplane stream a prefix of any longer
    # run with the same seed, so best-of-N is non-decreasing in N
    g = rng.standard_normal((num_samples, config.k))
    labels = _signs(config.rows @ g.T)  # n x num_samples
    total = float(np.sum(A_G.dot(np.ones(A_G.n))))
    quads = np.einsum("is,is->s", labels, A_G.dot(labels))
    values = 0.25 * (total - quads)
    best = int(np.argmax(values))
    return RoundingResult(labels=labels[:, best].copy(), value=float(values[best]),
                          samples_tried=num_samples)


def principal_sign(config: sphere.SphereConfig) -> np.ndarray:
    """Signs of the top left singular vector of sigma (ties map to +1).

    The vector is found by power iteration on sigma^T sigma (applied through
    sigma), which is deterministic given the fixed start.
    """
    rows = config.rows
    if config.k == 1:
        return _signs(rows[:, 0])
    gram = rows.T @ rows
    # fixed-seed random start: deterministic, and never orthogonal to the
    # top eigenvector in practice (a fixed pattern like all-ones can be)
    v = np.random.default_rng(0x5EED).standard_normal(config.k)
    v /= np.linalg.norm(v)
    prev = 0.0
    for _ in range(10_000):
        w = gram @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise ValueError("configuration is numerically rank deficient")
        v = w / nw
        if abs(nw - prev) <= 1e-14 * max(nw, 1.0):
            break
        prev = nw
    left = rows @ v
    return _signs(left)


def correlation(config: sphere.SphereConfig, u: np.ndarray) -> float:
    """Squared normalized overlap ||sigma^T u||^2 / n^2, always in [0, 1]."""
    u = np.asarray(u, dtype=float)
    if u.shape != (config.n,):
        raise ValueError("label vector length must match the configuration")
    if not np.all(np.abs(u) == 1):
        raise ValueError("labels must be +1/-1")
    n = config.n
    return float(np.linalg.norm(config.rows.T @ u) ** 2 / (n * n))


def maxcut_bruteforce(A_G: SymmetricMatrix) -> float:
    """Exact MaxCut by enumerating 2^(n-1) sign patterns; guarded at n <= 24."""
    n = A_G.n
    if n > 24:
        raise ValueError("brute force is limited to n <= 24")
    dense = A_G.to_dense()
    total = float(dense.sum())
    best_quad = math.inf
    count = 2 ** max(n - 1, 0)
    chunk = 1 << 14
    for start in range(0, count, chunk):
        idx = np.arange(start, min(start + chunk, count), dtype=np.int64)
        bits = (idx[:, None] >> np.arange(n - 1, dtype=np.int64)[None, :]) & 1
        x = np.empty((idx.size, n))
        x[:, 0] = 1.0
        x[:, 1:] = 1.0 - 2.0 * bits
        quad = np.einsum("ci,ij,cj->c", x, dense, x)
        best_quad = min(best_quad, float(quad.min()))
    return 0.25 * (total - best_quad)
