"""Rounding schemes, estimation metrics, and the curvature-certificate bound.

The SDP optimum has no independent solver here: it is estimated by climbing
at rank ceil(sqrt(2n)) + 1, where the rank-constrained problem is known to
share the SDP's global maximum, and bracketed by weak duality.  The climbed
point's objective is a feasible value, hence a lower end of SDP(A); at the
point's own multipliers Lambda, sum_i tr(Lambda_i) + n max(0, lam_max(A -
blockdiag(Lambda))) is an upper end, from one dense ``eigvalsh`` up to
``_DENSE_CUTOFF`` rows (Journee, Bach, Absil & Sepulchre, SIAM J. Optim. 2010,
stop their low-rank SDP solver on the same certificate).  Every size runs
the same climb; past the cutoff the upper end is infinite, so the bracket
is never converged there.  The bound checks below use the lower end, so a
pass is conservative in that direction, and report the slack for analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import solver, sphere, stiefel
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
    """Brackets value <= SDP <= upper of SDP(A) and SDP(-A) from high-rank climbs.

    ``value_plus`` and ``value_minus`` are feasible objective values, hence
    lower ends; ``upper_plus`` and ``upper_minus`` are weak-duality upper ends
    (infinite where none was taken).  ``converged_plus`` and
    ``converged_minus`` report whether each bracket is within the tolerance
    of ``estimate_sdp``, so they are False wherever the upper end is
    infinite.  ``point_plus`` and ``point_minus`` are the
    configurations whose objective values are reported (None for a zero
    matrix), the points at whose multipliers the upper ends were taken.
    """

    value_plus: float
    value_minus: float
    rank_used: int
    converged_plus: bool = True
    converged_minus: bool = True
    upper_plus: float = math.inf
    upper_minus: float = math.inf
    point_plus: stiefel.StiefelConfig | None = field(default=None, compare=False, repr=False)
    point_minus: stiefel.StiefelConfig | None = field(default=None, compare=False, repr=False)

    @property
    def rg(self) -> float:
        """Estimated length of the SDP range, SDP(A) + SDP(-A): its lower end."""
        return self.value_plus + self.value_minus

    @property
    def rel_gap(self) -> float:
        """Both brackets' width over the range's upper end: 0 when exact, inf without upper ends.

        SDP(A) + SDP(-A) >= 0, so the ratio is at most 1 (up to roundoff).
        """
        width = (self.upper_plus - self.value_plus) + (self.upper_minus - self.value_minus)
        if width <= 0.0:
            return 0.0
        if width == math.inf:
            return math.inf
        return width / max(self.upper_plus + self.upper_minus, width)

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
    d = solver._block_size(A, manifold)
    if manifold == "stiefel":
        return int(math.ceil((d + 1) * math.sqrt(A.num_blocks))) + 1
    return int(math.ceil(math.sqrt(2.0 * A.n))) + 1


# the dense certificate's eigvalsh is O(n^3): with one OpenBLAS thread on a
# Xeon core it took 0.014 s at n = 300, 0.14 s at 1000 and 0.97 s at 2000
_DENSE_CUTOFF = 2000
_GAP_RTOL = 1e-3
# a bracket above tolerance re-climbs to a gradient tolerance this much smaller
_RECLIMB_FACTOR = 1e-2


class _Side(NamedTuple):
    value: float
    upper: float
    converged: bool
    point: stiefel.StiefelConfig | None


def _wide(upper: float, value: float, l1: float) -> bool:
    """Whether a bracket is above tolerance: upper - value > _GAP_RTOL max(|upper|, ||A||_1).

    The scale follows A, and ||A||_1 keeps it positive where SDP is near 0.
    An infinite upper end is always wide.
    """
    return upper == math.inf or upper - value > _GAP_RTOL * max(abs(upper), l1)


def _dual_upper(B: SymmetricMatrix, state) -> float:
    """sum_i tr(Lambda_i) + n max(0, lam_max(B - blockdiag(Lambda))) at a climbed state.

    It makes one dense copy of B and overwrites it with B - blockdiag(Lambda).
    """
    d = state.geom.d
    shifted = B.to_dense()
    n = shifted.shape[0]
    m = n // d
    at = np.arange(m)
    blocks = shifted.reshape(m, d, m, d)
    blocks[at, :, at, :] -= state.lam.reshape(m, d, d)
    return state.objective + n * max(0.0, float(np.linalg.eigvalsh(shifted)[-1]))


def _one_sided_estimate(B: SymmetricMatrix, rank: int, seed, manifold: str,
                        pga_iters: int) -> _Side:
    """The bracket of SDP(B) from a climb at ``rank`` from a seeded start.

    Past ``_DENSE_CUTOFF`` rows the upper end is infinite.  ``B`` must not be
    zero.
    """
    geom, state, steps, _ = solver._climb(B, rank, manifold, None, seed, pga_iters)
    dense = B.n <= _DENSE_CUTOFF
    upper = _dual_upper(B, state) if dense else math.inf
    if dense and _wide(upper, state.objective, geom.l1):
        grad_tol = _RECLIMB_FACTOR * solver._CLIMB_RTOL * geom.l1
        state, more = solver._warm_ascent(geom, state, grad_tol, pga_iters - steps)
        if more:
            upper = _dual_upper(B, state)
    return _Side(state.objective, upper, not _wide(upper, state.objective, geom.l1),
                 state.config)


def estimate_sdp(A: SymmetricMatrix, seed=0, *, manifold: str = "sphere",
                 pga_iters: int = 2000) -> SdpEstimate:
    """Bracket SDP(A) and SDP(-A) by climbing at rank ceil(sqrt(2n)) + 1.

    The rank is ceil((d+1) sqrt(m)) + 1 on a product of m Stiefel blocks of
    size d.  Each side climbs from a random start as ``solver.solve`` does:
    at most ``pga_iters`` Barzilai-Borwein ascent steps, to gradient norm
    1e-3 ||A||_1.  The climbed point's objective is the lower end.  Up to
    ``_DENSE_CUTOFF`` rows, one dense ``eigvalsh`` of A - blockdiag(Lambda) at
    the point's multipliers gives the weak-duality upper end, and the side is
    converged when upper - value <= 1e-3 max(|upper|, ||A||_1).  A wider
    bracket climbs on from the same point to a gradient norm 100 times
    smaller, within the same ``pga_iters`` steps, and is taken once more.
    Past the cutoff the climb is all that runs: the upper end is infinite and
    the side is not converged.  No curvature search and no ||A||_2 estimate
    runs at any size; every product goes through ``SymmetricMatrix.dot``, and
    each upper end reads a fresh dense copy of its side's matrix, so at most one
    n x n copy is held at a time.  A bracket left wide is
    reported through the converged flags, never raised; a negative
    ``pga_iters`` raises ValueError.
    """
    if pga_iters < 0:
        raise ValueError("pga_iters must be >= 0")
    rank = _estimate_rank(A, manifold)
    if A.l1_norm() == 0.0:
        return SdpEstimate(0.0, 0.0, rank_used=rank, upper_plus=0.0, upper_minus=0.0)
    seeds = np.random.SeedSequence(seed).spawn(2)
    plus = _one_sided_estimate(A, rank, seeds[0], manifold, pga_iters)
    minus = _one_sided_estimate(-A, rank, seeds[1], manifold, pga_iters)
    return SdpEstimate(value_plus=plus.value, value_minus=minus.value, rank_used=rank,
                       converged_plus=plus.converged, converged_minus=minus.converged,
                       upper_plus=plus.upper, upper_minus=minus.upper,
                       point_plus=plus.point, point_minus=minus.point)


def grothendieck_check(A: SymmetricMatrix, config: stiefel.StiefelConfig, epsilon: float,
                       est: SdpEstimate, tol: float | None = None):
    """Check f(sigma) >= SDP_est - Rg_est/(k_d-1) - n*eps/2; returns (holds, slack).

    k_d = 2k/(d+1) is the effective rank, k itself on the sphere product
    (d = 1).  Since the estimate is a lower bound of SDP(A), a pass is
    conservative in one direction; the signed slack is returned for analysis
    either way.  ``epsilon`` must be finite and nonnegative.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("epsilon must be finite and nonnegative")
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


def _check_sphere_point(config) -> None:
    if config.d != 1:
        raise ValueError(f"needs a point of the sphere product (d = 1); has d = {config.d}")


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
    _check_sphere_point(config)
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

    The vector is sigma v for v the top eigenvector of the k x k Gram matrix
    sigma^T sigma.  Its global sign is the eigensolver's, which squared
    overlaps such as ``sign_correlation`` do not see.
    """
    _check_sphere_point(config)
    rows = config.rows
    if config.k == 1:
        return _signs(rows[:, 0])
    _, vecs = np.linalg.eigh(rows.T @ rows)
    return _signs(rows @ vecs[:, -1])


def correlation(config: sphere.SphereConfig, u: np.ndarray) -> float:
    """Squared normalized overlap ||sigma^T u||^2 / n^2, always in [0, 1]."""
    _check_sphere_point(config)
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
