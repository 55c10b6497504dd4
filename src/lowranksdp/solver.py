"""Fast Riemannian trust-region solver with a curvature-certificate stop.

Two step schedules are implemented:

* ``eigen-only``: every step moves along an approximate top-curvature
  direction found by Lanczos iteration, with step size
  lam_H / (100 ||A||_1).
* ``gradient-eigen``: while the Riemannian gradient is large (above the
  spectral norm of A) take gradient steps; otherwise take an eigen-step of
  size min(sqrt(lam_H / (216 ||A||_1)), lam_H / (12 ||A||_2)).

Every gradient step of a solve, the warm start's and the paper's phase's,
is a step of one Barzilai-Borwein routine on the raw gradient, ``_ascent``,
under one of two line-search policies: Zhang and Hager's nonmonotone test (``_WARM``) or
the monotone Armijo test with rho = 1/2 (``_PAPER``).  Lengths are floored
at t_f = min(1/(4.42 ||A||_1), 1/(20 |grad|)), taken untested: such a step
gains at least t_f |grad|^2 / 2, which while |grad| > ||A||_2 is at least
the ||A||_2^2 / (40 ||A||_1) of the paper's fixed step, so the analysis'
budget stands; from a cold start the phase takes tens of steps where fixed
steps take thousands.

The run stops once a Lanczos run on the shifted Hessian (the recurrence of
``symmat``, which also estimates ||A||_2) certifies that the largest Hessian
curvature is (with high probability) below the target epsilon; the
certificate is retried once with a fresh start before convergence is
declared.  The number of Lanczos steps comes from the
Kuczynski-Wozniakowski random-start bound (SIAM J. Matrix Anal. Appl. 1992),
so it grows like log(n) sqrt(mu / epsilon) where the power method's grows
like log(n) mu / epsilon.  The shift mu is each state's own bound on the
Hessian's norm, 2(U + max_i ||Lambda_i||_2) capped at 2(1 + sqrt(d)) ||A||_1,
with U >= ||A||_2 taken from the Lanczos run that estimates ||A||_2
(``SymmetricMatrix.opnorm_upper``); U fails with probability at most 1/n,
which the report's ``failure_prob`` adds to the searches' own.  Where a
certificate is expected (before the first eigen step of a solve) the search
and its retry run side by side: two independent recurrences, each with its
own start, step count, tridiagonal and certificate, whose products share one
call ``A @ [V1 V2]``.  Such a pair counts 2 x steps Krylov steps but takes
steps products.  A search reads the state's own product and multiplier, and
each of its steps makes one projection, of the recurrence's residual.  The
fixed-step projected-gradient-ascent baseline of the paper shares the report
format.

There is one geometry, the frame product of ``stiefel``: the default
``manifold="sphere"`` is its d = 1 case, the product of spheres, and
``manifold="stiefel"`` takes d from the matrix's ``block_dim``.  ``solve``
is the paper's recipe in one call: with ``warm_iters`` it first climbs from
its start by the warm start's policy (which typically reaches its gradient
tolerance in a tenth or less of the products the fixed-step baseline
spends), then certifies the point it reached by the paper's schedule.  The
schedule is one generator of steps, ``_schedule``: ``solve`` runs it up to its
step budget, and ``rtr_step`` is its first step.

All loops step on raw row arrays: one product ``A @ rows`` per step (per
trial point of a gradient step) gives the multiplier, gradient and objective
through the same ``stiefel`` kernels the public objects use, in the same
order, so the iterates are those of ``oc_gradient`` and ``oc_retract`` to
the bit.  The curvature searches draw and project their tangents with the
raw-row kernels behind ``oc_random_tangent`` and ``project_rows``.  Only the
start and the report's point pass the point check of ``StiefelConfig``, and
no tangent check runs; in the loops every state raises ``NonFiniteError``, a
ValueError, if its objective or gradient norm is not finite.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import stiefel
from .symmat import SymmetricMatrix, _kw_steps, _lanczos, _tridiagonal

__all__ = [
    "SolverOptions",
    "StepRecord",
    "SolveReport",
    "MODE_EIGEN_ONLY",
    "MODE_GRADIENT_EIGEN",
    "effective_rank",
    "default_epsilon",
    "worst_case_budget",
    "power_method",
    "direction_finding",
    "rtr_step",
    "solve",
    "projected_gradient_ascent",
    "random_start",
    "NonFiniteError",
]

MODE_EIGEN_ONLY = "eigen-only"
MODE_GRADIENT_EIGEN = "gradient-eigen"
_MODES = (MODE_EIGEN_ONLY, MODE_GRADIENT_EIGEN)

_BUDGET_CAP = 10**15


@dataclass
class SolverOptions:
    """Knobs of the trust-region solver.

    ``epsilon=None`` resolves to the natural target 2*Rg/(n(k-1)) with the
    range Rg bounded by 2n||A||_2, i.e. 4||A||_2/(k-1) (divided by k_d-1 on
    the Stiefel product).  ``max_iters=None`` resolves to the worst-case
    iteration budget of the convergence analysis for the chosen mode.
    ``max_power_iters`` caps every curvature search's Lanczos step count,
    which otherwise makes the search's failure probability at most 1/n.
    """

    k: int
    mode: str = MODE_GRADIENT_EIGEN
    epsilon: float | None = None
    max_iters: int | None = None
    seed: int = 0
    manifold: str = "sphere"
    max_power_iters: int | None = None

    def validate(self) -> None:
        if not (isinstance(self.k, numbers.Integral) and self.k >= 1):
            raise ValueError("rank k must be an integer >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.epsilon is not None and not (self.epsilon > 0.0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        for name in ("max_iters", "max_power_iters"):
            count = getattr(self, name)
            if count is not None and not (isinstance(count, numbers.Integral) and count >= 1):
                raise ValueError(f"{name} must be an integer >= 1")
        if self.manifold not in ("sphere", "stiefel"):
            raise ValueError("manifold must be 'sphere' or 'stiefel'")


@dataclass(frozen=True)
class StepRecord:
    """One step of a trace.

    ``step_size`` is the step's length: for a gradient or ``"pga"`` step
    the length t along the raw gradient (so the row moves t |grad| along
    the unit gradient; a gradient step's t is at least the floor of the
    module docstring); for an eigen step the schedule's size along the unit
    direction.
    """

    index: int
    kind: str  # "init" | "gradient" | "eigen" | "pga" | "none"
    step_size: float
    objective: float
    grad_norm: float
    lam_h: float = math.nan
    krylov_steps: int = 0  # Lanczos steps of the step's curvature searches


@dataclass
class SolveReport:
    """Outcome of a solve: final point, certificate, and per-step trace.

    ``krylov_steps`` totals the Lanczos steps of every curvature search
    (one Hessian product each; a stepping direction replays its run once
    more to rebuild the Ritz vector).  A search and its retry run side by
    side count 2 x steps but share steps products ``A @ [V1 V2]``; a retry
    dropped because the search beside it did not certify is not counted.
    ``cap_hit`` records whether ``max_power_iters`` shortened any step count
    below the one the analysis asks for; a solve whose final certificate was
    shortened is not reported as converged.

    ``failure_prob`` bounds the probability that any curvature value of the
    solve is wrong by more than the analysis allows, by a union bound: 1/n for
    the upper bound on ||A||_2 that sizes every search's shift, plus 1/n for
    each curvature search run, each from a Gaussian drawn after the start:
    min((1 + searches)/n, 1).  It is 0 when no search ran.  ``warm_steps``
    counts the warm start's accepted ascent steps (the trace begins at the
    point they reach); ``products`` counts the run's products ``A @ X`` (a
    paired Lanczos step once), all but the cached run that estimates ||A||_2.
    """

    sigma: object
    objective: float
    grad_norm: float
    curvature_cert: float
    converged: bool
    gradient_steps: int
    eigen_steps: int
    trace: list
    seed: int
    epsilon: float
    mode: str
    manifold: str
    budget: int
    krylov_steps: int = 0
    cap_hit: bool = False
    failure_prob: float = 0.0
    warm_steps: int = 0
    products: int = 0

    @property
    def iterations(self) -> int:
        return self.gradient_steps + self.eigen_steps

    def summary_line(self) -> str:
        return ("mode=%s manifold=%s converged=%s f=%.10g grad_norm=%.4g cert=%.4g "
                "steps=%d (gradient=%d eigen=%d) krylov_steps=%d cap_hit=%s eps=%.4g seed=%d "
                "warm_steps=%d products=%d"
                % (self.mode, self.manifold, self.converged, self.objective,
                   self.grad_norm, self.curvature_cert, self.iterations,
                   self.gradient_steps, self.eigen_steps, self.krylov_steps,
                   self.cap_hit, self.epsilon, self.seed, self.warm_steps, self.products))

    def trace_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "f", "grad_norm", "kind", "step", "lam_h",
                             "krylov_steps"])
            for rec in self.trace:
                writer.writerow([rec.index, f"{rec.objective:.17g}",
                                 f"{rec.grad_norm:.17g}", rec.kind, f"{rec.step_size:.17g}",
                                 f"{rec.lam_h:.17g}", rec.krylov_steps])
            writer.writerow(["# " + self.summary_line()])


# -- geometry -------------------------------------------------------------------


class NonFiniteError(ValueError):
    """An iterate whose objective or gradient norm is not finite: the matrix's
    products overflow floating point."""


class _State:
    """One iterate on raw rows, from one product ``A @ rows``.

    The loops and curvature searches read ``rows``; the checked point
    ``config`` is made only when asked for, for a start or an output.
    """

    __slots__ = ("geom", "rows", "asig", "lam", "grad", "grad_norm", "objective", "_config")

    def __init__(self, geom, rows, asig, lam, grad, config=None):
        self.geom, self.rows, self.asig, self.lam, self.grad = geom, rows, asig, lam, grad
        with np.errstate(over="ignore"):  # an overflow is the NonFiniteError below
            self.grad_norm = float(np.linalg.norm(grad))
        self.objective = stiefel._objective(lam, geom.d)
        if not (math.isfinite(self.objective) and math.isfinite(self.grad_norm)):
            raise NonFiniteError("the objective or the gradient norm is not finite: "
                                 "the matrix's products overflow")
        self._config = config

    @property
    def config(self):
        if self._config is None:
            self._config = stiefel.StiefelConfig(self.rows, self.geom.d)
        return self._config


def _block_size(A: SymmetricMatrix, manifold: str) -> int:
    """The block size d of ``manifold`` on ``A``: ``A.block_dim`` for ``"stiefel"``,
    1 for ``"sphere"`` (which accepts any block structure); any other name raises
    ValueError."""
    if manifold == "sphere":
        return 1
    if manifold != "stiefel":
        raise ValueError("manifold must be 'sphere' or 'stiefel'")
    if A.block_dim is None:
        raise ValueError("the stiefel manifold needs a matrix with block_dim set")
    return A.block_dim


class _Geometry:
    """The frame product a solve runs on, with the constants of its analysis,
    and the tallies of its run (products, curvature searches, their Lanczos
    steps and whether ``max_power_iters`` shortened any)."""

    def __init__(self, A: SymmetricMatrix, k: int, manifold: str):
        d = _block_size(A, manifold)
        if k < d:
            raise ValueError("rank k must be at least the block dimension d")
        self.A, self.k, self.d, self.n, self.m = A, k, d, A.n, A.n // d
        self.manifold = manifold
        self.l1 = A.l1_norm()
        # ||Lambda_i||_2 <= sqrt(d) ||A||_1, so every state's shift is at most
        # 2(1 + sqrt(d)) ||A||_1, which is 4||A||_1 on the sphere product
        self.mu_cap = 2.0 * (1.0 + math.sqrt(d)) * self.l1
        self.products = 0  # the products A @ X of this geometry's run
        self.searches = self.krylov_steps = 0
        self.cap_hit = False

    def dot(self, x: np.ndarray) -> np.ndarray:
        self.products += 1
        return self.A.dot(x)

    def shift(self, state: _State) -> float:
        """An upper bound mu on ||Hess|| at ``state``, the shift of its curvature searches.

        On the tangent space the Hessian is P 2(A - Lambda) P, so its norm is
        at most 2(||A||_2 + max_i ||Lambda_i||_2); ||A||_2 is bounded by
        ``A.opnorm_upper()``, which holds with probability at least 1 - 1/n
        and is cached with ``A.opnorm()``.  ``mu_cap`` caps the value.
        """
        lam = state.lam
        lam_norm = np.abs(lam).max() if self.d == 1 else np.linalg.norm(lam, 2, axis=(1, 2)).max()
        return min(2.0 * (self.A.opnorm_upper() + float(lam_norm)), self.mu_cap)

    def tangent_dim(self) -> int:
        return self.m * (self.d * (self.k - self.d) + self.d * (self.d - 1) // 2)

    def random_point(self, seed):
        return stiefel.oc_random_config(self.m, self.d, self.k, seed)

    def evaluate(self, config) -> _State:
        """The state at a checked point of this manifold, of this rank."""
        if (config.k, config.d) != (self.k, self.d):
            raise ValueError(f"start has k = {config.k}, d = {config.d}; the solve runs at "
                             f"k = {self.k}, d = {self.d}")
        stiefel._check_matrix(self.A, config)
        return self._state(config.rows, config)

    def advance(self, state: _State, u_rows: np.ndarray, t: float) -> _State:
        """The state at the retraction of ``state`` along tangent rows ``u_rows``.

        The retraction keeps rows orthonormal up to roundoff, so only
        ``_State``'s finiteness test checks the new state.  A zero step
        returns ``state``, as ``oc_retract`` returns its point.
        """
        if t == 0.0:
            return state
        return self._state(stiefel._retract_rows(state.rows, u_rows, t, self.d))

    def _state(self, rows: np.ndarray, config=None) -> _State:
        asig = self.dot(rows)
        lam = stiefel._multiplier(rows, asig, self.d)
        grad = stiefel._gradient_rows(rows, asig, lam, self.d)
        return _State(self, rows, asig, lam, grad, config)


def _manifold_of(config) -> str:
    return "sphere" if config.d == 1 else "stiefel"


def random_start(A: SymmetricMatrix, k: int, seed, manifold: str = "sphere"):
    """Uniformly random point of the manifold a solve with these options runs on.

    ``seed`` may be an integer or a numpy Generator (which is advanced); an
    integer gives the start that ``solve`` draws from that seed.
    """
    return _Geometry(A, k, manifold).random_point(seed)


# The line-search policies (memory, rho) of ``_ascent``.  Zhang & Hager (SIAM
# J. Optim. 2004) take the reference value C <- (memory Q C + f) / (memory Q + 1),
# Q <- memory Q + 1, and accept a trial point that rises rho t |grad|^2 above
# C; with memory 0 the reference is the current value, the monotone Armijo
# test, and rho = 1/2 asks a longer step for the gain per length of the floor.
_WARM = (0.85, 1e-4)
_PAPER = (0.0, 0.5)
# Barzilai-Borwein lengths are clamped above at _BB_MAX / ||A||_1
_BB_MAX = 1e3


def _bb_length(s: np.ndarray, y: np.ndarray, long: bool = True) -> float:
    """The Barzilai-Borwein length s's/|s'y| (``long``) or |s'y|/y'y of a raw-gradient step.

    ``s`` is the change of rows and ``y = grad_old - grad_new``; a zero
    denominator gives infinity, which the caller's upper clamp takes.
    """
    s, y = s.ravel(), y.ravel()
    sy = abs(float(s @ y))
    num, den = (float(s @ s), sy) if long else (sy, float(y @ y))
    return num / den if den > 0.0 else math.inf


def _ascent(geom: _Geometry, state: _State, grad_tol: float, memory: float, rho: float):
    """Barzilai-Borwein gradient ascent on the raw gradient, until |grad| <= ``grad_tol``.

    Yields ``(state, t)`` for each accepted step; callers cap the count.  The
    first trial length is 1/(4||A||_1); later ones alternate the Barzilai &
    Borwein (IMA J. Numer. Anal. 1988) lengths s's/|s'y| and |s'y|/y'y, with s
    the change of rows and y = grad_old - grad_new (Wen & Yin, Math. Program.
    2013, run the same steps on the Stiefel manifold), clamped to
    [t_f, _BB_MAX / ||A||_1] with the floor t_f of the module docstring.  A
    trial point failing the test of the policy ``(memory, rho)`` (see
    ``_WARM``) halves t, down to t_f, which is taken as it stands
    (``worst_case_budget`` shows that it gains at least t_f |grad|^2 / 2).
    Trial points pass only the states' finiteness test, which keeps |grad|,
    and so t_f, positive and finite.  ``geom.l1`` must be positive.
    """
    l1 = geom.l1
    t, long = 1.0 / (4.0 * l1), True
    ref, q = state.objective, 1.0
    while state.grad_norm > grad_tol:
        floor = min(1.0 / (4.42 * l1), 1.0 / (20.0 * state.grad_norm))
        t = min(max(t, floor), _BB_MAX / l1)
        rise = rho * state.grad_norm**2
        while True:
            trial = geom.advance(state, state.grad, t)
            if trial.objective >= ref + t * rise or t <= floor:
                break
            t = max(0.5 * t, floor)
        yield trial, t
        t = _bb_length(trial.rows - state.rows, state.grad - trial.grad, long)
        q_next = memory * q + 1.0
        ref = (memory * q * ref + trial.objective) / q_next
        q, state, long = q_next, trial, not long


def _warm_ascent(geom: _Geometry, state: _State, grad_tol: float, iters: int):
    """At most ``iters`` steps of the warm start's ``_ascent``; returns ``(state, steps)``."""
    steps = 0
    for steps, (state, _) in enumerate(
            itertools.islice(_ascent(geom, state, grad_tol, *_WARM), iters), 1):
        pass
    return state, steps


# the climb stops once the gradient norm is at most _CLIMB_RTOL ||A||_1
_CLIMB_RTOL = 1e-3


def _climb(A: SymmetricMatrix, k: int, manifold: str, start, seed, iters: int):
    """The start and warm start of ``solve``; returns ``(geom, state, steps, rng)``.

    The state at ``start``, or at the uniformly random point that is the
    first draw of ``seed``'s stream ``rng`` (drawn either way), then at most
    ``iters`` steps of ``_warm_ascent`` toward gradient norm ``_CLIMB_RTOL``
    ||A||_1; a zero matrix is not climbed.
    """
    geom, rng = _Geometry(A, k, manifold), np.random.default_rng(seed)
    drawn = geom.random_point(rng)
    state = geom.evaluate(start if start is not None else drawn)
    steps = 0
    if geom.l1 > 0.0:
        state, steps = _warm_ascent(geom, state, _CLIMB_RTOL * geom.l1, iters)
    return geom, state, steps, rng


# -- parameter defaults --------------------------------------------------------


def effective_rank(k: int, d: int) -> float:
    """k_d = 2k/(d+1), the rank the Grothendieck-type bound sees; k itself at d = 1."""
    return 2.0 * k / (d + 1)


def default_epsilon(A: SymmetricMatrix, k: int, manifold: str = "sphere") -> float:
    """Natural curvature target 2*Rg/(n(k_d-1)) with Rg bounded by 2n||A||_2."""
    k_eff = effective_rank(k, _Geometry(A, k, manifold).d)
    if k_eff <= 1.0:
        raise ValueError("effective rank must exceed 1 for the default epsilon")
    l2 = A.opnorm()
    if l2 == 0.0:
        return 1.0  # zero matrix: any positive target certifies instantly
    return 4.0 * l2 / (k_eff - 1.0)


def worst_case_budget(A: SymmetricMatrix, epsilon: float, mode: str) -> int:
    """Worst-case step budget of the convergence analysis (a loose cap), at most ``_BUDGET_CAP``.

    The gradient term: while |grad| > ||A||_2, the paper's step
    eta = ||A||_2 / (20 ||A||_1) <= 1/20 gains at least eta |grad| / 2.  Along
    the retraction |f''(t)| <= ||A||_1 (4 + 8t + 8t^2) <= 4.42 ||A||_1 for
    t <= eta, so the quadratic loss is at most 2.21 eta^2 ||A||_1
    <= 0.11 eta |grad|.  A step of ``_ascent`` moves tau = t |grad| along the
    unit gradient: one at its floor t_f = min(1/(4.42 ||A||_1), 1/(20 |grad|))
    has tau <= 1/20 and tau |grad| <= |grad|^2 / (4.42 ||A||_1), so it loses at
    most 2.21 ||A||_1 tau^2 <= tau |grad| / 2 and gains at least
    t_f |grad|^2 / 2; in the paper's phase a longer one is accepted only if it
    gains as much (rho = 1/2).  With |grad| > ||A||_2 and ||A||_2 <= ||A||_1
    that is at least min(||A||_2^2 / (8.84 ||A||_1), ||A||_2 / 40)
    >= ||A||_2^2 / (40 ||A||_1) per gradient step, the fixed step's gain, so
    at most 40 ||A||_1 Rg / ||A||_2^2 of them fit in the range Rg <= 2n ||A||_2.
    """
    n = A.n
    l1 = A.l1_norm()
    if l1 == 0.0:
        return 1
    # a square of a scale can overflow or underflow where the squared ratio does not
    r1 = l1 / epsilon
    if mode == MODE_EIGEN_ONLY:
        t = 64e4 * n * r1 * r1
    else:
        l2 = max(A.opnorm(), 1e-300)
        r2 = l2 / epsilon
        t = 80.0 * n * l1 / l2 + 1728.0 * n * r1 + 1152.0 * n * r2 * r2
    return math.ceil(t) if t < _BUDGET_CAP else _BUDGET_CAP


# -- power method, Lanczos and direction finding -------------------------------


def power_method(H, mu_H: float, N_H: int, seed):
    """Shifted power iteration on the Hessian operator.

    Starts from a uniformly random unit tangent and iterates
    u <- Hess[u] + mu_H * u (normalized).  ``N_H = 0`` returns the random
    start itself.  ``seed`` may be an integer or a numpy Generator.  No solve
    or CLI command calls it: the curvature searches run Lanczos
    (``direction_finding``), and this is the paper's reference routine that
    the tests check against a dense oracle.
    """
    if N_H < 0:
        raise ValueError("N_H must be nonnegative")
    rng = np.random.default_rng(seed)
    start = H.random_tangent(rng)
    rows = start.rows
    stepped = False
    for _ in range(int(N_H)):
        w = H.apply_rows(rows) + mu_H * rows
        nw = np.linalg.norm(w)
        if nw == 0.0:
            break
        rows = w / nw
        stepped = True
    if not stepped:
        return start
    return type(start)(rows, H.config)


def _krylov_step_count(cap: int | None, n: int, dim: int, mu_H: float,
                       epsilon: float, lam_prev: float | None) -> tuple[int, bool]:
    """Lanczos steps for one curvature search; returns ``(steps, capped)``.

    ``mu_H`` bounds ||Hess||, so Hess + mu_H I is positive semidefinite with
    top eigenvalue at most 2 mu_H, and relative accuracy e = lam_ref / (2 mu_H)
    loses at most lam_ref of curvature; lam_ref is the best available lower
    bound on the top curvature (the previous eigen Rayleigh value, floored at
    epsilon).  The count makes the Kuczynski-Wozniakowski failure probability
    at most 1/n.  It is capped at ``dim``, where the Krylov space is
    exhausted, and at ``cap`` (``max_power_iters``; None for no cap);
    ``capped`` reports whether the latter shortened it.
    """
    lam_ref = max(lam_prev if lam_prev is not None else 0.0, epsilon)
    e = min(lam_ref / (2.0 * mu_H), 1.0)
    steps = max(min(_kw_steps(e, dim, math.log(n)), dim), 1)
    if cap is not None and cap < steps:
        return int(cap), True
    return steps, False


def _shifted_hessian(state: _State, mu_H: float, dot):
    """``symmat._lanczos``'s ``apply`` for Hess + mu_H I at ``state``: one product
    ``dot([v_1 v_2 ...])`` per call, which at small widths costs far less than
    a call per vector, since reading A bounds it.  The images 2(A - Lambda) v
    + mu_H v are not projected: the recurrence projects its residual."""
    k, d, lam = state.rows.shape[1], state.geom.d, state.lam

    def apply(vs):
        products = dot(vs[0] if len(vs) == 1 else np.hstack(vs))
        return [stiefel._gradient_rows(v, products[:, c * k:(c + 1) * k], lam, d) + mu_H * v
                for c, v in enumerate(vs)]
    return apply


class _Search(NamedTuple):
    """Outcome of one curvature search; ``<u, grad f> >= 0`` always."""

    u: np.ndarray  # unit tangent rows
    lam_h: float
    certified: bool  # the top Ritz value minus mu_H is at most epsilon
    steps: int  # Lanczos steps taken
    capped: bool  # max_power_iters shortened the step count


def _eigen_direction(state: _State, geom, cap: int | None, epsilon: float,
                     lam_prev: float | None, rng, pair: bool = False) -> list[_Search]:
    """Top-curvature search by Lanczos from a random unit tangent, of at most
    ``cap`` steps (None for no cap).

    The search runs on ``state``'s own rows, product and multiplier, with no
    checked point or tangent: each step is one product and one projection, of
    the recurrence's residual.  When the
    top Ritz value certifies curvature at most ``epsilon``, ``lam_h`` is that
    value and ``u`` the start vector, whose curvature it bounds.  Otherwise
    ``u`` is the Ritz vector, rebuilt by running the same recurrences again
    and re-projected onto the tangent space, and ``lam_h`` its Rayleigh
    quotient (one more product).  Either way ``u`` is raw rows.

    ``pair`` runs the certificate's retry beside it: a second search from the
    next start drawn from ``rng``, with the same step count, whose products
    share the first one's calls.  The searches are returned in order up to the
    first that does not certify; a retry behind a first search that did not
    certify is dropped unread, so only one Ritz vector is ever rebuilt.  The
    returned searches are added to ``geom``'s tallies; a dropped retry is not.
    """
    mu_H = geom.shift(state)
    starts = [stiefel._random_tangent(state.rows, geom.d, rng) for _ in range(1 + pair)]
    steps, capped = _krylov_step_count(cap, geom.n, geom.tangent_dim(), mu_H,
                                       epsilon, lam_prev)
    # Hess + mu_H I is mu_H on the normal space, the top of the tangent spectrum
    # near a critical point, so roundoff left there by an unprojected residual
    # would grow and push Ritz values above the spectrum
    project = functools.partial(stiefel._project, state.rows, d=geom.d)
    run = functools.partial(_lanczos, _shifted_hessian(state, mu_H, geom.dot), project,
                            starts, mu_H)
    *_, (alphas, betas, _) = itertools.islice(run(), steps)
    searches = []
    for i, (u, alpha, beta) in enumerate(zip(starts, alphas, betas)):
        # the tridiagonal is small (the step count), so a dense solve is cheap;
        # it is a full eigh, not eigenvalues alone, since the Ritz vector below
        # is rebuilt from the top eigenvector's coefficients
        theta, coef = np.linalg.eigh(_tridiagonal(alpha, beta))
        lam_h = float(theta[-1]) - mu_H
        certified = lam_h <= epsilon
        if not certified:
            # the Ritz vector sum_j coef_j v_j from a replay of the whole run: a
            # dense product of another width differs in roundoff, which lost
            # orthogonality in a long run amplifies until the vector is noise
            rows = coef[0, -1] * u
            for c, (_, _, v) in zip(coef[1:, -1], run()):
                rows += c * v[i]
            rows = project(rows)
            u = rows / np.linalg.norm(rows)
            lam_h = stiefel._rayleigh(u, geom.dot(u), state.lam, geom.d)
        if float(np.sum(u * state.grad)) < 0.0:
            u = -u
        searches.append(_Search(u, lam_h, certified, len(alpha), capped))
        if not certified:
            break
    geom.searches += len(searches)
    geom.krylov_steps += sum(search.steps for search in searches)
    geom.cap_hit = geom.cap_hit or capped
    return searches


def direction_finding(A: SymmetricMatrix, config, mu_G: float, *,
                      epsilon: float, lam_floor: float | None = None, seed=0):
    """One pass of the search-direction routine.

    Returns ``(u, kind, lam_h)`` with ``u`` a unit tangent: the normalized
    gradient when its norm exceeds ``mu_G`` (kind ``"gradient"``), otherwise
    a Lanczos direction of near-maximal curvature with ``<u, grad f> >= 0``
    (kind ``"eigen"``).  ``lam_h`` is the Hessian Rayleigh quotient of ``u``,
    except that a value at or below the target epsilon on an eigen direction
    is the Lanczos bound on the top curvature of the whole Krylov space
    searched; it signals termination, not an error.  The search's step count
    is uncapped, and it fails with probability at most 1/n.  A d > 1 point
    runs on the Stiefel product, which needs ``A.block_dim == d``.  An
    ``epsilon`` that is not positive and finite raises ValueError.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise ValueError("epsilon must be positive and finite")
    geom = _Geometry(A, config.k, _manifold_of(config))
    state = geom.evaluate(config)
    if state.grad_norm > mu_G:
        u, kind = (1.0 / state.grad_norm) * state.grad, "gradient"
        lam_h = stiefel._rayleigh(u, geom.dot(u), state.lam, geom.d)
    else:
        search = _eigen_direction(state, geom, None, epsilon, lam_floor,
                                  np.random.default_rng(seed))[0]
        u, kind, lam_h = search.u, "eigen", search.lam_h
    return stiefel.StiefelTangent(u, state.config), kind, lam_h


# -- the trust-region schedule ------------------------------------------------------


class _Step(NamedTuple):
    kind: str  # "gradient" | "eigen" | "none" (certified twice: no movement)
    eta: float
    state: _State  # after the step; the unchanged state for "none"
    lam_h: float = math.nan
    krylov_steps: int = 0  # Lanczos steps of the step's curvature searches
    capped: bool = False  # max_power_iters shortened the step's searches

    def record(self, index: int) -> StepRecord:
        return StepRecord(index, self.kind, self.eta, self.state.objective,
                          self.state.grad_norm, self.lam_h, self.krylov_steps)


def _schedule(geom: _Geometry, state: _State, opts: SolverOptions, epsilon: float, rng):
    """The schedule of the module docstring from ``state``: one ``_Step`` per
    step, ending after a ``"none"`` step (callers cap the count).

    A zero matrix or a trivial tangent space (d = k = 1) is certified as it
    stands, at once and with curvature 0.  A certificate is retried once from a
    fresh start (the same ``lam_prev`` gives the same count), and a second one
    is kind ``"none"`` with ``lam_h`` the larger bound.  Before the first eigen
    step a certificate is likely, so the retry runs beside the search
    (``_eigen_direction`` with ``pair``) and both take the products of one.
    """
    if geom.l1 == 0.0 or geom.tangent_dim() == 0:
        yield _Step("none", 0.0, state, 0.0)
        return
    cap, lam_prev = opts.max_power_iters, None
    while True:
        if opts.mode == MODE_GRADIENT_EIGEN and state.grad_norm > geom.A.opnorm():
            for state, t in _ascent(geom, state, geom.A.opnorm(), *_PAPER):
                yield _Step("gradient", t, state)
        searches = _eigen_direction(state, geom, cap, epsilon, lam_prev, rng,
                                    pair=lam_prev is None)
        if searches[-1].certified and len(searches) == 1:
            searches += _eigen_direction(state, geom, cap, epsilon, lam_prev, rng)
        krylov_steps = sum(search.steps for search in searches)
        search = searches[-1]
        if search.certified:
            yield _Step("none", 0.0, state, max(s.lam_h for s in searches), krylov_steps,
                        search.capped)
            return
        lam_prev = search.lam_h
        if opts.mode == MODE_EIGEN_ONLY:
            eta = lam_prev / (100.0 * geom.l1)
        else:
            eta = min(math.sqrt(lam_prev / (216.0 * geom.l1)),
                      lam_prev / (12.0 * geom.A.opnorm()))
        state = geom.advance(state, search.u, eta)
        yield _Step("eigen", eta, state, lam_prev, krylov_steps, search.capped)


def _target(A: SymmetricMatrix, opts: SolverOptions) -> float:
    """``opts.epsilon``, or ``default_epsilon`` when it is None."""
    return opts.epsilon if opts.epsilon is not None else default_epsilon(A, opts.k, opts.manifold)


def rtr_step(A: SymmetricMatrix, config, opts: SolverOptions):
    """The first step of ``solve(A, opts, sigma0=config)``; returns (next_config, record).

    A gradient step is the first step of the paper's ``_ascent`` from
    ``config``, so its trial length is 1/(4 ||A||_1).  A zero matrix, a
    trivial tangent space (d = k = 1), or curvature certified at or below the
    target by two Lanczos searches in a row gives kind ``"none"`` and no
    movement.  As in ``solve``, a ``config`` of another rank or block size
    than ``opts`` asks for raises ValueError, and so does k_d <= 1 without
    ``opts.epsilon``.
    """
    opts.validate()
    geom, state, _, rng = _climb(A, opts.k, opts.manifold, config, opts.seed, 0)
    step = next(_schedule(geom, state, opts, _target(A, opts), rng))
    return step.state.config, step.record(0)


# -- full solves -----------------------------------------------------------------


def solve(A: SymmetricMatrix, opts: SolverOptions, sigma0=None, *,
          warm_iters: int = 0) -> SolveReport:
    """Climb from a start, then run the trust-region schedule until the curvature
    certificate holds.

    The start is the first draw of ``opts.seed``'s stream even when ``sigma0``
    replaces it, so the searches draw the same Gaussians either way, none of
    them the start's.  The climb is at most ``warm_iters`` steps of the warm
    start's ``_ascent``, which stops once the gradient norm is at most
    1e-3 ||A||_1 and draws nothing.  Then at most the budget's steps of
    ``_schedule`` run, one trace row each; the run stops when a Lanczos
    certificate reports top curvature at most epsilon twice in a row, or when
    the step budget is exhausted.  ``converged`` is False then, and also when
    ``max_power_iters`` shortened the final certificate's step count (no
    exception either way).  A start of another rank or block size than
    ``opts`` raises ValueError.
    """
    opts.validate()
    if warm_iters < 0:
        raise ValueError("warm_iters must be >= 0")
    geom, state, warm_steps, rng = _climb(A, opts.k, opts.manifold, sigma0, opts.seed, warm_iters)
    epsilon = _target(A, opts)
    budget = opts.max_iters if opts.max_iters is not None else worst_case_budget(A, epsilon, opts.mode)
    trace = [StepRecord(0, "init", 0.0, state.objective, state.grad_norm)]
    steps = itertools.islice(_schedule(geom, state, opts, epsilon, rng), budget)
    for index, step in enumerate(steps, 1):
        if step.kind == "none":
            # a shortened count certifies less than the analysis states
            converged, cert = not step.capped, step.lam_h
            break
        state = step.state
        trace.append(step.record(index))
    else:
        # budget exhausted: measure (but do not certify) the current curvature
        lam_prev = next((rec.lam_h for rec in reversed(trace) if rec.kind == "eigen"), None)
        converged = False
        cert = _eigen_direction(state, geom, opts.max_power_iters, epsilon, lam_prev, rng)[0].lam_h

    kinds, searches = [rec.kind for rec in trace], geom.searches
    return SolveReport(sigma=state.config, objective=state.objective, grad_norm=state.grad_norm,
                       curvature_cert=float(cert), converged=converged,
                       gradient_steps=kinds.count("gradient"), eigen_steps=kinds.count("eigen"),
                       trace=trace, seed=opts.seed, epsilon=epsilon, mode=opts.mode,
                       manifold=geom.manifold, budget=budget, krylov_steps=geom.krylov_steps,
                       cap_hit=geom.cap_hit,
                       failure_prob=min((1 + searches) / geom.n, 1.0) if searches else 0.0,
                       warm_steps=warm_steps, products=geom.products)


def projected_gradient_ascent(A: SymmetricMatrix, sigma0, step: float | None = None,
                              iters: int = 1000, *, grad_tol: float | None = None,
                              record_every: int = 1) -> SolveReport:
    """Fixed-step projected gradient ascent baseline.

    Updates sigma <- P_M(sigma + step * grad f(sigma)) with the raw
    (unnormalized) gradient; the objective trace need not be monotone.  The
    default step is 1/(20 ||A||_1).  ``grad_tol`` adds an early exit; the
    report's ``converged`` flag reflects it when given.  A d > 1 start runs
    on the Stiefel product, which needs ``A.block_dim == d``.  A step that is
    not positive and finite, a negative ``iters`` or a ``record_every`` below
    1 raises ValueError.
    """
    if iters < 0:
        raise ValueError("iters must be >= 0")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    geom = _Geometry(A, sigma0.k, _manifold_of(sigma0))
    l1 = geom.l1
    if step is None:
        step = 1.0 / (20.0 * l1) if l1 > 0.0 else 0.0
    elif not (step > 0.0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    state = geom.evaluate(sigma0)
    trace = [StepRecord(0, "init", 0.0, state.objective, state.grad_norm)]
    done = 0
    hit_tol = grad_tol is not None and state.grad_norm <= grad_tol
    for it in range(1, iters + 1):
        if hit_tol or step == 0.0 or state.grad_norm == 0.0:
            break
        state = geom.advance(state, state.grad, step)
        done = it
        if it % record_every == 0 or it == iters:
            trace.append(StepRecord(it, "pga", step, state.objective, state.grad_norm))
        if grad_tol is not None and state.grad_norm <= grad_tol:
            hit_tol = True
    converged = hit_tol if grad_tol is not None else True
    return SolveReport(sigma=state.config, objective=state.objective, grad_norm=state.grad_norm,
                       curvature_cert=math.nan, converged=converged, gradient_steps=done,
                       eigen_steps=0, trace=trace, seed=-1, epsilon=math.nan, mode="pga",
                       manifold=geom.manifold, budget=iters, products=geom.products)
