"""Fast Riemannian trust-region solver with a curvature-certificate stop.

Two step schedules are implemented:

* ``eigen-only``: every step moves along an approximate top-curvature
  direction found by Lanczos iteration, with step size
  lam_H / (100 ||A||_1).
* ``gradient-eigen``: while the Riemannian gradient is large (above the
  spectral norm of A) take fixed-size gradient steps ||A||_2 / (20 ||A||_1);
  otherwise take an eigen-step of size
  min(sqrt(lam_H / (216 ||A||_1)), lam_H / (12 ||A||_2)).

The run stops once a Lanczos run on the shifted Hessian certifies that the
largest Hessian curvature is (with high probability) below the target
epsilon; the certificate is retried once with a fresh start before
convergence is declared.  The number of Lanczos steps comes from the
Kuczynski-Wozniakowski random-start bound (SIAM J. Matrix Anal. Appl. 1992),
so it grows like log(n) / sqrt(epsilon) where the power method's grows like
log(n) / epsilon.  A projected-gradient-ascent baseline shares the report
format.

There is one geometry, the frame product of ``stiefel``: the default
``manifold="sphere"`` is its d = 1 case, the product of spheres, and
``manifold="stiefel"`` takes d from the matrix's ``block_dim``.  ``solve``
loops over the same private step that ``rtr_step`` takes once, and
``warm_start`` is the gradient-ascent start that the CLI and
``analysis.estimate_sdp`` put in front of a certified solve.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import sphere, stiefel
from .symmat import SymmetricMatrix

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
    "warm_start",
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
    """

    k: int
    mode: str = MODE_GRADIENT_EIGEN
    epsilon: float | None = None
    max_iters: int | None = None
    power_C: float = 8.0
    seed: int = 0
    manifold: str = "sphere"
    max_power_iters: int | None = None

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError("rank k must be >= 1")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}")
        if self.epsilon is not None and not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.power_C <= 0.0:
            raise ValueError("power_C must be positive")
        if self.max_power_iters is not None and self.max_power_iters < 1:
            raise ValueError("max_power_iters must be >= 1")
        if self.manifold not in ("sphere", "stiefel"):
            raise ValueError("manifold must be 'sphere' or 'stiefel'")


@dataclass(frozen=True)
class StepRecord:
    index: int
    kind: str  # "init" | "gradient" | "eigen" | "pga" | "none"
    step_size: float
    objective: float
    grad_norm: float
    lam_h: float = math.nan


@dataclass
class SolveReport:
    """Outcome of a solve: final point, certificate, and per-step trace.

    ``krylov_steps`` totals the Lanczos steps of every curvature search
    (one Hessian product each; a stepping direction replays its run once
    more to rebuild the Ritz vector).  ``cap_hit`` records whether
    ``max_power_iters`` shortened any step count below the one the
    analysis asks for; a solve whose final certificate was shortened is
    not reported as converged.
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

    @property
    def iterations(self) -> int:
        return self.gradient_steps + self.eigen_steps

    def summary_line(self) -> str:
        return ("mode=%s manifold=%s converged=%s f=%.10g grad_norm=%.4g cert=%.4g "
                "steps=%d (gradient=%d eigen=%d) krylov_steps=%d cap_hit=%s eps=%.4g seed=%d"
                % (self.mode, self.manifold, self.converged, self.objective,
                   self.grad_norm, self.curvature_cert, self.iterations,
                   self.gradient_steps, self.eigen_steps, self.krylov_steps,
                   self.cap_hit, self.epsilon, self.seed))

    def trace_csv(self, path) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "f", "grad_norm", "kind", "step", "lam_h"])
            for rec in self.trace:
                writer.writerow([rec.index, f"{rec.objective:.17g}",
                                 f"{rec.grad_norm:.17g}", rec.kind, f"{rec.step_size:.17g}",
                                 f"{rec.lam_h:.17g}"])
            writer.writerow(["# " + self.summary_line()])


# -- geometry -------------------------------------------------------------------


@dataclass
class _State:
    config: object
    hess: object
    objective: float
    grad: object
    grad_norm: float


class _Geometry:
    """The frame product a solve runs on, with the constants of its analysis.

    ``manifold="stiefel"`` takes d = ``A.block_dim``; ``"sphere"`` is d = 1
    with the sphere names' Hessian, which accepts any block structure.
    """

    def __init__(self, A: SymmetricMatrix, k: int, manifold: str):
        if manifold == "stiefel":
            if A.block_dim is None:
                raise ValueError("stiefel solves need a matrix with block_dim set")
            d, self._hessian = A.block_dim, stiefel.OcHessianOperator
        else:
            d, self._hessian = 1, sphere.HessianOperator
        if k < d:
            raise ValueError("rank k must be at least the block dimension d")
        self.A, self.k, self.d, self.n, self.m = A, k, d, A.n, A.n // d
        self.manifold = manifold
        self.l1 = A.l1_norm()
        # upper bound on ||Hess||: 2(||A||_2 + ||Lambda||_2) <= 2(1 + sqrt(d)) ||A||_1,
        # which is 4||A||_1 on the sphere product
        self.mu_H = 2.0 * (1.0 + math.sqrt(d)) * self.l1

    def tangent_dim(self) -> int:
        return self.m * (self.d * (self.k - self.d) + self.d * (self.d - 1) // 2)

    def random_point(self, seed):
        return stiefel.oc_random_config(self.m, self.d, self.k, seed)

    def evaluate(self, config) -> _State:
        h = self._hessian(self.A, config)
        g = h.gradient()
        return _State(config, h, h.objective_value(), g, g.norm)


def _manifold_of(config) -> str:
    return "sphere" if config.d == 1 else "stiefel"


def _scaled(u, c: float):
    return stiefel.StiefelTangent(c * u.rows, u.base)


def random_start(A: SymmetricMatrix, k: int, seed, manifold: str = "sphere"):
    """Uniformly random point of the manifold a solve with these options runs on.

    ``seed`` may be an integer or a numpy Generator (which is advanced).
    """
    return _Geometry(A, k, manifold).random_point(seed)


def warm_start(A: SymmetricMatrix, k: int, seed, *, manifold: str = "sphere",
               iters: int = 3000):
    """Random start climbed by gradient ascent: the usual start of a certified solve.

    Any start is admissible; plain ascent with step 1/(4||A||_1) climbs fast
    and stops once the gradient norm falls to 1e-3 ||A||_1, so the certified
    trust-region tail is short.  ``seed`` is used as in ``random_start``.
    """
    start = random_start(A, k, seed, manifold)
    l1 = A.l1_norm()
    if l1 == 0.0:
        return start
    return projected_gradient_ascent(A, start, step=1.0 / (4.0 * l1), iters=iters,
                                     grad_tol=1e-3 * l1, record_every=10**9).sigma


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
    """Worst-case step budget of the convergence analysis (a loose cap)."""
    n = A.n
    l1 = A.l1_norm()
    if l1 == 0.0:
        return 1
    if mode == MODE_EIGEN_ONLY:
        t = 64e4 * n * l1**2 / epsilon**2
    else:
        l2 = max(A.opnorm(), 1e-300)
        rg_proxy = 2.0 * n * l2
        t_g = 40.0 * l1 * rg_proxy / l2**2
        t_h = 1728.0 * n * l1 / epsilon + 1152.0 * n * l2**2 / epsilon**2
        t = t_g + t_h
    return int(min(math.ceil(t), _BUDGET_CAP))


# -- power method, Lanczos and direction finding -------------------------------


def power_method(H, mu_H: float, N_H: int, seed):
    """Shifted power iteration on the Hessian operator.

    Starts from a uniformly random unit tangent and iterates
    u <- Hess[u] + mu_H * u (normalized).  ``N_H = 0`` returns the random
    start itself.  ``seed`` may be an integer or a numpy Generator.
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


# Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 1992): for a positive
# semidefinite operator on R^D and a uniformly random unit start, q Lanczos
# steps leave the top Ritz value below (1 - e) lam_max with probability at
# most _KW_CONST sqrt(D) exp(-sqrt(e) (2q - 1)).
_KW_CONST = 1.648
# a residual this small relative to the shift means the Krylov space closed
_BREAKDOWN = 1e-12


def _krylov_step_count(opts: SolverOptions, n: int, dim: int, mu_H: float,
                       epsilon: float, lam_prev: float | None) -> tuple[int, bool]:
    """Lanczos steps for one curvature search; returns ``(steps, capped)``.

    Hess + mu_H I is positive semidefinite with top eigenvalue at most
    2 mu_H, so relative accuracy e = lam_ref / (2 mu_H) loses at most lam_ref
    of curvature; lam_ref is the best available lower bound on the top
    curvature (the previous eigen Rayleigh value, floored at epsilon).  The
    count makes the Kuczynski-Wozniakowski failure probability at most
    n^(-power_C / 8).  It is capped at ``dim``, where the Krylov space is
    exhausted, and at ``max_power_iters``; ``capped`` reports whether the
    latter shortened it.
    """
    lam_ref = max(lam_prev if lam_prev is not None else 0.0, epsilon)
    e = min(lam_ref / (2.0 * mu_H), 1.0)
    log_ratio = math.log(_KW_CONST * math.sqrt(dim)) + opts.power_C / 8.0 * math.log(n)
    steps = max(min(math.ceil((log_ratio / math.sqrt(e) + 1.0) / 2.0), dim), 1)
    if opts.max_power_iters is not None and opts.max_power_iters < steps:
        return int(opts.max_power_iters), True
    return steps, False


def _lanczos_tridiagonal(H, mu_H: float, project, start: np.ndarray, steps: int):
    """Three-term Lanczos recurrence on Hess + mu_H I from unit tangent rows.

    Only the last two basis vectors are held, so memory stays O(D).  Each new
    vector is projected back onto the tangent space with ``project``: the
    shifted operator acts on the normal space as mu_H, at the top of the
    tangent spectrum once the curvature is small, so roundoff there would
    grow like a top eigencomponent and push Ritz values above the spectrum.
    Returns the diagonal and off-diagonal of the tridiagonal matrix, stopping
    early when the Krylov space closes.
    """
    alpha: list[float] = []
    beta: list[float] = []
    v_prev, v = None, start
    for j in range(steps):
        w = H.apply_rows(v) + mu_H * v
        if v_prev is not None:
            w -= beta[-1] * v_prev
        alpha.append(float(np.sum(w * v)))
        w = project(w - alpha[-1] * v)
        b = float(np.linalg.norm(w))
        if j + 1 == steps or b <= _BREAKDOWN * mu_H:
            break
        beta.append(b)
        v_prev, v = v, w / b
    return np.array(alpha), np.array(beta)


def _lanczos_combination(H, mu_H: float, project, start: np.ndarray, alpha: np.ndarray,
                         beta: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """sum_j coef_j v_j over the Lanczos basis of ``_lanczos_tridiagonal``.

    Replays the recurrence from the same start with the stored coefficients,
    in the same order of operations, so the basis is rebuilt bit for bit at
    the cost of len(alpha) - 1 products.
    """
    out = coef[0] * start
    v_prev, v = None, start
    for j, b in enumerate(beta):
        w = H.apply_rows(v) + mu_H * v
        if v_prev is not None:
            w -= beta[j - 1] * v_prev
        w = project(w - alpha[j] * v)
        v_prev, v = v, w / b
        out += coef[j + 1] * v
    return out


class _Search(NamedTuple):
    """Outcome of one curvature search; ``<u, grad f> >= 0`` always."""

    u: object
    lam_h: float
    certified: bool  # the top Ritz value minus mu_H is at most epsilon
    steps: int  # Lanczos steps taken
    capped: bool  # max_power_iters shortened the step count


def _eigen_direction(state: _State, geom, opts: SolverOptions, epsilon: float,
                     lam_prev: float | None, rng) -> _Search:
    """Top-curvature search by Lanczos from a random unit tangent.

    When the top Ritz value certifies curvature at most ``epsilon``, ``lam_h``
    is that value and ``u`` the start vector, whose curvature it bounds.
    Otherwise ``u`` is the Ritz vector, rebuilt by a second pass and
    re-projected onto the tangent space, and ``lam_h`` its Rayleigh quotient.
    """
    H, mu_H = state.hess, geom.mu_H
    u = H.random_tangent(rng)
    steps, capped = _krylov_step_count(opts, geom.n, geom.tangent_dim(), mu_H,
                                       epsilon, lam_prev)
    project = functools.partial(stiefel.project_rows, state.config)
    alpha, beta = _lanczos_tridiagonal(H, mu_H, project, u.rows, steps)
    # the tridiagonal is small (the step count), so a dense solve is cheap
    # and keeps scipy.linalg out of the process
    theta, coef = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    lam_h = float(theta[-1]) - mu_H
    certified = lam_h <= epsilon
    if not certified:
        rows = project(_lanczos_combination(H, mu_H, project, u.rows, alpha, beta, coef[:, -1]))
        u = type(u)(rows / np.linalg.norm(rows), state.config)
        lam_h = H.rayleigh(u)
    if float(np.sum(u.rows * state.grad.rows)) < 0.0:
        u = _scaled(u, -1.0)
    return _Search(u, lam_h, certified, int(alpha.size), capped)


def direction_finding(A: SymmetricMatrix, config, mu_G: float, *,
                      epsilon: float, power_C: float = 8.0,
                      lam_floor: float | None = None, seed=0,
                      max_power_iters: int | None = None):
    """One pass of the search-direction routine.

    Returns ``(u, kind, lam_h)`` with ``u`` a unit tangent: the normalized
    gradient when its norm exceeds ``mu_G`` (kind ``"gradient"``), otherwise
    a Lanczos direction of near-maximal curvature with ``<u, grad f> >= 0``
    (kind ``"eigen"``).  ``lam_h`` is the Hessian Rayleigh quotient of ``u``,
    except that a value at or below the target epsilon on an eigen direction
    is the Lanczos bound on the top curvature of the whole Krylov space
    searched; it signals termination, not an error.  ``power_C`` sets the
    per-search failure probability to ``n^(-power_C/8)``.  A d > 1 point
    runs on the Stiefel product, which needs ``A.block_dim == d``.
    """
    opts = SolverOptions(k=config.k, power_C=power_C, max_power_iters=max_power_iters)
    opts.validate()
    geom = _Geometry(A, config.k, _manifold_of(config))
    state = geom.evaluate(config)
    rng = np.random.default_rng(seed)
    if state.grad_norm > mu_G:
        u = _scaled(state.grad, 1.0 / state.grad_norm)
        return u, "gradient", state.hess.rayleigh(u)
    search = _eigen_direction(state, geom, opts, epsilon, lam_floor, rng)
    return search.u, "eigen", search.lam_h


# -- the trust-region step ---------------------------------------------------------


class _Step(NamedTuple):
    kind: str  # "gradient" | "eigen" | "none" (certified twice: no movement)
    eta: float
    state: _State  # after the step; the unchanged state for "none"
    lam_h: float
    krylov_steps: int
    capped: bool


def _step(state: _State, geom: _Geometry, opts: SolverOptions, epsilon: float,
          lam_prev: float | None, rng) -> _Step:
    """One step of the schedule in the module docstring (``geom.l1`` must be positive).

    A search that certifies curvature at most ``epsilon`` is retried once
    from a fresh start (a random start fails with small probability; the
    same ``lam_prev`` gives the same count), and a second certificate means
    kind ``"none"`` with ``lam_h`` the larger bound.
    """
    l1 = geom.l1
    if opts.mode == MODE_GRADIENT_EIGEN and state.grad_norm > geom.A.opnorm():
        eta = geom.A.opnorm() / (20.0 * l1)
        u = _scaled(state.grad, 1.0 / state.grad_norm)
        nxt = geom.evaluate(stiefel.oc_retract(state.config, u, eta))
        return _Step("gradient", eta, nxt, math.nan, 0, False)
    search = _eigen_direction(state, geom, opts, epsilon, lam_prev, rng)
    krylov_steps = search.steps
    if search.certified:
        retry = _eigen_direction(state, geom, opts, epsilon, lam_prev, rng)
        krylov_steps += retry.steps
        if retry.certified:
            return _Step("none", 0.0, state, max(search.lam_h, retry.lam_h),
                         krylov_steps, search.capped)
        search = retry
    lam_h = search.lam_h
    if opts.mode == MODE_EIGEN_ONLY:
        eta = lam_h / (100.0 * l1)
    else:
        eta = min(math.sqrt(lam_h / (216.0 * l1)), lam_h / (12.0 * geom.A.opnorm()))
    nxt = geom.evaluate(stiefel.oc_retract(state.config, search.u, eta))
    return _Step("eigen", eta, nxt, lam_h, krylov_steps, search.capped)


def rtr_step(A: SymmetricMatrix, config, opts: SolverOptions, *,
             rng=None, lam_prev: float | None = None):
    """One step of the trust-region schedule; returns (next_config, record).

    A zero matrix, or curvature certified at or below the target by two
    Lanczos searches in a row, produces no movement (kind ``"none"``).
    """
    opts.validate()
    rng = np.random.default_rng(opts.seed if rng is None else rng)
    geom = _Geometry(A, opts.k, opts.manifold)
    state = geom.evaluate(config)
    if geom.l1 == 0.0:
        return config, StepRecord(0, "none", 0.0, state.objective, state.grad_norm, 0.0)
    epsilon = opts.epsilon if opts.epsilon is not None else default_epsilon(A, opts.k, opts.manifold)
    step = _step(state, geom, opts, epsilon, lam_prev, rng)
    return step.state.config, StepRecord(0, step.kind, step.eta, step.state.objective,
                                         step.state.grad_norm, step.lam_h)


# -- full solves -----------------------------------------------------------------


def solve(A: SymmetricMatrix, opts: SolverOptions, sigma0=None) -> SolveReport:
    """Run the trust-region method until the curvature certificate holds.

    Terminates when the gradient threshold is met (gradient-eigen mode) and a
    Lanczos certificate reports top curvature at most epsilon twice in a row,
    or when the step budget is exhausted.  ``converged`` is False then, and
    also when ``max_power_iters`` shortened the final certificate's step
    count (no exception either way).  Any starting point is admissible;
    ``sigma0=None`` draws a uniformly random one.
    """
    opts.validate()
    geom = _Geometry(A, opts.k, opts.manifold)
    rng = np.random.default_rng(opts.seed)
    config = sigma0 if sigma0 is not None else geom.random_point(rng)
    epsilon = opts.epsilon if opts.epsilon is not None else default_epsilon(A, opts.k, opts.manifold)
    state = geom.evaluate(config)
    trace = [StepRecord(0, "init", 0.0, state.objective, state.grad_norm)]

    if geom.l1 == 0.0 or geom.tangent_dim() == 0:
        return SolveReport(sigma=config, objective=state.objective, grad_norm=state.grad_norm,
                           curvature_cert=0.0, converged=True, gradient_steps=0, eigen_steps=0,
                           trace=trace, seed=opts.seed, epsilon=epsilon, mode=opts.mode,
                           manifold=geom.manifold, budget=0)

    budget = opts.max_iters if opts.max_iters is not None else worst_case_budget(A, epsilon, opts.mode)
    counts = {"gradient": 0, "eigen": 0}
    krylov_steps = 0
    cap_hit = converged = False
    lam_prev: float | None = None
    for it in range(1, budget + 1):
        step = _step(state, geom, opts, epsilon, lam_prev, rng)
        krylov_steps += step.krylov_steps
        cap_hit = cap_hit or step.capped
        if step.kind == "none":
            cert = step.lam_h
            # a shortened count certifies less than the analysis states
            converged = not step.capped
            break
        state = step.state
        counts[step.kind] += 1
        if step.kind == "eigen":
            lam_prev = step.lam_h
        trace.append(StepRecord(it, step.kind, step.eta, state.objective, state.grad_norm,
                                step.lam_h))
    else:
        # budget exhausted: measure (but do not certify) the current curvature
        search = _eigen_direction(state, geom, opts, epsilon, lam_prev, rng)
        cert = search.lam_h
        krylov_steps += search.steps
        cap_hit = cap_hit or search.capped

    return SolveReport(sigma=state.config, objective=state.objective, grad_norm=state.grad_norm,
                       curvature_cert=float(cert), converged=converged,
                       gradient_steps=counts["gradient"], eigen_steps=counts["eigen"],
                       trace=trace, seed=opts.seed, epsilon=epsilon, mode=opts.mode,
                       manifold=geom.manifold, budget=budget, krylov_steps=krylov_steps,
                       cap_hit=cap_hit)


def projected_gradient_ascent(A: SymmetricMatrix, sigma0, step: float | None = None,
                              iters: int = 1000, *, grad_tol: float | None = None,
                              record_every: int = 1) -> SolveReport:
    """Fixed-step projected gradient ascent baseline.

    Updates sigma <- P_M(sigma + step * grad f(sigma)) with the raw
    (unnormalized) gradient; the objective trace need not be monotone.  The
    default step is 1/(20 ||A||_1).  ``grad_tol`` adds an early exit; the
    report's ``converged`` flag reflects it when given.  A d > 1 start runs
    on the Stiefel product, which needs ``A.block_dim == d``.
    """
    geom = _Geometry(A, sigma0.k, _manifold_of(sigma0))
    l1 = geom.l1
    if step is None:
        step = 1.0 / (20.0 * l1) if l1 > 0.0 else 0.0
    elif step <= 0.0:
        raise ValueError("step must be positive")
    state = geom.evaluate(sigma0)
    trace = [StepRecord(0, "init", 0.0, state.objective, state.grad_norm)]
    done = 0
    hit_tol = grad_tol is not None and state.grad_norm <= grad_tol
    for it in range(1, iters + 1):
        if hit_tol or step == 0.0 or state.grad_norm == 0.0:
            break
        state = geom.evaluate(stiefel.oc_retract(state.config, state.grad, step))
        done = it
        if it % record_every == 0 or it == iters:
            trace.append(StepRecord(it, "pga", step, state.objective, state.grad_norm))
        if grad_tol is not None and state.grad_norm <= grad_tol:
            hit_tol = True
    converged = hit_tol if grad_tol is not None else True
    return SolveReport(sigma=state.config, objective=state.objective, grad_norm=state.grad_norm,
                       curvature_cert=math.nan, converged=converged, gradient_steps=done,
                       eigen_steps=0, trace=trace, seed=-1, epsilon=math.nan, mode="pga",
                       manifold=geom.manifold, budget=iters)
