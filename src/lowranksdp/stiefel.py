"""Geometry of the frame product: the one implementation behind both problems.

A point is an (m*d) x k matrix whose i-th row block R_i (d rows) satisfies
R_i R_i^T = I_d, i.e. the transposed k x d frame sigma_i is orthonormal; the
objective is the quadratic form <sigma, A sigma>.  Tangent blocks U_i satisfy
skew-symmetry of U_i R_i^T.  The retraction is the blockwise polar factor
(nearest orthonormal frame).

d > 1 is the Stiefel product of the Orthogonal-Cut problem.  d = 1 is the
product of unit spheres of MaxCut and Z2 synchronization: there every
operation runs the row kernels (row normalization as the retraction, row
projections, a diagonal multiplier) and the unit-row tolerance ``ROW_TOL``,
so ``sphere``, which holds the d = 1 names, and a d = 1 Stiefel solve agree
to the bit (tests/test_stiefel.py, tests/test_solver.py).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .symmat import SymmetricMatrix, _write_lines

__all__ = [
    "StiefelConfig",
    "StiefelTangent",
    "OcHessianOperator",
    "oc_project_tangent",
    "oc_retract",
    "oc_gradient",
    "oc_rayleigh",
    "oc_objective",
    "oc_random_config",
    "oc_random_tangent",
    "oc_lambda_blocks",
    "save_oc_config",
    "load_oc_config",
    "write_config",
    "read_config",
]

ROW_TOL = 1e-10  # d = 1: unit rows, and rows orthogonal to the base rows
BLOCK_TOL = 1e-9  # d > 1: orthonormal blocks, and the block skew condition
_MIN_SINGULAR = 1e-12


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", a, b)


def normalize_rows(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _blocks(rows: np.ndarray, m: int, d: int) -> np.ndarray:
    return rows.reshape(m, d, rows.shape[1])


# -- the point and tangent checks ------------------------------------------------
#
# Both run in the constructors, and so on every point and tangent a solve
# builds: they sum along rows with one BLAS product instead of numpy's slow
# short-axis reductions, which moves no value the solver computes.


def _row_sums(x: np.ndarray) -> np.ndarray:
    return x @ np.ones(x.shape[1])


def _check_point(rows: np.ndarray, d: int) -> None:
    """Raise ValueError unless each block of d rows is orthonormal (unit rows at d = 1).

    Non-finite rows fail: their deviation is NaN or inf.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if d == 1:
            err, tol = np.abs(np.sqrt(_row_sums(rows * rows)) - 1.0), ROW_TOL
        else:
            blk = _blocks(rows, rows.shape[0] // d, d)
            dev = blk @ blk.transpose(0, 2, 1) - np.eye(d)
            err, tol = np.sqrt(_row_sums((dev * dev).reshape(len(dev), d * d))), BLOCK_TOL
    if not np.all(err <= tol):
        raise ValueError("blocks are not orthonormal (max deviation %.3g)" % float(err.max()))


def _check_tangent(rows: np.ndarray, base_rows: np.ndarray, d: int) -> None:
    """Raise ValueError unless each block U_i R_i^T is skew (at d = 1, each row
    is orthogonal to its base row), relative to 1 + |U_i|.

    Non-finite rows fail: their relative deviation is NaN.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        if d == 1:
            err, tol = np.abs(_row_sums(rows * base_rows)), ROW_TOL
            scale = 1.0 + np.sqrt(_row_sums(rows * rows))
        else:
            m = rows.shape[0] // d
            ub = _blocks(rows, m, d)
            s = ub @ _blocks(base_rows, m, d).transpose(0, 2, 1)
            sym = s + s.transpose(0, 2, 1)
            err, tol = np.sqrt(_row_sums((sym * sym).reshape(m, d * d))), BLOCK_TOL
            scale = 1.0 + np.sqrt(_row_sums((ub * ub).reshape(m, -1)))
        ok = np.all(err / scale <= tol)
    if not ok:
        raise ValueError("rows do not satisfy the tangent condition at the base")


@dataclass(frozen=True)
class StiefelConfig:
    """Point of the frame product: m row blocks of d orthonormal rows in R^k.

    ``d = 1`` (the default) is a point of the product of spheres.  Rows that
    are not orthonormal to ``ROW_TOL`` (d = 1) or ``BLOCK_TOL``, non-finite
    rows included, raise ValueError.
    """

    rows: np.ndarray
    d: int = 1

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        d = int(self.d)
        if rows.ndim != 2 or rows.shape[0] < 1 or d < 1 or rows.shape[0] % d != 0:
            raise ValueError("rows must stack m >= 1 blocks of d rows each")
        if rows.shape[1] < d:
            raise ValueError("rank k must be at least the block dimension d")
        _check_point(rows, d)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.rows.shape[0]

    @property
    def k(self) -> int:
        return self.rows.shape[1]

    @property
    def m(self) -> int:
        return self.rows.shape[0] // self.d

    def blocks(self) -> np.ndarray:
        return _blocks(self.rows, self.m, self.d)


@dataclass(frozen=True)
class StiefelTangent:
    """Tangent element: per block, U_i R_i^T is skew-symmetric (at d = 1,
    each row is orthogonal to the base row).  Rows that fail this, non-finite
    rows included, raise ValueError."""

    rows: np.ndarray
    base: StiefelConfig

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        base = self.base
        if rows.shape != base.rows.shape:
            raise ValueError("tangent shape does not match base configuration")
        _check_tangent(rows, base.rows, base.d)
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.rows))


# -- operations ----------------------------------------------------------------


def project_rows(config: StiefelConfig, v: np.ndarray) -> np.ndarray:
    """Blockwise projection v_i - sym(v_i R_i^T) R_i onto the tangent space."""
    if config.d == 1:
        return v - row_dots(config.rows, v)[:, None] * config.rows
    m, d = config.m, config.d
    vb = _blocks(np.asarray(v, dtype=float), m, d)
    rb = config.blocks()
    s = np.einsum("bik,bjk->bij", vb, rb)
    s = 0.5 * (s + s.transpose(0, 2, 1))
    out = vb - np.einsum("bij,bjk->bik", s, rb)
    return out.reshape(config.rows.shape)


def oc_project_tangent(config: StiefelConfig, v: np.ndarray) -> StiefelTangent:
    """Orthogonal projection of an arbitrary matrix onto the tangent space.

    Idempotent and self-adjoint.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != config.rows.shape:
        raise ValueError("shape mismatch in tangent projection")
    return StiefelTangent(project_rows(config, v), config)


def oc_retract(config: StiefelConfig, u: StiefelTangent, t: float) -> StiefelConfig:
    """Blockwise polar retraction: nearest orthonormal frame to sigma + t*u.

    At d = 1 the row is (s_i + t u_i) / sqrt(1 + t^2 |u_i|^2).  Negative t is
    allowed (the curve is defined for all real t), although solver steps are
    nonnegative.
    """
    if u.base is not config and u.base.rows is not config.rows:
        raise ValueError("tangent field is based at a different configuration")
    if t == 0.0:
        return config
    return StiefelConfig(_retract_rows(config.rows, u.rows, t, config.d), config.d)


def _retract_rows(rows: np.ndarray, u_rows: np.ndarray, t: float, d: int) -> np.ndarray:
    """The retraction of ``oc_retract`` on raw rows; the result is not checked."""
    moved = rows + float(t) * u_rows
    if d == 1:
        return normalize_rows(moved)
    w, s, vt = np.linalg.svd(_blocks(moved, rows.shape[0] // d, d), full_matrices=False)
    if s.min() < _MIN_SINGULAR:
        raise ValueError("retraction undefined: rank-deficient block")
    return np.einsum("bij,bjk->bik", w, vt).reshape(moved.shape)


def oc_objective(A: SymmetricMatrix, config: StiefelConfig) -> float:
    """The quadratic objective <sigma, A sigma> = Tr(Lambda).

    It is summed as the solver's reports sum it, so it reproduces their
    ``objective`` to the bit.
    """
    if A.n != config.n:
        raise ValueError("dimension mismatch between matrix and configuration")
    return _objective(_multiplier(config.rows, A.dot(config.rows), config.d), config.d)


# The multiplier, objective and gradient from the rows and their product
# A sigma: the Hessian operator and the solver's raw-row loops share them.


def _multiplier(rows: np.ndarray, asig: np.ndarray, d: int) -> np.ndarray:
    """Lambda: its n diagonal entries at d = 1, else its m symmetrized d x d blocks."""
    if d == 1:
        return row_dots(rows, asig)
    m = rows.shape[0] // d
    lam = np.einsum("bik,bjk->bij", _blocks(asig, m, d), _blocks(rows, m, d))
    return 0.5 * (lam + lam.transpose(0, 2, 1))


def _lam_times(lam: np.ndarray, rows: np.ndarray, d: int) -> np.ndarray:
    if d == 1:
        return lam[:, None] * rows
    return np.einsum("bij,bjk->bik", lam, _blocks(rows, len(lam), d)).reshape(rows.shape)


def _objective(lam: np.ndarray, d: int) -> float:
    """<sigma, A sigma> = Tr(Lambda)."""
    if d == 1:
        return float(lam.sum())
    return float(np.trace(lam.sum(axis=0)))


def _gradient_rows(rows: np.ndarray, asig: np.ndarray, lam: np.ndarray, d: int) -> np.ndarray:
    """Riemannian gradient 2(A - Lambda) sigma; the result is not checked."""
    return 2.0 * (asig - _lam_times(lam, rows, d))


class OcHessianOperator:
    """Riemannian Hessian of the objective at a fixed configuration.

    Lambda is the symmetrized block diagonal of A sigma sigma^T (a diagonal
    at d = 1).  On the tangent space the Hessian acts as
    u -> P_T(2(A - Lambda) u); the quadratic form is 2 <u, (A - Lambda) u>.
    Caches A sigma and Lambda at construction; safe for concurrent read-only
    application.  At d > 1 the matrix must carry ``block_dim == d``; at d = 1
    any matrix of matching size is taken (``sphere.HessianOperator`` is this
    class).
    """

    def __init__(self, A: SymmetricMatrix, config: StiefelConfig):
        self._check(A, config)
        self.A = A
        self.config = config
        self._asig = A.dot(config.rows)
        self._lam = _multiplier(config.rows, self._asig, config.d)

    @classmethod
    def _at(cls, A: SymmetricMatrix, config: StiefelConfig, asig: np.ndarray,
            lam: np.ndarray) -> "OcHessianOperator":
        """The operator at ``config`` from its product A sigma and multiplier Lambda,
        computed from ``config.rows`` by a solve that checked A; takes no product."""
        op = cls.__new__(cls)
        op.A, op.config, op._asig, op._lam = A, config, asig, lam
        return op

    @staticmethod
    def _check(A: SymmetricMatrix, config: StiefelConfig) -> None:
        if A.n != config.n:
            raise ValueError("dimension mismatch between matrix and configuration")
        if config.d > 1 and A.block_dim != config.d:
            raise ValueError("matrix lacks matching block structure (block_dim != d)")

    @property
    def lam(self) -> np.ndarray:
        """Lambda: its n diagonal entries at d = 1, else its m d x d blocks."""
        return self._lam

    def objective_value(self) -> float:
        return _objective(self._lam, self.config.d)

    def gradient(self) -> StiefelTangent:
        """Riemannian gradient 2(A - Lambda) sigma."""
        return StiefelTangent(_gradient_rows(self.config.rows, self._asig, self._lam,
                                             self.config.d), self.config)

    def _check_base(self, u: StiefelTangent) -> None:
        if u.base is not self.config and u.base.rows is not self.config.rows:
            raise ValueError("tangent field is based at a different configuration")

    def apply(self, u: StiefelTangent) -> StiefelTangent:
        """Hess f(sigma)[u]; self-adjoint on the tangent space."""
        self._check_base(u)
        return StiefelTangent(self.apply_rows(u.rows), self.config)

    def apply_rows(self, u_rows: np.ndarray) -> np.ndarray:
        """Hessian action on raw tangent rows, skipping wrapper validation."""
        return self._apply_product(u_rows, self.A.dot(u_rows))

    def _apply_product(self, u_rows: np.ndarray, au_rows: np.ndarray) -> np.ndarray:
        """The action of ``apply_rows`` from the product ``au_rows = A @ u_rows``,
        already computed; takes no product."""
        w = 2.0 * (au_rows - _lam_times(self._lam, u_rows, self.config.d))
        return project_rows(self.config, w)

    def rayleigh(self, u: StiefelTangent) -> float:
        """<u, Hess[u]> / <u, u> via the 2<u, (A - Lambda)u> identity."""
        self._check_base(u)
        uu = float(np.sum(u.rows * u.rows))
        if uu == 0.0:
            raise ValueError("rayleigh quotient of the zero tangent")
        au = self.A.dot(u.rows)
        if self.config.d == 1:
            lam_uu = float(np.sum(self._lam * row_dots(u.rows, u.rows)))
        else:
            lam_uu = float(np.sum(u.rows * _lam_times(self._lam, u.rows, self.config.d)))
        return 2.0 * (float(np.sum(u.rows * au)) - lam_uu) / uu

    def random_tangent(self, seed) -> StiefelTangent:
        return oc_random_tangent(self.config, seed)


def oc_gradient(A: SymmetricMatrix, config: StiefelConfig) -> StiefelTangent:
    """Riemannian gradient 2(A - Lambda) sigma with block-diagonal Lambda."""
    return OcHessianOperator(A, config).gradient()


def oc_lambda_blocks(A: SymmetricMatrix, config: StiefelConfig) -> np.ndarray:
    """The m dense d x d blocks of the constraint multiplier Lambda."""
    return OcHessianOperator(A, config).lam.reshape(config.m, config.d, config.d)


def oc_rayleigh(A: SymmetricMatrix, config: StiefelConfig, u: StiefelTangent) -> float:
    """Hessian quadratic form 2<u, (A - Lambda)u> / <u, u>."""
    return OcHessianOperator(A, config).rayleigh(u)


def oc_random_config(m: int, d: int, k: int, seed) -> StiefelConfig:
    """Blocks drawn as polar factors of Gaussian d x k matrices (normalized
    Gaussian rows at d = 1); deterministic per seed."""
    if m < 1 or d < 1 or k < d:
        raise ValueError("need m, d >= 1 and k >= d")
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m * d, k))
    if d == 1:
        return StiefelConfig(normalize_rows(rows))
    g = rows.reshape(m, d, k)
    u, s, vt = np.linalg.svd(g, full_matrices=False)
    while s.min() < _MIN_SINGULAR:  # essentially impossible for Gaussian draws
        g = rng.standard_normal((m, d, k))
        u, s, vt = np.linalg.svd(g, full_matrices=False)
    polar = np.einsum("bij,bjk->bik", u, vt)
    return StiefelConfig(polar.reshape(m * d, k), d)


def oc_random_tangent(config: StiefelConfig, seed) -> StiefelTangent:
    """Projected Gaussian of unit Frobenius norm; deterministic per seed."""
    if config.d == 1 and config.k == 1:
        raise ValueError("tangent space is trivial for d = k = 1")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        g = rng.standard_normal(config.rows.shape)
        p = project_rows(config, g)
        nrm = np.linalg.norm(p)
        # redraw when the sample is (numerically) normal to the manifold, so
        # normalization never amplifies roundoff into a bogus direction
        if nrm > 1e-8 * np.linalg.norm(g):
            return StiefelTangent(p / nrm, config)
    raise ValueError("degenerate random tangent draw")


# -- text serialization ------------------------------------------------------
#
# Header ``config n <n> k <k>`` (a d = 1 point) or ``occonfig m <m> d <d> k <k>``,
# then the rows, k floats each, printed with 17 significant digits so the
# round trip is bit exact.

_HEADERS = {"config": ("n", "k"), "occonfig": ("m", "d", "k")}


def write_config(config: StiefelConfig, path, kind: str | None = None) -> None:
    """Write ``config`` under header ``kind``; by default ``config`` at d = 1."""
    kind = kind or ("config" if config.d == 1 else "occonfig")
    dims = {"n": config.n, "m": config.m, "d": config.d, "k": config.k}
    header = " ".join([kind] + [f"{key} {dims[key]}" for key in _HEADERS[kind]])
    _write_lines(path, header, " ".join(["{:.17g}"] * config.k) + "\n", config.rows.T)


def read_config(path, kinds=("config", "occonfig")) -> StiefelConfig:
    """Read a file written by ``write_config``; its header must be one of ``kinds``.

    Any malformed file raises ValueError.  ``comments=None``: a ``#`` in the
    body is a bad value, as in the matrix format, not a comment.  An empty
    body fails the shape check without ``loadtxt``'s "no data" warning.
    """
    with open(path) as fh:
        header = fh.readline().split()
        kind = header[0] if header else ""
        if (kind not in kinds or header[1::2] != list(_HEADERS[kind])
                or len(header) != 2 * len(_HEADERS[kind]) + 1):
            raise ValueError(f"not a {' or '.join(kinds)} file: bad header")
        dims = dict(zip(header[1::2], map(int, header[2::2])))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, dtype=float, ndmin=2, comments=None)
    d = dims.get("d", 1)
    if rows.shape != (dims["m"] * d if "m" in dims else dims["n"], dims["k"]):
        raise ValueError(f"{kind} body does not match header dimensions")
    return StiefelConfig(rows, d)


def save_oc_config(config: StiefelConfig, path) -> None:
    write_config(config, path, "occonfig")


def load_oc_config(path) -> StiefelConfig:
    return read_config(path, ("occonfig",))
