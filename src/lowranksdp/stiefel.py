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

from dataclasses import dataclass

import numpy as np

from .symmat import SymmetricMatrix

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


@dataclass(frozen=True)
class StiefelConfig:
    """Point of the frame product: m row blocks of d orthonormal rows in R^k.

    ``d = 1`` (the default) is a point of the product of spheres.
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
        if d == 1:
            err, tol = np.abs(np.linalg.norm(rows, axis=1) - 1.0), ROW_TOL
        else:
            blk = _blocks(rows, rows.shape[0] // d, d)
            dev = np.einsum("bik,bjk->bij", blk, blk) - np.eye(d)
            err, tol = np.sqrt(np.einsum("bij,bij->b", dev, dev)), BLOCK_TOL
        if np.any(err > tol):
            raise ValueError("blocks are not orthonormal (max deviation %.3g)" % float(err.max()))
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
    each row is orthogonal to the base row)."""

    rows: np.ndarray
    base: StiefelConfig

    def __post_init__(self):
        rows = np.array(self.rows, dtype=float)
        base = self.base
        if rows.shape != base.rows.shape:
            raise ValueError("tangent shape does not match base configuration")
        if base.d == 1:
            err, tol = np.abs(row_dots(rows, base.rows)), ROW_TOL
            scale = 1.0 + np.linalg.norm(rows, axis=1)
        else:
            ub = _blocks(rows, base.m, base.d)
            s = np.einsum("bik,bjk->bij", ub, base.blocks())
            sym = s + s.transpose(0, 2, 1)
            err, tol = np.sqrt(np.einsum("bij,bij->b", sym, sym)), BLOCK_TOL
            scale = 1.0 + np.sqrt(np.einsum("bik,bik->b", ub, ub))
        if np.any(err > tol * scale):
            raise ValueError("rows do not satisfy the tangent condition at the base")
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
    moved = config.rows + float(t) * u.rows
    if config.d == 1:
        return StiefelConfig(normalize_rows(moved))
    w, s, vt = np.linalg.svd(_blocks(moved, config.m, config.d), full_matrices=False)
    if s.min() < _MIN_SINGULAR:
        raise ValueError("retraction undefined: rank-deficient block")
    return StiefelConfig(np.einsum("bij,bjk->bik", w, vt).reshape(moved.shape), config.d)


def oc_objective(A: SymmetricMatrix, config: StiefelConfig) -> float:
    """The quadratic objective <sigma, A sigma> = Tr(sigma^T A sigma)."""
    if A.n != config.n:
        raise ValueError("dimension mismatch between matrix and configuration")
    return float(row_dots(config.rows, A.dot(config.rows)).sum())


class OcHessianOperator:
    """Riemannian Hessian of the objective at a fixed configuration.

    Lambda is the symmetrized block diagonal of A sigma sigma^T (a diagonal
    at d = 1).  On the tangent space the Hessian acts as
    u -> P_T(2(A - Lambda) u); the quadratic form is 2 <u, (A - Lambda) u>.
    Caches A sigma and Lambda at construction; safe for concurrent read-only
    application.  The matrix must carry ``block_dim == d``; the d = 1
    subclass ``sphere.HessianOperator`` takes any matrix of matching size.
    """

    def __init__(self, A: SymmetricMatrix, config: StiefelConfig):
        self._check(A, config)
        self.A = A
        self.config = config
        self._asig = A.dot(config.rows)
        if config.d == 1:
            self._lam = row_dots(config.rows, self._asig)
        else:
            lam = np.einsum("bik,bjk->bij", _blocks(self._asig, config.m, config.d),
                            config.blocks())
            self._lam = 0.5 * (lam + lam.transpose(0, 2, 1))

    @staticmethod
    def _check(A: SymmetricMatrix, config: StiefelConfig) -> None:
        if A.n != config.n:
            raise ValueError("dimension mismatch between matrix and configuration")
        if A.block_dim != config.d:
            raise ValueError("matrix lacks matching block structure (block_dim != d)")

    @property
    def lam(self) -> np.ndarray:
        """Lambda: its n diagonal entries at d = 1, else its m d x d blocks."""
        return self._lam

    def objective_value(self) -> float:
        if self.config.d == 1:
            return float(self._lam.sum())
        return float(np.trace(self._lam.sum(axis=0)))

    def _lam_times(self, rows: np.ndarray) -> np.ndarray:
        if self.config.d == 1:
            return self._lam[:, None] * rows
        m, d = self.config.m, self.config.d
        return np.einsum("bij,bjk->bik", self._lam, _blocks(rows, m, d)).reshape(rows.shape)

    def gradient(self) -> StiefelTangent:
        """Riemannian gradient 2(A - Lambda) sigma."""
        return StiefelTangent(2.0 * (self._asig - self._lam_times(self.config.rows)), self.config)

    def _check_base(self, u: StiefelTangent) -> None:
        if u.base is not self.config and u.base.rows is not self.config.rows:
            raise ValueError("tangent field is based at a different configuration")

    def apply(self, u: StiefelTangent) -> StiefelTangent:
        """Hess f(sigma)[u]; self-adjoint on the tangent space."""
        self._check_base(u)
        return StiefelTangent(self.apply_rows(u.rows), self.config)

    def apply_rows(self, u_rows: np.ndarray) -> np.ndarray:
        """Hessian action on raw tangent rows, skipping wrapper validation."""
        w = 2.0 * (self.A.dot(u_rows) - self._lam_times(u_rows))
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
            lam_uu = float(np.sum(u.rows * self._lam_times(u.rows)))
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
    lines = [" ".join([kind] + [f"{key} {dims[key]}" for key in _HEADERS[kind]])]
    for row in config.rows:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_config(path, kinds=("config", "occonfig")) -> StiefelConfig:
    """Read a file written by ``write_config``; its header must be one of ``kinds``.

    Any malformed file raises ValueError.
    """
    with open(path) as fh:
        header = fh.readline().split()
        kind = header[0] if header else ""
        if (kind not in kinds or header[1::2] != list(_HEADERS[kind])
                or len(header) != 2 * len(_HEADERS[kind]) + 1):
            raise ValueError(f"not a {' or '.join(kinds)} file: bad header")
        dims = dict(zip(header[1::2], map(int, header[2::2])))
        rows = np.loadtxt(fh, dtype=float, ndmin=2)
    d = dims.get("d", 1)
    if rows.shape != (dims["m"] * d if "m" in dims else dims["n"], dims["k"]):
        raise ValueError(f"{kind} body does not match header dimensions")
    return StiefelConfig(rows, d)


def save_oc_config(config: StiefelConfig, path) -> None:
    write_config(config, path, "occonfig")


def load_oc_config(path) -> StiefelConfig:
    return read_config(path, ("occonfig",))
