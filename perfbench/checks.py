"""Correctness checks computed apart from the library, from numpy and scipy only.

Each ``check_*`` function takes plain arrays and the values a workload
reported, and returns a list of failure messages (empty when the output
passes).  The benchmark counts an operation with any failure as failed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh

GW_ALPHA = 0.878


# -- independent readers ------------------------------------------------------------


def read_symmat(path, sparse: bool = False):
    """Matrix from the ``symmat n <n>`` triplet file, mirrored by numpy/scipy."""
    with open(path) as fh:
        n = int(fh.readline().split()[2])
        trip = np.loadtxt(fh, ndmin=2)
    i, j, v = trip[:, 0].astype(int), trip[:, 1].astype(int), trip[:, 2]
    off = i != j
    rows, cols = np.concatenate([i, j[off]]), np.concatenate([j, i[off]])
    vals = np.concatenate([v, v[off]])
    if sparse:
        return sp.csr_matrix((vals, (rows, cols)), shape=(n, n)), (i, j, v)
    dense = np.zeros((n, n))
    dense[rows, cols] = vals
    return dense, (i, j, v)


def read_config(path) -> np.ndarray:
    """Rows of a ``config``/``occonfig`` file (header line skipped)."""
    return np.loadtxt(path, skiprows=1, ndmin=2)


# -- independent quantities ----------------------------------------------------------


def objective(A, rows: np.ndarray) -> float:
    return float(np.sum(rows * (A @ rows)))


def multipliers(A, rows: np.ndarray) -> np.ndarray:
    """y_i = <sigma_i, (A sigma)_i>."""
    return np.einsum("ij,ij->i", rows, A @ rows)


def lam_max(M) -> float:
    """Largest eigenvalue: dense ``eigvalsh``, or Lanczos for a sparse matrix."""
    if sp.issparse(M):
        v0 = np.random.default_rng(0).standard_normal(M.shape[0])
        return float(eigsh(M, k=1, which="LA", tol=1e-10, v0=v0, return_eigenvectors=False)[0])
    return float(np.linalg.eigvalsh(M)[-1])


def dual_bound(A, rows: np.ndarray) -> float:
    """Weak-duality bound sum(y) + n max(0, lam_max(A - Diag y)) on the MaxCut SDP."""
    y = multipliers(A, rows)
    shifted = A - (sp.diags(y) if sp.issparse(A) else np.diag(y))
    return float(y.sum() + A.shape[0] * max(0.0, lam_max(shifted)))


def _lambda_blocks(A: np.ndarray, rows: np.ndarray, d: int) -> np.ndarray:
    m, k = rows.shape[0] // d, rows.shape[1]
    rb = rows.reshape(m, d, k)
    ab = (A @ rows).reshape(m, d, k)
    lam = np.einsum("bik,bjk->bij", ab, rb)
    return 0.5 * (lam + lam.transpose(0, 2, 1))


def block_dual_bound(A: np.ndarray, rows: np.ndarray, d: int) -> float:
    """sum_i tr(Lambda_i) + n max(0, lam_max(A - blkdiag Lambda)) on the Orthogonal-Cut SDP."""
    lam = _lambda_blocks(A, rows, d)
    blk = sp.block_diag(list(lam)).toarray()
    trace = float(np.einsum("bii->", lam))
    return trace + A.shape[0] * max(0.0, lam_max(A - blk))


def block_gradient_norm(A: np.ndarray, rows: np.ndarray, d: int) -> float:
    """Norm of the Riemannian gradient 2(A sigma - blkdiag(Lambda) sigma)."""
    lam = _lambda_blocks(A, rows, d)
    m, k = rows.shape[0] // d, rows.shape[1]
    lam_sig = np.einsum("bij,bjk->bik", lam, rows.reshape(m, d, k)).reshape(rows.shape)
    return float(np.linalg.norm(2.0 * (A @ rows - lam_sig)))


def top_tangent_curvature(A, rows: np.ndarray) -> float:
    """Top eigenvalue of the Riemannian Hessian P 2(A - Diag y) P on the sphere product.

    Built directly from the matrix (dense or scipy sparse) and solved by
    ARPACK Lanczos.  The operator is shifted by ``s >= ||Hess||`` on tangent
    directions and sent to ``-s`` on normal ones, so the normal space's
    zeros do not crowd the top and ARPACK's relative tolerance becomes an
    absolute one of about ``1e-6 s``; a top eigenvalue near zero, common at
    a certified point, otherwise converges slowly.
    """
    n, k = rows.shape
    y = multipliers(A, rows)
    s = 2.0 * (float(abs(A).sum(axis=0).max()) + float(np.abs(y).max()))

    def project(v):
        return v - np.einsum("ij,ij->i", rows, v)[:, None] * rows

    def apply(x):
        x = np.asarray(x).reshape(n, k)
        u = project(x)
        return (project(2.0 * (A @ u - y[:, None] * u)) + s * u - s * (x - u)).ravel()

    op = LinearOperator((n * k, n * k), matvec=apply, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n * k)
    return float(eigsh(op, k=1, which="LA", tol=1e-6, v0=v0, return_eigenvectors=False)[0]) - s


# -- checks ----------------------------------------------------------------------------


def check_unit_rows(rows: np.ndarray, tol: float = 1e-9) -> list[str]:
    dev = float(np.abs(np.linalg.norm(rows, axis=1) - 1.0).max())
    return [] if dev <= tol else [f"rows are not unit: max deviation {dev:.3g}"]


def check_orthonormal_blocks(rows: np.ndarray, d: int, tol: float = 1e-9) -> list[str]:
    m, k = rows.shape[0] // d, rows.shape[1]
    rb = rows.reshape(m, d, k)
    dev = float(np.abs(np.einsum("bik,bjk->bij", rb, rb) - np.eye(d)).max())
    return [] if dev <= tol else [f"blocks are not orthonormal: max deviation {dev:.3g}"]


def check_close(name: str, recomputed: float, reported: float, rel: float) -> list[str]:
    if abs(recomputed - reported) <= rel * max(1.0, abs(recomputed)):
        return []
    return [f"{name}: recomputed {recomputed!r} but reported {reported!r}"]


def check_at_most(name: str, value: float, bound: float, tol: float = 0.0) -> list[str]:
    return [] if value <= bound + tol else [f"{name}: {value!r} exceeds {bound!r}"]


def check_at_least(name: str, value: float, bound: float) -> list[str]:
    return [] if value >= bound else [f"{name}: {value!r} is below {bound!r}"]


def check_curvature(top: float, eps: float) -> list[str]:
    """Top curvature at most 2 eps: the certificate's lam_max/2 guarantee."""
    return check_at_most("top tangent curvature vs 2 eps", top, 2.0 * eps)


def check_sdp_bracket(est: float, upper: float, n: int, l1: float) -> list[str]:
    """est <= U + 1e-9 n l1 (weak duality) and U - est <= 0.01 n (estimate is tight)."""
    return (check_at_most("estimate vs dual bound", est, upper, 1e-9 * n * l1)
            + check_at_most("dual gap", upper - est, 0.01 * n))


def check_cut(labels: np.ndarray, reported: float, ei: np.ndarray, ej: np.ndarray,
              rows: np.ndarray, lam_max_neg: float) -> list[str]:
    """Recount, the dual upper bound (2m + n lam_max(-A_G))/4 and the GW lower bound.

    ``ei``, ``ej`` list the unit-weight edges; ``rows`` is the relaxed solution.
    """
    n, m = labels.size, ei.size
    cut = float(np.count_nonzero(labels[ei] != labels[ej]))
    relaxed = 0.5 * float(np.sum(1.0 - np.einsum("ij,ij->i", rows[ei], rows[ej])))
    return (check_close("cut recount", cut, reported, 0.0)
            + check_at_most("cut vs dual bound", reported, (2.0 * m + n * lam_max_neg) / 4.0,
                            1e-9 * n)
            + check_at_least("cut vs GW bound", reported, GW_ALPHA * relaxed))
