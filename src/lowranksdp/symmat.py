"""Symmetric matrix storage and the small kernel set shared by the solvers.

A :class:`SymmetricMatrix` wraps either a dense array or a sparse CSR core,
plus an optional lazy uniform rank-one term ``shift * ones @ ones.T``.  The
lazy term keeps centered adjacency matrices (sparse graph minus a constant)
cheap to multiply: a mat-vec stays O(nnz + n) instead of densifying.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SymmetricMatrix",
    "NormCache",
    "OpnormEstimate",
    "l1_norm",
    "opnorm_estimate",
    "ddiag",
    "symmatmul",
    "save_symmat",
    "load_symmat",
]

_SYM_TOL = 1e-8
_SPARSE_DENSITY_CUTOFF = 0.10


class OpnormEstimate(NamedTuple):
    """Result of the power-iteration spectral norm estimator."""

    value: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class NormCache:
    """Bundle of matrix norms: exact l1 and Frobenius, estimated l2."""

    l1: float
    l2_est: float
    fro: float


class SymmetricMatrix:
    """Real symmetric ``n x n`` matrix, dense or sparse.

    The represented matrix is ``core + shift * ones @ ones.T``.  Input is
    symmetrized by averaging with its transpose; asymmetry beyond a relative
    1e-8 is rejected, and so are non-finite entries or shift.  Instances are
    immutable after construction and safe to share across threads.

    Parameters
    ----------
    data : ndarray or scipy sparse matrix
        Square matrix to wrap.  Sparse input is converted to CSR holding the
        full symmetric pattern (both triangles).
    shift : float
        Coefficient of the lazy all-ones rank-one term.
    block_dim : int, optional
        Block size ``d`` for Orthogonal-Cut structure; requires ``n % d == 0``.
    """

    def __init__(self, data, shift: float = 0.0, block_dim: int | None = None):
        shift = float(shift)
        if not np.isfinite(shift):
            raise ValueError("shift must be finite")
        if sp.issparse(data):
            core = sp.csr_matrix(data, dtype=float)
            if core.shape[0] != core.shape[1]:
                raise ValueError("matrix must be square")
            # NaN would pass the asymmetry test below (every comparison is False)
            if not np.all(np.isfinite(core.data)):
                raise ValueError("matrix entries must be finite")
            asym = sp.linalg.norm(core - core.T)
            scale = max(sp.linalg.norm(core), 1e-300)
            if asym > _SYM_TOL * scale:
                raise ValueError("matrix is not symmetric (relative asymmetry %.3g)" % (asym / scale))
            core = (core + core.T) * 0.5
            core.sum_duplicates()
            self._core = core
            self._sparse = True
        else:
            core = np.array(data, dtype=float)
            if core.ndim != 2 or core.shape[0] != core.shape[1]:
                raise ValueError("matrix must be square")
            if not np.all(np.isfinite(core)):
                raise ValueError("matrix entries must be finite")
            asym = np.linalg.norm(core - core.T)
            scale = max(np.linalg.norm(core), 1e-300)
            if asym > _SYM_TOL * scale:
                raise ValueError("matrix is not symmetric (relative asymmetry %.3g)" % (asym / scale))
            core = (core + core.T) * 0.5
            core.setflags(write=False)
            self._core = core
            self._sparse = False
        self._shift = shift
        n = self._core.shape[0]
        if block_dim is not None:
            block_dim = int(block_dim)
            if block_dim < 1 or n % block_dim != 0:
                raise ValueError("block_dim must divide n")
        self._block_dim = block_dim
        self._l1: float | None = None
        self._fro: float | None = None
        self._opnorm_cache: dict[tuple, OpnormEstimate] = {}

    # -- basic structure ---------------------------------------------------

    @property
    def n(self) -> int:
        return self._core.shape[0]

    @property
    def block_dim(self) -> int | None:
        return self._block_dim

    @property
    def num_blocks(self) -> int:
        if self._block_dim is None:
            raise ValueError("matrix has no block structure")
        return self.n // self._block_dim

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    @property
    def shift(self) -> float:
        return self._shift

    def with_block_dim(self, d: int) -> "SymmetricMatrix":
        """Same matrix viewed with d x d block structure."""
        out = SymmetricMatrix.__new__(SymmetricMatrix)
        out._core = self._core
        out._sparse = self._sparse
        out._shift = self._shift
        if d < 1 or self.n % d != 0:
            raise ValueError("block_dim must divide n")
        out._block_dim = int(d)
        out._l1 = self._l1
        out._fro = self._fro
        out._opnorm_cache = dict(self._opnorm_cache)
        return out

    def __neg__(self) -> "SymmetricMatrix":
        out = SymmetricMatrix.__new__(SymmetricMatrix)
        out._core = -self._core
        if not self._sparse:
            out._core.setflags(write=False)
        out._sparse = self._sparse
        out._shift = -self._shift
        out._block_dim = self._block_dim
        out._l1 = self._l1
        out._fro = self._fro
        out._opnorm_cache = dict(self._opnorm_cache)
        return out

    def to_dense(self) -> np.ndarray:
        dense = self._core.toarray() if self._sparse else np.array(self._core)
        if self._shift != 0.0:
            dense = dense + self._shift
        return dense

    # -- kernels -------------------------------------------------------------

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Product A @ x for a vector or an n x k block of columns."""
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise ValueError("dimension mismatch: A is %d x %d, x has leading dimension %d"
                             % (self.n, self.n, x.shape[0]))
        y = self._core @ x
        if self._shift != 0.0:
            y = y + self._shift * x.sum(axis=0)
        return y

    def l1_norm(self) -> float:
        if self._l1 is None:
            if not self._sparse:
                eff = self._core + self._shift if self._shift != 0.0 else self._core
                self._l1 = float(np.abs(eff).sum(axis=0).max()) if self.n else 0.0
            elif self._shift == 0.0:
                self._l1 = float(abs(self._core).sum(axis=0).max()) if self.n else 0.0
            else:
                # per column: stored entries contribute |v + s|, missing ones |s|
                coo = self._core.tocoo()
                stored = np.bincount(coo.col, weights=np.abs(coo.data + self._shift), minlength=self.n)
                counts = np.bincount(coo.col, minlength=self.n)
                total = stored + (self.n - counts) * abs(self._shift)
                self._l1 = float(total.max()) if self.n else 0.0
        return self._l1

    def fro_norm(self) -> float:
        if self._fro is None:
            if not self._sparse:
                eff = self._core + self._shift if self._shift != 0.0 else self._core
                self._fro = float(np.linalg.norm(eff))
            elif self._shift == 0.0:
                self._fro = float(sp.linalg.norm(self._core))
            else:
                coo = self._core.tocoo()
                stored = float(np.sum((coo.data + self._shift) ** 2))
                missing = (self.n * self.n - coo.nnz) * self._shift**2
                self._fro = float(np.sqrt(stored + missing))
        return self._fro

    def opnorm(self, rel_tol: float = 1e-3, max_iters: int = 500, seed: int = 0) -> float:
        """Cached spectral norm estimate (see :func:`opnorm_estimate`)."""
        key = (rel_tol, max_iters, seed)
        if key not in self._opnorm_cache:
            self._opnorm_cache[key] = opnorm_estimate(self, rel_tol, max_iters, seed)
        return self._opnorm_cache[key].value

    def norms(self, rel_tol: float = 1e-3, max_iters: int = 500, seed: int = 0) -> NormCache:
        return NormCache(l1=self.l1_norm(), l2_est=self.opnorm(rel_tol, max_iters, seed), fro=self.fro_norm())


def l1_norm(A: SymmetricMatrix) -> float:
    """Exact operator l1 norm: max over columns of the absolute column sum."""
    return A.l1_norm()


def opnorm_estimate(A: SymmetricMatrix, rel_tol: float = 1e-3,
                    max_iters: int = 500, seed: int = 0) -> OpnormEstimate:
    """Spectral norm estimate by power iteration on A^2.

    Iterating ``v <- A(Av)`` (then normalizing) targets the largest
    eigenvalue of A^2, so negative extreme eigenvalues are handled.  The
    returned estimate is ``||A v||`` for the final unit iterate, hence never
    exceeds the true norm.  Convergence requires the relative change of the
    estimate to stay below ``rel_tol`` for 3 consecutive iterations.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return OpnormEstimate(0.0, True, 0)
    v = v / nv
    est = 0.0
    streak = 0
    for it in range(1, max_iters + 1):
        w = A.dot(v)
        new_est = float(np.linalg.norm(w))
        if new_est == 0.0:
            return OpnormEstimate(0.0, True, it)
        w2 = A.dot(w)
        nw2 = np.linalg.norm(w2)
        if nw2 == 0.0:
            # A^2 v = 0 with Av != 0 cannot happen for symmetric A
            return OpnormEstimate(new_est, True, it)
        v = w2 / nw2
        if abs(new_est - est) <= rel_tol * max(new_est, 1e-300):
            streak += 1
        else:
            streak = 0
        est = new_est
        if streak >= 3:
            return OpnormEstimate(est, True, it)
    return OpnormEstimate(est, False, max_iters)


def ddiag(B: np.ndarray) -> np.ndarray:
    """Zero out all entries of a square matrix except the diagonal."""
    B = np.asarray(B)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("ddiag requires a square matrix")
    return np.diag(np.diag(B).copy())


def symmatmul(A: SymmetricMatrix, X: np.ndarray) -> np.ndarray:
    """A @ X for an n x k matrix X; sparse cores touch only stored entries."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError("X must be n x k with k >= 1")
    return A.dot(X)


# -- text serialization ------------------------------------------------------
#
# Format: header ``symmat n <n> [blockdim <d>]`` followed by ``i j value``
# triplets, 0-indexed.  The upper triangle is sufficient; the reader mirrors.
# Each unordered pair {i, j} may be listed once, in either orientation.


def save_symmat(A: SymmetricMatrix, path) -> None:
    dense = A.to_dense()
    n = A.n
    header = f"symmat n {n}"
    if A.block_dim is not None:
        header += f" blockdim {A.block_dim}"
    iu, ju = np.triu_indices(n)
    vals = dense[iu, ju]
    keep = vals != 0.0
    lines = [header]
    for i, j, v in zip(iu[keep], ju[keep], vals[keep]):
        lines.append(f"{i} {j} {v:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_symmat(path) -> SymmetricMatrix:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) < 3 or header[0] != "symmat" or header[1] != "n":
            raise ValueError("not a symmat file: bad header")
        n = int(header[2])
        block_dim = None
        if len(header) >= 5 and header[3] == "blockdim":
            block_dim = int(header[4])
        rows, cols, vals = [], [], []
        for line in fh:
            line = line.strip()
            if not line:
                continue
            i_s, j_s, v_s = line.split()
            rows.append(int(i_s))
            cols.append(int(j_s))
            vals.append(float(v_s))
    i = np.array(rows, dtype=int)
    j = np.array(cols, dtype=int)
    v = np.array(vals, dtype=float)
    if i.size and (i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n):
        raise ValueError("triplet index out of range")
    pairs, counts = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_counts=True)
    if pairs.size != i.size:
        lo, hi = divmod(int(pairs[np.argmax(counts > 1)]), n)
        raise ValueError(f"entry ({lo}, {hi}) is listed more than once")
    off = i != j
    full_i = np.concatenate([i, j[off]])
    full_j = np.concatenate([j, i[off]])
    full_v = np.concatenate([v, v[off]])
    nnz = full_i.size
    density = nnz / (n * n) if n else 0.0
    mat = sp.coo_matrix((full_v, (full_i, full_j)), shape=(n, n))
    if density < _SPARSE_DENSITY_CUTOFF:
        return SymmetricMatrix(mat.tocsr(), block_dim=block_dim)
    return SymmetricMatrix(mat.toarray(), block_dim=block_dim)
