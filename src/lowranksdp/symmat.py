"""Symmetric matrix storage and the small kernel set shared by the solvers.

A :class:`SymmetricMatrix` wraps either a dense array or a sparse CSR core,
plus an optional lazy uniform rank-one term ``shift * ones @ ones.T``.  The
lazy term keeps centered adjacency matrices (sparse graph minus a constant)
cheap to multiply: a mat-vec stays O(nnz + n) instead of densifying.

The one Lanczos recurrence of the package lives here too: it estimates the
spectral norm, and the solver runs it on the shifted tangent Hessian for
its curvature searches and their Ritz vectors.
"""

from __future__ import annotations

import copy
import itertools
import math
import warnings
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SymmetricMatrix",
    "OpnormEstimate",
    "opnorm_estimate",
    "save_symmat",
    "load_symmat",
]

_SYM_TOL = 1e-8
_SPARSE_DENSITY_CUTOFF = 0.10


class OpnormEstimate(NamedTuple):
    """Result of the Lanczos spectral norm estimator.

    ``value`` is the estimate, at most ||A||_2 (up to roundoff); ``upper``
    is at least ||A||_2 with probability at least 1 - 1/n.  ``iterations``
    counts the run's steps, one product ``A @ v`` each, those that size the
    upper bound included.
    """

    value: float
    converged: bool
    iterations: int
    upper: float


def _checked_shift(shift) -> float:
    shift = float(shift)
    if not np.isfinite(shift):
        raise ValueError("shift must be finite")
    return shift


def _checked_block_dim(n: int, block_dim) -> int | None:
    """``block_dim`` as an int, or None; it must divide ``n``."""
    if block_dim is None:
        return None
    block_dim = int(block_dim)
    if block_dim < 1 or n % block_dim != 0:
        raise ValueError("block_dim must divide n")
    return block_dim


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
        shift = _checked_shift(shift)
        sparse = sp.issparse(data)
        core = sp.csr_matrix(data, dtype=float) if sparse else np.array(data, dtype=float)
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise ValueError("matrix must be square")
        norm = sp.linalg.norm if sparse else np.linalg.norm
        with np.errstate(over="ignore", invalid="ignore"):
            asym = norm(core - core.T)
            scale = max(norm(core), 1e-300)
            if asym > _SYM_TOL * scale:
                raise ValueError("matrix is not symmetric (relative asymmetry %.3g)"
                                 % (asym / scale))
            core = (core + core.T) * 0.5
        # checked after symmetrizing: NaN passes the asymmetry test (every
        # comparison is False), and averaging can overflow finite input
        self._wrap(core, sparse, shift, block_dim)

    @classmethod
    def _symmetric(cls, core, shift: float = 0.0,
                   block_dim: int | None = None) -> "SymmetricMatrix":
        """Wrap a core that is symmetric by construction, such as ``_mirror``'s.

        A float CSR matrix or a square float array, which the matrix takes
        over.  The asymmetry check and the averaging with the transpose are
        skipped (the average of a symmetric core is the core itself); the
        finite check stays, and a sparse core loses its duplicates and
        explicit zeros, as the sum with its transpose would drop them.
        """
        out = cls.__new__(cls)
        sparse = sp.issparse(core)
        if sparse:
            core.sum_duplicates()
            core.eliminate_zeros()
        out._wrap(core, sparse, _checked_shift(shift), block_dim)
        return out

    def _wrap(self, core, sparse: bool, shift: float, block_dim: int | None) -> None:
        if sparse:
            core.sum_duplicates()
        else:
            core.setflags(write=False)
        if not np.all(np.isfinite(core.data if sparse else core)):
            raise ValueError("matrix entries must be finite")
        self._core = core
        self._sparse = sparse
        self._shift = shift
        self._block_dim = _checked_block_dim(core.shape[0], block_dim)
        self._l1: float | None = None
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
        return self._same_norms(self._core, self._shift, _checked_block_dim(self.n, d))

    def __neg__(self) -> "SymmetricMatrix":
        return self._same_norms(-self._core, -self._shift, self._block_dim)

    def _same_norms(self, core, shift: float, block_dim: int | None) -> "SymmetricMatrix":
        """A copy with new fields that keeps the cached norms.

        Only for views whose every norm is this matrix's: a negation or a
        block view, never a new shift.
        """
        if not self._sparse:
            core.setflags(write=False)
        out = copy.copy(self)
        out._core, out._shift, out._block_dim = core, shift, block_dim
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
            # column sums by one BLAS product: numpy's x.sum(axis=0) is slow on n x k
            y += self._shift * (np.ones(self.n) @ x)
        return y

    def l1_norm(self) -> float:
        """Exact operator l1 norm: max over columns of the absolute column sum."""
        if self._l1 is None:
            if not self._sparse:
                eff = self._core + self._shift if self._shift != 0.0 else self._core
                col_sums = np.abs(eff).sum(axis=0)
            else:
                # per column: stored entries contribute |v + s|, missing ones |s|
                coo = self._core.tocoo()
                stored = np.bincount(coo.col, weights=np.abs(coo.data + self._shift), minlength=self.n)
                counts = np.bincount(coo.col, minlength=self.n)
                col_sums = stored + (self.n - counts) * abs(self._shift)
            self._l1 = float(col_sums.max()) if self.n else 0.0
        return self._l1

    def opnorm(self, rel_tol: float = 1e-3, max_iters: int = 500, seed: int = 0) -> float:
        """Cached spectral norm estimate (see :func:`opnorm_estimate`)."""
        return self._opnorm_run(rel_tol, max_iters, seed).value

    def opnorm_upper(self) -> float:
        """Cached upper bound on ||A||_2 from the run that ``opnorm()`` makes.

        It holds with probability at least 1 - 1/n (see :func:`opnorm_estimate`).
        """
        return self._opnorm_run().upper

    def _opnorm_run(self, rel_tol: float = 1e-3, max_iters: int = 500,
                    seed: int = 0) -> OpnormEstimate:
        key = (rel_tol, max_iters, seed)
        if key not in self._opnorm_cache:
            self._opnorm_cache[key] = opnorm_estimate(self, rel_tol, max_iters, seed)
        return self._opnorm_cache[key]


# steps every run of opnorm_estimate takes (fewer only when n or max_iters is
# smaller) before its Ritz values size the upper bound
_BOUND_STEPS = 16
# relative roundoff allowance of the upper bound, at the scale ||A||_1
_BOUND_ROUNDOFF = 1e-10


def opnorm_estimate(A: SymmetricMatrix, rel_tol: float = 1e-3,
                    max_iters: int = 500, seed: int = 0) -> OpnormEstimate:
    """Spectral norm estimate and upper bound from one Lanczos run from a random start.

    The estimate is the largest |Ritz value|.  Ritz values lie inside the
    spectrum, in floating point up to roundoff (Paige), so the estimate never
    exceeds the true norm.  Each step takes one product ``A @ v``.  The
    estimate has converged once its relative change stays at most
    ``rel_tol`` for 3 consecutive steps, or once the Krylov space closes (at
    the latest after n steps); otherwise it stops unconverged after
    ``max_iters`` steps.

    The run then goes on, if needed, to q = min(16, max_iters, n) steps, and
    its final Ritz values bound the norm from above (Kuczynski & Wozniakowski,
    read backwards).  With L = ||A||_1 >= ||A||_2, both A + L I and L I - A
    are positive semidefinite and share the run's Krylov space; their top
    Ritz values reach (1 - e) of their top eigenvalues with probability at
    least 1 - 1/(2n) each, where e is the accuracy ``_kw_accuracy`` gives q
    steps.  Ritz values only move outward as steps are added (interlacing), so
    the bound holds for the final ones whenever the run stops.  Once the
    Krylov space closes the extreme Ritz values are eigenvalues and the bound
    is exact.  A roundoff allowance of 1e-10 L is added, and the bound is
    clamped to L.
    """
    if not 0.0 < rel_tol < 1.0:
        raise ValueError("rel_tol must lie in (0, 1)")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if A.n == 0:
        return OpnormEstimate(0.0, True, 0, 0.0)
    l1 = A.l1_norm()
    v = np.random.default_rng(seed).standard_normal(A.n)
    run = _lanczos(lambda vs: [A.dot(vs[0])], lambda w: w, [v / np.linalg.norm(v)], l1)
    fixed = min(_BOUND_STEPS, max_iters, A.n)
    est, streak, converged = 0.0, 0, None
    for it, (alpha, beta, _) in enumerate(itertools.islice(run, min(max_iters, A.n)), 1):
        closed = len(beta[0]) < it or it == A.n
        if converged is None:
            lo, hi = _ritz_range(alpha[0], beta[0])
            new_est = max(-lo, hi)
            if abs(new_est - est) <= rel_tol * max(new_est, 1e-300):
                streak += 1
            else:
                streak = 0
            est = new_est
            if streak >= 3 or closed:
                converged = True
        if converged and (it >= fixed or closed):
            break
    lo, hi = _ritz_range(alpha[0], beta[0])
    if closed:
        upper = max(-lo, hi)
    else:
        e = _kw_accuracy(fixed, A.n, math.log(2 * A.n))
        upper = l1 if e >= 1.0 else (max(l1 - lo, l1 + hi) / (1.0 - e) - l1)
    return OpnormEstimate(est, bool(converged), it,
                          min(float(upper) + _BOUND_ROUNDOFF * l1, l1))


# -- Lanczos -------------------------------------------------------------------

# a residual this small relative to the operator's scale means the Krylov space closed
_BREAKDOWN = 1e-12


def _lanczos(apply, project, starts, scale: float):
    """Three-term Lanczos recurrences of a symmetric operator, one per unit start.

    ``apply`` maps the list of the live recurrences' current vectors to new
    arrays, their images, in one call.  ``project`` (the identity, or the
    projection onto the operator's subspace) acts on each new residual; a
    residual norm at most ``_BREAKDOWN * scale`` closes that recurrence.
    Each ``next`` takes one step and yields ``(alpha, beta, v)``: per start,
    the diagonal, the off-diagonal (one entry shorter once closed) and the
    newest basis vector.  The generator ends when every recurrence is closed.
    """
    alpha: list[list[float]] = [[] for _ in starts]
    beta: list[list[float]] = [[] for _ in starts]
    v_prev, v = [None] * len(starts), list(starts)
    live = list(range(len(starts)))
    while live:
        going = []
        for i, w in zip(live, apply([v[i] for i in live])):
            if v_prev[i] is not None:
                w -= beta[i][-1] * v_prev[i]
            alpha[i].append(float(np.sum(w * v[i])))
            w = project(w - alpha[i][-1] * v[i])
            b = float(np.linalg.norm(w))
            if b > _BREAKDOWN * scale:
                beta[i].append(b)
                v_prev[i], v[i] = v[i], w / b
                going.append(i)
        live = going
        yield alpha, beta, v


# Kuczynski & Wozniakowski (SIAM J. Matrix Anal. Appl. 1992): for a positive
# semidefinite operator on R^D and a uniformly random unit start, q Lanczos
# steps leave the top Ritz value below (1 - e) lam_max with probability at
# most _KW_CONST sqrt(D) exp(-sqrt(e) (2q - 1)).
_KW_CONST = 1.648


def _kw_steps(e: float, dim: int, log_inv_fail: float) -> int:
    """The fewest Lanczos steps whose Kuczynski-Wozniakowski failure
    probability at relative accuracy ``e`` is at most exp(-``log_inv_fail``)."""
    log_ratio = math.log(_KW_CONST * math.sqrt(dim)) + log_inv_fail
    return math.ceil((log_ratio / math.sqrt(e) + 1.0) / 2.0)


def _kw_accuracy(steps: int, dim: int, log_inv_fail: float) -> float:
    """The relative accuracy e that ``steps`` Lanczos steps reach with failure
    probability exp(-``log_inv_fail``): the inverse of ``_kw_steps``."""
    log_ratio = math.log(_KW_CONST * math.sqrt(dim)) + log_inv_fail
    return (log_ratio / (2.0 * steps - 1.0)) ** 2


def _ritz_range(alpha, beta) -> tuple[float, float]:
    """The smallest and largest Ritz values of one recurrence of ``_lanczos``.

    Each is one LAPACK bisection on the tridiagonal (``dstebz``, the routine
    of ``scipy.linalg.eigvalsh_tridiagonal``, without its per-call checks,
    which cost more than the whole solve below 30 steps): O(m) for m steps,
    where a dense solve of ``_tridiagonal`` costs O(m^3).
    """
    # imported here: scipy.linalg adds about 60 ms to the import of the package,
    # which commands that run no Lanczos recurrence (gen) need not pay
    from scipy.linalg.lapack import dstebz

    if len(alpha) == 1:
        return alpha[0], alpha[0]
    a, b = np.array(alpha), np.array(beta[:len(alpha) - 1])
    ends = [dstebz(a, b, 2, 0.0, 0.0, i, i, 0.0, "E") for i in (1, len(a))]
    if any(info for *_, info in ends):
        raise np.linalg.LinAlgError("bisection on the Lanczos tridiagonal failed")
    return float(ends[0][1][0]), float(ends[1][1][0])


def _tridiagonal(alpha, beta) -> np.ndarray:
    """The dense tridiagonal matrix of one recurrence of ``_lanczos``."""
    a, b = np.array(alpha), np.array(beta[:len(alpha) - 1])
    return np.diag(a) + np.diag(b, 1) + np.diag(b, -1)


# -- text serialization ------------------------------------------------------
#
# Format: header ``symmat n <n> [blockdim <d>] [shift <s>]`` followed by
# ``i j value`` triplets of the core, 0-indexed.  The upper triangle is
# sufficient; the reader mirrors.  Each unordered pair {i, j} may be listed
# once, in either orientation.

_TRIPLET = np.dtype([("i", np.int64), ("j", np.int64), ("v", float)])
_CHUNK_ROWS = 8192
# the reader keys each pair {i, j} as min * n + max in int64, so n * n must fit
_MAX_N = math.isqrt(np.iinfo(np.int64).max)


def _write_lines(path, header: str, fmt: str, columns) -> None:
    """Write ``header``, then ``fmt % row`` for each row of the equal-length ``columns``.

    Rows are formatted ``_CHUNK_ROWS`` at a time, one ``%`` call per chunk, so
    the text in memory stays small however long the file is.
    """
    width = len(columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(columns[0]), _CHUNK_ROWS):
            chunk = [col[start:start + _CHUNK_ROWS].tolist() for col in columns]
            values = [None] * (width * len(chunk[0]))
            for c, col in enumerate(chunk):
                values[c::width] = col
            fh.write(fmt * len(chunk[0]) % tuple(values))


def save_symmat(A: SymmetricMatrix, path) -> None:
    """Write the nonzero upper-triangle entries of ``A``'s core in row-major order.

    A nonzero shift goes in the header, so the file and the memory it takes
    to write it are O(nnz) of the core for every matrix.
    """
    header = f"symmat n {A.n}"
    if A.block_dim is not None:
        header += f" blockdim {A.block_dim}"
    if A.shift != 0.0:
        header += f" shift {A.shift:.17g}"
    upper = sp.triu(A._core, format="csr").sorted_indices()
    iu = np.repeat(np.arange(A.n), np.diff(upper.indptr))
    keep = upper.data != 0.0
    _write_lines(path, header, "%d %d %.17g\n",
                 (iu[keep], upper.indices[keep], upper.data[keep]))


def _triplets(lines) -> np.ndarray:
    """Parse ``i j value`` lines (a file or a list of strings) into a ``_TRIPLET`` array.

    Blank lines are skipped and an empty body gives an empty array, without
    ``loadtxt``'s "no data" warning.  ``comments=None``: a ``#`` line is a bad
    line, not a comment.  Anything else raises ValueError.  NumPy 1.23 up to
    the release that expired the deprecation parses an integer field such as
    ``0.5`` or ``1e3`` through a float and only warns; that warning is made an
    error, which ``loadtxt`` reports as ValueError.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        warnings.filterwarnings("error", r"loadtxt\(\): Parsing an integer via a float",
                                DeprecationWarning)
        return np.loadtxt(lines, dtype=_TRIPLET, ndmin=1, comments=None)


def _parses(lines) -> bool:
    try:
        _triplets(lines)
    except ValueError:
        return False
    return True


def _first_bad_line(fh) -> str:
    """The first line from ``fh`` that ``_triplets`` rejects on its own; error path only.

    Whole chunks are tried first, so a long file costs one parse of each
    chunk plus one per line of the bad chunk.
    """
    while chunk := list(itertools.islice(fh, _CHUNK_ROWS)):
        if not _parses(chunk):
            return next((line.strip() for line in chunk if not _parses([line])), "")
    return ""


def load_symmat(path) -> SymmetricMatrix:
    """Read a file written by ``save_symmat``; a malformed file raises ValueError."""
    with open(path) as fh:
        header = fh.readline().split()
        if header[:1] != ["symmat"] or len(header) % 2 != 1:
            raise ValueError("not a symmat file: bad header")
        fields = {}
        for key, value in zip(header[1::2], header[2::2]):
            if key not in ("n", "blockdim", "shift") or key in fields:
                raise ValueError(f"bad symmat header: unknown or repeated field {key!r}")
            fields[key] = value
        if "n" not in fields:
            raise ValueError("bad symmat header: no n field")
        n = int(fields["n"])
        if n < 0:
            raise ValueError(f"bad symmat header: n = {n} is negative")
        if n > _MAX_N:
            raise ValueError(f"bad symmat header: n = {n} exceeds {_MAX_N}")
        block_dim = int(fields["blockdim"]) if "blockdim" in fields else None
        shift = float(fields.get("shift", 0.0))
        try:
            body = _triplets(fh)
        except ValueError as exc:
            if not fh.seekable():  # a pipe: the body is gone, name loadtxt's complaint
                raise ValueError(f"bad symmat line: {exc}") from exc
            fh.seek(0)
            fh.readline()
            raise ValueError(f"bad symmat line {_first_bad_line(fh)!r}: need 'i j value'") from exc
    i, j, v = body["i"], body["j"], body["v"]
    if i.size and (i.min() < 0 or j.min() < 0 or i.max() >= n or j.max() >= n):
        raise ValueError("triplet index out of range")
    pairs, counts = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_counts=True)
    if pairs.size != i.size:
        lo, hi = divmod(int(pairs[np.argmax(counts > 1)]), n)
        raise ValueError(f"entry ({lo}, {hi}) is listed more than once")
    return _symmat(n, i, j, v, shift=shift, block_dim=block_dim)


def _mirror(n: int, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> sp.coo_matrix:
    """The symmetric COO matrix with entries (i, j, v) and their mirrors (j, i, v).

    Each unordered pair is listed once, in either orientation; diagonal
    entries are not mirrored.
    """
    off = i != j
    return sp.coo_matrix((np.concatenate([v, v[off]]),
                          (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]))),
                         shape=(n, n))


def _symmat(n: int, i: np.ndarray, j: np.ndarray, v: np.ndarray,
            shift: float = 0.0, block_dim: int | None = None) -> SymmetricMatrix:
    """SymmetricMatrix of mirrored triplets: sparse below the density cutoff, dense above."""
    mat = _mirror(n, i, j, v)
    density = mat.nnz / (n * n) if n else 0.0
    core = mat.tocsr() if density < _SPARSE_DENSITY_CUTOFF else mat.toarray()
    return SymmetricMatrix._symmetric(core, shift=shift, block_dim=block_dim)
