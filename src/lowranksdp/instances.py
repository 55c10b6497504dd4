"""Seeded random instance generators.

Every generator is a pure function of its parameters and seed; identical
seeds reproduce bit-identical matrices.  Centering terms like (d/n) * ones
ones^T are carried lazily by :class:`SymmetricMatrix` so sparse graph
mat-vecs stay O(edges + n).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symmat import SymmetricMatrix, _mirror, _symmat

__all__ = [
    "Instance",
    "SizeError",
    "goe",
    "spiked",
    "sbm",
    "sbm_snr",
    "erdos_renyi",
    "random_regular",
    "centered_regular",
    "so_sync",
]


@dataclass
class Instance:
    """A data matrix with optional planted ground truth and metadata."""

    A: SymmetricMatrix
    ground_truth: np.ndarray | None
    meta: dict = field(default_factory=dict)
    adjacency: SymmetricMatrix | None = None

    def __post_init__(self):
        if self.ground_truth is not None:
            u = np.asarray(self.ground_truth)
            if not np.all(np.abs(u) == 1):
                raise ValueError("ground truth labels must be +1/-1")


class SizeError(ValueError):
    """A size whose arrays or pair indices numpy cannot describe."""


def _check_dense(n: int) -> None:
    """Raise SizeError if an n x n float64 array is too big for numpy to describe."""
    if n * n > np.iinfo(np.intp).max // 8:
        raise SizeError(f"a {n} x {n} float64 array is too big to describe")


def goe(n: int, seed) -> SymmetricMatrix:
    """Gaussian symmetric matrix: variance 2/n on the diagonal, 1/n off it."""
    if n < 1:
        raise ValueError("n must be positive")
    _check_dense(n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    # g + g.T is exactly symmetric in floating point: no asymmetry test or averaging
    return SymmetricMatrix._symmetric((g + g.T) / np.sqrt(2.0 * n))


def spiked(n: int, lam: float, seed) -> Instance:
    """Rank-one +-1 spike (lam/n) u u^T plus Gaussian noise; truth attached."""
    if n < 1:
        raise ValueError("n must be positive")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    _check_dense(n)
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 1.0], size=n)
    g = rng.standard_normal((n, n))
    w = (g + g.T) / np.sqrt(2.0 * n)
    a = (lam / n) * np.outer(u, u) + w  # exactly symmetric, as in ``goe``
    return Instance(A=SymmetricMatrix._symmetric(a), ground_truth=u,
                    meta={"model": "spiked", "n": n, "lam": lam, "seed": seed})


# below this many trials, an index plus one more gap cannot overflow int64
_MAX_TRIALS = 2**62


def _bernoulli_indices(count: int, p: float, rng) -> np.ndarray:
    """Sorted indices in ``[0, count)`` kept by independent Bernoulli(p) trials.

    The gaps between kept indices are independent Geometric(p) draws
    (Batagelj and Brandes, Phys. Rev. E 71, 036113, 2005), so the work and
    memory are O(count p), not O(count).
    """
    if count >= _MAX_TRIALS:
        raise SizeError(f"{count} pairs reach 2^62; their indices would overflow int64")
    kept = [np.zeros(0, dtype=np.int64)]
    last = -1  # the last kept index
    while count > 0 and p > 0.0:
        rest = (count - 1 - last) * p  # the expected number still to keep
        gaps = np.minimum(rng.geometric(p, size=int(rest + 4.0 * np.sqrt(rest) + 16)),
                          count + 1)
        gaps[0] += last
        # a gap of count + 1 reaches past the end from anywhere, and from below
        # count it cannot overflow, so the sums are exact up to the first one
        # past the end; no later sum is read
        pos = np.cumsum(gaps)
        past = pos >= count
        if past.any():
            kept.append(pos[: past.argmax()])
            break
        kept.append(pos)
        last = int(pos[-1])
    return np.concatenate(kept)


def _triu_pairs(n: int, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs ``i < j`` at the given row-major positions of the strict upper triangle."""
    rows = np.arange(n, dtype=np.int64)
    start = rows * (n - 1) - rows * (rows - 1) // 2  # position of the pair (i, i + 1)
    i = np.searchsorted(start, index, side="right") - 1
    return i, index - start[i] + i + 1


def sbm_snr(a: float, b: float) -> float:
    """Signal-to-noise (a - b) / sqrt(2(a + b)); detection threshold at 1."""
    if a + b <= 0:
        return 0.0
    return (a - b) / np.sqrt(2.0 * (a + b))


def sbm(n: int, a: float, b: float, seed) -> Instance:
    """Two-group stochastic block model, balanced labels.

    Edges appear independently with probability a/n inside groups and b/n
    across.  The instance matrix is the centered, scaled adjacency
    (A_G - (d/n) ones ones^T) / sqrt(d) with d = (a+b)/2; the raw adjacency
    rides along in ``adjacency``.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("n must be even and >= 2")
    if not 0 <= b <= a <= n:
        raise ValueError("need 0 <= b <= a <= n")
    d = (a + b) / 2.0
    if d == 0.0:
        raise ValueError("average degree is zero; centered scaling undefined")
    rng = np.random.default_rng(seed)
    u = np.ones(n)
    u[rng.permutation(n)[: n // 2]] = -1.0
    plus, minus = np.flatnonzero(u > 0), np.flatnonzero(u < 0)
    h = n // 2
    rows, cols = [], []
    for group in (plus, minus):
        i, j = _triu_pairs(h, _bernoulli_indices(h * (h - 1) // 2, a / n, rng))
        rows.append(group[i])
        cols.append(group[j])
    i, j = np.divmod(_bernoulli_indices(h * h, b / n, rng), h)
    rows.append(plus[i])
    cols.append(minus[j])
    iu, ju = np.concatenate(rows), np.concatenate(cols)
    adj = _mirror(n, iu, ju, np.ones(iu.size)).tocsr()
    adjacency = SymmetricMatrix._symmetric(adj)
    centered = SymmetricMatrix._symmetric(adj / np.sqrt(d), shift=-(d / n) / np.sqrt(d))
    return Instance(A=centered, ground_truth=u,
                    meta={"model": "sbm", "n": n, "a": a, "b": b, "seed": seed,
                          "snr": sbm_snr(a, b)},
                    adjacency=adjacency)


def erdos_renyi(n: int, d_avg: float, seed) -> SymmetricMatrix:
    """Adjacency of G(n, d_avg/n): each pair is an edge independently."""
    if not 0 < d_avg < n:
        raise ValueError("need 0 < d_avg < n")
    rng = np.random.default_rng(seed)
    i, j = _triu_pairs(n, _bernoulli_indices(n * (n - 1) // 2, d_avg / n, rng))
    return _symmat(n, i, j, np.ones(i.size))


def random_regular(n: int, d: int, seed) -> SymmetricMatrix:
    """Simple d-regular graph from the configuration (pairing) model.

    Stubs are paired uniformly; pairs that would create self-loops or
    repeated edges throw their stubs back for reshuffling, and a round that
    cannot be repaired restarts the whole graph.  200 consecutive restarts
    raise (only plausible for d near n).
    """
    if n < 1 or d < 0 or d >= n:
        raise ValueError("need 0 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = np.random.default_rng(seed)

    def attempt():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            rng.shuffle(stubs)
            leftover: dict[int, int] = {}
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    leftover[s1] = leftover.get(s1, 0) + 1
                    leftover[s2] = leftover.get(s2, 0) + 1
            if not leftover:
                return edges
            # check a suitable pair still exists among the leftover stubs
            nodes = sorted(leftover)
            ok = any((min(x, y), max(x, y)) not in edges
                     for i, x in enumerate(nodes) for y in nodes[i + 1:])
            if not ok:
                return None
            stubs = [v for v, c in leftover.items() for _ in range(c)]
        return edges

    edges = None
    for _ in range(200):
        edges = attempt()
        if edges is not None:
            break
    if edges is None:
        raise RuntimeError("pairing model failed 200 consecutive restarts")
    ei = np.fromiter((e[0] for e in edges), count=len(edges), dtype=int)
    ej = np.fromiter((e[1] for e in edges), count=len(edges), dtype=int)
    return _symmat(n, ei, ej, np.ones(ei.size))


def centered_regular(n: int, d: int, seed) -> SymmetricMatrix:
    """Centered adjacency A_G - (d/n) ones ones^T of a random d-regular graph.

    The rank-one correction stays lazy, so mat-vecs remain O(edges + n).
    """
    return SymmetricMatrix._symmetric(random_regular(n, d, seed)._core, shift=-float(d) / n)


def so_sync(m: int, d: int, noise: float, seed) -> Instance:
    """Pairwise rotation measurements R_i^T R_j plus Gaussian block noise.

    Nonstandard model (the noise law is a modeling choice); the standard
    Orthogonal-Cut experiments draw the data matrix directly from goe() with
    a block view instead.  Ground-truth rotations live in meta["rotations"].
    """
    if m < 1 or d < 1:
        raise ValueError("need m, d >= 1")
    if noise < 0.0:
        raise ValueError("noise must be nonnegative")
    rng = np.random.default_rng(seed)
    # Haar-ish members of SO(d): QR of Gaussians with a sign fix, det +1
    q, r = np.linalg.qr(rng.standard_normal((m, d, d)))
    rots = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    flip = np.linalg.det(rots) < 0
    rots[flip, :, 0] = -rots[flip, :, 0]
    # block (i, j) is R_i^T R_j plus noise, written row by row into a view of
    # the n x n matrix; the noise of the blocks j >= i is drawn in row-major
    # order, symmetrized on the diagonal, and the blocks are mirrored below
    n = m * d
    a = np.empty((m, d, m, d))
    blocks = a.transpose(0, 2, 1, 3)  # blocks[i, j] is block (i, j)
    for i in range(m):
        w = rng.standard_normal((m - i, d, d))
        w[0] = (w[0] + w[0].T) / np.sqrt(2.0)
        blocks[i, i:] = rots[i].T @ rots[i:] + noise * w
        blocks[i + 1:, i] = blocks[i, i + 1:].transpose(0, 2, 1)
    a = a.reshape(n, n)
    return Instance(A=SymmetricMatrix(a, block_dim=d), ground_truth=None,
                    meta={"model": "so_sync", "m": m, "d": d, "noise": noise,
                          "seed": seed, "rotations": rots})
