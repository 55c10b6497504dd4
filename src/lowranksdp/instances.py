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


def goe(n: int, seed) -> SymmetricMatrix:
    """Gaussian symmetric matrix: variance 2/n on the diagonal, 1/n off it."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    w = (g + g.T) / np.sqrt(2.0 * n)
    return SymmetricMatrix(w)


def spiked(n: int, lam: float, seed) -> Instance:
    """Rank-one +-1 spike (lam/n) u u^T plus Gaussian noise; truth attached."""
    if n < 1:
        raise ValueError("n must be positive")
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 1.0], size=n)
    g = rng.standard_normal((n, n))
    w = (g + g.T) / np.sqrt(2.0 * n)
    a = (lam / n) * np.outer(u, u) + w
    return Instance(A=SymmetricMatrix(a), ground_truth=u,
                    meta={"model": "spiked", "n": n, "lam": lam, "seed": seed})


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
    iu, ju = np.triu_indices(n, k=1)
    same = u[iu] * u[ju] > 0
    prob = np.where(same, a / n, b / n)
    keep = rng.random(iu.size) < prob
    adj = _mirror(n, iu[keep], ju[keep], np.ones(int(keep.sum()))).tocsr()
    adjacency = SymmetricMatrix(adj)
    core = adj / np.sqrt(d)
    centered = SymmetricMatrix(core, shift=-(d / n) / np.sqrt(d))
    return Instance(A=centered, ground_truth=u,
                    meta={"model": "sbm", "n": n, "a": a, "b": b, "seed": seed,
                          "snr": sbm_snr(a, b)},
                    adjacency=adjacency)


def erdos_renyi(n: int, d_avg: float, seed) -> SymmetricMatrix:
    """Adjacency of G(n, d_avg/n): each pair is an edge independently."""
    if not 0 < d_avg < n:
        raise ValueError("need 0 < d_avg < n")
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < d_avg / n
    return _symmat(n, iu[keep], ju[keep], np.ones(int(keep.sum())))


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
    return SymmetricMatrix(random_regular(n, d, seed)._core, shift=-float(d) / n)


def _haar_rotation(d: int, rng) -> np.ndarray:
    """Haar-ish member of SO(d): QR of a Gaussian with sign fix, det +1."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


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
    rots = np.stack([_haar_rotation(d, rng) for _ in range(m)])
    n = m * d
    a = np.zeros((n, n))
    for i in range(m):
        for j in range(i, m):
            block = rots[i].T @ rots[j]
            w = rng.standard_normal((d, d))
            if i == j:
                w = (w + w.T) / np.sqrt(2.0)
            a[i * d:(i + 1) * d, j * d:(j + 1) * d] = block + noise * w
            if j > i:
                a[j * d:(j + 1) * d, i * d:(i + 1) * d] = a[i * d:(i + 1) * d, j * d:(j + 1) * d].T
    return Instance(A=SymmetricMatrix(a, block_dim=d), ground_truth=None,
                    meta={"model": "so_sync", "m": m, "d": d, "noise": noise,
                          "seed": seed, "rotations": rots})
