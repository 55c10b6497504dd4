import numpy as np
import pytest
import scipy.sparse as sp

from lowranksdp.symmat import (
    SymmetricMatrix,
    ddiag,
    l1_norm,
    load_symmat,
    opnorm_estimate,
    save_symmat,
    symmatmul,
)


def complete_graph(n):
    a = np.ones((n, n)) - np.eye(n)
    return SymmetricMatrix(a)


class TestConstruction:
    def test_symmetrizes_small_asymmetry(self):
        b = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        A = SymmetricMatrix(b)
        dense = A.to_dense()
        assert dense[0, 1] == dense[1, 0]

    def test_rejects_large_asymmetry(self):
        b = np.array([[1.0, 2.0], [5.0, 3.0]])
        with pytest.raises(ValueError):
            SymmetricMatrix(b)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_nonfinite(self, bad):
        # NaN and inf make the asymmetry norm NaN, which no comparison rejects
        dense = np.array([[1.0, bad], [bad, 3.0]])
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(dense)
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(sp.csr_matrix(dense))
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(np.eye(2), shift=bad)

    def test_block_dim_must_divide(self):
        with pytest.raises(ValueError):
            SymmetricMatrix(np.eye(5), block_dim=2)
        A = SymmetricMatrix(np.eye(6), block_dim=3)
        assert A.num_blocks == 2

    def test_sparse_holds_both_triangles(self):
        coo = sp.coo_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(3, 3))
        A = SymmetricMatrix(coo)
        assert A.is_sparse
        assert np.allclose(A.to_dense(), A.to_dense().T)

    def test_negation(self):
        A = SymmetricMatrix(np.array([[0.0, 2.0], [2.0, -1.0]]), shift=0.5)
        assert np.allclose((-A).to_dense(), -A.to_dense())


class TestL1Norm:
    def test_zero_matrix(self):
        assert l1_norm(SymmetricMatrix(np.zeros((3, 3)))) == 0.0

    def test_single_offdiagonal_pair(self):
        assert l1_norm(SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))) == 1.0

    def test_complete_graph_k4(self):
        # direct column-sum enumeration: each column of K4 has three ones
        A = complete_graph(4)
        cols = np.abs(A.to_dense()).sum(axis=0)
        assert cols.max() == 3.0
        assert l1_norm(A) == 3.0

    def test_shifted_sparse_matches_dense(self):
        rng = np.random.default_rng(0)
        core = sp.random(40, 40, density=0.05, random_state=1)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr(), shift=-0.37)
        dense = SymmetricMatrix(A.to_dense())
        assert l1_norm(A) == pytest.approx(l1_norm(dense), rel=1e-12)
        assert A.fro_norm() == pytest.approx(dense.fro_norm(), rel=1e-12)


class TestOpnorm:
    def test_diagonal_matrix(self):
        A = SymmetricMatrix(np.diag([3.0, -5.0, 1.0]))
        est = opnorm_estimate(A, rel_tol=1e-4, max_iters=2000, seed=0)
        assert est.converged
        assert est.value == pytest.approx(5.0, rel=1e-3)

    def test_zero_matrix(self):
        est = opnorm_estimate(SymmetricMatrix(np.zeros((4, 4))))
        assert est.value == 0.0 and est.converged

    def test_goe_against_dense_eigensolver(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((200, 200))
        w = (g + g.T) / np.sqrt(400.0)
        A = SymmetricMatrix(w)
        truth = float(np.abs(np.linalg.eigvalsh(w)).max())
        est = opnorm_estimate(A, rel_tol=1e-4, max_iters=5000, seed=3)
        assert est.converged
        assert est.value <= truth + 1e-12
        assert est.value >= (1.0 - 1e-3) * truth

    def test_never_exceeds_l1(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((30, 30))
            A = SymmetricMatrix((m + m.T) / 2)
            assert A.opnorm() <= l1_norm(A) + 1e-12

    def test_norm_cache_ordering(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((25, 25))
        A = SymmetricMatrix((m + m.T) / 2)
        cache = A.norms(rel_tol=1e-3)
        assert cache.l1 >= cache.l2_est * (1 - 1e-3) >= 0
        assert cache.fro >= cache.l2_est * (1 - 1e-3)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            opnorm_estimate(SymmetricMatrix(np.eye(2)), rel_tol=1.5)


class TestDdiag:
    def test_basic(self):
        out = ddiag(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(out, np.array([[1.0, 0.0], [0.0, 4.0]]))

    def test_diagonal_fixed_point(self):
        d = np.diag([1.0, -2.0, 3.0])
        assert np.array_equal(ddiag(d), d)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        b = rng.standard_normal((6, 6))
        assert np.array_equal(ddiag(ddiag(b)), ddiag(b))

    def test_matches_entrywise_loop(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal((5, 3))
        m = rng.standard_normal((5, 5))
        b = sig @ sig.T @ m
        expect = np.zeros_like(b)
        for i in range(5):
            expect[i, i] = b[i, i]
        assert np.allclose(ddiag(b), expect, atol=1e-14)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            ddiag(np.ones((2, 3)))


class TestSymmatmul:
    def test_identity(self):
        A = SymmetricMatrix(np.eye(4))
        x = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(symmatmul(A, x), x)

    def test_zero(self):
        A = SymmetricMatrix(np.zeros((4, 4)))
        assert np.all(symmatmul(A, np.ones((4, 2))) == 0.0)

    def test_sparse_matches_densified_oracle(self):
        rng = np.random.default_rng(5)
        core = sp.random(50, 50, density=0.05, random_state=11)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr())
        x = rng.standard_normal((50, 3))
        oracle = A.to_dense() @ x
        got = symmatmul(A, x)
        assert np.linalg.norm(got - oracle) <= 1e-12 * max(np.linalg.norm(oracle), 1.0)

    def test_shifted_matvec_matches_dense(self):
        core = sp.random(30, 30, density=0.08, random_state=3)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr(), shift=0.21)
        x = np.random.default_rng(0).standard_normal((30, 4))
        oracle = A.to_dense() @ x
        rel = np.linalg.norm(A.dot(x) - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_dimension_mismatch(self):
        A = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            symmatmul(A, np.ones((4, 2)))


class TestFileFormat:
    def test_round_trip_dense(self, tmp_path):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((7, 7))
        A = SymmetricMatrix((m + m.T) / 2, block_dim=7)
        path = tmp_path / "a.symmat"
        save_symmat(A, path)
        B = load_symmat(path)
        assert B.block_dim == 7
        assert np.allclose(A.to_dense(), B.to_dense(), atol=0, rtol=0)

    def test_round_trip_sparse_selection(self, tmp_path):
        core = sp.random(60, 60, density=0.01, random_state=2)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr())
        path = tmp_path / "a.symmat"
        save_symmat(A, path)
        B = load_symmat(path)
        assert B.is_sparse
        assert np.allclose(A.to_dense(), B.to_dense())

    def test_reader_mirrors_upper_triangle(self, tmp_path):
        path = tmp_path / "m.symmat"
        path.write_text("symmat n 2\n0 1 2.5\n")
        A = load_symmat(path)
        assert A.to_dense()[1, 0] == 2.5

    def test_reader_accepts_lower_triangle(self, tmp_path):
        path = tmp_path / "m.symmat"
        path.write_text("symmat n 3\n0 0 1\n1 0 2.5\n2 1 -1\n")
        A = load_symmat(path)
        assert np.array_equal(A.to_dense(), [[1.0, 2.5, 0.0], [2.5, 0.0, -1.0], [0.0, -1.0, 0.0]])

    @pytest.mark.parametrize("body", ["0 1 1\n1 0 1\n", "0 1 1\n0 1 1\n", "2 2 1\n2 2 1\n"])
    def test_reader_rejects_repeated_pairs(self, tmp_path, body):
        # both orientations of a pair name one entry; adding them up would double it
        path = tmp_path / "m.symmat"
        path.write_text("symmat n 3\n" + body)
        with pytest.raises(ValueError):
            load_symmat(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.symmat"
        path.write_text("wrong 2\n")
        with pytest.raises(ValueError):
            load_symmat(path)
