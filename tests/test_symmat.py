import os
import time
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from lowranksdp import instances, stiefel, symmat
from lowranksdp.symmat import (
    SymmetricMatrix,
    load_symmat,
    opnorm_estimate,
    save_symmat,
)


def _small_sparse_core():
    return sp.csr_matrix(([2.5, 2.5, -1.0, 7.0], ([0, 3, 1, 4], [3, 0, 1, 4])), shape=(5, 5))


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

    def test_rejects_overflow_in_symmetrization(self):
        # finite input whose average with its transpose overflows to inf
        dense = np.array([[0.0, 1e308], [1e308, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(dense)
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix(sp.csr_matrix(dense))

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


def _same_core(A, B):
    """Bit-identical cores: the same storage, arrays and flags."""
    if A.is_sparse or B.is_sparse:
        assert A.is_sparse and B.is_sparse
        return all(np.array_equal(getattr(A._core, f), getattr(B._core, f))
                   and getattr(A._core, f).dtype == getattr(B._core, f).dtype
                   for f in ("data", "indices", "indptr"))
    return np.array_equal(A._core, B._core) and not A._core.flags.writeable


class TestSymmetricByConstruction:
    """``SymmetricMatrix._symmetric`` skips the symmetry check and the averaging
    on cores built symmetric; the result equals the checked construction."""

    @pytest.mark.parametrize("make", [
        lambda: instances.erdos_renyi(300, 6.0, 4),
        lambda: instances.random_regular(120, 5, 2),
        lambda: instances.sbm(200, 12, 4, 0).A,
        lambda: instances.sbm(200, 12, 4, 0).adjacency,
        lambda: instances.centered_regular(100, 4, 1),
        lambda: instances.erdos_renyi(40, 30.0, 1),  # dense: above the density cutoff
        lambda: instances.goe(300, 3),
        lambda: instances.spiked(300, 1.5, 2).A,
    ], ids=["er", "regular", "sbm", "sbm-adjacency", "centered-regular", "er-dense", "goe",
            "spiked"])
    def test_generators_equal_the_checked_construction(self, make):
        A = make()
        checked = SymmetricMatrix(A._core, shift=A.shift)
        assert checked.shift == A.shift
        assert _same_core(A, checked)

    def test_dense_generators_skip_the_checked_constructor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the checked constructor ran")

        monkeypatch.setattr(SymmetricMatrix, "__init__", refuse)
        assert instances.goe(20, 0).n == 20
        assert instances.spiked(20, 2.0, 0).A.n == 20

    def test_loaded_dense_file_equals_the_checked_construction(self, tmp_path):
        A = instances.goe(30, 5).with_block_dim(3)
        path = tmp_path / "goe.symmat"
        save_symmat(A, path)
        B = load_symmat(path)
        assert not B.is_sparse and B.block_dim == 3
        assert _same_core(B, A)
        assert _same_core(B, SymmetricMatrix(B._core))

    def test_loaded_sparse_file_drops_explicit_zeros_as_the_checked_construction_does(
            self, tmp_path):
        path = tmp_path / "z.symmat"
        path.write_text("symmat n 40\n0 1 2.5\n1 2 0\n3 3 -0.0\n5 9 -1\n")
        B = load_symmat(path)
        assert B.is_sparse and B._core.nnz == 4
        checked = SymmetricMatrix(symmat._mirror(40, np.array([0, 1, 3, 5]), np.array([1, 2, 3, 9]),
                                                 np.array([2.5, 0.0, -0.0, -1.0])).tocsr())
        assert _same_core(B, checked)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_load_still_rejects_nonfinite_values(self, tmp_path, bad):
        for n in (3, 40):  # dense and sparse cores
            path = tmp_path / "bad.symmat"
            path.write_text(f"symmat n {n}\n0 0 1\n0 1 {bad}\n")
            with pytest.raises(ValueError, match="finite"):
                load_symmat(path)

    def test_still_rejects_a_nonfinite_shift(self):
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix._symmetric(sp.csr_matrix(np.eye(3)), shift=np.nan)


class TestL1Norm:
    def test_zero_matrix(self):
        assert SymmetricMatrix(np.zeros((3, 3))).l1_norm() == 0.0

    def test_single_offdiagonal_pair(self):
        assert SymmetricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])).l1_norm() == 1.0

    def test_complete_graph_k4(self):
        # direct column-sum enumeration: each column of K4 has three ones
        A = complete_graph(4)
        cols = np.abs(A.to_dense()).sum(axis=0)
        assert cols.max() == 3.0
        assert A.l1_norm() == 3.0

    def test_shifted_sparse_matches_dense(self):
        rng = np.random.default_rng(0)
        core = sp.random(40, 40, density=0.05, random_state=1)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr(), shift=-0.37)
        dense = SymmetricMatrix(A.to_dense())
        assert A.l1_norm() == pytest.approx(dense.l1_norm(), rel=1e-12)


class TestOpnorm:
    def test_diagonal_matrix(self):
        A = SymmetricMatrix(np.diag([3.0, -5.0, 1.0]))
        est = opnorm_estimate(A, rel_tol=1e-4, max_iters=2000, seed=0)
        assert est.converged
        assert est.value == pytest.approx(5.0, rel=1e-3)

    def test_zero_matrix(self):
        est = opnorm_estimate(SymmetricMatrix(np.zeros((4, 4))))
        assert est.value == 0.0 and est.converged

    @pytest.mark.parametrize("model", ["goe", "-erdos_renyi", "centered_sbm", "negative_top"])
    def test_goe_against_dense_eigensolver(self, model):
        # the solver's gradient threshold and the benchmark's check of the
        # gradient norm against ||A||_2 need the estimate to be a lower bound
        rng = np.random.default_rng(7)
        g = rng.standard_normal((200, 200))
        w = (g + g.T) / np.sqrt(400.0)
        x = rng.standard_normal(200)
        A = {"goe": lambda: SymmetricMatrix(w),
             "-erdos_renyi": lambda: -instances.erdos_renyi(300, 8, 1),
             "centered_sbm": lambda: instances.sbm(300, 12, 4, 2).A,
             # GOE with a negative outlier near -4.25 beyond its edge at 2
             "negative_top": lambda: SymmetricMatrix(w - 4.0 * np.outer(x, x) / (x @ x))}[model]()
        assert (A.shift != 0.0) == (model == "centered_sbm")
        evals = np.linalg.eigvalsh(A.to_dense())
        truth = float(max(-evals[0], evals[-1]))
        if model in ("-erdos_renyi", "negative_top"):
            assert -evals[0] > evals[-1]
        max_iters = 5000
        est = opnorm_estimate(A, rel_tol=1e-4, max_iters=max_iters, seed=3)
        assert est.converged and est.iterations <= min(max_iters, A.n)
        assert est.value <= truth * (1.0 + 1e-12)
        assert est.value >= (1.0 - 1e-3) * truth

    def test_never_exceeds_l1(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            m = rng.standard_normal((30, 30))
            A = SymmetricMatrix((m + m.T) / 2)
            assert A.opnorm() <= A.l1_norm() + 1e-12

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            opnorm_estimate(SymmetricMatrix(np.eye(2)), rel_tol=1.5)


def _dense_ritz_range(alpha, beta):
    """The extreme Ritz values by a dense solve of the whole tridiagonal."""
    theta = np.linalg.eigvalsh(symmat._tridiagonal(alpha, beta))
    return float(theta[0]), float(theta[-1])


class TestRitzRange:
    """The Ritz values the estimate reads come from bisection on the tridiagonal."""

    @pytest.mark.parametrize("model", ["goe", "-erdos_renyi", "centered_regular"])
    @pytest.mark.parametrize("rel_tol", [1e-3, 1e-8])
    def test_matches_the_dense_solve(self, monkeypatch, model, rel_tol):
        A = {"goe": lambda: instances.goe(400, 2),
             "-erdos_renyi": lambda: -instances.erdos_renyi(800, 8, 4),
             "centered_regular": lambda: instances.centered_regular(600, 3, 5)}[model]()
        got = opnorm_estimate(A, rel_tol=rel_tol)
        monkeypatch.setattr(symmat, "_ritz_range", _dense_ritz_range)
        dense = opnorm_estimate(A, rel_tol=rel_tol)
        assert got.iterations == dense.iterations and got.converged == dense.converged
        assert got.value == pytest.approx(dense.value, rel=1e-12, abs=0.0)
        assert got.upper == pytest.approx(dense.upper, rel=1e-12, abs=0.0)

    def test_a_long_run_is_five_times_faster(self, monkeypatch):
        # at rel_tol 1e-15 the run goes on until its estimate stops moving, some
        # 380 steps, where the dense solve of every step's tridiagonal dominated
        A = instances.centered_regular(20000, 3, 1)
        opnorm_estimate(A, max_iters=20)  # warm the imports and the caches

        def cpu(run):
            start = time.process_time()
            est = run()
            return time.process_time() - start, est

        lean, est = min(cpu(lambda: opnorm_estimate(A, rel_tol=1e-15)) for _ in range(2))
        monkeypatch.setattr(symmat, "_ritz_range", _dense_ritz_range)
        dense, dense_est = cpu(lambda: opnorm_estimate(A, rel_tol=1e-15))
        assert min(est.iterations, dense_est.iterations) >= 300
        assert dense >= 5.0 * lean


class TestOpnormUpperBound:
    """The upper bound on ||A||_2 that the same Lanczos run gives (Kuczynski-Wozniakowski)."""

    @pytest.mark.parametrize("model", ["goe", "spiked", "-erdos_renyi", "centered_sbm",
                                       "regular", "block_view"])
    def test_brackets_the_dense_norm(self, model):
        A = {"goe": lambda: instances.goe(400, 1),
             "spiked": lambda: instances.spiked(300, 2.5, 2).A,
             "-erdos_renyi": lambda: -instances.erdos_renyi(600, 8, 3),
             "centered_sbm": lambda: instances.sbm(600, 12, 4, 4).A,
             "regular": lambda: instances.random_regular(500, 3, 5),
             "block_view": lambda: instances.goe(300, 6).with_block_dim(3)}[model]()
        truth = float(np.abs(np.linalg.eigvalsh(A.to_dense())).max())
        est = opnorm_estimate(A)
        # the dense truth carries roundoff too: a regular graph's norm is its
        # degree, which is also ||A||_1, where the bound is clamped
        assert est.value <= truth * (1.0 + 1e-12)
        assert truth * (1.0 - 1e-12) <= est.upper <= A.l1_norm()
        assert A.opnorm_upper() == est.upper

    def test_exact_once_the_krylov_space_closes(self):
        for seed in range(5):
            A = instances.goe(8, seed)  # n below the bound's step count
            truth = float(np.abs(np.linalg.eigvalsh(A.to_dense())).max())
            est = opnorm_estimate(A)
            assert est.iterations <= A.n
            assert truth <= est.upper <= truth + 1e-9 * A.l1_norm()

    def test_zero_matrix(self):
        assert opnorm_estimate(SymmetricMatrix(np.zeros((4, 4)))).upper == 0.0

    def test_negation_and_block_views_share_the_cached_bound(self, monkeypatch):
        A = instances.goe(60, 7)
        upper = A.opnorm_upper()
        monkeypatch.setattr(symmat, "opnorm_estimate", None)  # any new run would fail
        assert (-A).opnorm_upper() == A.with_block_dim(3).opnorm_upper() == upper

    @pytest.mark.parametrize("model", ["goe", "-erdos_renyi"])
    def test_extension_leaves_the_estimate_and_adds_at_most_the_fixed_count(self, model,
                                                                             monkeypatch):
        A = {"goe": lambda: instances.goe(500, 8),
             "-erdos_renyi": lambda: -instances.erdos_renyi(800, 8, 9)}[model]()
        fixed = symmat._BOUND_STEPS
        calls = []
        dot = SymmetricMatrix.dot
        monkeypatch.setattr(SymmetricMatrix, "dot", lambda B, x: calls.append(1) or dot(B, x))
        full = opnorm_estimate(A)
        assert len(calls) == full.iterations  # one product per step
        monkeypatch.setattr(symmat, "_BOUND_STEPS", 1)  # the estimate's run alone
        alone = opnorm_estimate(A)
        # the estimate is read where it stops on its own, bit for bit
        assert full.value == alone.value and full.converged == alone.converged
        assert full.iterations == max(alone.iterations, fixed)
        # the sparse graph's estimate stops early, so the bound extends its run
        assert (alone.iterations < fixed) == (model == "-erdos_renyi")

    @pytest.mark.parametrize("dim", [1, 80, 10**6])
    @pytest.mark.parametrize("log_inv_fail", [0.5, 7.6, 30.0])
    def test_kw_helpers_invert_each_other(self, dim, log_inv_fail):
        for steps in range(1, 300):
            e = symmat._kw_accuracy(steps, dim, log_inv_fail)
            # the accuracy bought by a count asks for that count, up to roundoff
            assert symmat._kw_steps(e * (1.0 + 1e-12), dim, log_inv_fail) == steps
        for e in np.geomspace(1e-9, 1.0, 60):
            steps = symmat._kw_steps(e, dim, log_inv_fail)
            # the fewest steps that buy accuracy e
            assert symmat._kw_accuracy(steps, dim, log_inv_fail) <= e * (1.0 + 1e-12)
            assert steps == 1 or symmat._kw_accuracy(steps - 1, dim, log_inv_fail) > e


class TestSymmatmul:
    def test_identity(self):
        A = SymmetricMatrix(np.eye(4))
        x = np.arange(8.0).reshape(4, 2)
        assert np.array_equal(A.dot(x), x)

    def test_zero(self):
        A = SymmetricMatrix(np.zeros((4, 4)))
        assert np.all(A.dot(np.ones((4, 2))) == 0.0)

    def test_sparse_matches_densified_oracle(self):
        rng = np.random.default_rng(5)
        core = sp.random(50, 50, density=0.05, random_state=11)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr())
        x = rng.standard_normal((50, 3))
        oracle = A.to_dense() @ x
        got = A.dot(x)
        assert np.linalg.norm(got - oracle) <= 1e-12 * max(np.linalg.norm(oracle), 1.0)

    def test_shifted_matvec_matches_dense(self):
        core = sp.random(30, 30, density=0.08, random_state=3)
        core = core + core.T
        A = SymmetricMatrix(core.tocsr(), shift=0.21)
        x = np.random.default_rng(0).standard_normal((30, 4))
        oracle = A.to_dense() @ x
        rel = np.linalg.norm(A.dot(x) - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10

    def test_shifted_dot_matches_the_dense_matrix(self):
        A = instances.sbm(3000, 12, 4, 7).A
        assert A.is_sparse and A.shift != 0.0
        x = np.random.default_rng(8).standard_normal((3000, 5))
        err = np.abs(A.dot(x) - A.to_dense() @ x).max()
        assert err <= 1e-12 * A.l1_norm() * np.linalg.norm(x)

    @pytest.mark.parametrize("model", ["dense", "sparse", "shifted"])
    @pytest.mark.parametrize("shape", [(60,), (60, 4)])
    def test_dot_leaves_its_argument_alone(self, model, shape):
        A = {"dense": lambda: instances.goe(60, 3),
             "sparse": lambda: -instances.erdos_renyi(60, 6, 3),
             "shifted": lambda: instances.sbm(60, 12, 4, 3).A}[model]()
        assert A.is_sparse == (model != "dense") and (A.shift != 0.0) == (model == "shifted")
        x = np.random.default_rng(4).standard_normal(shape)
        before = x.tobytes()
        y = A.dot(x)
        assert x.tobytes() == before and not np.shares_memory(y, x)

    def test_dimension_mismatch(self):
        A = SymmetricMatrix(np.eye(3))
        with pytest.raises(ValueError):
            A.dot(np.ones((4, 2)))


class TestFileFormat:
    def test_lines_print_as_str_format(self, tmp_path, monkeypatch):
        # one % call per chunk prints the bytes str.format printed line by line
        monkeypatch.setattr(symmat, "_CHUNK_ROWS", 7)
        rng = np.random.default_rng(3)
        v = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
                             -1.7976931348623157e308, 0.1, 1 / 3, 1e-300, 2.0**53 + 1],
                            rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)])
        i = rng.integers(0, 3 * 10**9, len(v))
        j = np.arange(len(v), dtype=np.int32)
        path = tmp_path / "t.txt"
        symmat._write_lines(path, "head", "%d %d %.17g\n", (i, j, v))
        expect = "".join(map("{} {} {:.17g}\n".format, i.tolist(), j.tolist(), v.tolist()))
        assert path.read_text() == "head\n" + expect

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

    @pytest.mark.parametrize("block_dim", [None, 3])
    def test_sparse_save_matches_dense_save(self, tmp_path, block_dim):
        # the sparse writer reads stored entries only, yet writes the same bytes
        core = sp.random(60, 60, density=0.05, random_state=3)
        core = (core - core.T + 2.0 * sp.diags(np.arange(60) % 3.0)).tocsr()
        core = core + core.T
        core.data[::7] = 0.0  # stored zeros are not written
        for shift in (0.0, -0.25):  # a shift goes in the header, not into the triplets
            A = SymmetricMatrix(core, shift=shift, block_dim=block_dim)
            assert A.is_sparse
            sparse_path, dense_path = tmp_path / "s.symmat", tmp_path / "d.symmat"
            save_symmat(A, sparse_path)
            save_symmat(SymmetricMatrix(core.toarray(), shift=shift, block_dim=block_dim),
                        dense_path)
            assert sparse_path.read_bytes() == dense_path.read_bytes()
            assert np.array_equal(load_symmat(sparse_path).to_dense(), A.to_dense())

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

    @pytest.mark.parametrize("make", [
        lambda: instances.sbm(200, 12, 4, 0).A,
        lambda: instances.centered_regular(100, 4, 1),
        lambda: SymmetricMatrix(np.add.outer(np.arange(4.0), np.arange(4.0)) % 3 - 1, shift=-0.3),
    ], ids=["sbm", "centered-regular", "dense-core"])
    def test_round_trip_keeps_lazy_shift(self, tmp_path, make):
        A = make()
        path = tmp_path / "a.symmat"
        save_symmat(A, path)
        B = load_symmat(path)
        assert B.is_sparse == A.is_sparse and B.shift == A.shift != 0.0
        if A.is_sparse:
            for field in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(B._core, field), getattr(A._core, field))
        else:
            assert np.array_equal(B._core, A._core)
        x = np.random.default_rng(0).standard_normal((A.n, 3))
        assert np.array_equal(B.dot(x), A.dot(x))
        assert B.l1_norm() == A.l1_norm()

    def test_bad_body_line_names_the_line(self, tmp_path):
        path = tmp_path / "bad.symmat"
        for body in ["0 1 x", "0 1", "0 1 2 3", "0.5 1 2", "1e3 1 2", "# c",
                     "99999999999999999999 1 2",  # overflows int64
                     "1_0 1 2"]:  # Python's int() takes it, the file format does not
            path.write_text(f"symmat n 3\n0 0 1\n\n{body}\n1 2 3\n")
            with pytest.raises(ValueError, match=f"bad symmat line '{body}'"):
                load_symmat(path)

    def test_bad_line_is_found_past_the_first_chunk(self, tmp_path):
        path = tmp_path / "bad.symmat"
        good = "".join(f"{i} {i + 1} 0.5\n" for i in range(20000))
        path.write_text(f"symmat n 20001\n{good}7 8 oops\n{good}")
        with pytest.raises(ValueError, match="bad symmat line '7 8 oops'"):
            load_symmat(path)

    def test_integer_parsed_via_float_is_a_bad_line(self, monkeypatch):
        # NumPy >= 1.23 before the deprecation expired loads "0.5" into an int64
        # field through a float and only warns; the reader must not accept it
        def warning_loadtxt(*args, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning)
        monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
        with pytest.raises(DeprecationWarning):
            symmat._triplets(["0.5 1 2\n"])

    def test_reads_a_pipe(self):
        for body, error in [("0 1 2\n", None), ("0 1 x\n", "bad symmat line: could not convert")]:
            r, w = os.pipe()  # not seekable, like `--in /dev/stdin`
            os.write(w, f"symmat n 3\n{body}".encode())
            os.close(w)
            if error is None:
                assert load_symmat(r).to_dense()[1, 0] == 2.0
            else:
                with pytest.raises(ValueError, match=error):
                    load_symmat(r)

    @pytest.mark.parametrize("text, n", [("symmat n 3\n", 3), ("symmat n 3\n\n  \n\n", 3),
                                         ("symmat n 0\n", 0)])
    def test_empty_body_loads_a_zero_matrix_silently(self, tmp_path, text, n):
        path = tmp_path / "empty.symmat"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a body with no data
            A = load_symmat(path)
        assert A.n == n and A.shift == 0.0
        assert np.array_equal(A.to_dense(), np.zeros((n, n)))

    # the exact text each writer produces: 17 significant digits, one entry or
    # row per line, no trailing blank line
    @pytest.mark.parametrize("make, text", [
        (lambda: SymmetricMatrix(np.array([[0.1, -2.0, 0.0], [-2.0, 0.0, 1 / 3], [0.0, 1 / 3, 1e-300]])),
         "symmat n 3\n0 0 0.10000000000000001\n0 1 -2\n1 2 0.33333333333333331\n2 2 1e-300\n"),
        (lambda: SymmetricMatrix(_small_sparse_core()),
         "symmat n 5\n0 3 2.5\n1 1 -1\n4 4 7\n"),
        (lambda: SymmetricMatrix(_small_sparse_core(), shift=-1 / 3),
         "symmat n 5 shift -0.33333333333333331\n0 3 2.5\n1 1 -1\n4 4 7\n"),
        (lambda: SymmetricMatrix(np.kron(np.eye(2), [[1.0, 0.7], [0.7, -1.0]]), block_dim=2),
         "symmat n 4 blockdim 2\n0 0 1\n0 1 0.69999999999999996\n1 1 -1\n"
         "2 2 1\n2 3 0.69999999999999996\n3 3 -1\n"),
    ], ids=["dense", "sparse", "shifted-sparse", "blockdim"])
    def test_save_writes_golden_bytes(self, tmp_path, make, text):
        path = tmp_path / "a.symmat"
        save_symmat(make(), path)
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("rows, d, text", [
        ([[1.0, 0.0], [0.6, 0.8], [np.sqrt(0.5), -np.sqrt(0.5)]], 1,
         "config n 3 k 2\n1 0\n0.59999999999999998 0.80000000000000004\n"
         "0.70710678118654757 -0.70710678118654757\n"),
        ([[0.6, 0.8, 0, 0], [-0.8, 0.6, 0, 0], [0, 0, 1, 0],
          [0, 0, 0.8, 0.6], [0, 0, 0.6, -0.8], [0, 1, 0, 0]], 3,
         "occonfig m 2 d 3 k 4\n0.59999999999999998 0.80000000000000004 0 0\n"
         "-0.80000000000000004 0.59999999999999998 0 0\n0 0 1 0\n"
         "0 0 0.80000000000000004 0.59999999999999998\n"
         "0 0 0.59999999999999998 -0.80000000000000004\n0 1 0 0\n"),
    ], ids=["d1", "d3"])
    def test_write_config_golden_bytes(self, tmp_path, rows, d, text):
        path = tmp_path / "c.config"
        stiefel.write_config(stiefel.StiefelConfig(np.array(rows), d), path)
        assert path.read_bytes() == text.encode()

    @pytest.mark.parametrize("make", [lambda: instances.goe(200, 5),
                                      lambda: -instances.erdos_renyi(300, 6, 5)],
                             ids=["goe", "neg-er"])
    def test_round_trip_is_bit_identical(self, tmp_path, make):
        # both files span several write chunks; the reference is one f-string per entry
        A = make()
        path = tmp_path / "a.symmat"
        save_symmat(A, path)
        upper = np.triu(A.to_dense())
        ii, jj = np.nonzero(upper)
        expected = f"symmat n {A.n}\n" + "".join(
            f"{i} {j} {v:.17g}\n" for i, j, v in zip(ii, jj, upper[ii, jj]))
        assert path.read_text() == expected
        B = load_symmat(path)
        assert (B.is_sparse, B.shift, B.block_dim) == (A.is_sparse, A.shift, A.block_dim)
        if A.is_sparse:
            for field in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(B._core, field), getattr(A._core, field))
        else:
            assert np.array_equal(B._core, A._core)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.symmat"
        for header in ["wrong 2",
                       "symmat n",  # no value for n
                       "symmat n 3 blockdim",  # no value for blockdim
                       "symmat n 4 blockdim 2 junk 7",  # unknown field
                       "symmat n 4 shift 1 shift 2",  # repeated field
                       "symmat blockdim 2",  # no n
                       "symmat n 2 shift nan",
                       "symmat n -3",  # negative n
                       "symmat n 99999999999999999999"]:  # n * n overflows int64
            path.write_text(header + "\n0 1 1\n")
            with pytest.raises(ValueError):
                load_symmat(path)
