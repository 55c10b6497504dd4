import warnings

import numpy as np
import pytest

from lowranksdp import instances, sphere, stiefel
from lowranksdp.stiefel import (
    ROW_TOL,
    OcHessianOperator,
    StiefelConfig,
    StiefelTangent,
    load_oc_config,
    oc_gradient,
    oc_lambda_blocks,
    oc_objective,
    oc_project_tangent,
    oc_random_config,
    oc_random_tangent,
    oc_rayleigh,
    oc_retract,
    read_config,
    save_oc_config,
)
from lowranksdp.symmat import SymmetricMatrix


def constraint_basis(m, d):
    """The constraint family: E_ii with value 1, (E_ij + E_ji)/sqrt(2) with 0."""
    n = m * d
    mats = []
    for b in range(m):
        lo = b * d
        for i in range(lo, lo + d):
            e = np.zeros((n, n))
            e[i, i] = 1.0
            mats.append(e)
        for i in range(lo, lo + d):
            for j in range(i + 1, lo + d):
                e = np.zeros((n, n))
                e[i, j] = e[j, i] = 1.0 / np.sqrt(2.0)
                mats.append(e)
    return mats


def block_goe(n, d, seed):
    return instances.goe(n, seed).with_block_dim(d)


class TestTypes:
    def test_rejects_non_orthonormal_blocks(self):
        rows = np.ones((4, 3))
        with pytest.raises(ValueError):
            StiefelConfig(rows, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("d", [1, 3])
    def test_rejects_nonfinite_rows(self, d, bad):
        # NaN used to pass both checks: no comparison with NaN is True
        cfg = oc_random_config(3, d, 4, 0)
        tangent = oc_random_tangent(cfg, 1)
        for row in (0, slice(None)):
            rows = np.array(cfg.rows)
            rows[row] = bad
            with pytest.raises(ValueError):
                StiefelConfig(rows, d)
            u = np.array(tangent.rows)
            u[row] = bad
            with pytest.raises(ValueError):
                StiefelTangent(u, cfg)

    def test_rejects_k_below_d(self):
        with pytest.raises(ValueError):
            oc_random_config(2, 3, 2, 0)

    def test_block_invariant_holds(self):
        cfg = oc_random_config(4, 2, 5, 0)
        blk = cfg.blocks()
        gram = np.einsum("bik,bjk->bij", blk, blk)
        assert np.abs(gram - np.eye(2)).max() <= 1e-12

    def test_tangent_skew_condition(self):
        cfg = oc_random_config(3, 2, 4, 1)
        u = oc_random_tangent(cfg, 2)
        s = np.einsum("bik,bjk->bij", u.rows.reshape(3, 2, 4), cfg.blocks())
        assert np.abs(s + s.transpose(0, 2, 1)).max() <= 1e-12


class TestProjection:
    def test_normal_space_annihilated(self):
        # v_i = sigma_i S with symmetric S lies in the normal space
        cfg = oc_random_config(3, 2, 4, 0)
        rng = np.random.default_rng(1)
        s = rng.standard_normal((3, 2, 2))
        s = s + s.transpose(0, 2, 1)
        v = np.einsum("bij,bjk->bik", s, cfg.blocks()).reshape(6, 4)
        out = oc_project_tangent(cfg, v)
        assert np.abs(out.rows).max() <= 1e-12

    def test_idempotent(self):
        cfg = oc_random_config(4, 3, 5, 2)
        v = np.random.default_rng(3).standard_normal(cfg.rows.shape)
        once = oc_project_tangent(cfg, v)
        twice = oc_project_tangent(cfg, once.rows)
        assert np.abs(once.rows - twice.rows).max() <= 1e-12

    def test_self_adjoint(self):
        cfg = oc_random_config(4, 2, 4, 4)
        rng = np.random.default_rng(5)
        v, w = rng.standard_normal((2,) + cfg.rows.shape)
        pv = oc_project_tangent(cfg, v).rows
        pw = oc_project_tangent(cfg, w).rows
        assert abs(np.sum(pv * w) - np.sum(v * pw)) <= 1e-12 * max(1.0, abs(np.sum(pv * w)))

    def test_matches_constraint_basis_oracle(self):
        m, d, k = 3, 2, 4
        cfg = oc_random_config(m, d, k, 6)
        v = np.random.default_rng(7).standard_normal((m * d, k))
        out = oc_project_tangent(cfg, v)
        # P_T(v) = v - sum_i <B_i sigma, v> B_i sigma over the orthonormal family
        expect = v.copy()
        for b_mat in constraint_basis(m, d):
            bs = b_mat @ cfg.rows
            expect -= np.sum(bs * v) * bs
        assert np.abs(out.rows - expect).max() <= 1e-12

    def test_shape_mismatch(self):
        cfg = oc_random_config(2, 2, 3, 0)
        with pytest.raises(ValueError):
            oc_project_tangent(cfg, np.ones((3, 3)))


class TestRetraction:
    def test_zero_step_identity(self):
        cfg = oc_random_config(3, 2, 4, 0)
        u = oc_random_tangent(cfg, 1)
        assert oc_retract(cfg, u, 0.0) is cfg

    def test_output_orthonormal(self):
        cfg = oc_random_config(5, 3, 6, 2)
        u = oc_random_tangent(cfg, 3)
        out = oc_retract(cfg, u, 0.9)
        blk = out.blocks()
        gram = np.einsum("bik,bjk->bij", blk, blk)
        assert np.abs(gram - np.eye(3)).max() <= 1e-12

    def test_d1_reduces_to_sphere_retraction(self):
        cfg = oc_random_config(6, 1, 3, 4)
        u = oc_random_tangent(cfg, 5)
        scfg = sphere.SphereConfig(cfg.rows)
        su = sphere.TangentField(u.rows, scfg)
        got = oc_retract(cfg, u, 0.37)
        expect = sphere.retract(scfg, su, 0.37)
        assert np.array_equal(got.rows, expect.rows)

    def test_polar_is_nearest_frame(self):
        # polar factor maximizes <Q, M> over row-orthonormal Q
        cfg = oc_random_config(2, 2, 3, 8)
        u = oc_random_tangent(cfg, 9)
        t = 0.5
        out = oc_retract(cfg, u, t)
        moved = (cfg.rows + t * u.rows).reshape(2, 2, 3)
        got = np.einsum("bik,bik->", out.blocks(), moved)
        rng = np.random.default_rng(10)
        for _ in range(50):
            q = oc_random_config(2, 2, 3, rng).blocks()
            assert np.einsum("bik,bik->", q, moved) <= got + 1e-9


class TestLeanKernels:
    """The step kernels work in buffers they make: a point, its product and its
    gradient are shared by later states and Hessian operators, so no kernel
    may write into an argument or hand one back."""

    @pytest.mark.parametrize("d", [1, 3])
    def test_no_argument_is_written_or_returned(self, d):
        A = block_goe(36, d, 0)
        cfg = oc_random_config(36 // d, d, 5, 1)
        # writable copies, so that a write would land instead of raising
        rows, u = np.array(cfg.rows), np.array(oc_random_tangent(cfg, 2).rows)
        asig = A.dot(rows)
        lam = stiefel._multiplier(rows, asig, d)
        args = (rows, u, asig, lam)
        before = [a.tobytes() for a in args]
        outs = [stiefel._retract_rows(rows, u, 0.3, d), stiefel._retract_rows(rows, u, 0.0, d),
                stiefel._gradient_rows(rows, asig, lam, d), stiefel._lam_times(lam, rows, d),
                stiefel.project_rows(cfg, u)]
        if d == 1:
            outs.append(stiefel.normalize_rows(rows))
        assert [a.tobytes() for a in args] == before
        for out in outs:
            assert not any(np.shares_memory(out, a) for a in args + (cfg.rows,))

    def test_d1_retraction_is_the_normalized_sum(self):
        cfg = oc_random_config(500, 1, 8, 5)
        u = oc_random_tangent(cfg, 6).rows * 30.0  # rows of norm about 1
        for t in (1e-9, 0.3, 4.0, -2.5):
            got = stiefel._retract_rows(cfg.rows, u, t, 1)
            assert np.abs(np.linalg.norm(got, axis=1) - 1.0).max() <= ROW_TOL
            moved = cfg.rows + t * u
            expect = moved / np.linalg.norm(moved, axis=1, keepdims=True)
            # unit rows: an absolute error is a relative one
            assert np.linalg.norm(got - expect, axis=1).max() <= 1e-15
            assert np.array_equal(oc_retract(cfg, StiefelTangent(u, cfg), t).rows, got)


class TestGradientAndHessian:
    def test_identity_matrix_zero_gradient(self):
        A = SymmetricMatrix(np.eye(8), block_dim=2)
        cfg = oc_random_config(4, 2, 3, 0)
        assert oc_gradient(A, cfg).norm <= 1e-13

    def test_requires_block_structure(self):
        A = instances.goe(8, 0)  # no block_dim
        cfg = oc_random_config(4, 2, 3, 0)
        with pytest.raises(ValueError):
            oc_gradient(A, cfg)

    def test_d1_matches_sphere(self):
        A = block_goe(10, 1, 3)
        cfg = oc_random_config(10, 1, 4, 1)
        scfg = sphere.SphereConfig(cfg.rows)
        g_oc = oc_gradient(A, cfg)
        g_sp = sphere.gradient(A, scfg)
        assert np.array_equal(g_oc.rows, g_sp.rows)
        H = sphere.HessianOperator(A, scfg)
        for seed in range(10):
            u = oc_random_tangent(cfg, seed)
            su = sphere.TangentField(u.rows, scfg)
            assert oc_rayleigh(A, cfg, u) == H.rayleigh(su)

    def test_one_hessian_class(self):
        # the sphere names' operator is this class; it asks for the block
        # structure only where d > 1 needs it
        assert sphere.HessianOperator is OcHessianOperator
        A = instances.goe(12, 3)
        cfg = oc_random_config(12, 1, 3, 1)
        for B in (A, A.with_block_dim(3)):
            assert OcHessianOperator(B, cfg).objective_value() == oc_objective(A, cfg)
        cfg3 = oc_random_config(4, 3, 4, 1)
        OcHessianOperator(A.with_block_dim(3), cfg3)
        for B in (A, A.with_block_dim(2)):
            with pytest.raises(ValueError, match="block_dim != d"):
                OcHessianOperator(B, cfg3)

    def test_gradient_is_projected_euclidean(self):
        A = block_goe(12, 3, 5)
        cfg = oc_random_config(4, 3, 5, 2)
        g = oc_gradient(A, cfg)
        proj = oc_project_tangent(cfg, 2.0 * A.dot(cfg.rows))
        assert np.abs(g.rows - proj.rows).max() <= 1e-12

    def test_lambda_matches_constraint_basis_oracle(self):
        m, d, k = 3, 2, 4
        A = block_goe(m * d, d, 7)
        cfg = oc_random_config(m, d, k, 3)
        lam_blocks = oc_lambda_blocks(A, cfg)
        # lambda_i = Tr(B_i A sigma sigma^T); reassemble Lambda = sum lambda_i B_i
        x = cfg.rows @ cfg.rows.T
        ax = A.to_dense() @ x
        lam_full = np.zeros((m * d, m * d))
        for b_mat in constraint_basis(m, d):
            lam_full += float(np.sum(b_mat * ax)) * b_mat
        got = np.zeros_like(lam_full)
        for b in range(m):
            got[b * d:(b + 1) * d, b * d:(b + 1) * d] = lam_blocks[b]
        assert np.abs(got - lam_full).max() <= 1e-10

    def test_finite_difference_directional_derivative(self):
        m, d, k = 4, 3, 5
        A = block_goe(m * d, d, 11)
        cfg = oc_random_config(m, d, k, 4)
        g = oc_gradient(A, cfg)
        h = 1e-5 / np.sqrt(max(1.0, A.l1_norm()))
        for seed in range(5):
            u = oc_random_tangent(cfg, 100 + seed)
            fp = oc_objective(A, oc_retract(cfg, u, h))
            fm = oc_objective(A, oc_retract(cfg, u, -h))
            fd = (fp - fm) / (2 * h)
            expect = float(np.sum(g.rows * u.rows))
            assert fd == pytest.approx(expect, rel=1e-5, abs=1e-8)

    def test_hessian_quadratic_form_identity(self):
        A = block_goe(12, 2, 13)
        cfg = oc_random_config(6, 2, 4, 5)
        H = OcHessianOperator(A, cfg)
        for seed in range(4):
            u = oc_random_tangent(cfg, 50 + seed)
            quad = float(np.sum(u.rows * H.apply(u).rows))
            assert H.rayleigh(u) == pytest.approx(quad / float(np.sum(u.rows**2)), abs=1e-10)

    def test_hessian_second_difference(self):
        A = block_goe(12, 2, 17)
        cfg = oc_random_config(6, 2, 4, 6)
        H = OcHessianOperator(A, cfg)
        u = oc_random_tangent(cfg, 7)
        h = 1e-4
        fp = oc_objective(A, oc_retract(cfg, u, h))
        f0 = oc_objective(A, cfg)
        fm = oc_objective(A, oc_retract(cfg, u, -h))
        fd2 = (fp - 2 * f0 + fm) / (h * h)
        quad = float(np.sum(u.rows * H.apply(u).rows))
        assert fd2 == pytest.approx(quad, rel=2e-3, abs=1e-5)


class TestRandomness:
    def test_deterministic(self):
        a = oc_random_config(3, 2, 4, 9)
        b = oc_random_config(3, 2, 4, 9)
        assert np.array_equal(a.rows, b.rows)

    def test_d1_config_matches_sphere_stream(self):
        a = oc_random_config(8, 1, 3, 21)
        b = sphere.random_config(8, 3, 21)
        assert np.array_equal(a.rows, b.rows)

    def test_tangent_unit_norm(self):
        cfg = oc_random_config(4, 2, 5, 0)
        u = oc_random_tangent(cfg, 11)
        assert u.norm == pytest.approx(1.0, abs=1e-14)


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = oc_random_config(4, 3, 5, 13)
        path = tmp_path / "c.occonfig"
        save_oc_config(cfg, path)
        back = load_oc_config(path)
        assert back.d == 3
        assert np.array_equal(back.rows, cfg.rows)

    def test_config_header_refuses_a_block_point(self, tmp_path):
        # the header has no d: a d = 3 point written there read back at d = 1
        cfg = oc_random_config(4, 3, 5, 13)
        path = tmp_path / "c.config"
        with pytest.raises(ValueError, match="d = 1"):
            sphere.save_config(cfg, path)
        assert not path.exists()
        stiefel.write_config(cfg, path)  # the default header keeps d
        back = read_config(path)
        assert back.d == 3 and np.array_equal(back.rows, cfg.rows)

    @pytest.mark.parametrize("text", ["config n 2 k 2\nnan nan\n1 0\n",
                                      "occonfig m 1 d 2 k 2\n1 0\ninf 1\n"])
    def test_reader_rejects_nonfinite_rows(self, tmp_path, text):
        path = tmp_path / "c.config"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_config(path)

    @pytest.mark.parametrize("text", ["config n 2 k 2\n# a comment\n1 0\n0 1\n",
                                      "config n 2 k 2\n1 0\n0 1 # trailing\n"])
    def test_reader_rejects_comments(self, tmp_path, text):
        # '#' is a bad value, as in the matrix format: dropping it as a
        # comment would read both files as the 2 x 2 identity
        path = tmp_path / "c.config"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_config(path)

    def test_reader_rejects_empty_body_without_warning(self, tmp_path):
        path = tmp_path / "c.config"
        path.write_text("config n 2 k 2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="does not match header"):
                read_config(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "c.occonfig"
        path.write_text("config n 2 k 2\n")
        with pytest.raises(ValueError):
            load_oc_config(path)
