import math

import numpy as np
import pytest

import oracles
from lowranksdp import instances, solver, sphere, stiefel
from lowranksdp.solver import (
    MODE_EIGEN_ONLY,
    MODE_GRADIENT_EIGEN,
    SolverOptions,
    default_epsilon,
    direction_finding,
    power_method,
    projected_gradient_ascent,
    rtr_step,
    solve,
    worst_case_budget,
)
from lowranksdp.sphere import HessianOperator, random_config, random_tangent
from lowranksdp.symmat import SymmetricMatrix


def ascent_ok(report, A):
    tol = 1e-9 * A.l1_norm() * A.n
    fs = [r.objective for r in report.trace]
    return all(b >= a - tol for a, b in zip(fs, fs[1:]))


class TestDirectionFinding:
    def test_gradient_branch_returns_normalized_gradient(self):
        A = instances.goe(20, 0)
        cfg = random_config(20, 3, 1)
        g = sphere.gradient(A, cfg)
        assert g.norm > 1.0
        u, kind, _ = direction_finding(A, cfg, mu_G=1.0, epsilon=0.5, seed=0)
        assert kind == "gradient"
        assert np.allclose(u.rows, g.rows / g.norm, atol=1e-14)

    def test_identity_matrix_terminates(self):
        A = SymmetricMatrix(np.eye(12))
        cfg = random_config(12, 3, 2)
        u, kind, lam_h = direction_finding(A, cfg, mu_G=math.inf, epsilon=0.1, seed=0)
        assert kind == "eigen"
        assert abs(lam_h) <= 1e-12  # at or below any positive epsilon: stop

    def test_sign_convention(self):
        A = instances.goe(15, 3)
        cfg = random_config(15, 3, 4)
        g = sphere.gradient(A, cfg)
        for seed in range(5):
            u, kind, _ = direction_finding(A, cfg, mu_G=math.inf, epsilon=0.5, seed=seed)
            assert kind == "eigen"
            assert float(np.sum(u.rows * g.rows)) >= 0.0

    def test_eigen_direction_beats_half_lambda_max(self):
        # dense tangent-space eigendecomposition as the quality oracle
        n, k = 30, 3
        successes = 0
        for seed in range(20):
            A = instances.goe(n, 100 + seed)
            cfg = random_config(n, k, 200 + seed)
            lam_max = oracles.tangent_hessian_lambda_max(A, cfg)
            if lam_max <= 0:
                successes += 1
                continue
            u, kind, lam_h = direction_finding(
                A, cfg, mu_G=math.inf, epsilon=1e-6, lam_floor=lam_max, seed=seed)
            assert kind == "eigen"
            if lam_h >= 0.5 * lam_max:
                successes += 1
        assert successes >= 19


class TestPowerMethod:
    def test_zero_iterations_returns_start(self):
        A = instances.goe(10, 0)
        cfg = random_config(10, 3, 1)
        H = HessianOperator(A, cfg)
        rng = np.random.default_rng(5)
        expect = H.random_tangent(np.random.default_rng(5))
        got = power_method(H, mu_H=4 * A.l1_norm(), N_H=0, seed=rng)
        assert np.array_equal(got.rows, expect.rows)

    def test_zero_hessian_returns_start_direction(self):
        A = SymmetricMatrix(np.eye(10))
        cfg = random_config(10, 3, 1)
        H = HessianOperator(A, cfg)
        start = H.random_tangent(np.random.default_rng(7))
        out = power_method(H, mu_H=4.0, N_H=25, seed=np.random.default_rng(7))
        assert np.allclose(out.rows, start.rows, atol=1e-12)

    def test_factor_two_of_dense_oracle(self):
        n, k = 20, 2
        hits = 0
        total = 0
        for seed in range(20):
            A = instances.goe(n, 300 + seed)
            cfg = random_config(n, k, 400 + seed)
            lam_max = oracles.tangent_hessian_lambda_max(A, cfg)
            if lam_max <= 1e-9:
                continue
            total += 1
            n_h = int(np.ceil(8 * A.l1_norm() * np.log(n) / lam_max))
            H = HessianOperator(A, cfg)
            u = power_method(H, mu_H=4 * A.l1_norm(), N_H=n_h, seed=seed)
            if H.rayleigh(u) >= 0.5 * lam_max:
                hits += 1
        assert total >= 15
        assert hits >= total - 1

    def test_unit_norm_output(self):
        A = instances.goe(12, 9)
        cfg = random_config(12, 4, 3)
        H = HessianOperator(A, cfg)
        u = power_method(H, mu_H=4 * A.l1_norm(), N_H=30, seed=11)
        assert u.norm == pytest.approx(1.0, abs=1e-13)


class TestLanczosCertificate:
    @staticmethod
    def kw_failure(n_steps, dim, e):
        # Kuczynski-Wozniakowski random-start bound for n_steps Lanczos steps
        return 1.648 * math.sqrt(dim) * math.exp(-math.sqrt(e) * (2 * n_steps - 1))

    @pytest.mark.parametrize("warm", [False, True])
    def test_exhausted_krylov_space_matches_dense_oracle(self, warm):
        # at count D the Krylov space is the whole tangent space, so both the
        # certificate and the stepping direction's curvature are exact.  Near
        # a critical point the top curvature is close to 0, so the shifted
        # operator's top eigenvalue is close to mu_H, its value on the normal
        # space: without re-projecting every Lanczos vector, roundoff there
        # grows over the 120 steps at n = 60 (seed 1 then errs by 2.7e-5 mu_H)
        n, k = (60, 3) if warm else (30, 3)
        for seed in range(3):
            A = instances.goe(n, 700 + seed)
            cfg = random_config(n, k, 800 + seed)
            if warm:
                cfg = projected_gradient_ascent(A, cfg, iters=4000,
                                                grad_tol=0.9 * A.opnorm()).sigma
            lam_max = oracles.tangent_hessian_lambda_max(A, cfg)
            mu_h = 4.0 * A.l1_norm()
            # a huge power_C asks for more than D steps even at a loose target
            _, kind, cert = direction_finding(A, cfg, mu_G=math.inf, epsilon=lam_max + 1.0,
                                              power_C=1e4, seed=seed)
            assert kind == "eigen"
            assert abs(cert - lam_max) <= 1e-8 * mu_h
            u, kind, lam_h = direction_finding(A, cfg, mu_G=math.inf, epsilon=1e-8, seed=seed)
            assert kind == "eigen" and lam_h > 1e-8
            assert abs(lam_h - lam_max) <= 1e-8 * mu_h
            assert u.norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [5, 80, 10**6])
    @pytest.mark.parametrize("lam_ref", [1e-9, 1e-3, 0.5, 1e3])
    @pytest.mark.parametrize("power_C", [2.0, 8.0])
    def test_step_count_follows_kw_bound(self, dim, lam_ref, power_C):
        n, mu_h = 40, 26.0
        opts = SolverOptions(k=3, power_C=power_C)
        steps, capped = solver._krylov_step_count(opts, n, dim, mu_h, lam_ref, None)
        assert not capped
        e = min(lam_ref / (2 * mu_h), 1.0)
        target = n ** (-power_C / 8)
        if steps < dim:
            # the smallest count whose failure probability meets the target
            assert self.kw_failure(steps, dim, e) <= target
            assert steps == 1 or self.kw_failure(steps - 1, dim, e) > target
        else:
            assert steps == dim and self.kw_failure(dim - 1, dim, e) > target
        # lam_prev raises the reference curvature, never lowers it
        assert solver._krylov_step_count(opts, n, dim, mu_h, lam_ref, 0.1 * lam_ref) == (steps, False)
        # max_power_iters caps the count, and cap_hit says so exactly when it bites
        for cap in (steps - 1, steps, steps + 1):
            if cap < 1:
                continue
            opts = SolverOptions(k=3, power_C=power_C, max_power_iters=cap)
            assert solver._krylov_step_count(opts, n, dim, mu_h, lam_ref, None) == (
                min(cap, steps), cap < steps)

    def test_capped_certificate_is_not_converged(self):
        A = instances.goe(40, 3)
        warm = projected_gradient_ascent(A, random_config(40, 3, 4), iters=5000,
                                         grad_tol=1e-6)
        eps = 0.5  # well above the warm point's top curvature, so it certifies at once
        assert oracles.tangent_hessian_lambda_max(A, warm.sigma) < eps
        steps, _ = solver._krylov_step_count(SolverOptions(k=3), A.n, A.n * 2,
                                             4 * A.l1_norm(), eps, None)
        for cap, capped in ((None, False), (steps, False), (steps - 1, True)):
            rep = solve(A, SolverOptions(k=3, epsilon=eps, seed=5, max_power_iters=cap),
                        sigma0=warm.sigma)
            assert rep.iterations == 0 and rep.curvature_cert <= eps
            assert rep.krylov_steps == 2 * (steps - capped)  # certificate and retry
            assert rep.cap_hit is capped
            assert rep.converged is not capped
            assert f"krylov_steps={rep.krylov_steps} cap_hit={capped}" in rep.summary_line()

    def test_count_capped_at_tangent_dimension(self):
        # a tight target asks for more steps than the tangent space has
        A = instances.goe(10, 3)
        warm = projected_gradient_ascent(A, random_config(10, 3, 4), iters=20000,
                                         grad_tol=1e-10)
        assert oracles.tangent_hessian_lambda_max(A, warm.sigma) <= 1e-9
        rep = solve(A, SolverOptions(k=3, epsilon=1e-6, seed=5), sigma0=warm.sigma)
        assert rep.converged and not rep.cap_hit
        assert rep.krylov_steps == 2 * A.n * (3 - 1)  # certificate and retry, D steps each

    def test_ritz_directions_are_valid_tangents(self):
        A = instances.goe(36, 16)
        cfg = random_config(36, 4, 17)
        u, kind, lam_h = direction_finding(A, cfg, mu_G=math.inf, epsilon=1e-8, seed=1)
        assert kind == "eigen" and lam_h > 1e-8
        sphere.TangentField(u.rows, cfg)  # validates orthogonality to the base rows
        B = A.with_block_dim(3)
        ocfg = stiefel.oc_random_config(12, 3, 5, 18)
        for seed in range(3):
            u, kind, lam_h = direction_finding(B, ocfg, mu_G=math.inf, epsilon=1e-8, seed=seed)
            assert kind == "eigen" and lam_h > 1e-8
            stiefel.StiefelTangent(u.rows, ocfg)  # validates the block skew condition
            assert u.norm == pytest.approx(1.0, abs=1e-12)
            assert lam_h == pytest.approx(stiefel.oc_rayleigh(B, ocfg, u), abs=1e-12)


class TestRtrStep:
    def test_zero_matrix_is_noop(self):
        A = SymmetricMatrix(np.zeros((8, 8)))
        cfg = random_config(8, 3, 0)
        nxt, rec = rtr_step(A, cfg, SolverOptions(k=3, epsilon=1.0))
        assert nxt is cfg
        assert rec.kind == "none"

    def test_gradient_step_increment_lower_bound(self):
        # increment >= mu_G^2 / (40 ||A||_1) whenever the branch triggers
        checked = 0
        for seed in range(6):
            A = instances.goe(40, seed)
            cfg = random_config(40, 3, 50 + seed)
            mu_g = A.opnorm()
            if sphere.gradient(A, cfg).norm <= mu_g:
                continue
            f0 = sphere.objective(A, cfg)
            nxt, rec = rtr_step(A, cfg, SolverOptions(k=3, mode=MODE_GRADIENT_EIGEN,
                                                      epsilon=1e-6, seed=seed))
            assert rec.kind == "gradient"
            bound = mu_g**2 / (40.0 * A.l1_norm())
            assert rec.objective - f0 >= bound * (1 - 1e-9)
            checked += 1
        assert checked >= 4

    def test_eigen_step_increment_mode_a(self):
        # increment >= lam_H^3 / (4e4 ||A||_1^2)
        checked = 0
        for seed in range(6):
            A = instances.goe(30, 20 + seed)
            cfg = random_config(30, 3, 60 + seed)
            f0 = sphere.objective(A, cfg)
            nxt, rec = rtr_step(A, cfg, SolverOptions(k=3, mode=MODE_EIGEN_ONLY,
                                                      epsilon=1e-8, seed=seed,
                                                      max_power_iters=2000))
            if rec.kind != "eigen" or rec.lam_h <= 0:
                continue
            bound = rec.lam_h**3 / (4e4 * A.l1_norm() ** 2)
            assert rec.objective - f0 >= bound * (1 - 1e-9) - 1e-12
            checked += 1
        assert checked >= 4

    def test_eigen_step_increment_mode_b(self):
        # at small gradient, increment >= min(lam^2/(864 l1), lam^3/(576 l2^2))
        checked = 0
        for seed in range(8):
            A = instances.goe(30, 40 + seed)
            mu_g = A.opnorm()
            warm = projected_gradient_ascent(A, random_config(30, 3, 70 + seed),
                                             iters=4000, grad_tol=0.9 * mu_g)
            cfg = warm.sigma
            if sphere.gradient(A, cfg).norm > mu_g:
                continue
            f0 = sphere.objective(A, cfg)
            nxt, rec = rtr_step(A, cfg, SolverOptions(k=3, mode=MODE_GRADIENT_EIGEN,
                                                      epsilon=1e-8, seed=seed,
                                                      max_power_iters=2000))
            if rec.kind != "eigen" or rec.lam_h <= 0:
                continue
            l1, l2 = A.l1_norm(), A.opnorm()
            bound = min(rec.lam_h**2 / (864.0 * l1), rec.lam_h**3 / (576.0 * l2**2))
            assert rec.objective - f0 >= bound * (1 - 1e-9) - 1e-12
            checked += 1
        assert checked >= 3


class TestSolve:
    def test_zero_matrix_converges_immediately(self):
        A = SymmetricMatrix(np.zeros((10, 10)))
        rep = solve(A, SolverOptions(k=3, seed=0))
        assert rep.converged
        assert rep.iterations == 0
        assert rep.objective == 0.0
        assert rep.curvature_cert == 0.0

    def test_k1_trivial_tangent_space(self):
        A = instances.goe(8, 0)
        rep = solve(A, SolverOptions(k=1, epsilon=0.5, seed=0))
        assert rep.converged and rep.iterations == 0

    def test_converges_with_certificate_and_ascends(self):
        A = instances.goe(80, 5)
        rep = solve(A, SolverOptions(k=4, seed=3))
        assert rep.converged
        assert rep.curvature_cert <= rep.epsilon
        assert rep.grad_norm <= A.opnorm() + 1e-12
        assert ascent_ok(rep, A)

    def test_eigen_only_mode_with_warm_start(self):
        A = instances.goe(60, 6)
        warm = projected_gradient_ascent(A, random_config(60, 3, 7), iters=3000,
                                         grad_tol=1e-4)
        rep = solve(A, SolverOptions(k=3, mode=MODE_EIGEN_ONLY, seed=1,
                                     max_iters=3000), sigma0=warm.sigma)
        assert rep.converged
        assert rep.gradient_steps == 0
        assert ascent_ok(rep, A)

    def test_budget_exhaustion_flags_not_raises(self):
        A = instances.goe(40, 7)
        rep = solve(A, SolverOptions(k=3, epsilon=1e-9, max_iters=3,
                                     max_power_iters=10, seed=0))
        assert not rep.converged
        assert rep.iterations <= 3

    def test_certificate_soundness_five_fresh_runs(self):
        # factor-2 certificate gap: fresh power runs stay below 2*epsilon
        A = instances.goe(100, 8)
        warm = projected_gradient_ascent(A, random_config(100, 4, 9), iters=4000,
                                         grad_tol=1e-5)
        rep = solve(A, SolverOptions(k=4, seed=2), sigma0=warm.sigma)
        assert rep.converged
        H = HessianOperator(A, rep.sigma)
        n_h = int(np.ceil(8 * A.l1_norm() * np.log(A.n) / rep.epsilon))
        for seed in range(5):
            u = power_method(H, 4 * A.l1_norm(), n_h, 1000 + seed)
            assert H.rayleigh(u) <= 2 * rep.epsilon

    def test_budget_conformance_mode_a_constant(self):
        # observed eigen-step count never exceeds the explicit worst case
        A = instances.goe(50, 11)
        warm = projected_gradient_ascent(A, random_config(50, 3, 12), iters=3000,
                                         grad_tol=1e-4)
        rep = solve(A, SolverOptions(k=3, mode=MODE_EIGEN_ONLY, seed=4,
                                     max_iters=5000), sigma0=warm.sigma)
        eps = rep.epsilon
        bound = 64e4 * A.n * A.l1_norm() ** 2 / eps**2
        assert rep.eigen_steps <= bound

    def test_spiked_correlation_from_certified_point(self):
        inst = instances.spiked(500, 8.0, 21)
        A = inst.A
        warm = projected_gradient_ascent(A, random_config(500, 4, 22), iters=4000,
                                         grad_tol=1e-3)
        rep = solve(A, SolverOptions(k=4, epsilon=0.5, seed=5, max_iters=200,
                                     max_power_iters=2000), sigma0=warm.sigma)
        assert rep.converged
        corr = np.linalg.norm(rep.sigma.rows.T @ inst.ground_truth) ** 2 / 500.0**2
        assert corr >= 1 - 1 / 4 - 4 / 8.0 - 0.1

    def test_stiefel_d1_bitwise_equals_sphere(self):
        A = instances.goe(60, 13)
        A1 = A.with_block_dim(1)
        rep_s = solve(A, SolverOptions(k=3, seed=17, max_iters=4000))
        rep_o = solve(A1, SolverOptions(k=3, seed=17, manifold="stiefel", max_iters=4000))
        assert rep_s.converged and rep_o.converged
        assert np.array_equal(rep_s.sigma.rows, rep_o.sigma.rows)
        assert rep_s.objective == rep_o.objective
        assert [r.objective for r in rep_s.trace] == [r.objective for r in rep_o.trace]

    def test_stiefel_d1_bitwise_equals_sphere_with_eigen_steps(self):
        A = instances.goe(30, 5)
        reps = [solve(B, SolverOptions(k=3, seed=11, mode=MODE_EIGEN_ONLY, epsilon=0.05,
                                       max_iters=20, manifold=manifold))
                for B, manifold in ((A, "sphere"), (A.with_block_dim(1), "stiefel"))]
        rep_s, rep_o = reps
        assert rep_s.eigen_steps >= 1
        assert np.array_equal(rep_s.sigma.rows, rep_o.sigma.rows)
        for field in ("objective", "lam_h"):
            assert np.array_equal([getattr(r, field) for r in rep_s.trace],
                                  [getattr(r, field) for r in rep_o.trace], equal_nan=True)

    def test_stiefel_solve_certifies(self):
        A = instances.goe(36, 14).with_block_dim(3)
        rep = solve(A, SolverOptions(k=6, seed=3, manifold="stiefel", max_iters=8000))
        assert rep.converged
        assert ascent_ok(rep, A)
        blk = rep.sigma.blocks()
        gram = np.einsum("bik,bjk->bij", blk, blk)
        assert np.abs(gram - np.eye(3)).max() <= 1e-9

    def test_trace_csv(self, tmp_path):
        A = instances.goe(20, 15)
        rep = solve(A, SolverOptions(k=3, seed=0, max_iters=500))
        path = tmp_path / "trace.csv"
        rep.trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,f,grad_norm,kind,step,lam_h"
        assert lines[-1].startswith("# mode=")


class TestDefaults:
    def test_epsilon_default_positive(self):
        A = instances.goe(30, 1)
        eps = default_epsilon(A, 4)
        assert eps > 0
        with pytest.raises(ValueError):
            default_epsilon(A, 1)

    def test_budget_positive(self):
        A = instances.goe(30, 2)
        assert worst_case_budget(A, 1.0, MODE_EIGEN_ONLY) >= 1
        assert worst_case_budget(A, 1.0, MODE_GRADIENT_EIGEN) >= 1

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(k=0).validate()
        with pytest.raises(ValueError):
            SolverOptions(k=2, mode="bogus").validate()
        with pytest.raises(ValueError):
            SolverOptions(k=2, epsilon=-1.0).validate()
        with pytest.raises(ValueError):
            SolverOptions(k=2, max_power_iters=0).validate()


class TestProjectedGradientAscent:
    def test_identity_matrix_stationary(self):
        A = SymmetricMatrix(np.eye(12))
        sig0 = random_config(12, 3, 0)
        rep = projected_gradient_ascent(A, sig0, iters=50)
        assert rep.objective == pytest.approx(12.0, abs=1e-12)
        assert rep.grad_norm <= 1e-12
        assert np.allclose(rep.sigma.rows, sig0.rows, atol=1e-12)

    def test_monotone_under_small_step(self):
        # smoothness caps the safe fixed step at ~1/(20 ||A||_1)
        for seed in range(10):
            A = instances.goe(120, 500 + seed)
            sig0 = random_config(120, 4, 600 + seed)
            rep = projected_gradient_ascent(A, sig0, step=1 / (20 * A.l1_norm()),
                                            iters=1000)
            assert ascent_ok(rep, A)

    def test_invalid_step(self):
        A = instances.goe(10, 0)
        with pytest.raises(ValueError):
            projected_gradient_ascent(A, random_config(10, 2, 0), step=-0.1)

    def test_records_trace(self):
        A = instances.goe(15, 1)
        rep = projected_gradient_ascent(A, random_config(15, 3, 2), iters=20)
        assert len(rep.trace) == 21
        assert rep.trace[0].kind == "init"
        assert rep.trace[-1].kind == "pga"
