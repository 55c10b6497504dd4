import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest

import oracles
from lowranksdp import instances, solver, sphere, stiefel, symmat
from lowranksdp.analysis import estimate_sdp
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


def warm_point(A, k, seed, manifold="sphere", iters=3000):
    """The start that ``seed`` draws, climbed as a solve's warm start climbs it."""
    geom = solver._Geometry(A, k, manifold)
    state, _, _ = warm_climb(geom, geom.evaluate(geom.random_point(seed)), iters,
                             1e-3 * geom.l1)
    return state.config


def warm_climb(geom, state, iters, grad_tol):
    """``solver._warm_ascent``'s ``(state, steps)`` and its trial points, one product each."""
    before = geom.products
    state, steps = solver._warm_ascent(geom, state, grad_tol, iters)
    return state, steps, geom.products - before


def counted(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` for the rest of the test."""
    calls = [0]
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class TestDirectionFinding:
    def test_gradient_branch_returns_normalized_gradient(self):
        A = instances.goe(20, 0)
        cfg = random_config(20, 3, 1)
        g = sphere.gradient(A, cfg)
        assert g.norm > 1.0
        u, kind, _ = direction_finding(A, cfg, mu_G=1.0, epsilon=0.5, seed=0)
        assert kind == "gradient"
        assert np.allclose(u.rows, g.rows / g.norm, atol=1e-14)

    @pytest.mark.parametrize("d", [1, 3])
    def test_gradient_branch_returns_the_rayleigh_quotient_of_the_unit_gradient(self, d):
        A = instances.goe(30, 2).with_block_dim(d)
        cfg = stiefel.oc_random_config(30 // d, d, 5, 3)
        u, kind, lam_h = direction_finding(A, cfg, mu_G=0.0, epsilon=0.5, seed=0)
        assert kind == "gradient"
        assert lam_h == pytest.approx(stiefel.oc_rayleigh(A, cfg, u), abs=1e-12)

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

    # past the gradient branch 0, -1 and nan divided by zero in the Lanczos step
    # count, and inf certified every point
    @pytest.mark.parametrize("epsilon", [0.0, -1.0, math.nan, math.inf])
    def test_epsilon_not_positive_and_finite_raises(self, epsilon):
        A = instances.goe(20, 0)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            direction_finding(A, random_config(20, 3, 1), mu_G=math.inf, epsilon=epsilon)

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

    @staticmethod
    def start(A, k, seed, warm):
        cfg = random_config(A.n, k, seed)
        if warm:
            cfg = projected_gradient_ascent(A, cfg, iters=4000, grad_tol=0.9 * A.opnorm()).sigma
        return cfg

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
            # a loose target asks for at least the D = 3 steps of a small
            # instance, so the certificate searches its whole tangent space
            A = instances.goe(3, 700 + seed)
            cfg = self.start(A, 2, 800 + seed, warm)
            lam_max = oracles.tangent_hessian_lambda_max(A, cfg)
            geom = solver._Geometry(A, 2, "sphere")
            mu_h = geom.shift(geom.evaluate(cfg))  # the searches' shift
            eps = lam_max + 1.0
            assert solver._krylov_step_count(None, A.n, 3, mu_h, eps, None) == (3, False)
            _, kind, cert = direction_finding(A, cfg, mu_G=math.inf, epsilon=eps, seed=seed)
            assert kind == "eigen"
            assert abs(cert - lam_max) <= 1e-8 * mu_h
            # a tight target asks for more than D steps at any size
            A = instances.goe(n, 700 + seed)
            cfg = self.start(A, k, 800 + seed, warm)
            lam_max = oracles.tangent_hessian_lambda_max(A, cfg)
            geom = solver._Geometry(A, k, "sphere")
            mu_h = geom.shift(geom.evaluate(cfg))
            u, kind, lam_h = direction_finding(A, cfg, mu_G=math.inf, epsilon=1e-8, seed=seed)
            assert kind == "eigen" and lam_h > 1e-8
            assert abs(lam_h - lam_max) <= 1e-8 * mu_h
            assert u.norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [5, 80, 10**6])
    @pytest.mark.parametrize("lam_ref", [1e-9, 1e-3, 0.5, 1e3])
    @pytest.mark.parametrize("mu_h", [2.0, 8.0])
    def test_step_count_follows_kw_bound(self, dim, lam_ref, mu_h):
        n = 40
        steps, capped = solver._krylov_step_count(None, n, dim, mu_h, lam_ref, None)
        assert not capped
        e = min(lam_ref / (2 * mu_h), 1.0)
        target = 1 / n
        if steps < dim:
            # the smallest count whose failure probability meets the target
            assert self.kw_failure(steps, dim, e) <= target
            assert steps == 1 or self.kw_failure(steps - 1, dim, e) > target
        else:
            assert steps == dim and self.kw_failure(dim - 1, dim, e) > target
        # lam_prev raises the reference curvature, never lowers it
        assert solver._krylov_step_count(None, n, dim, mu_h, lam_ref, 0.1 * lam_ref) == (
            steps, False)
        # max_power_iters caps the count, and cap_hit says so exactly when it bites
        for cap in (steps - 1, steps, steps + 1):
            if cap < 1:
                continue
            assert solver._krylov_step_count(cap, n, dim, mu_h, lam_ref, None) == (
                min(cap, steps), cap < steps)

    def test_capped_certificate_is_not_converged(self):
        A = instances.goe(40, 3)
        warm = projected_gradient_ascent(A, random_config(40, 3, 4), iters=5000,
                                         grad_tol=1e-6)
        eps = 0.5  # well above the warm point's top curvature, so it certifies at once
        assert oracles.tangent_hessian_lambda_max(A, warm.sigma) < eps
        geom = solver._Geometry(A, 3, "sphere")
        mu = geom.shift(geom.evaluate(warm.sigma))  # the solve's shift at its start
        steps, _ = solver._krylov_step_count(None, A.n, A.n * 2, mu, eps, None)
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


class TestPairedLanczos:
    """The certificate's search and its retry share one product per step."""

    @staticmethod
    def widths(monkeypatch):
        """Record the column count of every product ``A @ X``."""
        seen = []
        dot = SymmetricMatrix.dot

        def counting_dot(A, x):
            seen.append(x.shape[1])
            return dot(A, x)

        monkeypatch.setattr(SymmetricMatrix, "dot", counting_dot)
        return seen

    @staticmethod
    def recurrences(A, cfg, starts, steps):
        """Diagonal and off-diagonal of ``steps`` Lanczos steps on Hess + 4||A||_1 I."""
        mu = 4.0 * A.l1_norm()
        state = solver._Geometry(A, cfg.k, "sphere").evaluate(cfg)
        run = symmat._lanczos(solver._shifted_hessian(state, mu, A.dot),
                              functools.partial(stiefel.project_rows, cfg), starts, mu)
        *_, (alphas, betas, _) = itertools.islice(run, steps)
        return [(np.array(a), np.array(b[:len(a) - 1])) for a, b in zip(alphas, betas)]

    @pytest.mark.parametrize("model", ["-erdos_renyi", "sbm", "goe"])
    def test_pair_equals_two_single_runs(self, model, monkeypatch):
        n, k, steps = 120, 4, 40
        A = {"-erdos_renyi": lambda: -instances.erdos_renyi(n, 8, 1),
             "sbm": lambda: instances.sbm(n, 12, 4, 1).A,
             "goe": lambda: instances.goe(n, 1)}[model]()
        assert A.is_sparse == (model != "goe")
        cfg = warm_point(A, k, 2)
        rng = np.random.default_rng(3)
        starts = [random_tangent(cfg, rng).rows for _ in range(2)]
        alone = [self.recurrences(A, cfg, [start], steps)[0] for start in starts]
        seen = self.widths(monkeypatch)
        paired = self.recurrences(A, cfg, starts, steps)
        assert seen == [k] + [2 * k] * steps  # the state's own product, then one per step
        for (a1, b1), (a2, b2) in zip(alone, paired):
            assert a1.size == a2.size == steps and b1.size == b2.size == steps - 1
            if A.is_sparse:
                # a CSR product computes each column alone, so the bits agree
                assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
            else:
                np.testing.assert_allclose(a2, a1, rtol=1e-12, atol=0.0)
                np.testing.assert_allclose(b2, b1, rtol=1e-12, atol=0.0)

    def test_member_that_breaks_down_leaves_the_other_alone(self, monkeypatch):
        # rows 0-2 form a component of their own, so a start supported there
        # spans a Krylov space of dimension 3 (one tangent direction per row)
        import scipy.sparse as sp

        small = np.array([[0.0, 1.0, -2.0], [1.0, 0.5, 1.5], [-2.0, 1.5, 0.0]])
        rest = -instances.erdos_renyi(60, 6, 4).to_dense()
        A = SymmetricMatrix(sp.csr_matrix(sp.block_diag([small, rest])))
        k, steps = 2, 30
        cfg = random_config(A.n, k, 5)
        rng = np.random.default_rng(6)
        local = random_tangent(cfg, rng).rows.copy()
        local[3:] = 0.0
        local /= np.linalg.norm(local)
        full = random_tangent(cfg, rng).rows
        alone = self.recurrences(A, cfg, [full], steps)[0]
        seen = self.widths(monkeypatch)
        (a1, b1), (a2, b2) = self.recurrences(A, cfg, [local, full], steps)
        assert a1.size == 3 and b1.size == 2  # the Krylov space closed at step 3
        assert seen == [k] + [2 * k] * 3 + [k] * (steps - 3)
        assert np.array_equal(a2, alone[0]) and np.array_equal(b2, alone[1])

    @pytest.mark.parametrize("pair", [False, True])
    def test_ritz_vector_replays_one_product_fewer(self, pair, monkeypatch):
        A, k = instances.goe(120, 5), 4
        geom = solver._Geometry(A, k, "sphere")
        state = geom.evaluate(random_config(A.n, k, 6))
        A.opnorm()  # caches the bound that sizes the shift: the products seen are the search's
        seen = self.widths(monkeypatch)
        # a cap of 25 steps, well below the tangent dimension
        search, = solver._eigen_direction(state, geom, 25, 1e-8, None,
                                          np.random.default_rng(7), pair=pair)
        assert not search.certified and search.steps == 25
        # the search (beside its retry when paired), the replay that rebuilds
        # the Ritz vector at the same width, then its Rayleigh quotient
        width = (1 + pair) * k
        assert seen == [width] * search.steps + [width] * (search.steps - 1) + [k]

    def test_paired_ritz_vector_matches_the_dense_oracle(self):
        # run to the tangent dimension, a dense pair has lost orthogonality; a
        # replay of one start at width k drifts from the width-2k run in
        # roundoff, and the loss amplifies the drift (seed 1 then gave a Ritz
        # vector 0.034 mu_H below the top curvature, a negative Rayleigh value)
        # the sphere product (D = 120) and 3 x 3 blocks at k = 5 (D = 135)
        for seed, (n, d, k) in itertools.product(range(4), [(60, 1, 3), (45, 3, 5)]):
            A = instances.goe(n, 9500 + seed).with_block_dim(d)
            start = stiefel.oc_random_config(n // d, d, k, 9600 + seed)
            cfg = projected_gradient_ascent(A, start, iters=4000,
                                            grad_tol=0.9 * A.opnorm()).sigma
            geom = solver._Geometry(A, k, "sphere" if d == 1 else "stiefel")
            state = geom.evaluate(cfg)
            # a tight target asks for more than D steps
            search = solver._eigen_direction(state, geom, None, 1e-8, None,
                                             np.random.default_rng(seed), pair=True)[0]
            assert not search.certified and search.steps == geom.tangent_dim()
            lam_max = oracles.stiefel_tangent_hessian_lambda_max(A, cfg)
            assert abs(search.lam_h - lam_max) <= 1e-12 * geom.shift(state)

    def test_certified_solve_takes_one_product_per_step_pair(self, monkeypatch):
        A = instances.goe(40, 3)
        warm = projected_gradient_ascent(A, random_config(40, 3, 4), iters=5000,
                                         grad_tol=1e-6)
        A.opnorm()  # cached, so the solve's products are its own
        seen = self.widths(monkeypatch)
        rep = solve(A, SolverOptions(k=3, epsilon=0.5, seed=5), sigma0=warm.sigma)
        assert rep.converged and rep.iterations == 0
        # the start's product, then the search and its retry side by side
        assert seen == [3] + [6] * (rep.krylov_steps // 2)
        assert rep.krylov_steps % 2 == 0


class TestShiftAgainstDenseOracle:
    """Each state's shift, and the points it certifies, against the dense tangent Hessian."""

    CASES = [("sphere", 1, 40, 3), ("sphere", 1, 60, 5), ("stiefel", 3, 30, 5),
             ("stiefel", 3, 45, 6)]

    def test_oracle_matches_the_sphere_oracle_and_the_library_hessian(self):
        A = instances.goe(30, 1)
        cfg = random_config(30, 4, 2)
        assert oracles.stiefel_tangent_hessian_lambda_max(A, cfg) == pytest.approx(
            oracles.tangent_hessian_lambda_max(A, cfg), rel=1e-12)
        B = A.with_block_dim(3)
        ocfg = stiefel.oc_random_config(10, 3, 5, 3)
        basis = oracles.stiefel_tangent_basis(ocfg.rows, 3)
        assert basis.shape == (150, solver._Geometry(B, 5, "stiefel").tangent_dim())
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-12)
        h = oracles.dense_stiefel_tangent_hessian(B.to_dense(), ocfg.rows, 3)
        for seed in range(3):
            u = stiefel.oc_random_tangent(ocfg, seed)
            c = basis.T @ u.rows.ravel()
            np.testing.assert_allclose(basis @ c, u.rows.ravel(), atol=1e-12)
            assert c @ h @ c == pytest.approx(stiefel.oc_rayleigh(B, ocfg, u), abs=1e-12)

    @pytest.mark.parametrize("manifold, d, n, k", CASES)
    def test_shift_bounds_the_hessian(self, manifold, d, n, k):
        for seed in range(3):
            A = instances.goe(n, seed).with_block_dim(d)
            geom = solver._Geometry(A, k, manifold)
            warm = warm_point(A, k, seed, manifold)
            for point in (geom.random_point(seed), warm):
                mu = geom.shift(geom.evaluate(point))
                h = oracles.dense_stiefel_tangent_hessian(A.to_dense(), point.rows, d)
                assert np.abs(np.linalg.eigvalsh(h)).max() <= mu <= geom.mu_cap

    @pytest.mark.parametrize("manifold, d, n, k", CASES)
    def test_certified_top_curvature_within_the_allowance(self, manifold, d, n, k):
        # a certificate at target eps whose step count was sized with the
        # reference curvature lam_ref (the last eigen step's curvature, floored
        # at eps) leaves top curvature at most eps + lam_ref.  Cold starts
        # certify the default target far from a critical point; tight targets
        # are reached from the warm start, as eigen steps from a cold start
        # climb too slowly for them
        for seed in range(3):
            A = instances.goe(n, 50 + seed).with_block_dim(d)
            warm = warm_point(A, k, seed, manifold)
            for eps, start in ((None, None), (0.05, warm), (0.005, warm)):
                rep = solve(A, SolverOptions(k=k, manifold=manifold, epsilon=eps, seed=seed),
                            sigma0=start)
                assert rep.converged
                eigen = [r.lam_h for r in rep.trace if r.kind == "eigen"]
                lam_ref = max(eigen[-1] if eigen else 0.0, rep.epsilon)
                top = oracles.stiefel_tangent_hessian_lambda_max(A, rep.sigma)
                assert top <= rep.epsilon + lam_ref


class TestRtrStep:
    def test_zero_matrix_is_noop(self):
        A = SymmetricMatrix(np.zeros((8, 8)))
        cfg = random_config(8, 3, 0)
        nxt, rec = rtr_step(A, cfg, SolverOptions(k=3, epsilon=1.0))
        assert nxt is cfg
        assert rec.kind == "none"

    def test_trivial_tangent_space_is_noop(self):
        # d = k = 1: nothing to search, as in solve, which returns converged
        A = instances.goe(8, 0)
        cfg = random_config(8, 1, 0)
        opts = SolverOptions(k=1, epsilon=0.5)
        nxt, rec = rtr_step(A, cfg, opts)
        assert nxt is cfg
        assert rec.kind == "none" and rec.step_size == 0.0
        assert rec.objective == sphere.objective(A, cfg)
        assert solve(A, opts, sigma0=cfg).converged
        # without a target, k = 1 has no default epsilon: both entry points refuse it alike
        for call in (lambda o: solve(A, o, sigma0=cfg), lambda o: rtr_step(A, cfg, o)):
            with pytest.raises(ValueError, match="effective rank must exceed 1"):
                call(SolverOptions(k=1))

    def test_gradient_step_is_the_public_retraction(self):
        # oc_retract(sigma, grad, step_size) bit for bit, moving the row at
        # least the paper's ||A||_2 / (20 ||A||_1) along the unit gradient
        for seed in range(4):
            A = instances.goe(100, seed)
            cfg = random_config(100, 3, 7 + seed)
            g = sphere.gradient(A, cfg)
            assert g.norm > A.opnorm()
            nxt, rec = rtr_step(A, cfg, SolverOptions(k=3, epsilon=1e-6))
            eta = A.opnorm() / (20.0 * A.l1_norm())
            expect = stiefel.oc_retract(cfg, g, rec.step_size)
            assert rec.kind == "gradient" and rec.step_size * g.norm >= eta
            assert np.array_equal(nxt.rows, expect.rows)
            assert rec.objective == sphere.objective(A, expect)
            assert rec.grad_norm == sphere.gradient(A, expect).norm

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

    def test_cold_start_gradient_phase_converges(self):
        # Barzilai-Borwein lengths on the raw gradient, floored where the row
        # moves at least the paper's step: the gradient phase ends in a few
        # dozen steps, each gaining at least the fixed step's mu_G^2 / (40 ||A||_1)
        A = instances.goe(1000, 0)
        rep = solve(A, SolverOptions(k=6, seed=0))
        assert rep.converged  # within the default budget, worst_case_budget
        assert 0 < rep.gradient_steps < 100
        l1, l2 = A.l1_norm(), A.opnorm()
        eta, bound = l2 / (20.0 * l1), l2**2 / (40.0 * l1)
        steps = [(a, b) for a, b in zip(rep.trace, rep.trace[1:]) if b.kind == "gradient"]
        assert len(steps) == rep.gradient_steps
        for before, rec in steps:
            assert rec.step_size * before.grad_norm >= eta
            assert rec.objective - before.objective >= bound

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
        # the certificate is the schedule's first step, so the budget is the step cap
        assert rep.budget == worst_case_budget(A, rep.epsilon, rep.mode) == 1
        assert solve(A, SolverOptions(k=3, max_iters=7)).budget == 7

    def test_k1_trivial_tangent_space(self):
        A = instances.goe(8, 0)
        rep = solve(A, SolverOptions(k=1, epsilon=0.5, seed=0))
        assert rep.converged and rep.iterations == 0
        assert rep.budget == worst_case_budget(A, 0.5, MODE_GRADIENT_EIGEN) > 1
        assert rep.krylov_steps == 0 and rep.failure_prob == 0.0

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

    def test_report_states_the_failure_probability(self):
        A = instances.goe(40, 3)
        warm = projected_gradient_ascent(A, random_config(40, 3, 4), iters=5000,
                                         grad_tol=1e-6)
        rep = solve(A, SolverOptions(k=3, epsilon=0.5, seed=5), sigma0=warm.sigma)
        assert rep.converged and rep.iterations == 0
        # the bound on ||A||_2, then the certificate and its retry, 1/n each
        assert rep.failure_prob == (1 + 2) / 40
        # each eigen step searches once more, and the union bound stops at 1
        rep = solve(instances.goe(4, 3), SolverOptions(k=3, mode=MODE_EIGEN_ONLY, epsilon=1e-9,
                                                      max_iters=3, seed=5))
        assert rep.eigen_steps == 3 and rep.failure_prob == 1.0
        assert solve(SymmetricMatrix(np.zeros((8, 8))), SolverOptions(k=3)).failure_prob == 0.0

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

    @pytest.mark.parametrize("seed", range(3))
    def test_stiefel_d1_cold_start_bitwise_equals_sphere(self, seed):
        # the Barzilai-Borwein gradient phase too: same trials, same lengths
        A = instances.goe(200, seed)
        rep_s = solve(A, SolverOptions(k=4, seed=seed))
        rep_o = solve(A.with_block_dim(1), SolverOptions(k=4, seed=seed, manifold="stiefel"))
        assert rep_s.gradient_steps > 0
        assert np.array_equal(rep_s.sigma.rows, rep_o.sigma.rows)
        # repr prints each float exactly, and a NaN lam_h equal to itself
        assert [repr(r) for r in rep_s.trace] == [repr(r) for r in rep_o.trace]

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

    def test_stiefel_report_objective_is_oc_objective(self):
        # the public objective sums Tr(Lambda) in the report's order, to the bit
        A = instances.goe(30, 16).with_block_dim(3)
        for seed in range(3):
            rep = solve(A, SolverOptions(k=4, seed=seed, manifold="stiefel", max_iters=50))
            assert stiefel.oc_objective(A, rep.sigma) == rep.objective

    def test_trace_csv(self, tmp_path):
        A = instances.goe(20, 15)
        rep = solve(A, SolverOptions(k=3, seed=0, max_iters=500))
        path = tmp_path / "trace.csv"
        rep.trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "iteration,f,grad_norm,kind,step,lam_h,krylov_steps"
        assert lines[-1].startswith("# mode=")

    def test_trace_csv_counts_krylov_steps_per_step(self, tmp_path):
        A = instances.goe(20, 15)
        rep = solve(A, SolverOptions(k=3, seed=0, mode=MODE_EIGEN_ONLY, epsilon=1e-6,
                                     max_iters=6))
        path = tmp_path / "trace.csv"
        rep.trace_csv(path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:-1]]
        assert [int(r[6]) for r in rows] == [rec.krylov_steps for rec in rep.trace]
        assert [r[3] for r in rows] == ["init"] + ["eigen"] * 6
        assert all(int(r[6]) > 0 for r in rows[1:]) and rows[0][6] == "0"
        # the budget-exhausted measurement takes no step, so it is in the total only
        assert 0 < rep.krylov_steps - sum(rec.krylov_steps for rec in rep.trace)


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

    # epsilon = 1e-160 overflowed the count (math.ceil(inf)), 1e-200 squared to
    # zero under a division, and the default epsilon at scale 1e153 overflowed too
    @pytest.mark.parametrize("mode", [MODE_EIGEN_ONLY, MODE_GRADIENT_EIGEN])
    def test_budget_caps_instead_of_raising(self, mode):
        A = instances.goe(30, 0)
        for epsilon in (1e-160, 1e-200):
            assert worst_case_budget(A, epsilon, mode) == solver._BUDGET_CAP
        big = SymmetricMatrix(A.to_dense() * 1e153)
        # every term is a ratio of scales, so the default target's count does not move
        assert (worst_case_budget(big, default_epsilon(big, 4), mode)
                == worst_case_budget(A, default_epsilon(A, 4), mode) < solver._BUDGET_CAP)

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolverOptions(k=0).validate()
        with pytest.raises(ValueError):
            SolverOptions(k=2, mode="bogus").validate()
        with pytest.raises(ValueError):
            SolverOptions(k=2, epsilon=-1.0).validate()
        with pytest.raises(ValueError):
            SolverOptions(k=2, max_power_iters=0).validate()
        # a non-integral count was taken: 2.5 Lanczos steps capped every search at
        # 2, and k = 3.0 or max_iters = 2.5 failed deep inside the solve
        for field, value in (("k", 3.0), ("max_iters", 2.5), ("max_power_iters", 2.5),
                             ("max_iters", np.float64(3.0))):
            opts = dataclasses.replace(SolverOptions(k=2), **{field: value})
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                opts.validate()
        SolverOptions(k=np.int64(2), max_iters=np.int64(5), max_power_iters=np.int32(3)).validate()

    # a misspelled manifold name ran the sphere product (d = 1) instead of raising;
    # estimate_sdp on a zero matrix returns before any geometry is built
    @pytest.mark.parametrize("call", [
        lambda A: solver.random_start(A, 6, 0, "Stiefel"),
        lambda A: default_epsilon(A, 6, "Stiefel"),
        lambda A: estimate_sdp(A, manifold="Stiefel"),
        lambda A: estimate_sdp(SymmetricMatrix(np.zeros((90, 90)), block_dim=3),
                               manifold="Stiefel"),
    ], ids=["random_start", "default_epsilon", "estimate_sdp", "estimate_sdp-zero"])
    def test_unknown_manifold_raises(self, call):
        A = instances.goe(90, 0).with_block_dim(3)
        with pytest.raises(ValueError, match="manifold must be 'sphere' or 'stiefel'"):
            call(A)

    # an infinite target was certified at once: converged=True on a vacuous claim
    @pytest.mark.parametrize("epsilon", [math.inf, math.nan])
    def test_epsilon_not_finite_raises(self, epsilon):
        opts = SolverOptions(k=4, epsilon=epsilon, max_iters=50)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            solve(instances.goe(30, 0), opts)


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

    # record_every=0 divided by zero, iters=-5 reported converged after no
    # steps, and step=nan failed later as "blocks are not orthonormal"
    @pytest.mark.parametrize("kwargs, match", [({"record_every": 0}, "record_every"),
                                               ({"iters": -5}, "iters"),
                                               ({"step": math.nan}, "step")],
                             ids=["record_every", "iters", "step"])
    def test_malformed_argument_raises(self, kwargs, match):
        A = instances.goe(10, 0)
        with pytest.raises(ValueError, match=match):
            projected_gradient_ascent(A, random_config(10, 2, 0), **kwargs)

    @pytest.mark.parametrize("d, k", [(1, 3), (3, 4)])
    def test_bitwise_equals_object_loop(self, d, k):
        # the raw-row loop runs the public objects' arithmetic in their order
        A = instances.goe(40 if d == 1 else 30, 11)
        if d > 1:
            A = A.with_block_dim(d)
        sig0 = stiefel.oc_random_config(A.n // d, d, k, 12)
        step = 1.0 / (4.0 * A.l1_norm())
        rep = projected_gradient_ascent(A, sig0, step=step, iters=300)
        cfg, f, gn, trace = oracles.object_gradient_ascent(A, sig0, step, 300)
        assert rep.gradient_steps == 300 and rep.sigma.d == d
        assert np.array_equal(rep.sigma.rows, cfg.rows)
        assert rep.objective == f and rep.grad_norm == gn
        assert [(r.index, r.objective, r.grad_norm) for r in rep.trace] == trace

    def test_records_trace(self):
        A = instances.goe(15, 1)
        rep = projected_gradient_ascent(A, random_config(15, 3, 2), iters=20)
        assert len(rep.trace) == 21
        assert rep.trace[0].kind == "init"
        assert rep.trace[-1].kind == "pga"


class TestWarmStart:
    """The Barzilai-Borwein ascent that ``solve`` runs before it certifies."""

    @pytest.mark.parametrize("d, k", [(1, 4), (3, 6)])
    def test_trial_points_are_unchecked_and_the_boundary_is_checked(self, monkeypatch, d, k):
        A = instances.goe(60, 3)
        manifold = "sphere" if d == 1 else "stiefel"
        if d > 1:
            A = A.with_block_dim(d)
        geom = solver._Geometry(A, k, manifold)
        start = geom.random_point(5)
        products = counted(monkeypatch, SymmetricMatrix, "dot")
        state = geom.evaluate(start)
        points, check_point = [], stiefel._check_point

        def spy(rows, d):
            points.append(rows.tobytes())
            check_point(rows, d)

        monkeypatch.setattr(stiefel, "_check_point", spy)
        tangents = counted(monkeypatch, stiefel, "_check_tangent")
        state, steps, trials = warm_climb(geom, state, 3000, 1e-3 * geom.l1)
        assert 0 < steps <= trials and products[0] == trials + 1
        assert state.grad_norm <= 1e-3 * geom.l1
        assert points == [] and tangents[0] == 0
        # a solve checks its start, the state each curvature search reads (each
        # eigen step's and the last) and the report's point, and no other point
        searched, search = [], solver._eigen_direction

        def search_spy(state, *args, **kwargs):
            searched.append(state.rows.tobytes())
            return search(state, *args, **kwargs)

        monkeypatch.setattr(solver, "_eigen_direction", search_spy)
        opts = SolverOptions(k=k, manifold=manifold, epsilon=1e-6, max_iters=3, seed=5)
        rep = solve(A, opts, warm_iters=3000)
        assert rep.eigen_steps > 0 and len(set(searched)) == rep.eigen_steps + 1
        assert points[0] == start.rows.tobytes() and points[1:] == list(dict.fromkeys(searched))
        assert points[-1] == rep.sigma.rows.tobytes()
        # the baseline checks only the point it reports
        points.clear()
        fixed = projected_gradient_ascent(A, start, iters=50)
        assert points == [fixed.sigma.rows.tobytes()]

    def test_iters_caps_accepted_steps(self):
        A = instances.goe(60, 3)
        geom = solver._Geometry(A, 4, "sphere")
        state = geom.evaluate(geom.random_point(5))
        _, steps, trials = warm_climb(geom, state, 7, 0.0)
        assert steps == 7 and trials >= 7

    @pytest.mark.parametrize("manifold", ["sphere", "stiefel"])
    def test_deterministic_and_draws_only_the_start(self, manifold):
        A = instances.goe(45, 4).with_block_dim(3)
        opts = SolverOptions(k=5, manifold=manifold, seed=9)
        first = solve(A, opts, warm_iters=3000)
        again = solve(A, opts, warm_iters=3000)
        assert first.warm_steps > 0
        assert np.array_equal(first.sigma.rows, again.sigma.rows)
        assert first.curvature_cert == again.curvature_cert
        # the start is the seed's first draw (the fold test shows that the
        # climb draws nothing more)
        warm = warm_point(A, 5, 9, manifold)
        assert first.trace[0].objective == stiefel.oc_objective(A, warm)

    def test_zero_matrix_returns_the_start(self):
        A = SymmetricMatrix(np.zeros((12, 12)))
        start = solver.random_start(A, 3, 4)
        rep = solve(A, SolverOptions(k=3, seed=0), sigma0=start, warm_iters=3000)
        assert np.array_equal(rep.sigma.rows, start.rows)
        assert rep.converged and rep.warm_steps == 0 and rep.products == 1

    @pytest.mark.parametrize("n, d, k", [(300, 1, 6), (90, 3, 9)])
    def test_reaches_tolerance_in_a_tenth_of_iters(self, n, d, k):
        A = instances.goe(n, 0)
        manifold = "sphere" if d == 1 else "stiefel"
        if d > 1:
            A = A.with_block_dim(d)
        geom = solver._Geometry(A, k, manifold)
        iters, tol = 3000, 1e-3 * geom.l1
        for seed in range(2):
            state, steps, trials = warm_climb(
                geom, geom.evaluate(geom.random_point(seed)), iters, tol)
            assert state.grad_norm <= tol and steps < iters / 10
            rep = solve(A, SolverOptions(k=k, manifold=manifold, seed=seed),
                        sigma0=geom.random_point(seed), warm_iters=iters)
            assert rep.warm_steps == steps
            assert (rep.trace[0].objective, rep.trace[0].grad_norm) == (state.objective,
                                                                        state.grad_norm)
            step = 1.0 / (4.0 * geom.l1)
            fixed = projected_gradient_ascent(A, geom.random_point(seed), step=step,
                                              iters=iters, grad_tol=tol, record_every=10**9)
            if fixed.converged:
                # both stopped where the gradient is small, and either point may
                # be the higher (goe(90, 3) with 3x3 blocks from start 0: BB ends
                # 5.5e-4, 4e-6 relative, below); the same products buy BB more
                assert state.objective >= fixed.objective - 1e-5 * abs(fixed.objective)
                same = projected_gradient_ascent(A, geom.random_point(seed), step=step,
                                                 iters=trials, record_every=10**9)
                assert state.objective > same.objective
            else:
                assert state.objective >= fixed.objective

    # the tight target takes eigen steps after the climb, until the budget ends
    @pytest.mark.parametrize("manifold, eps", [("sphere", None), ("sphere", 1e-4),
                                               ("stiefel", None)])
    def test_solve_equals_the_climb_then_a_solve_from_its_point(self, manifold, eps,
                                                                 monkeypatch):
        A = instances.goe(90, 6).with_block_dim(3)
        opts = SolverOptions(k=6, manifold=manifold, epsilon=eps, seed=2, max_iters=3)
        start = solver.random_start(A, 6, 4, manifold)
        A.opnorm()  # cached, so the products counted are the runs' own
        products = counted(monkeypatch, SymmetricMatrix, "dot")
        folded = solve(A, opts, sigma0=start, warm_iters=3000)
        folded_products = products[0]
        geom = solver._Geometry(A, 6, manifold)
        state, steps, _ = warm_climb(geom, geom.evaluate(start), 3000, 1e-3 * geom.l1)
        apart = solve(A, opts, sigma0=state.config)
        assert folded.warm_steps == steps > 0 and apart.warm_steps == 0
        assert np.array_equal(folded.sigma.rows, apart.sigma.rows)
        assert folded.objective == apart.objective
        assert folded.curvature_cert == apart.curvature_cert
        # repr prints each float exactly, and a NaN lam_h equal to itself
        assert [repr(r) for r in folded.trace] == [repr(r) for r in apart.trace]
        # the climbed point is evaluated once, not again by the solve
        assert folded_products == products[0] - folded_products - 1

    def test_negative_warm_iters_raises(self):
        with pytest.raises(ValueError, match="warm_iters"):
            solve(instances.goe(20, 1), SolverOptions(k=3), warm_iters=-1)


class TestOneRoutine:
    """The warm start and the paper's gradient phase climb through one ``_ascent``."""

    @pytest.mark.parametrize("policy", ["_WARM", "_PAPER"])
    @pytest.mark.parametrize("d, k", [(1, 4), (3, 6)])
    def test_a_step_at_the_floor_gains_what_the_budget_counts(self, monkeypatch, d, k,
                                                              policy):
        # no Barzilai-Borwein length: every trial after the first is the floor
        A = instances.goe(90, 2)
        if d > 1:
            A = A.with_block_dim(d)
        monkeypatch.setattr(solver, "_bb_length", lambda *args, **kwargs: 0.0)
        geom = solver._Geometry(A, k, "sphere" if d == 1 else "stiefel")
        state = geom.evaluate(geom.random_point(3))
        l1, l2 = geom.l1, A.opnorm()
        memory, rho = getattr(solver, policy)
        steps = list(itertools.islice(solver._ascent(geom, state, 0.0, memory, rho), 60))
        assert len(steps) == 60
        befores = [state] + [after for after, _ in steps[:-1]]
        above = 0
        for i, (before, (after, t)) in enumerate(zip(befores, steps)):
            g = before.grad_norm
            floor = min(1.0 / (4.42 * l1), 1.0 / (20.0 * g))
            assert t == floor or i == 0
            if t == floor or policy == "_PAPER":
                assert after.objective - before.objective >= t * g**2 / 2
            if t == floor and g > l2:
                assert after.objective - before.objective >= l2**2 / (40.0 * l1)
                above += 1
        assert above >= 1

    def test_a_short_warm_start_hands_over_to_the_monotone_phase(self):
        A = instances.goe(200, 0)
        rep = solve(A, SolverOptions(k=4, seed=0), warm_iters=5)
        assert rep.warm_steps == 5 and rep.trace[0].grad_norm > A.opnorm()
        steps = [(a, b) for a, b in zip(rep.trace, rep.trace[1:]) if b.kind == "gradient"]
        assert len(steps) == rep.gradient_steps > 0
        assert all(b.objective >= a.objective for a, b in steps)
        assert rep.converged

    def test_every_gradient_step_is_an_ascent_step(self, monkeypatch):
        calls = []
        ascent = solver._ascent

        def spy(geom, state, grad_tol, memory, rho):
            # one entry per step taken, with the policy it was taken under
            for step in ascent(geom, state, grad_tol, memory, rho):
                calls.append((memory, rho))
                yield step

        monkeypatch.setattr(solver, "_ascent", spy)
        A = instances.goe(60, 3)
        cold = solve(A, SolverOptions(k=3, seed=1))
        assert cold.gradient_steps > 0 and calls == [solver._PAPER] * cold.gradient_steps
        calls.clear()
        warm = solve(A, SolverOptions(k=3, seed=1), warm_iters=3000)
        assert calls == [solver._WARM] * warm.warm_steps + [solver._PAPER] * warm.gradient_steps
        assert warm.warm_steps > 0
        calls.clear()
        _, rec = rtr_step(A, random_config(60, 3, 7), SolverOptions(k=3, seed=1))
        assert rec.kind == "gradient" and calls == [solver._PAPER]
        calls.clear()
        estimate_sdp(A, seed=0)
        assert calls and set(calls) == {solver._WARM}


def report_fields(rep):
    """Every field of a report, with the point as its bytes and the trace as exact reprs."""
    fields = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    fields["sigma"] = (rep.sigma.d, rep.sigma.rows.tobytes())
    fields["trace"] = [repr(r) for r in rep.trace]
    return fields


class TestOneStream:
    """The first draw of a solve's seed is its start, whether or not one is passed."""

    @pytest.mark.parametrize("warm_iters", [0, 3000])
    @pytest.mark.parametrize("manifold", ["sphere", "stiefel"])
    def test_passing_the_seeds_start_is_the_same_run(self, manifold, warm_iters):
        if manifold == "sphere":
            A, k = instances.goe(120, 0), 4
        else:
            A, k = instances.goe(90, 0).with_block_dim(3), 6
        for seed in range(4):
            opts = SolverOptions(k=k, manifold=manifold, seed=seed)
            drawn = solve(A, opts, warm_iters=warm_iters)
            passed = solve(A, opts, sigma0=solver.random_start(A, k, seed, manifold),
                           warm_iters=warm_iters)
            assert drawn.krylov_steps > 0
            assert report_fields(drawn) == report_fields(passed)

    @pytest.mark.parametrize("pass_start", [False, True], ids=["drawn", "passed"])
    @pytest.mark.parametrize("manifold", ["sphere", "stiefel"])
    def test_no_search_starts_from_the_starts_gaussian(self, monkeypatch, manifold,
                                                       pass_start):
        A = instances.goe(90, 6).with_block_dim(3)
        gaussians = []
        draw = stiefel.oc_random_tangent

        def spy(config, seed):
            # the Gaussian the draw projects, read ahead with the stream put back
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            gaussians.append(rng.standard_normal(config.rows.shape))
            rng.bit_generator.state = state
            return draw(config, rng)

        monkeypatch.setattr(stiefel, "oc_random_tangent", spy)
        start = solver.random_start(A, 6, 4, manifold) if pass_start else None
        rep = solve(A, SolverOptions(k=6, manifold=manifold, seed=4), sigma0=start)
        start_gaussian = np.random.default_rng(4).standard_normal((90, 6))
        assert rep.krylov_steps > 0 and len(gaussians) >= 2
        assert not any(np.array_equal(g, start_gaussian) for g in gaussians)

    @pytest.mark.parametrize("kind, d", [("gradient", 1), ("eigen", 1), ("none", 1),
                                         ("gradient", 3)],
                             ids=["gradient", "eigen", "none", "gradient-d3"])
    def test_rtr_step_is_the_first_step_of_a_solve(self, kind, d):
        A = instances.goe(60, 3)
        if d == 3:
            A = A.with_block_dim(3)
            start = solver.random_start(A, 6, 7, "stiefel")
            opts = SolverOptions(k=6, manifold="stiefel", seed=2)
        elif kind == "gradient":
            start, opts = random_config(60, 3, 7), SolverOptions(k=3, epsilon=1e-6, seed=2)
        elif kind == "eigen":
            start = warm_point(A, 3, 7)
            opts = SolverOptions(k=3, mode=MODE_EIGEN_ONLY, epsilon=1e-8, seed=2)
        else:
            start, opts = warm_point(A, 3, 7), SolverOptions(k=3, epsilon=1.0, seed=2)
        nxt, rec = rtr_step(A, start, opts)
        rep = solve(A, dataclasses.replace(opts, max_iters=1), sigma0=start)
        assert rec.kind == kind
        if kind == "none":
            # a certified step is no trace row: the report carries its certificate
            assert nxt is start and len(rep.trace) == 1 and rep.converged
            assert (rec.lam_h, rec.krylov_steps) == (rep.curvature_cert, rep.krylov_steps)
        else:
            assert repr(dataclasses.replace(rec, index=1)) == repr(rep.trace[1])
            assert np.array_equal(nxt.rows, rep.sigma.rows)


_ENTRIES = {"solve": lambda A, opts, start: solve(A, opts, sigma0=start),
            "rtr_step": lambda A, opts, start: rtr_step(A, start, opts)}


class TestStartCheck:
    """A start of another rank or block size than the options ask for is refused."""

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_start_of_another_rank_raises(self, entry):
        # a k = 6 start once ran at k = 6 under the k = 3 target and tangent dimension
        with pytest.raises(ValueError, match="start has k = 6, d = 1; the solve runs at k = 3"):
            _ENTRIES[entry](instances.goe(60, 1), SolverOptions(k=3), random_config(60, 6, 0))

    @pytest.mark.parametrize("entry", sorted(_ENTRIES))
    def test_start_of_another_block_size_raises(self, entry):
        # the start is at fault, not the matrix's block structure
        A = instances.goe(60, 1).with_block_dim(3)
        with pytest.raises(ValueError, match="start has k = 6, d = 1; .* d = 3"):
            _ENTRIES[entry](A, SolverOptions(k=6, manifold="stiefel"), random_config(60, 6, 0))


def _scaled_goe(scale, tmp_path):
    return SymmetricMatrix(instances.goe(30, 0).to_dense() * scale)


def _goe_file_at_1e308(tmp_path):
    # goe(30, 0)'s entries are below 1 in magnitude, so each written value is finite
    dense, path = instances.goe(30, 0).to_dense(), tmp_path / "big.symmat"
    lines = [f"{i} {j} {dense[i, j] * 1e308:.17g}" for i in range(30) for j in range(i, 30)]
    path.write_text("symmat n 30\n" + "\n".join(lines) + "\n")
    return symmat.load_symmat(path)


_HUGE = {"1e160": functools.partial(_scaled_goe, 1e160),
         "1e300": functools.partial(_scaled_goe, 1e300),
         "file-1e308": _goe_file_at_1e308}
_CAPPED_RUNS = {
    "solve": lambda A, start: solve(A, SolverOptions(k=4, max_iters=50), warm_iters=50),
    "rtr_step": lambda A, start: rtr_step(A, start, SolverOptions(k=4, max_iters=50)),
    "estimate_sdp": lambda A, start: estimate_sdp(A, pga_iters=50),
    "direction_finding": lambda A, start: direction_finding(A, start, mu_G=math.inf,
                                                            epsilon=1.0),
    "projected_gradient_ascent": lambda A, start: projected_gradient_ascent(A, start, iters=50),
}


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestOverflow:
    """Finite entries whose products overflow stop every entry point at its first state.

    At 1e160 the gradient norm overflowed, so the ascent's floor 1/(20 |grad|)
    was 0 and the warm start spun on trial steps that every point check passed.
    """

    @pytest.mark.parametrize("entry", sorted(_CAPPED_RUNS))
    @pytest.mark.parametrize("matrix", sorted(_HUGE))
    def test_raises_at_the_first_state(self, monkeypatch, tmp_path, matrix, entry):
        A = _HUGE[matrix](tmp_path)
        start = solver.random_start(A, 4, 0)
        products = counted(monkeypatch, SymmetricMatrix, "dot")
        with pytest.raises(ValueError, match="the objective or the gradient norm is not finite"):
            _CAPPED_RUNS[entry](A, start)
        assert products[0] == 1


class TestProducts:
    """``products`` counts every product ``A @ X`` of a run but the cached ||A||_2 run."""

    # name: (the matrix, the run on it)
    RUNS = {
        "cold": (lambda: instances.goe(80, 5), lambda A: solve(A, SolverOptions(k=4, seed=3))),
        "warm": (lambda: instances.goe(80, 5),
                 lambda A: solve(A, SolverOptions(k=4, seed=3), warm_iters=3000)),
        "eigen-only": (lambda: instances.goe(30, 5),
                       lambda A: solve(A, SolverOptions(k=3, seed=11, mode=MODE_EIGEN_ONLY,
                                                        epsilon=0.05, max_iters=20))),
        "stiefel": (lambda: instances.goe(36, 14).with_block_dim(3),
                    lambda A: solve(A, SolverOptions(k=6, seed=3, manifold="stiefel"),
                                    warm_iters=100)),
        "capped": (lambda: instances.goe(40, 3),
                   lambda A: solve(A, SolverOptions(k=3, epsilon=0.5, seed=5,
                                                    max_power_iters=4), warm_iters=3000)),
        "budget": (lambda: instances.goe(40, 7),
                   lambda A: solve(A, SolverOptions(k=3, epsilon=1e-9, max_iters=3,
                                                    max_power_iters=10, seed=0))),
        "pga": (lambda: instances.goe(40, 7),
                lambda A: projected_gradient_ascent(A, random_config(40, 3, 1), iters=50)),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_products_count_every_product(self, name, monkeypatch):
        make, run = self.RUNS[name]
        A = make()
        A.opnorm()  # cached, so the products counted are the run's own
        products = counted(monkeypatch, SymmetricMatrix, "dot")
        rep = run(A)
        assert products[0] == rep.products > 0
        assert rep.summary_line().endswith(f" warm_steps={rep.warm_steps} "
                                           f"products={rep.products}")
        if name == "capped":
            assert rep.cap_hit and not rep.converged
        if name == "budget":
            assert not rep.converged and rep.iterations == 3
        if name == "eigen-only":
            assert rep.eigen_steps > 0
