import math

import numpy as np
import pytest

import oracles
from lowranksdp import instances, sphere, stiefel
from lowranksdp.analysis import (
    ALPHA_GW,
    RoundingResult,
    SdpEstimate,
    correlation,
    cut_value,
    estimate_sdp,
    grothendieck_check,
    gw_round,
    maxcut_bruteforce,
    oc_grothendieck_check,
    principal_sign,
)
from lowranksdp.solver import SolverOptions, projected_gradient_ascent, solve
from lowranksdp.sphere import SphereConfig, random_config
from lowranksdp.symmat import SymmetricMatrix


def cycle_adjacency(n):
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = 1.0
        a[(i + 1) % n, i] = 1.0
    return SymmetricMatrix(a)


def complete_adjacency(n):
    return SymmetricMatrix(np.ones((n, n)) - np.eye(n))


def certified_local_max(A, k, seed, epsilon=None):
    warm = projected_gradient_ascent(A, random_config(A.n, k, seed),
                                     step=1 / (4 * A.l1_norm()), iters=3000,
                                     grad_tol=1e-4 * A.l1_norm())
    opts = SolverOptions(k=k, seed=seed, epsilon=epsilon, max_iters=500,
                         max_power_iters=3000)
    return solve(A, opts, sigma0=warm.sigma)


class TestEstimateSdp:
    def test_zero_matrix(self):
        A = SymmetricMatrix(np.zeros((8, 8)))
        est = estimate_sdp(A, seed=0)
        assert est.value_plus == 0.0 and est.value_minus == 0.0 and est.rg == 0.0
        assert est.upper_plus == est.upper_minus == 0.0 and est.converged

    def test_rank_one_pm1_matrix_reaches_analytic_optimum(self):
        # A = u u^T: exhaustive +-1 maximum gives n^2 as a lower bound and
        # the trace bound <A, X> <= n * lam_max gives n^2 from above
        rng = np.random.default_rng(3)
        u = rng.choice([-1.0, 1.0], size=6)
        A = SymmetricMatrix(np.outer(u, u))
        best = -np.inf
        for bits in range(1 << 5):
            x = np.array([1.0] + [1.0 if bits & (1 << i) else -1.0 for i in range(5)])
            best = max(best, float(x @ A.to_dense() @ x))
        lam_max = float(np.linalg.eigvalsh(A.to_dense()).max())
        assert best == 36.0
        assert 6 * lam_max == pytest.approx(36.0, abs=1e-9)
        est = estimate_sdp(A, seed=1, pga_iters=4000)
        assert est.value_plus == pytest.approx(36.0, abs=1e-5)
        assert est.value_minus == pytest.approx(0.0, abs=1e-4)
        assert est.rank_used == int(np.ceil(np.sqrt(12.0))) + 1

    def test_estimates_are_lower_bounds(self):
        A = instances.goe(40, 2)
        est = estimate_sdp(A, seed=0)
        lam = np.linalg.eigvalsh(A.to_dense())
        assert est.value_plus <= 40 * lam.max() + 1e-9
        assert est.value_minus <= 40 * (-lam.min()) + 1e-9
        assert est.rg >= 0.0

    def test_dual_bound_brackets_estimates(self):
        # at the exact optimum sigma_i = u_i e_1 of A = u u^T the multipliers
        # are all 6 and A - 6 I is negative semidefinite: the bound is n^2
        rng = np.random.default_rng(3)
        u = rng.choice([-1.0, 1.0], size=6)
        rows = np.zeros((6, 3))
        rows[:, 0] = u
        assert oracles.sdp_dual_bound(np.outer(u, u), rows) == pytest.approx(36.0, abs=1e-9)
        # at the estimate's own points the bound sits between the estimate
        # and the trivial spectral bound n * lam_max
        A = instances.goe(40, 2)
        dense = A.to_dense()
        est = estimate_sdp(A, seed=0)
        lam = np.linalg.eigvalsh(dense)
        upper_plus = oracles.sdp_dual_bound(dense, est.point_plus.rows)
        upper_minus = oracles.sdp_dual_bound(-dense, est.point_minus.rows)
        assert est.value_plus <= upper_plus + 1e-9 <= 40 * lam.max()
        assert est.value_minus <= upper_minus + 1e-9 <= 40 * (-lam.min())


def bracket_ok(value, upper, l1):
    """The stop rule of ``estimate_sdp``: upper - value <= 1e-3 max(|upper|, ||A||_1)."""
    return upper - value <= 1e-3 * max(abs(upper), l1)


class TestSdpBracket:
    """The upper ends of ``estimate_sdp``: one dense eigvalsh per sign up to the cutoff."""

    @pytest.mark.parametrize("make", [
        lambda: instances.goe(40, 2),
        lambda: instances.goe(24, 7),
        lambda: SymmetricMatrix(np.outer(*[np.random.default_rng(3).choice([-1.0, 1.0], 6)] * 2)),
        lambda: -instances.erdos_renyi(60, 8.0, 1),
    ], ids=["goe40", "goe24", "uu", "neg-er"])
    def test_upper_ends_equal_the_dual_oracle(self, make):
        A = make()
        dense, n, l1 = A.to_dense(), A.n, A.l1_norm()
        est = estimate_sdp(A, seed=1)
        for value, upper, ok, B, point in (
                (est.value_plus, est.upper_plus, est.converged_plus, dense, est.point_plus),
                (est.value_minus, est.upper_minus, est.converged_minus, -dense, est.point_minus)):
            assert upper == pytest.approx(oracles.sdp_dual_bound(B, point.rows),
                                          abs=1e-9 * n * l1)
            assert value <= upper
            assert ok == bracket_ok(value, upper, l1)
            assert ok
        assert 0.0 <= est.rel_gap <= 1e-3

    def test_block_upper_ends_equal_the_block_oracle(self):
        A = instances.goe(36, 3).with_block_dim(3)
        dense, n, l1 = A.to_dense(), A.n, A.l1_norm()
        est = estimate_sdp(A, seed=2, manifold="stiefel")
        assert est.point_plus.d == 3
        for value, upper, ok, B, point in (
                (est.value_plus, est.upper_plus, est.converged_plus, dense, est.point_plus),
                (est.value_minus, est.upper_minus, est.converged_minus, -dense, est.point_minus)):
            assert upper == pytest.approx(oracles.sdp_block_dual_bound(B, point.rows, 3),
                                          abs=1e-9 * n * l1)
            assert value <= upper
            assert ok == bracket_ok(value, upper, l1)
        # the block oracle at d = 1 is the scalar one
        rows = random_config(36, 4, 0).rows
        assert oracles.sdp_block_dual_bound(dense, rows, 1) == pytest.approx(
            oracles.sdp_dual_bound(dense, rows), abs=1e-9 * n * l1)

    @pytest.mark.parametrize("past", [False, True], ids=["dense", "past-cutoff"])
    def test_estimate_runs_no_search_norm_run_or_solve(self, monkeypatch, past):
        from lowranksdp import analysis, solver, symmat

        def forbidden(*args, **kwargs):
            raise AssertionError("no curvature search, ||A||_2 run or solve in an estimate")
        monkeypatch.setattr(solver, "_eigen_direction", forbidden)
        monkeypatch.setattr(symmat, "opnorm_estimate", forbidden)
        monkeypatch.setattr(solver, "solve", forbidden)
        if past:
            monkeypatch.setattr(analysis, "_DENSE_CUTOFF", 35)
        for est in (estimate_sdp(instances.goe(40, 2), seed=0),
                    estimate_sdp(instances.goe(36, 3).with_block_dim(3), seed=0,
                                 manifold="stiefel")):
            assert est.converged is not past

    @pytest.mark.parametrize("manifold", ["sphere", "stiefel"])
    def test_past_the_cutoff_is_the_climb_without_upper_ends(self, monkeypatch, manifold):
        from lowranksdp import analysis, solver

        A = instances.goe(36, 3).with_block_dim(3)
        monkeypatch.setattr(analysis, "_DENSE_CUTOFF", A.n - 1)
        est = estimate_sdp(A, seed=5, manifold=manifold, pga_iters=500)
        seeds = np.random.SeedSequence(5).spawn(2)
        for B, seed, value, ok, point in ((A, seeds[0], est.value_plus, est.converged_plus,
                                           est.point_plus),
                                          (-A, seeds[1], est.value_minus, est.converged_minus,
                                           est.point_minus)):
            _, state, _, _ = solver._climb(B, est.rank_used, manifold, None,
                                           np.random.default_rng(seed), 500)
            assert value == state.objective and not ok
            assert np.array_equal(point.rows, state.rows)
        assert est.upper_plus == est.upper_minus == math.inf
        assert est.rel_gap == math.inf and not est.converged

    @pytest.mark.parametrize("cutoff", [2000, 35], ids=["dense", "past-cutoff"])
    def test_negative_pga_iters_raises(self, monkeypatch, cutoff):
        from lowranksdp import analysis

        monkeypatch.setattr(analysis, "_DENSE_CUTOFF", cutoff)
        with pytest.raises(ValueError, match="pga_iters"):
            estimate_sdp(instances.goe(40, 2), seed=0, pga_iters=-3)
        # no steps is allowed: the estimate is the seeded start's objective
        est = estimate_sdp(instances.goe(40, 2), seed=0, pga_iters=0)
        start = random_config(40, est.rank_used,
                              np.random.default_rng(np.random.SeedSequence(0).spawn(2)[0]))
        assert est.value_plus == sphere.objective(instances.goe(40, 2), start)

    def test_wide_bracket_climbs_on_within_pga_iters(self, monkeypatch):
        from lowranksdp import analysis, solver

        calls = []
        climb = solver._warm_ascent

        def recorded(geom, state, grad_tol, iters):
            out = climb(geom, state, grad_tol, iters)
            calls.append((iters, grad_tol, out[1]))
            return out
        monkeypatch.setattr(solver, "_warm_ascent", recorded)
        A = instances.goe(40, 2)
        l1 = A.l1_norm()
        first = estimate_sdp(A, seed=0, pga_iters=2000)
        assert [c[1] for c in calls] == [1e-3 * l1] * 2  # one climb per sign
        # a tolerance no bracket meets: each sign climbs on from its point
        monkeypatch.setattr(analysis, "_GAP_RTOL", 1e-15)
        calls.clear()
        est = estimate_sdp(A, seed=0, pga_iters=2000)
        assert [c[1] for c in calls] == [1e-3 * l1, 1e-5 * l1] * 2
        for (iters, _, steps), (more_iters, _, more) in zip(calls[::2], calls[1::2]):
            assert more_iters == iters - steps and more > 0
        assert est.value_plus >= first.value_plus and est.value_minus >= first.value_minus
        assert est.upper_plus == pytest.approx(
            oracles.sdp_dual_bound(A.to_dense(), est.point_plus.rows), abs=1e-9 * 40 * l1)
        assert not est.converged

    def test_small_budget_leaves_the_bracket_wide_without_raising(self):
        A = instances.goe(40, 2)
        est = estimate_sdp(A, seed=0, pga_iters=2)
        assert not est.converged_plus and not est.converged_minus
        assert est.value_plus <= est.upper_plus < math.inf
        assert est.value_minus <= est.upper_minus < math.inf
        assert est.rel_gap > 1e-3

    def test_rel_gap(self):
        assert SdpEstimate(0.0, 0.0, rank_used=4, upper_plus=0.0, upper_minus=0.0).rel_gap == 0.0
        assert SdpEstimate(9.0, 1.0, rank_used=4, upper_plus=11.0, upper_minus=1.5).rel_gap == \
            pytest.approx(2.5 / 12.5)
        assert SdpEstimate(9.0, 1.0, rank_used=4).rel_gap == math.inf


class TestGrothendieckCheck:
    def test_zero_matrix_trivial(self):
        A = SymmetricMatrix(np.zeros((6, 6)))
        cfg = random_config(6, 3, 0)
        est = SdpEstimate(0.0, 0.0, rank_used=4)
        holds, slack = grothendieck_check(A, cfg, 0.0, est, tol=0.0)
        assert holds and slack == 0.0

    def test_k1_rejected(self):
        A = instances.goe(5, 0)
        cfg = random_config(5, 1, 0)
        est = SdpEstimate(1.0, 1.0, rank_used=4)
        with pytest.raises(ValueError):
            grothendieck_check(A, cfg, 0.1, est)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_epsilon_out_of_range_rejected(self, eps):
        A = instances.goe(5, 0)
        est = SdpEstimate(1.0, 1.0, rank_used=4)
        with pytest.raises(ValueError, match="epsilon"):
            grothendieck_check(A, random_config(5, 3, 0), eps, est)

    def test_end_to_end_goe_holds(self):
        for seed in range(2):
            A = instances.goe(60, 30 + seed)
            est = estimate_sdp(A, seed=seed, pga_iters=3000)
            for k in (2, 3, 4):
                rep = certified_local_max(A, k, seed)
                assert rep.converged
                holds, slack = grothendieck_check(A, rep.sigma, rep.epsilon, est)
                assert holds, f"k={k} seed={seed} slack={slack}"

    def test_oc_check_d1_equals_sphere_check(self):
        A = instances.goe(20, 4)
        est = SdpEstimate(12.0, 11.0, rank_used=7)
        cfg = stiefel.oc_random_config(20, 1, 3, 1)
        scfg = SphereConfig(cfg.rows)
        h1, s1 = grothendieck_check(A, scfg, 0.5, est)
        h2, s2 = oc_grothendieck_check(A.with_block_dim(1), cfg, 0.5, est)
        assert h1 == h2 and s1 == pytest.approx(s2, abs=1e-12)

    def test_oc_check_zero_matrix_zero_slack(self):
        A = SymmetricMatrix(np.zeros((12, 12)), block_dim=3)
        cfg = stiefel.oc_random_config(4, 3, 5, 0)
        est = SdpEstimate(0.0, 0.0, rank_used=9)
        holds, slack = oc_grothendieck_check(A, cfg, 0.0, est, tol=0.0)
        assert holds and slack == 0.0

    def test_oc_check_kd_guard(self):
        A = instances.goe(12, 0).with_block_dim(3)
        cfg = stiefel.oc_random_config(4, 3, 3, 0)  # k_d = 1.5 ok, k=3 >= d
        est = SdpEstimate(1.0, 1.0, rank_used=5)
        holds, slack = oc_grothendieck_check(A, cfg, 0.5, est)
        assert isinstance(holds, (bool, np.bool_))
        small = stiefel.oc_random_config(4, 3, 2, 0) if False else None
        with pytest.raises(ValueError):
            # k_d = 2*2/(3+1) = 1 <= 1 rejected; build a d=3, k=2 config is
            # impossible (k >= d), so check the guard through d=1, k=1
            oc_grothendieck_check(A.with_block_dim(1),
                                  stiefel.oc_random_config(12, 1, 1, 0), 0.5, est)


class TestGwRound:
    def test_identical_rows_cut_zero(self):
        A_G = complete_adjacency(6)
        rows = np.tile(np.array([[1.0, 0.0]]), (6, 1))
        cfg = SphereConfig(rows)
        out = gw_round(A_G, cfg, num_samples=50, seed=0)
        assert out.value == 0.0
        assert np.all(out.labels == out.labels[0])

    def test_tie_breaks_to_plus_one(self):
        # a configuration row orthogonal to every sampled hyperplane is
        # impossible to arrange generically; check the sign convention directly
        from lowranksdp.analysis import _signs

        assert _signs(np.array([0.0, -0.0, 1.0, -2.0])).tolist() == [1.0, 1.0, 1.0, -1.0]

    def test_negative_weights_rejected(self):
        bad = SymmetricMatrix(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        cfg = random_config(2, 2, 0)
        with pytest.raises(ValueError):
            gw_round(bad, cfg, 10, 0)

    def test_best_of_n_monotone_in_n(self):
        A_G = SymmetricMatrix(instances.erdos_renyi(30, 6.0, 1).to_dense())
        rep = projected_gradient_ascent(-A_G, random_config(30, 3, 2), iters=2000)
        cfg = rep.sigma
        values = [gw_round(A_G, cfg, n, seed=9).value for n in (1, 5, 20, 80)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_beats_gw_factor_on_small_graph(self):
        # oracle: exhaustive enumeration at n = 10
        A_G = instances.erdos_renyi(10, 4.0, 7)
        A_G = SymmetricMatrix(A_G.to_dense())
        best = maxcut_bruteforce(A_G)
        rep = projected_gradient_ascent(-A_G, random_config(10, 3, 8), iters=4000)
        out = gw_round(A_G, rep.sigma, num_samples=200, seed=3)
        assert out.value >= ALPHA_GW * (1 - 1.0 / (3 - 1)) * best - 1e-9


class TestPrincipalSign:
    def test_k1_returns_signs(self):
        rows = np.array([[1.0], [-1.0], [1.0]])
        cfg = SphereConfig(rows)
        assert principal_sign(cfg).tolist() == [1.0, -1.0, 1.0]

    def test_rank_one_configuration(self):
        rng = np.random.default_rng(0)
        u = rng.choice([-1.0, 1.0], size=12)
        rows = np.zeros((12, 3))
        rows[:, 0] = u
        cfg = SphereConfig(rows)
        got = principal_sign(cfg)
        assert np.array_equal(got, u) or np.array_equal(got, -u)

    def test_spiked_recovery(self):
        hits = []
        for seed in range(5):
            inst = instances.spiked(600, 6.0, 40 + seed)
            rep = projected_gradient_ascent(inst.A, random_config(600, 4, seed),
                                            step=1 / (4 * inst.A.l1_norm()), iters=1500)
            u_hat = principal_sign(rep.sigma)
            hits.append((float(u_hat @ inst.ground_truth) / 600.0) ** 2)
        assert all(h >= 0.5 for h in hits)


class TestCorrelation:
    def test_perfect_alignment(self):
        u = np.array([1.0, -1.0, 1.0, 1.0])
        rows = np.zeros((4, 2))
        rows[:, 0] = u
        assert correlation(SphereConfig(rows), u) == pytest.approx(1.0, abs=1e-14)

    def test_independent_config_is_small(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            cfg = random_config(1000, 3, 70 + seed)
            u = rng.choice([-1.0, 1.0], size=1000)
            assert correlation(cfg, u) <= 0.02

    def test_bounds(self):
        for seed in range(5):
            cfg = random_config(50, 4, seed)
            u = np.random.default_rng(seed).choice([-1.0, 1.0], size=50)
            c = correlation(cfg, u)
            assert 0.0 <= c <= 1.0

    def test_label_validation(self):
        cfg = random_config(5, 2, 0)
        with pytest.raises(ValueError):
            correlation(cfg, np.array([1.0, 2.0, 1.0, -1.0, 1.0]))


class TestSphereOnlyHelpers:
    """Rounding and overlaps read rows as points of the sphere product, so frames raise."""

    CALLS = {
        "gw_round": lambda cfg: gw_round(instances.erdos_renyi(30, 5, 1), cfg, 10, 0),
        "principal_sign": principal_sign,
        "correlation": lambda cfg: correlation(cfg, np.ones(30)),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_frame_point_raises(self, name):
        # 30 rows of ten 3 x 4 frames, the shape of a d = 1 point at k = 4
        with pytest.raises(ValueError, match=r"sphere product \(d = 1\); has d = 3"):
            self.CALLS[name](stiefel.oc_random_config(10, 3, 4, 0))
        self.CALLS[name](random_config(30, 4, 0))


class TestCutValue:
    def test_complete_graph_balanced_split(self):
        A_G = complete_adjacency(4)
        labels = np.array([1.0, 1.0, -1.0, -1.0])
        assert cut_value(A_G, labels) == pytest.approx(4.0, abs=1e-12)

    def test_empty_graph(self):
        A_G = SymmetricMatrix(np.zeros((5, 5)))
        assert cut_value(A_G, np.ones(5)) == 0.0

    def test_cycle_c4_bipartition(self):
        A_G = cycle_adjacency(4)
        assert maxcut_bruteforce(A_G) == pytest.approx(4.0, abs=1e-12)
        labels = np.array([1.0, -1.0, 1.0, -1.0])
        assert cut_value(A_G, labels) == pytest.approx(4.0, abs=1e-12)

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            maxcut_bruteforce(SymmetricMatrix(np.zeros((25, 25))))

    def test_bruteforce_matches_direct_scan(self):
        A_G = instances.erdos_renyi(9, 3.0, 11)
        A_G = SymmetricMatrix(A_G.to_dense())
        best = max(cut_value(A_G, np.array([1.0] + [1.0 if bits & (1 << i) else -1.0
                                                    for i in range(8)]))
                   for bits in range(256))
        assert maxcut_bruteforce(A_G) == pytest.approx(best, abs=1e-12)


class TestRoundingResult:
    def test_label_validation(self):
        with pytest.raises(ValueError):
            RoundingResult(labels=np.array([1.0, 0.5]), value=1.0, samples_tried=1)
