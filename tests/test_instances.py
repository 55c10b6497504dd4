import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import oracles
from lowranksdp.instances import (
    SizeError,
    centered_regular,
    erdos_renyi,
    goe,
    random_regular,
    sbm,
    sbm_snr,
    so_sync,
    spiked,
)


def offdiag_values(dense):
    n = dense.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return dense[mask]


class TestGoe:
    def test_deterministic(self):
        a = goe(30, 5).to_dense()
        b = goe(30, 5).to_dense()
        assert np.array_equal(a, b)

    def test_n1_variance_parameter(self):
        # single entry has variance 2: check the sample std over many draws
        draws = np.array([goe(1, s).to_dense()[0, 0] for s in range(4000)])
        assert draws.var() == pytest.approx(2.0, rel=0.15)

    def test_offdiagonal_moments(self):
        n = 400
        w = goe(n, 7).to_dense()
        off = offdiag_values(w)
        assert off.var() == pytest.approx(1.0 / n, rel=0.10)
        assert np.diag(w).var() == pytest.approx(2.0 / n, rel=0.25)

    def test_operator_norm_near_two(self):
        A = goe(1000, 11)
        est = A.opnorm(rel_tol=1e-4, max_iters=4000)
        assert 1.8 <= est <= 2.2

    def test_too_big_to_describe(self):
        # refused before anything is drawn or allocated
        with pytest.raises(SizeError, match="too big"):
            goe(10**10, 0)
        with pytest.raises(SizeError, match="too big"):
            spiked(10**10, 1.0, 0)


class TestSpiked:
    def test_zero_lambda_is_pure_noise(self):
        inst = spiked(50, 0.0, 3)
        # residual after removing the (zero) spike is the matrix itself
        assert inst.ground_truth.shape == (50,)
        assert np.all(np.abs(inst.ground_truth) == 1)

    def test_quadratic_form_concentration(self):
        vals = []
        for seed in range(20):
            inst = spiked(1000, 4.0, seed)
            u = inst.ground_truth
            vals.append(float(u @ inst.A.dot(u)) / 1000.0)
        vals = np.array(vals)
        assert np.all(vals >= 3.0) and np.all(vals <= 5.0)

    def test_top_eigenvalue_bbp_location(self):
        inst = spiked(2000, 4.0, 1)
        dense = inst.A.to_dense()
        top = float(spla.eigsh(dense, k=1, which="LA")[0][0])
        assert top == pytest.approx(4.0 + 1.0 / 4.0, abs=0.2)

    def test_residual_is_goe_like(self):
        inst = spiked(400, 3.0, 9)
        u = inst.ground_truth
        resid = inst.A.to_dense() - (3.0 / 400) * np.outer(u, u)
        off = offdiag_values(resid)
        assert off.var() == pytest.approx(1.0 / 400, rel=0.10)
        assert abs(off.mean()) <= 3.0 / 400  # 3 sigma


class TestSbm:
    def test_balanced_labels(self):
        inst = sbm(100, 10.0, 2.0, 0)
        assert float(inst.ground_truth.sum()) == 0.0

    def test_snr_formula(self):
        assert sbm_snr(12.0, 4.0) == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert sbm_snr(5.0, 5.0) == 0.0

    def test_mean_degree(self):
        inst = sbm(2000, 12.0, 4.0, 1)
        degrees = inst.adjacency.dot(np.ones(2000))
        assert degrees.mean() == pytest.approx(8.0, rel=0.05)

    def test_group_conditional_frequencies(self):
        n, a, b = 2000, 12.0, 4.0
        inst = sbm(n, a, b, 2)
        u = inst.ground_truth
        adj = inst.adjacency.to_dense()
        same = np.outer(u, u) > 0
        iu = np.triu_indices(n, 1)
        same_edges = adj[iu][same[iu]]
        cross_edges = adj[iu][~same[iu]]
        for sample, p in [(same_edges, a / n), (cross_edges, b / n)]:
            se = np.sqrt(p * (1 - p) / sample.size)
            assert abs(sample.mean() - p) <= 3.0 * se

    def test_centered_scaled_form(self):
        n, a, b = 200, 10.0, 2.0
        inst = sbm(n, a, b, 3)
        d = (a + b) / 2.0
        expect = (inst.adjacency.to_dense() - d / n) / np.sqrt(d)
        assert np.allclose(inst.A.to_dense(), expect, atol=1e-12)

    def test_precondition_checks(self):
        with pytest.raises(ValueError):
            sbm(101, 5.0, 1.0, 0)  # odd n
        with pytest.raises(ValueError):
            sbm(100, 1.0, 5.0, 0)  # b > a

    def test_deterministic(self):
        a = sbm(60, 8.0, 2.0, 4)
        b = sbm(60, 8.0, 2.0, 4)
        assert np.array_equal(a.A.to_dense(), b.A.to_dense())
        assert np.array_equal(a.ground_truth, b.ground_truth)


class TestErdosRenyi:
    def test_mean_degree(self):
        means = []
        for seed in range(5):
            adj = erdos_renyi(1000, 50.0, seed)
            means.append(adj.dot(np.ones(1000)).mean())
        assert np.mean(means) == pytest.approx(50.0, rel=0.05)

    def test_zero_one_entries(self):
        adj = erdos_renyi(100, 5.0, 1).to_dense()
        assert set(np.unique(adj)) <= {0.0, 1.0}
        assert np.all(np.diag(adj) == 0.0)

    def test_bad_degree(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 10.0, 0)


def assert_binomial(counts, trials, p, sigmas=4.5):
    """Sample mean and variance of ``counts`` within ``sigmas`` standard errors of
    Binomial(trials, p)."""
    counts = np.asarray(counts, dtype=float)
    s = counts.size
    var = trials * p * (1 - p)
    fourth = var * (1 + 3 * (trials - 2) * p * (1 - p))  # the fourth central moment
    assert abs(counts.mean() - trials * p) <= sigmas * np.sqrt(var / s)
    var_se = np.sqrt((fourth - var**2 * (s - 3) / (s - 1)) / s)  # of the sample variance
    assert abs(counts.var(ddof=1) - var) <= sigmas * var_se


def assert_frequency(hits, draws, p, sigmas=4.5):
    """Each frequency ``hits / draws`` within ``sigmas`` standard errors of p."""
    hits, draws = np.asarray(hits, dtype=float), np.asarray(draws, dtype=float)
    assert np.all(np.abs(hits / draws - p) <= sigmas * np.sqrt(p * (1 - p) / draws))


def assert_simple_graph(adj):
    """0/1 entries, symmetric, no self-loops; a pair drawn twice would sum to 2."""
    core = sp.csr_matrix(adj._core)
    assert np.all(core.data == 1.0)
    assert np.all(core.diagonal() == 0.0)
    assert (core != core.T).nnz == 0


class TestPairSampler:
    """The geometric-skip draw of erdos_renyi and sbm: each pair independent, O(n + m)."""

    seeds = range(3000)

    def test_erdos_renyi_pair_law(self):
        n, p = 6, 2.0 / 6
        iu = np.triu_indices(n, 1)
        pairs = np.array([erdos_renyi(n, 2.0, s).to_dense()[iu] for s in self.seeds])
        assert_frequency(pairs.sum(axis=0), len(self.seeds), p)
        assert_binomial(pairs.sum(axis=1), iu[0].size, p)

    def test_sbm_pair_law(self):
        n, a, b = 6, 4.0, 2.0
        iu = np.triu_indices(n, 1)
        same_hits, same_draws, cross_hits, cross_draws = np.zeros((4, iu[0].size))
        within, cross = [], []
        for s in self.seeds:
            inst = sbm(n, a, b, s)
            edge = inst.adjacency.to_dense()[iu]
            same = (np.outer(inst.ground_truth, inst.ground_truth) > 0)[iu]
            same_hits += edge * same
            same_draws += same
            cross_hits += edge * ~same
            cross_draws += ~same
            within.append(edge[same].sum())
            cross.append(edge[~same].sum())
        assert_frequency(same_hits, same_draws, a / n)
        assert_frequency(cross_hits, cross_draws, b / n)
        assert_binomial(within, 6, a / n)  # two triangles of 3 pairs
        assert_binomial(cross, 9, b / n)  # a 3 x 3 rectangle

    def test_simple_graphs(self):
        assert_simple_graph(erdos_renyi(3000, 20.0, 5))
        assert_simple_graph(sbm(3000, 20.0, 5.0, 5).adjacency)

    def test_near_complete(self):
        n = 40
        adj = erdos_renyi(n, n - 0.5, 1)
        assert_simple_graph(adj)
        p = (n - 0.5) / n
        assert_frequency(adj.to_dense().sum() / 2, n * (n - 1) / 2, p)

    @pytest.mark.parametrize("n, a, b, edges", [
        (2, 2.0, 2.0, 1),  # one cross pair, kept with b/n = 1
        (2, 2.0, 0.0, 0),  # and with b/n = 0
        (6, 6.0, 0.0, 6),  # both triangles complete, no cross pair
        (6, 6.0, 6.0, 15),
    ])
    def test_sbm_certain_pairs(self, n, a, b, edges):
        for s in range(5):
            adj = sbm(n, a, b, s).adjacency
            assert_simple_graph(adj)
            assert adj._core.nnz == 2 * edges

    def test_sbm_two_nodes(self):
        # one cross pair, kept with probability b/n = 1/2
        counts = [sbm(2, 2.0, 1.0, s).adjacency._core.nnz // 2 for s in range(1000)]
        assert_binomial(counts, 1, 0.5)

    def test_pair_count_beyond_int64_is_rejected(self):
        with pytest.raises(SizeError, match="overflow int64"):
            erdos_renyi(2**32, 1.0, 0)

    @pytest.mark.parametrize("draw, degree", [(lambda: erdos_renyi(10**5, 10.0, 0), 10.0),
                                              (lambda: sbm(10**5, 12.0, 4.0, 0).A, 8.0)])
    def test_large_sparse_graph_in_linear_memory(self, draw, degree):
        # a per-pair draw would need 5e9 uniforms (40 GB) here
        tracemalloc.start()
        try:
            t0 = time.perf_counter()
            A = draw()
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A.n == 10**5 and A.is_sparse
        assert A._core.nnz / 2 == pytest.approx(10**5 * degree / 2, rel=0.01)
        assert peak < 200e6
        assert elapsed < 10.0


class TestRandomRegular:
    def test_row_sums_exactly_d(self):
        for n, d in [(50, 3), (40, 4), (30, 7)]:
            adj = random_regular(n, d, 0)
            degrees = adj.dot(np.ones(n))
            assert np.all(degrees == d)

    def test_simple_graph(self):
        adj = random_regular(60, 5, 2).to_dense()
        assert np.all(np.diag(adj) == 0.0)
        assert set(np.unique(adj)) <= {0.0, 1.0}

    def test_zero_degree(self):
        adj = random_regular(10, 0, 0)
        assert adj.to_dense().sum() == 0.0

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular(5, 3, 0)

    def test_deterministic(self):
        a = random_regular(40, 6, 9).to_dense()
        b = random_regular(40, 6, 9).to_dense()
        assert np.array_equal(a, b)

    def test_moderate_degree_terminates(self):
        # the stub-repair sampler handles degrees where naive whole-graph
        # rejection would essentially never succeed
        adj = random_regular(200, 12, 3)
        assert np.all(adj.dot(np.ones(200)) == 12)


class TestCenteredRegular:
    def test_row_sums_vanish(self):
        A = centered_regular(100, 6, 1)
        sums = A.dot(np.ones(100))
        assert np.abs(sums).max() <= 1e-9

    def test_l1_bound(self):
        # each column: (d ones shifted by -d/n) plus (n-d) entries of d/n
        for d in [4, 8, 12]:
            A = centered_regular(400, d, 0)
            assert A.l1_norm() <= 2.0 * d + 1e-9

    def test_spectral_norm_friedman(self):
        A = centered_regular(2000, 12, 5)
        est = A.opnorm(rel_tol=1e-4, max_iters=4000)
        assert est == pytest.approx(2.0 * np.sqrt(11.0), rel=0.10)

    def test_stays_lazy_sparse(self):
        A = centered_regular(500, 6, 2)
        assert A.is_sparse
        assert A.shift == pytest.approx(-6.0 / 500)


class TestSoSync:
    def test_blocks_and_structure(self):
        inst = so_sync(5, 3, 0.1, 0)
        A = inst.A
        assert A.block_dim == 3
        assert A.n == 15
        rots = inst.meta["rotations"]
        assert rots.shape == (5, 3, 3)
        for r in rots:
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("m, d, noise, seed", [
        (1, 1, 0.0, 0), (7, 1, 0.4, 1), (6, 2, 0.0, 2),
        (9, 3, 0.3, 3), (5, 4, 1.5, 4), (20, 3, 0.1, 5),
    ])
    def test_matches_the_block_loop(self, m, d, noise, seed):
        a, rots = oracles.so_sync_loop(m, d, noise, seed)
        inst = so_sync(m, d, noise, seed)
        assert np.array_equal(inst.A.to_dense(), a)
        assert np.array_equal(inst.meta["rotations"], rots)
        assert inst.meta == {"model": "so_sync", "m": m, "d": d, "noise": noise,
                             "seed": seed, "rotations": inst.meta["rotations"]}

    def test_memory_of_a_few_dense_copies(self):
        # the matrix, the copy SymmetricMatrix keeps and its temporaries: about
        # three n x n arrays at the peak, as in the block loop
        m, d = 200, 3
        tracemalloc.start()
        try:
            so_sync(m, d, 0.3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * (m * d) ** 2 * 8

    def test_noiseless_diagonal_blocks(self):
        inst = so_sync(4, 2, 0.0, 1)
        dense = inst.A.to_dense()
        for i in range(4):
            blk = dense[2 * i:2 * i + 2, 2 * i:2 * i + 2]
            assert np.allclose(blk, np.eye(2), atol=1e-12)
