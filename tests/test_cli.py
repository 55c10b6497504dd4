import csv
import dataclasses

import numpy as np
import pytest

import oracles
from lowranksdp import analysis, cli, instances, solver, sphere, stiefel
from lowranksdp.cli import main
from lowranksdp.symmat import SymmetricMatrix, load_symmat, save_symmat


def run(argv):
    return main([str(a) for a in argv])


def exit_code(argv):
    """The exit code of a run, whether returned or raised by argparse."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


class TestGen:
    def test_goe_round_trip(self, tmp_path):
        out = tmp_path / "goe.symmat"
        assert run(["gen", "--model", "goe", "--n", 20, "--seed", 3,
                    "--out", out]) == 0
        A = load_symmat(out)
        assert A.n == 20
        meta = (tmp_path / "goe.symmat.meta").read_text()
        assert '"model": "goe"' in meta

    def test_spiked_meta_has_ground_truth(self, tmp_path):
        out = tmp_path / "s.symmat"
        assert run(["gen", "--model", "spiked", "--n", 16, "--lam", 2.5,
                    "--seed", 1, "--out", out]) == 0
        meta = (tmp_path / "s.symmat.meta").read_text()
        assert '"ground_truth"' in meta and '"lam": 2.5' in meta

    def test_regular_centered(self, tmp_path):
        out = tmp_path / "r.symmat"
        assert run(["gen", "--model", "regular", "--n", 20, "--d", 4,
                    "--centered", "--seed", 0, "--out", out]) == 0
        A = load_symmat(out)
        assert np.abs(A.dot(np.ones(20))).max() <= 1e-9

    def test_does_not_mutate_input(self, tmp_path):
        out = tmp_path / "g.symmat"
        run(["gen", "--model", "goe", "--n", 10, "--seed", 0, "--out", out])
        before = out.read_bytes()
        run(["solve", "--in", out, "--k", 2, "--seed", 0, "--pga-iters", 100])
        assert out.read_bytes() == before

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--model", "nope", "--n", 10, "--out", "x"])
        assert exc.value.code == 2


class TestSolveAndCheck:
    def test_solve_writes_trace_and_config(self, tmp_path):
        mat = tmp_path / "m.symmat"
        run(["gen", "--model", "goe", "--n", 30, "--seed", 5, "--out", mat])
        trace = tmp_path / "t.csv"
        cfg = tmp_path / "c.config"
        assert run(["solve", "--in", mat, "--k", 3, "--seed", 1,
                    "--out", trace, "--out-config", cfg,
                    "--pga-iters", 1000]) == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == "iteration,f,grad_norm,kind,step,lam_h,krylov_steps"
        assert lines[-1].startswith("# mode=")
        assert cfg.read_text().startswith("config n 30 k 3")

    def test_strict_nonconvergence_exit_3(self, tmp_path):
        mat = tmp_path / "m.symmat"
        run(["gen", "--model", "goe", "--n", 40, "--seed", 2, "--out", mat])
        code = run(["solve", "--in", mat, "--k", 3, "--seed", 1, "--strict",
                    "--eps", "1e-9", "--budget", "2", "--pga-iters", "50",
                    "--cold-start"])
        assert code == 3

    def test_cold_start_is_pga_iters_0(self, tmp_path, capsys):
        # both start the trust-region method at the seed's random point
        mat = tmp_path / "m.symmat"
        run(["gen", "--model", "goe", "--n", 60, "--seed", 2, "--out", mat])
        capsys.readouterr()
        outs = []
        for flags in (["--cold-start"], ["--pga-iters", 0], ["--pga-iters", 40, "--cold-start"]):
            assert run(["solve", "--in", mat, "--k", 4, "--seed", 1, *flags]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] == outs[2]
        assert "gradient=0 " not in outs[0] and " warm_steps=0 products=" in outs[0]

    @pytest.mark.parametrize("pga_iters", [0, 300])
    @pytest.mark.parametrize("manifold", ["sphere", "stiefel"])
    @pytest.mark.parametrize("mode", ["rtr-b", "pga"])
    def test_solve_is_the_library_run(self, tmp_path, capsys, mode, manifold, pga_iters):
        # rtr modes pass solve no start, so it draws the seed's own; pga starts
        # from random_start of the same seed
        mat, cfg, lib = tmp_path / "m.symmat", tmp_path / "cli.config", tmp_path / "lib.config"
        A = instances.goe(60, 2)
        save_symmat(A.with_block_dim(3) if manifold == "stiefel" else A, mat)
        A = load_symmat(mat)
        capsys.readouterr()
        assert run(["solve", "--in", mat, "--k", 4, "--seed", 1, "--mode", mode,
                    "--manifold", manifold, "--pga-iters", pga_iters, "--out-config", cfg]) == 0
        if mode == "pga":
            rep = solver.projected_gradient_ascent(A, solver.random_start(A, 4, 1, manifold),
                                                   iters=pga_iters, record_every=10**9)
        else:
            opts = solver.SolverOptions(k=4, seed=1, manifold=manifold, max_iters=20_000,
                                        max_power_iters=3000)
            rep = solver.solve(A, opts, warm_iters=pga_iters)
        assert capsys.readouterr().out == rep.summary_line() + "\n"
        stiefel.write_config(rep.sigma, lib)
        assert cfg.read_bytes() == lib.read_bytes()

    def test_check_pipeline(self, tmp_path, capsys):
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "c.config"
        run(["gen", "--model", "goe", "--n", 24, "--seed", 7, "--out", mat])
        run(["solve", "--in", mat, "--k", 3, "--seed", 0, "--out-config", cfg,
             "--pga-iters", 800])
        capsys.readouterr()
        out = tmp_path / "check.csv"
        assert run(["check", "--in-matrix", mat, "--in-config", cfg,
                    "--pga-iters", 500, "--out", out]) == 0
        with open(out) as fh:
            reader = csv.DictReader(fh)
            (row,) = list(reader)
        assert reader.fieldnames == ["model", "n", "k", "seed", "eps", "f", "sdp_est", "rg_est",
                                     "gap", "bound_slack", "holds", "sdp_upper"]
        # the upper end of SDP(A) closes the printed line: finite and above the estimate
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert list(fields)[-1] == "sdp_upper"
        est = analysis.estimate_sdp(load_symmat(mat), seed=0, pga_iters=500)
        assert float(fields["sdp_upper"]) == pytest.approx(est.upper_plus, rel=1e-9)
        assert float(row["sdp_upper"]) == est.upper_plus < np.inf
        assert float(row["sdp_est"]) <= est.upper_plus

    def test_check_past_the_cutoff_fails_strict(self, tmp_path, capsys, monkeypatch):
        # no upper end past the dense cutoff, so the estimate is not converged
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "c.config"
        run(["gen", "--model", "goe", "--n", 24, "--seed", 7, "--out", mat])
        run(["solve", "--in", mat, "--k", 3, "--seed", 0, "--out-config", cfg])
        monkeypatch.setattr(analysis, "_DENSE_CUTOFF", 23)
        capsys.readouterr()
        assert run(["check", "--in-matrix", mat, "--in-config", cfg, "--strict"]) == 3
        fields = dict(tok.split("=", 1) for tok in capsys.readouterr().out.split())
        assert fields["holds"] == "True"
        assert fields["converged_est"] == "False" and fields["sdp_upper"] == "inf"

    def test_generated_sbm_keeps_its_lazy_shift(self, tmp_path, monkeypatch):
        # the file holds the sparse core and the shift, so a solve from it is the
        # in-memory solve bit for bit
        mat = tmp_path / "sbm.symmat"
        run(["gen", "--model", "sbm", "--n", 200, "--a", 12, "--b", 4, "--seed", 3,
             "--out", mat])
        solve = ["solve", "--in", mat, "--k", 4, "--seed", 1, "--pga-iters", 300, "--out-config"]
        assert run(solve + [tmp_path / "file.config"]) == 0
        monkeypatch.setattr(cli, "load_symmat", lambda path: instances.sbm(200, 12, 4, 3).A)
        assert run(solve + [tmp_path / "memory.config"]) == 0
        assert (tmp_path / "file.config").read_bytes() == (tmp_path / "memory.config").read_bytes()

    @pytest.mark.parametrize("text", ["", "configuration n 2 k 2\n1 0\n0 1\n"])
    def test_check_bad_config_is_usage_error(self, tmp_path, capsys, text):
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "c.config"
        run(["gen", "--model", "goe", "--n", 2, "--seed", 0, "--out", mat])
        cfg.write_text(text)
        assert run(["check", "--in-matrix", mat, "--in-config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")


    def test_check_nonfinite_config_is_usage_error(self, tmp_path, capsys):
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "nan.config"
        run(["gen", "--model", "goe", "--n", 2, "--seed", 0, "--out", mat])
        cfg.write_text("config n 2 k 2\nnan nan\n0 1\n")
        assert run(["check", "--in-matrix", mat, "--in-config", cfg]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestSweeps:
    def test_z2sync_rows_and_reproducibility(self, tmp_path):
        out1 = tmp_path / "z1.csv"
        out2 = tmp_path / "z2.csv"
        argv = ["z2sync", "--n", 80, "--k", 3, "--lam-grid", "0.5,2",
                "--seeds", "0,1", "--pga-iters", 300, "--out"]
        assert run(argv + [out1]) == 0
        assert run(argv + [out2]) == 0
        assert out1.read_text().replace("z1", "") == out2.read_text().replace("z2", "")
        lines = out1.read_text().splitlines()
        assert len(lines) == 5  # header + 2 lambdas x 2 seeds
        assert lines[0].split(",")[:6] == ["model", "n", "k", "lam", "seed", "solver"]

    def test_empty_seed_list_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["z2sync", "--n", 40, "--k", 2, "--lam-grid", "1",
                 "--seeds", ",", "--out", tmp_path / "x.csv"])
        assert exc.value.code == 2

    def test_sbm_sweep(self, tmp_path):
        out = tmp_path / "sbm.csv"
        assert run(["sbm", "--n", 100, "--k", 4, "--ab", "12,4",
                    "--seeds", "0", "--pga-iters", 300, "--out", out]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 2
        assert rows[1].startswith("sbm,100,4,12,4,")

    def test_maxcut_includes_high_rank_row(self, tmp_path):
        out = tmp_path / "mc.csv"
        assert run(["maxcut", "--n", 40, "--d", 6, "--k-grid", "2,3",
                    "--seeds", "0", "--samples", 10, "--pga-iters", 300,
                    "--out", out]) == 0
        body = out.read_text()
        assert ",True," in body  # the high-rank comparison row

    def test_landscape_writes_both_files(self, tmp_path):
        out = tmp_path / "land.csv"
        assert run(["landscape", "--n", 50, "--k-grid", "2,3", "--seeds", "0",
                    "--pga-iters", 200, "--stride", 100, "--out", out]) == 0
        assert out.exists() and (tmp_path / "land.csv.final.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header == "model,n,k,seed,iter,curvature,gap_2_over_n,f,grad_norm"
        final = (tmp_path / "land.csv.final.csv").read_text().splitlines()[0]
        assert final == "model,n,k,seed,gap,sdp_est,rg_est,f,sdp_upper"

    def test_landscape_curvature_is_a_lanczos_bound(self, tmp_path):
        # rebuild the last trajectory point from its seeds: the curvature
        # column is a Lanczos lower bound within the target epsilon of the
        # top Hessian eigenvalue
        out = tmp_path / "land.csv"
        assert run(["landscape", "--n", 50, "--k-grid", "2,3", "--seeds", "0",
                    "--pga-iters", 200, "--stride", 100, "--out", out]) == 0
        with open(out) as fh:
            last = list(csv.DictReader(fh))[-1]
        n, k, seed = 50, int(last["k"]), int(last["seed"])
        assert (k, int(last["iter"])) == (3, 200)
        A = instances.goe(n, seed)
        sigma = sphere.random_config(n, k, seed + 1)
        for _ in range(2):
            rep = solver.projected_gradient_ascent(A, sigma, step=1.0 / (20.0 * A.l1_norm()),
                                                   iters=100, record_every=10**9)
            sigma = rep.sigma
        assert float(last["f"]) == rep.objective
        exact = oracles.tangent_hessian_lambda_max(A, sigma)
        eps = solver.default_epsilon(A, k)
        geom = solver._Geometry(A, k, "sphere")
        mu_H = geom.shift(geom.evaluate(sigma))  # the search's shift
        assert exact - eps <= float(last["curvature"]) <= exact + 1e-9 * mu_H

    def test_landscape_desk_guard(self, tmp_path):
        assert run(["landscape", "--n", 5000, "--k-grid", "2", "--seeds", "0",
                    "--out", tmp_path / "x.csv"]) == 2

    def test_ocsdp_sweep(self, tmp_path):
        out = tmp_path / "oc.csv"
        assert run(["ocsdp", "--n", 24, "--d", 3, "--k-grid", "6",
                    "--seeds", "0", "--pga-iters", 300, "--out", out]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].split(",") == ["model", "n", "d", "k", "k_d", "seed", "solver", "f",
                                      "sdp_est", "rg_est", "gap", "bound_slack", "holds",
                                      "converged", "sdp_upper"]
        assert len(rows) == 2

    @pytest.mark.parametrize("argv", [
        ["z2sync", "--n", 36, "--k", 3, "--lam-grid", 1.5],
        ["sbm", "--n", 40, "--k", 3, "--ab", "12,4"],
        ["maxcut", "--n", 40, "--d", 6, "--k-grid", 3, "--samples", 5],
        ["ocsdp", "--n", 24, "--d", 3, "--k-grid", 6],
    ])
    def test_strict_sweep_exits_3_and_still_writes_its_rows(self, tmp_path, argv):
        # one trust-region step from a random start cannot certify
        out = tmp_path / "s.csv"
        assert run(argv + ["--seeds", 0, "--solver", "rtr-b", "--budget", 1, "--pga-iters", 0,
                           "--strict", "--out", out]) == 3
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert rows and "False" in [row["converged"] for row in rows]


def _overflowing(A):
    """``A`` scaled by 1e200: its entries are finite, the squares of its products are not."""
    return SymmetricMatrix(A.to_dense() * 1e200, block_dim=A.block_dim)


class TestOverflowingMatrix:
    """A matrix whose products overflow is a one-line usage error, not a traceback."""

    @staticmethod
    def _assert_usage_error(argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: the objective or the gradient norm is not finite")

    @pytest.mark.parametrize("mode", ["rtr-b", "rtr-a", "pga"])
    def test_solve(self, tmp_path, capsys, mode):
        mat = tmp_path / "big.symmat"
        save_symmat(_overflowing(instances.goe(30, 0)), mat)
        self._assert_usage_error(["solve", "--in", mat, "--k", 4, "--mode", mode], capsys)

    @pytest.mark.parametrize("argv", [
        ["z2sync", "--n", 30, "--k", 3, "--lam-grid", "1.5"],
        ["sbm", "--n", 30, "--k", 3, "--ab", "12,4"],
        ["maxcut", "--n", 30, "--d", 6, "--k-grid", "3"],
        ["ocsdp", "--n", 30, "--d", 3, "--k-grid", "6"],
    ])
    @pytest.mark.parametrize("solver_flag", ["rtr-b", "pga"])
    def test_sweeps(self, tmp_path, capsys, monkeypatch, argv, solver_flag):
        def scaled(make):
            def made(*args):
                out = make(*args)
                if isinstance(out, instances.Instance):
                    return dataclasses.replace(out, A=_overflowing(out.A))
                return _overflowing(out)
            return made

        for name in ("spiked", "sbm", "erdos_renyi", "goe"):
            monkeypatch.setattr(instances, name, scaled(getattr(instances, name)))
        out = tmp_path / "out.csv"
        self._assert_usage_error(argv + ["--seeds", "0", "--solver", solver_flag,
                                         "--out", out], capsys)
        assert not out.exists()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["maxcut", "--k-grid", "2,x"],
        ["maxcut", "--pga-step", "0"],
        ["z2sync", "--lam-grid", "0.5,q"],
        ["z2sync", "--seeds", "0,x"],
        ["sbm", "--ab", "12"],
        ["sbm", "--ab", "12,4,1"],
        ["solve", "--in", "m.symmat", "--k", "2", "--pga-step", "-1"],
        ["landscape", "--pga-step", "0"],
        ["landscape", "--pga-step", "nan"],
        ["landscape", "--stride", "0"],
        ["landscape", "--pga-iters", "0"],
        # values that parse but lie out of range
        ["sbm", "--ab", "4,12"],
        ["sbm", "--ab", "0,0"],
        ["sbm", "--n", "21"],
        ["sbm", "--k", "1", "--solver", "rtr-b"],
        ["landscape", "--k-grid", "1"],
        ["ocsdp", "--n", "24", "--d", "3", "--k-grid", "2"],
        ["ocsdp", "--d", "3"],  # 3 does not divide 20
        ["z2sync", "--lam-grid", "nan"],
        ["z2sync", "--lam-grid", "-1"],
        ["z2sync", "--k", "0"],
        ["maxcut", "--n", "20", "--d", "30"],
        ["maxcut", "--d", "5", "--samples", "0"],
        ["maxcut", "--d", "5", "--k-grid", "1", "--solver", "rtr-a"],
        ["gen", "--model", "spiked", "--lam", "-1"],
        ["solve", "--in", "m.symmat", "--k", "2", "--eps", "0"],
        ["solve", "--in", "m.symmat", "--k", "2", "--eps", "nan"],
        ["solve", "--in", "m.symmat", "--k", "2", "--eps", "-1"],
        ["solve", "--in", "m.symmat", "--k", "2", "--eps", "inf"],
        # seeds and counts: numpy rejects a negative seed only once an instance is drawn
        ["gen", "--model", "goe", "--seed", "-1"],
        ["solve", "--in", "m.symmat", "--k", "2", "--seed", "-1"],
        ["z2sync", "--seeds", "-2"],
        ["z2sync", "--seeds", "0,-1"],
        ["sbm", "--base-seed", "-1"],
        ["maxcut", "--d", "5", "--num-seeds", "0"],
        ["z2sync", "--num-seeds", "-2"],
        ["solve", "--in", "m.symmat", "--k", "2", "--pga-iters", "-1"],
        ["ocsdp", "--n", "24", "--d", "3", "--pga-iters", "-1"],
        # 400-digit integers, beyond float range
        ["gen", "--model", "goe", "--n", "1" + "0" * 399],
        ["gen", "--model", "goe", "--n", "-1" + "0" * 399],
        ["solve", "--in", "m.symmat", "--k", "1" + "0" * 399],
        ["maxcut", "--d", "5", "--samples", "1" + "0" * 399],
    ])
    def test_bad_flag_value_exits_2(self, tmp_path, monkeypatch, argv):
        if argv[0] != "solve" and "--n" not in argv:
            argv = argv + ["--n", 20]
        if argv[0] != "solve":
            argv = argv + ["--out", tmp_path / "x.csv"]
        else:  # a readable matrix file, so that only the flag is at fault
            mat = tmp_path / "m.symmat"
            mat.write_text("symmat n 6\n0 1 1\n")
            argv = [mat if a == "m.symmat" else a for a in argv]
        if argv[0] == "sbm" and "--ab" not in argv:
            argv += ["--ab", "12,4"]

        def no_draw(*args, **kwargs):
            raise AssertionError("an instance was drawn before validation")

        for name in ("goe", "spiked", "sbm", "erdos_renyi"):
            monkeypatch.setattr(instances, name, no_draw)
        assert exit_code(argv) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("header, argv", [
        ("symmat n 6", ["--k", 1]),  # k_d = 1 leaves no default epsilon
        ("symmat n 6 blockdim 3", ["--k", 2, "--manifold", "stiefel", "--mode", "pga"]),
    ])
    def test_solve_rejects_a_rank(self, tmp_path, capsys, header, argv):
        mat = tmp_path / "m.symmat"
        mat.write_text(header + "\n0 0 1\n")
        assert run(["solve", "--in", mat] + argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("text, reason", [
        (None, "No such file or directory"),
        ("symmat n 3\n0 1 x\n", "bad symmat line '0 1 x': need 'i j value'"),
        ("symmat n 3\n0 1 2.5\n1 2\n", "bad symmat line '1 2': need 'i j value'"),
        ("symmat n 3\n99999999999999999999 1 2\n",  # an index that overflows int64
         "bad symmat line '99999999999999999999 1 2': need 'i j value'"),
        ("symmat n -3\n", "bad symmat header: n = -3 is negative"),
        ("symmat n 99999999999999999999\n0 1 2\n",
         "bad symmat header: n = 99999999999999999999 exceeds 3037000499"),
    ])
    def test_unreadable_matrix_file_exits_2(self, tmp_path, capsys, text, reason):
        mat = tmp_path / "m.symmat"
        if text is not None:
            mat.write_text(text)
        cfg = tmp_path / "c.config"
        cfg.write_text("config n 3 k 2\n" + "1 0\n" * 3)
        for argv in (["solve", "--in", mat, "--k", 2],
                     ["check", "--in-matrix", mat, "--in-config", cfg]):
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: {mat}: {reason}\n"

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        mat = tmp_path / "m.symmat"
        run(["gen", "--model", "goe", "--n", 6, "--seed", 0, "--out", mat])
        cfg = tmp_path / "missing.config"
        assert run(["check", "--in-matrix", mat, "--in-config", cfg]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: No such file or directory\n"

    @pytest.mark.parametrize("argv", [
        ["--model", "sbm", "--a", "4", "--b", "12"],
        ["--model", "er", "--d", "30"],
        ["--model", "regular", "--d", "3", "--n", "21"],
    ])
    def test_gen_rejects_model_parameters(self, tmp_path, capsys, argv):
        out = tmp_path / "m.symmat"
        assert run(["gen", "--n", 20] + argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # numpy refuses each of these before allocating anything
        ["--model", "goe", "--n", "10000000000"],  # an array too big to describe
        ["--model", "goe", "--n", "100000000"],  # 71 PiB, a MemoryError
        ["--model", "er", "--n", "10000000000"],  # 5e19 pairs overflow int64 indices
    ])
    def test_gen_beyond_memory_exits_2(self, tmp_path, capsys, argv):
        out = tmp_path / "m.symmat"
        assert run(["gen"] + argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: --n ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        # numpy refuses the big array before allocating it: each is beyond a
        # 47-bit address space, so no overcommit setting lets it through
        ["solve", "--in", "{mat}", "--k", "10000000000000"],  # 2.1 PiB of start rows
        # a 40 MB label vector, then a 182 TiB noise matrix
        ["z2sync", "--n", "5000000", "--k", "3", "--lam-grid", "1", "--seeds", "0"],
    ])
    def test_counts_beyond_memory_exit_2(self, tmp_path, capsys, argv):
        mat = tmp_path / "m.symmat"
        run(["gen", "--model", "goe", "--n", 30, "--seed", 0, "--out", mat])
        capsys.readouterr()
        out = tmp_path / "out.csv"
        assert run([a.format(mat=mat) for a in argv] + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: Unable to allocate ")
        assert not out.exists()

    def test_gen_keeps_the_traceback_of_other_errors(self, tmp_path, monkeypatch):
        # only sizes beyond memory are usage errors; a failing generator is not
        def broken(n, seed):
            raise ValueError("a fault in the generator")

        monkeypatch.setattr(instances, "goe", broken)
        with pytest.raises(ValueError, match="a fault in the generator"):
            run(["gen", "--model", "goe", "--n", 10, "--out", tmp_path / "m.symmat"])

    def test_regular_needs_integer_degree(self, tmp_path, capsys):
        out = tmp_path / "r.symmat"
        assert run(["gen", "--model", "regular", "--n", 20, "--d", 3.7, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "config n 4 k 2\n" + "1 0\n" * 4,  # n differs from the matrix's 6
        "occonfig m 1 d 4 k 4\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",  # d = 4 does not divide 6
        "config n 6 k 1\n" + "1\n" * 6,  # k_d = 1: the bound is void
        "config n 6 k 2\n" + "1 0\n" * 6,  # a good config, with --eps out of range
    ])
    def test_check_rejects_a_config_before_estimating(self, tmp_path, capsys, monkeypatch, text):
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "c.config"
        run(["gen", "--model", "goe", "--n", 6, "--seed", 0, "--out", mat])
        cfg.write_text(text)

        def no_estimate(*args, **kwargs):
            raise AssertionError("the estimate ran before validation")

        monkeypatch.setattr(analysis, "estimate_sdp", no_estimate)
        argv = ["check", "--in-matrix", mat, "--in-config", cfg]
        if text.startswith("config n 6 k 2"):
            for flag, kind, value in [("--eps", "float", "-1"), ("--eps", "float", "nan"),
                                      ("--eps", "float", "inf"), ("--pga-iters", "int", "-1"),
                                      ("--seed", "int", "-1")]:
                assert exit_code(argv + [flag, value]) == 2
                assert (f"error: argument {flag}: invalid nonnegative {kind} value: '{value}'"
                        in capsys.readouterr().err)
            return
        for eps in ([], ["--eps", 0.1]):
            assert run(argv + eps) == 2
            assert capsys.readouterr().err.startswith("error: ")
