import numpy as np
import pytest

from lowranksdp.cli import main
from lowranksdp.symmat import load_symmat


def run(argv):
    return main([str(a) for a in argv])


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
        assert lines[0] == "iteration,f,grad_norm,kind,step,lam_h"
        assert lines[-1].startswith("# mode=")
        assert cfg.read_text().startswith("config n 30 k 3")

    def test_strict_nonconvergence_exit_3(self, tmp_path):
        mat = tmp_path / "m.symmat"
        run(["gen", "--model", "goe", "--n", 40, "--seed", 2, "--out", mat])
        code = run(["solve", "--in", mat, "--k", 3, "--seed", 1, "--strict",
                    "--eps", "1e-9", "--budget", "2", "--pga-iters", "50",
                    "--cold-start"])
        assert code == 3

    def test_check_pipeline(self, tmp_path):
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "c.config"
        run(["gen", "--model", "goe", "--n", 24, "--seed", 7, "--out", mat])
        run(["solve", "--in", mat, "--k", 3, "--seed", 0, "--out-config", cfg,
             "--pga-iters", 800])
        out = tmp_path / "check.csv"
        assert run(["check", "--in-matrix", mat, "--in-config", cfg,
                    "--pga-iters", 500, "--out", out]) == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("model,n,k,seed,eps,f,sdp_est")

    @pytest.mark.parametrize("text", ["", "configuration n 2 k 2\n1 0\n0 1\n"])
    def test_check_bad_config_is_usage_error(self, tmp_path, capsys, text):
        mat = tmp_path / "m.symmat"
        cfg = tmp_path / "c.config"
        run(["gen", "--model", "goe", "--n", 2, "--seed", 0, "--out", mat])
        cfg.write_text(text)
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
                    "--pga-iters", 200, "--stride", 100, "--power-iters", 50,
                    "--out", out]) == 0
        assert out.exists() and (tmp_path / "land.csv.final.csv").exists()
        header = out.read_text().splitlines()[0]
        assert header == "model,n,k,seed,iter,curvature,gap_2_over_n,f,grad_norm"

    def test_landscape_desk_guard(self, tmp_path):
        assert run(["landscape", "--n", 5000, "--k-grid", "2", "--seeds", "0",
                    "--out", tmp_path / "x.csv"]) == 2

    def test_ocsdp_sweep(self, tmp_path):
        out = tmp_path / "oc.csv"
        assert run(["ocsdp", "--n", 24, "--d", 3, "--k-grid", "6",
                    "--seeds", "0", "--pga-iters", 300, "--out", out]) == 0
        rows = out.read_text().splitlines()
        assert rows[0].split(",")[:5] == ["model", "n", "d", "k", "k_d"]
        assert len(rows) == 2
