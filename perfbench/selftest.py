"""Tests of the benchmark harness itself, at toy sizes.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/selftest.py

Every workload runs end to end in a few seconds, traced and untraced, and
every correctness check is shown to fail on a perturbed output.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lowranksdp import cli, sphere, stiefel, symmat  # noqa: E402

TOY_N = {"goe-certify": 60, "goe-sdp-estimate": 50, "er-maxcut": 300,
         "stiefel-trust-region": 30}


def _toy(name):
    wl = type(workloads.WORKLOADS[name])()
    wl.n = TOY_N[name]
    return wl


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One toy instance per workload, set up and solved once: (workload, inst, out)."""
    workdir = str(tmp_path_factory.mktemp("toy"))
    cases = {}
    for name in TOY_N:
        wl = _toy(name)
        inst = wl.setup(7, 0, workdir)
        cases[name] = (wl, inst, wl.solve(inst))
    return cases


# -- end to end -------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(TOY_N))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_clean_at_toy_size(name, trace, monkeypatch):
    monkeypatch.setattr(workloads.WORKLOADS[name], "n", TOY_N[name])
    result = run.run(name, seed=3, seconds=0.01, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS[name].round_size * result["rounds"]
    metrics = result["metrics"]
    if trace:
        # the layers' self times and the benchmark's glue account for the traced solve
        self_total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS + ("bench",))
        assert self_total == pytest.approx(metrics["trace.solve_s"], rel=1e-9)
        assert metrics["symmat.dot_calls"] > 0
    else:
        assert all(metrics[key] > 0 for key in ("setup_s", "solve_s", "matvecs", "peak_rss_mb",
                                                "objective_per_n"))


def test_matvecs_count_every_product(monkeypatch):
    name = "stiefel-trust-region"
    monkeypatch.setattr(workloads.WORKLOADS[name], "n", TOY_N[name])
    untraced = run.run(name, seed=4, seconds=0.01, trace=False)
    traced = run.run(name, seed=4, seconds=0.01, trace=True)
    assert untraced["metrics"]["matvecs"] > 0
    # one round: the traced mean over the round's instances vs the untraced median
    assert traced["metrics"]["symmat.dot_calls"] == pytest.approx(
        untraced["metrics"]["matvecs"], rel=0.2)


def test_exits_nonzero_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "er-maxcut",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


# -- tracer ------------------------------------------------------------------------------


def test_tracer_rebinds_imported_names_and_restores_them():
    original = symmat.load_symmat
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_symmat is symmat.load_symmat is not original
        assert symmat.SymmetricMatrix.dot.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert cli.load_symmat is symmat.load_symmat is original
    assert not hasattr(symmat.SymmetricMatrix.dot, "__wrapped__")


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    outer = tracer.open("bench.solve")
    inner = tracer.open("symmat.x")
    tracer.close(inner)
    tracer.close(outer)
    metrics = tracing.layer_metrics(tracer)
    inner_time = tracer.end[inner] - tracer.start[inner]
    outer_time = tracer.end[outer] - tracer.start[outer]
    assert metrics["symmat.self_s"] == pytest.approx(inner_time)
    assert metrics["bench.self_s"] == pytest.approx(outer_time - inner_time)


# -- every check fails on a perturbed output ------------------------------------------------


def _fails(wl, inst, out) -> bool:
    return bool(wl.check(inst, out).failures)


def test_unperturbed_outputs_pass(solved):
    for wl, inst, out in solved.values():
        assert wl.check(inst, out).failures == []


def _with_summary(text, **fields):
    out = []
    for tok in text.split():
        key = tok.split("=", 1)[0]
        out.append(f"{key}={fields[key]}" if key in fields else tok)
    return " ".join(out)


def test_goe_certify_checks(solved, tmp_path):
    wl, inst, (rc, text) = solved["goe-certify"]
    rep = workloads.parse_summary(text)
    assert _fails(wl, inst, (3, text))
    assert _fails(wl, inst, (rc, _with_summary(text, converged="False")))
    assert _fails(wl, inst, (rc, _with_summary(text, f=repr(rep["f"] * 1.001))))
    assert _fails(wl, inst, (rc, _with_summary(text, eps="-1")))
    rows = checks.read_config(inst["config"])
    bad = dict(inst, config=str(tmp_path / "bad.config"))
    np.savetxt(bad["config"], rows * 1.01, header=f"config n {rows.shape[0]} k {rows.shape[1]}",
               comments="")
    assert _fails(wl, bad, (rc, text))


def test_goe_sdp_estimate_checks(solved):
    wl, inst, est = solved["goe-sdp-estimate"]
    n = wl.n
    assert _fails(wl, inst, dataclasses.replace(est, converged_minus=False))
    # above the dual bound, and too far below it
    assert _fails(wl, inst, dataclasses.replace(est, value_plus=est.value_plus + 0.05 * n))
    assert _fails(wl, inst, dataclasses.replace(est, value_minus=est.value_minus - 0.05 * n))
    # a point whose objective is not the reported estimate
    other = sphere.random_config(n, est.point_plus.k, 0)
    assert _fails(wl, inst, dataclasses.replace(est, point_plus=other))
    # the bracket alone: weak duality, then tightness
    dense = inst["A"].to_dense()
    upper = checks.dual_bound(dense, est.point_plus.rows)
    l1 = float(np.abs(dense).sum(axis=0).max())
    assert checks.check_sdp_bracket(est.value_plus, upper, n, l1) == []
    assert checks.check_sdp_bracket(upper + 1e-3, upper, n, l1)
    assert checks.check_sdp_bracket(upper - 0.02 * n, upper, n, l1)


def test_er_maxcut_checks(solved):
    wl, inst, (rep, rnd) = solved["er-maxcut"]
    assert _fails(wl, inst, (dataclasses.replace(rep, converged=False), rnd))
    assert _fails(wl, inst, (dataclasses.replace(rep, objective=rep.objective * 1.001), rnd))
    assert _fails(wl, inst, (dataclasses.replace(rep, epsilon=-1.0), rnd))
    flipped = rnd.labels.copy()
    flipped[0] = -flipped[0]
    assert _fails(wl, inst, (rep, dataclasses.replace(rnd, labels=flipped)))
    assert _fails(wl, inst, (rep, dataclasses.replace(rnd, value=rnd.value + 1.0)))
    # the cut checks one by one: recount, dual upper bound, GW lower bound
    A_G, (ei, ej, _) = checks.read_symmat(inst["path"], sparse=True)
    rows, lam = rep.sigma.rows, checks.lam_max(-A_G)
    upper = (2.0 * ei.size + wl.n * lam) / 4.0
    assert checks.check_cut(rnd.labels, rnd.value, ei, ej, rows, lam) == []
    assert any("dual bound" in f for f in
               checks.check_cut(rnd.labels, upper + 1.0, ei, ej, rows, lam))
    uncut = np.ones(wl.n)
    assert any("GW bound" in f for f in checks.check_cut(uncut, 0.0, ei, ej, rows, lam))


def test_stiefel_checks(solved):
    wl, inst, rep = solved["stiefel-trust-region"]
    assert _fails(wl, inst, dataclasses.replace(rep, converged=False))
    assert _fails(wl, inst, dataclasses.replace(rep, objective=rep.objective + 0.5 * wl.n))
    skewed = rep.sigma.rows.copy()
    skewed[0] *= 1.01
    bad_rows = type("Rows", (), {"rows": skewed})()
    assert _fails(wl, inst, dataclasses.replace(rep, sigma=bad_rows))
    # a random point: orthonormal and consistent, but far from stationary
    A = inst["A"]
    start = stiefel.oc_random_config(A.num_blocks, wl.d, wl.k, 1)
    f0 = float(np.sum(start.rows * (A.to_dense() @ start.rows)))
    assert _fails(wl, inst, dataclasses.replace(rep, sigma=start, objective=f0))
    dense = A.to_dense()
    assert checks.block_gradient_norm(dense, start.rows, wl.d) > np.abs(
        np.linalg.eigvalsh(dense)).max()
    # the block dual bound alone, against an objective above it
    upper = checks.block_dual_bound(dense, rep.sigma.rows, wl.d)
    assert checks.check_at_most("bound", upper + 1.0, upper, 1e-9 * wl.n)


def test_er_maxcut_uses_the_cli_solve_defaults():
    # er-maxcut reproduces the warm start of ``lowranksdp solve``
    args = cli.build_parser().parse_args(["solve", "--in", "x", "--k", "8"])
    assert (args.budget, args.pga_iters) == (workloads.ErMaxcut.budget, workloads.ErMaxcut.pga_iters)
