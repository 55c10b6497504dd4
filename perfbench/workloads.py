"""The four benchmark workloads: set-up, the timed solve, and its checks.

Every operation is one seeded instance taken from matrix to checked result.
``setup`` draws the instance (and writes its file where the workload reads
one); ``solve`` is the part a user waits for, from the matrix to the result
the user reads; ``check`` verifies the result with :mod:`checks` and returns
the failures plus the values the end-to-end metrics report.  Library calls go
through module attributes (``cli.main``, ``solver.solve``) so the tracer's
wrappers are used when it is installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from lowranksdp import analysis, cli, instances, solver, sphere, symmat

import checks

def instance_seed(seed: int, i: int) -> int:
    """Seed of the i-th instance of a run; distinct runs share no instance."""
    return 1000 * seed + i


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def parse_summary(text: str) -> dict:
    """Fields of the ``mode=... converged=... f=... cert=... eps=...`` line."""
    line = next(ln for ln in text.splitlines() if ln.startswith("mode="))
    fields = dict(tok.split("=", 1) for tok in line.split() if "=" in tok)
    return {"converged": fields["converged"] == "True", "f": float(fields["f"]),
            "cert": float(fields["cert"]), "eps": float(fields["eps"])}


@dataclass
class Result:
    """What ``check`` found: failure messages and the reported values."""

    failures: list
    objective_per_n: float = math.nan
    sdp_gap_per_n: float = math.nan
    cut_fraction: float = 0.0
    cert_shortfall: float = 0.0


class Workload:
    """Defaults shared by the workloads: a dense matrix and nothing to clean up.

    The sizes ``n`` keep one operation at 0.5-3 s on one core, so a 25 s run
    repeats each round of instances at least twice.
    """

    n: int
    round_size = 3  # distinct instances per round

    def nnz(self, inst: dict) -> int:
        return self.n * self.n

    def cleanup(self, inst: dict) -> None:
        pass


class GoeCertify(Workload):
    """``lowranksdp gen --model goe`` then ``lowranksdp solve --k 6 --mode rtr-b``."""

    name = "goe-certify"
    n = 500
    k = 6

    def setup(self, seed: int, i: int, workdir: str) -> dict:
        s = instance_seed(seed, i)
        path = os.path.join(workdir, f"goe-{s}.symmat")
        rc, _ = _run_cli(["gen", "--model", "goe", "--n", str(self.n), "--seed", str(s),
                          "--out", path])
        if rc != 0:
            raise RuntimeError(f"gen exited {rc}")
        return {"seed": s, "path": path, "config": path + ".config"}

    def solve(self, inst: dict):
        return _run_cli(["solve", "--in", inst["path"], "--k", str(self.k), "--mode", "rtr-b",
                         "--seed", str(inst["seed"]), "--out-config", inst["config"]])

    def fingerprint(self, inst: dict, out) -> str:
        with open(inst["config"], "rb") as fh:
            return _digest(np.frombuffer(out[1].encode(), np.uint8),
                           np.frombuffer(fh.read(), np.uint8))

    def check(self, inst: dict, out) -> Result:
        rc, text = out
        if rc != 0:
            return Result([f"solve exited {rc}"])
        rep = parse_summary(text)
        A, _ = checks.read_symmat(inst["path"])
        rows = checks.read_config(inst["config"])
        fails = checks.check_unit_rows(rows)
        if fails:  # the tangent-space operator is defined only at unit rows
            return Result(fails)
        top = checks.top_tangent_curvature(A, rows)
        fails += [] if rep["converged"] else ["report is not converged"]
        fails += checks.check_close("objective", checks.objective(A, rows), rep["f"], 1e-9)
        fails += checks.check_curvature(top, rep["eps"])
        return Result(fails, objective_per_n=rep["f"] / self.n,
                      sdp_gap_per_n=(checks.dual_bound(A, rows) - rep["f"]) / self.n,
                      cert_shortfall=top - rep["cert"])

    def cleanup(self, inst: dict) -> None:
        for path in (inst["path"], inst["path"] + ".meta", inst["config"]):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


class GoeSdpEstimate(Workload):
    """``estimate_sdp(goe(n, s))`` at the default rank ceil(sqrt(2n)) + 1, both signs."""

    name = "goe-sdp-estimate"
    n = 300

    def setup(self, seed: int, i: int, workdir: str) -> dict:
        s = instance_seed(seed, i)
        return {"seed": s, "A": instances.goe(self.n, s)}

    def solve(self, inst: dict):
        return analysis.estimate_sdp(inst["A"], seed=inst["seed"])

    def fingerprint(self, inst: dict, est) -> str:
        return _digest(np.array([est.value_plus, est.value_minus]),
                       est.point_plus.rows, est.point_minus.rows)

    def check(self, inst: dict, est) -> Result:
        A = inst["A"].to_dense()
        l1 = float(np.abs(A).sum(axis=0).max())
        fails = [] if est.converged else ["estimate is not converged"]
        gaps = []
        for sign, value, point in ((1.0, est.value_plus, est.point_plus),
                                   (-1.0, est.value_minus, est.point_minus)):
            B = sign * A
            upper = checks.dual_bound(B, point.rows)
            fails += checks.check_unit_rows(point.rows)
            fails += checks.check_close("estimate", checks.objective(B, point.rows), value, 1e-9)
            fails += checks.check_sdp_bracket(value, upper, self.n, l1)
            gaps.append((upper - value) / self.n)
        return Result(fails, objective_per_n=est.value_plus / self.n,
                      sdp_gap_per_n=float(np.mean(gaps)))


class ErMaxcut(Workload):
    """Erdos-Renyi graph through the file format, warm-started solve on -A_G, GW rounding."""

    name = "er-maxcut"
    n = 2000
    degree = 10.0
    k = 8
    pga_iters = 3000
    budget = 20_000
    hyperplanes = 100

    def setup(self, seed: int, i: int, workdir: str) -> dict:
        s = instance_seed(seed, i)
        path = os.path.join(workdir, f"er-{s}.symmat")
        symmat.save_symmat(instances.erdos_renyi(self.n, self.degree, s), path)
        return {"seed": s, "path": path}

    def nnz(self, inst: dict) -> int:
        with open(inst["path"]) as fh:
            return 2 * (sum(1 for _ in fh) - 1)  # one line per edge after the header

    def solve(self, inst: dict):
        # the warm-start-then-certify pipeline of ``lowranksdp solve``, with
        # its default gradient-ascent length, budget and power-iteration cap
        s = inst["seed"]
        A_G = symmat.load_symmat(inst["path"])
        neg = -A_G
        l1 = neg.l1_norm()
        warm = solver.projected_gradient_ascent(
            neg, sphere.random_config(self.n, self.k, s), step=1.0 / (4.0 * l1),
            iters=self.pga_iters, grad_tol=1e-3 * l1, record_every=10**9)
        opts = solver.SolverOptions(k=self.k, mode=solver.MODE_GRADIENT_EIGEN, max_iters=self.budget,
                                    seed=s, max_power_iters=3000)
        rep = solver.solve(neg, opts, sigma0=warm.sigma)
        return rep, analysis.gw_round(A_G, rep.sigma, self.hyperplanes, s + 1)

    def fingerprint(self, inst: dict, out) -> str:
        rep, rnd = out
        return _digest(np.array([rep.objective, rnd.value]), rep.sigma.rows, rnd.labels)

    def check(self, inst: dict, out) -> Result:
        rep, rnd = out
        A_G, (ei, ej, _) = checks.read_symmat(inst["path"], sparse=True)
        neg = -A_G
        rows = rep.sigma.rows
        top = checks.top_tangent_curvature(neg, rows)
        fails = [] if rep.converged else ["report is not converged"]
        fails += checks.check_close("objective", checks.objective(neg, rows), rep.objective, 1e-9)
        fails += checks.check_cut(rnd.labels, rnd.value, ei, ej, rows, checks.lam_max(neg))
        fails += checks.check_curvature(top, rep.epsilon)
        return Result(fails, objective_per_n=rep.objective / self.n,
                      sdp_gap_per_n=(checks.dual_bound(neg, rows) - rep.objective) / self.n,
                      cut_fraction=rnd.value / ei.size, cert_shortfall=top - rep.curvature_cert)

    def cleanup(self, inst: dict) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(inst["path"])


class StiefelTrustRegion(Workload):
    """``solve`` on goe(n) viewed with 3 x 3 blocks at k = 9, from a cold start."""

    name = "stiefel-trust-region"
    n = 90
    d = 3
    # the cold-start step count varies most between instances, so a round
    # holds more of them
    round_size = 10
    k = 9

    def setup(self, seed: int, i: int, workdir: str) -> dict:
        s = instance_seed(seed, i)
        return {"seed": s, "A": instances.goe(self.n, s).with_block_dim(self.d)}

    def solve(self, inst: dict):
        opts = solver.SolverOptions(k=self.k, manifold="stiefel", seed=inst["seed"])
        return solver.solve(inst["A"], opts)

    def fingerprint(self, inst: dict, rep) -> str:
        return _digest(np.array([rep.objective]), rep.sigma.rows)

    def check(self, inst: dict, rep) -> Result:
        A = inst["A"].to_dense()
        rows = rep.sigma.rows
        upper = checks.block_dual_bound(A, rows, self.d)
        opnorm = float(np.abs(np.linalg.eigvalsh(A)).max())
        fails = [] if rep.converged else ["report is not converged"]
        fails += checks.check_orthonormal_blocks(rows, self.d)
        fails += checks.check_close("objective", checks.objective(A, rows), rep.objective, 1e-9)
        fails += checks.check_at_most("objective vs block dual bound", rep.objective, upper,
                                      1e-9 * self.n)
        fails += checks.check_at_most("gradient norm vs ||A||_2",
                                      checks.block_gradient_norm(A, rows, self.d), opnorm)
        return Result(fails, objective_per_n=rep.objective / self.n,
                      sdp_gap_per_n=(upper - rep.objective) / self.n)


WORKLOADS = {w.name: w for w in (GoeCertify(), GoeSdpEstimate(), ErMaxcut(), StiefelTrustRegion())}
