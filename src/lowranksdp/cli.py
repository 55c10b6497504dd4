"""Command-line experiment harness.

Subcommands generate instances, run solves, round cuts, sweep parameter
grids, and check the curvature-certificate bound; all results land in CSV
with the full parameter set and seed on every row, so any row can be
re-derived by re-running its command.  Input instance files are never
mutated.

Exit codes: 0 on success, 2 on usage errors, 3 on non-convergence under
``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import analysis, instances, solver, sphere, stiefel
from .solver import MODE_EIGEN_ONLY, MODE_GRADIENT_EIGEN, SolverOptions
from .symmat import SymmetricMatrix, load_symmat, save_symmat

_SOLVER_CHOICES = ("pga", "rtr-a", "rtr-b")
_MODE_BY_FLAG = {"rtr-a": MODE_EIGEN_ONLY, "rtr-b": MODE_GRADIENT_EIGEN}


def _parse_seeds(args) -> list[int]:
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError:
            raise SystemExit(2)
        if not seeds:
            raise SystemExit(2)
        return seeds
    return [args.base_seed + i for i in range(args.num_seeds)]


def _parse_int_list(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip() != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(s) for s in text.split(",") if s.strip() != ""]


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _maximizer(A, k, solver_kind, seed, *, budget=None, pga_iters=3000,
               pga_step=None, manifold="sphere", epsilon=None, warm=True):
    """Run the chosen solver from a seeded random start; returns a report."""
    if solver_kind == "pga":
        return solver.projected_gradient_ascent(A, solver.random_start(A, k, seed, manifold),
                                                step=pga_step, iters=pga_iters,
                                                record_every=10**9)
    opts = SolverOptions(k=k, mode=_MODE_BY_FLAG[solver_kind], epsilon=epsilon,
                         max_iters=budget, seed=seed, manifold=manifold,
                         max_power_iters=3000)
    sigma0 = solver.warm_start(A, k, seed, manifold=manifold, iters=pga_iters) if warm else None
    return solver.solve(A, opts, sigma0=sigma0)


# -- gen -----------------------------------------------------------------------


def _cmd_gen(args) -> int:
    seed = args.seed
    model = args.model
    ground_truth = None
    meta: dict = {"model": model, "n": args.n, "seed": seed}
    if model == "goe":
        A = instances.goe(args.n, seed)
    elif model == "spiked":
        inst = instances.spiked(args.n, args.lam, seed)
        A, ground_truth = inst.A, inst.ground_truth
        meta["lam"] = args.lam
    elif model == "sbm":
        inst = instances.sbm(args.n, args.a, args.b, seed)
        A, ground_truth = inst.A, inst.ground_truth
        meta.update(a=args.a, b=args.b, snr=instances.sbm_snr(args.a, args.b))
    elif model == "er":
        A = instances.erdos_renyi(args.n, args.d, seed)
        meta["d"] = args.d
    elif model == "regular":
        if args.centered:
            A = instances.centered_regular(args.n, int(args.d), seed)
        else:
            A = instances.random_regular(args.n, int(args.d), seed)
        meta.update(d=int(args.d), centered=bool(args.centered))
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(2)
    save_symmat(A, args.out)
    if ground_truth is not None:
        meta["ground_truth"] = [int(v) for v in ground_truth]
    with open(str(args.out) + ".meta", "w") as fh:
        fh.write(json.dumps(meta) + "\n")
    print(f"wrote {args.out} (n={A.n})")
    return 0


# -- solve ---------------------------------------------------------------------


def _cmd_solve(args) -> int:
    A = load_symmat(args.infile)
    manifold = args.manifold
    if manifold == "stiefel" and A.block_dim is None:
        print("error: stiefel solves need a matrix with a blockdim header", file=sys.stderr)
        return 2
    rep = _maximizer(A, args.k, args.solver, args.seed, budget=args.budget,
                     pga_iters=args.pga_iters, pga_step=args.pga_step,
                     manifold=manifold, epsilon=args.eps, warm=not args.cold_start)
    if args.out:
        rep.trace_csv(args.out)
    if args.out_config:
        stiefel.write_config(rep.sigma, args.out_config)
    print(rep.summary_line())
    if args.strict and not rep.converged:
        return 3
    return 0


# -- check ---------------------------------------------------------------------


def _cmd_check(args) -> int:
    A = load_symmat(args.in_matrix)
    try:
        config = stiefel.read_config(args.in_config)
    except ValueError as exc:
        print(f"error: {args.in_config}: {exc}", file=sys.stderr)
        return 2
    manifold = "sphere" if config.d == 1 else "stiefel"
    if manifold == "stiefel" and A.block_dim != config.d:
        A = A.with_block_dim(config.d)
    eps = args.eps
    if eps is None:
        eps = solver.default_epsilon(A, config.k, manifold) if A.l1_norm() > 0 else 1.0
    est = analysis.estimate_sdp(A, seed=args.seed, manifold=manifold,
                                pga_iters=args.pga_iters)
    holds, slack = analysis.grothendieck_check(A, config, eps, est)
    print(f"holds={holds} slack={slack:.10g} sdp_est={est.value_plus:.10g} "
          f"rg_est={est.rg:.10g} eps={eps:.6g} converged_est={est.converged}")
    if args.out:
        f_val = stiefel.oc_objective(A, config)
        _write_csv(args.out,
                   ["model", "n", "k", "seed", "eps", "f", "sdp_est", "rg_est",
                    "gap", "bound_slack", "holds"],
                   [[ "file", A.n, config.k, args.seed, _fmt(eps), _fmt(f_val),
                      _fmt(est.value_plus), _fmt(est.rg),
                      _fmt(est.value_plus - f_val), _fmt(slack), holds]])
    if args.strict and not (holds and est.converged):
        return 3
    return 0


# -- experiment sweeps -----------------------------------------------------------


def _cmd_z2sync(args) -> int:
    seeds = _parse_seeds(args)
    lams = _parse_float_list(args.lam_grid)
    rows = []
    ok = True
    for lam in lams:
        for idx, seed in enumerate(seeds):
            inst = instances.spiked(args.n, lam, seed)
            rep = _maximizer(inst.A, args.k, args.solver, seed + 1,
                             budget=args.budget, pga_iters=args.pga_iters,
                             pga_step=args.pga_step)
            ok = ok and rep.converged
            corr = analysis.correlation(rep.sigma, inst.ground_truth)
            u_hat = analysis.principal_sign(rep.sigma)
            sign_corr = (float(u_hat @ inst.ground_truth) / args.n) ** 2
            rows.append([ "spiked", args.n, args.k, _fmt(lam), seed, args.solver,
                          _fmt(rep.objective), _fmt(rep.grad_norm), _fmt(corr),
                          _fmt(sign_corr), rep.converged])
    rows.sort(key=lambda r: (float(r[3]), r[4]))
    _write_csv(args.out,
               ["model", "n", "k", "lam", "seed", "solver", "f", "grad_norm",
                "correlation", "sign_correlation", "converged"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0 if (ok or not args.strict) else 3


def _cmd_sbm(args) -> int:
    seeds = _parse_seeds(args)
    pairs = []
    for chunk in args.ab:
        a_s, b_s = chunk.split(",")
        pairs.append((float(a_s), float(b_s)))
    rows = []
    ok = True
    for a, b in pairs:
        for seed in seeds:
            inst = instances.sbm(args.n, a, b, seed)
            rep = _maximizer(inst.A, args.k, args.solver, seed + 1,
                             budget=args.budget, pga_iters=args.pga_iters,
                             pga_step=args.pga_step)
            ok = ok and rep.converged
            corr = analysis.correlation(rep.sigma, inst.ground_truth)
            u_hat = analysis.principal_sign(rep.sigma)
            sign_corr = (float(u_hat @ inst.ground_truth) / args.n) ** 2
            rows.append(["sbm", args.n, args.k, _fmt(a), _fmt(b),
                         _fmt(instances.sbm_snr(a, b)), seed, args.solver,
                         _fmt(rep.objective), _fmt(corr), _fmt(sign_corr),
                         rep.converged])
    rows.sort(key=lambda r: (float(r[3]), float(r[4]), r[6]))
    _write_csv(args.out,
               ["model", "n", "k", "a", "b", "snr", "seed", "solver", "f",
                "correlation", "sign_correlation", "converged"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0 if (ok or not args.strict) else 3


def _cmd_maxcut(args) -> int:
    seeds = _parse_seeds(args)
    k_list = _parse_int_list(args.k_grid)
    rows = []
    ok = True
    high_rank = int(math.ceil(math.sqrt(2.0 * args.n))) + 1
    for seed in seeds:
        A_G = instances.erdos_renyi(args.n, args.d, seed)
        negA = -A_G
        for k, is_high in [(k, False) for k in k_list] + [(high_rank, True)]:
            rep = _maximizer(negA, k, args.solver, seed + 1, budget=args.budget,
                             pga_iters=args.pga_iters, pga_step=args.pga_step)
            ok = ok and rep.converged
            rounded = analysis.gw_round(A_G, rep.sigma, args.samples, seed + 2)
            rows.append(["er", args.n, _fmt(args.d), k, is_high, seed,
                         args.solver, args.samples, _fmt(rep.objective),
                         _fmt(rounded.value), rep.converged])
    rows.sort(key=lambda r: (r[3], r[5]))
    _write_csv(args.out,
               ["model", "n", "d", "k", "high_rank", "seed", "solver",
                "samples", "f", "cut", "converged"], rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0 if (ok or not args.strict) else 3


def _cmd_landscape(args) -> int:
    if args.n > 2000 and not args.force:
        print("error: n > 2000 needs --force (desk-scale guard)", file=sys.stderr)
        return 2
    seeds = _parse_seeds(args)
    k_list = _parse_int_list(args.k_grid)
    traj_rows = []
    final_rows = []
    for seed in seeds:
        A = instances.goe(args.n, seed)
        est = analysis.estimate_sdp(A, seed=seed + 10_000, pga_iters=args.pga_iters)
        l1 = A.l1_norm()
        for k in k_list:
            sigma = sphere.random_config(args.n, k, seed + 1)
            step = args.pga_step if args.pga_step else 1.0 / (20.0 * l1)
            it = 0
            while it < args.pga_iters:
                burst = min(args.stride, args.pga_iters - it)
                rep = solver.projected_gradient_ascent(A, sigma, step=step,
                                                       iters=burst,
                                                       record_every=10**9)
                sigma = rep.sigma
                it += burst
                hess = sphere.HessianOperator(A, sigma)
                u = solver.power_method(hess, 4.0 * l1, args.power_iters, seed + 2)
                lam_est = hess.rayleigh(u)
                gap2n = 2.0 * (est.value_plus - rep.objective) / args.n
                traj_rows.append(["goe", args.n, k, seed, it, _fmt(lam_est),
                                  _fmt(gap2n), _fmt(rep.objective),
                                  _fmt(rep.grad_norm)])
            final_rows.append(["goe", args.n, k, seed,
                               _fmt(est.value_plus - rep.objective),
                               _fmt(est.value_plus), _fmt(est.rg),
                               _fmt(rep.objective)])
    traj_rows.sort(key=lambda r: (r[2], r[3], r[4]))
    final_rows.sort(key=lambda r: (r[2], r[3]))
    _write_csv(args.out, ["model", "n", "k", "seed", "iter", "curvature",
                          "gap_2_over_n", "f", "grad_norm"], traj_rows)
    final_path = str(args.out) + ".final.csv"
    _write_csv(final_path, ["model", "n", "k", "seed", "gap", "sdp_est",
                            "rg_est", "f"], final_rows)
    print(f"wrote {args.out} ({len(traj_rows)} rows) and {final_path} "
          f"({len(final_rows)} rows)")
    return 0


def _cmd_ocsdp(args) -> int:
    seeds = _parse_seeds(args)
    k_list = _parse_int_list(args.k_grid)
    d = args.d
    rows = []
    ok = True
    for seed in seeds:
        A = instances.goe(args.n, seed).with_block_dim(d)
        est = analysis.estimate_sdp(A, seed=seed + 10_000, manifold="stiefel",
                                    pga_iters=args.pga_iters)
        for k in k_list:
            rep = _maximizer(A, k, args.solver, seed + 1, budget=args.budget,
                             pga_iters=args.pga_iters, pga_step=args.pga_step,
                             manifold="stiefel")
            ok = ok and rep.converged
            k_d = solver.effective_rank(k, d)
            eps = rep.epsilon if not math.isnan(rep.epsilon) else \
                solver.default_epsilon(A, k, "stiefel")
            holds, slack = analysis.grothendieck_check(A, rep.sigma, eps, est)
            rows.append(["goe-oc", args.n, d, k, _fmt(k_d), seed, args.solver,
                         _fmt(rep.objective), _fmt(est.value_plus), _fmt(est.rg),
                         _fmt(est.value_plus - rep.objective), _fmt(slack),
                         holds, rep.converged])
    rows.sort(key=lambda r: (r[3], r[5]))
    _write_csv(args.out,
               ["model", "n", "d", "k", "k_d", "seed", "solver", "f",
                "sdp_est", "rg_est", "gap", "bound_slack", "holds", "converged"],
               rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0 if (ok or not args.strict) else 3


# -- parser ---------------------------------------------------------------------


def _add_seed_flags(p) -> None:
    p.add_argument("--seeds", help="comma-separated seed list")
    p.add_argument("--base-seed", type=int, default=0)
    p.add_argument("--num-seeds", type=int, default=1)


def _add_solver_flags(p, default_pga_iters=3000) -> None:
    p.add_argument("--solver", choices=_SOLVER_CHOICES, default="pga")
    p.add_argument("--budget", type=int, default=20_000,
                   help="iteration cap for rtr modes")
    p.add_argument("--pga-iters", type=int, default=default_pga_iters)
    p.add_argument("--pga-step", type=float, default=None,
                   help="fixed ascent step (default 1/(20 l1-norm))")
    p.add_argument("--strict", action="store_true",
                   help="exit 3 when any run fails to converge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowranksdp",
        description="Low-rank SDP solver and experiment harness (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--model", choices=("goe", "spiked", "sbm", "er", "regular"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--a", type=float, default=10.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--d", type=float, default=10.0)
    p.add_argument("--centered", action="store_true",
                   help="center the regular-graph adjacency")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--mode", dest="solver", choices=_SOLVER_CHOICES, default="rtr-b")
    p.add_argument("--manifold", choices=("sphere", "stiefel"), default="sphere")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=20_000)
    p.add_argument("--pga-iters", type=int, default=3000)
    p.add_argument("--pga-step", type=float, default=None)
    p.add_argument("--cold-start", action="store_true",
                   help="skip the gradient-ascent warm start")
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--out-config", help="write the final configuration")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run the certificate bound check")
    p.add_argument("--in-matrix", required=True)
    p.add_argument("--in-config", required=True)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pga-iters", type=int, default=2000)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("z2sync", help="correlation sweep on the spiked model")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--lam-grid", default="0.5,0.75,1.5,2")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_z2sync)

    p = sub.add_parser("sbm", help="correlation sweep on the block model")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k", type=int, default=8)
    p.add_argument("--ab", action="append", required=True,
                   help="a,b pair; repeatable")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sbm)

    p = sub.add_parser("maxcut", help="cut values from rounded maximizers")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--d", type=float, default=50.0)
    p.add_argument("--k-grid", default="2,3,4,5,6,7,8,9,10")
    p.add_argument("--samples", type=int, default=100)
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_maxcut)

    p = sub.add_parser("landscape", help="curvature-vs-gap trajectory data")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--k-grid", default="2,3,4,5,6,7,8,9,10")
    p.add_argument("--stride", type=int, default=50)
    p.add_argument("--power-iters", type=int, default=200)
    p.add_argument("--force", action="store_true")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("ocsdp", help="orthogonal-cut gap sweep")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k-grid", default="6,9,12,15")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ocsdp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
