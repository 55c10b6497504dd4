"""Command-line experiment harness.

Subcommands generate instances, run solves, round cuts, sweep parameter
grids, and check the curvature-certificate bound; all results land in CSV
with the full parameter set and seed on every row, so any row can be
re-derived by re-running its command.  Input instance files are never
mutated.

Exit codes: 0 on success, 2 on usage errors (a count whose arrays numpy
cannot allocate and a matrix whose products overflow included), 3 on
non-convergence under ``--strict``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import analysis, instances, solver, sphere, stiefel
from .solver import MODE_EIGEN_ONLY, MODE_GRADIENT_EIGEN, SolverOptions
from .symmat import load_symmat, save_symmat

_SOLVER_CHOICES = ("pga", "rtr-a", "rtr-b")
_MODE_BY_FLAG = {"rtr-a": MODE_EIGEN_ONLY, "rtr-b": MODE_GRADIENT_EIGEN}


# -- argument checks: a malformed or out-of-range value is a usage error (exit 2) ----


class _UsageError(Exception):
    """A flag value the command cannot run with; ``main`` reports it and exits 2."""


def _list_of(convert, size=None):
    """Argument type: a nonempty comma-separated list of ``convert`` values.

    A ``size``, when given, is the exact length.  argparse reports the
    ValueError with this type's name.
    """
    def parse(text: str) -> list:
        items = [convert(s) for s in text.split(",") if s.strip() != ""]
        if not items or size not in (None, len(items)):
            raise ValueError(text)
        return items
    parse.__name__ = f"{convert.__name__} list"
    return parse


def _positive(convert, zero_ok=False):
    """Argument type: a ``convert`` value above zero (or at least zero) within float range."""
    def parse(text: str):
        value = convert(text)
        # fails on nan, inf and an int beyond float range, where math.isfinite would overflow
        if not (abs(value) <= sys.float_info.max and (value > 0 or zero_ok and value == 0)):
            raise ValueError(text)
        return value
    parse.__name__ = f"{'nonnegative' if zero_ok else 'positive'} {convert.__name__}"
    return parse


_nonnegative_int = _positive(int, zero_ok=True)


def _check_ranks(ks, d=1, certified=True) -> None:
    """Reject ranks below the block size ``d`` and, when ``certified`` (the default
    epsilon is needed), ranks with ``k_d = 2k/(d+1) <= 1``."""
    for k in ks:
        if k < d or (certified and solver.effective_rank(k, d) <= 1.0):
            raise _UsageError(f"rank {k} needs k >= d = {d}"
                              + (" and k_d = 2k/(d+1) > 1" if certified else ""))


def _check_sbm(n, ab_pairs) -> None:
    """Reject an odd ``n`` and ``(a, b)`` pairs outside ``0 <= b <= a <= n``, ``a > 0``."""
    if n % 2:
        raise _UsageError(f"the block model needs an even n, not {n}")
    for a, b in ab_pairs:
        if not 0 <= b <= a <= n or a == 0:
            raise _UsageError(f"a = {a:g}, b = {b:g}: the block model needs "
                              f"0 <= b <= a <= n = {n} and a > 0")


def _check_er(n, d) -> None:
    if not 0 < d < n:
        raise _UsageError(f"--d {d:g}: an Erdos-Renyi graph needs 0 < d < n = {n}")


def _seeds(args) -> list[int]:
    return args.seeds or [args.base_seed + i for i in range(args.num_seeds)]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(path, rows, sort_by=()) -> None:
    """Write dict rows, sorted by the ``sort_by`` columns, under a header of their keys."""
    rows = sorted(rows, key=lambda row: tuple(row[col] for col in sort_by))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([_fmt(value) for value in row.values()] for row in rows)


def _write_sweep(path, rows, sort_by, strict=False) -> int:
    """Write a sweep's rows; the exit code is 3 under ``strict`` when a row has not converged."""
    _write_csv(path, rows, sort_by)
    print(f"wrote {path} ({len(rows)} rows)")
    return 3 if strict and not all(row["converged"] for row in rows) else 0


def _maximizer(A, k, seed, args, *, manifold="sphere", epsilon=None):
    """Run ``args.solver`` with the other solver flags of ``args`` from ``seed``'s start."""
    if args.solver == "pga":
        return solver.projected_gradient_ascent(A, solver.random_start(A, k, seed, manifold),
                                                step=args.pga_step, iters=args.pga_iters,
                                                record_every=10**9)
    opts = SolverOptions(k=k, mode=_MODE_BY_FLAG[args.solver], epsilon=epsilon,
                         max_iters=args.budget, seed=seed, manifold=manifold,
                         max_power_iters=3000)
    return solver.solve(A, opts, warm_iters=args.pga_iters)


def _recovery(inst, seed, args):
    """The report of a planted instance's solve and its two squared label overlaps, by column."""
    rep = _maximizer(inst.A, args.k, seed + 1, args)
    sign = analysis.principal_sign(rep.sigma)
    return rep, {"correlation": analysis.correlation(rep.sigma, inst.ground_truth),
                 "sign_correlation": (float(sign @ inst.ground_truth) / args.n) ** 2}


def _bound(A, sigma, f, eps, est, **more) -> dict:
    """The certificate-bound columns of a configuration ``sigma`` with objective ``f``,
    then the ``more`` columns, then the upper end of SDP(A): last, so no older column moves."""
    holds, slack = analysis.grothendieck_check(A, sigma, eps, est)
    return {"f": f, "sdp_est": est.value_plus, "rg_est": est.rg,
            "gap": est.value_plus - f, "bound_slack": slack, "holds": holds, **more,
            "sdp_upper": est.upper_plus}


# -- gen -----------------------------------------------------------------------


def _draw(args, meta: dict):
    """``gen``'s matrix and planted labels (or None); adds the model's parameters to ``meta``."""
    seed = args.seed
    model = args.model
    if model == "goe":
        return instances.goe(args.n, seed), None
    if model == "spiked":
        meta["lam"] = args.lam
        inst = instances.spiked(args.n, args.lam, seed)
        return inst.A, inst.ground_truth
    if model == "sbm":
        _check_sbm(args.n, [(args.a, args.b)])
        meta.update(a=args.a, b=args.b, snr=instances.sbm_snr(args.a, args.b))
        inst = instances.sbm(args.n, args.a, args.b, seed)
        return inst.A, inst.ground_truth
    if model == "er":
        _check_er(args.n, args.d)
        meta["d"] = args.d
        return instances.erdos_renyi(args.n, args.d, seed), None
    if model == "regular":
        if not (args.d.is_integer() and 0 <= args.d < args.n and args.n * args.d % 2 == 0):
            raise _UsageError(f"--d {args.d:g}: a regular graph needs an integer degree "
                              f"0 <= d < n = {args.n} with n d even")
        d = int(args.d)
        meta.update(d=d, centered=bool(args.centered))
        if args.centered:
            return instances.centered_regular(args.n, d, seed), None
        return instances.random_regular(args.n, d, seed), None
    raise SystemExit(2)  # pragma: no cover - argparse restricts choices


def _cmd_gen(args) -> int:
    meta: dict = {"model": args.model, "n": args.n, "seed": args.seed}
    try:
        A, ground_truth = _draw(args, meta)
    except (MemoryError, instances.SizeError) as exc:  # a size numpy cannot allocate or index
        raise _UsageError(f"--n {args.n}: {exc}") from exc
    save_symmat(A, args.out)
    if ground_truth is not None:
        meta["ground_truth"] = [int(v) for v in ground_truth]
    with open(str(args.out) + ".meta", "w") as fh:
        fh.write(json.dumps(meta) + "\n")
    print(f"wrote {args.out} (n={A.n})")
    return 0


# -- solve ---------------------------------------------------------------------


def _read(read, path):
    """``read(path)``; a file that cannot be opened or parsed is a usage error."""
    try:
        return read(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"{path}: {exc.strerror if isinstance(exc, OSError) else exc}") from exc


def _cmd_solve(args) -> int:
    A = _read(load_symmat, args.infile)
    manifold = args.manifold
    if manifold == "stiefel" and A.block_dim is None:
        raise _UsageError("stiefel solves need a matrix with a blockdim header")
    _check_ranks([args.k], solver._block_size(A, manifold),
                 certified=args.solver != "pga" and args.eps is None)
    rep = _maximizer(A, args.k, args.seed, args, manifold=manifold, epsilon=args.eps)
    if args.out:
        rep.trace_csv(args.out)
    if args.out_config:
        stiefel.write_config(rep.sigma, args.out_config)
    print(rep.summary_line())
    return 3 if args.strict and not rep.converged else 0


# -- check ---------------------------------------------------------------------


def _cmd_check(args) -> int:
    A = _read(load_symmat, args.in_matrix)
    config = _read(stiefel.read_config, args.in_config)
    # n = m d, so a matching n also means that the block size divides it
    if config.n != A.n or solver.effective_rank(config.k, config.d) <= 1.0:
        raise _UsageError(f"{args.in_config}: needs n = {A.n} rows in d x k blocks with "
                          f"k_d = 2k/(d+1) > 1; has n = {config.n}, d = {config.d}, "
                          f"k = {config.k}")
    manifold = solver._manifold_of(config)
    if manifold == "stiefel" and A.block_dim != config.d:
        A = A.with_block_dim(config.d)
    eps = args.eps if args.eps is not None else solver.default_epsilon(A, config.k, manifold)
    est = analysis.estimate_sdp(A, seed=args.seed, manifold=manifold,
                                pga_iters=args.pga_iters)
    row = {"model": "file", "n": A.n, "k": config.k, "seed": args.seed, "eps": eps,
           **_bound(A, config, stiefel.oc_objective(A, config), eps, est)}
    print(f"holds={row['holds']} slack={row['bound_slack']:.10g} sdp_est={est.value_plus:.10g} "
          f"rg_est={est.rg:.10g} eps={eps:.6g} converged_est={est.converged} "
          f"sdp_upper={est.upper_plus:.10g}")
    if args.out:
        _write_csv(args.out, [row])
    return 3 if args.strict and not (row["holds"] and est.converged) else 0


# -- experiment sweeps -----------------------------------------------------------


def _cmd_z2sync(args) -> int:
    _check_ranks([args.k], certified=args.solver != "pga")
    rows = []
    for lam in args.lam_grid:
        for seed in _seeds(args):
            rep, overlaps = _recovery(instances.spiked(args.n, lam, seed), seed, args)
            rows.append({"model": "spiked", "n": args.n, "k": args.k, "lam": lam, "seed": seed,
                         "solver": args.solver, "f": rep.objective, "grad_norm": rep.grad_norm,
                         **overlaps, "converged": rep.converged})
    return _write_sweep(args.out, rows, ("lam", "seed"), args.strict)


def _cmd_sbm(args) -> int:
    _check_sbm(args.n, args.ab)
    _check_ranks([args.k], certified=args.solver != "pga")
    rows = []
    for a, b in args.ab:
        for seed in _seeds(args):
            rep, overlaps = _recovery(instances.sbm(args.n, a, b, seed), seed, args)
            rows.append({"model": "sbm", "n": args.n, "k": args.k, "a": a, "b": b,
                         "snr": instances.sbm_snr(a, b), "seed": seed, "solver": args.solver,
                         "f": rep.objective, **overlaps, "converged": rep.converged})
    return _write_sweep(args.out, rows, ("a", "b", "seed"), args.strict)


def _cmd_maxcut(args) -> int:
    _check_er(args.n, args.d)
    _check_ranks(args.k_grid, certified=args.solver != "pga")
    rows = []
    for seed in _seeds(args):
        A_G = instances.erdos_renyi(args.n, args.d, seed)
        negA = -A_G
        high_rank = analysis._estimate_rank(A_G, "sphere")
        for k, is_high in [(k, False) for k in args.k_grid] + [(high_rank, True)]:
            rep = _maximizer(negA, k, seed + 1, args)
            rounded = analysis.gw_round(A_G, rep.sigma, args.samples, seed + 2)
            rows.append({"model": "er", "n": args.n, "d": args.d, "k": k, "high_rank": is_high,
                         "seed": seed, "solver": args.solver, "samples": args.samples,
                         "f": rep.objective, "cut": rounded.value, "converged": rep.converged})
    return _write_sweep(args.out, rows, ("k", "seed"), args.strict)


def _cmd_landscape(args) -> int:
    if args.n > 2000 and not args.force:
        raise _UsageError("n > 2000 needs --force (desk-scale guard)")
    _check_ranks(args.k_grid)
    traj_rows = []
    final_rows = []
    for seed in _seeds(args):
        A = instances.goe(args.n, seed)
        est = analysis.estimate_sdp(A, seed=seed + 10_000, pga_iters=args.pga_iters)
        for k in args.k_grid:
            epsilon = solver.default_epsilon(A, k)
            sigma = sphere.random_config(args.n, k, seed + 1)
            it = 0
            while it < args.pga_iters:
                burst = min(args.stride, args.pga_iters - it)
                rep = solver.projected_gradient_ascent(A, sigma, step=args.pga_step,
                                                       iters=burst, record_every=10**9)
                sigma = rep.sigma
                it += burst
                # a Lanczos lower bound on the top Hessian curvature
                _, _, curvature = solver.direction_finding(A, sigma, math.inf,
                                                           epsilon=epsilon, seed=seed + 2)
                traj_rows.append({"model": "goe", "n": args.n, "k": k, "seed": seed, "iter": it,
                                  "curvature": curvature,
                                  "gap_2_over_n": 2.0 * (est.value_plus - rep.objective) / args.n,
                                  "f": rep.objective, "grad_norm": rep.grad_norm})
            final_rows.append({"model": "goe", "n": args.n, "k": k, "seed": seed,
                               "gap": est.value_plus - rep.objective, "sdp_est": est.value_plus,
                               "rg_est": est.rg, "f": rep.objective,
                               "sdp_upper": est.upper_plus})
    _write_sweep(args.out, traj_rows, ("k", "seed", "iter"))
    return _write_sweep(str(args.out) + ".final.csv", final_rows, ("k", "seed"))


def _cmd_ocsdp(args) -> int:
    d = args.d
    if args.n % d:
        raise _UsageError(f"--d {d} does not divide n = {args.n}")
    _check_ranks(args.k_grid, d)
    rows = []
    for seed in _seeds(args):
        A = instances.goe(args.n, seed).with_block_dim(d)
        est = analysis.estimate_sdp(A, seed=seed + 10_000, manifold="stiefel",
                                    pga_iters=args.pga_iters)
        for k in args.k_grid:
            rep = _maximizer(A, k, seed + 1, args, manifold="stiefel")
            eps = rep.epsilon if not math.isnan(rep.epsilon) else \
                solver.default_epsilon(A, k, "stiefel")
            rows.append({"model": "goe-oc", "n": args.n, "d": d, "k": k,
                         "k_d": solver.effective_rank(k, d), "seed": seed, "solver": args.solver,
                         **_bound(A, rep.sigma, rep.objective, eps, est,
                                  converged=rep.converged)})
    return _write_sweep(args.out, rows, ("k", "seed"), args.strict)


# -- parser ---------------------------------------------------------------------


def _add_seed_flags(p) -> None:
    p.add_argument("--seeds", type=_list_of(_nonnegative_int), help="comma-separated seed list")
    p.add_argument("--base-seed", type=_nonnegative_int, default=0)
    p.add_argument("--num-seeds", type=_positive(int), default=1)


_PGA_ITERS_HELP = ("steps of the pga solver; in rtr modes, the cap on the "
                   "Barzilai-Borwein warm start's steps")
_PGA_STEP_HELP = ("fixed step of the pga solver (default 1/(20 l1-norm)); the rtr "
                  "warm start chooses its own steps")


def _add_pga_flags(p) -> None:
    p.add_argument("--pga-iters", type=_nonnegative_int, default=3000, help=_PGA_ITERS_HELP)
    p.add_argument("--pga-step", type=_positive(float), default=None, help=_PGA_STEP_HELP)


def _add_solver_flags(p) -> None:
    p.add_argument("--solver", choices=_SOLVER_CHOICES, default="pga")
    p.add_argument("--budget", type=_positive(int), default=20_000,
                   help="iteration cap for rtr modes")
    _add_pga_flags(p)
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
    p.add_argument("--n", type=_positive(int), required=True)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--lam", type=_positive(float, zero_ok=True), default=1.0)
    p.add_argument("--a", type=float, default=10.0)
    p.add_argument("--b", type=float, default=2.0)
    p.add_argument("--d", type=float, default=10.0)
    p.add_argument("--centered", action="store_true",
                   help="center the regular-graph adjacency")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--k", type=_positive(int), required=True)
    p.add_argument("--eps", type=_positive(float), default=None)
    p.add_argument("--mode", dest="solver", choices=_SOLVER_CHOICES, default="rtr-b")
    p.add_argument("--manifold", choices=("sphere", "stiefel"), default="sphere")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--budget", type=_positive(int), default=20_000)
    _add_pga_flags(p)
    p.add_argument("--cold-start", dest="pga_iters", action="store_const", const=0,
                   help="the same as --pga-iters 0: no warm-start steps")
    p.add_argument("--out", help="trace CSV path")
    p.add_argument("--out-config", help="write the final configuration")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="run the certificate bound check")
    p.add_argument("--in-matrix", required=True)
    p.add_argument("--in-config", required=True)
    p.add_argument("--eps", type=_positive(float, zero_ok=True), default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--pga-iters", type=_nonnegative_int, default=2000)
    p.add_argument("--out")
    p.add_argument("--strict", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("z2sync", help="correlation sweep on the spiked model")
    p.add_argument("--n", type=_positive(int), default=1000)
    p.add_argument("--k", type=_positive(int), default=5)
    p.add_argument("--lam-grid", type=_list_of(_positive(float, zero_ok=True)),
                   default="0.5,0.75,1.5,2")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_z2sync)

    p = sub.add_parser("sbm", help="correlation sweep on the block model")
    p.add_argument("--n", type=_positive(int), default=1000)
    p.add_argument("--k", type=_positive(int), default=8)
    p.add_argument("--ab", type=_list_of(_positive(float, zero_ok=True), size=2),
                   action="append", required=True,
                   help="a,b pair; repeatable")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sbm)

    p = sub.add_parser("maxcut", help="cut values from rounded maximizers")
    p.add_argument("--n", type=_positive(int), default=1000)
    p.add_argument("--d", type=float, default=50.0)
    p.add_argument("--k-grid", type=_list_of(_positive(int)), default="2,3,4,5,6,7,8,9,10")
    p.add_argument("--samples", type=_positive(int), default=100)
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_maxcut)

    p = sub.add_parser("landscape", help="curvature-vs-gap trajectory data")
    p.add_argument("--n", type=_positive(int), default=1000)
    p.add_argument("--k-grid", type=_list_of(_positive(int)), default="2,3,4,5,6,7,8,9,10")
    p.add_argument("--stride", type=_positive(int), default=50,
                   help="ascent steps between curvature probes")
    p.add_argument("--force", action="store_true")
    _add_seed_flags(p)
    p.add_argument("--pga-iters", type=_positive(int), default=3000,
                   help="ascent steps of each trajectory; also the cap on the "
                        "SDP estimate's warm start")
    p.add_argument("--pga-step", type=_positive(float), default=None,
                   help="fixed step of the trajectories (default 1/(20 l1-norm))")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_landscape)

    p = sub.add_parser("ocsdp", help="orthogonal-cut gap sweep")
    p.add_argument("--n", type=_positive(int), default=300)
    p.add_argument("--d", type=_positive(int), default=3)
    p.add_argument("--k-grid", type=_list_of(_positive(int)), default="6,9,12,15")
    _add_seed_flags(p)
    _add_solver_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ocsdp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # a MemoryError is numpy refusing an array that a count (--n, --k,
    # --samples) asks for: the count is out of range, as gen reports it; a
    # NonFiniteError is a matrix whose products overflow, the input's fault
    except (_UsageError, MemoryError, solver.NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
