"""MaxCut via low-rank relaxation plus hyperplane rounding.

On a small random graph the exact MaxCut is available by enumeration, so the
demo shows the approximation guarantee in action: rounding a rank-k local
maximizer is never far below the optimum, already at k = 3.
"""

import numpy as np

import lowranksdp as lr


def main():
    certified = True
    # small graph: exact optimum by enumeration
    n_small = 12
    G = lr.SymmetricMatrix(lr.erdos_renyi(n_small, 5.0, seed=3).to_dense())
    exact = lr.maxcut_bruteforce(G)
    print(f"random graph n={n_small}: MaxCut = {exact:.0f} (exhaustive)")
    for k in (3, 4, 5):
        rep = lr.solve(-G, lr.SolverOptions(k=k, seed=k), warm_iters=4000)
        certified &= rep.converged
        rounded = lr.gw_round(G, rep.sigma, num_samples=200, seed=7)
        ratio = rounded.value / exact
        guarantee = lr.ALPHA_GW * (1 - 1 / (k - 1))
        print(f"  k={k}: rounded cut = {rounded.value:.0f}  ratio = {ratio:.3f} "
              f"(guarantee {guarantee:.3f})")

    # larger graph: compare low-rank cuts against a high-rank solve
    n = 300
    G = lr.erdos_renyi(n, 20.0, seed=1)
    high_rank = int(np.ceil(np.sqrt(2 * n))) + 1
    print(f"\nrandom graph n={n}, average degree 20:")
    for k in (2, 3, 5, 8, high_rank):
        rep = lr.solve(-G, lr.SolverOptions(k=k, seed=10 + k), warm_iters=2500)
        certified &= rep.converged
        rounded = lr.gw_round(G, rep.sigma, num_samples=100, seed=11)
        tag = " (high-rank reference)" if k == high_rank else ""
        print(f"  k={k:2d}: best-of-100 cut = {rounded.value:.0f}{tag}")
    if not certified:
        raise SystemExit("a curvature certificate failed")


if __name__ == "__main__":
    main()
