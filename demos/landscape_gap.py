"""How far below the SDP optimum can a local maximizer sit?

Two views on a moderate GOE instance: the gap between the SDP estimate and
rank-k local maximizers shrinking like 1/k, and the link between leftover
curvature and the gap along an ascent trajectory (points far from the top
always have a strongly positive curvature direction).
"""

import math

import lowranksdp as lr


def main():
    n = 300
    A = lr.goe(n, seed=0)
    l1 = A.l1_norm()
    est = lr.estimate_sdp(A, seed=1, pga_iters=2500)
    print(f"GOE({n}): SDP estimate {est.value_plus:.1f}, range rg = {est.rg:.1f}\n")

    print(f"{'k':>3} {'f(local max)':>13} {'gap':>8} {'rg/(k-1)':>10} {'rg/(15(k-1))':>13}")
    certified = True
    for k in range(2, 11):
        rep = lr.solve(A, lr.SolverOptions(k=k, seed=k), warm_iters=3000)
        certified &= rep.converged
        gap = est.value_plus - rep.objective
        print(f"{k:3d} {rep.objective:13.1f} {gap:8.2f} {est.rg/(k-1):10.1f} "
              f"{est.rg/(15*(k-1)):13.2f}")

    print("\ncurvature vs gap along one ascent trajectory (k = 4):")
    print(f"{'iter':>6} {'lam_max est':>12} {'2(SDP-f)/n':>12}")
    sigma = lr.random_config(n, 4, seed=42)
    eps = lr.default_epsilon(A, 4)
    it = 0
    for burst in (25, 25, 50, 100, 200, 400, 800, 1400):
        rep = lr.projected_gradient_ascent(A, sigma, step=1 / (4 * l1), iters=burst)
        sigma = rep.sigma
        it += burst
        # a Lanczos lower bound on the top Hessian curvature
        _, _, lam_est = lr.direction_finding(A, sigma, math.inf, epsilon=eps, seed=it)
        gap2n = 2 * (est.value_plus - rep.objective) / n
        print(f"{it:6d} {lam_est:12.4f} {gap2n:12.4f}")
    print("\nthe two columns track each other: low curvature only appears "
          "once the gap is nearly closed.")
    if not certified:
        raise SystemExit("a curvature certificate failed")


if __name__ == "__main__":
    main()
