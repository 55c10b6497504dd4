"""Tour of the solver stack on a random symmetric matrix.

Builds a GOE instance, climbs with plain projected gradient ascent, then
runs the certified trust-region modes and prints what the certificate says.
"""

import lowranksdp as lr


def main():
    n, k = 200, 4
    A = lr.goe(n, seed=0)
    print(f"GOE({n}):  |A|_1 = {A.l1_norm():.2f}   |A|_2 ~ {A.opnorm():.3f}")

    sigma0 = lr.random_config(n, k, seed=1)
    print(f"\nrandom start: f = {lr.objective(A, sigma0):.2f}")

    # 1. projected gradient ascent with a fixed step
    pga = lr.projected_gradient_ascent(A, sigma0, iters=4000, record_every=500)
    print(f"PGA (step 1/(20|A|_1), 4000 iters): f = {pga.objective:.2f}, "
          f"|grad| = {pga.grad_norm:.2e}")
    for rec in pga.trace[1:]:
        print(f"   iter {rec.index:5d}  f = {rec.objective:9.2f}  "
              f"|grad| = {rec.grad_norm:.3e}")

    # 2. certified trust-region run (gradient steps + Lanczos eigen steps)
    rep = lr.solve(A, lr.SolverOptions(k=k, seed=2))
    print(f"\ntrust-region (gradient-eigen): {rep.summary_line()}")
    print(f"  certificate: every tangent curvature <= {rep.curvature_cert:.3f} "
          f"(target eps = {rep.epsilon:.3f})")

    # 3. eigen-only mode after a Barzilai-Borwein warm start from the same point
    rep_a = lr.solve(A, lr.SolverOptions(k=k, mode=lr.MODE_EIGEN_ONLY, seed=3,
                                         max_iters=2000), sigma0=sigma0, warm_iters=4000)
    print(f"trust-region (eigen-only, warm):  {rep_a.summary_line()}")

    # the certificate feeds the global bound: f is within rg/(k-1) + n*eps/2
    # of the semidefinite optimum
    est = lr.estimate_sdp(A, seed=4)
    holds, slack = lr.grothendieck_check(A, rep.sigma, rep.epsilon, est)
    print(f"\nSDP estimate: {est.value_plus:.2f} (range rg = {est.rg:.2f})")
    print(f"certified-point bound holds: {holds} (slack {slack:.2f})")
    if not (rep.converged and rep_a.converged and holds):
        raise SystemExit("a curvature certificate or its bound failed")


if __name__ == "__main__":
    main()
