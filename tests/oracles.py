"""Independent oracles shared by the test suite.

These deliberately avoid the library's fast paths: dense eigendecompositions,
explicit tangent bases, and finite differences along the retraction curve.
"""

import numpy as np


def row_orthonormal_complement(row):
    """(k-1) x k orthonormal basis of the complement of a unit row in R^k."""
    k = row.size
    # complete the row to an orthonormal basis via QR of [row | I]
    q, _ = np.linalg.qr(np.column_stack([row, np.eye(k)]))
    basis = q[:, 1:k].T
    # QR may flip signs; orthogonality to `row` is what matters
    assert np.abs(basis @ row).max() < 1e-12
    return basis


def dense_tangent_hessian(A_dense, sigma_rows, lam):
    """The Hessian as a dense symmetric matrix on explicit tangent coordinates.

    Coordinates are per-row orthonormal complements; entry ((i,a),(j,b)) is
    2 (A - Lambda)_{ij} <b_{ia}, b_{jb}>.  Returns (H, bases).
    """
    n, k = sigma_rows.shape
    bases = [row_orthonormal_complement(sigma_rows[i]) for i in range(n)]
    m = A_dense - np.diag(lam)
    dim = n * (k - 1)
    h = np.empty((dim, dim))
    for i in range(n):
        for j in range(n):
            block = 2.0 * m[i, j] * (bases[i] @ bases[j].T)
            h[i * (k - 1):(i + 1) * (k - 1), j * (k - 1):(j + 1) * (k - 1)] = block
    return 0.5 * (h + h.T), bases


def tangent_hessian_lambda_max(A, config):
    """Largest Hessian eigenvalue by dense eigendecomposition (oracle)."""
    dense = A.to_dense()
    asig = dense @ config.rows
    lam = np.einsum("ij,ij->i", config.rows, asig)
    h, _ = dense_tangent_hessian(dense, config.rows, lam)
    return float(np.linalg.eigvalsh(h).max())


def stiefel_tangent_basis(rows, d):
    """Orthonormal basis of the tangent space of the frame product, as columns.

    ``rows`` stacks m d x k blocks sigma_i with orthonormal rows.  A tangent
    block is Omega sigma_i + W with Omega skew and W sigma_i^T = 0: the basis
    takes (E_ab - E_ba) sigma_i / sqrt(2) for a < b and E_a c^T for every row
    a and every unit c of the orthogonal complement of sigma_i's row space.
    Columns are row-major vectorizations of n x k arrays; there are
    m (d (k - d) + d (d - 1) / 2) of them.
    """
    n, k = rows.shape
    cols = []
    for i in range(0, n, d):
        frame = rows[i:i + d]
        q, _ = np.linalg.qr(np.column_stack([frame.T, np.eye(k)]))
        comp = q[:, d:k].T
        assert np.abs(comp @ frame.T).max() < 1e-12
        for a in range(d):
            for c in comp:
                u = np.zeros((n, k))
                u[i + a] = c
                cols.append(u.ravel())
            for b in range(a + 1, d):
                u = np.zeros((n, k))
                u[i + a], u[i + b] = frame[b] / np.sqrt(2.0), -frame[a] / np.sqrt(2.0)
                cols.append(u.ravel())
    return np.column_stack(cols)


def dense_stiefel_tangent_hessian(A_dense, rows, d):
    """The frame product's Hessian as a dense symmetric matrix on an explicit basis.

    With Lambda_i = sym((A sigma)_i sigma_i^T) the Hessian's quadratic form
    is 2 <U, A U> - 2 sum_i <U_i, Lambda_i U_i>, that is
    2 B^T ((A - blockdiag(Lambda)) kron I_k) B for the basis B of
    ``stiefel_tangent_basis``.  At d = 1 this is ``dense_tangent_hessian``.
    """
    n, k = rows.shape
    asig = A_dense @ rows
    m = A_dense.copy()
    for i in range(0, n, d):
        lam = asig[i:i + d] @ rows[i:i + d].T
        m[i:i + d, i:i + d] -= 0.5 * (lam + lam.T)
    basis = stiefel_tangent_basis(rows, d)
    h = 2.0 * basis.T @ np.kron(m, np.eye(k)) @ basis
    return 0.5 * (h + h.T)


def stiefel_tangent_hessian_lambda_max(A, config):
    """Largest Hessian eigenvalue on the frame product by dense eigendecomposition (oracle)."""
    h = dense_stiefel_tangent_hessian(A.to_dense(), config.rows, config.d)
    return float(np.linalg.eigvalsh(h).max())


def sdp_dual_bound(A_dense, rows):
    """Weak-duality upper bound on SDP(A) = max <A, X> over X PSD, diag(X) = 1.

    For any y, <A, X> = <A - Diag y, X> + sum(y) <= sum(y) + n max(0,
    lam_max(A - Diag y)) since tr X = n.  Here y holds the multipliers
    y_i = <sigma_i, (A sigma)_i> of the unit rows ``rows``, so the bound is
    tight exactly when those rows are an SDP optimum.
    """
    n = A_dense.shape[0]
    y = np.einsum("ij,ij->i", rows, A_dense @ rows)
    lam_max = float(np.linalg.eigvalsh(A_dense - np.diag(y)).max())
    return float(y.sum() + n * max(0.0, lam_max))


def sdp_block_dual_bound(A_dense, rows, d):
    """Weak-duality upper bound on the Orthogonal-Cut SDP max <A, X>, X PSD, X_ii = I_d.

    For any symmetric d x d blocks Y_i, <A, X> = <A - blockdiag(Y), X> +
    sum_i tr(Y_i) <= sum_i tr(Y_i) + n max(0, lam_max(A - blockdiag(Y))) since
    tr X = n.  Here Y_i = sym((A sigma)_i sigma_i^T) at the frames ``rows``,
    built one block at a time; at d = 1 this is ``sdp_dual_bound``.
    """
    n = A_dense.shape[0]
    asig = A_dense @ rows
    shifted = A_dense.copy()
    trace = 0.0
    for i in range(0, n, d):
        y = asig[i:i + d] @ rows[i:i + d].T
        y = 0.5 * (y + y.T)
        shifted[i:i + d, i:i + d] -= y
        trace += float(np.trace(y))
    return trace + n * max(0.0, float(np.linalg.eigvalsh(shifted).max()))


def fd_derivative(f_of_t, t, h, order):
    """Central finite differences of orders 1..3 for a scalar function."""
    if order == 1:
        return (f_of_t(t + h) - f_of_t(t - h)) / (2.0 * h)
    if order == 2:
        return (f_of_t(t + h) - 2.0 * f_of_t(t) + f_of_t(t - h)) / (h * h)
    if order == 3:
        return (f_of_t(t + 2 * h) - 2.0 * f_of_t(t + h)
                + 2.0 * f_of_t(t - h) - f_of_t(t - 2 * h)) / (2.0 * h**3)
    raise ValueError("order must be 1, 2, or 3")


def object_gradient_ascent(A, sigma0, step, iters, grad_tol=None):
    """Projected gradient ascent through the public geometry objects.

    Each step builds the Hessian operator at a checked ``StiefelConfig``
    (one product), takes its checked gradient tangent (what ``oc_gradient``
    returns) and moves by ``oc_retract``.  The solver's loop runs the same
    arithmetic on raw rows; returns ``(config, objective, grad_norm, trace)``
    with ``trace`` the ``(iteration, objective, grad_norm)`` of every step.
    """
    from lowranksdp import stiefel

    B = A.with_block_dim(sigma0.d)

    def evaluate(config):
        H = stiefel.OcHessianOperator(B, config)
        g = H.gradient()
        return config, H.objective_value(), g, g.norm

    config, f, g, gn = evaluate(sigma0)
    trace = [(0, f, gn)]
    for it in range(1, iters + 1):
        if (grad_tol is not None and gn <= grad_tol) or gn == 0.0:
            break
        config, f, g, gn = evaluate(stiefel.oc_retract(config, g, step))
        trace.append((it, f, gn))
    return config, f, gn, trace


def so_sync_loop(m, d, noise, seed):
    """``instances.so_sync``'s data matrix and rotations, one d x d block at a time.

    The reference for the vectorized generator: it draws the same random
    stream in the same order, rotation by rotation and then block by block
    over ``(i, j >= i)``, so the two must agree bit for bit.
    """
    rng = np.random.default_rng(seed)
    rots = []
    for _ in range(m):
        q, r = np.linalg.qr(rng.standard_normal((d, d)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        rots.append(q)
    rots = np.stack(rots)
    a = np.zeros((m * d, m * d))
    for i in range(m):
        for j in range(i, m):
            block = rots[i].T @ rots[j]
            w = rng.standard_normal((d, d))
            if i == j:
                w = (w + w.T) / np.sqrt(2.0)
            a[i * d:(i + 1) * d, j * d:(j + 1) * d] = block + noise * w
            if j > i:
                a[j * d:(j + 1) * d, i * d:(i + 1) * d] = a[i * d:(i + 1) * d, j * d:(j + 1) * d].T
    return a, rots
