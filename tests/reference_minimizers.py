"""Frozen reference copies of the dual-cone minimizers and the Laplace
evaluations they were written against, one exponential per public call.

`test_solver.TestSharedTermsMatchReference` requires the package's loops,
which evaluate exp(S x) once per iterate, to return these copies' results
bit for bit. Keep this file unchanged while that is the claim.
"""

import numpy as np

from conewalks import cones, laplace, steps as steps_mod
from conewalks.solver import (ACTIVE_EPS, ARMIJO_FACTOR, ARMIJO_SLOPE, HESSIAN_REG,
                              NonConvergenceError)


def _checked_point(model, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected a point of length {model.dim}")
    return x


def _finite_exponents(model, x):
    dots = model.measure.steps @ x
    if dots.size and float(np.abs(dots).max()) > steps_mod.MAX_EXPONENT:
        raise OverflowError("Laplace exponent exceeds the overflow guard (700)")
    return dots


def value(model, x):
    x = _checked_point(model, x)
    if isinstance(model, laplace.FiniteLaplace):
        dots = _finite_exponents(model, x)
        return float(model.measure.weights @ np.exp(dots))
    expo = 0.5 * float(x @ x) + float(x @ model.drift)
    if expo > steps_mod.MAX_EXPONENT:
        raise OverflowError("Laplace exponent exceeds the overflow guard (700)")
    return float(np.exp(expo))


def gradient(model, x):
    x = _checked_point(model, x)
    if isinstance(model, laplace.FiniteLaplace):
        dots = _finite_exponents(model, x)
        return (model.measure.weights * np.exp(dots)) @ model.measure.steps
    return (x + model.drift) * value(model, x)


def hessian(model, x):
    x = _checked_point(model, x)
    if isinstance(model, laplace.FiniteLaplace):
        dots = _finite_exponents(model, x)
        w = model.measure.weights * np.exp(dots)
        return (w[:, None] * model.measure.steps).T @ model.measure.steps
    g = x + model.drift
    return (np.eye(model.dim) + np.outer(g, g)) * value(model, x)


def _value_or_none(model, x):
    try:
        return value(model, x)
    except OverflowError:
        return None


def _newton_direction(H, g, free):
    d = -g.copy()
    if np.any(free):
        Hff = H[np.ix_(free, free)]
        gf = g[free]
        lam = HESSIAN_REG * max(float(np.trace(Hff)), 1.0)
        for attempt in range(6):
            try:
                c = np.linalg.cholesky(Hff + (lam * attempt if attempt else 0.0) * np.eye(Hff.shape[0]))
                step = np.linalg.solve(c.T, np.linalg.solve(c, -gf))
                d[free] = step
                break
            except np.linalg.LinAlgError:
                lam *= 10.0
    return d


def armijo_projected(model, x, f, g, d, project):
    alpha = 1.0
    for _ in range(80):
        xn = project(x + alpha * d)
        fn = _value_or_none(model, xn)
        if fn is not None:
            gain = float(g @ (xn - x))
            if fn <= f + ARMIJO_SLOPE * gain and (gain < 0.0 or fn <= f):
                if np.array_equal(xn, x):
                    return None
                return xn, fn
        alpha *= ARMIJO_FACTOR
    return None


def minimize_orthant(model, tol, max_iter, x0):
    project = lambda v: np.maximum(v, 0.0)
    x = project(np.asarray(x0, dtype=float))
    f = _value_or_none(model, x)
    if f is None:
        x = np.zeros(model.dim)
        f = value(model, x)
    trace = [x.copy()]
    for it in range(1, max_iter + 1):
        g = gradient(model, x)
        pg = np.where(x > ACTIVE_EPS, g, np.minimum(g, 0.0))
        if float(np.linalg.norm(pg)) <= tol:
            return x, it, trace
        H = hessian(model, x)
        free = (x > ACTIVE_EPS) | (g < 0.0)
        d = _newton_direction(H, g, free)
        result = armijo_projected(model, x, f, g, d, project)
        if result is None:
            result = armijo_projected(model, x, f, g, -g, project)
            if result is None:
                raise NonConvergenceError("line search stalled on the orthant", trace)
        x, f = result
        trace.append(x.copy())
    raise NonConvergenceError(f"no convergence after {max_iter} iterations", trace)


def minimize_rays(model, R, tol, max_iter, t0):
    t = np.maximum(np.asarray(t0, dtype=float), 0.0)
    f = _value_or_none(model, R.T @ t)
    if f is None:
        t = np.zeros(R.shape[0])
        f = value(model, np.zeros(R.shape[1]))
    alpha = 1.0
    trace = [t.copy()]
    for it in range(1, max_iter + 1):
        x = R.T @ t
        g = R @ gradient(model, x)
        pg = np.where(t > ACTIVE_EPS, g, np.minimum(g, 0.0))
        if float(np.linalg.norm(pg)) <= tol:
            return x, t, it, trace
        curv = np.linalg.eigvalsh(R @ hessian(model, x) @ R.T)[-1]
        alpha_safe = 1.0 / max(curv, 1e-300)
        alpha = max(alpha * 2.0, alpha_safe)
        moved = False
        for _ in range(200):
            if alpha < 0.25 * alpha_safe:
                break
            tn = np.maximum(t - alpha * g, 0.0)
            fn = _value_or_none(model, R.T @ tn)
            if fn is not None and fn <= f + ARMIJO_SLOPE * float(g @ (tn - t)):
                moved = True
                break
            alpha *= ARMIJO_FACTOR
        if not moved:
            alpha = alpha_safe
            tn = np.maximum(t - alpha * g, 0.0)
            fn = _value_or_none(model, R.T @ tn)
            if fn is None or np.array_equal(tn, t):
                raise NonConvergenceError("projected gradient stalled", trace)
        t, f = tn, fn
        trace.append(t.copy())
    raise NonConvergenceError(f"no convergence after {max_iter} iterations", trace)


def default_init(model, dual_cone):
    dim = model.dim
    try:
        g0 = gradient(model, np.zeros(dim))
        H0 = hessian(model, np.zeros(dim))
        dx = np.linalg.solve(H0 + HESSIAN_REG * max(np.trace(H0), 1.0) * np.eye(dim), -g0)
    except (np.linalg.LinAlgError, OverflowError):
        dx = np.zeros(dim)
    if dual_cone.kind == cones.ORTHANT:
        return np.maximum(dx, 0.0)
    R = dual_cone.rays
    try:
        t, *_ = np.linalg.lstsq(R.T, dx, rcond=None)
        return np.maximum(t, 0.0)
    except np.linalg.LinAlgError:
        return np.zeros(R.shape[0])


def minimize_on_dual(model, cone, tol, max_iter):
    """(x*, rho, grad, iterations, active set) of the orthant and multi-ray
    branches of `solver.minimize_on_dual`, without its hypothesis checks."""
    dual_cone = cones.dual(cone)
    R = dual_cone.rays
    start = default_init(model, dual_cone)
    if dual_cone.kind == cones.ORTHANT:
        x_star, iterations, _ = minimize_orthant(model, tol, max_iter, start)
        t = x_star
    else:
        x_star, t, iterations, _ = minimize_rays(model, R, tol, max_iter, start)
    active = tuple(int(i) for i in np.flatnonzero(t <= ACTIVE_EPS))
    return x_star, value(model, x_star), gradient(model, x_star), iterations, active
