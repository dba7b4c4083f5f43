"""Minimization of the Laplace transform over the dual cone.

The minimizer x* yields the exponential decay rate rho = L(x*) of the cone
non-exit probability, certified by first-order conditions: the gradient at
x* must lie back in the original cone and be orthogonal to x*. Three solver
paths cover the dual-cone representations that arise: coordinatewise
projected Newton on the orthant, safeguarded one-dimensional Newton on a
single ray, and projected gradient in the nonnegative ray-coefficient
parametrization for multi-ray generated cones.

The hyperplane scan solves its one-dimensional ray problems, one per grid
direction, in a single batched form of the single-ray Newton. It then
re-solves with the scalar single-ray solver every direction whose batched
value lies within SCAN_MARGIN of the batched minimum, and every direction
the batch left undecided, so its minimum, argmin direction and exceptions
are exactly those of the scalar solver run on every direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cones, laplace, steps as steps_mod

# Armijo backtracking constants and the Hessian regularization scale are
# fixed, documented constants of the solver.
ARMIJO_SLOPE = 1e-4
ARMIJO_FACTOR = 0.5
HESSIAN_REG = 1e-12
ACTIVE_EPS = 1e-12

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10000

# The batched ray solve runs the iteration of _minimize_ray to the same
# tolerance, so on one direction the two values differ by rounding only
# (about 1e-16 relative). Re-solving every direction within this margin of
# the batched minimum therefore hands the scalar solver its own argmin and
# all of that value's exact ties. A lane whose exponent comes within the
# margin of the overflow guard is left for the scalar solver to decide.
SCAN_MARGIN = 1e-9


class ImproperModelError(ValueError):
    """The support sits inside a dual-cone half-space: the rate infimum may
    not be attained. Carries the violating direction."""

    def __init__(self, witness):
        self.witness = np.asarray(witness, dtype=float)
        super().__init__(
            "Laplace transform has no minimum on the dual cone; "
            f"witness direction {self.witness.tolist()}"
        )


class NonConvergenceError(RuntimeError):
    """Iteration budget exhausted; carries the iterate trace."""

    def __init__(self, message, trace):
        self.trace = trace
        super().__init__(message)


@dataclass(frozen=True)
class HypothesisFlags:
    h1: bool
    h2prime: bool
    h3: bool | None = None


@dataclass(frozen=True, eq=False)
class RateCertificate:
    x_star: np.ndarray
    rho: float
    grad: np.ndarray
    kkt_membership_residual: float
    kkt_orthogonality: float
    active_set: tuple
    iterations: int
    hypothesis_flags: HypothesisFlags

    def to_dict(self):
        return {
            "x_star": [float(v) for v in self.x_star],
            "rho": float(self.rho),
            "grad": [float(v) for v in self.grad],
            "kkt_membership_residual": float(self.kkt_membership_residual),
            "kkt_orthogonality": float(self.kkt_orthogonality),
            "active_set": list(self.active_set),
            "iterations": int(self.iterations),
            "hypothesis_flags": {
                "h1": self.hypothesis_flags.h1,
                "h2prime": self.hypothesis_flags.h2prime,
                "h3": self.hypothesis_flags.h3,
            },
        }


def _value_or_none(model, x):
    try:
        return laplace.value(model, x)
    except OverflowError:
        return None


def _newton_direction(H, g, free):
    """Newton step on the free variables, gradient step on the rest."""
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
        # all attempts failed: keep the plain gradient direction
    return d


def _armijo_projected(model, x, f, g, d, project):
    """Backtracking along the projected arc; returns (x_new, f_new) or None."""
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


def _minimize_orthant(model, dim, tol, max_iter, x0):
    project = lambda v: np.maximum(v, 0.0)
    x = project(np.asarray(x0, dtype=float))
    f = _value_or_none(model, x)
    if f is None:
        x = np.zeros(dim)
        f = laplace.value(model, x)
    trace = [x.copy()]
    for it in range(1, max_iter + 1):
        g = laplace.gradient(model, x)
        pg = np.where(x > ACTIVE_EPS, g, np.minimum(g, 0.0))
        if float(np.linalg.norm(pg)) <= tol:
            return x, it, trace
        H = laplace.hessian(model, x)
        free = (x > ACTIVE_EPS) | (g < 0.0)
        d = _newton_direction(H, g, free)
        result = _armijo_projected(model, x, f, g, d, project)
        if result is None:
            # Newton direction stalled; try a plain projected gradient step
            result = _armijo_projected(model, x, f, g, -g, project)
            if result is None:
                raise NonConvergenceError("line search stalled on the orthant", trace)
        x, f = result
        trace.append(x.copy())
    raise NonConvergenceError(f"no convergence after {max_iter} iterations", trace)


def _minimize_ray(model, u, tol, max_iter, t0=None):
    """min L(t u) over t >= 0 by safeguarded Newton on the derivative."""
    u = np.asarray(u, dtype=float)

    def phi_prime(t):
        return float(laplace.gradient(model, t * u) @ u)

    def phi_second(t):
        return float(u @ laplace.hessian(model, t * u) @ u)

    unorm = float(np.linalg.norm(u))
    iterations = 1
    if phi_prime(0.0) >= 0.0:
        return np.zeros_like(u), 0.0, iterations, [np.zeros_like(u)]
    # bracket a sign change of phi', from no further out than the overflow
    # guard allows: a start whose exponents trip it moves in to just inside
    hi = 1.0 if t0 is None or t0 <= 0.0 else float(t0)
    safe_exponent = steps_mod.MAX_EXPONENT * (1.0 - SCAN_MARGIN)
    if isinstance(model, laplace.FiniteLaplace):
        S = model.measure.steps
        if float(np.abs(S @ (hi * u)).max()) > steps_mod.MAX_EXPONENT:
            hi = safe_exponent / float(np.abs(S @ u).max())
    else:
        x = hi * u
        if 0.5 * float(x @ x) + float(x @ model.drift) > steps_mod.MAX_EXPONENT:
            # the positive root of q t^2 + b t = safe_exponent, where the
            # left side is the Gaussian exponent at t u and b = <u, a> < 0
            q, b = 0.5 * unorm**2, float(u @ model.drift)
            hi = (-b + np.sqrt(b * b + 4.0 * q * safe_exponent)) / (2.0 * q)
    for _ in range(200):
        iterations += 1
        try:
            if phi_prime(hi) > 0.0:
                break
        except OverflowError:
            raise NonConvergenceError("ray bracketing overflowed", [hi])
        hi *= 2.0
    else:
        raise NonConvergenceError("failed to bracket the ray minimum", [hi])
    lo = 0.0
    t = 0.5 * (lo + hi)
    for it in range(max_iter):
        iterations += 1
        dp = phi_prime(t)
        # |phi'(t)| / |u| is the projected-gradient norm along the ray
        if abs(dp) / unorm <= tol:
            return t * u, t, iterations, [t * u]
        if dp > 0.0:
            hi = t
        else:
            lo = t
        tn = t - dp / phi_second(t)
        if not (lo < tn < hi):
            tn = 0.5 * (lo + hi)
        t = tn
    raise NonConvergenceError("no convergence on the ray", [t * u])


def _ray_minima(model, U, tol, max_iter):
    """_minimize_ray from t0 = None on every row of U at once, one lane each.

    Each lane's bracket starts at t = 1, or just inside the overflow guard
    when its exponents pass it there, as _minimize_ray's does. Returns the
    minimizing ray parameters t and a mask of the lanes decided here. A lane
    is left undecided, with t = 0, when its exponent nears the overflow
    guard, when 200 doublings find no bracket or when its Newton budget runs
    out: the cases where _minimize_ray raises.
    """
    S, w = model.measure.steps, model.measure.weights
    P = U @ S.T
    t = np.zeros(len(U))
    decided = np.ones(len(U), dtype=bool)
    safe_exponent = steps_mod.MAX_EXPONENT * (1.0 - SCAN_MARGIN)

    def slopes(lanes, at):
        """phi' and phi'' of the lanes at their points, and which lanes keep
        their exponents clear of the overflow guard."""
        PL = P[lanes]
        E = at[:, None] * PL
        safe = np.abs(E).max(axis=1) <= safe_exponent
        wp = w * np.exp(np.where(safe[:, None], E, 0.0)) * PL
        # phi'' may pass the largest double: inf sends the lane to bisection,
        # as it sends the scalar solver
        with np.errstate(over="ignore"):
            return wp.sum(axis=1), (wp * PL).sum(axis=1), safe

    lanes = np.flatnonzero(U @ (w @ S) < 0.0)  # phi'(0) < 0
    hi = np.minimum(1.0, safe_exponent / np.abs(P[lanes]).max(axis=1))
    open_ = np.ones(lanes.size, dtype=bool)
    for _ in range(200):
        if not open_.any():
            break
        dp, _, safe = slopes(lanes[open_], hi[open_])
        decided[lanes[open_][~safe]] = False
        below = safe & (dp <= 0.0)
        hi[open_] *= np.where(below, 2.0, 1.0)
        open_[open_] = below
    decided[lanes[open_]] = False
    keep = decided[lanes]
    lanes, hi = lanes[keep], hi[keep]
    lo = np.zeros(lanes.size)
    unorm = np.linalg.norm(U[lanes], axis=1)
    at = 0.5 * hi
    for _ in range(max_iter):
        if not lanes.size:
            break
        dp, d2, safe = slopes(lanes, at)
        done = safe & (np.abs(dp) / unorm <= tol)
        t[lanes[done]] = at[done]
        decided[lanes[~safe]] = False
        keep = safe & ~done
        lanes, lo, hi, at, dp, d2, unorm = (
            a[keep] for a in (lanes, lo, hi, at, dp, d2, unorm))
        up = dp > 0.0
        hi = np.where(up, at, hi)
        lo = np.where(up, lo, at)
        tn = at - dp / d2
        at = np.where((lo < tn) & (tn < hi), tn, 0.5 * (lo + hi))
    decided[lanes] = False
    return t, decided


def _minimize_rays(model, R, tol, max_iter, t0):
    """Projected gradient over x = R^T t, t >= 0.

    Armijo backtracking globalizes; near the optimum the objective decrease
    falls below double resolution, so when the line search can no longer
    certify descent the iteration falls back to the safeguard step
    1 / lambda_max(R H R^T), which contracts for a smooth convex objective
    without consulting function values.
    """
    t = np.maximum(np.asarray(t0, dtype=float), 0.0)
    f = _value_or_none(model, R.T @ t)
    if f is None:
        t = np.zeros(R.shape[0])
        f = laplace.value(model, np.zeros(R.shape[1]))
    alpha = 1.0
    trace = [t.copy()]
    for it in range(1, max_iter + 1):
        x = R.T @ t
        g = R @ laplace.gradient(model, x)
        pg = np.where(t > ACTIVE_EPS, g, np.minimum(g, 0.0))
        if float(np.linalg.norm(pg)) <= tol:
            return x, t, it, trace
        curv = np.linalg.eigvalsh(R @ laplace.hessian(model, x) @ R.T)[-1]
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


def _default_init(model, dual_cone):
    """Dual-cone point nearest to the unconstrained Newton step from 0.

    Strict convexity makes the starting point a robustness matter only, so
    any failure here silently falls back to the apex.
    """
    dim = model.dim
    try:
        g0 = laplace.gradient(model, np.zeros(dim))
        H0 = laplace.hessian(model, np.zeros(dim))
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


def _membership_violation(cone, y):
    """How far y is from the cone, measured on its normals."""
    A = cone.normals
    slack = (A @ y) / cone.normal_norms
    return max(0.0, -float(slack.min()))


def minimize_on_dual(model, cone, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, x0=None):
    """Minimize the Laplace transform over the dual of the confining cone.

    Returns a RateCertificate holding the minimizer, the rate rho = L(x*),
    and the first-order residuals (gradient back in the cone, orthogonal to
    x*). Raises ImproperModelError with a witness direction when the minimum
    cannot exist, and NonConvergenceError past the iteration budget.
    """
    dual_cone = cones.dual(cone)
    if isinstance(model, laplace.FiniteLaplace):
        h1 = steps_mod.check_h1(model.measure)
        if not h1:
            raise ValueError("measure violates H1: support lies in a hyperplane")
        witness = steps_mod.halfspace_witness(model.measure, dual_cone)
        if witness is not None:
            raise ImproperModelError(witness)
        flags = HypothesisFlags(h1=True, h2prime=True)
    else:
        # Gaussian transform: full-dimensional and coercive on every cone.
        flags = HypothesisFlags(h1=True, h2prime=True)

    R = cones._rays(dual_cone, "minimization over the dual cone")
    if dual_cone.kind == cones.ORTHANT:
        start = _default_init(model, dual_cone) if x0 is None else np.asarray(x0, dtype=float)
        x_star, iterations, _ = _minimize_orthant(model, model.dim, tol, max_iter, start)
        active = tuple(int(i) for i in np.where(x_star <= ACTIVE_EPS)[0])
    elif R.shape[0] == 1:
        t0 = None
        if x0 is not None:
            x0 = np.asarray(x0, dtype=float)
            t0 = float(x0 @ R[0]) / float(R[0] @ R[0])
        x_star, t, iterations, _ = _minimize_ray(model, R[0], tol, max_iter, t0)
        active = (0,) if t <= ACTIVE_EPS else ()
    else:
        if x0 is not None:
            t0, *_ = np.linalg.lstsq(R.T, np.asarray(x0, dtype=float), rcond=None)
            t0 = np.maximum(t0, 0.0)
        else:
            t0 = _default_init(model, dual_cone)
        x_star, t, iterations, _ = _minimize_rays(model, R, tol, max_iter, t0)
        active = tuple(int(i) for i in np.where(t <= ACTIVE_EPS)[0])

    rho = laplace.value(model, x_star)
    grad = laplace.gradient(model, x_star)
    return RateCertificate(
        x_star=x_star,
        rho=rho,
        grad=grad,
        kkt_membership_residual=_membership_violation(cone, grad),
        kkt_orthogonality=float(grad @ x_star),
        active_set=active,
        iterations=iterations,
        hypothesis_flags=flags,
    )


@dataclass(frozen=True, eq=False)
class GrowthResult:
    k_s: float
    certificate: RateCertificate


def growth_constant(steps):
    """Exponential growth constant of orthant-confined walks on a step set.

    Equals |S| times the rate of the uniform law on the steps; requires the
    step set to span the space and to be proper for the orthant.
    """
    m = steps_mod.from_step_set(steps)
    cert = minimize_on_dual(laplace.FiniteLaplace(m), cones.orthant(m.dim))
    return GrowthResult(k_s=m.support_size * cert.rho, certificate=cert)


@dataclass(frozen=True, eq=False)
class ScanResult:
    k_min: float
    direction: np.ndarray
    grid_size: int


def _scan_directions(dim, angular_grid):
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        theta = np.linspace(0.0, np.pi / 2.0, angular_grid)
        return np.column_stack([np.cos(theta), np.sin(theta)])
    if dim == 3:
        side = max(2, int(np.ceil(np.sqrt(angular_grid))))
        theta = np.linspace(0.0, np.pi / 2.0, side)
        phi = np.linspace(0.0, np.pi / 2.0, side)
        tt, pp = np.meshgrid(theta, phi)
        u = np.column_stack([
            (np.sin(pp) * np.cos(tt)).ravel(),
            (np.sin(pp) * np.sin(tt)).ravel(),
            np.cos(pp).ravel(),
        ])
        # the phi = 0 row is `side` copies of (0, 0, 1): keep the first
        return np.delete(u, np.s_[1:side], axis=0)
    raise ValueError("hyperplane scan supports dimensions 1 to 3")


def hyperplane_scan(steps, angular_grid=721):
    """Minimum over orthant directions u of min_{t>=0} of the step-set
    transform along t u.

    Scanning the hyperplanes through the origin that avoid the open orthant
    reproduces the growth constant up to grid resolution; the argmin
    direction identifies the binding hyperplane.
    """
    if (isinstance(angular_grid, bool) or not isinstance(angular_grid, (int, np.integer))
            or angular_grid < 1):
        raise ValueError(f"angular grid must be an integer >= 1, got {angular_grid!r}")
    m = steps_mod.from_step_set(steps)
    if not steps_mod.check_h1(m):
        raise ValueError("step set violates H1: support lies in a hyperplane")
    witness = steps_mod.halfspace_witness(m, cones.orthant(m.dim))
    if witness is not None:
        raise ImproperModelError(witness)
    model = laplace.FiniteLaplace(m)
    size = m.support_size
    directions = _scan_directions(m.dim, angular_grid)
    t, decided = _ray_minima(model, directions, 1e-12, DEFAULT_MAX_ITER)
    batched = size * (np.exp(t[:, None] * (directions @ m.steps.T)) @ m.weights)
    cut = batched[decided].min(initial=np.inf) * (1.0 + SCAN_MARGIN)
    best = None
    for u in directions[~decided | (batched <= cut)]:
        x_min, _, _, _ = _minimize_ray(model, u, 1e-12, DEFAULT_MAX_ITER)
        val = size * laplace.value(model, x_min)
        if best is None or val < best[0]:
            best = (val, u)
    return ScanResult(k_min=best[0], direction=best[1], grid_size=len(directions))


def brownian_rate(a, cone):
    """Decay rate e^{-d(a, K)^2 / 2} of the drifted Brownian non-exit
    probability; equals the Gaussian-transform minimum on the dual cone."""
    a = np.asarray(a, dtype=float)
    return float(np.exp(-cones.distance(cone, a) ** 2 / 2.0))


def upper_bound_at(model, cone, z):
    """L(z) for z in the dual cone: an upper bound on any consistent rate."""
    z = np.asarray(z, dtype=float)
    if not cones.contains(cones.dual(cone), z, tol=1e-9):
        raise ValueError("upper-bound point must lie in the dual cone")
    return laplace.value(model, z)
