"""Minimization of the Laplace transform over the dual cone.

The minimizer x* yields the exponential decay rate rho = L(x*) of the cone
non-exit probability, certified by first-order conditions: the gradient at
x* must lie back in the original cone and be orthogonal to x*. Each
dual-cone representation that arises has its solver: coordinatewise projected
Newton on the orthant, projected gradient in the nonnegative ray-coefficient
parametrization for multi-ray generated cones, and one batched ray solver
for min_{t >= 0} L(t u) on many directions u at once.

The orthant and multi-ray loops evaluate the exponentials exp(S x) once per
point: the line search keeps the terms (`laplace._terms`) of the trial it
accepts, and the next iterate reads its gradient and Hessian from them
instead of forming S x again. That gives the bits of evaluating the point
afresh, because every number that feeds a result comes from the same numpy
call on the same operands: S @ (R^T t), never (S R^T) t; np.linalg.eigvalsh;
w @ e for the value.

The ray solver serves the single-ray dual cone of a half-space, as a batch of
one, and the hyperplane scan, as a batch of every grid direction. Each
direction is solved in a lane of its own whose bits do not depend on the
other lanes, so the scan equals the loop of one-direction solves.
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

# A ray bracket starts at t = 1, or, where the lane's exponents pass the
# overflow guard there, at the t that puts its largest exponent this fraction
# inside the guard, so that rounding cannot push the start past it.
BRACKET_MARGIN = 1e-9

# The hyperplane scan holds about (angular grid) x (steps) exponents in each
# of its work arrays, 8 bytes each; a grid that needs more is refused before
# anything is allocated. (A 1-D scan has one direction whatever the grid.)
SCAN_MAX_EXPONENTS = 1 << 22


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
    """Backtracking along the projected arc; returns (x_new, terms at x_new)
    or None."""
    alpha = 1.0
    for _ in range(80):
        xn = project(x + alpha * d)
        at = laplace._terms(model, xn)
        if at is not None:
            gain = float(g @ (xn - x))
            if at.value <= f + ARMIJO_SLOPE * gain and (gain < 0.0 or at.value <= f):
                if np.array_equal(xn, x):
                    return None
                return xn, at
        alpha *= ARMIJO_FACTOR
    return None


def _minimize_orthant(model, tol, max_iter, x0):
    project = lambda v: np.maximum(v, 0.0)
    x = project(np.asarray(x0, dtype=float))
    at = laplace._terms(model, x)
    if at is None:
        x = np.zeros(model.dim)
        at = laplace._terms(model, x)
    trace = [x.copy()]
    for it in range(1, max_iter + 1):
        g = at.gradient()
        pg = np.where(x > ACTIVE_EPS, g, np.minimum(g, 0.0))
        if float(np.linalg.norm(pg)) <= tol:
            return x, it, trace
        free = (x > ACTIVE_EPS) | (g < 0.0)
        d = _newton_direction(at.hessian(), g, free)
        result = _armijo_projected(model, x, at.value, g, d, project)
        if result is None:
            # Newton direction stalled; try a plain projected gradient step
            result = _armijo_projected(model, x, at.value, g, -g, project)
            if result is None:
                raise NonConvergenceError("line search stalled on the orthant", trace)
        x, at = result
        trace.append(x.copy())
    raise NonConvergenceError(f"no convergence after {max_iter} iterations", trace)


def _ray_minima(model, U, tol, max_iter):
    """min over t >= 0 of phi(t) = L(t u) for every row u of U, one lane each.

    A Gaussian lane has the explicit minimum t = max(0, -<u, a>) / |u|^2. A
    finite lane with phi'(0) >= 0 has t = 0. Any other lane brackets a sign
    change of phi', from t = 1 or from just inside the overflow guard (see
    BRACKET_MARGIN), doubling until phi' > 0, then runs safeguarded Newton on
    phi' inside the bracket until |phi'| / |u| <= tol. The exponents t <u, s>
    are formed row by row (einsum, not BLAS), so a lane has the same bits
    alone or in any batch.

    Returns the minimizing t, a mask of the converged lanes and the number
    of evaluations of phi' in each lane, the one at t = 0 included. A lane is
    left unconverged, with t = 0, when its exponents pass the guard of
    laplace.value, when 200 doublings find no bracket or when max_iter Newton
    steps do not reach tol.
    """
    n = len(U)
    if isinstance(model, laplace.GaussianLaplace):
        t = np.maximum(0.0, -np.einsum("ij,j->i", U, model.drift)) / np.einsum("ij,ij->i", U, U)
        return t, np.ones(n, dtype=bool), np.ones(n, dtype=int)
    S, w = model.measure.steps, model.measure.weights
    P = np.einsum("ij,kj->ik", U, S)
    t = np.zeros(n)
    converged = np.ones(n, dtype=bool)
    iterations = np.ones(n, dtype=int)

    def slopes(lanes, at):
        """phi' and phi'' of the lanes at their points, and which lanes keep
        their exponents within the overflow guard."""
        iterations[lanes] += 1
        PL = P[lanes]
        E = at[:, None] * PL
        safe = np.abs(E).max(axis=1) <= steps_mod.MAX_EXPONENT
        # phi' and phi'' may pass the largest double: inf sends the lane to
        # bisection
        with np.errstate(over="ignore"):
            wp = w * np.exp(np.where(safe[:, None], E, 0.0)) * PL
            return wp.sum(axis=1), (wp * PL).sum(axis=1), safe

    lanes = np.flatnonzero(np.einsum("ij,j->i", U, w @ S) < 0.0)  # phi'(0) < 0
    start = steps_mod.MAX_EXPONENT * (1.0 - BRACKET_MARGIN)
    hi = np.minimum(1.0, start / np.abs(P[lanes]).max(axis=1))
    open_ = np.ones(lanes.size, dtype=bool)
    for _ in range(200):
        if not open_.any():
            break
        dp, _, safe = slopes(lanes[open_], hi[open_])
        converged[lanes[open_][~safe]] = False
        below = safe & (dp <= 0.0)
        hi[open_] *= np.where(below, 2.0, 1.0)
        open_[open_] = below
    converged[lanes[open_]] = False
    keep = converged[lanes]
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
        converged[lanes[~safe]] = False
        keep = safe & ~done
        lanes, lo, hi, at, dp, d2, unorm = (
            a[keep] for a in (lanes, lo, hi, at, dp, d2, unorm))
        up = dp > 0.0
        hi = np.where(up, at, hi)
        lo = np.where(up, lo, at)
        tn = at - dp / d2
        at = np.where((lo < tn) & (tn < hi), tn, 0.5 * (lo + hi))
    converged[lanes] = False
    return t, converged, iterations


def _unconverged_ray(u):
    return NonConvergenceError(f"no convergence on the ray along {u.tolist()}", [])


def _minimize_rays(model, R, tol, max_iter, t0):
    """Projected gradient over x = R^T t, t >= 0.

    Armijo backtracking globalizes; near the optimum the objective decrease
    falls below double resolution, so when the line search can no longer
    certify descent the iteration falls back to the safeguard step
    1 / lambda_max(R H R^T), which contracts for a smooth convex objective
    without consulting function values.
    """
    t = np.maximum(np.asarray(t0, dtype=float), 0.0)
    x = R.T @ t
    at = laplace._terms(model, x)
    if at is None:
        t = np.zeros(R.shape[0])
        x = R.T @ t
        at = laplace._terms(model, x)
    alpha = 1.0
    trace = [t.copy()]
    for it in range(1, max_iter + 1):
        g = R @ at.gradient()
        pg = np.where(t > ACTIVE_EPS, g, np.minimum(g, 0.0))
        if float(np.linalg.norm(pg)) <= tol:
            return x, t, it, trace
        curv = np.linalg.eigvalsh(R @ at.hessian() @ R.T)[-1]
        alpha_safe = 1.0 / max(curv, 1e-300)
        alpha = max(alpha * 2.0, alpha_safe)
        moved = False
        for _ in range(200):
            if alpha < 0.25 * alpha_safe:
                break
            tn = np.maximum(t - alpha * g, 0.0)
            xn = R.T @ tn
            an = laplace._terms(model, xn)
            if an is not None and an.value <= at.value + ARMIJO_SLOPE * float(g @ (tn - t)):
                moved = True
                break
            alpha *= ARMIJO_FACTOR
        if not moved:
            alpha = alpha_safe
            tn = np.maximum(t - alpha * g, 0.0)
            xn = R.T @ tn
            an = laplace._terms(model, xn)
            if an is None or np.array_equal(tn, t):
                raise NonConvergenceError("projected gradient stalled", trace)
        t, x, at = tn, xn, an
        trace.append(t.copy())
    raise NonConvergenceError(f"no convergence after {max_iter} iterations", trace)


def _default_init(model, dual_cone):
    """Dual-cone point nearest to the unconstrained Newton step from 0.

    Strict convexity makes the starting point a robustness matter only, so
    any failure here silently falls back to the apex.
    """
    dim = model.dim
    at0 = laplace._terms(model, np.zeros(dim))  # exponents 0: inside the guard
    g0, H0 = at0.gradient(), at0.hessian()
    try:
        dx = np.linalg.solve(H0 + HESSIAN_REG * max(np.trace(H0), 1.0) * np.eye(dim), -g0)
    except np.linalg.LinAlgError:
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


def minimize_on_dual(model, cone, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Minimize the Laplace transform over the dual of the confining cone.

    Returns a RateCertificate holding the minimizer, the rate rho = L(x*),
    and the first-order residuals (gradient back in the cone, orthogonal to
    x*). Raises ImproperModelError with a witness direction when the minimum
    cannot exist, and NonConvergenceError past the iteration budget; a tol
    that is not a finite number > 0 or a max_iter < 1 is a ValueError.
    """
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be a finite number > 0, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")
    dual_cone = cones.dual(cone)
    # a Gaussian transform is full-dimensional and coercive on every cone
    if isinstance(model, laplace.FiniteLaplace):
        if not steps_mod.check_h1(model.measure):
            raise ValueError("measure violates H1: support lies in a hyperplane")
        witness = steps_mod.halfspace_witness(model.measure, dual_cone)
        if witness is not None:
            raise ImproperModelError(witness)

    # t: the coefficients of x* on the dual cone's rays (on the orthant, x*)
    R = cones._rays(dual_cone, "minimization over the dual cone")
    if dual_cone.kind == cones.ORTHANT:
        start = _default_init(model, dual_cone)
        x_star, iterations, _ = _minimize_orthant(model, tol, max_iter, start)
        t = x_star
    elif R.shape[0] == 1:
        t, converged, counts = _ray_minima(model, R, tol, max_iter)
        if not converged[0]:
            raise _unconverged_ray(R[0])
        x_star, iterations = t[0] * R[0], int(counts[0])
    else:
        start = _default_init(model, dual_cone)
        x_star, t, iterations, _ = _minimize_rays(model, R, tol, max_iter, start)

    at = laplace._checked_terms(model, x_star)
    grad = at.gradient()
    return RateCertificate(
        x_star=x_star,
        rho=at.value,
        grad=grad,
        kkt_membership_residual=_membership_violation(cone, grad),
        kkt_orthogonality=float(grad @ x_star),
        active_set=tuple(int(i) for i in np.flatnonzero(t <= ACTIVE_EPS)),
        iterations=iterations,
        hypothesis_flags=HypothesisFlags(h1=True, h2prime=True),
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
    if m.dim > 1 and angular_grid * m.support_size > SCAN_MAX_EXPONENTS:
        raise ValueError(f"angular grid {angular_grid} with {m.support_size} steps passes "
                         f"the scan budget of {SCAN_MAX_EXPONENTS} exponents")
    if not steps_mod.check_h1(m):
        raise ValueError("step set violates H1: support lies in a hyperplane")
    witness = steps_mod.halfspace_witness(m, cones.orthant(m.dim))
    if witness is not None:
        raise ImproperModelError(witness)
    model = laplace.FiniteLaplace(m)
    directions = _scan_directions(m.dim, angular_grid)
    t, converged, _ = _ray_minima(model, directions, 1e-12, DEFAULT_MAX_ITER)
    if not converged.all():
        raise _unconverged_ray(directions[np.argmin(converged)])
    # rank the lanes by their values in lane arithmetic; the first minimal
    # lane wins and reports its value from the transform itself
    P = np.einsum("ij,kj->ik", directions, m.steps)
    j = int(np.argmin(np.einsum("ij,j->i", np.exp(t[:, None] * P), m.weights)))
    k_min = m.support_size * laplace.value(model, t[j] * directions[j])
    return ScanResult(k_min=k_min, direction=directions[j], grid_size=len(directions))


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
