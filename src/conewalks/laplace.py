"""Laplace transforms of increment laws: values, derivatives, behavior at
infinity, existence of a constrained global minimum, and the tilted law.

Two transform variants are supported: the finite-support empirical transform
L(x) = sum_s w_s e^{<x,s>} and the analytic identity-covariance Gaussian
L(x) = e^{|x|^2/2 + <x,a>} used for the Brownian comparison. Arguments whose
exponents exceed 700 are rejected outright so downstream certificates are
never built from saturated arithmetic.

Value, gradient and Hessian at a point come from one evaluation, `_terms`:
one e = exp(S x) (one L(x) for the Gaussian), from which w.e, (w e) S and
((w e) S)^T S are formed on request, w e once for both. The public
functions wrap it, and refuse a point with a non-finite coordinate
(`_checked_point`); the solvers keep it per trial point, so an iterate forms
its exponentials once. Terms read later have the bits of a fresh
evaluation, since the same S x gives the same e. The law tilted at z, with
weights w_s e^{<z,s>} / L(z), is read from these terms and guard (`tilt`).

These products go through `ndarray.dot`, which calls the BLAS routine that
`@` calls for float64 operands (ddot, dgemv or dgemm) without matmul's ufunc
dispatch, so they have its bits (see the solver module) and an overflow in
one warns "overflow encountered in dot".

Whether the minimum exists on a cone is decided by one min-max LP over the
cone's rays, solved by the package's dense simplex (`_simplex.simplex_min`)
from an explicit feasible basis, on steps and rays scaled row by row into
[1, 2) (`_simplex.scale_rows`). It is a different LP from the feasibility
problem of `steps.halfspace_witness`, so the two cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cones, steps as steps_mod
from ._simplex import scale_rows, simplex_min

# Absolute tolerance classifying a step as lying on the hyperplane u-perp;
# exact for lattice inputs.
BOUNDARY_TOL = 1e-12

_OVERFLOW = "Laplace exponent exceeds the overflow guard (700)"


@dataclass(frozen=True, eq=False)
class FiniteLaplace:
    """Transform L(x) = sum_s w_s e^{<x,s>} of a step measure, a finitely
    supported probability law (`steps.StepMeasure`)."""

    measure: steps_mod.StepMeasure

    @property
    def dim(self):
        return self.measure.dim


@dataclass(frozen=True, eq=False)
class GaussianLaplace:
    """Transform of a Gaussian increment law with identity covariance."""

    drift: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "drift", np.asarray(self.drift, dtype=float))
        if self.drift.ndim != 1:
            raise ValueError("drift must be a vector")

    @property
    def dim(self):
        return self.drift.shape[0]


def _checked_point(model, x):
    """x as a float point of the model's dimension; a non-finite coordinate,
    whose terms would be NaN, raises ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.dim,):
        raise ValueError(f"expected a point of length {model.dim}")
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"cannot evaluate the transform at the non-finite point {x.tolist()}")
    return x


def _exponents(model, x):
    """S x for a finite model, or None when an exponent passes the overflow
    guard: max|S x| > MAX_EXPONENT, the max formed as np.max forms it, so a
    NaN exponent passes. The test runs on Python floats, whose max and min
    may skip a NaN: a range test that holds passes the point, and one that
    fails refuses it unless an exponent is NaN."""
    dots = model.measure.steps.dot(x)
    values = dots.tolist()
    bound = steps_mod.MAX_EXPONENT
    if (values and not (max(values) <= bound and min(values) >= -bound)
            and not any(map(math.isnan, values))):
        return None
    return dots


class _FiniteTerms:
    """L, grad L and the Hessian at one point from one e = exp(S x); the
    gradient and the Hessian share one product w e, formed on first use."""

    __slots__ = ("measure", "e", "value", "_we")

    def __init__(self, measure, e):
        self.measure, self.e = measure, e
        self.value = float(measure.weights.dot(e))
        self._we = None

    def _weighted(self):
        if self._we is None:
            self._we = self.measure.weights * self.e
        return self._we

    def gradient(self):
        return self._weighted().dot(self.measure.steps)

    def hessian(self):
        w = self._weighted()
        return (w[:, None] * self.measure.steps).T.dot(self.measure.steps)


class _GaussianTerms:
    """L, grad L and the Hessian at one point from the one value L(x)."""

    __slots__ = ("g", "value")

    def __init__(self, g, value):
        self.g, self.value = g, value

    def gradient(self):
        return self.g * self.value

    def hessian(self):
        return (np.eye(self.g.shape[0]) + np.outer(self.g, self.g)) * self.value


def _terms(model, x):
    """The transform at a float point x of the model's dimension: value now,
    gradient and Hessian on request, all from one exponential. None when an
    exponent passes the overflow guard. The solvers call this for each
    trial point and read the accepted one's derivatives at their next iterate.
    """
    if isinstance(model, FiniteLaplace):
        dots = _exponents(model, x)
        return None if dots is None else _FiniteTerms(model.measure, np.exp(dots))
    expo = 0.5 * float(x.dot(x)) + float(x.dot(model.drift))
    if expo > steps_mod.MAX_EXPONENT:
        return None
    return _GaussianTerms(x + model.drift, float(np.exp(expo)))


def _checked_terms(model, x):
    """`_terms` at a caller's point, raising OverflowError past the guard."""
    terms = _terms(model, _checked_point(model, x))
    if terms is None:
        raise OverflowError(_OVERFLOW)
    return terms


def tilt(m, z):
    """Exponential change of measure: weights w_s e^{<z,s>} / L(z)."""
    w = _checked_terms(FiniteLaplace(m), z)._weighted()
    return steps_mod.StepMeasure(m.dim, m.steps, w / w.sum())


def value(model, x):
    return _checked_terms(model, x).value


def gradient(model, x):
    return _checked_terms(model, x).gradient()


def hessian(model, x):
    return _checked_terms(model, x).hessian()


@dataclass(frozen=True)
class DirectionBehavior:
    diverges: bool
    limit: float | None = None


def classify_direction(model, u, x=None):
    """Behavior of t -> L(x + t u) as t grows, for a unit direction u.

    Either the transform diverges (some step has positive inner product with
    u) or it converges to the partial sum over the steps lying on u-perp.
    The Gaussian transform diverges in every direction.
    """
    u = _checked_point(model, u)
    if abs(float(np.linalg.norm(u)) - 1.0) > 1e-9:
        raise ValueError("direction must be a unit vector")
    x = np.zeros(model.dim) if x is None else _checked_point(model, x)
    if isinstance(model, GaussianLaplace):
        return DirectionBehavior(diverges=True)
    dots = model.measure.steps @ u
    if float(dots.max()) > BOUNDARY_TOL:
        return DirectionBehavior(diverges=True)
    on_boundary = np.abs(dots) <= BOUNDARY_TOL
    xdots = _exponents(model, x)
    if xdots is None:
        raise OverflowError(_OVERFLOW)
    limit = float(np.sum(model.measure.weights[on_boundary] * np.exp(xdots[on_boundary])))
    return DirectionBehavior(diverges=False, limit=limit)


def _min_max_value(G):
    """gamma* = min over t >= 0, sum t = 1 of max_i (G t)_i.

    In standard form the variables are (t, z, slack) >= 0 with gamma = z + lb
    and lb = min(G), a lower bound on every (G t)_i; the rows are
    G t - z + slack = lb and sum t = 1. The start basis is t = e_0, with z
    basic on the row argmax G[:, 0] and each slack on its own other row:
    z = max G[:, 0] - lb and slack_i = max G[:, 0] - G[i, 0], all >= 0, so
    no phase 1 is needed.
    """
    k, r = G.shape
    lb = float(G.min())
    M = np.zeros((k + 1, r + 1 + k))
    M[:k, :r] = G
    M[:k, r] = -1.0
    M[:k, r + 1:] = np.eye(k)
    M[k, :r] = 1.0
    b = np.full(k + 1, lb)
    b[k] = 1.0
    c = np.zeros(r + 1 + k)
    c[r] = 1.0
    basis = list(range(r + 1, r + 1 + k)) + [0]
    basis[int(np.argmax(G[:, 0]))] = r
    status, _, z = simplex_min(c, M, b, basis)
    if status != "optimal":
        raise RuntimeError(f"direction LP failed: {status}")
    return z + lb


def has_global_min_on_cone(model, cone):
    """Whether L attains a global minimum on the closed convex cone.

    For an all-exponential-moments law this holds exactly when no nonzero
    direction u of the cone keeps the whole support in the half-space
    {<u, .> <= 0}. With the cone's rays R and the steps S, each scaled row by
    row into [1, 2) (`_simplex.scale_rows`, which keeps the sign of gamma*),
    the test is gamma* = min max_s <s, R^T t> over t >= 0, sum t = 1
    (`_min_max_value` on G = S R^T), and the minimum exists when
    gamma* > 1e-9. It differs from the LP of the hypothesis checker, so the
    two can cross-validate.
    """
    if isinstance(model, GaussianLaplace):
        raise TypeError("global-minimum dichotomy applies to finite-support transforms")
    cones.require_dim(cone, model.dim)
    m = model.measure
    if not steps_mod.check_h1(m):
        raise ValueError("global-minimum test requires a full-dimensional support (H1)")
    if not len(cone.rays):
        return True  # the cone {0}
    return _min_max_value(scale_rows(m.steps) @ scale_rows(cone.rays).T) > 1e-9
