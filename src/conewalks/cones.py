"""Closed convex cones: four representations, duality, membership, projections.

A cone is kept in whichever of the four descriptions it was built from:

* ``orthant``       -- the nonnegative orthant Q = (R+)^d
* ``halfspace``     -- {x : <u, x> >= 0} for a nonzero normal u
* ``generated``     -- {sum_i t_i r_i : t >= 0} for finitely many rays r_i
* ``inequalities``  -- {x : <a_i, x> >= 0 for all i}

Every cone also carries the two descriptions the rate formulas read, derived
once from its kind: ``normals``, the rows a_i with K = {x : A x >= 0}, which
membership, the KKT residual and the Monte Carlo test use; and ``rays``, the
rows r_i with K = {R^T t : t >= 0}, which parametrize a dual cone for the
solver and the LPs. The orthant has both (the identity), a half-space and an
inequality cone only normals, a generated cone only rays. Duality swaps the
two: the rays of K* are the normals of K, so dualizing is pure transcription
and no facet enumeration is ever performed. Projections are implemented only
for the cones the rate formulas need (orthant, half-space, single ray);
everything else raises ``UnsupportedConeError``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._simplex import l1_fit, nonneg_solution

ORTHANT = "orthant"
HALFSPACE = "halfspace"
GENERATED = "generated"
INEQUALITIES = "inequalities"

# Absolute floor added to every relative membership tolerance; keeps apex
# membership exact while allowing scaled slack for large vectors.
ABS_FLOOR = 1e-12
DEFAULT_TOL = 1e-9

# Relative singular-value threshold for the rank test of generated cones.
RANK_TOL = 1e-10


class ConeError(ValueError):
    """Invalid cone construction or argument."""


class UnsupportedConeError(ConeError):
    """Operation not available for this cone representation."""


@dataclass(frozen=True, eq=False)
class Cone:
    """A closed convex cone in R^dim; see the module docstring for kinds.

    ``vectors`` holds the defining data: the half-space normal as shape (d,),
    rays or inequality normals as shape (k, d), and None for the orthant.
    ``normals`` and ``rays`` are the two derived descriptions, shape (k, d),
    or None where the kind gives no such description without enumeration;
    ``normal_norms`` holds the Euclidean norm of each normal (None without
    normals), which scales the membership tolerances.
    """

    dim: int
    kind: str
    vectors: np.ndarray | None = None
    normals: np.ndarray | None = field(init=False)
    rays: np.ndarray | None = field(init=False)
    normal_norms: np.ndarray | None = field(init=False)

    def __post_init__(self):
        normals = rays = None
        if self.kind == ORTHANT:
            normals = rays = np.eye(self.dim)
            normals.flags.writeable = False
        elif self.kind == GENERATED:
            rays = self.vectors
        else:
            normals = self.vectors.reshape(-1, self.dim)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "rays", rays)
        norms = None
        if normals is not None:
            norms = np.linalg.norm(normals, axis=1)
            norms.flags.writeable = False
        object.__setattr__(self, "normal_norms", norms)

    def __repr__(self):
        if self.kind == ORTHANT:
            return f"Cone(orthant, dim={self.dim})"
        return f"Cone({self.kind}, dim={self.dim}, vectors={self.vectors.tolist()})"


def _finite(a, what):
    if not np.isfinite(a).all():
        raise ConeError(f"{what} must be finite, got {a.tolist()}")
    return a


def orthant(dim):
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ConeError(f"cone dimension must be an integer >= 1, got {dim!r}")
    return Cone(int(dim), ORTHANT)


def halfspace(u):
    u = _finite(np.asarray(u, dtype=float), "half-space normal")
    if u.ndim != 1 or u.shape[0] < 1:
        raise ConeError("half-space normal must be a vector")
    if not np.any(u != 0.0):
        raise ConeError("half-space normal must be nonzero")
    return Cone(u.shape[0], HALFSPACE, u)


def generated(rays):
    R = _finite(np.atleast_2d(np.asarray(rays, dtype=float)), "every ray")
    if R.shape[0] < 1:
        raise ConeError("generated cone needs at least one ray")
    if np.any(~np.any(R != 0.0, axis=1)):
        raise ConeError("every ray must be nonzero")
    return Cone(R.shape[1], GENERATED, R)


def inequalities(normals):
    A = _finite(np.atleast_2d(np.asarray(normals, dtype=float)), "every inequality normal")
    if A.shape[0] < 1:
        raise ConeError("inequality cone needs at least one normal")
    if np.any(~np.any(A != 0.0, axis=1)):
        raise ConeError("every inequality normal must be nonzero")
    return Cone(A.shape[1], INEQUALITIES, A)


def _check_dim(cone, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.dim,):
        raise ConeError(f"expected a vector of length {cone.dim}, got shape {x.shape}")
    return _finite(x, "point")


def contains(cone, x, tol=DEFAULT_TOL):
    """Membership test, up to a relative tolerance with absolute floor."""
    x = _check_dim(cone, x)
    xnorm = float(np.linalg.norm(x))
    if cone.kind == ORTHANT:
        thr = max(tol * max(1.0, xnorm), ABS_FLOOR)
        return bool(np.all(x >= -thr))
    A = cone.normals
    if A is not None:
        thr = np.maximum(tol * cone.normal_norms * xnorm, ABS_FLOOR)
        return bool((A @ x >= -thr).all())
    # generated: feasibility of x = R^T t, t >= 0
    residual, _ = l1_fit(cone.rays.T, x)
    return residual <= max(tol * max(1.0, xnorm), ABS_FLOOR)


_DUAL_KIND = {HALFSPACE: GENERATED, GENERATED: INEQUALITIES, INEQUALITIES: GENERATED}


def dual(cone):
    """The dual cone K* = {z : <x, z> >= 0 for all x in K}.

    The orthant is self-dual; otherwise the normals of K become the rays of
    K* and the rays of K its normals, with the same vector list.
    """
    if cone.kind == ORTHANT:
        return cone
    vectors = cone.normals if cone.normals is not None else cone.rays
    return Cone(cone.dim, _DUAL_KIND[cone.kind], vectors)


def _rays(cone, what):
    """The cone's rays; `what` names the caller in the error raised for a
    cone described by inequalities only."""
    if cone.rays is None:
        raise UnsupportedConeError(f"{what} needs an orthant or generated cone, got {cone.kind}")
    return cone.rays


def project(cone, a):
    """Euclidean projection onto the cone (orthant / half-space / single ray)."""
    a = _check_dim(cone, a)
    if cone.kind == ORTHANT:
        return np.maximum(a, 0.0)
    if cone.normals is not None and len(cone.normals) == 1:
        u = cone.normals[0]
        s = u @ a
        if s >= 0.0:
            return a.copy()
        return a - (s / (u @ u)) * u
    if cone.rays is not None and len(cone.rays) == 1:
        u = cone.rays[0]
        t = max(0.0, (u @ a) / (u @ u))
        return t * u
    raise UnsupportedConeError(
        f"projection onto a {cone.kind} cone with {len(cone.vectors)} "
        "defining vectors is not supported"
    )


def distance(cone, a):
    """Euclidean distance from a to the cone; same kind support as project."""
    a = _check_dim(cone, a)
    return float(np.linalg.norm(a - project(cone, a)))


def moreau_decompose(cone, a):
    """Split a = p_K(a) + p_{K#}(a) with K# = -K* the polar cone.

    Both parts are obtained by projection (using p_{-C}(a) = -p_C(-a) for the
    polar), and the orthogonal-sum identity is verified before returning.
    """
    a = _check_dim(cone, a)
    p_cone = project(cone, a)
    p_polar = -project(dual(cone), -a)
    scale = 1.0 + float(np.linalg.norm(a))
    if np.linalg.norm(a - p_cone - p_polar) > 1e-10 * scale:
        raise ConeError("Moreau decomposition failed to reconstruct the input")
    if abs(p_cone @ p_polar) > 1e-10 * scale * scale:
        raise ConeError("Moreau parts are not orthogonal")
    return p_cone, p_polar


def _inequality_interior_point(A):
    """A point x with A x >= 1, or None when there is none (an LP)."""
    m, d = A.shape
    # A(p - q) - s = 1 with p, q, s >= 0
    y = nonneg_solution(np.hstack([A, -A, -np.eye(m)]), np.ones(m))
    return None if y is None else y[:d] - y[d:2 * d]


def has_interior(cone):
    """Whether the cone has non-empty interior.

    Orthants and half-spaces always do; an inequality cone is tested by the
    feasibility of A x >= 1 (an LP), a generated cone by the rank of its ray
    matrix.
    """
    if cone.kind in (ORTHANT, HALFSPACE):
        return True
    if cone.kind == INEQUALITIES:
        return _inequality_interior_point(cone.vectors) is not None
    sv = np.linalg.svd(cone.vectors, compute_uv=False)
    rank = int(np.sum(sv > RANK_TOL * sv[0])) if sv.size and sv[0] > 0 else 0
    return rank == cone.dim


def strictly_contains(cone, x):
    """Whether x lies in the topological interior of the cone."""
    x = _check_dim(cone, x)
    scale = max(1.0, float(np.linalg.norm(x)))
    A = cone.normals
    if A is not None:
        return bool((A @ x > ABS_FLOOR * cone.normal_norms * scale).all())
    # generated cone: interior needs full-dimensionality plus slack in every
    # axis direction; tested by perturbed memberships.
    if not has_interior(cone):
        return False
    eps = 1e-8 * scale
    for j in range(cone.dim):
        e = np.zeros(cone.dim)
        e[j] = eps
        if not contains(cone, x + e, tol=1e-12) or not contains(cone, x - e, tol=1e-12):
            return False
    return True


def interior_vector(cone):
    """A canonical point of the cone's interior.

    All-ones for the orthant and the normal for a half-space; for the other
    kinds an interior point is constructed (LP for inequalities, ray sum for
    generated cones).
    """
    if cone.kind == ORTHANT:
        return np.ones(cone.dim)
    if cone.kind == HALFSPACE:
        return cone.vectors.copy()
    if cone.kind == INEQUALITIES:
        v = _inequality_interior_point(cone.vectors)
    else:
        # generated, full rank: a positive combination of spanning rays is interior
        v = cone.vectors.sum(axis=0) if has_interior(cone) else None
    if v is None:
        raise ConeError("cone has empty interior")
    return v


def contains_shifted(cone, v, delta, x, tol=DEFAULT_TOL):
    """Membership of x in the shifted cone K + delta*v for interior v."""
    v = _check_dim(cone, v)
    x = _check_dim(cone, x)
    if not strictly_contains(cone, v):
        raise ConeError("shift vector v must lie in the interior of the cone")
    return contains(cone, x - delta * v, tol=tol)
