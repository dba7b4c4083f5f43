"""Closed convex cones: four representations, duality, membership, projections.

A cone is kept in whichever of the four descriptions it was built from:

* ``orthant``       -- the nonnegative orthant Q = (R+)^d
* ``halfspace``     -- {x : <u, x> >= 0} for a nonzero normal u
* ``generated``     -- {sum_i t_i r_i : t >= 0} for finitely many rays r_i
* ``inequalities``  -- {x : <a_i, x> >= 0 for all i}

Every cone carries the two descriptions the rate formulas read: ``normals``,
the rows a_i with K = {x : A x >= 0} (membership, the KKT residual, the Monte
Carlo test), and ``rays``, the rows r_i with K = {R^T t : t >= 0} (a dual
cone's parametrization for the solver and the LPs). The one a cone was built
from is kept as given, the orthant's identity serving as both; the other is
derived on first read by facet enumeration, in closed form for d <= 3
(`_generators`), and refused with ``UnsupportedConeError`` above. Dualizing
swaps the two and transcribes the given vectors, so dual(dual(K)) is K.
Projections exist only for the cones the rate formulas need (orthant,
half-space, single ray); everything else raises ``UnsupportedConeError``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._simplex import nonneg_solution

ORTHANT = "orthant"
HALFSPACE = "halfspace"
GENERATED = "generated"
INEQUALITIES = "inequalities"

# Absolute floor added to every relative membership tolerance; keeps apex
# membership exact while allowing scaled slack for large vectors.
ABS_FLOOR = 1e-12
DEFAULT_TOL = 1e-9

# Relative rank threshold; `_generators` takes a cosine this small as zero.
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
    ``normals`` and ``rays`` are the two descriptions, shape (k, d): the one
    the cone was built from as given, the other derived when first read;
    ``normal_norms`` holds the Euclidean norm of each normal, which scales
    the membership tolerances.
    """

    dim: int
    kind: str
    vectors: np.ndarray | None = None

    @cached_property
    def normals(self):
        if self.kind == GENERATED:
            return _generators(self.vectors)
        return self.rays if self.kind == ORTHANT else self.vectors.reshape(-1, self.dim)

    @cached_property
    def rays(self):
        if self.kind != ORTHANT:
            return self.vectors if self.kind == GENERATED else _generators(self.normals)
        eye = np.eye(self.dim)
        eye.flags.writeable = False
        return eye

    @cached_property
    def normal_norms(self):
        norms = np.linalg.norm(self.normals, axis=1)
        norms.flags.writeable = False
        return norms

    @cached_property
    def _interior_point(self):
        """`interior_vector`'s point, or None when the interior is empty."""
        if self.kind in (ORTHANT, HALFSPACE):
            return np.ones(self.dim) if self.kind == ORTHANT else self.vectors
        if self.kind == INEQUALITIES:
            return _inequality_interior_point(self.vectors)
        # a positive combination of spanning rays is interior
        sv = np.linalg.svd(self.vectors, compute_uv=False)
        return self.vectors.sum(axis=0) if np.sum(sv > RANK_TOL * sv[0]) == self.dim else None

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


def _perps(W):
    """A vector orthogonal to each d - 1 independent rows of W (d <= 3): 1 in
    1-D, each row turned by a right angle in 2-D, the cross products of the
    non-parallel pairs of rows in 3-D."""
    if W.shape[1] < 3:
        return W[:, ::-1] * [-1.0, 1.0] if W.shape[1] == 2 else np.ones((1, 1))
    i, j = np.triu_indices(len(W), 1)
    Z, norms = np.cross(W[i], W[j]), np.linalg.norm(W, axis=1)
    return Z[np.linalg.norm(Z, axis=1) > RANK_TOL * norms[i] * norms[j]]


def _first_along(Z, fold):
    """The rows of Z at cosine below 1 - RANK_TOL from every earlier row, the
    cosines folded by `fold` (np.abs compares lines, not directions)."""
    U = Z / np.linalg.norm(Z, axis=1)[:, None]
    C = fold(U @ U.T)
    return Z[[i for i in range(len(Z)) if (C[i, :i] < 1.0 - RANK_TOL).all()]]


def _generators(V):
    """Generators of {z : V z >= 0}, V of shape (m, d) with d <= 3: plus and
    minus a basis of ker V, then one vector on each extreme ray. Both are
    `_perps`: a basis vector of d - 1 independent rows among V's and the unit
    vectors, an extreme ray of d - 1 among V's and the basis's, so integer
    input gives integer output (closed-form facet enumeration; Fukuda &
    Prodon, "Double description method revisited", 1996)."""
    d = V.shape[1]
    if d > 3:
        raise UnsupportedConeError(f"a cone in dimension {d} has only its given description")
    cos = lambda Z: (Z @ V.T) / np.outer(np.linalg.norm(Z, axis=1), np.linalg.norm(V, axis=1))
    Z = _perps(np.vstack([V, np.eye(d)]))
    K = _first_along(Z[np.abs(cos(Z)).max(axis=1) <= RANK_TOL], np.abs)[:d - 1]
    Z = _perps(np.vstack([V, K]))
    Z = np.vstack([Z, -Z])
    c = cos(Z)
    rays = _first_along(Z[(c.min(axis=1) >= -RANK_TOL) & (c.max(axis=1) > RANK_TOL)], np.asarray)
    return np.vstack([K, -K, rays]) + 0.0  # + 0.0 turns -0.0 into 0.0


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
    thr = np.maximum(tol * cone.normal_norms * xnorm, ABS_FLOOR)
    return bool((cone.normals @ x >= -thr).all())


_DUAL_KIND = {HALFSPACE: GENERATED, GENERATED: INEQUALITIES, INEQUALITIES: GENERATED}


def dual(cone):
    """The dual cone K* = {z : <x, z> >= 0 for all x in K}.

    The orthant is self-dual; otherwise the given normals of K become the
    rays of K* and the given rays of K its normals, the same vector list.
    """
    if cone.kind == ORTHANT:
        return cone
    return Cone(cone.dim, _DUAL_KIND[cone.kind], cone.vectors.reshape(-1, cone.dim))


def project(cone, a):
    """Euclidean projection onto the cone (orthant / half-space / single ray)."""
    a = _check_dim(cone, a)
    if cone.kind == ORTHANT:
        return np.maximum(a, 0.0)
    if cone.kind != GENERATED and len(cone.normals) == 1:
        u = cone.normals[0]
        s = u @ a
        if s >= 0.0:
            return a.copy()
        return a - (s / (u @ u)) * u
    if cone.kind == GENERATED and len(cone.rays) == 1:
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
    """Whether the cone has non-empty interior (decided once per cone)."""
    return cone._interior_point is not None


def require_interior(cone, what):
    """Refuse a cone without interior: its dual holds a line, and neither
    the rate formula nor the H2' LP applies to it."""
    if not has_interior(cone):
        raise ConeError(f"{what} needs a cone with non-empty interior, got {cone!r}")


def strictly_contains(cone, x):
    """Whether x lies in the topological interior of the cone."""
    x = _check_dim(cone, x)
    scale = max(1.0, float(np.linalg.norm(x)))
    return bool((cone.normals @ x > ABS_FLOOR * cone.normal_norms * scale).all())


def interior_vector(cone):
    """A canonical point of the cone's interior.

    All-ones for the orthant and the normal for a half-space; for the other
    kinds an interior point is constructed (LP for inequalities, ray sum for
    generated cones).
    """
    v = cone._interior_point
    if v is None:
        raise ConeError("cone has empty interior")
    return v.copy()


def contains_shifted(cone, v, delta, x, tol=DEFAULT_TOL):
    """Membership of x in the shifted cone K + delta*v for interior v."""
    v = _check_dim(cone, v)
    x = _check_dim(cone, x)
    if not strictly_contains(cone, v):
        raise ConeError("shift vector v must lie in the interior of the cone")
    return contains(cone, x - delta * v, tol=tol)
