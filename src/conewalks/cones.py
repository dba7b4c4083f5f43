"""Closed convex cones: three representations, duality, membership, projections.

A cone is kept in whichever of the three descriptions it was built from:

* ``orthant``       -- the nonnegative orthant Q = (R+)^d
* ``generated``     -- {sum_i t_i r_i : t >= 0} for finitely many rays r_i
* ``inequalities``  -- {x : <a_i, x> >= 0 for all i}

A half-space {x : <u, x> >= 0} is the inequality cone of the one normal u
(`halfspace`).

Every cone carries the two descriptions the rate formulas read: ``normals``,
the rows a_i with K = {x : A x >= 0}, and ``rays``, the rows r_i with
K = {R^T t : t >= 0} (a dual cone's parametrization for the solver and the
LPs). The one a cone was built from is kept as given, the orthant's identity
serving as both; the other is derived on first read by facet enumeration
(`_generators`), in every dimension, from signed cofactors of (d - 1)-subsets
of the given vectors. An enumeration over more than MAX_SUBSETS subsets is
refused with ``UnsupportedConeError``. Dualizing swaps the two descriptions
and transcribes the given vectors, so dual(dual(K)) is K.

Membership is read from the normals by one rule, written once, on rows of
points (`_contains_rows`): x is in K when every <a_i, x> >= -max(tol |a_i|
|x|, ABS_FLOOR) (on the orthant, x_i >= -max(tol max(1, |x|), ABS_FLOOR)),
and interior when every <a_i, x> > ABS_FLOOR |a_i| max(1, |x|)
(`_strictly_contains_rows`); `contains` and `strictly_contains` take one
point. `_membership_violation`, the largest -<a_i, y> / |a_i|, is the KKT
residual and the Monte Carlo start test.

Whether a cone has interior is read from its rays alone, by one rule for
every kind: it has interior exactly when its rays span R^d, and its interior
vector is the sum of its rays scaled to unit l1 norm. Norms and cosines are
formed on rows scaled by powers of two into [1, 2) (`_simplex.scale_rows`),
so both rules, and the cosine and rank tests of the enumeration, give the
same verdicts for vectors scaled by any c > 0 whose derived vectors stay
normal doubles; an enumeration whose cofactors would not is refused.
Projections exist only for the cones the rate formulas need (orthant,
half-space, single ray), and read the one vector at unit scale, scaled as
`scale_rows` scales it, so that |u|^2 neither under- nor overflows;
everything else raises ``UnsupportedConeError``.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._simplex import scale_rows

ORTHANT = "orthant"
GENERATED = "generated"
INEQUALITIES = "inequalities"

# Absolute floor added to every relative membership tolerance; keeps apex
# membership exact while allowing scaled slack for large vectors.
ABS_FLOOR = 1e-12
DEFAULT_TOL = 1e-9

# Relative rank threshold: `_generators` takes a cosine this small as zero, and
# the span tests of `steps` cut singular values and eigenvalues at it.
RANK_TOL = 1e-10

# Budget of one facet enumeration, checked before any work: the (d - 1)-
# subsets of vectors it visits, and the entries of the d minors of size
# d - 1 it eliminates per subset. 21 normals of full rank in R^7 (54264
# subsets, 13.7M entries) take about 1.1 s; the entry budget binds from
# d = 8 on. _CHUNK_ENTRIES entries are eliminated at a time, and as many
# cosines formed at a time, so the minors and the cosines take a few MB.
MAX_SUBSETS = 2**16
MAX_MINOR_ENTRIES = 2**24
_CHUNK_ENTRIES = 2**18


class ConeError(ValueError):
    """Invalid cone construction or argument."""


class UnsupportedConeError(ConeError):
    """Operation not available for this cone representation."""


@dataclass(frozen=True, eq=False)
class Cone:
    """A closed convex cone in R^dim; see the module docstring for kinds.

    ``vectors`` holds the defining data: rays or inequality normals as shape
    (k, d), and None for the orthant.
    ``normals`` and ``rays`` are the two descriptions, shape (k, d): the one
    the cone was built from as given, the other derived when first read;
    ``normal_norms`` holds the Euclidean norm of each normal, which scales
    the membership tolerances. All four arrays are read-only, and the
    constructors copy their input, so a cone never changes after it is built.
    """

    dim: int
    kind: str
    vectors: np.ndarray | None = None

    @cached_property
    def normals(self):
        if self.kind == GENERATED:
            return _read_only(_generators(self.vectors))
        return self.rays if self.kind == ORTHANT else self.vectors

    @cached_property
    def rays(self):
        if self.kind != ORTHANT:
            return self.vectors if self.kind == GENERATED else _read_only(_generators(self.normals))
        return _read_only(np.eye(self.dim))

    @cached_property
    def normal_norms(self):
        return _read_only(_norms(self.normals))

    @cached_property
    def _interior_point(self):
        """`interior_vector`'s point, or None when the rays do not span R^d."""
        R = self.rays
        if _rank(R) < self.dim:
            return None
        U = R / np.abs(R).sum(axis=1)[:, None]
        return np.array([math.fsum(column) for column in U.T])

    def __repr__(self):
        if self.kind == ORTHANT:
            return f"Cone(orthant, dim={self.dim})"
        return f"Cone({self.kind}, dim={self.dim}, vectors={self.vectors.tolist()})"


def _read_only(a):
    a.flags.writeable = False
    return a


def _finite(a, what):
    if not np.isfinite(a).all():
        raise ConeError(f"{what} must be finite, got {a.tolist()}")
    return a


def orthant(dim):
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral) or dim < 1:
        raise ConeError(f"cone dimension must be an integer >= 1, got {dim!r}")
    return Cone(int(dim), ORTHANT)


def halfspace(u):
    if np.ndim(u) != 1:
        raise ConeError("half-space normal must be a vector")
    return inequalities([u])


def _cone_vectors(vectors, what):
    """The rows as a read-only float copy: vectors, finite, at least one, none zero."""
    V = _finite(np.atleast_2d(np.array(vectors, dtype=float)), f"every {what}")
    if V.ndim != 2:
        raise ConeError(f"every {what} must be a vector, got an array of shape {V.shape}")
    if V.shape[0] < 1:
        raise ConeError(f"cone needs at least one {what}")
    if not V.any(axis=1).all():
        raise ConeError(f"every {what} must be nonzero")
    return _read_only(V)


def generated(rays):
    R = _cone_vectors(rays, "ray")
    return Cone(R.shape[1], GENERATED, R)


def inequalities(normals):
    A = _cone_vectors(normals, "inequality normal")
    return Cone(A.shape[1], INEQUALITIES, A)


def _dets(M):
    """Determinants of a stack of k x k matrices by Bareiss's fraction-free
    elimination with partial pivoting: every entry it forms is a minor of M,
    so integer matrices give their exact integer determinants (below 2^53).
    A zero pivot leaves column p zero from row p down: the block below it
    becomes zero, and so does the determinant."""
    b, k = M.shape[:2]
    if k == 0:
        return np.ones(b)
    M, sign, prev, lanes = M.copy(), np.ones(b), np.ones(b), np.arange(b)
    for p in range(k - 1):
        q = p + np.abs(M[:, p:, p]).argmax(axis=1)
        M[lanes, p], M[lanes, q] = M[lanes, q], M[lanes, p]
        sign[q != p] *= -1.0
        pivot = M[:, p, p]
        M[:, p + 1:, p + 1:] = ((pivot[:, None, None] * M[:, p + 1:, p + 1:]
                                 - M[:, p + 1:, p, None] * M[:, p, None, p + 1:])
                                / prev[:, None, None])
        prev = np.where(pivot == 0.0, 1.0, pivot)
    return sign * M[:, k - 1, k - 1]


def _perps(W):
    """For each d - 1 rows of W (in `itertools.combinations` order) that are
    independent, the vector z with <z, x> = det([rows; x]): the rows' signed
    cofactors, each a (d - 1)-minor from `_dets`. Rows are dependent when |z|
    is at most RANK_TOL times the product of their norms (Hadamard's bound).
    Past MAX_SUBSETS subsets or MAX_MINOR_ENTRIES entries, or where that
    bound leaves the normal doubles (vectors far from scale 1 in R^3 and up,
    whose cofactors would under- or overflow), it refuses before any work."""
    n, d = W.shape
    count = math.comb(n, d - 1)
    per_subset = d * (d - 1) ** 2
    if count > MAX_SUBSETS or count * per_subset > MAX_MINOR_ENTRIES:
        raise UnsupportedConeError(
            f"facet enumeration over {n} vectors in dimension {d} needs {count} subsets "
            f"and {count * per_subset} minor entries, above the budget of "
            f"{MAX_SUBSETS} subsets and {MAX_MINOR_ENTRIES} entries")
    subsets = np.array(list(itertools.combinations(range(n), d - 1)), np.intp).reshape(count, d - 1)
    norms, bound = _norms(W), np.full(count, RANK_TOL)
    with np.errstate(over="ignore"):
        for col in subsets.T:
            bound = bound * norms[col]
    if not ((bound >= np.finfo(float).tiny) & (bound < np.inf)).all():
        raise UnsupportedConeError(
            f"facet enumeration in dimension {d} multiplies {d - 1} vector norms, "
            "which leaves the range of doubles at the scale of these vectors")
    keep = np.array([[c for c in range(d) if c != j] for j in range(d)], dtype=np.intp)
    signs = (-1.0) ** (d - 1 + np.arange(d))
    Z = np.empty((count, d))
    chunk = max(1, _CHUNK_ENTRIES // max(1, per_subset))
    for lo in range(0, count, chunk):
        rows = W[subsets[lo:lo + chunk]]
        minors = rows[:, :, keep].transpose(0, 2, 1, 3)  # (subset, column j, d - 1, d - 1)
        dets = _dets(minors.reshape(len(rows) * d, d - 1, d - 1))
        Z[lo:lo + chunk] = dets.reshape(len(rows), d) * signs
    return Z[_norms(Z) > bound]


def _first_along(Z, fold):
    """The rows of Z at cosine below 1 - RANK_TOL from every row kept before
    them, the cosines folded by `fold` (np.abs compares lines, not
    directions). Memory grows with the rows kept, not with Z's rows squared."""
    U = Z / _norms(Z)[:, None]
    kept = []
    for i, u in enumerate(U):
        if (fold(U[kept] @ u) < 1.0 - RANK_TOL).all():
            kept.append(i)
    return Z[kept]


def _norms(M):
    """The Euclidean norms of the rows of M, formed on the rows scaled by
    powers of two into [1, 2), as `_simplex.scale_rows` scales them, so that
    no square under- or overflows: the bits of np.linalg.norm(M, axis=1)
    (the same sqrt of a sum of squares) wherever its squares stay normal."""
    _, e = np.frexp(np.abs(M).max(axis=1, initial=0.0))
    S = np.ldexp(M, (1 - e)[:, None])
    return np.ldexp(np.sqrt(np.add.reduce(S * S, axis=1)), e - 1)


def _rank(M):
    """Numerical rank of the rows of M as directions: the singular values of
    the rows scaled to unit length that exceed RANK_TOL times the largest."""
    sv = np.linalg.svd(M / _norms(M)[:, None], compute_uv=False)
    return int(np.sum(sv > RANK_TOL * sv[0])) if sv.size else 0


def _generators(V):
    """Generators of {z : V z >= 0}, V of shape (m, d): plus and minus a
    basis of ker V, then one vector on each extreme ray. Both are `_perps`:
    the basis, d - rank V independent vectors among those of d - 1 rows of V
    and the unit vectors that lie in ker V; an extreme ray, of d - 1 rows of
    V and the basis. Integer input gives integer output (facet enumeration
    over every (d - 1)-subset; Fukuda & Prodon, "Double description method
    revisited", 1996)."""
    d = V.shape[1]
    V1 = scale_rows(V)
    V1_norms = _norms(V1)
    rows = max(1, _CHUNK_ENTRIES // len(V1))

    def cos_range(Z):
        """The least and the largest cosine of each row of Z with V's rows,
        from rows scaled into [1, 2), whose products stay normal doubles; the
        cosines are formed for ``rows`` rows of Z at a time."""
        lo, hi = np.empty(len(Z)), np.empty(len(Z))
        for a in range(0, len(Z), rows):
            Z1 = scale_rows(Z[a:a + rows])
            c = (Z1 @ V1.T) / np.outer(_norms(Z1), V1_norms)
            lo[a:a + rows], hi[a:a + rows] = c.min(axis=1), c.max(axis=1)
        return lo, hi

    lineality, K = d - _rank(V), np.zeros((0, d))
    if lineality:
        Z = _perps(np.vstack([V, np.eye(d)]))
        lo, hi = cos_range(Z)
        for z in _first_along(Z[np.maximum(-lo, hi) <= RANK_TOL], np.abs):
            if len(K) < lineality and _rank(np.vstack([K, z])) > len(K):
                K = np.vstack([K, z])
    Z = _perps(np.vstack([V, K]))
    # each candidate is tried with both signs; cos(-Z) is -cos(Z) exactly
    lo, hi = cos_range(Z)
    Z = np.vstack([Z[(lo >= -RANK_TOL) & (hi > RANK_TOL)], -Z[(hi <= RANK_TOL) & (lo < -RANK_TOL)]])
    rays = _first_along(Z, np.asarray)
    return np.vstack([K, -K, rays]) + 0.0  # + 0.0 turns -0.0 into 0.0


def require_dim(cone, dim):
    """Refuse a cone that does not live in R^dim, the model's space."""
    if cone.dim != dim:
        raise ConeError(f"cone dimension {cone.dim} differs from the model's dimension {dim}")


def _check_dim(cone, x):
    x = np.asarray(x, dtype=float)
    if x.shape != (cone.dim,):
        raise ConeError(f"expected a vector of length {cone.dim}, got shape {x.shape}")
    return _finite(x, "point")


def contains(cone, x, tol=DEFAULT_TOL):
    """Membership test, up to a relative tolerance with absolute floor."""
    return bool(_contains_rows(cone, _check_dim(cone, x)[None], tol)[0])


def _contains_rows(cone, X, tol=DEFAULT_TOL):
    """The membership rule on every row of X at once, for rows the caller
    knows to be finite and of length `cone.dim`."""
    xnorm = np.sqrt(np.add.reduce(X * X, axis=1))
    if cone.kind == ORTHANT:
        thr = np.maximum(tol * np.maximum(1.0, xnorm), ABS_FLOOR)
        return np.logical_and.reduce(X >= -thr[:, None], axis=1)
    thr = np.maximum(tol * cone.normal_norms * xnorm[:, None], ABS_FLOOR)
    return np.logical_and.reduce(X @ cone.normals.T >= -thr, axis=1)


def _membership_violation(cone, y):
    """How far y lies outside the cone: the largest -<a_i, y> / |a_i| over
    its normals a_i, and 0 for y in the cone."""
    slack = (cone.normals @ y) / cone.normal_norms
    return max(0.0, -float(slack.min(initial=0.0)))


_DUAL_KIND = {GENERATED: INEQUALITIES, INEQUALITIES: GENERATED}


def dual(cone):
    """The dual cone K* = {z : <x, z> >= 0 for all x in K}.

    The orthant is self-dual; otherwise the given normals of K become the
    rays of K* and the given rays of K its normals, the same vector list.
    """
    if cone.kind == ORTHANT:
        return cone
    return Cone(cone.dim, _DUAL_KIND[cone.kind], cone.vectors)


def project(cone, a):
    """Euclidean projection onto the cone (orthant / half-space / single
    ray); a half-space's normal or the ray is read scaled into [1, 2)."""
    a = _check_dim(cone, a)
    if cone.kind == ORTHANT:
        return np.maximum(a, 0.0)
    if len(cone.vectors) == 1:
        u = scale_rows(cone.vectors)[0]
        t = (u @ a) / (u @ u)
        if cone.kind == GENERATED:
            return max(0.0, t) * u
        return a.copy() if t >= 0.0 else a - t * u
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


def has_interior(cone):
    """Whether the cone has non-empty interior: whether its rays have rank d
    (decided once per cone)."""
    return cone._interior_point is not None


def require_interior(cone, what):
    """Refuse a cone whose rays do not span R^d: its dual then holds a line,
    and neither the rate formula nor the H2' LP applies to it. On an
    inequality cone this derives the rays (`_generators`), so
    it may also refuse with ``UnsupportedConeError`` past the enumeration
    budget."""
    if not has_interior(cone):
        raise ConeError(f"{what} needs a cone with non-empty interior, got {cone!r}")


def strictly_contains(cone, x):
    """Whether x lies in the topological interior of the cone."""
    return bool(_strictly_contains_rows(cone, _check_dim(cone, x)[None])[0])


def _strictly_contains_rows(cone, X):
    """The interior rule on every row of X at once, as `_contains_rows`."""
    scale = np.maximum(1.0, np.sqrt(np.add.reduce(X * X, axis=1)))
    return np.logical_and.reduce(X @ cone.normals.T > ABS_FLOOR * cone.normal_norms * scale[:, None],
                                 axis=1)


def interior_vector(cone):
    """A canonical point of the cone's interior: the `math.fsum` of its
    rays, each scaled to unit l1 norm.

    All-ones on the orthant. A lineality direction enters with both signs and
    cancels exactly, so on a half-space this is the normal scaled to unit l1
    norm. It does not depend on the order of the rays, and scaling the given
    vectors moves it only by the rounding of the derived rays.
    """
    v = cone._interior_point
    if v is None:
        raise ConeError("cone has empty interior")
    return v.copy()

