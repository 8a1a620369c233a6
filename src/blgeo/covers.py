"""Uniform covers of [n] and the Bollobas-Thomason inequality with its dual.

An s-uniform cover is a multiset of nonempty proper subsets of [n]
hitting each element exactly s times.  The nonempty intersections over
all sign patterns of the cover sets partition [n] (the induced 1-uniform
cover); they are the classes of elements with equal membership
signatures, and their coordinate subspaces are exactly the independent
subspaces of the datum the cover generates.

The primal inequality |K|^s <= prod |P_{sigma_i} K| is checked exactly
on voxel bodies (cell counts are integers, projections are sets of
integer tuples), and equality holds precisely when K is the direct sum
of its projections onto the induced partition blocks; K always lies in
that product, so comparing cell counts decides it.  The dual inequality
|K|^s >= (prod |sigma_i|! / (n!)^s) prod |K cap E_{sigma_i}| runs on
V-polytopes with the origin strictly inside; volumes and coordinate
sections come from facet enumeration at n <= 4, and equality holds
precisely when K is the convex hull of its sections by the induced
partition subspaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapError, InputError, InternalError, as_array, as_int, read

BODY_MAX_DIM = 4
VOLUME_RTOL = 1e-9  # relative round-off allowed in hull volumes


@dataclass(frozen=True)
class UniformCover:
    """Cover of [n] = {1..n} by nonempty subsets, each element hit exactly s times.

    The full set [n] is allowed as a member (it contributes the whole
    space as one of the subspaces); empty sets are rejected.  Uniformity
    is checked at construction, so every UniformCover is s-uniform.  The
    sets must hold s * n elements in all, which is checked before
    anything of size n is built: n can be far larger than its file.
    """

    n: int
    s: int
    sets: tuple  # of frozenset[int]

    def __post_init__(self):
        if self.n < 1:
            raise InputError("ground set must be nonempty")
        if self.s < 1:
            raise InputError("multiplicity s must be >= 1")
        sets = tuple(frozenset(as_int(j, "cover set element") for j in sigma)
                     for sigma in self.sets)
        if not sets:
            raise InputError("cover needs at least one set")
        for sigma in sets:
            if not sigma:
                raise InputError("cover sets must be nonempty")
            if not 1 <= min(sigma) <= max(sigma) <= self.n:
                raise InputError(f"cover set {sorted(sigma)} is not a subset of [{self.n}]")
        total = sum(map(len, sets))
        if total != self.s * self.n:
            raise InputError(f"cover is not {self.s}-uniform: its sets hold {total} elements, "
                             f"not s * n = {self.s * self.n}")
        counts = [0] * self.n
        for sigma in sets:
            for j in sigma:
                counts[j - 1] += 1
        if any(m != self.s for m in counts):
            raise InputError(f"cover is not {self.s}-uniform (multiplicities {tuple(counts)})")
        object.__setattr__(self, "sets", sets)

    @property
    def k(self) -> int:
        return len(self.sets)

    def to_json(self) -> dict:
        return {"n": self.n, "s": self.s, "sets": [sorted(sigma) for sigma in self.sets]}

    @staticmethod
    def from_json(obj) -> "UniformCover":
        obj = read(obj, {"n": float, "s": float, "sets": [[float]]}, "cover")
        return UniformCover(as_int(obj["n"], "cover n"), as_int(obj["s"], "cover s"),
                            tuple(obj["sets"]))


def induced_one_cover(c: UniformCover) -> tuple:
    """The partition of [n] into the nonempty sign-pattern intersections.

    Element j lies in cap_i sigma_i^(eps(i)) exactly when its membership
    signature (j in sigma_1, ..., j in sigma_k) is eps, so grouping [n]
    by signature gives every block in O(nk).  Blocks come out sorted by
    minimum element, since j runs upward.
    """
    blocks = {}
    for j in range(1, c.n + 1):
        blocks.setdefault(tuple(j in sigma for sigma in c.sets), []).append(j)
    return tuple(frozenset(b) for b in blocks.values())


# ---------------------------------------------------------------------------
# voxel bodies and the primal inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VoxelBody:
    """Finite union of unit cells of the integer lattice in R^n, n <= 4."""

    n: int
    cells: frozenset  # of int tuples

    def __post_init__(self):
        if not (1 <= self.n <= BODY_MAX_DIM):
            raise CapError("voxel dimension", BODY_MAX_DIM, self.n)
        cells = frozenset(tuple(as_int(x, "voxel cell coordinate") for x in cell)
                          for cell in self.cells)
        if not cells:
            raise InputError("voxel body must be nonempty")
        for cell in cells:
            if len(cell) != self.n:
                raise InputError(f"cell {cell} does not have {self.n} coordinates")
        object.__setattr__(self, "cells", cells)

    def to_json(self) -> dict:
        return {"n": self.n, "cells": sorted(list(c) for c in self.cells)}

    @staticmethod
    def from_json(obj) -> "VoxelBody":
        obj = read(obj, {"n": float, "cells": [[float]]}, "body")
        return VoxelBody(as_int(obj["n"], "body n"), frozenset(map(tuple, obj["cells"])))


def _project_cells(cells, axes) -> frozenset:
    return frozenset(tuple(cell[a] for a in axes) for cell in cells)


@dataclass(frozen=True)
class BTCheckResult:
    lhs: int
    rhs: int
    holds: bool
    equality: bool
    induced_partition: tuple
    split_certificate: object  # {"block", "cells"} per block when equality holds, else None


def bt_check(K: VoxelBody, c: UniformCover) -> BTCheckResult:
    """|K|^s against prod |P_{sigma_i} K| in exact integer arithmetic.

    Equality is decided structurally: K always lies in the product of its
    projections onto the induced partition blocks, so K is that product
    exactly when their cell counts agree.  A numeric tie without a
    matching split (or vice versa) cannot happen for voxel bodies and is
    reported as an internal error.
    """
    if K.n != c.n:
        raise InputError("body and cover dimensions differ")
    vol = len(K.cells)
    lhs = vol ** c.s
    rhs = 1
    for sigma in c.sets:
        rhs *= len(_project_cells(K.cells, [j - 1 for j in sorted(sigma)]))
    partition = induced_one_cover(c)
    projections = [_project_cells(K.cells, [j - 1 for j in sorted(b)]) for b in partition]
    equality = math.prod(map(len, projections)) == vol
    if equality != (lhs == rhs):
        raise InternalError("voxel equality certificate disagrees with the integer values")
    return BTCheckResult(
        lhs=lhs,
        rhs=rhs,
        holds=lhs <= rhs,
        equality=equality,
        induced_partition=partition,
        split_certificate=tuple({"block": block, "cells": cells}
                                for block, cells in zip(partition, projections))
        if equality else None,
    )


# ---------------------------------------------------------------------------
# polytopes and the dual inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointPolytope:
    """Convex hull of finitely many points in R^n, n <= 4."""

    n: int
    vertices: tuple  # of coordinate tuples

    def __post_init__(self):
        if not (1 <= self.n <= BODY_MAX_DIM):
            raise CapError("polytope dimension", BODY_MAX_DIM, self.n)
        V = as_array(self.vertices, (None, self.n), "polytope vertices")
        if V.shape[0] < self.n + 1:
            raise InputError(f"need at least {self.n + 1} vertices of dimension {self.n}")
        if not np.all(np.isfinite(V)):
            raise InputError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", tuple(tuple(map(float, v)) for v in V))

    def points(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def to_json(self) -> dict:
        return {"n": self.n, "vertices": [list(v) for v in self.vertices]}

    @staticmethod
    def from_json(obj) -> "PointPolytope":
        obj = read(obj, {"n": float, "vertices": [[float]]}, "polytope")
        return PointPolytope(as_int(obj["n"], "polytope n"), tuple(map(tuple, obj["vertices"])))


def _hull_volume(points: np.ndarray) -> float:
    """Volume of conv(points) in its own dimension (0 for degenerate input)."""
    dim = points.shape[1]
    if dim == 1:
        return float(points.max() - points.min())
    from scipy.spatial import ConvexHull, QhullError  # lazy, for a fast cold start
    try:
        return float(ConvexHull(points).volume)
    except QhullError:
        return 0.0


def _facets(points: np.ndarray):
    """Facet inequalities a.x <= b of the hull, derived from the vertices."""
    if points.shape[1] == 1:  # an interval: x <= max and -x <= -min
        return np.array([[1.0], [-1.0]]), np.array([points.max(), -points.min()])
    from scipy.spatial import ConvexHull, QhullError  # lazy, for a fast cold start
    try:
        eq = ConvexHull(points).equations
    except QhullError as exc:
        raise InputError("qhull cannot take the facets of the polytope") from exc
    return eq[:, :-1], -eq[:, -1]


def _origin_interior(A: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(b > 1e-9 * np.maximum(1.0, np.linalg.norm(A, axis=1))))


def _section_vertices(A: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """Vertices of {x : A x <= b} cap the coordinate subspace of `axes`.

    Substituting zero for the other coordinates leaves an H-polytope in
    the section coordinates with the origin still interior; its vertices
    come from halfspace intersection (interval endpoints in dimension 1).
    """
    Asub = A[:, axes]
    keep = np.linalg.norm(Asub, axis=1) > 1e-12
    Asub, bsub = Asub[keep], b[keep]
    d = len(axes)
    if d == 1:
        a = Asub[:, 0]
        ub = np.min(bsub[a > 1e-12] / a[a > 1e-12])
        lb = np.max(bsub[a < -1e-12] / a[a < -1e-12])
        return np.array([[lb], [ub]])
    from scipy.spatial import HalfspaceIntersection, QhullError  # lazy, for a fast cold start
    try:
        return HalfspaceIntersection(np.column_stack([Asub, -bsub]), np.zeros(d)).intersections
    except QhullError as exc:
        raise InputError("qhull cannot take a coordinate section of the polytope") from exc


def _embed(points: np.ndarray, axes, n: int) -> np.ndarray:
    out = np.zeros((points.shape[0], n))
    out[:, axes] = points
    return out


@dataclass(frozen=True)
class DualBTCheckResult:
    lhs: float
    rhs: float
    factor: float        # prod |sigma_i|! / (n!)^s
    section_volumes: tuple
    holds: bool
    equality: bool
    conv_certificate: object  # {"block", "vertices"} per block when equality holds, else None


def dual_bt_check(K: PointPolytope, c: UniformCover) -> DualBTCheckResult:
    """|K|^s against (prod |sigma_i|!/(n!)^s) prod |K cap E_{sigma_i}|.

    Requires the origin strictly inside K.  Equality is decided by
    rebuilding conv of the sections over the induced partition and
    comparing volumes to relative VOLUME_RTOL (the hull of sections is
    always contained in K, so volume equality is set equality).
    """
    if K.n != c.n:
        raise InputError("polytope and cover dimensions differ")
    pts = K.points()
    if np.linalg.matrix_rank(pts - pts[0], tol=1e-9) < K.n:
        raise InputError("polytope must affinely span R^n")
    A, b = _facets(pts)
    if not _origin_interior(A, b):
        raise InputError("the origin must lie strictly inside the polytope")

    vol = _hull_volume(pts)
    lhs = vol ** c.s
    factor = 1.0
    for sigma in c.sets:
        factor *= math.factorial(len(sigma))
    factor /= math.factorial(K.n) ** c.s
    section_vols = []
    for sigma in c.sets:
        axes = [j - 1 for j in sorted(sigma)]
        section_vols.append(_hull_volume(_section_vertices(A, b, axes)))
    rhs = factor * float(np.prod(section_vols))
    holds = lhs >= rhs * (1.0 - VOLUME_RTOL)

    partition = induced_one_cover(c)
    cert = []
    for block in partition:
        axes = [j - 1 for j in sorted(block)]
        cert.append({"block": block, "vertices": _embed(_section_vertices(A, b, axes), axes, K.n)})
    hull_of_sections = _hull_volume(np.concatenate([piece["vertices"] for piece in cert]))
    equality = abs(hull_of_sections - vol) <= VOLUME_RTOL * max(vol, 1e-300)

    return DualBTCheckResult(
        lhs=float(lhs),
        rhs=float(rhs),
        factor=float(factor),
        section_volumes=tuple(float(v) for v in section_vols),
        holds=bool(holds),
        equality=bool(equality),
        conv_certificate=tuple(cert) if equality else None,
    )
