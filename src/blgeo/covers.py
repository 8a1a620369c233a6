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
V-polytopes with the origin strictly inside, n <= 4, in exact rational
arithmetic: one exact hull of K (hull.py) gives its facets, extreme
points and volume; a section by a coordinate hyperplane is cut from its
triangulated boundary, a plane section in R^4 is the polar of the
projection of K's polar, and a line section is an interval.  Equality
holds precisely when K is the convex hull of its sections by the
induced partition subspaces F_j, which is so exactly when every extreme
point of K has its nonzero coordinates inside one block: then
K = conv(extreme points) lies in the hull of the sections, which lies
in K; and every extreme point of the hull of a compact set lies in the
set, here in one section K cap F_j.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from .errors import CapError, InputError, InternalError, as_array, as_int, read

BODY_MAX_DIM = 4
# the most vertices of a polytope in R^n.  The hull tests each vertex against
# every facet and makes an exact plane per facet it builds, and m vertices in
# R^n have at most 2, m, 2m - 4 and m(m - 3)/2 facets for n = 1..4 (the upper
# bound theorem), all of them on the moment curve, where the hull, volume and
# extreme points at each cap take 0.4 s or less on a shared 2-core machine
POLYTOPE_MAX_VERTICES = {1: 32768, 2: 4096, 3: 1024, 4: 128}


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
    """Each cell's coordinates on axes, as a tuple: a 1-tuple on one axis."""
    pick = itemgetter(*axes) if len(axes) > 1 else itemgetter(slice(axes[0], axes[0] + 1))
    return frozenset(map(pick, cells))


@dataclass(frozen=True)
class BTCheckResult:
    """The inequality is a theorem, so a result that does not hold is refused."""

    lhs: int
    rhs: int
    holds: bool
    equality: bool
    induced_partition: tuple
    split_certificate: object  # {"block", "cells"} per block when equality holds, else None

    def __post_init__(self):
        if not self.holds:
            raise InternalError(f"Bollobas-Thomason inequality violated: {self.lhs} > {self.rhs}")


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
    sizes = {sigma: len(_project_cells(K.cells, [j - 1 for j in sorted(sigma)]))
             for sigma in set(c.sets)}  # each distinct sigma projected once
    rhs = math.prod(sizes[sigma] for sigma in c.sets)
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
        import numpy as np  # only polytopes need it: bt and covers-induce run without

        if not (1 <= self.n <= BODY_MAX_DIM):
            raise CapError("polytope dimension", BODY_MAX_DIM, self.n)
        V = as_array(self.vertices, (None, self.n), "polytope vertices")
        if V.shape[0] > POLYTOPE_MAX_VERTICES[self.n]:
            raise CapError(f"polytope vertices in R^{self.n}", POLYTOPE_MAX_VERTICES[self.n],
                           V.shape[0])
        if V.shape[0] < self.n + 1:
            raise InputError(f"need at least {self.n + 1} vertices of dimension {self.n}")
        if not np.all(np.isfinite(V)):
            raise InputError("polytope vertices must be finite")
        object.__setattr__(self, "vertices", tuple(tuple(map(float, v)) for v in V))

    def points(self) -> np.ndarray:
        import numpy as np

        return np.asarray(self.vertices, dtype=float)

    def to_json(self) -> dict:
        return {"n": self.n, "vertices": [list(v) for v in self.vertices]}

    @staticmethod
    def from_json(obj) -> "PointPolytope":
        obj = read(obj, {"n": float, "vertices": [[float]]}, "polytope")
        return PointPolytope(as_int(obj["n"], "polytope n"), tuple(map(tuple, obj["vertices"])))


def _dyadic_rows(vertices) -> list:
    """The points as homogeneous integer rows (x 2^k, 2^k), one k for all:
    every double is a dyadic rational."""
    ratios = [[x.as_integer_ratio() for x in v] for v in vertices]
    den = max(q for row in ratios for _, q in row)
    return [tuple(p * (den // q) for p, q in row) + (den,) for row in ratios]


def _section_volume(hull, axes) -> Fraction:
    """|K cap E| for the coordinate subspace E of axes, K = {x : a.x <= b}
    over the primitive rows (a, -b) of the hull's planes, b > 0.

    A line section is the interval the planes cut.  A section by a
    hyperplane x_j = 0 is cut from K's triangulated boundary.  A plane
    section of K in R^4 is the polar of the projection onto E of
    K° = conv{a / b}, the polygon of the rows (a_E, b): (K cap E)° is
    that projection.
    """
    from .hull import polar_area  # see dual_bt_check

    planes = hull.planes
    if len(axes) == 1:
        return _reach(planes, axes[0], 1) + _reach(planes, axes[0], -1)
    if len(axes) == hull.d - 1:
        return hull.slice_volume(next(j for j in range(hull.d) if j not in axes))
    return polar_area(sorted({tuple(h[j] for j in axes) + (-h[-1],) for h in planes}))


def _reach(planes, j, sign) -> Fraction:
    """How far K = {x : a.x <= b} reaches along sign * e_j: the least
    b / (sign a_j) over the planes with sign a_j > 0."""
    best = None
    for h in planes:
        a, b = sign * h[j], -h[-1]
        if a > 0 and (best is None or b * best[1] < best[0] * a):
            best = b, a
    return Fraction(*best)


def _to_float(x: Fraction, what: str) -> float:
    try:
        return float(x)  # rounded once
    except OverflowError:
        raise InputError(f"the {what} of the polytope exceeds the double range") from None


@dataclass(frozen=True)
class DualBTCheckResult:
    """The inequality is a theorem, so a result that does not hold is refused."""

    lhs: float
    rhs: float
    factor: float        # prod |sigma_i|! / (n!)^s
    section_volumes: tuple
    holds: bool
    equality: bool
    conv_certificate: object  # {"block", "vertices"} per block when equality holds, else None

    def __post_init__(self):
        if not self.holds:
            raise InternalError(f"dual Bollobas-Thomason inequality violated: "
                                f"{self.lhs:.12g} < {self.rhs:.12g}")


def dual_bt_check(K: PointPolytope, c: UniformCover) -> DualBTCheckResult:
    """|K|^s against (prod |sigma_i|!/(n!)^s) prod |K cap E_{sigma_i}|, exactly.

    Requires the origin strictly inside K.  One exact hull of K gives its
    facets, its extreme points, its volume and each distinct sigma's
    section (_section_volume).  Both sides are exact rationals, so holds
    is an exact comparison, and each value is rounded to a float once,
    when it is reported.

    Equality holds precisely when K = conv(union_j K cap F_j) over the
    blocks F_j of the induced partition, and that is so exactly when
    every extreme point of K has its nonzero coordinates inside one
    block: if so, K = conv(extreme points) lies in the hull of the
    sections, which lies in K; conversely every extreme point of the
    hull of a compact set lies in the set.  Block j's certificate
    vertices are then K's extreme points in F_j, in input order.  The
    verdict is cross-checked against lhs == rhs.
    """
    # imported here: a cold process of another command need not load it
    from .hull import convex_hull

    if K.n != c.n:
        raise InputError("polytope and cover dimensions differ")
    hull = convex_hull(_dyadic_rows(K.vertices))
    if hull is None:
        raise InputError("polytope must affinely span R^n")
    planes = hull.planes
    if any(h[-1] >= 0 for h in planes):  # a.x <= b with b <= 0
        raise InputError("the origin must lie strictly inside the polytope")

    vol = hull.volume()
    sections = {}
    for sigma in c.sets:
        if sigma not in sections:
            axes = [j - 1 for j in sorted(sigma)]
            sections[sigma] = vol if len(axes) == K.n else _section_volume(hull, axes)
    section_vols = [sections[sigma] for sigma in c.sets]
    factor = Fraction(math.prod(math.factorial(len(sigma)) for sigma in c.sets),
                      math.factorial(K.n) ** c.s)
    lhs = vol ** c.s
    rhs = factor * math.prod(v ** c.sets.count(sigma) for sigma, v in sections.items())

    partition = induced_one_cover(c)
    owner = {}
    for i in hull.extreme():
        support = {j + 1 for j, x in enumerate(K.vertices[i]) if x}
        owner[i] = next((block for block in partition if support <= block), None)
    equality = None not in owner.values()
    if equality != (lhs == rhs):
        raise InternalError("the extreme-point equality verdict disagrees with the exact volumes")

    return DualBTCheckResult(
        lhs=_to_float(lhs, "volume power |K|^s"),
        rhs=_to_float(rhs, "section product"),
        factor=float(factor),
        section_volumes=tuple(_to_float(v, "section volume") for v in section_vols),
        holds=lhs >= rhs,
        equality=equality,
        conv_certificate=tuple(
            {"block": block, "vertices": K.points()[[i for i in owner if owner[i] == block]]}
            for block in partition) if equality else None,
    )
