"""Exact convex hulls in dimensions 1 to 4, on numpy alone.

A point is a homogeneous integer row (x_1, ..., x_d, w) with w > 0,
standing for the rational point x / w.  Doubles are dyadic rationals,
so a set of them becomes integral after scaling by one power of two:
the points of a hull share one w.  The polar point a / b of a facet
a.x <= b with integer a, b is an integral row as it stands, one w per
point, as polar_area takes them.

Every decision is the sign of an orientation determinant
det[p_1, 1; ...; p_d, 1; q, 1].  It is first evaluated in floats, on
the differences p_i - p_1 and q - p_1, against every facet at once, with
a forward error bound that holds for any order of the sums (a static
filter in the sense of Shewchuk, DCG 18, 1997).  A difference of two
exactly equal coordinates is an exact zero, and a term of the
determinant with a zero factor carries no error, so the coplanar points
of boxes and cross-polytopes are decided in floats too.  Only a value
inside its bound is recomputed exactly, in Python integers.

The hull is built by beneath-beyond (Edelsbrunner, Algorithms in
Combinatorial Geometry, 1987): from a first full-dimensional simplex,
points are added in input order.  The facets a point sees strictly go,
and each ridge between a seen and an unseen facet is coned to the point.
A point on a facet's plane does not see it, so the boundary comes out
triangulated, coplanar simplices included, and a point inside the hull
or on its boundary (a repeated point too) is never added.  A Hull gives
its distinct facet planes as primitive integer rows, its extreme points,
its volume and the volume of its section by a coordinate hyperplane;
polar_area gives the area of the polar of points in the plane, by
Graham's scan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations, permutations

import numpy as np

# A term of the determinant is a product of d differences, each within
# 3u A of its exact value (A = |x_a| + |x_b|: two rounded inputs and a
# subtraction), and it goes through at most (d-1)! + 2d - 3 roundings:
# the products inside the facet's normal, the sum over (d-1)! terms,
# the product with the query's difference and the sum over d of those.
# The float value is then within (5d + (d-1)! - 3) u times the sum over
# the terms of the product of their A of the exact one, whatever the
# order of the sums; _ERR doubles that for the rounding of the bound
# itself.  Coordinates are scaled below 2, so underflow adds at most
# about 2^-1060 for each term without a zero factor; _SLACK covers one.
_ERR = {d: 2.0 * (5 * d + math.factorial(d - 1) - 3) * 2.0 ** -53 for d in range(1, 5)}
_SLACK = 2.0 ** -1000


def _leibniz(k: int):
    """Index tables of the cofactors of a k x (k + 1) matrix by the Leibniz
    sum, for the row appended last: the column each row gives each term,
    and the signs."""
    cols, signs = [], []
    for j in range(k + 1):
        rest = [c for c in range(k + 1) if c != j]
        for perm in permutations(range(k)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(k), 2))
            cols.append([rest[p] for p in perm])
            signs.append((-1) ** (inversions + k + j))
    return (np.array(cols, dtype=int).reshape(k + 1, math.factorial(k), k),
            np.array(signs, dtype=float).reshape(k + 1, math.factorial(k)))


def _laplace(k: int):
    """The cofactors of a k x (k + 1) integer matrix as straight-line
    Python, compiled once: Laplace expansion from the bottom row up, the
    minor of rows r..k-1 on each column subset of size k - r from those
    one row down."""
    names = {(): "1"}
    body = [f"    {''.join(f'r{i}, ' for i in range(k))}= rows"] if k else []
    for r in range(k - 1, -1, -1):
        level = {}
        for s in combinations(range(k + 1), k - r):
            level[s] = f"m{r}_{len(level)}"
            body.append(f"    {level[s]} = " + " ".join(
                f"{'+-'[pos % 2]} r{r}[{c}] * {names[s[:pos] + s[pos + 1:]]}" for pos, c in enumerate(s)))
        names = level
    # the cofactor of column j is (-1)^(k + j) times the minor without j
    top = "".join(f"{'-' if (k + j) % 2 else ''}{names[tuple(c for c in range(k + 1) if c != j)]}, "
                  for j in range(k + 1))
    namespace = {}
    exec("def cofactors(rows):\n" + "\n".join(body) + f"\n    return ({top})", namespace)
    return namespace["cofactors"]


_LEIBNIZ = {k: _leibniz(k) for k in range(4)}
# for a facet of dimension d, the flat index into its (d - 1) x d differences
# of each factor of each term of each cofactor
_TERMS = {d: np.arange(d - 1) * d + _LEIBNIZ[d - 1][0] for d in range(1, 5)}
_LAPLACE = {k: _laplace(k) for k in range(5)}
_FIRST = {d: np.repeat([1.0, -1.0, 1.0], d) for d in range(1, 5)}
# what a facet's terms are summed with: their signs (and (-1)^d, from the
# differences), _ERR for their A-products, _SLACK for those with no zero factor
_WEIGHTS = {d: np.stack([_LEIBNIZ[d - 1][1] * (-1) ** d,
                         np.full_like(_LEIBNIZ[d - 1][1], _ERR[d]),
                         np.full_like(_LEIBNIZ[d - 1][1], _SLACK)]) for d in range(1, 5)}


def cofactors(rows) -> tuple:
    """The integers h with det[rows; q] = h . q for every integer row q."""
    return _LAPLACE[len(rows)](rows)


def det(rows) -> int:
    """det of a k x k integer matrix, 1 <= k <= 5, by cofactors along its last row."""
    return sum(h * x for h, x in zip(cofactors(rows[:-1]), rows[-1]))


def independent_rows(rows, limit: int) -> list:
    """Indices of the rows, taken greedily in order, that are linearly
    independent of those before them, up to limit of them; exact."""
    basis, chosen = [], []
    for i, r in enumerate(rows):
        for lead, b in basis:  # fraction-free elimination; b is zero on earlier leads
            if r[lead]:
                r = [b[lead] * x - r[lead] * y for x, y in zip(r, b)]
        lead = next((c for c, x in enumerate(r) if x), None)
        if lead is not None:
            basis.append((lead, r))
            chosen.append(i)
            if len(chosen) == limit:
                break
    return chosen


def primitive(h) -> tuple:
    """The integer row divided by the gcd of its entries."""
    g = math.gcd(*h)
    return tuple(x // g for x in h)


class Hull:
    """The triangulated boundary of conv(rows), rows full-dimensional and
    sharing one w.

    facets[f] is a tuple of d point indices and signs[f] is +1 or -1:
    signs[f] * det[rows of facet f; q] is positive exactly when q lies
    beyond the facet's plane.
    """

    def __init__(self, rows: list, start: list):
        self.rows = rows
        d = self.d = len(rows[0]) - 1
        # the points as floats, all scaled by one power of two to below 1
        # in size, and per coordinate an id that two points share exactly
        # when that coordinate is equal
        k = max(abs(x).bit_length() for r in rows for x in r[:-1])
        X = [[x / (1 << k) for x in r[:-1]] for r in rows]
        seen = [{} for _ in range(d)]
        ids = [[seen[j].setdefault(x, len(seen[j])) for j, x in enumerate(r[:-1])] for r in rows]
        # per point: x, |x| and the ids (floats, exact below 2^53)
        self.points = np.hstack([X, np.abs(X), ids])
        # facet i omits start[i]; moving that row last takes d - i swaps,
        # and it must then lie on the negative side
        positive = det([rows[i] for i in start]) > 0
        self.facets = [tuple(start[:i] + start[i + 1:]) for i in range(d + 1)]
        self.signs = [-(-1) ** (d - i) * (1 if positive else -1) for i in range(d + 1)]
        self.exact = [None] * (d + 1)
        # the rows of W in use are those of the facets; a facet that goes
        # is None in the lists, until the next compaction
        self.W = self._normals(self.facets, self.signs)
        self.gone = 0
        added = set(start)
        for p in range(len(rows)):
            if p not in added:
                self._add(p)
        self._compact()

    def _normals(self, facets, signs):
        """Per facet, one row: the float normal N with N . (q - p_1)
        approximating signs * det[rows; q] up to a positive factor; by
        cofactor, _ERR times the sum of its terms' A-products and _SLACK
        times the number of its terms with no exactly zero factor; p_1."""
        d = self.d
        G = self.points[np.array(facets)]
        first, rest = G[:, :1], G[:, 1:]
        differs = rest[..., 2 * d:] != first[..., 2 * d:]
        # the differences p_i - p_1, their A and whether they are nonzero, by term
        parts = np.empty((3,) + differs.shape)
        np.subtract(rest[..., :d], first[..., :d], out=parts[0])
        np.add(rest[..., d:2 * d], first[..., d:2 * d], out=parts[1])
        parts[1] *= differs
        parts[2] = differs
        terms = parts.reshape(3, len(facets), (d - 1) * d)[:, :, _TERMS[d]].prod(axis=-1)
        W = np.einsum("xfjt,xjt->fxj", terms, _WEIGHTS[d]).reshape(len(facets), 3 * d)
        W[:, :d] *= np.array(signs)[:, None]
        # p_1's row, with -|p_1|: a point's row minus this one is q - p_1, its
        # A = |q| + |p_1|, and zero where an id is p_1's
        return np.concatenate([W, G[:, 0] * _FIRST[d]], axis=1)

    def plane(self, f: int) -> tuple:
        """The exact plane of facet f as an integer row h: h . q is
        positive beyond it.  With e the cofactors of the differences
        x_i - x_1, i > 1, of its points, h = (w e, -e . x_1) times the
        sign that points it outwards, and h . q is a positive multiple of
        signs[f] det[rows; q]."""
        if self.exact[f] is None:
            rows = [self.rows[v] for v in self.facets[f]]
            x1 = rows[0][:-1]
            e = cofactors([[a - b for a, b in zip(r, x1)] for r in rows[1:]])
            g = (-1) ** self.d * self.signs[f]
            self.exact[f] = tuple([g * rows[0][-1] * c for c in e]
                                  + [-g * sum(c * x for c, x in zip(e, x1))])
        return self.exact[f]

    def _add(self, p: int):
        d = self.d
        W = self.W[:len(self.facets)]
        R = self.points[p] - W[:, 3 * d:]
        R[:, 2 * d:] = R[:, 2 * d:] != 0
        R[:, d:2 * d] *= R[:, 2 * d:]
        vals = np.einsum("ij,ij->i", W[:, :d], R[:, :d])
        bounds = np.einsum("ij,ij->i", W[:, d:3 * d], R[:, d:])
        sees = vals > bounds
        doubt = np.abs(vals) <= bounds
        if doubt.any():
            for f in np.flatnonzero(doubt & (bounds > 0)).tolist():
                sees[f] = sum(h * x for h, x in zip(self.plane(f), self.rows[p])) > 0
        seen = np.flatnonzero(sees).tolist()
        if not seen:
            return
        horizon = {}
        for f in seen:
            verts = self.facets[f]
            for k in range(d):
                ridge = frozenset(verts[:k] + verts[k + 1:])
                if horizon.pop(ridge, None) is None:  # a ridge of two seen facets is inside
                    horizon[ridge] = (f, k)
        # the new facet keeps the orientation of the seen one: the vertex p
        # replaces lies inside the new hull, on its negative side
        new = [self.facets[f][:k] + (p,) + self.facets[f][k + 1:] for f, k in horizon.values()]
        new_signs = [self.signs[f] for f, _ in horizon.values()]
        W[seen, :d] = np.nan  # a gone facet's row neither sees nor is in doubt
        for f in seen:
            self.facets[f] = None
        self.gone += len(seen)
        rows = self._normals(new, new_signs)
        used = len(self.facets)
        if used + len(new) > len(self.W):
            self.W = np.concatenate([self.W[:used], np.empty((used + 2 * len(new), W.shape[1]))])
        self.W[used:used + len(new)] = rows
        self.facets += new
        self.signs += new_signs
        self.exact += [None] * len(new)
        if self.gone > len(self.facets) // 2:
            self._compact()

    def _compact(self):
        live = [f for f, verts in enumerate(self.facets) if verts is not None]
        self.facets = [self.facets[f] for f in live]
        self.signs = [self.signs[f] for f in live]
        self.exact = [self.exact[f] for f in live]
        self.W = self.W[live]
        self.gone = 0

    @cached_property
    def facet_planes(self) -> list:
        """Each facet's plane as a primitive integer row h, h . q <= 0 for
        every point q."""
        return [primitive(self.plane(f)) for f in range(len(self.facets))]

    @cached_property
    def planes(self) -> list:
        """The distinct supporting hyperplanes, in order of first facet."""
        return list(dict.fromkeys(self.facet_planes))

    def extreme(self) -> list:
        """Indices of the extreme points, ascending.  A vertex of the
        triangulation is one when the normals of the distinct planes
        through it span R^d; a point inside a face of dimension >= 1 is
        a vertex of some triangulations but never extreme."""
        through = {}
        for verts, h in zip(self.facets, self.facet_planes):
            for v in verts:
                through.setdefault(v, {})[h] = None
        return sorted(v for v, hs in through.items() if len(hs) >= self.d
                      and len(independent_rows([h[:-1] for h in hs], self.d)) == self.d)

    def volume(self) -> Fraction:
        """The exact volume: the facets coned to the origin, with signs,
        sum to it wherever the origin lies.  Facet f's cone has signed
        volume -signs[f] det[x of its points] / (w^d d!), and that
        determinant is (-1)^(d - 1) e . x_1, in the terms of plane(f):
        the cone is -plane(f)[-1] / (w^d d!)."""
        total = -sum(self.plane(f)[-1] for f in range(len(self.facets)))
        return Fraction(total, self.rows[0][-1] ** self.d * math.factorial(self.d))

    def slice_volume(self, j: int) -> Fraction:
        """The exact volume of the section by the hyperplane x_j = 0, in the
        other coordinates, for d >= 3 and the origin inside.  Each facet
        meets it in the hull of its vertices on it and of one point on
        each edge that crosses it; coning those pieces from the origin
        gives the volume.  A piece that is a whole facet of the facet is
        met from both facets that share it, so each counts it half."""
        d = self.d
        t = [r[j] for r in self.rows]
        rows = [r[:j] + r[j + 1:] for r in self.rows]
        sums = {}
        for verts in self.facets:
            signs = [t[v] for v in verts]
            if min(signs) > 0 or max(signs) < 0:
                continue
            on = [rows[v] for v in verts if t[v] == 0]
            # the point where a-b crosses, -t_b a + t_a b, homogeneous with w > 0
            piece = on + [[t[a] * y - t[b] * x for x, y in zip(rows[a], rows[b])]
                          for a in verts if t[a] > 0 for b in verts if t[b] < 0]
            if len(piece) < d - 1:
                continue
            if len(piece) == 4:  # two up, two down: a1b1, a1b2, a2b1, a2b2 go round as
                piece = [piece[0], piece[1], piece[3], piece[2]]
            # a segment in the plane, or a fan of triangles in space
            simplices = [piece] if d == 3 else [[piece[0], p, q]
                                                for p, q in zip(piece[1:], piece[2:])]
            for simplex in simplices:
                den = math.prod(r[-1] for r in simplex) * (2 if len(on) == d - 1 else 1)
                sums[den] = sums.get(den, 0) + abs(det([r[:-1] for r in simplex]))
        total = sum(Fraction(num, den) for den, num in sums.items())
        return total / math.factorial(d - 1)


def polar_area(rows) -> Fraction:
    """The exact area of {y : z . y <= 1 for every point z}, z = (u, v) / w
    over the rows (u, v, w), w > 0, whose hull holds the origin inside.

    Sorted by angle around the origin, the points are scanned from one
    that is surely a vertex, as in Graham's scan; the line a u + b v + c w
    = 0 through two consecutive vertices is the polar's vertex -(a, b) / c.
    """
    def turn(p, q, r):  # det[p; q; r], positive for a left turn
        return (p[0] * (q[1] * r[2] - q[2] * r[1]) - p[1] * (q[0] * r[2] - q[2] * r[0])
                + p[2] * (q[0] * r[1] - q[1] * r[0]))

    def half(p):
        return p[1] < 0 or (p[1] == 0 and p[0] < 0)

    def by_angle(p, q):  # the nearer of two points on one ray goes first
        if half(p) != half(q):
            return half(p) - half(q)
        cross = p[0] * q[1] - p[1] * q[0]
        return -cross or abs(p[0] * q[2]) + abs(p[1] * q[2]) - abs(q[0] * p[2]) - abs(q[1] * p[2])

    pts = sorted((r for r in rows if r[0] or r[1]), key=cmp_to_key(by_angle))
    top = 0  # the point farthest along u, the farthest along v among those, is a vertex
    for i, p in enumerate(pts):
        t = pts[top]
        if (p[0] * t[2] - t[0] * p[2] or p[1] * t[2] - t[1] * p[2]) > 0:
            top = i
    stack = []
    for p in pts[top:] + pts[:top + 1]:
        while len(stack) > 1 and turn(stack[-2], stack[-1], p) <= 0:
            stack.pop()
        stack.append(p)
    lines = [(p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
             for p, q in zip(stack, stack[1:])]
    return sum(Fraction(abs(l[0] * m[1] - l[1] * m[0]), l[2] * m[2])
               for l, m in zip(lines, lines[1:] + lines[:1])) / 2


def convex_hull(rows: list):
    """The hull of homogeneous integer rows (x, w) sharing one w > 0, in
    dimension len(x) <= 4; None when the points do not affinely span R^d."""
    start = independent_rows(rows, len(rows[0]))
    return Hull(rows, start) if len(start) == len(rows[0]) else None
