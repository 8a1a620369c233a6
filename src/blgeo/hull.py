"""Exact convex hulls in dimensions 1 to 4, on numpy alone.

A point is a homogeneous integer row (x_1, ..., x_d, w) with w > 0,
standing for the rational point x / w.  Doubles are dyadic rationals,
so a set of them becomes integral after scaling by one power of two:
the points of a hull share one w.  The polar point a / b of a facet
a.x <= b with integer a, b is an integral row as it stands, one w per
point, as polar_area takes them.

The hull is built by beneath-beyond (Edelsbrunner, Algorithms in
Combinatorial Geometry, 1987): from a first full-dimensional simplex,
the other points are added one at a time.  The facets a point sees
strictly go, and each ridge between a seen and an unseen facet is coned
to the point.  A point on a facet's plane does not see it, so the
boundary comes out triangulated, coplanar simplices included, and a
point inside the hull or on its boundary is never added.  The points go
in one fixed pseudo-random order, the same on every run: in a random
order the expected number of facets ever made is of the order of the
most a hull of that many points can have, whatever order the input
came in (Clarkson and Shor, DCG 4, 1989), where the input order of
points on the moment curve makes many times more.  A point equal to an
earlier one is skipped, so a repeated extreme point is known by its
first index.

Each facet gets its exact plane when it is made: an integer row h with
h . q > 0 exactly when q lies beyond it.  Its float copy, scaled by a
power of two to below 1, is a row of a matrix W, and a point q, scaled
likewise, is tested against every facet at once by W @ q, with a
forward error bound that holds for any order of the sums (a static
filter in the sense of Shewchuk, DCG 18, 1997).  Only a value inside
its bound is decided exactly, by h . q in Python integers.  A Hull
gives its distinct facet planes as primitive integer rows, its extreme
points, its volume and the volume of its section by a coordinate
hyperplane; polar_area gives the area of the polar of points in the
plane, by Graham's scan.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cached_property, cmp_to_key
from itertools import combinations
from operator import mul

import numpy as np

# W @ q is within _ERR |W| @ |q| + _SLACK of h . q scaled: the d + 1
# products and d sums of the dot product, and the rounding of W and q
# to floats, make (d + 3) u, doubled for the terms of second order and
# the rounding of the bound itself.  Entries are below 1 in size, so
# underflow adds at most 2^-1074 for each rounding; _SLACK covers that.
_ERR = {d: 2.0 * (d + 3) * 2.0 ** -53 for d in range(1, 5)}
_SLACK = 2.0 ** -1000


def _plane(d: int):
    """The plane through d points (x_i, w) of one w as straight-line
    Python, compiled once: h = (w e, -e . x_d), with e the cofactors of
    the differences t_i = x_i - x_d, i < d, so that e . x = det[t; x];
    then h . q = -det[rows; q].  The cofactors come by Laplace expansion
    from the bottom row up, the minor of rows r..d-2 on each column
    subset of size d - 1 - r from those one row down."""
    k = d - 1
    body = [f"    {''.join(f'x{i}_{c}, ' for c in range(d))}w = rows[{i}]" for i in range(d)]
    body += [f"    t{i}_{c} = x{i}_{c} - x{k}_{c}" for i in range(k) for c in range(d)]
    names = {(): "1"} if k == 0 else {(c,): f"t{k - 1}_{c}" for c in range(d)}
    for r in range(k - 2, -1, -1):
        level = {}
        for s in combinations(range(d), k - r):
            level[s] = f"m{r}_{len(level)}"
            body.append(f"    {level[s]} = " + " ".join(
                f"{'+-'[pos % 2]} t{r}_{c} * {names[s[:pos] + s[pos + 1:]]}" for pos, c in enumerate(s)))
        names = level
    # the cofactor of column j is (-1)^(k + j) times the minor without j
    body += [f"    e{j} = {'-' * ((k + j) % 2)}{names[tuple(c for c in range(d) if c != j)]}"
             for j in range(d)]
    body.append(f"    return [{''.join(f'w * e{j}, ' for j in range(d))}"
                f"-({' + '.join(f'e{j} * x{k}_{j}' for j in range(d))})]")
    namespace = {}
    exec("def plane(rows):\n" + "\n".join(body), namespace)
    return namespace["plane"]


_PLANES = {d: _plane(d) for d in range(1, 6)}


def det(rows) -> int:
    """det of a k x k integer matrix, 1 <= k <= 5: the plane through the
    origin and its first k - 1 rows, at its last row."""
    k = len(rows)
    return sum(map(mul, _PLANES[k]([(*r, 1) for r in rows[:-1]] + [(0,) * k + (1,)]), rows[-1]))


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


def _floats(rows) -> np.ndarray:
    """Integer rows as floats, each divided by the power of two that
    brings its largest entry into [1/2, 1): rounded once, and once more
    only where that lands in the subnormals."""
    try:
        F = np.array(rows, dtype=float)  # each entry rounded once
    except OverflowError:  # an entry beyond the double range: divide in integers
        F = np.array([[a / (1 << max(map(abs, r)).bit_length()) for a in r] for r in rows])
    return np.ldexp(F, -np.frexp(np.abs(F).max(axis=1))[1][:, None])


class Hull:
    """The triangulated boundary of conv(rows), rows full-dimensional and
    sharing one w; start indexes d + 1 affinely independent rows.

    facets[f] is a tuple of d point indices, signs[f] is +1 or -1, and
    exact[f] is signs[f] times the plane _plane gives for the facet's
    points: h . q is positive exactly when q lies beyond the facet.
    """

    def __init__(self, rows: list, start: list):
        self.rows = rows
        d = self.d = len(rows[0]) - 1
        self.points = _floats(rows)
        self.errs = _ERR[d] * np.abs(self.points)
        # the rows of W in use are those of the facets; a facet that goes
        # is None in the lists, until the next compaction
        self.facets, self.signs, self.exact, self.W, self.gone = [], [], [], np.empty((0, d + 1)), 0
        # facet i omits start[i], and det[facet i; start[i]] is (-1)^(d - i)
        # det[start]: the sign puts start[i] on the negative side
        sign = 1 if det([rows[i] for i in start]) > 0 else -1
        self._make([tuple(start[:i] + start[i + 1:]) for i in range(d + 1)],
                   [sign * (-1) ** (d - i) for i in range(d + 1)])
        first = {}
        for p, r in enumerate(rows):
            first.setdefault(tuple(r), p)
        order = sorted(set(first.values()) - set(start))
        random.Random(0).shuffle(order)
        for p in order:
            self._add(p)
        self._compact()

    def _make(self, new, signs):
        """Add the facets of new, each a tuple of d point indices, with
        their signs, exact planes and the planes' rows of W."""
        used = len(self.facets)
        if used + len(new) > len(self.W):
            self.W = np.concatenate([self.W[:used], np.empty((used + 2 * len(new), self.d + 1))])
        plane = _PLANES[self.d]
        for verts, sign in zip(new, signs):
            h = plane([self.rows[v] for v in verts])
            self.exact.append(h if sign > 0 else [-a for a in h])
        self.W[used:used + len(new)] = _floats(self.exact[used:])
        self.facets += new
        self.signs += signs

    def _add(self, p: int):
        W = self.W[:len(self.facets)]
        vals = W @ self.points[p]
        bounds = np.abs(W) @ self.errs[p] + _SLACK
        sees = vals > bounds
        for f in (np.abs(vals) <= bounds).nonzero()[0].tolist():
            sees[f] = sum(map(mul, self.exact[f], self.rows[p])) > 0
        seen = sees.nonzero()[0].tolist()
        if not seen:
            return
        horizon = {}
        for f in seen:
            verts = self.facets[f]
            for k in range(self.d):
                ridge = frozenset(verts[:k] + verts[k + 1:])
                if horizon.pop(ridge, None) is None:  # a ridge of two seen facets is inside
                    # p in place of the vertex of a seen facet keeps its sign:
                    # that vertex lies inside the new hull, on the negative side
                    horizon[ridge] = verts[:k] + (p,) + verts[k + 1:], self.signs[f]
        W[seen] = np.nan  # a gone facet's row neither sees nor is in doubt
        for f in seen:
            self.facets[f] = None
        self.gone += len(seen)
        self._make(*zip(*horizon.values()))
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
        return [primitive(h) for h in self.exact]

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
        sum to it wherever the origin lies.  With exact[f] = (w e, -e . x_d)
        and e pointing outwards, e / w^(d - 1) is the normal of the facet
        of the points x / w times (d - 1)! times its area, so its cone has
        volume e . x_d / (w^d d!) = -exact[f][-1] / (w^d d!), positive
        when the origin lies inside the facet's plane."""
        total = -sum(h[-1] for h in self.exact)
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
