"""Shared fixtures and independent test oracles.

The oracles here recompute spec'd quantities along a different route
than the library (brute-force circuit search, direct matrix sums, exact
CDF bisection) so that agreement is evidence, not tautology.
"""

from itertools import combinations

import numpy as np
import pytest

from blgeo.integrals import GridDensity
from blgeo.subspace import full_subspace


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def independent_vectors(vectors, idx, tol=1e-9):
    """Numerical linear independence of the selected rows."""
    M = np.asarray(vectors)[list(idx)]
    if M.shape[0] == 0:
        return True
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] > tol * s[0]


def bowtie_oracle(vectors, tol=1e-9):
    """Brute-force circuit relation: i ~ j iff some (n-1)-subset U of the
    other indices makes both {i} u U and {j} u U independent.

    Exponential, usable only at k <= 8, n <= 4; this is the definition,
    the library's non-orthogonality components are the thing under test.
    """
    vectors = np.asarray(vectors, dtype=float)
    k, n = vectors.shape
    related = {(i, i) for i in range(k)}
    for i, j in combinations(range(k), 2):
        others = [m for m in range(k) if m not in (i, j)]
        for U in combinations(others, n - 1):
            if independent_vectors(vectors, (i,) + U, tol) and \
               independent_vectors(vectors, (j,) + U, tol):
                related.add((i, j))
                related.add((j, i))
                break
    # connected components of the relation
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in related:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0]))


def indicator_density(intervals, h, radius):
    """1-D indicator of a union of intervals, sampled at cell centers."""
    line = full_subspace(1)
    m = int(round(2 * radius / h))
    centers = -radius + (np.arange(m) + 0.5) * h
    vals = np.zeros(m)
    for a, b in intervals:
        vals[(centers >= a) & (centers <= b)] = 1.0
    return GridDensity(line, np.array([-radius]), h, vals)


def gaussian_sup_integral(d, A_list):
    """Closed form of the integral of Barthe's supremum for f_i(y) = exp(-y^T A_i y).

    With y the stacked frame coordinates, C = [c_i F_i^T] and
    H = blockdiag(c_i A_i), the supremum over the fiber C y = x is
    exp(-x^T Q x) with Q = (C H^-1 C^T)^-1, the minimum-norm solution of
    the constraint, so the integral is pi^(n/2) det(Q)^(-1/2).
    """
    C = np.hstack([c * E.basis for E, c in d.entries])
    H = np.zeros((C.shape[1], C.shape[1]))
    at = 0
    for (E, c), A in zip(d.entries, A_list):
        H[at:at + E.dim, at:at + E.dim] = c * np.asarray(A, dtype=float)
        at += E.dim
    Q = np.linalg.inv(C @ np.linalg.solve(H, C.T))
    return np.pi ** (d.ambient_dim / 2) / np.sqrt(np.linalg.det(Q))


def random_uniform_cover(rng, n, s, max_blocks=None):
    """Union of s random partitions of [n]; each element is hit s times."""
    from blgeo.covers import UniformCover

    sets = []
    for _ in range(s):
        perm = rng.permutation(n) + 1
        nblocks = int(rng.integers(2, min(n, max_blocks or n) + 1)) if n > 1 else 1
        cuts = sorted(rng.choice(np.arange(1, n), size=nblocks - 1, replace=False)) if nblocks > 1 else []
        start = 0
        for cut in list(cuts) + [n]:
            sets.append(frozenset(int(x) for x in perm[start:cut]))
            start = cut
    return UniformCover(n, s, tuple(sets))
