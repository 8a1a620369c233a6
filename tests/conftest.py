"""Shared fixtures and independent test oracles.

The oracles here recompute spec'd quantities along a different route
than the library (brute-force circuit search, direct matrix sums, exact
CDF bisection, per-sample CDF inversion, the subspace lattice for
criticality, the Cauchy-Binet minor expansion of the rank-one
determinant, the stacked constraint system of the Gaussian fiber, the
indecomposable pieces grown one at a time by SVDs) so
that agreement is evidence, not tautology.  The per-entry references
are the other kind: loops over the entries that the batched layers
must match bit for bit, and the breadth-first class search that
bowtie_classes must match exactly.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from blgeo.datum import (
    GeometricBLDatum,
    axis_datum,
    direct_sum_data,
    holder_datum,
    paired_planes_datum,
    planar_lines_datum,
    rank_one_expansion,
    rotate_datum,
    validate_datum,
)
from blgeo.errors import CapError, InputError, InternalError
from blgeo.integrals import GridDensity
from blgeo.structure import GENERIC_SEED, INTEGER_SNAP_TOL, CriticalityReport
from blgeo.subspace import (EIGENVALUE_CLUSTER_RTOL, RANK_TOL, RESIDUAL_TOL, Subspace, equal,
                            full_subspace, orthonormalize, projection_matrix, zero_subspace)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def independent_vectors(vectors, idx):
    """Numerical linear independence of the selected rows."""
    M = np.asarray(vectors)[list(idx)]
    if M.shape[0] == 0:
        return True
    s = np.linalg.svd(M, compute_uv=False)
    return s[-1] > RANK_TOL * s[0]


def bowtie_oracle(vectors):
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
            if independent_vectors(vectors, (i,) + U) and \
               independent_vectors(vectors, (j,) + U):
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


def bowtie_bfs(vectors):
    """Classes grown breadth-first, each from the smallest vector not yet
    in a class, over the edges |<u_i, u_j>| > RESIDUAL_TOL."""
    vectors = np.asarray(vectors, dtype=float)
    k = vectors.shape[0]
    adj = np.abs(vectors @ vectors.T) > RESIDUAL_TOL
    unseen, classes = np.ones(k, dtype=bool), []
    while unseen.any():
        members = np.arange(k) == np.argmax(unseen)
        frontier = members.copy()
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~members
            members |= frontier
        unseen &= ~members
        classes.append(tuple(np.flatnonzero(members).tolist()))
    return tuple(classes)


def induced_partition_oracle(n, sets):
    """Induced 1-uniform cover by its definition: the block of j is the
    intersection of every cover set holding j with the complement of every
    set missing j.  Returns the blocks as sorted lists, sorted."""
    ground = frozenset(range(1, n + 1))
    blocks = set()
    for j in ground:
        block = ground
        for sigma in sets:
            block &= sigma if j in sigma else ground - sigma
        blocks.add(block)
    return sorted(sorted(b) for b in blocks)


def complement(A):
    """Orthogonal complement; dim(A) + dim(complement(A)) == n exactly."""
    n, d = A.ambient_dim, A.dim
    if d == 0:
        return full_subspace(n)
    if d == n:
        return zero_subspace(n)
    U, _, _ = np.linalg.svd(A.basis, full_matrices=True)
    return Subspace(n, U[:, d:].T)


def subspace_sum(A, B):
    """Span of A union B."""
    if A.ambient_dim != B.ambient_dim:
        raise InputError(f"ambient dimension mismatch: {A.ambient_dim} vs {B.ambient_dim}")
    return orthonormalize(list(A.frame) + list(B.frame), ambient_dim=A.ambient_dim)


def intersect(A, B):
    """A intersect B, computed as the complement of (A-perp + B-perp)."""
    if A.ambient_dim != B.ambient_dim:
        raise InputError(f"ambient dimension mismatch: {A.ambient_dim} vs {B.ambient_dim}")
    if A.dim == 0 or B.dim == 0:
        return zero_subspace(A.ambient_dim)
    if A.dim == A.ambient_dim:
        return B
    if B.dim == B.ambient_dim:
        return A
    return complement(subspace_sum(complement(A), complement(B)))


def is_critical_oracle(d, V):
    """Criticality on the subspace lattice: sum c_i dim(E_i cap V) = dim V,
    cross-checked against the splitting E_i = (E_i cap V) + (E_i cap V-perp),
    each intersection computed through complements and sums of spans."""
    Vp = complement(V)
    wds = 0.0
    splitting_ok = True
    for E, c in d.entries:
        EV = intersect(E, V)
        EVp = intersect(E, Vp)
        wds += c * EV.dim
        if not equal(E, subspace_sum(EV, EVp)):
            splitting_ok = False
    near_int = abs(wds - round(wds)) <= INTEGER_SNAP_TOL
    dim_match = near_int and int(round(wds)) == V.dim
    if dim_match != splitting_ok:
        raise InternalError(f"oracle characterizations disagree: {wds:.12g} vs dim {V.dim}")
    return CriticalityReport(V, float(wds), V.dim, dim_match and splitting_ok, splitting_ok)


def is_indecomposable_oracle(d, W, tol=1e-8):
    """A critical W is indecomposable when the only symmetric X on W with
    [P_i|_W, X] = 0 for every i are the multiples of I_W: a critical
    split W = W1 + W2 would give X = P_W1.  The map X -> ([P_i|_W, X])_i
    on a basis of the symmetric matrices must have a one-dimensional
    nullspace."""
    m = W.dim
    blocks = [W.frame @ E.basis @ E.frame @ W.basis for E, _ in d.entries]
    columns = []
    for a in range(m):
        for b in range(a, m):
            X = np.zeros((m, m))
            X[a, b] = X[b, a] = 1.0
            columns.append(np.concatenate([(P @ X - X @ P).ravel() for P in blocks]))
    # k m^2 rows, at least as many as the m(m+1)/2 unknowns
    s = np.linalg.svd(np.array(columns).T, compute_uv=False)
    return int(np.count_nonzero(s <= tol)) == 1


def cluster_eigenspaces(M):
    """Eigenspaces of a symmetric M, eigenvalues within a relative gap of
    EIGENVALUE_CLUSTER_RTOL merged into one space, each orthonormalized."""
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    scale = max(abs(w[0]), abs(w[-1]), 1e-300)
    cuts = [0, *(np.flatnonzero(np.diff(w) > EIGENVALUE_CLUSTER_RTOL * scale) + 1), len(w)]
    return [orthonormalize(U[:, a:b].T, ambient_dim=M.shape[0]) for a, b in zip(cuts, cuts[1:])]


def grown_decomposition(d):
    """The indecomposable pieces grown one at a time: for each eigenspace U
    of the generic G = A + AB + BA that the library builds, the cyclic
    module of the largest rest of U, span{u} grown under every P_i by SVDs
    of the images until it closes, until the pieces found cover U.  Sorted
    as the library sorts them."""
    n = d.ambient_dim
    rng = np.random.default_rng(GENERIC_SEED)
    projections = d.projections.reshape(d.k * n, n)
    A, B = np.tensordot(rng.uniform(1.0, 2.0, (2, d.k)), d.projections, axes=1)
    found = np.zeros((n, 0))
    spans = []
    for U in cluster_eigenspaces(A + A @ B + B @ A):
        while found.shape[1] < n:
            rest = U.basis - found @ (found.T @ U.basis)
            norms = np.linalg.norm(rest, axis=0)
            if norms @ norms < 0.5:
                break
            W = new = rest[:, [norms.argmax()]] / norms.max()
            while new.shape[1] and W.shape[1] < n:
                images = (projections @ new).reshape(d.k, n, -1).transpose(1, 0, 2).reshape(n, -1)
                images -= W @ (W.T @ images)
                if np.linalg.norm(images) <= RANK_TOL:
                    break
                left, s, _ = np.linalg.svd(images, full_matrices=False)
                new = left[:, s > RANK_TOL]
                W = np.hstack([W, new])
            spans.append(orthonormalize(W.T, ambient_dim=n))
            found = np.hstack([found, spans[-1].basis])
    if found.shape[1] != n:
        raise InternalError(f"grown pieces have total dimension {found.shape[1]}, expected {n}")
    spans.sort(key=lambda V: (V.dim, tuple(np.round(V.frame, 9).ravel())))
    return spans


def grown_structure(d):
    """(pieces, independent subspaces as (Subspace, owners), dependent
    subspace, classes) from grown_decomposition: a piece W is independent
    when every dim(E_i cap W), counted on the lattice, is 0 or dim W, and
    the classes come from the breadth-first search."""
    n = d.ambient_dim
    pieces = grown_decomposition(d)
    groups, dependent = {}, []
    for W in pieces:
        meets = [intersect(E, W).dim for E, _ in d.entries]
        if all(m in (0, W.dim) for m in meets):
            groups.setdefault(tuple(i for i, m in enumerate(meets) if m), []).extend(W.frame)
        else:
            dependent.extend(W.frame)
    independents = [(orthonormalize(rows, ambient_dim=n), owners)
                    for owners, rows in groups.items()]
    return (pieces, independents, orthonormalize(dependent, ambient_dim=n),
            bowtie_bfs(rank_one_expansion(d).vectors))


def same_projection(A, B, tol=1e-9):
    """Equal spans: the projections agree within tol in max-norm."""
    return np.abs(projection_matrix(A) - projection_matrix(B)).max() <= tol


MINOR_ENUMERATION_CAP = 10 ** 6


@dataclass(frozen=True)
class CauchyBinetExpansion:
    subsets: tuple          # n-element index tuples
    minor_weights: np.ndarray  # d_I = det[v_i : i in I]^2
    weighted_sum: float        # sum_I d_I t_I
    determinant: float         # det(sum c_i t_i u_i u_i^T)


def cauchy_binet_expansion(r, t):
    """Enumerate all n x n minors of the scaled frame and cross-check.

    With v_i = sqrt(c_i) u_i the squared minors d_I form a probability
    measure with marginals sum_{I owns i} d_I = c_i, and sum_I d_I t_I
    reproduces det(sum c_i t_i u_i u_i^T).  Verifies all three to 1e-9;
    exponential in k, so capped at MINOR_ENUMERATION_CAP minors.
    """
    t = np.asarray(t, dtype=float)
    n, k = r.ambient_dim, r.k
    count = math.comb(k, n)
    if count > MINOR_ENUMERATION_CAP:
        raise CapError("minor enumeration", MINOR_ENUMERATION_CAP, count)
    v = r.vectors * np.sqrt(r.weights)[:, None]
    subsets = tuple(combinations(range(k), n))
    idx = np.array(subsets, dtype=int)
    d_I = np.linalg.det(v[idx]) ** 2
    weighted = float(np.dot(d_I, np.prod(t[idx], axis=1)))  # sum_I d_I t_I
    det = float(np.linalg.det((r.vectors.T * (r.weights * t)) @ r.vectors))

    if abs(float(d_I.sum()) - 1.0) > 1e-9:
        raise InternalError(f"sum of minor weights is {d_I.sum():.12g}, expected 1")
    marg = np.zeros(k)
    np.add.at(marg, idx.ravel(), np.repeat(d_I, n))
    if np.abs(marg - r.weights).max() > 1e-9:
        raise InternalError("minor-weight marginals do not reproduce the weights c_i")
    if abs(weighted - det) > 1e-9 * max(abs(det), 1e-300):
        raise InternalError(
            f"Cauchy-Binet sum {weighted:.15g} does not match determinant {det:.15g}"
        )
    return CauchyBinetExpansion(subsets, d_I, weighted, det)


def indicator_density(intervals, h, radius):
    """1-D indicator of a union of intervals, sampled at cell centers."""
    line = full_subspace(1)
    m = int(round(2 * radius / h))
    centers = -radius + (np.arange(m) + 0.5) * h
    vals = np.zeros(m)
    for a, b in intervals:
        vals[(centers >= a) & (centers <= b)] = 1.0
    return GridDensity(line, np.array([-radius]), h, vals)


def invert_cdf_oracle(knots_x, knots_u, u):
    """Left-continuous inverse of a piecewise-linear CDF, one sample at a
    time; plateaus invert to their left endpoint.  Inside a segment it
    interpolates down from the segment's upper knot, in the order of
    operations np.interp uses on the levels negated."""
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    top = knots_u[-1]
    for m, uu in np.ndenumerate(u):
        if uu <= knots_u[0]:
            out[m] = knots_x[0]
            continue
        if uu >= top:
            out[m] = knots_x[int(np.searchsorted(knots_u, top, side="left"))]
            continue
        j = int(np.searchsorted(knots_u, uu, side="left"))
        u0, u1 = knots_u[j - 1], knots_u[j]
        if u1 <= u0:
            out[m] = knots_x[j]
        else:
            out[m] = (knots_x[j - 1] - knots_x[j]) / (u1 - u0) * (u1 - uu) + knots_x[j]
    return out


def gaussian_fiber_oracle(d, A_list):
    """The Gaussian fiber problem for f_i(y) = exp(-y^T A_i y), stacked.

    With y the stacked frame coordinates, C = [c_i F_i] and
    H = blockdiag(c_i A_i), the minimum of y^T H y over the fiber C y = x
    is x^T Q x with Q = (C H^-1 C^T)^-1, so the supremum of Barthe's
    product is exp(-x^T Q x) and its integral is pi^(n/2) det(Q)^(-1/2).
    Returns Q and the log of that integral.
    """
    C = np.hstack([c * E.basis for E, c in d.entries])
    H = np.zeros((C.shape[1], C.shape[1]))
    at = 0
    for (E, c), A in zip(d.entries, A_list):
        H[at:at + E.dim, at:at + E.dim] = c * np.asarray(A, dtype=float)
        at += E.dim
    Q_inv = C @ np.linalg.solve(H, C.T)
    log_integral = 0.5 * d.ambient_dim * np.log(np.pi) + 0.5 * np.linalg.slogdet(Q_inv)[1]
    return np.linalg.inv(Q_inv), float(log_integral)


# ---------------------------------------------------------------------------
# per-entry references of the determinantal and fiber layers: one numpy
# call per entry, in entry order
# ---------------------------------------------------------------------------

def sorted_qr_log_det(rows):
    """2 sum_j log|r_jj| from the QR of the rows taken by decreasing
    largest entry, in a stable sort."""
    order = np.argsort(-np.abs(rows).max(axis=1), kind="stable")
    return math.fsum(2.0 * math.log(abs(r)) for r in np.diag(np.linalg.qr(rows[order], mode="r")))


def rows_per_entry(d, blocks):
    """The rows sqrt(c_i) X_i, grouped by entry dimension in order of first appearance."""
    dims = dict.fromkeys(E.dim for E, _ in d.entries)
    return np.concatenate([math.sqrt(c) * X for dim in dims
                           for (E, c), X in zip(d.entries, blocks) if E.dim == dim])


def weighted_log_dets_per_entry(d, factors):
    """sum_i c_i log det(T_i T_i^T) from the diagonals of triangular T_i."""
    total = 0.0
    for (_, c), T in zip(d.entries, factors):
        total += c * float(2.0 * np.log(np.abs(np.diag(T))).sum())
    return total


def restricts_per_entry(d, M, blocks, rows):
    """Whether M restricts to every B_i, entry by entry: each residual
    max|M F_i^T - F_i^T B_i| held to RESIDUAL_TOL lambda_min(B_i) plus the
    rounding of M in the columns the entry's frame touches, with rows the
    number of stacked rows."""
    n, rounding = d.ambient_dim, np.finfo(float).eps / 2
    return all(np.abs(M @ E.basis - E.basis @ B).max()
               <= RESIDUAL_TOL * np.linalg.eigvalsh(B)[0]
               + 2 * n * (rows + n) * rounding * np.abs(M)[:, np.any(E.frame != 0, axis=0)].max()
               for (E, _), B in zip(d.entries, blocks))


def determinantal_per_entry(d, A_list):
    """(log_lhs, log_rhs, M, certificate) of determinantal_high_check: M is
    the Gram of the rows sqrt(c_i) L_i^T F_i, built entry by entry, and the
    certificate is M when it restricts to every A_i (not repeated: the
    check's refutation of a certificate by the sides)."""
    mats = [0.5 * (A + A.T) for A in (np.asarray(A, dtype=float) for A in A_list)]
    factors = [np.linalg.cholesky(A) for A in mats]
    rows = rows_per_entry(d, [L.T @ E.frame for (E, _), L in zip(d.entries, factors)])
    M = np.einsum("ki,kj->ij", rows, rows)
    certificate = M if restricts_per_entry(d, M, mats, len(rows)) else None
    return sorted_qr_log_det(rows), weighted_log_dets_per_entry(d, factors), M, certificate


def fiber_per_entry(d, Phi):
    """(log det Q^-1, sum_i c_i log det A_i^-1, certificate) of the Gaussian
    fiber for A_i = F_i Phi^2 F_i^T = R_i^T R_i, from the R factor of the QR
    of Phi F_i^T: the rows sqrt(c_i) R_i^-T F_i, with R_i^-1 solved from
    R_i X = I; the certificate is Phi when it restricts to every
    F_i Phi F_i^T (not repeated: the refutation by the sides)."""
    products = [Phi @ E.basis for E, _ in d.entries]
    factors = [np.linalg.qr(P, mode="r") for P in products]
    rows = rows_per_entry(d, [np.linalg.inv(R).T @ E.frame for (E, _), R in zip(d.entries, factors)])
    blocks = [E.frame @ P for (E, _), P in zip(d.entries, products)]
    certificate = Phi if restricts_per_entry(d, Phi, blocks, len(rows)) else None
    return sorted_qr_log_det(rows), -weighted_log_dets_per_entry(d, factors), certificate


def exact_matrix(A):
    """A float matrix, or one of Fractions, as rows of Fractions."""
    return [[Fraction(x) for x in row] for row in (A.tolist() if isinstance(A, np.ndarray) else A)]


def exact_log(q):
    """log of a positive Fraction, from the float of q / 2^e with e its
    binary exponent, so no digit is lost however long q's integers are."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return math.log(float(q / Fraction(2) ** e)) + e * math.log(2.0)


def exact_det(M):
    """det of a square matrix of Fractions by exact elimination."""
    M, n, det = [list(row) for row in M], len(M), Fraction(1)
    for j in range(n):
        p = next(i for i in range(j, n) if M[i][j] != 0)
        M[j], M[p] = M[p], M[j]
        det *= M[j][j] if p == j else -M[j][j]
        for i in range(j + 1, n):
            f = M[i][j] / M[j][j]
            M[i] = [x - f * y for x, y in zip(M[i], M[j])]
    return det


def exact_inverse(M):
    """The inverse of a nonsingular square matrix of Fractions (Gauss-Jordan)."""
    n = len(M)
    M = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for j in range(n):
        p = next(i for i in range(j, n) if M[i][j] != 0)
        M[j], M[p] = M[p], M[j]
        M[j] = [x / M[j][j] for x in M[j]]
        for i in range(n):
            if i != j and M[i][j] != 0:
                f = M[i][j]
                M[i] = [x - f * y for x, y in zip(M[i], M[j])]
    return [row[n:] for row in M]


def exact_log_det(d, A_list):
    """log det(sum_i c_i F_i^T A_i F_i), assembled and eliminated in
    Fractions from the float weights and frames and the A_i (floats or
    Fractions)."""
    n = d.ambient_dim
    M = [[Fraction(0)] * n for _ in range(n)]
    for (E, c), A in zip(d.entries, A_list):
        F, A = exact_matrix(E.frame), exact_matrix(A)
        FA = [[sum(A[a][b] * F[b][j] for b in range(len(F))) for j in range(n)] for a in range(len(F))]
        for i in range(n):
            for j in range(n):
                M[i][j] += Fraction(c) * sum(F[a][i] * FA[a][j] for a in range(len(F)))
    return exact_log(exact_det(M))


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


def random_rotation(rng, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def turned(rng, frame, eps):
    """The rows of frame turned by I + S, S skew with largest entry eps."""
    frame = np.asarray(frame, dtype=float)
    S = np.triu(rng.standard_normal((frame.shape[1],) * 2), 1)
    S -= S.T
    return (frame + eps * frame @ S.T / max(np.abs(S).max(), 1e-300)).tolist()


def random_datum(rng, *, max_dim: int = 6, max_vectors: int = 12,
                 rotate: bool = True) -> GeometricBLDatum:
    """Seeded random valid datum built from the constructions of blgeo.datum.

    Blocks are axes, Hoelder repeats, planar line frames, and pairings of
    two line frames; blocks are direct-summed and optionally rotated.
    The expansion size (sum of entry dimensions) stays within
    max_vectors and the ambient dimension within max_dim.
    """
    blocks = []
    dim_used = 0
    vecs_used = 0
    while True:
        room_d = max_dim - dim_used
        room_v = max_vectors - vecs_used
        if room_d <= 0 or room_v <= 0:
            break
        choices = ["axis"]
        if room_d >= 1 and room_v >= 2:
            choices.append("holder")
        if room_d >= 2 and room_v >= 3:
            choices.append("lines")
        if room_d >= 4 and room_v >= 6:
            choices.append("paired")
        kind = choices[rng.integers(len(choices))]
        if kind == "axis":
            blocks.append(axis_datum(1))
            dim_used += 1
            vecs_used += 1
        elif kind == "holder":
            dim = int(rng.integers(1, min(2, room_d, room_v // 2) + 1))
            parts = int(rng.integers(2, min(3, room_v // dim) + 1))
            w = rng.dirichlet(np.ones(parts) * 5.0)
            w = np.clip(w, 0.05, None)
            w = w / w.sum()
            blocks.append(holder_datum(dim, w))
            dim_used += dim
            vecs_used += dim * parts
        elif kind == "lines":
            m = int(rng.integers(3, min(4, room_v) + 1))
            blocks.append(planar_lines_datum(m))
            dim_used += 2
            vecs_used += m
        else:
            m = int(rng.integers(3, min(4, room_v // 2) + 1))
            blocks.append(paired_planes_datum(m))
            dim_used += 4
            vecs_used += 2 * m
        if dim_used >= max_dim or rng.random() < 0.25:
            break
    d = direct_sum_data(blocks) if len(blocks) > 1 else blocks[0]
    if rotate and rng.random() < 0.8:
        d = rotate_datum(d, random_rotation(rng, d.ambient_dim))
    report = validate_datum(d)
    if not report.is_valid:
        raise InternalError(f"random datum failed validation (defect {report.defect:.3e})")
    return d
