"""Critical-subspace structure of a geometric Brascamp-Lieb datum.

A non-zero subspace V is critical when sum_i c_i dim(E_i cap V) = dim V,
equivalently when every E_i splits as (E_i cap V) + (E_i cap V-perp),
equivalently when P_V commutes with every P_i = P_{E_i}.  is_critical
computes the first two and cross-checks them; a disagreement is an
internal error, never silently resolved.

The structure comes from the third: the projections onto critical
subspaces are those in the commutant of the *-algebra generated by the
P_i.  Since sum c_i P_i = I, the map X -> sum c_i P_i X P_i is
self-adjoint with spectrum in [0, 1] and <X, X - sum c_i P_i X P_i> =
1/2 sum c_i |[P_i, X]|^2, so the commutant is its eigenvalue-1 space,
and the eigenspaces of a generic symmetric element of the commutant are
the pieces of a finest orthogonal critical decomposition (Murota, Kanno,
Kojima & Kojima, JJIAM 27, 2010).  On a piece W, tr(P_i P_W) =
dim(E_i cap W); pieces where this is 0 or dim W for every i lie in a
joint 0/1 eigenspace cap_i E_i^(eps(i)), and those sharing one pattern
eps sum to an independent subspace owned by the entries with
eps(i) = 1.  The other pieces span the dependent subspace.  Nothing here
depends on the frames inside the E_i, the entry order or a rotation of
R^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datum import GeometricBLDatum, RankOneDatum, rank_one_expansion, require_validated, validate_datum
from .errors import InputError, InternalError
from .subspace import (
    DEFAULT_TOL,
    Subspace,
    Tolerance,
    cluster_eigenspaces,
    complement,
    contains,
    equal,
    intersect,
    orthonormalize,
    projection_matrix,
    subspace_sum,
)

INTEGER_SNAP_TOL = 1e-6  # weighted dimension sums of valid data are near-integers
GENERIC_SEED = 20100101  # fixed, so the pieces chosen inside repeated blocks are reproducible


@dataclass(frozen=True)
class CriticalityReport:
    subspace: Subspace
    weighted_dim_sum: float
    dim: int
    is_critical: bool
    splitting_ok: bool

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "weighted_dim_sum": self.weighted_dim_sum,
            "is_critical": self.is_critical,
            "splitting_ok": self.splitting_ok,
            "subspace": self.subspace.to_json(),
        }


@dataclass(frozen=True)
class IndependentSubspace:
    subspace: Subspace
    weight_sum: float
    owners: tuple  # entry indices i with F_j contained in E_i

    def to_json(self) -> dict:
        return {
            "subspace": self.subspace.to_json(),
            "weight_sum": self.weight_sum,
            "owners": list(self.owners),
        }


@dataclass(frozen=True)
class StructureReport:
    independent_subspaces: tuple  # of IndependentSubspace
    dependent_subspace: Subspace
    indecomposable_decomposition: tuple  # of Subspace
    rank_one_classes: tuple  # bowtie classes of the expansion of the given frames

    def to_json(self) -> dict:
        return {
            "independent_subspaces": [f.to_json() for f in self.independent_subspaces],
            "dependent_subspace": self.dependent_subspace.to_json(),
            "indecomposable_decomposition": [V.to_json() for V in self.indecomposable_decomposition],
            "rank_one_classes": [list(c) for c in self.rank_one_classes],
        }


def is_critical(d: GeometricBLDatum, V: Subspace, tol: Tolerance = DEFAULT_TOL) -> CriticalityReport:
    """Test criticality of V through both characterizations.

    The weighted dimension sum is snapped to the nearest integer before
    comparing with dim V (dimensions are integers, weights are floats;
    criticality is a discrete property).  The splitting test
    E_i = (E_i cap V) + (E_i cap V-perp) must agree, otherwise the rank
    thresholds are inconsistent and we raise instead of guessing.
    """
    require_validated(d)
    if V.ambient_dim != d.ambient_dim:
        raise InputError("subspace ambient dimension does not match the datum")
    if V.dim == 0:
        raise InputError("criticality is defined for non-zero subspaces only")
    Vp = complement(V, tol)
    wds = 0.0
    splitting_ok = True
    for E, c in d.entries:
        EV = intersect(E, V, tol)
        EVp = intersect(E, Vp, tol)
        wds += c * EV.dim
        if not equal(E, subspace_sum(EV, EVp, tol), tol):
            splitting_ok = False
    near_int = abs(wds - round(wds)) <= INTEGER_SNAP_TOL
    dim_match = near_int and int(round(wds)) == V.dim
    if dim_match != splitting_ok:
        raise InternalError(
            "criticality characterizations disagree: "
            f"weighted dim sum {wds:.12g} vs dim {V.dim}, splitting_ok={splitting_ok}"
        )
    return CriticalityReport(
        subspace=V,
        weighted_dim_sum=float(wds),
        dim=V.dim,
        is_critical=dim_match and splitting_ok,
        splitting_ok=splitting_ok,
    )


def bowtie_classes(r: RankOneDatum, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Partition of the expansion vectors into indecomposable classes.

    Connected components of the graph with an edge where |<u_i, u_j>|
    exceeds the residual tolerance.  For a Parseval frame the spans of
    the classes are pairwise orthogonal, which makes the component
    relation coincide with membership in a common minimal dependent set
    (the matroid-circuit relation); the exponential circuit search is
    kept only as a small-instance test oracle.  The classes depend on the
    frames given inside each E_i: they are the equality classes of the
    rank-one Ball-Barthe inequality for those vectors, not a structure of
    the datum (rotating a frame inside its E_i can merge classes).
    """
    k = r.k
    gram = np.abs(r.vectors @ r.vectors.T)
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(k):
        for j in range(i + 1, k):
            if gram[i, j] > tol.residual_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda g: g[0]))


def indecomposable_decomposition(d: GeometricBLDatum, tol: Tolerance = DEFAULT_TOL) -> list:
    """Pairwise-orthogonal indecomposable critical subspaces spanning R^n.

    G = sum r_i P_i (fixed-seed random r) lies in the algebra, so the
    commutant is block diagonal on G's clustered eigenspaces.  One on
    which every P_i is 0 or 1 splits into lines.  On the rest, the
    commutant is the eigenvalue-1 space of sum_i c_i kron(P_i, P_i)
    compressed to those blocks, and the pieces are the clustered
    eigenspaces of the symmetric part of a fixed-seed random element of
    it.  The compression keeps the eigenproblem at sum_s mu_s^2 unknowns
    (mu_s the block sizes), not n^2: OpenBLAS threads eigenproblems from
    about 150 unknowns on, which changes the last bits, so this is what
    keeps the output bytes independent of the BLAS thread count.  Where
    a block repeats (paired planes) the finest decomposition is not
    unique and the seed picks one.  Every piece is verified critical.
    """
    require_validated(d)
    n = d.ambient_dim
    rng = np.random.default_rng(GENERIC_SEED)
    projections = [projection_matrix(E) for E, _ in d.entries]
    G = sum(r * P for r, P in zip(rng.uniform(1.0, 2.0, d.k), projections))
    _, clusters = cluster_eigenspaces(G)
    spans = []
    blocks = []
    for S in clusters:
        # every E_i contains S or is orthogonal to it
        if all(np.abs(E.frame @ S.basis).max() <= tol.residual_tol or contains(E, S, tol)
               for E, _ in d.entries):
            spans.extend(Subspace(n, row[None, :]) for row in S.frame)
        else:
            blocks.append(S.frame)
    if blocks:
        F = np.concatenate(blocks)  # orthonormal rows spanning the rest
        idx = np.cumsum([0] + [len(b) for b in blocks])
        pairs = np.array([(a, b) for lo, hi in zip(idx, idx[1:])
                          for a in range(lo, hi) for b in range(lo, hi)])
        rows, cols = pairs[:, 0], pairs[:, 1]
        K = np.zeros((len(pairs), len(pairs)))
        for (_, c), P in zip(d.entries, projections):
            g = F @ P @ F.T
            K += c * g[np.ix_(rows, rows)] * g[np.ix_(cols, cols)]
        w, U = np.linalg.eigh(0.5 * (K + K.T))
        fixed = U[:, w >= 1.0 - tol.rank_rel_tol]
        Y = np.zeros((len(F), len(F)))
        Y[rows, cols] = fixed @ (fixed.T @ rng.standard_normal(len(pairs)))
        _, spaces = cluster_eigenspaces(Y + Y.T)
        spans.extend(orthonormalize(V.frame @ F, tol, ambient_dim=n) for V in spaces)
    total = sum(V.dim for V in spans)
    if total != n:
        raise InternalError(f"critical pieces have total dimension {total}, expected {n}")
    for V in spans:
        if not is_critical(d, V, tol).is_critical:
            raise InternalError("a computed piece failed the criticality test")
    spans.sort(key=lambda V: (V.dim, tuple(np.round(V.frame, 9).ravel())))
    return spans


def independent_subspaces(d: GeometricBLDatum, tol: Tolerance = DEFAULT_TOL) -> StructureReport:
    """Independent subspaces, dependent subspace, and the class structure.

    A piece W of the decomposition lies in an independent subspace when
    dim(E_i cap W) = tr(P_{E_i} P_W) is 0 or dim W for every i; the
    pieces are grouped by the entries that contain them, their owners.
    """
    n = d.ambient_dim
    pieces = indecomposable_decomposition(d, tol)
    groups = {}
    dependent = []
    for W in pieces:
        meets = [int(round(np.linalg.norm(E.frame @ W.basis) ** 2)) for E, _ in d.entries]
        if all(m in (0, W.dim) for m in meets):
            groups.setdefault(tuple(i for i, m in enumerate(meets) if m), []).extend(W.frame)
        else:
            dependent.extend(W.frame)

    independents = []
    for owners, rows in groups.items():
        wsum = float(sum(d.entries[i][1] for i in owners))
        if abs(wsum - 1.0) > 1e-9:
            raise InternalError(
                f"independent subspace has owner weight sum {wsum:.12g}, expected 1"
            )
        independents.append(IndependentSubspace(orthonormalize(rows, tol, ambient_dim=n), wsum, owners))
    independents.sort(key=lambda f: (f.subspace.dim, tuple(np.round(f.subspace.frame, 9).ravel())))

    for a in range(len(independents)):
        for b in range(a + 1, len(independents)):
            Fa, Fb = independents[a].subspace, independents[b].subspace
            if np.abs(Fa.frame @ Fb.frame.T).max() > 1e-9:
                raise InternalError("independent subspaces are not pairwise orthogonal")

    dep = orthonormalize(dependent, tol, ambient_dim=n)
    if dep.dim + sum(f.subspace.dim for f in independents) != n:
        raise InternalError("independent/dependent dimensions do not add up to n")

    return StructureReport(
        independent_subspaces=tuple(independents),
        dependent_subspace=dep,
        indecomposable_decomposition=tuple(pieces),
        rank_one_classes=bowtie_classes(rank_one_expansion(d), tol),
    )


def restrict_datum(d: GeometricBLDatum, V: Subspace, tol: Tolerance = DEFAULT_TOL) -> GeometricBLDatum:
    """Restrict a datum to a critical subspace V, in V's own coordinates.

    Keeps the entries with E_i cap V != {0}; criticality of V guarantees
    sum c_i P_{E_i cap V} = I_V, so the output validates in dim V.
    """
    rep = is_critical(d, V, tol)
    if not rep.is_critical:
        raise InputError("restriction requires a critical subspace")
    B = V.basis  # n x dimV, orthonormal columns
    entries = []
    for E, c in d.entries:
        W = intersect(E, V, tol)
        if W.dim == 0:
            continue
        coords = (B.T @ W.basis).T  # rows in V coordinates, orthonormal
        entries.append((orthonormalize(coords, tol, ambient_dim=V.dim), c))
    out = GeometricBLDatum(V.dim, tuple(entries))
    report = validate_datum(out, tol)
    if not report.is_valid:
        raise InternalError(
            f"restriction to a critical subspace failed validation (defect {report.defect:.3e})"
        )
    return out
