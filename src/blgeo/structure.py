"""Critical-subspace structure of a geometric Brascamp-Lieb datum.

A non-zero subspace V is critical when sum_i c_i dim(E_i cap V) = dim V,
equivalently when P_V commutes with every P_i = P_{E_i} (every E_i
splits as (E_i cap V) + (E_i cap V-perp)).  is_critical computes both
and cross-checks them; a disagreement is an internal error, never
silently resolved.  The sines that count dim(E_i cap V) come from one
batched SVD per entry dimension, and the commutators from one product
with the stack of the P_i that the datum builds when it is made.  A
symmetric matrix has critical eigenspaces exactly when it commutes
with every P_i, and for a critical V, E cap V = P_V E.

The structure comes from the same algebra, the *-algebra generated by
the P_i: the critical subspaces are its invariant subspaces, and the
pieces of a finest orthogonal critical decomposition are irreducible
cyclic modules, grown from eigenvectors of a generic element of it
(Maehara & Murota, JJIAM 27, 2010).  On a piece W, tr(P_i P_W) =
dim(E_i cap W); pieces where this is 0 or dim W for every i lie in a
joint 0/1 eigenspace cap_i E_i^(eps(i)), and those sharing one pattern
eps sum to an independent subspace owned by the entries with
eps(i) = 1.  The other pieces span the dependent subspace.  Nothing
here depends on the frames inside the E_i, the entry order or a
rotation of R^n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datum import GeometricBLDatum, RankOneDatum, rank_one_expansion, require_validated
from .errors import InputError, InternalError
from .subspace import (RANK_TOL, RESIDUAL_TOL, Subspace, cluster_eigenspaces, orthonormalize,
                       projection_matrix, projection_stack)

INTEGER_SNAP_TOL = 1e-6  # weighted dimension sums of valid data are near-integers
GENERIC_SEED = 20100101  # fixed, so the pieces chosen inside repeated blocks are reproducible


@dataclass(frozen=True)
class CriticalityReport:
    subspace: Subspace
    weighted_dim_sum: float
    dim: int
    is_critical: bool
    splitting_ok: bool


@dataclass(frozen=True)
class IndependentSubspace:
    subspace: Subspace
    weight_sum: float
    owners: tuple  # entry indices i with F_j contained in E_i


@dataclass(frozen=True)
class StructureReport:
    independent_subspaces: tuple  # of IndependentSubspace
    dependent_subspace: Subspace
    indecomposable_decomposition: tuple  # of Subspace
    rank_one_classes: tuple  # bowtie classes of the expansion of the given frames


def is_critical(d: GeometricBLDatum, V: Subspace) -> CriticalityReport:
    """Test criticality of V through both characterizations.

    dim(E_i cap V) is the number of singular values of F_i (I - P_V),
    the sines of the principal angles, at most RANK_TOL; the entries of
    one dimension share one product and one batched SVD.  The weighted
    dimension sum is snapped to the nearest integer before comparing
    with dim V (dimensions are integers, weights are floats; criticality
    is a discrete property).  The splitting test, every commutator
    [P_i, P_V] within RESIDUAL_TOL in max-norm, takes one stacked
    product with the P_i of the datum.  The two must agree, otherwise
    the thresholds are inconsistent and we raise instead of guessing.
    """
    require_validated(d)
    if V.ambient_dim != d.ambient_dim:
        raise InputError("subspace ambient dimension does not match the datum")
    if V.dim == 0:
        raise InputError("criticality is defined for non-zero subspaces only")
    return _criticality(d, [V], projection_matrix(V)[None])[0]


def _criticality(d: GeometricBLDatum, spaces, PV) -> list:
    """is_critical for each of the non-zero subspaces, all at once, given
    the stack PV of their projections: every product and SVD runs once
    over the whole stack."""
    n = d.ambient_dim
    away = np.eye(n) - PV
    counts = np.zeros((len(spaces), d.k), dtype=int)
    for members, frames in d.frame_stacks:
        sines = np.linalg.svd((frames.reshape(-1, n) @ away).reshape(len(spaces), *frames.shape),
                              compute_uv=False)
        counts[:, members] = np.count_nonzero(sines <= RANK_TOL, axis=2)
    X = d.projections @ PV[:, None]  # [P_i, P_V] = X_i - X_i^T
    commutators = np.abs(X - X.swapaxes(-1, -2)).max(axis=(1, 2, 3))
    reports = []
    for V, row, commutator in zip(spaces, counts.tolist(), commutators.tolist()):
        wds = 0.0
        for (_, c), count in zip(d.entries, row):  # entry order fixes the float sum
            wds += c * count
        splitting_ok = commutator <= RESIDUAL_TOL
        near_int = abs(wds - round(wds)) <= INTEGER_SNAP_TOL
        dim_match = near_int and int(round(wds)) == V.dim
        if dim_match != splitting_ok:
            raise InternalError(
                "criticality characterizations disagree: "
                f"weighted dim sum {wds:.12g} vs dim {V.dim}, splitting_ok={splitting_ok}"
            )
        reports.append(CriticalityReport(
            subspace=V,
            weighted_dim_sum=float(wds),
            dim=V.dim,
            is_critical=dim_match and splitting_ok,
            splitting_ok=splitting_ok,
        ))
    return reports


def has_critical_eigenspaces(d: GeometricBLDatum, M) -> bool:
    """Whether every eigenspace of the symmetric n x n matrix M is critical.

    The eigenprojections of M are polynomials in M, so they all commute
    with P_i exactly when M does.  Each commutator [P_i, M] is held to
    RESIDUAL_TOL relative to the largest entry of M; no eigenvalues are
    clustered, so the verdict has no eigenvalue-gap threshold.
    """
    require_validated(d)
    M = 0.5 * (M + M.T)
    bound = RESIDUAL_TOL * float(np.abs(M).max())
    X = d.projections @ M  # [P_i, M] = X_i - X_i^T
    return bool(np.abs(X - X.transpose(0, 2, 1)).max() <= bound)


def critical_meet(E: Subspace, V: Subspace) -> Subspace:
    """E cap V for a critical V, as the image of E under P_V.

    P_V commutes with P_E, so the cosines of the principal angles between
    E and V, the singular values of F_V F_E^T, are 0 or 1.  The dimension
    counts those above RANK_TOL, an absolute cut: a cut relative to
    the largest would count round-off as rank when E is orthogonal to V.
    """
    U, cosines, _ = np.linalg.svd(V.frame @ E.basis, full_matrices=False)
    r = int(np.count_nonzero(cosines > RANK_TOL))
    return orthonormalize((V.basis @ U[:, :r]).T, ambient_dim=V.ambient_dim)


def bowtie_classes(r: RankOneDatum) -> tuple:
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
    # hook and jump over the edges (both ways, and the loops i = i): each
    # label points at a smaller or equal index.  An edge between two trees
    # hooks the larger root onto the smaller, then pointer jumping flattens
    # every tree onto its root, the smallest member of its class
    i, j = np.nonzero(np.abs(r.vectors @ r.vectors.T) > RESIDUAL_TOL)
    labels = np.arange(r.k)
    while not np.array_equal(a := labels[i], b := labels[j]):
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    order = np.argsort(labels, kind="stable")  # classes by smallest member, members ascending
    cuts = [0, *(np.flatnonzero(np.diff(labels[order])) + 1).tolist(), r.k]
    order = order.tolist()
    return tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))


def indecomposable_decomposition(d: GeometricBLDatum) -> list:
    """Pairwise-orthogonal indecomposable critical subspaces spanning R^n.

    G = A + AB + BA, A and B fixed-seed random combinations of the P_i,
    is a symmetric element of their algebra, assumed generic: distinct
    eigenvalues on non-isomorphic irreducibles, simple ones over the
    real, complex or quaternion commutant of each.  Then the cyclic
    module of any u in an eigenspace U of G, span{u} grown under every
    P_i until it closes, is irreducible.  The projection on the pieces
    found commutes with G, so U is covered when the squared singular
    values of its rest, each 0 or 1, sum below 1/2: an absolute cut.
    Only n x n linear algebra is used, too small for the BLAS to thread.
    """
    require_validated(d)
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
            if norms @ norms < 0.5:  # squared singular values, 0 or 1, sum to the dimension left
                break
            W = new = rest[:, [norms.argmax()]] / norms.max()
            while new.shape[1] and W.shape[1] < n:
                # every P_i applied to the new directions in one product
                images = (projections @ new).reshape(d.k, n, -1).transpose(1, 0, 2).reshape(n, -1)
                images -= W @ (W.T @ images)
                if np.linalg.norm(images) <= RANK_TOL:  # bounds every singular value
                    break
                left, s, _ = np.linalg.svd(images, full_matrices=False)
                new = left[:, s > RANK_TOL]
                W = np.hstack([W, new])
            spans.append(orthonormalize(W.T, ambient_dim=n))
            found = np.hstack([found, spans[-1].basis])
    if found.shape[1] != n:
        raise InternalError(f"critical pieces have total dimension {found.shape[1]}, expected {n}")
    # pieces in batches whose (pieces, k, n, n) commutator stack is at most 2 MB
    step = max(1, 2 ** 18 // (d.k * n * n))
    if not all(r.is_critical for i in range(0, len(spans), step)
               for r in _criticality(d, spans[i:i + step], projection_stack(spans[i:i + step]))):
        raise InternalError("a computed piece failed the criticality test")
    spans.sort(key=lambda V: (V.dim, tuple(np.round(V.frame, 9).ravel())))
    return spans


def independent_subspaces(d: GeometricBLDatum) -> StructureReport:
    """Independent subspaces, dependent subspace, and the class structure.

    A piece W of the decomposition lies in an independent subspace when
    dim(E_i cap W) = tr(P_{E_i} P_W) is 0 or dim W for every i; the
    pieces are grouped by the entries that contain them, their owners.
    """
    n = d.ambient_dim
    pieces = indecomposable_decomposition(d)
    # meets[m, i] = tr(P_i P_W) for piece m: both projections are symmetric
    meets = np.rint(np.einsum("iab,mab->mi", d.projections, projection_stack(pieces)))
    groups = {}
    dependent = []
    for W, row in zip(pieces, meets.astype(int).tolist()):
        if all(m in (0, W.dim) for m in row):
            groups.setdefault(tuple(i for i, m in enumerate(row) if m), []).extend(W.frame)
        else:
            dependent.extend(W.frame)

    independents = []
    for owners, rows in groups.items():
        wsum = float(sum(d.entries[i][1] for i in owners))
        if abs(wsum - 1.0) > 1e-9:
            raise InternalError(
                f"independent subspace has owner weight sum {wsum:.12g}, expected 1"
            )
        independents.append(IndependentSubspace(orthonormalize(rows, ambient_dim=n), wsum, owners))
    independents.sort(key=lambda f: (f.subspace.dim, tuple(np.round(f.subspace.frame, 9).ravel())))

    dep = orthonormalize(dependent, ambient_dim=n)
    F = np.concatenate([dep.frame] + [f.subspace.frame for f in independents])
    if F.shape[0] != n or np.abs(F @ F.T - np.eye(n)).max() > 1e-9:
        raise InternalError("independent and dependent subspaces do not split R^n orthogonally")

    return StructureReport(
        independent_subspaces=tuple(independents),
        dependent_subspace=dep,
        indecomposable_decomposition=tuple(pieces),
        rank_one_classes=bowtie_classes(rank_one_expansion(d)),
    )


def restrict_datum(d: GeometricBLDatum, V: Subspace) -> GeometricBLDatum:
    """Restrict a datum to a critical subspace V, in V's own coordinates.

    Keeps the entries with E_i cap V != {0}; criticality of V guarantees
    sum c_i P_{E_i cap V} = I_V, so the output validates in dim V.
    """
    if not is_critical(d, V).is_critical:
        raise InputError("restriction requires a critical subspace")
    entries = []
    for E, c in d.entries:
        W = critical_meet(E, V)
        if W.dim:  # its frame in V coordinates
            entries.append((orthonormalize(W.frame @ V.basis, ambient_dim=V.dim), c))
    out = GeometricBLDatum(V.dim, tuple(entries))
    if not out.validated:
        raise InternalError(
            f"restriction to a critical subspace failed validation (defect {out.defect:.3e})"
        )
    return out
