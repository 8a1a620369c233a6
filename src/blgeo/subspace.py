"""Numerically robust arithmetic on linear subspaces of R^n.

A subspace is stored as an orthonormal frame (row per vector).  All
constructors funnel through :func:`orthonormalize`, which produces a
deterministic, sign-fixed frame from an SVD, so repeated runs emit
byte-identical output.  {0} and R^n are ordinary values, never errors.

Rank decisions use a single relative singular-value threshold so that
dimension counts (and hence criticality verdicts downstream) cannot
disagree between operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError


@dataclass(frozen=True)
class Tolerance:
    """Shared numerical thresholds.

    rank_rel_tol: relative singular-value cutoff for rank decisions.
    residual_tol: max-norm threshold for matrix/vector residual tests.
    """

    rank_rel_tol: float = 1e-9
    residual_tol: float = 1e-9

    def __post_init__(self):
        for name in ("rank_rel_tol", "residual_tol"):
            v = getattr(self, name)
            if not (0.0 < v < 1e-2):
                raise InputError(f"{name} must lie in (0, 1e-2), got {v}")


DEFAULT_TOL = Tolerance()


class Subspace:
    """A linear subspace of R^n held as an orthonormal frame.

    frame has shape (dim, n), one orthonormal row per basis vector;
    dim == 0 represents {0}.  Instances are immutable.
    """

    __slots__ = ("ambient_dim", "frame")

    def __init__(self, ambient_dim: int, frame):
        n = int(ambient_dim)
        if n < 1:
            raise InputError(f"ambient dimension must be >= 1, got {n}")
        F = np.asarray(frame, dtype=float)
        if F.size == 0:
            F = F.reshape(0, n)
        if F.ndim != 2 or F.shape[1] != n:
            raise InputError(f"frame must have shape (d, {n}), got {F.shape}")
        if F.shape[0] > n:
            raise InputError(f"frame has {F.shape[0]} vectors in dimension {n}")
        G = F @ F.T
        if F.shape[0] and np.abs(G - np.eye(F.shape[0])).max() >= 1e-12:
            raise InputError("frame rows are not orthonormal to 1e-12")
        F = F.copy()
        F.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "frame", F)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return self.frame.shape[0]

    @property
    def basis(self) -> np.ndarray:
        """Column-per-vector view of the frame, shape (n, dim)."""
        return self.frame.T

    def __repr__(self):
        return f"Subspace(n={self.ambient_dim}, dim={self.dim})"

    def to_json(self) -> dict:
        return {"n": self.ambient_dim, "frame": [list(map(float, row)) for row in self.frame]}

    @staticmethod
    def from_json(obj: dict, tol: Tolerance = DEFAULT_TOL) -> "Subspace":
        """Frames that are already orthonormal are kept verbatim, so a
        serialization round trip is exact; anything else is passed
        through orthonormalize to get the span."""
        try:
            n = int(obj["n"])
            rows = obj["frame"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"subspace JSON needs 'n' and 'frame': {exc}") from exc
        vectors = [np.asarray(r, dtype=float) for r in rows]
        if not all(np.isfinite(v).all() for v in vectors):
            raise InputError("subspace frame entries must be finite")
        try:
            return Subspace(n, np.array(vectors).reshape(len(vectors), n))
        except InputError:
            return orthonormalize(vectors, tol, ambient_dim=n)


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((0, n)))


def full_subspace(n: int) -> Subspace:
    return Subspace(n, np.eye(n))


def _sign_fix(U: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Flip each column so its first entry above the rank threshold is positive."""
    U = U.copy()
    for j in range(U.shape[1]):
        col = U[:, j]
        nz = np.nonzero(np.abs(col) > tol.rank_rel_tol)[0]
        if nz.size and col[nz[0]] < 0:
            U[:, j] = -col
    return U


def orthonormalize(vectors, tol: Tolerance = DEFAULT_TOL, *, ambient_dim: int | None = None) -> Subspace:
    """Span of the given vectors as a canonical orthonormal frame.

    The frame is the left-singular-vector basis of the column-stacked
    input, truncated at numerical rank (singular values above
    rank_rel_tol times the largest) and sign-fixed.  An empty input
    yields {0} and then requires ambient_dim.
    """
    vs = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not vs:
        if ambient_dim is None:
            raise InputError("empty vector list needs an explicit ambient_dim")
        return zero_subspace(ambient_dim)
    n = vs[0].shape[0]
    if n < 1:
        raise InputError("vectors must have dimension >= 1")
    for v in vs:
        if v.shape[0] != n:
            raise InputError(f"dimension mismatch: got lengths {v.shape[0]} and {n}")
    if ambient_dim is not None and ambient_dim != n:
        raise InputError(f"vectors have dimension {n}, expected {ambient_dim}")
    A = np.stack(vs, axis=1)  # n x m, column per vector
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return zero_subspace(n)
    rank = int(np.count_nonzero(s > tol.rank_rel_tol * s[0]))
    if rank == 0:
        return zero_subspace(n)
    return Subspace(n, _sign_fix(U[:, :rank], tol).T)


def projection_matrix(S: Subspace) -> np.ndarray:
    """Orthogonal projection onto S as a symmetric n x n matrix."""
    P = S.basis @ S.frame
    return 0.5 * (P + P.T)


def complement(A: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Orthogonal complement; dim(A) + dim(complement(A)) == n exactly."""
    n = A.ambient_dim
    d = A.dim
    if d == 0:
        return full_subspace(n)
    if d == n:
        return zero_subspace(n)
    U, _, _ = np.linalg.svd(A.basis, full_matrices=True)
    return Subspace(n, _sign_fix(U[:, d:], tol).T)


def subspace_sum(A: Subspace, B: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of A union B."""
    _check_same_ambient(A, B)
    return orthonormalize(list(A.frame) + list(B.frame), tol, ambient_dim=A.ambient_dim)


def intersect(A: Subspace, B: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """A intersect B, computed as the complement of (A-perp + B-perp)."""
    _check_same_ambient(A, B)
    if A.dim == 0 or B.dim == 0:
        return zero_subspace(A.ambient_dim)
    if A.dim == A.ambient_dim:
        return B
    if B.dim == B.ambient_dim:
        return A
    return complement(subspace_sum(complement(A, tol), complement(B, tol), tol), tol)


def contains(A: Subspace, B: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff B is contained in A (every frame vector of B projects onto itself)."""
    _check_same_ambient(A, B)
    if B.dim == 0:
        return True
    if B.dim > A.dim:
        return False
    P = projection_matrix(A)
    resid = B.frame @ P.T - B.frame
    return float(np.linalg.norm(resid, axis=1).max()) <= tol.residual_tol


def equal(A: Subspace, B: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Subspace equality as mutual containment."""
    return contains(A, B, tol) and contains(B, A, tol)


def _check_same_ambient(A: Subspace, B: Subspace):
    if A.ambient_dim != B.ambient_dim:
        raise InputError(
            f"ambient dimension mismatch: {A.ambient_dim} vs {B.ambient_dim}"
        )
