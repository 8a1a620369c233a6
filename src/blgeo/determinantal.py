"""Determinantal inequalities of Ball-Barthe type with equality detection.

Rank one: det(sum c_i t_i u_i u_i^T) >= prod t_i^{c_i} for a Parseval
frame and positive scalars t_i, with equality exactly when t is constant
on each indecomposable class.  Higher rank: det(sum c_i A_i P_{E_i}) >=
prod (det A_i)^{c_i} for positive definite A_i on each E_i, with
equality exactly when the assembled operator Phi = sum c_i A_i P_{E_i}
has critical eigenspaces and restricts to A_i on every E_i.

Everything is computed in the log domain; equality detection is
structural (class-constancy of t, or the Phi certificate), never a
floating-point comparison of the two sides.

The Cauchy-Binet expansion is kept as an independent oracle: with
v_i = sqrt(c_i) u_i the squared n x n minors d_I form a probability
measure with marginals sum_{I owns i} d_I = c_i, and
sum_I d_I t_I reproduces the determinant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .datum import GeometricBLDatum, RankOneDatum, require_validated
from .errors import CapError, InputError, InternalError
from .structure import bowtie_classes, has_critical_eigenspaces
from .subspace import RESIDUAL_TOL

MINOR_ENUMERATION_CAP = 10 ** 6
CLASS_CONSTANT_RTOL = 1e-9


def require_spd(M: np.ndarray, name: str) -> None:
    """Refuse a matrix that is not finite, symmetric and positive definite."""
    if not np.all(np.isfinite(M)):
        raise InputError(f"{name} must be finite")
    if np.abs(M - M.T).max() > 1e-9 * max(1.0, np.abs(M).max()):
        raise InputError(f"{name} must be symmetric")
    if np.linalg.eigvalsh(0.5 * (M + M.T)).min() <= 0.0:
        raise InputError(f"{name} must be positive definite")


@dataclass(frozen=True)
class DetCheckResult:
    lhs: float
    rhs: float
    log_lhs: float
    log_rhs: float
    log_gap: float
    equality: bool
    equality_certificate: object  # class partition, Phi matrix, or None

    def to_json(self) -> dict:
        cert = self.equality_certificate
        if isinstance(cert, np.ndarray):
            cert = [[float(x) for x in row] for row in cert]
        elif isinstance(cert, tuple):
            cert = [list(c) for c in cert]
        return {
            "lhs": self.lhs,
            "rhs": self.rhs,
            "log_lhs": self.log_lhs,
            "log_rhs": self.log_rhs,
            "log_gap": self.log_gap,
            "equality": self.equality,
            "equality_certificate": cert,
        }


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def ball_barthe_check(r: RankOneDatum, t) -> DetCheckResult:
    """det(sum c_i t_i u_i u_i^T) against prod t_i^{c_i}, in log domain.

    Equality is declared iff t is constant (relative 1e-9) on every
    indecomposable class of the frame; the certificate is the class
    partition.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (r.k,):
        raise InputError(f"need one t per vector: expected {r.k}, got {t.shape}")
    if not np.all(np.isfinite(t)) or np.any(t <= 0.0):
        raise InputError("all t_i must be positive and finite")
    M = (r.vectors.T * (r.weights * t)) @ r.vectors
    sign, log_lhs = np.linalg.slogdet(M)
    if sign <= 0:
        raise InternalError("weighted frame operator is not positive definite")
    log_rhs = float(np.dot(r.weights, np.log(t)))
    classes = bowtie_classes(r)
    equality = True
    for cls in classes:
        tc = t[list(cls)]
        if tc.max() - tc.min() > CLASS_CONSTANT_RTOL * tc.max():
            equality = False
            break
    return DetCheckResult(
        lhs=_safe_exp(float(log_lhs)),
        rhs=_safe_exp(log_rhs),
        log_lhs=float(log_lhs),
        log_rhs=log_rhs,
        log_gap=float(log_lhs) - log_rhs,
        equality=equality,
        equality_certificate=classes if equality else None,
    )


@dataclass(frozen=True)
class CauchyBinetExpansion:
    subsets: tuple          # n-element index tuples
    minor_weights: np.ndarray  # d_I = det[v_i : i in I]^2
    t_products: np.ndarray     # t_I = prod_{i in I} t_i
    weighted_sum: float        # sum_I d_I t_I
    determinant: float         # det(sum c_i t_i u_i u_i^T)

    def to_json(self) -> dict:
        return {
            "subsets": [list(I) for I in self.subsets],
            "minor_weights": [float(x) for x in self.minor_weights],
            "t_products": [float(x) for x in self.t_products],
            "weighted_sum": self.weighted_sum,
            "determinant": self.determinant,
        }


def cauchy_binet_expansion(r: RankOneDatum, t) -> CauchyBinetExpansion:
    """Enumerate all n x n minors of the scaled frame and cross-check.

    Verifies sum_I d_I = 1, the marginals sum_{I owns i} d_I = c_i, and
    that sum_I d_I t_I matches the dense determinant to relative 1e-9;
    any failure is an internal error because valid inputs cannot
    produce one.
    """
    t = np.asarray(t, dtype=float)
    n, k = r.ambient_dim, r.k
    count = math.comb(k, n)
    if count > MINOR_ENUMERATION_CAP:
        raise CapError("minor enumeration", MINOR_ENUMERATION_CAP, count)
    v = r.vectors * np.sqrt(r.weights)[:, None]
    subsets = tuple(combinations(range(k), n))
    idx = np.array(subsets, dtype=int)
    dets = np.linalg.det(v[idx])          # (count,) minors det[v_i : i in I]
    d_I = dets ** 2
    t_I = np.prod(t[idx], axis=1)
    weighted = float(np.dot(d_I, t_I))
    M = (r.vectors.T * (r.weights * t)) @ r.vectors
    det = float(np.linalg.det(M))

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
    return CauchyBinetExpansion(subsets, d_I, t_I, weighted, det)


def assemble_operator(d: GeometricBLDatum, A_list) -> tuple:
    """sum_i c_i A_i P_{E_i} as an ambient n x n matrix, with the A_i.

    A_i is given in the frame coordinates of E_i; conjugating back gives
    the symmetric contribution c_i F_i A_i F_i^T.  Returns (M, mats), mats
    the symmetrized A_i.
    """
    require_validated(d)
    n = d.ambient_dim
    if len(A_list) != d.k:
        raise InputError(f"need one operator per entry: expected {d.k}, got {len(A_list)}")
    M = np.zeros((n, n))
    mats = []
    for (E, c), A in zip(d.entries, A_list):
        A = np.asarray(A, dtype=float)
        if A.shape != (E.dim, E.dim):
            raise InputError(f"operator shape {A.shape} does not match dim E = {E.dim}")
        require_spd(A, "operators")
        mats.append(0.5 * (A + A.T))
        M += c * (E.basis @ mats[-1] @ E.frame)
    return 0.5 * (M + M.T), mats


def determinantal_high_check(d: GeometricBLDatum, A_list) -> DetCheckResult:
    """Higher-rank determinantal inequality with the Phi certificate.

    Equality is declared iff the eigenspaces of M = sum c_i A_i P_{E_i}
    are all critical subspaces (M commutes with every P_{E_i}) and M
    restricts to A_i on every E_i; the certificate is Phi = M itself.
    """
    M, mats = assemble_operator(d, A_list)
    sign, log_lhs = np.linalg.slogdet(M)
    if sign <= 0:
        raise InternalError("assembled operator is not positive definite")
    log_rhs = 0.0
    for (E, c), A in zip(d.entries, mats):
        s, ld = np.linalg.slogdet(A)
        log_rhs += c * float(ld)
    scale = max(1.0, float(np.abs(M).max()))
    restriction_ok = True
    for (E, c), A in zip(d.entries, mats):
        if np.abs(M @ E.basis - E.basis @ A).max() > RESIDUAL_TOL * scale:
            restriction_ok = False
            break
    equality = restriction_ok and has_critical_eigenspaces(d, M)
    return DetCheckResult(
        lhs=_safe_exp(float(log_lhs)),
        rhs=_safe_exp(log_rhs),
        log_lhs=float(log_lhs),
        log_rhs=log_rhs,
        log_gap=float(log_lhs) - log_rhs,
        equality=equality,
        equality_certificate=M if equality else None,
    )


@dataclass(frozen=True)
class MinNormResult:
    min_value: float
    minimizers: tuple  # one vector per entry, x_i in E_i
    reference: float   # |Phi x|^2 for the same x

    def to_json(self) -> dict:
        return {
            "min_value": self.min_value,
            "reference": self.reference,
            "minimizers": [[float(v) for v in x] for x in self.minimizers],
        }


def min_norm_decomposition(d: GeometricBLDatum, Phi: np.ndarray, x) -> MinNormResult:
    """min sum c_i |Phi x_i|^2 over decompositions x = sum c_i x_i, x_i in E_i.

    Solved exactly through the KKT system in frame coordinates: the
    Hessian is block diagonal (2 c_i F_i^T Phi^2 F_i) and the n coupling
    constraints are sum c_i F_i y_i = x.  When the eigenspaces of Phi are
    critical the minimum equals |Phi x|^2 and x_i = P_{E_i} x attains it.
    """
    require_validated(d)
    Phi = np.asarray(Phi, dtype=float)
    n = d.ambient_dim
    if Phi.shape != (n, n):
        raise InputError(f"Phi must be {n} x {n}")
    require_spd(Phi, "Phi")
    x = np.asarray(x, dtype=float).reshape(n)

    dims = [E.dim for E, _ in d.entries]
    D = sum(dims)
    H = np.zeros((D, D))
    C = np.zeros((n, D))
    off = 0
    for (E, c), dd in zip(d.entries, dims):
        G = Phi @ E.basis
        H[off:off + dd, off:off + dd] = 2.0 * c * (G.T @ G)
        C[:, off:off + dd] = c * E.basis
        off += dd
    KKT = np.zeros((D + n, D + n))
    KKT[:D, :D] = H
    KKT[:D, D:] = C.T
    KKT[D:, :D] = C
    rhs = np.concatenate([np.zeros(D), x])
    try:
        sol = np.linalg.solve(KKT, rhs)
    except np.linalg.LinAlgError as exc:
        raise InternalError(f"singular KKT system: {exc}") from exc

    minimizers = []
    value = 0.0
    recon = np.zeros(n)
    off = 0
    for (E, c), dd in zip(d.entries, dims):
        xi = E.basis @ sol[off:off + dd]
        minimizers.append(xi)
        value += c * float(np.dot(Phi @ xi, Phi @ xi))
        recon += c * xi
        off += dd
    if np.linalg.norm(recon - x) > 1e-9 * (1.0 + np.linalg.norm(x)):
        raise InternalError("KKT solution does not satisfy the decomposition constraint")
    return MinNormResult(
        min_value=value,
        minimizers=tuple(minimizers),
        reference=float(np.dot(Phi @ x, Phi @ x)),
    )
