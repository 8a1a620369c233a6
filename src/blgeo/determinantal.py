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

The same check solves the Gaussian fiber problem.  For positive
definite A_i on E_i in frame coordinates, the minimum of
sum c_i <A_i y_i, y_i> over sum c_i F_i y_i = x is <Q x, x>, where
Q^-1 = sum c_i F_i A_i^-1 F_i^T is the operator assembled from the
A_i^-1, and the minimizer is y_i = A_i^-1 F_i^T Q x.  Barthe's two sides
for f_i(y) = exp(-<A_i y, y>) are then pi^(n/2) exp(log_lhs / 2) and
pi^(n/2) exp(log_rhs / 2) of determinantal_high_check(d, [A_i^-1]).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datum import GeometricBLDatum, RankOneDatum, require_validated
from .errors import InputError, InternalError
from .structure import bowtie_classes, has_critical_eigenspaces
from .subspace import RESIDUAL_TOL

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
    """Both sides, also as logs; the inequality is a theorem, so log_gap < -1e-9 is refused."""

    lhs: float
    rhs: float
    log_lhs: float
    log_rhs: float
    log_gap: float
    equality: bool
    equality_certificate: object  # class partition, Phi matrix, or None

    def __post_init__(self):
        if self.log_gap < -1e-9:
            raise InternalError(f"determinantal inequality violated: log_gap = {self.log_gap:.3e}")


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _det_result(log_lhs: float, log_rhs: float, certificate) -> DetCheckResult:
    """The result of the two log sides; equality holds iff there is a certificate."""
    return DetCheckResult(_safe_exp(log_lhs), _safe_exp(log_rhs), log_lhs, log_rhs,
                          log_lhs - log_rhs, certificate is not None, certificate)


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
    return _det_result(float(log_lhs), log_rhs, classes if equality else None)


def assemble_operator(d: GeometricBLDatum, A_list) -> tuple:
    """sum_i c_i A_i P_{E_i} as an ambient n x n matrix, with the A_i.

    A_i is given in the frame coordinates of E_i; conjugating back gives
    the symmetric contribution c_i F_i A_i F_i^T.  Returns (M, mats), mats
    the symmetrized A_i.
    """
    require_validated(d)
    if len(A_list) != d.k:
        raise InputError(f"need one operator per entry: expected {d.k}, got {len(A_list)}")
    mats = []
    for (E, _), A in zip(d.entries, A_list):
        A = np.asarray(A, dtype=float)
        if A.shape != (E.dim, E.dim):
            raise InputError(f"operator shape {A.shape} does not match dim E = {E.dim}")
        require_spd(A, "operators")
        mats.append(0.5 * (A + A.T))
    return _assemble(d, mats), mats


def _assemble(d: GeometricBLDatum, mats) -> np.ndarray:
    """sum_i c_i F_i A_i F_i^T, symmetrized, for A_i that are already checked."""
    M = np.zeros((d.ambient_dim, d.ambient_dim))
    for (E, c), A in zip(d.entries, mats):
        M += c * (E.basis @ A @ E.frame)
    return 0.5 * (M + M.T)


def _log_sides(d: GeometricBLDatum, M: np.ndarray, mats) -> tuple:
    """(log det M, sum_i c_i log det A_i) for M assembled from the A_i."""
    sign, log_lhs = np.linalg.slogdet(M)
    if sign <= 0:
        raise InternalError("assembled operator is not positive definite")
    log_rhs = 0.0
    for (_, c), A in zip(d.entries, mats):
        log_rhs += c * float(np.linalg.slogdet(A)[1])
    return float(log_lhs), log_rhs


def determinantal_high_check(d: GeometricBLDatum, A_list) -> DetCheckResult:
    """Higher-rank determinantal inequality with the Phi certificate.

    Equality is declared iff the eigenspaces of M = sum c_i A_i P_{E_i}
    are all critical subspaces (M commutes with every P_{E_i}) and M
    restricts to A_i on every E_i; the certificate is Phi = M itself.
    """
    M, mats = assemble_operator(d, A_list)
    log_lhs, log_rhs = _log_sides(d, M, mats)
    scale = max(1.0, float(np.abs(M).max()))
    restriction_ok = True
    for (E, c), A in zip(d.entries, mats):
        if np.abs(M @ E.basis - E.basis @ A).max() > RESIDUAL_TOL * scale:
            restriction_ok = False
            break
    equality = restriction_ok and has_critical_eigenspaces(d, M)
    return _det_result(log_lhs, log_rhs, M if equality else None)


def _fiber_operator(d: GeometricBLDatum, Phi) -> tuple:
    """(Phi, [A_i^-1], Q^-1) for A_i = F_i^T Phi^2 F_i, Phi checked as n x n SPD.

    The A_i^-1 are positive definite because Phi is, so they skip the
    per-operator checks of assemble_operator.
    """
    require_validated(d)
    Phi = np.asarray(Phi, dtype=float)
    n = d.ambient_dim
    if Phi.shape != (n, n):
        raise InputError(f"Phi must be {n} x {n}")
    require_spd(Phi, "Phi")
    inverses = []
    for E, _ in d.entries:
        G = Phi @ E.basis
        inverses.append(np.linalg.inv(G.T @ G))
    return Phi, inverses, _assemble(d, inverses)


@dataclass(frozen=True)
class MinNormResult:
    min_value: float
    minimizers: tuple  # one vector per entry, x_i in E_i
    reference: float   # |Phi x|^2 for the same x


def min_norm_decomposition(d: GeometricBLDatum, Phi: np.ndarray, x) -> MinNormResult:
    """min sum c_i |Phi x_i|^2 over decompositions x = sum c_i x_i, x_i in E_i.

    With x_i = F_i y_i the objective is sum c_i <A_i y_i, y_i> for
    A_i = F_i^T Phi^2 F_i, so the fiber formula gives the minimum
    <Q x, x> at y_i = A_i^-1 F_i^T Q x.  When the eigenspaces of Phi are
    critical the minimum equals |Phi x|^2 and x_i = P_{E_i} x attains it.
    """
    Phi, inverses, Q_inv = _fiber_operator(d, Phi)
    x = np.asarray(x, dtype=float).reshape(d.ambient_dim)
    Qx = np.linalg.solve(Q_inv, x)
    minimizers = tuple(E.basis @ (B @ (E.frame @ Qx)) for (E, _), B in zip(d.entries, inverses))
    recon = sum(c * xi for (_, c), xi in zip(d.entries, minimizers))
    if np.linalg.norm(recon - x) > 1e-9 * (1.0 + np.linalg.norm(x)):
        raise InternalError("the fiber minimizers do not rebuild x")
    return MinNormResult(
        min_value=float(np.dot(x, Qx)),
        minimizers=minimizers,
        reference=float(np.dot(Phi @ x, Phi @ x)),
    )
