"""Determinantal inequalities of Ball-Barthe type with equality detection.

det(sum c_i F_i^T A_i F_i) >= prod (det A_i)^{c_i} for positive definite
A_i on each E_i, with equality exactly when the assembled operator
M = sum c_i F_i^T A_i F_i restricts to A_i on every E_i, so that it
commutes with every P_{E_i} and has critical eigenspaces; _restricts is
that one test, for every Gaussian check.  The rank-one inequality
det(sum c_j t_j u_j u_j^T) >= prod t_j^{c_j} over the expansion of a
datum is the case A_i = diag(t) in the frame of E_i: Barthe's rule,
equality exactly when t is constant on each indecomposable class, is
the same restriction.

Everything is computed in the log domain; equality detection is
structural (the certificate M or Phi): the two sides can refute a
certificate but never make one.  Every log-determinant of a
sum is gram_log_det's, from one QR of stacked rows, never of a Gram
matrix or an inverse, and every result carries the first-order rounding
budget that README.md derives.  Per-entry work (checks, factors, rows)
runs as one numpy call per entry dimension over the datum's frame
stacks and the constants the datum built with them; sums across entries
run in entry order, so every value is the one a loop over the entries
gives.  The restriction test runs only where the sides allow equality.

The same factors solve the Gaussian fiber problem: the minimum of
sum c_i <A_i y_i, y_i> over sum c_i F_i^T y_i = x is <Q x, x>, where
Q^-1 = sum c_i F_i^T A_i^-1 F_i, and Barthe's two sides for
f_i(y) = exp(-<A_i y, y>) are pi^(n/2) det(Q^-1)^(1/2) and
pi^(n/2) prod det(A_i^-1)^(c_i/2).  For A_i = F_i Phi^2 F_i^T and the QR
Phi F_i^T = Q_i R_i, Q^-1 = Phi^-1 S Phi^-1 for every SPD Phi, with S =
sum c_i Q_i Q_i^T the weighted projections onto the Phi E_i; the sides
are equal exactly when Phi restricts to F_i Phi F_i^T on every E_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .datum import GeometricBLDatum, RankOneDatum, require_validated
from .errors import InputError, InternalError
from .subspace import RESIDUAL_TOL

U = np.finfo(float).eps / 2  # unit roundoff


def require_spd(M: np.ndarray, name: str) -> tuple:
    """Refuse a matrix or a stack unless each is finite, symmetric and
    positive definite; returns (1/2 M + 1/2 M^T, its eigenvalues ascending)."""
    T, axes = M.swapaxes(-1, -2), (-2, -1)
    scale = np.abs(M).max(axis=axes)  # nan or inf exactly when its matrix holds one
    if not math.isfinite(scale.max()):
        raise InputError(f"{name} must be finite")
    with np.errstate(over="ignore"):  # a difference past the largest double is asymmetric too
        skew = np.abs(M - T).max(axis=axes)
    # relative to the matrix's own largest entry, so a tiny matrix gets no free pass
    if (skew > 1e-9 * scale).any():
        raise InputError(f"{name} must be symmetric")
    # halves first: the sum of two entries near the largest double overflows
    S = 0.5 * M + 0.5 * T
    eigenvalues = np.linalg.eigvalsh(S)
    if eigenvalues[..., 0].min() <= 0.0:
        raise InputError(f"{name} must be positive definite")
    return S, eigenvalues


@dataclass(frozen=True)
class DetCheckResult:
    """Both sides, also as logs, and the first-order rounding budget of
    log_gap; the inequality is a theorem, so log_gap < -budget is refused,
    and so is an equality verdict with log_gap > budget."""

    lhs: float
    rhs: float
    log_lhs: float
    log_rhs: float
    log_gap: float
    budget: float
    equality: bool
    equality_certificate: object  # the certificate matrix, or None

    def __post_init__(self):
        if self.log_gap < -self.budget:
            raise InternalError(f"determinantal inequality violated: log_gap = {self.log_gap:.3e} "
                                f"below the rounding budget {self.budget:.3e}")
        if self.equality and self.log_gap > self.budget:
            raise InternalError(f"equality certificate, yet log_gap = {self.log_gap:.3e} "
                                f"above the rounding budget {self.budget:.3e}")


def _safe_exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _det_result(log_lhs: float, log_rhs: float, budget: float, certificate) -> DetCheckResult:
    """The result of the two log sides; equality holds iff there is a certificate."""
    return DetCheckResult(_safe_exp(log_lhs), _safe_exp(log_rhs), log_lhs, log_rhs,
                          log_lhs - log_rhs, budget, certificate is not None, certificate)


def gram_log_det(rows: np.ndarray, kappa: float) -> tuple:
    """(log det(B B^T), its rounding error) for the K x n rows B^T of rank
    n, as 2 sum_j log|r_jj| from one Householder QR B^T = Q R; kappa
    bounds the condition number of B.  The QR is exact for rows moved by
    gamma_Kn of each column's norm (Higham, Thm 19.4), which moves the log
    det by at most 2 n gamma_Kn kappa; the logs and their sum add
    gamma_(n+1) sum_j |2 log r_jj|.  README.md derives the rest of every
    closed form's budget from this bound.  Rows go in by decreasing largest
    entry, sorted stably, which makes the QR row-wise stable (Higham, sec.
    19.4): rows many orders below the others no longer leave an r_jj of 0.
    """
    order = np.argsort(-np.abs(rows).max(axis=1), kind="stable")
    h = np.linalg.qr(rows[order], mode="raw")[0]  # R is the upper triangle of h^T
    try:
        logs = [2.0 * math.log(abs(r)) for r in h.diagonal().tolist()]
    except ValueError:  # a zero on the diagonal
        raise InternalError("assembled operator is not positive definite") from None
    K, n = rows.shape
    return math.fsum(logs), 2 * n * K * n * U * kappa + (n + 1) * U * math.fsum(map(abs, logs))


def _factor_rows(d: GeometricBLDatum, blocks, diagonals) -> tuple:
    """(rows, sum_i c_i log det(T_i T_i^T)) for row blocks X_i (dim E_i x n)
    and the diagonals of triangular factors T_i, stacked as d.frame_stacks
    groups the entries: the rows sqrt(c_i) X_i in that order, and the log
    dets summed in entry order."""
    logdets = np.empty(d.k)
    for (members, _), diag in zip(d.frame_stacks, diagonals):
        logdets[members] = 2.0 * np.log(np.abs(diag)).sum(axis=-1)
    total = 0.0
    for c, logdet in zip(d.weights.tolist(), logdets.tolist()):
        total += c * logdet
    return np.concatenate([(root * X).reshape(-1, X.shape[-1]) for root, X in zip(d.stack_roots, blocks)]), total


def _restricts(d: GeometricBLDatum, M: np.ndarray, blocks=None, least=None) -> bool:
    """Whether M maps every E_i into itself as B_i (blocks, F_i M F_i^T by
    default, stacked as d.frame_stacks, and least their lambda_min in entry
    order): each max|M F_i^T - F_i^T B_i| within its entry's own scale,
    RESIDUAL_TOL lambda_min(B_i), plus the rounding of M's K-term sums and
    n-term products, twice over, in the columns F_i touches (d.supports;
    exact zeros stay exact, so a block apart adds nothing).  A symmetric M
    that passes commutes with every P_{E_i}: its eigenspaces are critical."""
    if blocks is None:
        blocks, least = [F @ M @ F.swapaxes(-1, -2) for _, F in d.frame_stacks], np.empty(d.k)
        for (members, _), B in zip(d.frame_stacks, blocks):
            least[members] = np.linalg.eigvalsh(B)[:, 0]
    n, reach, residual = d.ambient_dim, np.abs(M).max(axis=0), np.empty(d.k)
    slack = 2 * n * (sum(F.shape[0] * F.shape[1] for _, F in d.frame_stacks) + n) * U
    for (members, F), B in zip(d.frame_stacks, blocks):
        Ft = F.swapaxes(-1, -2)
        residual[members] = np.abs(M @ Ft - Ft @ B).max(axis=(-2, -1))
    return bool((residual <= RESIDUAL_TOL * least + slack * (d.supports * reach).max(axis=-1)).all())


def ball_barthe_check(r: RankOneDatum, t) -> DetCheckResult:
    """det(sum c_j t_j u_j u_j^T) against prod t_j^{c_j} over the expansion
    r of a datum: determinantal_high_check of that datum with A_i = diag(t)
    over the frame rows of E_i.  Barthe's rule, equality exactly when t is
    constant on each indecomposable class, is then the one restriction test.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (r.k,):
        raise InputError(f"need one t per vector: expected {r.k}, got {t.shape}")
    if not np.isfinite(t).all() or (t <= 0.0).any():
        raise InputError("all t_i must be positive and finite")
    # each stack's diag(t_i) straight from t: t_j times 1 on the diagonal, +0 off it
    return _high_check(r.datum, [t[rows][..., None] * np.eye(rows.shape[1]) for rows in r.datum.stack_rows])


def determinantal_high_check(d: GeometricBLDatum, A_list) -> DetCheckResult:
    """Higher-rank determinantal inequality: _high_check of the A_i, stacked."""
    require_validated(d)
    if len(A_list) != d.k:
        raise InputError(f"need one operator per entry: expected {d.k}, got {len(A_list)}")
    A_list = [np.asarray(A, dtype=float) for A in A_list]
    for (E, _), A in zip(d.entries, A_list):
        if A.shape != (E.dim, E.dim):
            raise InputError(f"operator shape {A.shape} does not match dim E = {E.dim}")
    return _high_check(d, [np.array([A_list[i] for i in members.tolist()]) for members, _ in d.frame_stacks])


def _high_check(d: GeometricBLDatum, stacks) -> DetCheckResult:
    """The determinantal check, with the Phi certificate, of the A_i stacked
    as d.frame_stacks.  With A_i = L_i L_i^T by Cholesky, the rows
    B = [sqrt(c_i) L_i^T F_i] give the left side (gram_log_det) and the
    certificate M = B^T B = sum c_i F_i^T A_i F_i.  Equality is declared
    iff the sides do not refute it and M restricts to every A_i (_restricts).
    """
    mats, least, factors = [], np.empty(d.k), []
    lo, hi, delta = math.inf, 0.0, 0.0
    for (members, F), A in zip(d.frame_stacks, stacks):
        A, lam = require_spd(A, "operators")
        mats.append(A)
        least[members] = lam[:, 0]
        try:
            factors.append(np.linalg.cholesky(A))
        except np.linalg.LinAlgError:  # positive eigenvalues, yet singular to working precision
            raise InputError("operators must be positive definite") from None
        dim, kappa = F.shape[1], _safe_exp(float((np.log(lam[:, -1]) - np.log(lam[:, 0])).max()))
        delta = max(delta, (dim + 1) * dim * kappa * U + (dim + 2) * dim * math.sqrt(kappa) * U)
        lo, hi = min(lo, float(lam.min())), max(hi, float(lam.max()))
    rows, log_rhs = _factor_rows(d, [L.swapaxes(-1, -2) @ F for (_, F), L in zip(d.frame_stacks, factors)],
                                 [L.diagonal(0, -2, -1) for L in factors])
    log_lhs, error = gram_log_det(rows, math.sqrt(hi) / math.sqrt(lo))
    n = d.ambient_dim
    # l_jj^2 lies in [lo, hi], which bounds the logs that log_rhs sums
    budget = error + 2 * n * delta + (len(rows) + 2) * U * n * max(abs(math.log(lo)), abs(math.log(hi)))
    # an entry beside operators some 1e12 times larger in its own coordinates is
    # lost in the rounding of M, not in the row-sorted QR: there the sides decide
    if log_lhs - log_rhs <= budget:
        M = np.einsum("ki,kj->ij", rows, rows)  # fixed order, no BLAS: same bytes at any thread count
        if _restricts(d, M, mats, least):
            return _det_result(log_lhs, log_rhs, budget, M)
    return _det_result(log_lhs, log_rhs, budget, None)


def _fiber_factors(d: GeometricBLDatum, Phi) -> tuple:
    """(Phi checked as n x n SPD with normal eigenvalues, its eigenvalues, the
    QR factors (Q_i, R_i) of Phi F_i^T stacked as d.frame_stacks, the rows
    sqrt(c_i) Q_i^T in that order, sum_i c_i log det A_i)."""
    require_validated(d)
    Phi = np.asarray(Phi, dtype=float)
    if Phi.shape != (d.ambient_dim, d.ambient_dim):
        raise InputError(f"Phi must be {d.ambient_dim} x {d.ambient_dim}")
    eigenvalues = require_spd(Phi, "Phi")[1]
    if eigenvalues[0] < np.finfo(float).tiny:  # the rounding budget takes every error as relative
        raise InputError("Phi must have no subnormal eigenvalue")
    factors = [np.linalg.qr(Phi @ F.swapaxes(-1, -2)) for _, F in d.frame_stacks]
    if not all(np.isfinite(Q).all() and np.isfinite(R).all() for Q, R in factors):
        # a Householder step adds a column's entry to its norm, which can pass the largest double
        raise InputError("Phi F_i^T leaves the double range in its QR factors")
    return (Phi, eigenvalues, factors,
            *_factor_rows(d, [Q.swapaxes(-1, -2) for Q, _ in factors],
                          [R.diagonal(0, -2, -1) for _, R in factors]))


def fiber_log_sides(d: GeometricBLDatum, Phi) -> DetCheckResult:
    """log det Q^-1 against sum_i c_i log det A_i^-1, A_i = F_i Phi^2 F_i^T, as a
    check of any SPD Phi: the certificate is Phi when it maps every E_i into
    itself (_restricts) and the sides do not refute it; then Q = Phi^2."""
    Phi, eigenvalues, factors, rows, log_a = _fiber_factors(d, Phi)
    sigma = np.linalg.svd(rows, compute_uv=False)
    log_s, error_s = gram_log_det(rows, sigma[0] / sigma[-1])
    cond = float(eigenvalues[-1]) / float(eigenvalues[0])
    log_phi, error_phi = gram_log_det(Phi, cond)
    n, dim = d.ambient_dim, max(F.shape[1] for _, F in d.frame_stacks)
    # (|Phi|_F + dim lambda_max) / lambda_min, scaled first so that no square overflows
    theta = n * math.sqrt(dim) * U * (float(np.linalg.norm(Phi / eigenvalues[-1])) + dim) * cond
    # r_jj lies in [lambda_min(Phi), lambda_max(Phi)], which bounds the logs that log_a sums
    rounding = (len(rows) + 2) * U * n * 2.0 * float(np.abs(np.log(eigenvalues[[0, -1]])).max())
    with np.errstate(over="ignore"):  # 1 / sigma_min^2 is inf when the Phi E_i are nearly dependent
        budget = error_s + error_phi + 2 * n * theta * (sigma[-1] ** -2.0 + 2.0) + rounding
    if not math.isfinite(budget):
        raise InputError("Phi's rounding budget leaves the double range")
    equality = log_s - log_phi + log_a <= budget and _restricts(d, Phi)
    return _det_result(log_s - log_phi, -log_a, budget, Phi if equality else None)


@dataclass(frozen=True)
class MinNormResult:
    min_value: float
    minimizers: tuple  # one vector per entry, x_i in E_i
    reference: float   # |Phi x|^2 for the same x


def min_norm_decomposition(d: GeometricBLDatum, Phi: np.ndarray, x) -> MinNormResult:
    """min sum c_i |Phi x_i|^2 over decompositions x = sum c_i x_i, x_i in E_i.

    With x_i = F_i^T R_i^-1 z_i / sqrt(c_i) the objective is |z|^2 and the
    constraint is sum sqrt(c_i) Q_i z_i = Phi x, so z is the least-norm
    solution for the rows of S.  When the eigenspaces of Phi are critical
    the minimum equals |Phi x|^2 and x_i = P_{E_i} x attains it.
    """
    Phi, _, factors, rows, _ = _fiber_factors(d, Phi)
    x = np.asarray(x, dtype=float).reshape(d.ambient_dim)
    w = np.linalg.lstsq(rows.T, Phi @ x, rcond=None)[0]
    minimizers = np.empty((d.k, d.ambient_dim))
    at = 0
    for (members, F), root, (_, R) in zip(d.frame_stacks, d.stack_roots, factors):
        w_i = w[at:at + F.shape[0] * F.shape[1]].reshape(F.shape[:2]) / root[..., 0]
        at += w_i.size
        minimizers[members] = (F.swapaxes(-1, -2) @ np.linalg.solve(R, w_i[..., None]))[..., 0]
    recon = sum(c * xi for (_, c), xi in zip(d.entries, minimizers))
    if np.linalg.norm(recon - x) > 1e-9 * (1.0 + np.linalg.norm(x)):
        raise InternalError("the fiber minimizers do not rebuild x")
    return MinNormResult(
        min_value=float(np.dot(w, w)),
        minimizers=tuple(minimizers),
        reference=float(np.dot(Phi @ x, Phi @ x)),
    )
