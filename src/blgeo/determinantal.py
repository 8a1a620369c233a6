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

The same core gives Barthe's Gaussian sides: the minimum of sum c_i
<A_i y_i, y_i> over sum c_i F_i^T y_i = x is <Q x, x>, Q^-1 = sum c_i
F_i^T A_i^-1 F_i, so for f_i(y) = exp(-<A_i y, y>) the sides are
pi^(n/2) det(Q^-1)^(1/2) and pi^(n/2) prod det(A_i^-1)^(c_i/2), the
determinantal sides of the A_i^-1.  With A_i = F_i Phi^2 F_i^T = R_i^T R_i
(the QR of Phi F_i^T) their factors are R_i^-1, and the sides are equal
exactly when Phi restricts to F_i Phi F_i^T on every E_i.
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


def _factor_rows(d: GeometricBLDatum, blocks) -> np.ndarray:
    """The rows sqrt(c_i) X_i of row blocks X_i (dim E_i x n) stacked as d.frame_stacks, in that order."""
    return np.concatenate([(root * X).reshape(-1, X.shape[-1]) for root, X in zip(d.stack_roots, blocks)])


def _gaussian_sides(d: GeometricBLDatum, rows, logs, kappa: float, log_range: float, delta: float) -> tuple:
    """The one core of every Gaussian check: (log det(B B^T), sum_i c_i log
    det(T_i T_i^T) in entry order, the budget of their difference) for the rows
    B^T = [sqrt(c_i) T_i^T F_i] of triangular T_i with log|t_jj| logs, stacked
    as d.frame_stacks; kappa bounds cond(B), log_range each |2 log t_jj| and
    delta the relative error of each factor and row block (README.md)."""
    logdets = np.empty(d.k)
    for (members, _), part in zip(d.frame_stacks, logs):
        logdets[members] = 2.0 * part.sum(axis=-1)
    log_rhs = 0.0
    for c, logdet in zip(d.weights.tolist(), logdets.tolist()):
        log_rhs += c * logdet
    log_lhs, error = gram_log_det(rows, kappa)
    return log_lhs, log_rhs, error + 2 * d.ambient_dim * delta + (len(rows) + 2) * U * d.ambient_dim * log_range


def _restricts(d: GeometricBLDatum, M: np.ndarray, products=None, blocks=None, least=None) -> bool:
    """Whether M maps every E_i into itself as B_i (products M F_i^T and blocks
    F_i M F_i^T from them by default, stacked as d.frame_stacks, least their
    lambda_min in entry order): each max|M F_i^T - F_i^T B_i| within RESIDUAL_TOL
    lambda_min(B_i) plus twice the rounding of M's sums and products in the columns
    F_i touches (d.supports).  A symmetric M that passes has critical eigenspaces."""
    if products is None:
        products = [M @ F.swapaxes(-1, -2) for _, F in d.frame_stacks]
    if blocks is None:
        blocks, least = [F @ P for (_, F), P in zip(d.frame_stacks, products)], np.empty(d.k)
        for (members, _), B in zip(d.frame_stacks, blocks):
            least[members] = np.linalg.eigvalsh(B)[:, 0]
    n, reach, residual = d.ambient_dim, np.abs(M).max(axis=0), np.empty(d.k)
    slack = 2 * n * (sum(F.shape[0] * F.shape[1] for _, F in d.frame_stacks) + n) * U
    for (members, F), P, B in zip(d.frame_stacks, products, blocks):
        residual[members] = np.abs(P - F.swapaxes(-1, -2) @ B).max(axis=(-2, -1))
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
    B = [sqrt(c_i) L_i^T F_i] give the sides (_gaussian_sides) and the
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
    rows = _factor_rows(d, [L.swapaxes(-1, -2) @ F for (_, F), L in zip(d.frame_stacks, factors)])
    # l_jj^2 lies in [lo, hi], and so do the eigenvalues of B^T B
    log_lhs, log_rhs, budget = _gaussian_sides(d, rows, [np.log(np.abs(L.diagonal(0, -2, -1))) for L in factors],
                                               math.sqrt(hi) / math.sqrt(lo),
                                               max(abs(math.log(lo)), abs(math.log(hi))), delta)
    # an entry beside operators some 1e12 times larger in its own coordinates is
    # lost in the rounding of M, not in the row-sorted QR: there the sides decide
    if log_lhs - log_rhs <= budget:
        M = np.einsum("ki,kj->ij", rows, rows)  # fixed order, no BLAS: same bytes at any thread count
        if _restricts(d, M, blocks=mats, least=least):
            return _det_result(log_lhs, log_rhs, budget, M)
    return _det_result(log_lhs, log_rhs, budget, None)


def _fiber_rows(d: GeometricBLDatum, Phi) -> tuple:
    """(Phi checked as n x n SPD with normal eigenvalues, its eigenvalues, and
    stacked as d.frame_stacks the products Phi F_i^T, the R_i of their QR and
    the blocks X_i^T F_i with R_i X_i = I, so (I + E_i^T) R_i^-T F_i, E_i = R_i X_i - I)."""
    require_validated(d)
    Phi = np.asarray(Phi, dtype=float)
    if Phi.shape != (d.ambient_dim, d.ambient_dim):
        raise InputError(f"Phi must be {d.ambient_dim} x {d.ambient_dim}")
    eigenvalues = require_spd(Phi, "Phi")[1]
    if eigenvalues[0] < np.finfo(float).tiny:  # the rounding budget takes every error as relative
        raise InputError("Phi must have no subnormal eigenvalue")
    products = [Phi @ F.swapaxes(-1, -2) for _, F in d.frame_stacks]
    factors = [np.linalg.qr(P, mode="r") for P in products]
    if not all(np.isfinite(R).all() for R in factors):
        # a Householder step adds a column's entry to its norm, which can pass the largest double
        raise InputError("Phi F_i^T leaves the double range in its QR factor R_i")
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # refused below, by name
            blocks = [np.linalg.inv(R).swapaxes(-1, -2) @ F for R, (_, F) in zip(factors, d.frame_stacks)]
        if all(np.isfinite(X).all() for X in blocks):
            return Phi, eigenvalues, products, factors, blocks
    except np.linalg.LinAlgError:  # an r_jj of 0, or a back substitution past the largest double
        pass
    raise InputError("the rows R_i^-T F_i leave the double range")


def fiber_log_sides(d: GeometricBLDatum, Phi) -> DetCheckResult:
    """log det Q^-1 against sum_i c_i log det A_i^-1, A_i = F_i Phi^2 F_i^T, for
    any SPD Phi: _gaussian_sides of the factors R_i^-1 of the A_i^-1.  The
    certificate is Phi when it maps every E_i into itself (_restricts) and
    the sides do not refute it; then Q = Phi^2."""
    Phi, eigenvalues, products, factors, blocks = _fiber_rows(d, Phi)
    lo, hi = eigenvalues[[0, -1]].tolist()
    n, dim, cond = d.ambient_dim, max(F.shape[1] for _, F in d.frame_stacks), hi / lo
    # twice theta for forming and factoring Phi F_i^T, then R_i X_i = I and X_i^T F_i (README.md)
    delta = (2 * n * math.sqrt(dim) * (math.sqrt(n) + dim) + (dim + math.sqrt(dim)) * dim) * U * cond
    # r_jj, and the singular values of the rows' inverse, lie in [lambda_min(Phi), lambda_max(Phi)]
    log_lhs, log_rhs, budget = _gaussian_sides(d, _factor_rows(d, blocks),
                                               [-np.log(np.abs(R.diagonal(0, -2, -1))) for R in factors],
                                               cond, 2.0 * max(abs(math.log(lo)), abs(math.log(hi))), delta)
    equality = log_lhs - log_rhs <= budget and _restricts(d, Phi, products)
    return _det_result(log_lhs, log_rhs, budget, Phi if equality else None)


@dataclass(frozen=True)
class MinNormResult:
    min_value: float
    minimizers: tuple  # one vector per entry, x_i in E_i
    reference: float   # |Phi x|^2 for the same x


def min_norm_decomposition(d: GeometricBLDatum, Phi: np.ndarray, x) -> MinNormResult:
    """min sum c_i |Phi x_i|^2 over decompositions x = sum c_i x_i, x_i in E_i.

    With x_i = F_i^T R_i^-1 z_i / sqrt(c_i) the objective is |z|^2 and the
    constraint is B z = x for fiber_log_sides's rows B^T = [sqrt(c_i) R_i^-T F_i],
    so z is the least-norm solution.  When the eigenspaces of Phi are
    critical the minimum equals |Phi x|^2 and x_i = P_{E_i} x attains it.
    """
    Phi, _, _, _, blocks = _fiber_rows(d, Phi)
    x = np.asarray(x, dtype=float).reshape(d.ambient_dim)
    z = np.linalg.lstsq(_factor_rows(d, blocks).T, x, rcond=None)[0]
    minimizers = np.empty((d.k, d.ambient_dim))
    at = 0
    for (members, F), root, block in zip(d.frame_stacks, d.stack_roots, blocks):
        z_i = z[at:at + F.shape[0] * F.shape[1]].reshape(F.shape[:2])
        at += z_i.size
        minimizers[members] = (block.swapaxes(-1, -2) @ z_i[..., None])[..., 0] / root[..., 0]
    recon = sum(c * xi for (_, c), xi in zip(d.entries, minimizers))
    if np.linalg.norm(recon - x) > 1e-9 * (1.0 + np.linalg.norm(x)):
        raise InternalError("the fiber minimizers do not rebuild x")
    return MinNormResult(float(np.dot(z, z)), tuple(minimizers), float(np.dot(Phi @ x, Phi @ x)))
