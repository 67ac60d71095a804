"""Exact mixed moments, asymptotic covariance and the stationary transform.

Moment recursions are evaluated in decoupled coordinates: with theta
diagonalized as D = P theta P^-1 (D = diag(lambda)) the process Xt~ = P X
has componentwise dynamics

    dXt^i = (mt_i - kt_i * Y - lambda_i * Xt^i) dt + sqrt(Y) rc_i dB,

where mt = P m, kt = P kappa and rc = P rho_tilde (rows rc_i).  The mixed
moment f(k, l) = E[Y^k prod_i (Xt^i)^{l_i}] then satisfies a closed linear
ODE system over all multi-indices of bounded total order: its time
derivative is -(b*k + sum_j lambda_j l_j) f(k, l) plus source terms

    (a*k + sigma1^2 k(k-1)/2)          * f(k-1, l)
    l_p (mt_p + k sigma1 rc_{p,1})     * f(k, l - e_p)
    -kt_p l_p                          * f(k+1, l - e_p)
    ||rc_p||^2/2 * l_p (l_p - 1)       * f(k+1, l - 2 e_p)
    (rc rc^T)_{ip}/2 * l_i l_p         * f(k+1, l - e_i - e_p),  i != p,

with entries at negative indices read as zero.  Stationary moments solve
the same relations with the time derivative set to zero; subcriticality
makes every divisor b*k + sum lambda_j l_j positive, and evaluating indices
by ascending sum(l) then ascending k visits each entry after everything it
needs.  Transient moments integrate the assembled constant-coefficient
system with a matrix exponential.

The asymptotic covariance of sqrt(T) times the estimation error is the
sandwich EG^-1 EH EG^-1, where EG is block diagonal with

    G1 = E [[1, -Y], [-Y, Y^2]],
    G2 = E [[1, -Y, -X^T], [-Y, Y^2, Y X^T], [-X, Y X, X X^T]]

(one G2 block per X coordinate) and EH carries the quadratic variation of
the martingale error term, assembled from E[Y], E[Y^2], E[Y^3], E[X],
E[Y X], E[Y^2 X], E[X X^T], E[Y X X^T] with the diffusion loadings
sigma_1^2, sigma_1 * rho_J1 and rho_tilde rho_tilde^T.  The block layout of
both is owned by :func:`ad1n.model.gram_blocks` and
:func:`ad1n.model.qv_matrix`.

The stationary law itself is pinned down by its Fourier-Laplace transform
E exp(-lam*Y + i mu.X) = exp(a * int_0^inf Ks ds + i mu . theta^-1 m) with
Ks solving a scalar complex Riccati ODE.  Its coefficients carry the factors
e^{-lam_i t} of the diagonalizing frame; past t* = ln(1/eps) / min(lam) all
of them are below machine precision and the ODE is K' = alpha K^2 - b K
(alpha = sigma1^2 / 2), whose integral from t* to infinity is
-log(1 - alpha K(t*) / b) / alpha.  :func:`riccati_cf` integrates up to t*
with a classical fourth-order one-step method (default step 5e-3) and adds
that tail, as a numerical cross-check of the moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import (
    DimensionMismatchError,
    IncompleteTableError,
    MissingInitialMomentError,
    NotSubcriticalError,
    OrderTooHighError,
    SingularEGError,
)
from .model import (COND_LIMIT, Classification, ModelParams, Regime, _try_real_eig,
                    classify, gram_blocks, qv_matrix, symmetric_cond)

MAX_ORDER = 4

MultiIndex = tuple[int, ...]
MomentKey = tuple[int, MultiIndex]
MomentTable = dict


@dataclass(frozen=True)
class TildeFrame:
    """Diagonalizing frame: P theta P^-1 = diag(lam), Xt = P X."""

    P: np.ndarray
    P_inv: np.ndarray
    lam: np.ndarray
    m_t: np.ndarray
    kappa_t: np.ndarray
    rho_check: np.ndarray  # (n, d): P @ rho_tilde
    sigma_check_sq: np.ndarray  # (n,): squared row norms of rho_check
    sigma1: float

    @classmethod
    def from_params(cls, params: ModelParams) -> "TildeFrame":
        lam, P = _try_real_eig(params.theta)
        P_inv = np.linalg.inv(P)
        rho_check = P @ params.rho_tilde
        return cls(
            P=P,
            P_inv=P_inv,
            lam=lam,
            m_t=P @ params.m,
            kappa_t=P @ params.kappa,
            rho_check=rho_check,
            sigma_check_sq=np.sum(rho_check**2, axis=1),
            sigma1=params.sigma1,
        )


def _multi_indices(n: int, total: int):
    """All l in N^n with sum(l) == total, deterministic order."""
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _multi_indices(n - 1, total - head):
            yield (head,) + rest


def _index_set(n: int, max_order: int) -> list[MomentKey]:
    keys = []
    for s in range(max_order + 1):
        for k in range(max_order - s + 1):
            for l in _multi_indices(n, s):
                keys.append((k, l))
    return keys


def _source_terms(frame: TildeFrame, a: float, k: int, l: MultiIndex):
    """(coefficient, source index) pairs of the moment recursion row."""
    n = len(l)
    s1 = frame.sigma1
    rr = frame.rho_check @ frame.rho_check.T
    out = []
    coef = a * k + 0.5 * s1 * s1 * k * (k - 1)
    if coef != 0.0:
        out.append((coef, (k - 1, l)))
    for p in range(n):
        lp = l[p]
        if lp == 0:
            continue
        e_p = tuple(v - (q == p) for q, v in enumerate(l))
        out.append((lp * (frame.m_t[p] + k * s1 * frame.rho_check[p, 0]), (k, e_p)))
        out.append((-frame.kappa_t[p] * lp, (k + 1, e_p)))
        if lp > 1:
            e_pp = tuple(v - 2 * (q == p) for q, v in enumerate(l))
            out.append((0.5 * frame.sigma_check_sq[p] * lp * (lp - 1), (k + 1, e_pp)))
        for i in range(n):
            if i == p or l[i] == 0:
                continue
            e_ip = tuple(v - (q == p) - (q == i) for q, v in enumerate(l))
            out.append((0.5 * rr[i, p] * l[i] * lp, (k + 1, e_ip)))
    return out


def _lookup(table: MomentTable, key: MomentKey) -> float:
    k, l = key
    if k < 0 or any(v < 0 for v in l):
        return 0.0
    return table[key]


def _require_subcritical(params: ModelParams) -> Classification:
    cls = classify(params)
    if cls.regime != Regime.SUBCRITICAL:
        raise NotSubcriticalError(f"regime is {cls.regime.value}, need subcritical")
    return cls


def stationary_moment_table(params: ModelParams, max_order: int = MAX_ORDER) -> MomentTable:
    """All stationary mixed moments E[Y^k prod (Xt^i)^{l_i}] up to total
    order ``max_order``, in tilde coordinates."""
    if max_order > MAX_ORDER:
        raise OrderTooHighError(f"max supported total order is {MAX_ORDER}")
    _require_subcritical(params)
    frame = TildeFrame.from_params(params)
    b, a = float(params.b), float(params.a)
    n = params.n
    table: MomentTable = {}
    for s in range(max_order + 1):
        for k in range(max_order - s + 1):
            for l in _multi_indices(n, s):
                if k == 0 and s == 0:
                    table[(0, l)] = 1.0
                    continue
                denom = b * k + float(np.dot(frame.lam, l))
                rhs = 0.0
                for coef, src in _source_terms(frame, a, k, l):
                    rhs += coef * _lookup(table, src)
                table[(k, l)] = rhs / denom
    return table


def stationary_moment(params: ModelParams, k: int, l) -> float:
    """Stationary E[Y^k prod (Xt^i)^{l_i}] (tilde coordinates)."""
    l = tuple(int(v) for v in np.atleast_1d(l))
    order = k + sum(l)
    if order > MAX_ORDER:
        raise OrderTooHighError(f"total order {order} exceeds {MAX_ORDER}")
    table = stationary_moment_table(params, max_order=max(order, 0))
    return float(_lookup(table, (k, l)))


def point_initial_moments(params: ModelParams, y0: float, x0, max_order: int = MAX_ORDER) -> MomentTable:
    """Initial moment table of a deterministic start (y0, x0), tilde coords."""
    frame = TildeFrame.from_params(params)
    x0t = frame.P @ np.atleast_1d(np.asarray(x0, dtype=float))
    table: MomentTable = {}
    for key in _index_set(params.n, max_order):
        k, l = key
        table[key] = float(y0**k * np.prod(x0t ** np.array(l)))
    return table


def _transient_system(frame: TildeFrame, a: float, b: float, n: int, max_order: int):
    keys = _index_set(n, max_order)
    pos = {key: i for i, key in enumerate(keys)}
    A = np.zeros((len(keys), len(keys)))
    for key in keys:
        k, l = key
        i = pos[key]
        A[i, i] = -(b * k + float(np.dot(frame.lam, l)))
        for coef, src in _source_terms(frame, a, k, l):
            sk, sl = src
            if sk < 0 or any(v < 0 for v in sl):
                continue
            A[i, pos[src]] += coef
    return keys, pos, A


def transient_moment(params: ModelParams, initial: MomentTable, k: int, l, t: float) -> float:
    """E[Y_t^k prod (Xt_t^i)^{l_i}] from initial mixed moments at time 0.

    ``initial`` maps (k, l) keys of total order <= k + sum(l) to the
    corresponding moments of (Y_0, Xt_0); see :func:`point_initial_moments`.
    """
    l = tuple(int(v) for v in np.atleast_1d(l))
    order = k + sum(l)
    if order > MAX_ORDER:
        raise OrderTooHighError(f"total order {order} exceeds {MAX_ORDER}")
    frame = TildeFrame.from_params(params)
    keys, pos, A = _transient_system(frame, float(params.a), float(params.b), params.n, order)
    v0 = np.empty(len(keys))
    for key in keys:
        if key not in initial:
            raise MissingInitialMomentError(f"initial table lacks entry {key}")
        v0[pos[key]] = initial[key]
    v = scipy.linalg.expm(A * float(t)) @ v0
    return float(v[pos[(k, l)]])


def tilde_to_x_moment(frame: TildeFrame, table: MomentTable, k: int, l) -> float:
    """E[Y^k prod_i (X^i)^{l_i}] from a tilde-coordinate moment table.

    Expands X = P^-1 Xt multilinearly; needs table entries of the same
    total order.
    """
    l = tuple(int(v) for v in np.atleast_1d(l))
    n = len(l)
    Q = frame.P_inv
    poly: dict[MultiIndex, float] = {tuple([0] * n): 1.0}
    for i in range(n):
        for _ in range(l[i]):
            new: dict[MultiIndex, float] = {}
            for mono, coef in poly.items():
                for j in range(n):
                    key = tuple(v + (q == j) for q, v in enumerate(mono))
                    new[key] = new.get(key, 0.0) + coef * Q[i, j]
            poly = new
    total = 0.0
    for mono, coef in poly.items():
        key = (k, mono)
        if key not in table:
            raise IncompleteTableError(f"tilde table lacks entry {key}")
        total += coef * table[key]
    return float(total)


def tilde_to_x_moments(frame: TildeFrame, table: MomentTable) -> MomentTable:
    """Convert a complete tilde-coordinate table to X-coordinate moments."""
    return {key: tilde_to_x_moment(frame, table, key[0], key[1]) for key in table}


@dataclass
class CovarianceReport:
    """Limit design matrix, quadratic-variation limit and the sandwich
    covariance of sqrt(T)(tau_hat - tau)."""

    EG: np.ndarray
    EH: np.ndarray
    sandwich: np.ndarray
    cond_EG: float


def _unit(n: int, i: int) -> MultiIndex:
    return tuple(int(q == i) for q in range(n))


def _pair(n: int, i: int, j: int) -> MultiIndex:
    return tuple(int(q == i) + int(q == j) for q in range(n))


def stationary_x_moments(params: ModelParams):
    """Stationary moments of (Y, X) needed by the covariance assembly."""
    frame = TildeFrame.from_params(params)
    table = stationary_moment_table(params, max_order=3)
    n = params.n
    ey = table[(1, (0,) * n)]
    ey2 = table[(2, (0,) * n)]
    ey3 = table[(3, (0,) * n)]
    ex = np.array([tilde_to_x_moment(frame, table, 0, _unit(n, i)) for i in range(n)])
    eyx = np.array([tilde_to_x_moment(frame, table, 1, _unit(n, i)) for i in range(n)])
    ey2x = np.array([tilde_to_x_moment(frame, table, 2, _unit(n, i)) for i in range(n)])
    exx = np.empty((n, n))
    eyxx = np.empty((n, n))
    for i in range(n):
        for j in range(i, n):
            exx[i, j] = exx[j, i] = tilde_to_x_moment(frame, table, 0, _pair(n, i, j))
            eyxx[i, j] = eyxx[j, i] = tilde_to_x_moment(frame, table, 1, _pair(n, i, j))
    return ey, ey2, ey3, ex, eyx, ey2x, exx, eyxx


def asymptotic_covariance(params: ModelParams) -> CovarianceReport:
    """Sandwich covariance EG^-1 EH EG^-1 of the normalized error."""
    _require_subcritical(params)
    ey, ey2, ey3, ex, eyx, ey2x, exx, eyxx = stationary_x_moments(params)
    G1, G2 = gram_blocks(1.0, ey, ey2, ex, eyx, exx)
    EG = scipy.linalg.block_diag(G1, np.kron(np.eye(params.n), G2))
    EH = qv_matrix(params, *gram_blocks(ey, ey2, ey3, eyx, ey2x, eyxx))

    cond = symmetric_cond(EG)
    if not cond <= COND_LIMIT:
        raise SingularEGError(f"EG condition number {cond:.3g} exceeds {COND_LIMIT:g}")
    cho = scipy.linalg.cho_factor(EG)
    inner = scipy.linalg.cho_solve(cho, EH)
    sandwich = scipy.linalg.cho_solve(cho, inner.T).T
    sandwich = 0.5 * (sandwich + sandwich.T)
    return CovarianceReport(EG=EG, EH=EH, sandwich=sandwich, cond_EG=cond)


def riccati_cf(params: ModelParams, lam: float, mu, step: float = 5e-3) -> complex:
    """Stationary Fourier-Laplace transform E exp(-lam*Y + i mu . X).

    Integrates the defining scalar Riccati ODE with a classical 4th-order
    one-step method up to t* = ln(1/eps) / min(lam~), where every factor
    e^{-lam~_i t} of its coefficients is below machine precision, and adds
    the closed-form integral of the remaining ODE K' = alpha K^2 - b K
    (alpha = sigma1^2 / 2) from t* on: -log(1 - alpha K(t*) / b) / alpha.
    At the default step the result is within 6e-11 of step 5e-4 on
    criterion 7's grid and on an n = 2 grid.  Where the transform is
    infinite (lam below -2b / sigma1^2) the result is nan.
    """
    return riccati_cf_batch(params, [float(lam)], [np.atleast_1d(mu)], step)[0]


def riccati_cf_batch(params: ModelParams, lams, mus, step: float = 5e-3) -> np.ndarray:
    """Vectorized :func:`riccati_cf` over a batch of (lam, mu) points."""
    _require_subcritical(params)
    b = float(params.b)
    a = float(params.a)
    lams = np.asarray(lams, dtype=float)
    MU = np.column_stack([np.atleast_1d(np.asarray(m, dtype=float)) for m in mus])  # (n, B)
    B = lams.shape[0]
    if MU.shape[1] != B:
        raise DimensionMismatchError("lams and mus must have equal batch length")

    frame = TildeFrame.from_params(params)
    lam_t = frame.lam
    s1 = params.sigma1
    # w(t) = e^{-t theta^T} mu = P^T (e^{-t lam} * v0), v0 = P^-T mu
    V0 = np.linalg.solve(frame.P.T, MU)  # (n, B)
    u_c1 = (frame.P @ params.rho_J1)[:, None] * V0  # c1(t) = sum_i u_i e^{-lam_i t}
    u_c2 = frame.kappa_t[:, None] * V0
    Mq = (frame.P @ params.rho_JJ) @ (frame.P @ params.rho_JJ).T  # q(t) quad form

    t_star = math.log(1.0 / np.finfo(float).eps) / lam_t[0]
    n_steps = int(math.ceil(t_star / step))
    # coefficient series on the half-step grid, built in chunks
    K = (-lams).astype(complex)  # K_0(u1, u2) = u1 = -lam
    integral = np.zeros(B, dtype=complex)
    alpha = 0.5 * s1 * s1
    chunk = 4096
    j = 0
    while j < n_steps:
        sub = min(chunk, n_steps - j)
        t_fine = (j + 0.5 * np.arange(2 * sub + 1)) * step
        E = np.exp(-np.outer(t_fine, lam_t))  # (2*sub+1, n)
        c1 = E @ u_c1
        c2 = E @ u_c2
        W = E[:, :, None] * V0[None, :, :]  # (T, n, B)
        q = np.einsum("tib,ij,tjb->tb", W, Mq, W)
        g = -1j * c2 - 0.5 * q - 0.5 * c1 * c1
        hc = b - 1j * s1 * c1
        for i in range(sub):
            f0, fm, f1 = g[2 * i], g[2 * i + 1], g[2 * i + 2]
            h0, hm, h1 = hc[2 * i], hc[2 * i + 1], hc[2 * i + 2]
            k1 = alpha * K * K - h0 * K + f0
            K2 = K + 0.5 * step * k1
            k2 = alpha * K2 * K2 - hm * K2 + fm
            K3 = K + 0.5 * step * k2
            k3 = alpha * K3 * K3 - hm * K3 + fm
            K4 = K + step * k3
            k4 = alpha * K4 * K4 - h1 * K4 + f1
            integral += (step / 6.0) * (K + 2.0 * K2 + 2.0 * K3 + K4)
            K += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        j += sub
    # the tail's log runs along the segment 1 -> 1 - z, which meets the
    # branch cut only where z >= 1 is real: there K blows up
    z = alpha * K / b
    integral -= np.where((z.imag == 0) & (z.real >= 1), np.nan, np.log1p(-z)) / alpha
    theta_inv_m = np.linalg.solve(params.theta, params.m)
    phase = 1j * (MU.T @ theta_inv_m)
    return np.exp(a * integral + phase)
