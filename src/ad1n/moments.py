"""Exact mixed moments, asymptotic covariance and the stationary transform.

AD(1,n) is a polynomial process: its generator

    L f = (a - b Y) f_Y + (m - kappa Y - theta X) . grad_X f
          + Y (sigma1^2 f_YY / 2 + sigma1 rho_J1 . grad_X f_Y
               + tr(rho_tilde rho_tilde^T Hess_X f) / 2)

maps the polynomials in (Y, X) of total degree <= D into themselves
(Cuchiero, Keller-Ressel and Teichmann, Finance Stoch. 16 (2012);
Filipovic and Larsson, Finance Stoch. 20 (2016)).  :func:`generator` is
its matrix G on the monomials Y^k X^l, in the key order of
:func:`_index_set` (ascending sum(l), then ascending k), which every table
and system here follows.  The moments mu(t) = E[Y_t^k X_t^l] solve
mu' = G^T mu.  Transient moments are expm(t G^T) mu(0), through
:func:`ad1n._matfun.expm`, which hands every system it does not port to
``scipy.linalg`` through ``_matfun.scipy_call`` and loads scipy at that
first call.  Stationary moments solve G^T mu = 0 with E[1] = 1.  L keeps
or lowers the total degree, so G is block triangular by degree and the
solve runs one degree at a time; the block of degree d has the
eigenvalues -(b k + lambda . l) over its keys (lambda the eigenvalues of
theta), which subcriticality keeps off zero.

The asymptotic covariance of sqrt(T) times the estimation error is the
sandwich EG^-1 EH EG^-1, where EG is block diagonal with

    G1 = E [[1, -Y], [-Y, Y^2]],
    G2 = E [[1, -Y, -X^T], [-Y, Y^2, Y X^T], [-X, Y X, X X^T]]

(one G2 block per X coordinate) and EH carries the quadratic variation of
the martingale error term, assembled from E[Y], E[Y^2], E[Y^3], E[X],
E[Y X], E[Y^2 X], E[X X^T], E[Y X X^T] with the diffusion loadings
sigma_1^2, sigma_1 * rho_J1 and rho_tilde rho_tilde^T.  The block layout of
both is owned by :func:`ad1n.model.gram_blocks` and
:func:`ad1n.model.qv_matrix`.  The moments solve linear equations in X
coordinates (no eigenbasis of theta, whose conditioning would cost
digits), and every solve is numpy's LU, so the sandwich needs no scipy.

The stationary law itself is pinned down by its Fourier-Laplace transform
E exp(-lam*Y + i mu.X) = exp(a * int_0^inf Ks ds + i mu . theta^-1 m) with
Ks solving a scalar complex Riccati ODE.  Its coefficients carry the factors
e^{-lam_i t} of the diagonalizing frame; past t* = ln(1/eps) / min(lam) all
of them are below machine precision and the ODE is K' = alpha K^2 - b K
(alpha = sigma1^2 / 2), whose integral from t* to infinity is
-log(1 - alpha K(t*) / b) / alpha.  :func:`riccati_cf` integrates up to t*
with a classical fourth-order one-step method and adds that tail, as a
numerical cross-check of the moments.  Its steps come from the model and
the batch: each decaying term (rates lam_i and 2 lam_i in the coefficients,
b in K, and K's own start at -lam) lets the step grow as the term dies out,
up to 1/b, so the step count no longer grows as 1 / min(lam).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._matfun import expm
from .errors import (
    DimensionMismatchError,
    InvalidGridError,
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
    """Diagonalizing frame of theta, P theta P^-1 = diag(lam), with m and
    kappa mapped by P: the decay rates of :func:`riccati_cf` and the
    supercritical sign condition read it."""

    P: np.ndarray
    lam: np.ndarray
    m_t: np.ndarray
    kappa_t: np.ndarray

    @classmethod
    def from_params(cls, params: ModelParams) -> "TildeFrame":
        lam, P = _try_real_eig(params.theta)
        return cls(P=P, lam=lam, m_t=P @ params.m, kappa_t=P @ params.kappa)


def _multi_indices(n: int, total: int):
    """All l in N^n with sum(l) == total, deterministic order."""
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _multi_indices(n - 1, total - head):
            yield (head,) + rest


def _index_set(n: int, max_order: int) -> list[MomentKey]:
    """Every key (k, l) of total order <= max_order, by ascending sum(l),
    then ascending k, then in :func:`_multi_indices` order."""
    keys = []
    for s in range(max_order + 1):
        for k in range(max_order - s + 1):
            for l in _multi_indices(n, s):
                keys.append((k, l))
    return keys


def generator(params: ModelParams, order: int) -> np.ndarray:
    """G, the generator's matrix on the monomials Y^k X^l of total degree
    <= ``order``, keys in :func:`_index_set` order: column j holds the
    coefficients of L(Y^k X^l) for the j-th key (k, l)."""
    keys = _index_set(params.n, order)
    pos = {key: i for i, key in enumerate(keys)}
    a, b, s1 = float(params.a), float(params.b), params.sigma1
    m, kappa, theta, rj = params.m, params.kappa, params.theta, params.rho_J1
    rr = params.rho_tilde @ params.rho_tilde.T
    unit = np.eye(params.n, dtype=int)
    G = np.zeros((len(keys), len(keys)))
    for j, (k, l) in enumerate(keys):
        def put(coef, k_to, l_to):
            G[pos[(k_to, tuple(l_to.tolist()))], j] += coef

        l = np.array(l)
        put(-b * k, k, l)
        if k:
            put(a * k + 0.5 * s1 * s1 * k * (k - 1), k - 1, l)
        for p in np.flatnonzero(l):
            lp = l - unit[p]
            put(l[p] * (m[p] + k * s1 * rj[p]), k, lp)
            put(-l[p] * kappa[p], k + 1, lp)
            for q in range(params.n):
                put(-l[p] * theta[p, q], k, lp + unit[q])
                if lp[q]:
                    put(0.5 * l[p] * lp[q] * rr[p, q], k + 1, lp - unit[q])
    return G


def _require_subcritical(params: ModelParams) -> Classification:
    cls = classify(params)
    if cls.regime != Regime.SUBCRITICAL:
        raise NotSubcriticalError(f"regime is {cls.regime.value}, need subcritical")
    return cls


def stationary_moment_table(params: ModelParams, max_order: int = MAX_ORDER) -> MomentTable:
    """All stationary mixed moments E[Y^k prod (X^i)^{l_i}] up to total order
    ``max_order``: G^T mu = 0 with E[1] = 1, solved one total degree at a
    time."""
    if max_order > MAX_ORDER:
        raise OrderTooHighError(f"max supported total order is {MAX_ORDER}")
    _require_subcritical(params)
    keys = _index_set(params.n, max_order)
    GT = generator(params, max_order).T
    degree = np.array([k + sum(l) for k, l in keys])
    mu = (degree == 0).astype(float)
    for d in range(1, max_order + 1):
        now, done = degree == d, degree < d
        mu[now] = np.linalg.solve(GT[np.ix_(now, now)], -GT[np.ix_(now, done)] @ mu[done])
    return dict(zip(keys, mu.tolist()))


def _moment_key(params: ModelParams, k: int, l) -> MomentKey | None:
    """(k, l) as a table key, or None at a negative index, where every moment
    is 0, once l has one entry per X coordinate and order <= MAX_ORDER."""
    l = tuple(int(v) for v in np.atleast_1d(l))
    if len(l) != params.n:
        raise DimensionMismatchError(f"l has {len(l)} entries, the model has n = {params.n}")
    if k + sum(l) > MAX_ORDER:
        raise OrderTooHighError(f"total order {k + sum(l)} exceeds {MAX_ORDER}")
    return (k, l) if min(k, *l) >= 0 else None


def stationary_moment(params: ModelParams, k: int, l) -> float:
    """Stationary E[Y^k prod (X^i)^{l_i}]; 0 at a negative index."""
    key = _moment_key(params, k, l)
    table = stationary_moment_table(params, max_order=k + sum(key[1]) if key else 0)
    return float(table[key]) if key else 0.0


def point_initial_moments(params: ModelParams, y0: float, x0, max_order: int = MAX_ORDER) -> MomentTable:
    """Initial moment table y0^k prod (x0^i)^{l_i} of a deterministic start (y0, x0)."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (params.n,):
        raise DimensionMismatchError(f"x0 has {x0.size} entries, the model has n = {params.n}")
    return {(k, l): float(y0**k * np.prod(x0 ** np.array(l)))
            for k, l in _index_set(params.n, max_order)}


def transient_moment(params: ModelParams, initial: MomentTable, k: int, l, t: float) -> float:
    """E[Y_t^k prod (X_t^i)^{l_i}], the (k, l) entry of expm(t G^T) mu(0).

    ``initial`` maps (k, l) keys of total order <= k + sum(l) to the
    corresponding moments mu(0) of (Y_0, X_0); see :func:`point_initial_moments`.
    The time t must be finite and nonnegative; the moment is 0 at a negative index.
    """
    target = _moment_key(params, k, l)
    if not 0.0 <= t < math.inf:
        raise InvalidGridError(f"t must be finite and nonnegative, got {t}")
    if target is None:
        return 0.0
    order = k + sum(target[1])
    keys = _index_set(params.n, order)
    for key in keys:
        if key not in initial:
            raise MissingInitialMomentError(f"initial table lacks entry {key}")
    v = expm(generator(params, order).T * float(t)) @ np.array([initial[key] for key in keys])
    return float(v[keys.index(target)])


@dataclass
class CovarianceReport:
    """Limit design matrix, quadratic-variation limit and the sandwich
    covariance of sqrt(T)(tau_hat - tau)."""

    EG: np.ndarray
    EH: np.ndarray
    sandwich: np.ndarray
    cond_EG: float


def stationary_x_moments(params: ModelParams):
    """E[Y], E[Y^2], E[Y^3], E[X], E[Y X], E[Y^2 X], E[X X^T] and E[Y X X^T]
    of the stationary law, from Ito's formula on Y^k, Y^k X and Y^k X X^T:
    linear equations in X coordinates, the last two Lyapunov equations in
    theta, solved through its Kronecker sum with itself."""
    _require_subcritical(params)
    a, b, s1, n = float(params.a), float(params.b), params.sigma1, params.n
    m, kappa, theta, rj = params.m, params.kappa, params.theta, params.rho_J1
    eye = np.eye(n)
    rr = params.rho_tilde @ params.rho_tilde.T
    ey = a / b
    c2 = 2.0 * a + s1 * s1
    ey2 = c2 * ey / (2.0 * b)
    ey3 = (a + s1 * s1) * ey2 / b
    ex = np.linalg.solve(theta, m - kappa * ey)
    eyx = np.linalg.solve(theta + b * eye, (m + s1 * rj) * ey - kappa * ey2 + a * ex)
    ey2x = np.linalg.solve(theta + 2.0 * b * eye, (m + 2.0 * s1 * rj) * ey2 - kappa * ey3 + c2 * eyx)
    kron_sum = np.kron(theta, eye) + np.kron(eye, theta)

    def lyapunov(shift, half):
        # s + s^T solves theta S + S theta^T + shift S = half + half^T
        s = np.linalg.solve(kron_sum + shift * np.eye(n * n), half.ravel()).reshape(n, n)
        return s + s.T

    exx = lyapunov(0.0, np.outer(m, ex) - np.outer(kappa, eyx) + 0.5 * ey * rr)
    eyxx = lyapunov(b, np.outer(m + s1 * rj, eyx) - np.outer(kappa, ey2x) + 0.5 * (ey2 * rr + a * exx))
    return ey, ey2, ey3, ex, eyx, ey2x, exx, eyxx


def asymptotic_covariance(params: ModelParams) -> CovarianceReport:
    """Sandwich covariance EG^-1 EH EG^-1 of the normalized error."""
    ey, ey2, ey3, ex, eyx, ey2x, exx, eyxx = stationary_x_moments(params)
    G1, G2 = gram_blocks(1.0, ey, ey2, ex, eyx, exx)
    EG = np.zeros((2 + len(G2) * params.n,) * 2)
    EG[:2, :2] = G1
    EG[2:, 2:] = np.kron(np.eye(params.n), G2)
    EH = qv_matrix(params, *gram_blocks(ey, ey2, ey3, eyx, ey2x, eyxx))

    cond = symmetric_cond(EG)
    if not cond <= COND_LIMIT:
        raise SingularEGError(f"EG condition number {cond:.3g} exceeds {COND_LIMIT:g}")
    inner = np.linalg.solve(EG, EH)
    sandwich = np.linalg.solve(EG, inner.T).T
    sandwich = 0.5 * (sandwich + sandwich.T)
    return CovarianceReport(EG=EG, EH=EH, sandwich=sandwich, cond_EG=cond)


def riccati_cf(params: ModelParams, lam: float, mu) -> complex:
    """Stationary Fourier-Laplace transform E exp(-lam*Y + i mu . X).

    Integrates the defining scalar Riccati ODE with a classical 4th-order
    one-step method up to t* = ln(1/eps) / min(lam~), where every factor
    e^{-lam~_i t} of its coefficients is below machine precision, and adds
    the closed-form integral of the remaining ODE K' = alpha K^2 - b K
    (alpha = sigma1^2 / 2) from t* on: -log(1 - alpha K(t*) / b) / alpha.
    The steps, shared by a batch, are set so that each term of the ODE
    adds a fixed RK4 error per step.  A term e^{-r t} (r = lam~_i and
    2 lam~_i in the coefficients, b for K near 0) adds ~ (h r)^5 e^{-r t},
    so it allows h = (c / r) e^{r t / 5}.  K starts at -lam and, while
    alpha K^2 dominates, decays like -L / (1 + alpha L t), L = max |lam|
    over the batch's points with mu != 0, whose fifth derivative allows
    h = (c / (2 alpha L)) (1 + alpha L t)^{6/5}.  The step is the least of these and 1/b, with
    c = 5e-3.  A call takes 1,400-3,200 steps whatever theta (2,606 for 20
    points at theta = 0.05, b = 1, against t* / 5e-3 = 144,175).  The
    result is within 2e-12 of a fixed step of 5e-4 at theta = 2, 0.2 and
    0.05 and for n = 2.  A point with mu = 0 obeys the tail's ODE from
    t = 0, so it takes no RK4 step: its integral is -log1p(alpha lam / b)
    / alpha, the Gamma Laplace transform to rel 1e-13, and a batch of
    such points builds no grid.  Where the transform is infinite (lam
    below -2b / sigma1^2) the result is nan.
    A lam or mu that is not finite is an InvalidGridError, and a mu
    without one entry per X coordinate a DimensionMismatchError.
    """
    return riccati_cf_batch(params, [float(lam)], [np.atleast_1d(mu)])[0]


def riccati_cf_batch(params: ModelParams, lams, mus) -> np.ndarray:
    """Vectorized :func:`riccati_cf` over a batch of (lam, mu) points, all
    on one grid; the coefficients are evaluated 4,096 steps at a time."""
    _require_subcritical(params)
    a, b = float(params.a), float(params.b)
    lams = np.asarray(lams, dtype=float)
    B = lams.shape[0]
    if B == 0 or len(mus) != B:
        raise DimensionMismatchError("lams and mus must have one equal, nonzero batch length")
    MU = [np.atleast_1d(np.asarray(m, dtype=float)) for m in mus]
    if any(mu.shape != (params.n,) for mu in MU):
        raise DimensionMismatchError(f"every mu must have n = {params.n} entries")
    MU = np.column_stack(MU)  # (n, B)
    if not (np.all(np.isfinite(lams)) and np.all(np.isfinite(MU))):
        raise InvalidGridError("every lam and mu must be finite")

    K = (-lams).astype(complex)  # K_0(u1, u2) = u1 = -lam
    integral = np.zeros(B, dtype=complex)
    # at mu = 0 the ODE is K' = alpha K^2 - b K from t = 0 on, so the
    # tail's closed form below is the whole integral: no RK4 step
    live = np.any(MU != 0.0, axis=0)
    if np.any(live):
        K[live], integral[live] = _riccati_rk4(params, K[live], MU[:, live])
    # the tail's log runs along the segment 1 -> 1 - z, which meets the
    # branch cut only where z >= 1 is real: there K blows up
    alpha = 0.5 * params.sigma1 * params.sigma1
    z = alpha * K / b
    integral -= np.where((z.imag == 0) & (z.real >= 1), np.nan, np.log1p(-z)) / alpha
    return np.exp(a * integral + 1j * (MU.T @ np.linalg.solve(params.theta, params.m)))


def _riccati_rk4(params: ModelParams, K: np.ndarray, MU: np.ndarray):
    """K(t*) and the integral of K over [0, t*] for the points with K(0) =
    ``K`` and mu the columns of ``MU`` (n, B), by RK4 on one graded grid."""
    b = float(params.b)
    frame = TildeFrame.from_params(params)
    s1 = params.sigma1
    # w(t) = e^{-t theta^T} mu = P^T (e^{-t lam} * v0), v0 = P^-T mu
    V0 = np.linalg.solve(frame.P.T, MU)  # (n, B)
    u_c1 = (frame.P @ params.rho_J1)[:, None] * V0  # c1(t) = sum_i u_i e^{-lam_i t}
    u_c2 = frame.kappa_t[:, None] * V0
    Mq = (frame.P @ params.rho_JJ) @ (frame.P @ params.rho_JJ).T  # q(t) quad form

    def coefficients(t):
        """Source term g and linear coefficient b - i s1 c1 at the times t."""
        E = np.exp(-np.outer(t, frame.lam))  # (T, n)
        c1 = E @ u_c1
        W = E[:, :, None] * V0[None, :, :]  # (T, n, B)
        q = np.einsum("tib,ij,tjb->tb", W, Mq, W)
        return -1j * (E @ u_c2) - 0.5 * q - 0.5 * c1 * c1, b - 1j * s1 * c1

    alpha = 0.5 * s1 * s1
    t_star = math.log(1.0 / np.finfo(float).eps) / frame.lam[0]
    times = _riccati_grid(frame.lam, b, alpha * np.max(np.abs(K.real)), t_star)
    steps = np.diff(times)
    nodes = np.sort(np.concatenate([times, times[:-1] + 0.5 * steps]))  # ends and midpoints
    integral = np.zeros(K.shape[0], dtype=complex)
    for j in range(0, steps.size, 4096):
        g, hc = coefficients(nodes[2 * j:2 * (j + 4096) + 1])
        for i, step in enumerate(steps[j:j + 4096]):
            (f0, fm, f1), (h0, hm, h1) = g[2 * i:2 * i + 3], hc[2 * i:2 * i + 3]
            k1 = alpha * K * K - h0 * K + f0
            K2 = K + 0.5 * step * k1
            k2 = alpha * K2 * K2 - hm * K2 + fm
            K3 = K + 0.5 * step * k2
            k3 = alpha * K3 * K3 - hm * K3 + fm
            K4 = K + step * k3
            k4 = alpha * K4 * K4 - h1 * K4 + f1
            integral += (step / 6.0) * (K + 2.0 * K2 + 2.0 * K3 + K4)
            K += (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return K, integral


def _riccati_grid(lam_t, b: float, decay: float, t_star: float) -> np.ndarray:
    """Times 0 = t_0 < ... < t_N >= t_star of :func:`riccati_cf_batch`'s
    RK4 grid for the rates lam_t, 2 lam_t and b and K's start decay = alpha L
    (see :func:`riccati_cf` for the rule)."""
    rules = [(math.log(5e-3 / r), r / 5.0) for r in [*lam_t.tolist(), *(2.0 * lam_t).tolist(), b]]
    times = [0.0]
    while times[-1] < t_star:
        t = times[-1]
        logs = [log_c + growth * t for log_c, growth in rules]
        if decay > 0:
            logs.append(math.log(5e-3 / (2.0 * decay)) + 1.2 * math.log1p(decay * t))
        times.append(t + math.exp(min(-math.log(b), *logs)))
    return np.array(times)
