"""Regime-specific normalizations and limit objects for the estimator error.

Each regime has its own invertible scaling Q_T applied to tau_hat - tau:

subcritical    Q_T = sqrt(T) * I, limit N(0, sandwich covariance);
critical       Q_T = diag(1, T, I_n kron diag(1, T, T*I_n)): the level
               estimates (a, m) converge without scaling while the
               mean-reversion estimates (b, kappa, theta) are blown up by
               T; the limit is diag(U1^-1, I kron U2^-1)(R1, vec R2) built
               from path functionals of the zero-started process on [0,1];
supercritical  Q_T = diag(T e^{bT/2}, e^{-bT/2}, I_n kron Q~_T) with
               Q~_T = diag(T e^{bT/2}, e^{-bT/2}, e^{(b-2 lam_min)T/2} I_n),
               requiring lam_max(theta) < b < 0; the limit is V^-1 eta xi
               with V and eta*eta^T closed forms in the almost-sure limits
               C1 of e^{bt} Y_t and C_J of e^{lam_min t} X_t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidGridError,
    NotStabilizedError,
    SingularUError,
    UnsupportedRegimeError,
)
from .model import Classification, ModelParams, Regime, gram_blocks, qv_matrix, tau_length
from .simulate import Path, left_point_sums

U_COND_LIMIT = 1e12
#: a scaled supercritical tail is stabilized when it changes by at most
#: TAIL_REL_TOL (relative) over the final TAIL_FRACTION of the horizon
TAIL_FRACTION = 0.1
TAIL_REL_TOL = 0.01


@dataclass
class Normalizer:
    regime: Regime
    T: float
    diag: np.ndarray  # diagonal entries of Q_T

    @property
    def Q(self) -> np.ndarray:
        return np.diag(self.diag)

    def apply(self, err: np.ndarray) -> np.ndarray:
        return self.diag * np.asarray(err, dtype=float)


def normalizer(classification: Classification, T: float, params: ModelParams) -> Normalizer:
    """The regime's error scaling Q_T at horizon T."""
    if T <= 0:
        raise InvalidGridError("horizon must be positive")
    n = params.n
    L = tau_length(n)
    regime = classification.regime
    if regime == Regime.SUBCRITICAL:
        diag = np.full(L, math.sqrt(T))
    elif regime == Regime.CRITICAL:
        block = np.concatenate(([1.0, T], np.full(n, T)))
        diag = np.concatenate(([1.0, T], np.tile(block, n)))
    elif regime == Regime.SUPERCRITICAL:
        b = float(params.b)
        lam_min = float(classification.eig_theta[0])
        lam_max = float(classification.eig_theta[-1])
        if not (lam_max < b < 0):
            raise UnsupportedRegimeError(
                "supercritical normalization needs lam_max(theta) < b < 0"
            )
        ebt2 = math.exp(0.5 * b * T)
        block = np.concatenate(
            ([T * ebt2, 1.0 / ebt2], np.full(n, math.exp(0.5 * (b - 2.0 * lam_min) * T)))
        )
        diag = np.concatenate(([T * ebt2, 1.0 / ebt2], np.tile(block, n)))
    else:
        raise UnsupportedRegimeError(f"no normalization for regime {regime.value}")
    return Normalizer(regime=regime, T=float(T), diag=diag)


@dataclass
class SupercriticalLimits:
    """Almost-sure scaling limits read from a path tail plus the closed-form
    limit matrices of the supercritical theorem."""

    c1: float
    cj: np.ndarray  # (n,)
    v1: np.ndarray  # (2, 2)
    v2: np.ndarray  # (n+2, n+2)
    eta_etaT: np.ndarray  # (d^2+1, d^2+1)


def scaled_tail(path: Path, rate: float, series: np.ndarray):
    """e^{rate t} * series over the final TAIL_FRACTION of the horizon, and
    its relative change across that window."""
    k0 = int(math.floor((1.0 - TAIL_FRACTION) * path.n_steps))
    w = np.exp(rate * path.times[k0:]) * series[k0:]
    return w, abs(w[-1] - w[0]) / max(abs(w[-1]), 1e-300)


def _tail_stat(path: Path, rate: float, series: np.ndarray) -> float:
    """Mean of the scaled tail; raises NotStabilized when its relative
    change across the window exceeds TAIL_REL_TOL."""
    w, moved = scaled_tail(path, rate, series)
    if moved > TAIL_REL_TOL:
        raise NotStabilizedError(f"scaled tail moved {moved:.3%} over the window")
    return float(np.mean(w))


def extract_supercritical_limits(
    path: Path, params: ModelParams, classification: Classification
) -> SupercriticalLimits:
    """Read C1 and C_J from the stabilized tail of a supercritical path and
    assemble the limit matrices V1, V2 and eta*eta^T.

    The tail criterion requires the relative change of e^{bt} Y_t and of
    every e^{lam_min t} X^i_t over the final TAIL_FRACTION of the horizon
    to stay below TAIL_REL_TOL.

    The Euler update of X carries a growth-rate bias of order
    ||theta||^2 * delta / 2 per unit time, so the X criterion needs
    delta small enough that this bias over the window stays below
    TAIL_REL_TOL (Y uses exact transitions and has no such bias).
    """
    b = float(params.b)
    lam_min = float(classification.eig_theta[0])
    n = params.n
    c1 = _tail_stat(path, b, path.Y)
    cj = np.array([_tail_stat(path, lam_min, path.X[:, i]) for i in range(n)])

    v2 = np.zeros((n + 2, n + 2))
    v2[0, 0] = 1.0
    v2[0, 1] = c1 / b
    v2[0, 2:] = cj / lam_min
    v2[1, 1] = -c1 * c1 / (2.0 * b)
    v2[1, 2:] = -c1 * cj / (b + lam_min)
    v2[2:, 1] = -c1 * cj / (b + lam_min)
    v2[2:, 2:] = -np.outer(cj, cj) / (2.0 * lam_min)
    v1 = v2[:2, :2].copy()

    C1m, C3m = gram_blocks(
        -c1 / b, -c1 * c1 / (2.0 * b), -c1**3 / (3.0 * b), -c1 * cj / (b + lam_min),
        -c1 * c1 * cj / (2.0 * b + lam_min), -c1 * np.outer(cj, cj) / (b + 2.0 * lam_min),
    )
    eta_etaT = qv_matrix(params, C1m, C3m)
    return SupercriticalLimits(c1=c1, cj=cj, v1=v1, v2=v2, eta_etaT=eta_etaT)


def symmetric_cond(u: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix from its eigenvalues,
    whose absolute values are its singular values: in closed form at 2x2
    (largest |eigenvalue| squared over |det|), by ``eigvalsh`` above; inf
    when the matrix is singular."""
    if u.shape == (2, 2):
        p, q, r = float(u[0, 0]), float(u[0, 1]), float(u[1, 1])
        big = abs(0.5 * (p + r)) + math.hypot(0.5 * (p - r), q)
        det = abs(p * r - q * q)
        return big * big / det if det > 0 else math.inf
    lam = np.abs(np.linalg.eigvalsh(u))
    small = float(lam.min())
    return float(lam.max()) / small if small > 0 else math.inf


@dataclass
class CriticalLimitFunctional:
    """The critical limit draw diag(U1^-1, I kron U2^-1) (R1, vec R2)."""

    u1: np.ndarray  # (2, 2)
    u2: np.ndarray  # (n+2, n+2)
    r1: np.ndarray  # (2,)
    r2: np.ndarray  # (n+2, n)

    def limit_draw(self) -> np.ndarray:
        """One realization of the limit of the normalized error vector."""
        cond1 = symmetric_cond(self.u1)
        cond2 = symmetric_cond(self.u2)
        if not np.isfinite(cond1) or cond1 > U_COND_LIMIT or not np.isfinite(cond2) or cond2 > U_COND_LIMIT:
            raise SingularUError(
                f"limit functional is singular (cond {cond1:.3g}, {cond2:.3g})"
            )
        head = np.linalg.solve(self.u1, self.r1)
        tail = np.linalg.solve(self.u2, self.r2)
        return np.concatenate([head, tail.T.ravel()])


def critical_limit_functional(path: Path, a: float, m) -> CriticalLimitFunctional:
    """U1, U2, R1, R2 of one path of the zero-started limit process on
    [0, 1]: its end values, left-point integrals int Y, int Y^2, int X,
    int Y X, int X X^T and Ito sums int Y dY, int Y dX, int X dX^T."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    n = m.shape[0]
    Y, X, delta = path.Y, path.X, path.delta
    _, s_y, s_yy, s_x, s_yx, s_xx, s_ydy, s_ydx, s_xdx = left_point_sums(Y, X)
    int_y, int_x = s_y * delta, s_x * delta
    u1, u2 = gram_blocks(1.0, int_y, s_yy * delta, int_x, s_yx * delta, s_xx * delta)
    r1 = np.array([Y[-1] - a, a * int_y - s_ydy])
    r2 = np.empty((n + 2, n))
    r2[0, :] = X[-1] - m
    r2[1, :] = int_y * m - s_ydx
    r2[2:, :] = np.outer(int_x, m) - s_xdx
    return CriticalLimitFunctional(u1=u1, u2=u2, r1=r1, r2=r2)
