"""Conditional least squares estimation of the drift vector tau.

Two estimator flavors are exposed, both computed from the same per-step
sums over a sampled path (left endpoints throughout):

``discrete``
    The high-frequency estimator: solve

        (a, b)           = (delta * Gamma1)^-1 phi1,
        [m^T; k^T; th^T] = (delta * Gamma2)^-1 phi2,

    where Gamma1 = [[N, -sum Y], [-sum Y, sum Y^2]],
    phi1 = (Y_tN - Y_0, -sum (Y_k - Y_{k-1}) Y_{k-1}), and Gamma2 / phi2
    are the analogous (n+2)-row systems including the X observations.
    (delta * Gamma, phi) is also the Riemann/Ito-sum form of the
    continuous-observation systems (G_T, f_T), so ``continuous`` is
    accepted as a second name for this flavor.

``exact``
    The per-step conditional regression: solve Gamma x = phi without the
    1/delta scaling, giving the one-step regression coefficients
    (a~, b~, m~, k~, th~), then invert the exact one-step map g (below).

Estimation has two stages: ``design_blocks`` accumulates the sums from a
path (:func:`ad1n.simulate.left_point_sums`, laid out as blocks by
:func:`ad1n.model.gram_blocks`), ``estimate_blocks`` solves them for either
flavor, and ``estimate_path`` runs both.

The map g sends drift fields to one-step conditional-expectation
coefficients over a step h:

    a~  = a * int_0^h e^{-bu} du            b~  = 1 - e^{-bh}
    th~ = I - e^{-h*theta}                  k~  = int_0^h e^{-bu} e^{theta(u-h)} kappa du
    m~  = int_0^h e^{-theta u} m du - a * int_0^h (int_0^u e^{-b(u-v)} dv) e^{theta(u-h)} kappa du

and its inverse recovers b = -log(1 - b~)/h, theta = -logm(I - th~)/h and
then a, kappa, m by solving the displayed integral relations at the
recovered (b, theta).  Matrix exponentials use Pade scaling-and-squaring
(:func:`ad1n._matfun.expm`) and the matrix logarithm its principal branch:
np.log of the entry for n = 1, and for n >= 2 ``scipy.linalg.logm`` through
:func:`ad1n._matfun.scipy_call`, which loads scipy at its first call and
holds scipy's BLAS pool at one thread for each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._matfun import (cir_mean_coeffs, one_step_conditional_mean_coeffs, scipy_call,
                      step_integrals)
from .errors import (
    ConfigError,
    DegeneratePathError,
    DimensionMismatchError,
    LogDomainError,
    PathTooShortError,
    SingularBlocksError,
)
from .model import COND_LIMIT, gram_blocks, stack_drift_fields, symmetric_cond
from .simulate import Path, left_point_sums

#: "continuous" is a second name for "discrete"
FLAVORS = ("continuous", "discrete", "exact")


@dataclass
class TildeParams:
    """One-step conditional-regression coefficients over step h."""

    a: float
    b: float
    m: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray


def g_map(a: float, b: float, m, kappa, theta, h: float) -> TildeParams:
    """Drift fields -> one-step conditional-expectation coefficients."""
    if not 0 < h < math.inf:
        raise DimensionMismatchError(f"step h must be finite and positive, got {h:g}")
    emth, m_t, kappa_t = one_step_conditional_mean_coeffs(a, b, m, kappa, theta, h)
    _, a_t = cir_mean_coeffs(a, b, h)
    b_t = -math.expm1(-b * h)
    theta_t = np.eye(emth.shape[0]) - emth
    return TildeParams(a=float(a_t), b=float(b_t), m=m_t, kappa=kappa_t, theta=theta_t)


def g_inverse(tilde: TildeParams, h: float):
    """One-step regression coefficients -> drift fields (a, b, m, kappa, theta).

    Raises LogDomainError when b~ >= 1 or I - theta~ has an eigenvalue on
    the closed negative real axis, i.e. the regression output left the
    neighborhood where the one-step map is invertible.
    """
    if not 0 < h < math.inf:
        raise DimensionMismatchError(f"step h must be finite and positive, got {h:g}")
    if tilde.b >= 1.0:
        raise LogDomainError(f"b-tilde = {tilde.b:.6g} >= 1")
    n = tilde.m.shape[0]
    b = -math.log1p(-tilde.b) / h
    a = tilde.a * b / tilde.b if tilde.b != 0.0 else tilde.a / h
    A = np.eye(n) - np.atleast_2d(tilde.theta)
    eig = np.linalg.eigvals(A)
    scale = max(np.max(np.abs(eig)), 1e-300)
    on_negative_axis = (eig.real <= 0) & (np.abs(eig.imag) <= 1e-12 * scale)
    if np.any(on_negative_axis):
        raise LogDomainError("I - theta-tilde has an eigenvalue on (-inf, 0]")
    # for n = 1 scipy's logm reduces to np.log of the entry, bit for bit;
    # calling it directly keeps scipy out of n = 1 runs
    logA = np.log(A) if n == 1 else scipy_call("logm", A)
    if np.max(np.abs(np.imag(logA))) > 1e-8 * max(1.0, np.max(np.abs(logA))):
        raise LogDomainError("matrix logarithm left the real branch")
    theta = -np.real(logA) / h
    try:
        _, K, M, EW = step_integrals(b, theta, h)
        kappa = np.linalg.solve(K, tilde.kappa)
        m = np.linalg.solve(M, tilde.m + a * (EW @ kappa))
    except np.linalg.LinAlgError as exc:
        raise LogDomainError("integral coefficient matrix is singular") from exc
    return float(a), float(b), m, kappa, theta


@dataclass
class DesignBlocks:
    """Normal-equation blocks accumulated from a path.

    G1/G2 hold the raw per-step sums Gamma; f1/f2 the telescoped increments
    and left-point Ito sums.  Both flavors solve from the same blocks.
    """

    G1: np.ndarray  # (2, 2)
    f1: np.ndarray  # (2,)
    G2: np.ndarray  # (n+2, n+2)
    f2: np.ndarray  # (n+2, n)
    horizon: float
    step: float
    n_steps: int
    cond1: float
    cond2: float


def _equilibrated(G: np.ndarray):
    """(d, G / d d^T) with d = sqrt|diag G|.  The raw blocks scale like
    powers of sup Y, which grows exponentially on supercritical paths; the
    guard and the solves both work on the scaled block, so the guard detects
    genuine rank deficiency instead of units.  A zero d leaves a nan."""
    d = np.sqrt(np.abs(np.diag(G)))
    with np.errstate(divide="ignore", invalid="ignore"):
        return d, G / np.outer(d, d)


def _equilibrated_cond(G: np.ndarray) -> float:
    S = _equilibrated(G)[1]
    return symmetric_cond(S) if np.all(np.isfinite(S)) else math.inf


def _equilibrated_solve(G: np.ndarray, F: np.ndarray) -> np.ndarray:
    d, S = _equilibrated(G)
    Z = np.linalg.solve(S, F / d[:, None] if F.ndim == 2 else F / d)
    return Z / d[:, None] if F.ndim == 2 else Z / d


def design_blocks(path: Path) -> DesignBlocks:
    """Accumulate the estimation systems from a path."""
    if path.n_steps < path.n + 2:
        raise PathTooShortError("path must have at least d+2 points")
    if np.count_nonzero(path.Y[:-1] > 0) < 2:
        raise PathTooShortError("Y must be strictly positive at two grid points")
    Y, X = path.Y, path.X
    sums = left_point_sums(Y, X)
    G1, G2 = gram_blocks(*sums[:6])
    y_dy, y_dx, x_dx = sums[6:]
    f1 = np.array([Y[-1] - Y[0], -y_dy])
    f2 = np.empty((path.n + 2, path.n))
    f2[0, :] = X[-1] - X[0]
    f2[1, :] = -y_dx
    f2[2:, :] = -x_dx
    cond1 = _equilibrated_cond(G1)
    cond2 = _equilibrated_cond(G2)
    if not (cond1 <= COND_LIMIT and cond2 <= COND_LIMIT):
        raise DegeneratePathError(
            f"design blocks are degenerate (cond {cond1:.3g}, {cond2:.3g})"
        )
    return DesignBlocks(
        G1=G1, f1=f1, G2=G2, f2=f2,
        horizon=path.horizon, step=path.delta, n_steps=path.n_steps,
        cond1=cond1, cond2=cond2,
    )


@dataclass
class Estimate:
    tau_hat: np.ndarray
    a: float
    b: float
    m: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    flavor: str
    cond1: float
    cond2: float
    horizon: float
    step: float

    @classmethod
    def from_fields(cls, a, b, m, kappa, theta, flavor: str, blocks: DesignBlocks):
        return cls(
            tau_hat=stack_drift_fields(a, b, m, kappa, theta),
            a=float(a), b=float(b),
            m=np.atleast_1d(np.asarray(m, float)),
            kappa=np.atleast_1d(np.asarray(kappa, float)),
            theta=np.atleast_2d(np.asarray(theta, float)),
            flavor=flavor, cond1=blocks.cond1, cond2=blocks.cond2,
            horizon=blocks.horizon, step=blocks.step,
        )


def clse_solve(blocks: DesignBlocks) -> Estimate:
    """Solve the scaled block systems (delta * Gamma) x = phi for the
    stacked drift estimate (the discrete flavor)."""
    t = _tilde_from_blocks(blocks, scale=blocks.step)
    return Estimate.from_fields(t.a, t.b, t.m, t.kappa, t.theta, "discrete", blocks)


def tilde_regression(path: Path) -> TildeParams:
    """Per-step conditional regression: solve Gamma x = phi (no 1/delta)."""
    return _tilde_from_blocks(design_blocks(path))


def _tilde_from_blocks(blocks: DesignBlocks, scale: float = 1.0) -> TildeParams:
    """Solve (scale * Gamma) x = phi; the solved rows are the columns of
    [m k th]^T.  scale = 1 is exact, so the exact flavor keeps its bits."""
    try:
        ab = _equilibrated_solve(blocks.G1 * scale, blocks.f1)
        mkth = _equilibrated_solve(blocks.G2 * scale, blocks.f2)
    except np.linalg.LinAlgError as exc:
        raise SingularBlocksError("design blocks are singular") from exc
    return TildeParams(
        a=float(ab[0]), b=float(ab[1]),
        m=mkth[0, :].copy(), kappa=mkth[1, :].copy(), theta=mkth[2:, :].T.copy(),
    )


def estimate_blocks(blocks: DesignBlocks, flavor: str = "discrete") -> Estimate:
    """Solve design blocks for tau with the requested flavor."""
    if flavor not in FLAVORS:
        raise ConfigError(f"unknown flavor {flavor!r}")
    if flavor != "exact":
        return clse_solve(blocks)
    return Estimate.from_fields(*g_inverse(_tilde_from_blocks(blocks), blocks.step),
                                "exact", blocks)


def estimate_path(path: Path, flavor: str = "discrete") -> Estimate:
    """Estimate tau from a path with the requested flavor."""
    return estimate_blocks(design_blocks(path), flavor)


def error_term(estimate: Estimate, truth: np.ndarray) -> np.ndarray:
    """Componentwise estimation error tau_hat - tau."""
    truth = np.asarray(truth, dtype=float).ravel()
    if truth.shape != estimate.tau_hat.shape:
        raise DimensionMismatchError(
            f"truth has length {truth.shape[0]}, estimate {estimate.tau_hat.shape[0]}"
        )
    return estimate.tau_hat - truth
