"""Model parameters, validation, regime classification and drift stacking.

The model is the affine diffusion Z = (Y, X) on [0, inf) x R^n,

    dY_t = (a - b*Y_t) dt + rho_11 * sqrt(Y_t) dB^1_t
    dX_t = (m - kappa*Y_t - theta*X_t) dt + sqrt(Y_t) * rho_tilde dB_t,

driven by a d-dimensional Brownian motion B, d = n + 1, where rho is a
d x d lower-triangular matrix with positive diagonal and rho_tilde is its
lower (n x d) block.  The drift parameters are collected into the vector

    tau = (a, b, m_1, kappa_1, theta_11, ..., theta_1n, ...,
           m_n, kappa_n, theta_n1, ..., theta_nn)

of length d^2 + 1, i.e. (a, b) followed by the rows of F = [m | kappa | theta],
which is the layout every estimator and normalizer in this package uses.
:func:`stack_drift_fields` writes it and :func:`unstack_tau` reads it; all
other code goes through them.

Every :class:`ModelParams` is admissible: its constructor runs
:func:`validate`, which requires finite values, a >= 0, y0 >= 0, rho
lower triangular with positive diagonal and theta real diagonalizable.
Functions taking a ModelParams do not check this again.

Regimes are classified from the sign of b and the spectrum of theta:
subcritical when b > 0 and theta is positive definite, critical when the
mean of Z grows polynomially, supercritical when it grows exponentially.
Matrices theta outside the positive definite / negative definite / zero
trichotomy are reported as unsupported.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ComplexSpectrumError,
    DimensionMismatchError,
    InadmissibleParamsError,
    NonDiagonalizableError,
)

#: relative tolerance on imaginary parts when the spectrum must be real
IMAG_TOL = 1e-8
#: relative tolerance on the eigendecomposition reconstruction residual
DIAG_RESIDUAL_TOL = 1e-10
#: eigenvalues below this (relative) size are treated as exact zeros
EIG_ZERO_TOL = 1e-12
#: largest 2-norm condition number of a normal-equation block (design
#: blocks, critical U blocks, stationary EG) that is still solved
COND_LIMIT = 1e12


class Regime(str, Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"
    UNSUPPORTED = "unsupported"


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the affine diffusion.

    Parameters
    ----------
    n : int
        Dimension of the X component (so the state is (n+1)-dimensional).
    a, b : float
        Level and mean-reversion rate of Y.  a must be nonnegative.
    m, kappa : array_like, shape (n,)
        Constant drift and Y-coupling of X.
    theta : array_like, shape (n, n)
        Mean-reversion matrix of X.
    rho : array_like, shape (n+1, n+1)
        Lower-triangular diffusion matrix with positive diagonal.  The row
        norms sigma_i = ||rho_i||_2 are derived, never stored.
    y0 : float
        Initial value of Y, the start of every path.
    x0 : array_like, shape (n,)
        Initial value of X; a single number is taken for every coordinate.

    Raises DimensionMismatchError, naming the field, when n < 1 or a
    vector or matrix does not have the shape n gives it, and
    InadmissibleParamsError naming the field when n is not an integer or a
    rate, vector, matrix or initial value is not numeric, or listing every
    violation when the point is outside the admissible set (see
    :func:`validate`).
    """

    n: int
    a: float
    b: float
    m: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    rho: np.ndarray
    y0: float = 1.0
    x0: np.ndarray = 0.0  # broadcast to (n,)

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, (int, np.integer)):
            raise InadmissibleParamsError(f"n must be an integer, got {self.n!r}")
        n = int(self.n)
        if n < 1:
            raise DimensionMismatchError(f"n must be at least 1, got {n}")
        object.__setattr__(self, "n", n)
        fields = [("a", np.asarray, ()), ("b", np.asarray, ()),
                  ("m", np.atleast_1d, (n,)), ("kappa", np.atleast_1d, (n,)),
                  ("theta", np.atleast_2d, (n, n)), ("rho", np.atleast_2d, (n + 1, n + 1)),
                  ("y0", np.asarray, ()), ("x0", np.atleast_1d, (n,))]
        for name, as_nd, shape in fields:
            try:
                value = as_nd(np.asarray(getattr(self, name), dtype=float))
            except (TypeError, ValueError) as exc:
                raise InadmissibleParamsError(
                    f"{name} must be numeric, got {getattr(self, name)!r}") from exc
            if name == "x0" and value.shape == (1,):
                value = np.broadcast_to(value, shape)
            if value.shape != shape:
                raise DimensionMismatchError(
                    f"{name} must have shape {shape} for n = {n}, got {value.shape}")
            object.__setattr__(self, name, float(value) if shape == () else _as_readonly(value))
        validate(self)

    @property
    def d(self) -> int:
        return self.n + 1

    @property
    def sigma(self) -> np.ndarray:
        """Row norms of rho: sigma_i^2 = sum_j rho_ij^2."""
        return np.sqrt(np.sum(self.rho**2, axis=1))

    @property
    def sigma1(self) -> float:
        return float(self.rho[0, 0])

    @property
    def rho_tilde(self) -> np.ndarray:
        """Lower n x d block of rho (the diffusion loading of X)."""
        return self.rho[1:, :]

    @property
    def rho_J1(self) -> np.ndarray:
        """First column of rho_tilde (loading of X on the Y-driving noise)."""
        return self.rho[1:, 0]

    @property
    def rho_JJ(self) -> np.ndarray:
        """Lower-right n x n block of rho."""
        return self.rho[1:, 1:]

    def digest(self) -> str:
        """Stable hex digest of the numeric parameter content."""
        h = hashlib.sha256()
        h.update(str(self.n).encode())
        for v in (self.a, self.b):
            h.update(f"{v:.17g}".encode())
        for arr in (self.m, self.kappa, self.theta, self.rho, self.y0, self.x0):
            h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return h.hexdigest()


def _try_real_eig(theta: np.ndarray):
    """Eigendecomposition with reality and diagonalizability checks.

    Returns (eigenvalues ascending, row transform P with P theta P^-1 = D),
    or raises ComplexSpectrumError / NonDiagonalizableError.
    """
    theta = np.asarray(theta, dtype=float)
    norm2 = float(np.linalg.norm(theta, 2)) if theta.size else 0.0
    w, v = np.linalg.eig(theta)
    imag_tol = IMAG_TOL * max(norm2, 1.0)
    if np.max(np.abs(w.imag)) > imag_tol:
        raise ComplexSpectrumError(
            f"theta has eigenvalues with imaginary part above {imag_tol:g}"
        )
    w = w.real
    v = v.real if np.max(np.abs(v.imag)) <= imag_tol else None
    if v is None:
        raise NonDiagonalizableError("theta has no real eigenvector basis")
    order = np.argsort(w)
    w = w[order]
    v = v[:, order]
    try:
        vinv = _inverse_eigenvectors(theta, w, v)
    except NonDiagonalizableError:
        # LAPACK's balancing can return a wrong eigenvector when the entries
        # of theta span many orders of magnitude: take each one as the null
        # vector of theta - w_i I instead, and check again
        eye = np.eye(theta.shape[0])
        v = np.stack([np.linalg.svd(theta - wi * eye)[2][-1] for wi in w], axis=1)
        vinv = _inverse_eigenvectors(theta, w, v)
    # convention: P X diagonalizes, i.e. P theta P^-1 = D with P = V^-1
    return w, vinv


def _inverse_eigenvectors(theta, w, v):
    """V^-1 after a residual check of theta = V D V^-1."""
    try:
        vinv = np.linalg.inv(v)
    except np.linalg.LinAlgError as exc:
        raise NonDiagonalizableError("eigenvector matrix is singular") from exc
    resid = np.linalg.norm(theta - v @ np.diag(w) @ vinv, "fro")
    if resid > DIAG_RESIDUAL_TOL * max(np.linalg.norm(theta, "fro"), 1e-300):
        raise NonDiagonalizableError(
            f"theta not diagonalizable within tolerance (residual {resid:.3e})"
        )
    return vinv


def validate(params: ModelParams) -> None:
    """Raise InadmissibleParamsError listing every violated parameter
    invariant; :class:`ModelParams` runs it on construction."""
    v: list[str] = []
    for name in ("a", "b", "m", "kappa", "theta", "rho", "y0", "x0"):
        if not np.all(np.isfinite(getattr(params, name))):
            v.append(f"{name} must be finite")
    if np.any(np.abs(np.triu(params.rho, k=1)) > 0):
        v.append("rho must be lower triangular")
    if np.any(np.diag(params.rho) <= 0):
        v.append("rho diagonal must be positive")
    if np.any(params.sigma <= 0):
        v.append("every rho row norm sigma_i must be positive")
    if params.a < 0:
        v.append("a must be nonnegative")
    if params.y0 < 0:
        v.append("y0 must be nonnegative")
    if np.all(np.isfinite(params.theta)):
        try:
            _try_real_eig(params.theta)
        except ComplexSpectrumError:
            v.append("theta eigenvalues not real within tolerance")
        except NonDiagonalizableError:
            v.append("theta not diagonalizable")
    if v:
        raise InadmissibleParamsError(f"inadmissible model: {'; '.join(v)}")


@dataclass
class Classification:
    regime: Regime
    b: float
    eig_theta: np.ndarray  # real parts, ascending
    P: np.ndarray  # row transform with P theta P^-1 = diag(eig_theta)


def classify(params: ModelParams) -> Classification:
    """Assign the regime from b and the trichotomy of theta's spectrum.

    theta must be diagonalizable with a real spectrum.  An eigenvalue
    within EIG_ZERO_TOL * max(1, max|lambda|) of 0 is 0: LAPACK finds
    eigenvalues only to about eps * ||theta||, so a smaller one's sign is
    rounding.  SUBCRITICAL is b > 0 and positive definite theta; CRITICAL
    b >= 0 and zero theta, or b = 0 and positive definite theta; every
    other b with positive definite, negative definite or zero theta is
    SUPERCRITICAL, and any other theta UNSUPPORTED.
    """
    w, P = _try_real_eig(params.theta)
    b = float(params.b)
    scale = max(float(np.max(np.abs(w))) if w.size else 0.0, 1.0)
    zero_tol = EIG_ZERO_TOL * scale
    pos_def = float(w[0]) > zero_tol
    neg_def = float(w[-1]) < -zero_tol
    zero = np.all(np.abs(w) <= zero_tol)
    if b > 0 and pos_def:
        regime = Regime.SUBCRITICAL
    elif (b >= 0 and zero) or (b == 0 and pos_def):
        regime = Regime.CRITICAL
    elif pos_def or neg_def or zero:
        regime = Regime.SUPERCRITICAL
    else:
        regime = Regime.UNSUPPORTED
    return Classification(regime, b, w, P)


def tau_length(n: int) -> int:
    return (n + 1) ** 2 + 1


def stack_drift_fields(a, b, m, kappa, theta) -> np.ndarray:
    """Stack drift fields into the canonical tau vector.

    Layout: (a, b) followed by the rows of F = [m | kappa | theta], i.e.
    per X coordinate j the block (m_j, kappa_j, theta_j1, ..., theta_jn).
    Returns a new array.
    """
    m = np.atleast_1d(np.asarray(m, dtype=float))
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    n = m.shape[0]
    if kappa.shape != (n,) or theta.shape != (n, n):
        raise DimensionMismatchError("m, kappa, theta dimensions disagree")
    return np.concatenate(([a, b], np.column_stack((m, kappa, theta)).ravel()))


def stack_tau(params: ModelParams) -> np.ndarray:
    return stack_drift_fields(params.a, params.b, params.m, params.kappa, params.theta)


def unstack_tau(v: np.ndarray, n: int):
    """Inverse of :func:`stack_drift_fields`.

    Returns (a, b, m, kappa, theta).  Raises DimensionMismatchError when the
    vector length is not (n+1)^2 + 1.
    """
    v = np.asarray(v, dtype=float).ravel()
    if v.shape[0] != tau_length(n):
        raise DimensionMismatchError(
            f"tau vector of length {v.shape[0]} does not match n={n}"
        )
    F = v[2:].reshape(n, n + 2)
    return float(v[0]), float(v[1]), F[:, 0].copy(), F[:, 1].copy(), F[:, 2:].copy()


def drift_design_row(y: float, x: np.ndarray) -> np.ndarray:
    """Design matrix Lambda(z) with Lambda(z) @ tau equal to the drift.

    Shape (d, d^2+1): first row (1, -y, 0, ...), then I_n kron K(z) with
    K(z) = (1, -y, -x_1, ..., -x_n).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    n = x.shape[0]
    out = np.zeros((n + 1, tau_length(n)))
    out[0, :2] = 1.0, -y
    # row 1 + j holds K in the j-th block of the rows of F
    blocks = out[1:, 2:].reshape(n, n, n + 2)
    blocks[np.arange(n), np.arange(n)] = np.concatenate(([1.0, -y], -x))
    return out


def gram_blocks(c, y, yy, x, yx, xx):
    """The two distinct blocks of sum Lambda(z)^T Lambda(z), from six moments.

    With K = (1, -Y, -X) the (n+2)-row of :func:`drift_design_row`, returns
    G1 = sum of (1, -Y)(1, -Y)^T (2 x 2) and G2 = sum of K K^T
    ((n+2) x (n+2)), given c = sum 1, y = sum Y, yy = sum Y^2, x = sum X,
    yx = sum Y X and xx = sum X X^T.  "Sum" is whatever the caller takes:
    per-step sums, stationary means, integrals or almost-sure limits, and
    Y-weighted moments give the blocks of sum Y K K^T.
    """
    n = np.shape(x)[0]
    G1 = np.array([[c, -y], [-y, yy]], dtype=float)
    G2 = np.empty((n + 2, n + 2))
    G2[:2, :2] = G1
    G2[0, 2:] = G2[2:, 0] = -x
    G2[1, 2:] = G2[2:, 1] = yx
    G2[2:, 2:] = xx
    return G1, G2


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


def qv_matrix(params: ModelParams, B1: np.ndarray, B3: np.ndarray) -> np.ndarray:
    """sum Y Lambda(z)^T rho rho^T Lambda(z), symmetrized, from the Y-weighted
    Gram blocks (B1, B3) = gram_blocks(sum Y, sum Y^2, sum Y^3, sum Y X,
    sum Y^2 X, sum Y X X^T): the quadratic variation of the martingale part
    of the normal equations."""
    s1 = params.sigma1
    rho_t = params.rho_tilde
    top_right = s1 * np.kron(params.rho_J1[None, :], B3[:2])
    Q = np.block([
        [s1 * s1 * B1, top_right],
        [top_right.T, np.kron(rho_t @ rho_t.T, B3)],
    ])
    return 0.5 * (Q + Q.T)


def drift(params: ModelParams, y: float, x: np.ndarray) -> np.ndarray:
    """Direct drift evaluation (a - b*y, m - kappa*y - theta @ x)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return np.concatenate(
        ([params.a - params.b * y], params.m - params.kappa * y - params.theta @ x)
    )
