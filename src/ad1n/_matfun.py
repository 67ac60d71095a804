"""Matrix functions on numpy, and the integrals of the exact one-step map
that the simulator and the estimators share.  Nothing here imports scipy.

:func:`expm` takes ``np.exp`` of a 1 x 1 matrix and a port of
``scipy.linalg.expm`` on Python floats, bit for bit, for the one-step blocks
[[c, h], [0, 0]] of ``n = 1`` models that scipy takes at Pade order 9 or
below (|c| up to about 2.1), which keeps the pinned ``n = 1`` digests; every
other matrix takes Pade-13 scaling and squaring (Higham, SIAM J. Matrix Anal.
Appl. 26 (2005)).  :func:`logm` is ``np.log`` of a 1 x 1 matrix and inverse
scaling and squaring otherwise (Higham, *Functions of Matrices*, 2008, ch. 11).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import LogDomainError

#: Largest entry modulus of a one-step block that :func:`expm` computes
#: itself: A^8 of a larger one may overflow, and the ``Fraction`` arithmetic
#: of :func:`_fma` takes no nan or inf.  NaN fails the test too.
STEP_BLOCK_MAX = 1e30


def expm(A) -> np.ndarray:
    """e^A of a small square matrix, by the route the module describes."""
    A = np.asarray(A, dtype=float)
    if A.shape == (1, 1):
        return np.exp(A)
    X = _expm_step_block(A) if A.shape == (2, 2) else None
    return _expm_pade13(A) if X is None else X


# scipy.linalg.expm is the scaling and squaring algorithm of Al-Mohy and
# Higham, SIAM J. Matrix Anal. Appl. 31 (2009): the Pade coefficients
# b_0..b_m, the bounds theta_m on eta = max(||A^2k||^(1/2k)) up to which
# order m is used unscaled, and the 1/c_m of the error bound behind ``_ell``.
# ``_expm_pade13`` takes b_0..b_13 with theta_13 as a bound on ||A||_1.
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
    13: (64764752532480000., 32382376266240000., 7771770303897600.,
         1187353796428800., 129060195264000., 10559470521600., 670442572800.,
         33522128640., 1323241920., 40840800., 960960., 16380., 182., 1.),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068, 13: 5.371920351148152}
_ELL_C = {3: 100800., 5: 10059033600., 7: 4487938430976000.,
          9: 5914384781877411840000.}


def _expm_pade13(A: np.ndarray) -> np.ndarray:
    """r_13(A / 2^s)^(2^s), s the least with ||A||_1 / 2^s <= theta_13; an
    upper triangular A keeps its triangle and takes exp of its scaled
    diagonal at each squaring (Al-Mohy and Higham (2009), sec. 2), so e^c =
    inf or 0 there leaves no nan.  A non-finite entry gives all nan."""
    norm = np.linalg.norm(A, 1)
    if not norm < math.inf:
        return np.full(A.shape, math.nan)
    s = math.ceil(math.log2(norm / _THETA[13])) if norm > _THETA[13] else 0
    b, I, S = _PADE[13], np.eye(len(A)), A * 2.0 ** -s
    S2 = S @ S
    S4 = S2 @ S2
    S6 = S2 @ S4
    U = S @ (S6 @ (b[13] * S6 + b[11] * S4 + b[9] * S2)
             + b[7] * S6 + b[5] * S4 + b[3] * S2 + b[1] * I)
    V = (S6 @ (b[12] * S6 + b[10] * S4 + b[8] * S2)
         + b[6] * S6 + b[4] * S4 + b[2] * S2 + b[0] * I)
    X = I + 2.0 * np.linalg.solve(V - U, U)  # (V - U)^-1 (V + U), keeping e^S - I's digits
    triangular = not np.any(np.tril(A, -1))
    for j in range(s - 1, -1, -1):
        X = X @ X
        if triangular:
            X = np.triu(X)
            np.fill_diagonal(X, np.exp(np.diag(A) * 2.0 ** -j))
    return X


#: (node, weight) of the 8-point Gauss-Legendre rule on [-1, 1], node > 0
_GAUSS_LEGENDRE_8 = ((0.18343464249564978, 0.36268378337836166),
                     (0.525532409916329, 0.3137066458778869),
                     (0.7966664774136267, 0.22238103445337443),
                     (0.9602898564975362, 0.10122853629037706))
_SQRT_STEPS = 64  # iterations of one square root, and square roots of one logarithm


def logm(A) -> np.ndarray:
    """Principal logarithm of a real matrix: square roots until ||A^(1/2^k) -
    I||_1 <= 0.25, then 2^k log(I + E) = 2^k int_0^1 E (I + tE)^-1 dt on the
    8-point Gauss-Legendre rule (the [8/8] Pade approximant).  LogDomainError
    for an eigenvalue on (-inf, 0] or square roots that do not converge."""
    A = np.asarray(A, dtype=float)
    eig = np.linalg.eigvals(A)
    if np.any((eig.real <= 0) & (np.abs(eig.imag) <= 1e-12 * max(np.max(np.abs(eig)), 1e-300))):
        raise LogDomainError("no real principal logarithm: an eigenvalue lies on (-inf, 0]")
    if A.shape == (1, 1):
        return np.log(A)
    I = np.eye(len(A))
    k = 0
    while np.linalg.norm(A - I, 1) > 0.25:
        if k == _SQRT_STEPS:
            raise LogDomainError(f"{k} square roots left ||A - I||_1 above 0.25")
        A = _sqrtm(A)
        k += 1
    E = A - I
    return 2.0 ** (k - 1) * sum(w * np.linalg.solve(I + t * E, E) for x, w in _GAUSS_LEGENDRE_8
                                for t in (0.5 - 0.5 * x, 0.5 + 0.5 * x))


def _sqrtm(A: np.ndarray) -> np.ndarray:
    """A^(1/2) by the product form of the Denman-Beavers iteration (Higham,
    *Functions of Matrices*, sec. 6.3), whose M_k -> I."""
    I = np.eye(len(A))
    X = M = A
    for _ in range(_SQRT_STEPS):
        M_inv = np.linalg.inv(M)
        X = X @ (I + M_inv) * 0.5
        M = (I + 0.5 * (M + M_inv)) * 0.5
        if np.linalg.norm(M - I, 1) <= len(A) * np.finfo(float).eps:
            return X
    raise LogDomainError(f"the square-root iteration did not converge in {_SQRT_STEPS} steps")


# The port below works on upper-triangular 2 x 2 blocks (x, y, z) =
# [[x, y], [0, z]] and rounds every operation as scipy's compiled expm and
# the OpenBLAS under it do on a CPU with fused multiply-add: sums and
# products of the polynomial terms one at a time, the off-diagonal entry of
# a matrix product and a gemm with beta != 0 with one fused multiply-add,
# and the final solve through LAPACK's LU of the transpose.


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as an FMA instruction rounds it."""
    if a == 0.0 or b == 0.0:
        return c + a * b
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def _mul(P, R):
    """P @ R: the corner adds P01 * R11 to the rounded P00 * R01 in one FMA."""
    return P[0] * R[0], _fma(P[1], R[2], P[0] * R[1]), P[2] * R[2]


def _poly(terms, diag: float = 0.0):
    """sum of k * P over ``terms`` (k, P), left to right, then + diag * I."""
    (k, P), *rest = terms
    x, y, z = k * P[0], k * P[1], k * P[2]
    for k, P in rest:
        x, y, z = x + k * P[0], y + k * P[1], z + k * P[2]
    return (x + diag, y, z + diag) if diag else (x, y, z)


def _ell(c: float, h: float, m: int) -> int:
    """Extra squarings that the truncation-error bound of order m asks for:
    with N = ||(|A|^(2m+1))||_1 for A = [[c, h], [0, 0]],
    max(0, ceil(log2(N / (||A||_1 c_m u)) / 2m)), u = 2^-53."""
    ac, ah = abs(c), abs(h)
    col0, col1 = 1.0, 1.0  # |A|^T applied 2m+1 times to a column of ones
    for _ in range(2 * m + 1):
        col0, col1 = ac * col0, ah * col0
    norm = max(col0, col1)
    if not norm:
        return 0
    alpha = norm / (max(ac, ah) * _ELL_C[m])
    return max(int(math.ceil(math.log2(alpha / 2.0 ** -53) / (2 * m))), 0)


def _pade_order(c: float, h: float, A4, A6, A8):
    """The Pade order 3, 5, 7 or 9 that scipy picks for [[c, h], [0, 0]]
    without squaring, or None where it picks order 13."""
    # d_k = ||A^k||_1^(1/k); the second row of every power is zero
    d4 = max(abs(A4[0]), abs(A4[1])) ** 0.25
    d6 = max(abs(A6[0]), abs(A6[1])) ** (1 / 6)
    eta = max(d4, d6)
    for m in (3, 5):
        if eta < _THETA[m] and _ell(c, h, m) == 0:
            return m
    d8 = max(abs(A8[0]), abs(A8[1])) ** 0.125
    eta = max(d6, d8)
    for m in (7, 9):
        if eta < _THETA[m] and _ell(c, h, m) == 0:
            return m
    return None


def _pade_uv(A, powers, m: int):
    """(U, V), the odd and even parts of the order-m Pade numerator; powers
    are A^2, A^4, A^6, A^8."""
    b = _PADE[m]
    A2 = powers[0]
    if m == 3:
        # U = A @ A^2 + b1 A, one gemm with beta = b1
        U = tuple(_fma(b[1], a, p) for a, p in zip(A, _mul(A, A2)))
        return U, _poly([(b[2], A2)], b[0])
    # U = A @ (A^(m-1) + b_(m-2) A^(m-3) + ... + b1 I),
    # V = b_(m-1) A^(m-1) + ... + b0 I, each summed from the highest power
    k = (m - 1) // 2
    U = _mul(A, _poly([(1.0, powers[k - 1])]
                      + [(b[2 * j + 1], powers[j - 1]) for j in range(k - 1, 0, -1)], b[1]))
    return U, _poly([(b[2 * j], powers[j - 1]) for j in range(k, 0, -1)], b[0])


def _pade_solve(U, V):
    """X = I + 2 Y with (V - U) Y = U, solved as LAPACK's getrf and
    getrs('T') solve it from the factors of Q^T = [[q00, 0], [q01, q11]],
    Q = V - U: rows swapped when |q01| > |q00|, and the triangular solves
    multiply by the reciprocal of each pivot.  Returns (X00, X01, X11); X10
    is 0."""
    q00, q01, q11 = V[0] - U[0], V[1] - U[1], V[2] - U[2]
    swap = abs(q01) > abs(q00)
    if swap:  # P Q^T = [[1, 0], [l10, 1]] @ [[q01, q11], [0, -l10 q11]]
        l10 = q00 * (1.0 / q01)
        r00, r01, r11 = q01, q11, -(l10 * q11)
    else:  # Q^T = [[1, 0], [l10, 1]] @ [[q00, 0], [0, q11]]
        l10 = q01 * (1.0 / q00)
        r00, r01, r11 = q00, 0.0, q11
    cols = []
    for b0, b1 in ((U[0], 0.0), (U[1], U[2])):  # the columns of U
        # R^T z = b, then [[1, l10], [0, 1]] w = z, then undo the row swap
        z0 = b0 * (1.0 / r00)
        z1 = _fma(-r01, z0, b1) * (1.0 / r11)
        w0 = _fma(-l10, z1, z0)
        cols.append((z1, w0) if swap else (w0, z1))
    (y00, _), (y01, y11) = cols
    return 1.0 + 2.0 * y00, 2.0 * y01, 1.0 + 2.0 * y11


def _expm_step_block(A: np.ndarray) -> np.ndarray | None:
    """expm(A) as ``scipy.linalg.expm`` computes it, on Python floats, for a
    one-step block A = [[c, h], [0, 0]] with finite entries of modulus up to
    ``STEP_BLOCK_MAX`` that scipy takes at Pade order 9 or below; else None."""
    c, h = float(A[0, 0]), float(A[0, 1])
    if A[1, 0] or A[1, 1] or not (abs(c) <= STEP_BLOCK_MAX and abs(h) <= STEP_BLOCK_MAX):
        return None
    if h == 0.0:
        return np.diag(np.exp(np.array([c, 0.0])))
    A = (c, h, 0.0)
    A2 = _mul(A, A)
    A4 = _mul(A2, A2)
    A6 = _mul(A2, A4)
    A8 = _mul(A4, A4)
    m = _pade_order(c, h, A4, A6, A8)
    if m is None:
        return None
    x00, x01, x11 = _pade_solve(*_pade_uv(A, (A2, A4, A6, A8), m))
    return np.array([[x00, x01], [0.0, x11]])


def expm_integral(A: np.ndarray, h: float) -> np.ndarray:
    """int_0^h expm(A*u) du via the augmented-block exponential
    expm([[A, I], [0, 0]] * h) = [[e^{Ah}, integral], [0, I]]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p = A.shape[0]
    M = np.zeros((2 * p, 2 * p))
    M[:p, :p] = A * h
    M[:p, p:] = np.eye(p) * h
    return expm(M)[:p, p:]


#: nodes of the Gauss-Legendre rule for W at |b| h <= SMALL_BH
GAUSS_LEGENDRE_ORDER = 40
#: Largest |b| h at which a~ (the CIR scale c among them) and W take their
#: phi1 forms; above it they keep their difference forms, whose last bits
#: pinned digests hold at b = 1
SMALL_BH = 1e-6


def phi1(z: float) -> float:
    """(e^z - 1) / z, taken as 1 at z = 0."""
    return math.expm1(z) / z if z != 0.0 else 1.0


def step_integrals(b: float, theta, h: float, with_w: bool = True):
    """(e^{-theta h}, K, M, EW): the integrals of the exact one-step map over
    h, with k~ = K kappa and m~ = M m - a EW kappa.  K = e^{-theta h} int_0^h
    e^{(theta - bI)u} du, M = int_0^h e^{-theta u} du, EW = e^{-theta h} W and
    W = int_0^h g_b(u) e^{theta u} du with g_b(u) = int_0^u e^{-b(u-v)} dv.

    W is built only when ``with_w`` is true; otherwise EW is zero, for a
    caller whose kappa is 0.  Above |b| h = SMALL_BH, g_b(u) = (1 - e^{-bu})
    / b gives W = (Phi(theta) - Phi(theta - b I)) / b.  At or below it that
    difference keeps only ~eps / (|b| h) relative accuracy (none at b = 0),
    and W is the Gauss-Legendre rule on g_b(u) = u phi1(-bu)."""
    theta = np.atleast_2d(theta)
    n = theta.shape[0]
    emth = expm(-theta * h)
    shifted = expm_integral(theta - b * np.eye(n), h)
    if not with_w:
        W = np.zeros((n, n))
    elif abs(b) * h > SMALL_BH:
        W = (expm_integral(theta, h) - shifted) / b
    else:
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)
        W = np.zeros((n, n))
        for u, w in zip(0.5 * h * (nodes + 1.0), weights):
            W += w * (u * phi1(-b * u) * expm(theta * u))
        W *= 0.5 * h
    return emth, emth @ shifted, expm_integral(-theta, h), emth @ W


def cir_mean_coeffs(a: float, b: float, h: float):
    """Coefficients (e^{-bh}, a~) of the exact one-step conditional mean
    E[Y_{t+h} | F_t] = e^{-bh} Y_t + a~, with a~ = a * int_0^h e^{-bu} du:
    a (1 - e^{-bh}) / b above |b| h = SMALL_BH, and a h phi1(-bh) at or
    below it, where 1 - e^{-bh} keeps only ~eps / (|b| h) accuracy."""
    emb = math.exp(-b * h)  # exactly 1 at b = 0
    return emb, (a * (1.0 - emb) / b if abs(b) * h > SMALL_BH else a * h * phi1(-b * h))


def one_step_conditional_mean_coeffs(a, b, m, kappa, theta, h: float):
    """Coefficients (E_theta, m~, k~) of the exact one-step conditional mean
    E[X_{t+h} | F_t] = E_theta @ X_t + m~ - k~ * Y_t, with
    E_theta = e^{-theta h}.

    W is built only when kappa has a nonzero entry: it enters m~ only as
    EW @ kappa, which a zero kappa makes a zero vector (critical limit
    paths and every kappa = 0 model skip the Gauss-Legendre rule)."""
    m = np.atleast_1d(np.asarray(m, dtype=float))
    kappa = np.atleast_1d(np.asarray(kappa, dtype=float))
    emth, K, M, EW = step_integrals(float(b), np.asarray(theta, dtype=float), float(h),
                                    with_w=bool(np.any(kappa)))
    return emth, M @ m - float(a) * (EW @ kappa), K @ kappa

