"""Matrix integral helpers shared by the simulator and the estimators, the
small matrix exponential behind them, and the one way in to scipy.

An experiment takes matrix functions of small matrices only.  For an
``n = 1`` model these are the exponentials of 1 x 1 matrices and of the
2 x 2 one-step blocks [[c, h], [0, 0]] of ``expm_integral``, and
:func:`expm` computes both without scipy, bit for bit what
``scipy.linalg.expm`` returns, for every block that scipy takes at Pade
order 9 or below without squaring (|c| up to about 2.1).  Every other
matrix function (larger blocks, those of ``n >= 2`` models, and the
exponentials of the transient moment systems) goes through
:func:`scipy_call`, which imports ``scipy.linalg`` on first use.  So
``import ad1n`` and every ``n = 1`` experiment whose blocks stay at order 9
or below run without loading scipy.

scipy links its own OpenBLAS, beside the one numpy links, and each keeps
its own worker pool.  At these sizes a second scipy thread splits no work;
it only spins on the core that numpy's threaded reductions over long paths
need, and the two pools starve each other.  :func:`scipy_call` holds
scipy's pool at one thread for each call and puts back the count it found;
restoring the count does not wake the pool's workers.  numpy's pool stays
as found: the last bits of those reductions depend on its count.
"""

from __future__ import annotations

import ctypes
import functools
import math
from fractions import Fraction

import numpy as np


def scipy_call(name: str, A) -> np.ndarray:
    """``scipy.linalg.<name>(A)``, with scipy imported on first use and its
    OpenBLAS pool held at one thread for the call; the count it had comes
    back after, also when the call raises.  Holds nothing when scipy's BLAS
    is not an OpenBLAS, and never touches numpy's pool."""
    import scipy.linalg

    fn = getattr(scipy.linalg, name)
    pool = _scipy_openblas()
    if pool is None:
        return fn(A)
    get, set_ = pool
    found = get()
    set_(1)
    try:
        return fn(A)
    finally:
        set_(found)


#: Largest entry modulus of a one-step block that :func:`expm` computes
#: itself: A^8 of a larger one may overflow, and the ``Fraction`` arithmetic
#: of :func:`_fma` takes no nan or inf.  NaN fails the test too.
STEP_BLOCK_MAX = 1e30


def expm(A) -> np.ndarray:
    """e^A of a small square matrix, bit for bit ``scipy.linalg.expm(A)``.

    A 1 x 1 matrix is ``np.exp``, as in scipy.  A one-step block
    [[c, h], [0, 0]] with finite entries of modulus at most
    ``STEP_BLOCK_MAX`` runs :func:`_expm_step_block`; every other matrix
    goes to :func:`scipy_call`."""
    A = np.asarray(A, dtype=float)
    if A.shape == (1, 1):
        return np.exp(A)
    if (A.shape == (2, 2) and A[1, 0] == 0.0 and A[1, 1] == 0.0
            and abs(A[0, 0]) <= STEP_BLOCK_MAX and abs(A[0, 1]) <= STEP_BLOCK_MAX):
        return _expm_step_block(float(A[0, 0]), float(A[0, 1]))
    return scipy_call("expm", A)


# scipy.linalg.expm is the scaling and squaring algorithm of Al-Mohy and
# Higham, "A New Scaling and Squaring Algorithm for the Matrix Exponential",
# SIAM J. Matrix Anal. Appl. 31 (2009): the Pade coefficients b_0..b_m, the
# bounds theta_m on eta = max(||A^2k||^(1/2k)) up to which order m is used
# unscaled, and the 1/c_m of the truncation-error bound behind ``_ell``.
# Only the orders it picks without squaring below 13 are ported; a block
# that needs order 13, scaled or not, goes to scipy.
_PADE = {
    3: (120., 60., 12., 1.),
    5: (30240., 15120., 3360., 420., 30., 1.),
    7: (17297280., 8648640., 1995840., 277200., 25200., 1512., 56., 1.),
    9: (17643225600., 8821612800., 2075673600., 302702400., 30270240.,
        2162160., 110880., 3960., 90., 1.),
}
_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
          7: 9.504178996162932e-1, 9: 2.097847961257068}
_ELL_C = {3: 100800., 5: 10059033600., 7: 4487938430976000.,
          9: 5914384781877411840000.}

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


def _expm_step_block(c: float, h: float) -> np.ndarray:
    """expm([[c, h], [0, 0]]) as ``scipy.linalg.expm`` computes it, on Python
    floats up to Pade order 9 and by :func:`scipy_call` beyond."""
    if h == 0.0:
        return np.diag(np.exp(np.array([c, 0.0])))
    A = (c, h, 0.0)
    A2 = _mul(A, A)
    A4 = _mul(A2, A2)
    A6 = _mul(A2, A4)
    A8 = _mul(A4, A4)
    m = _pade_order(c, h, A4, A6, A8)
    if m is None:
        return scipy_call("expm", np.array([[c, h], [0.0, 0.0]]))
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


@functools.cache
def _scipy_openblas():
    """(get, set) of the thread count of the OpenBLAS that scipy.linalg
    links, or None when it is not an OpenBLAS (MKL, Accelerate, ...).

    The symbols are looked up on a handle of scipy's own BLAS wrapper, which
    sees only that library and what it links; numpy's OpenBLAS exports its
    symbols with a ``64_`` suffix and cannot match."""
    import scipy.linalg.cython_blas

    lib = ctypes.CDLL(scipy.linalg.cython_blas.__file__)
    for prefix in ("scipy_openblas_", "openblas_"):
        try:
            get = getattr(lib, prefix + "get_num_threads")
            set_ = getattr(lib, prefix + "set_num_threads")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None
