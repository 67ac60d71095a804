"""Matrix integral helpers shared by the simulator and the estimators, and
the thread setting of the BLAS behind them.

An experiment calls scipy on small matrices only: ``expm`` and ``logm``
on at most 2n rows (the augmented blocks of ``expm_integral``, which only
``step_integrals`` calls), and ``block_diag``, ``cho_factor`` and
``cho_solve`` on the 2 + n(n+2) rows of the sandwich covariance.  scipy
links its own OpenBLAS, beside the one numpy links, and each keeps its own
worker pool.  At these sizes a second scipy thread splits no work; it only
spins on the core that numpy's threaded reductions over long paths need,
and the two pools starve each other.  ``one_blas_thread`` holds scipy's
pool at one thread while an experiment runs.  numpy's pool stays as found:
the last bits of those reductions depend on its count.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math

import numpy as np
import scipy.linalg
import scipy.linalg.cython_blas


def expm_integral(A: np.ndarray, h: float) -> np.ndarray:
    """int_0^h expm(A*u) du via the augmented-block exponential
    expm([[A, I], [0, 0]] * h) = [[e^{Ah}, integral], [0, I]]."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    p = A.shape[0]
    M = np.zeros((2 * p, 2 * p))
    M[:p, :p] = A * h
    M[:p, p:] = np.eye(p) * h
    return scipy.linalg.expm(M)[:p, p:]


#: nodes of the Gauss-Legendre rule for W at b = 0 and theta != 0
GAUSS_LEGENDRE_ORDER = 40


def gauss_legendre_matrix_integral(f, h: float, p: int) -> np.ndarray:
    nodes, weights = np.polynomial.legendre.leggauss(GAUSS_LEGENDRE_ORDER)
    u = 0.5 * h * (nodes + 1.0)
    out = np.zeros((p, p))
    for ui, wi in zip(u, weights):
        out += wi * f(ui)
    return 0.5 * h * out


def step_integrals(b: float, theta, h: float):
    """(e^{-theta h}, K, M, EW): the integrals of the exact one-step map over
    h, with k~ = K kappa and m~ = M m - a EW kappa.  K = e^{-theta h} int_0^h
    e^{(theta - bI)u} du, M = int_0^h e^{-theta u} du, EW = e^{-theta h} W and
    W = int_0^h g_b(u) e^{theta u} du with g_b(u) = int_0^u e^{-b(u-v)} dv."""
    theta = np.atleast_2d(theta)
    n = theta.shape[0]
    emth = scipy.linalg.expm(-theta * h)
    shifted = expm_integral(theta - b * np.eye(n), h)
    if b != 0.0:
        # g_b(u) = (1 - e^{-bu})/b, so W = (Phi(theta) - Phi(theta - b I))/b
        W = (expm_integral(theta, h) - shifted) / b
    elif np.allclose(theta, 0.0):
        W = 0.5 * h * h * np.eye(n)
    else:
        W = gauss_legendre_matrix_integral(lambda u: u * scipy.linalg.expm(theta * u), h, n)
    return emth, emth @ shifted, expm_integral(-theta, h), emth @ W


def cir_mean_coeffs(a: float, b: float, h: float):
    """Coefficients (e^{-bh}, a~) of the exact one-step conditional mean
    E[Y_{t+h} | F_t] = e^{-bh} Y_t + a~, with a~ = a * int_0^h e^{-bu} du."""
    emb = math.exp(-b * h)  # exactly 1 at b = 0
    return emb, (a * (1.0 - emb) / b if b != 0.0 else a * h)


def one_step_conditional_mean_coeffs(a, b, m, kappa, theta, h: float):
    """Coefficients (E_theta, m~, k~) of the exact one-step conditional mean
    E[X_{t+h} | F_t] = E_theta @ X_t + m~ - k~ * Y_t, with
    E_theta = e^{-theta h}.

    Kept per value of the arguments and returned read-only: every path of an
    experiment asks for the same coefficients, and outside
    ``one_blas_thread`` each small ``expm`` wakes scipy's OpenBLAS pool,
    which then starves numpy's pool of a core, and the other way round.
    """
    args = [np.asarray(v, dtype=float) for v in (a, b, m, kappa, theta, h)]
    return _mean_coeffs_of(tuple((v.shape, v.tobytes()) for v in args))


@functools.lru_cache(maxsize=32)
def _mean_coeffs_of(key):
    a, b, m, kappa, theta, h = (np.frombuffer(raw).reshape(shape) for shape, raw in key)
    a, b, h = float(a), float(b), float(h)
    m = np.atleast_1d(m)
    kappa = np.atleast_1d(kappa)
    emth, K, M, EW = step_integrals(b, theta, h)
    kappa_t = K @ kappa
    m_t = M @ m - a * (EW @ kappa)
    for arr in (emth, m_t, kappa_t):
        arr.setflags(write=False)
    return emth, m_t, kappa_t


@functools.cache
def _scipy_openblas():
    """(get, set) of the thread count of the OpenBLAS that scipy.linalg
    links, or None when it is not an OpenBLAS (MKL, Accelerate, ...).

    The symbols are looked up on a handle of scipy's own BLAS wrapper, which
    sees only that library and what it links; numpy's OpenBLAS exports its
    symbols with a ``64_`` suffix and cannot match."""
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


@contextlib.contextmanager
def one_blas_thread():
    """Hold scipy's OpenBLAS pool at one thread for the body, then restore
    the count it had, also when the body raises.  Does nothing when scipy's
    BLAS is not an OpenBLAS, and never touches numpy's pool."""
    fns = _scipy_openblas()
    if fns is None:
        yield
        return
    get, set_ = fns
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
