"""``_matfun.expm`` and ``_matfun.logm``: bit for bit ``scipy.linalg.expm``
on the matrices the port computes (1 x 1 and the one-step blocks [[c, h],
[0, 0]] that ``expm_integral`` builds for n = 1, up to Pade order 9), and
within a few ulps of 50-digit mpmath on every other matrix, which numpy's
Pade-13 scaling and squaring takes; the logarithm no further from mpmath
than ``scipy.linalg.logm``.  The one-step coefficients a~ and EW are
continuous as b -> 0, and those of a zero kappa, built without W, are the
ones the full W gives."""

import dataclasses

import mpmath
import numpy as np
import pytest
import scipy.linalg

from ad1n import _matfun
from ad1n._matfun import cir_mean_coeffs, step_integrals
from ad1n.errors import LogDomainError
from ad1n.moments import generator
from ad1n.simulate import simulate_path

#: every Pade order of the port
PORT_ORDERS = {3, 5, 7, 9}


def _branch(c, h):
    A = (c, h, 0.0)
    A2 = _matfun._mul(A, A)
    A4 = _matfun._mul(A2, A2)
    return _matfun._pade_order(c, h, A4, _matfun._mul(A2, A4), _matfun._mul(A4, A4))


def _blocks(rng, count):
    """Augmented blocks of ``expm_integral`` for n = 1: [[a h, h], [0, 0]],
    with the rate a in (-8, 8) and the step h in (1e-5, 8), both log-spread."""
    for _ in range(count):
        h = 10.0 ** rng.uniform(-5.0, np.log10(8.0))
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, np.log10(8.0))
        yield np.array([[a * h, h], [0.0, 0.0]])


def test_step_blocks_bit_equal_to_scipy():
    # the port's bits hold every pinned n = 1 digest; blocks that scipy
    # takes at order 13 go to _expm_pade13 and are gated against mpmath
    rng = np.random.default_rng(2024)
    seen = set()
    pivoted = 0
    for M in _blocks(rng, 6000):
        branch = _branch(M[0, 0], M[0, 1])
        if branch is None:
            continue
        assert _matfun.expm(M).tobytes() == scipy.linalg.expm(M).tobytes(), M
        seen.add(branch)
        pivoted += M[0, 1] > 2.0  # the solve's LU swaps rows
    assert seen == PORT_ORDERS
    assert pivoted > 100


@pytest.mark.parametrize("c, h", [
    (0.0, 0.0), (-2.0, 0.0), (0.0, 0.02), (0.0, 3.0), (1e-300, 1e-300), (-0.04, 0.02),
])
def test_edge_blocks_bit_equal_to_scipy(c, h, monkeypatch):
    def refuse(A):
        raise AssertionError("the Pade-13 route ran")

    monkeypatch.setattr(_matfun, "_expm_pade13", refuse)
    M = np.array([[c, h], [0.0, 0.0]])
    assert _matfun.expm(M).tobytes() == scipy.linalg.expm(M).tobytes()


def test_one_by_one_is_np_exp():
    for x in np.random.default_rng(7).normal(scale=4.0, size=200):
        M = np.array([[x]])
        assert _matfun.expm(M).tobytes() == scipy.linalg.expm(M).tobytes()


def test_fused_multiply_add_rounds_once():
    # 1 + 2^-52 times 1 - 2^-52 is 1 - 2^-104: rounded alone it is 1.0
    a, b = 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52
    assert a * b - 1.0 == 0.0
    assert _matfun._fma(a, b, -1.0) == -(2.0 ** -104)


def _mp(f, A):
    """f of the float matrix A in 50-digit mpmath, rounded to floats."""
    with mpmath.workdps(50):
        F = f(mpmath.matrix(A.tolist()))
        return np.array([[float(mpmath.re(F[i, j])) for j in range(F.cols)]
                         for i in range(F.rows)])


def _rel(got, want):
    """Largest entry error relative to the largest entry of ``want``."""
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


#: non-symmetric thetas with eigenvalues of both signs, and a shift b, per n
_THETAS = {n: [(np.random.default_rng(40 + n + 10 * k).normal(size=(n, n)) + 0.8 * np.eye(n),
                b) for k, b in enumerate((0.0, 1.3, -0.4))] for n in (1, 2, 3)}

#: step blocks [[c, h], [0, 0]] that scipy takes at order 13, with
#: squarings at (7.5, 0.5) and (-30, 4)
ORDER_13 = [(7.5, 0.5), (-30.0, 4.0), (3.0, 0.5), (-3.9, 0.6)]


@pytest.mark.parametrize("h", [0.002, 0.02, 1.0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_augmented_blocks_match_mpmath(n, h):
    # the blocks [[(theta - b I) h, I h], [0, 0]] and their e^{-theta h}
    # corners, of expm_integral and step_integrals
    for theta, b in _THETAS[n]:
        for A in (theta - b * np.eye(n), theta, -theta):
            M = np.zeros((2 * n, 2 * n))
            M[:n, :n], M[:n, n:] = A * h, np.eye(n) * h
            for X in (M, -theta * h):
                assert _rel(_matfun.expm(X), _mp(mpmath.expm, X)) <= 1e-14, (theta, b)


@pytest.mark.parametrize("c, h", ORDER_13)
def test_order_13_step_blocks_match_mpmath(c, h):
    M = np.array([[c, h], [0.0, 0.0]])
    assert _branch(c, h) is None
    assert _rel(_matfun.expm(M), _mp(mpmath.expm, M)) <= 1e-14


def test_generator_system_matches_mpmath(subcritical_params_n2):
    # the 35 x 35 system of a transient moment of order 4 at n = 2
    A = generator(subcritical_params_n2, 4).T * 2.0
    assert A.shape == (35, 35)
    assert _rel(_matfun.expm(A), _mp(mpmath.expm, A)) <= 1e-14


#: blocks the port refuses: nan in gives nan out, e^(2e30) overflows to
#: inf without a nan beside it, and e^(-2e30) underflows to 0
REFUSED = {
    "nan": [[np.nan, 0.1], [0.0, 0.0]],
    "2e30": [[2e30, 1.0], [0.0, 0.0]],
    "-2e30": [[-2e30, 1.0], [0.0, 0.0]],
}


@pytest.mark.parametrize("name", REFUSED)
def test_refused_blocks_give_what_scipy_gives(name):
    M = np.array(REFUSED[name])
    with np.errstate(all="ignore"):
        got, want = _matfun.expm(M), scipy.linalg.expm(M)
    if name == "nan":
        assert np.isnan(got[0]).all() and np.isnan(want[0]).all()
    elif name == "2e30":
        assert np.array_equal(got, want)
    else:
        assert np.allclose(got, [[0.0, 5e-31], [0.0, 1.0]], rtol=1e-14, atol=0.0)


def test_logm_matches_mpmath_no_worse_than_scipy():
    # e^{-theta h} over the thetas of the expm gates: up to h = 0.02 no
    # square root is taken and the Gauss-Legendre rule alone is within
    # 2e-16 (scipy: up to 3.2e-13); at h = 1 two or three square roots leave
    # up to 3.9e-15 (scipy: 9.3e-16)
    ours, theirs = [], []
    for n in (2, 3):
        for h in (0.002, 0.02, 1.0):
            for theta, _ in _THETAS[n]:
                A = _mp(mpmath.expm, -theta * h)
                want = _mp(mpmath.logm, A)
                ours.append(_rel(_matfun.logm(A), want))
                theirs.append(_rel(np.real(scipy.linalg.logm(A)), want))
    assert max(ours) <= min(max(theirs), 1e-14), (ours, theirs)


def test_logm_of_one_by_one_is_np_log():
    for v in np.exp(np.random.default_rng(9).uniform(-12.0, 12.0, size=200)):
        A = np.array([[v]])
        assert _matfun.logm(A).tobytes() == np.log(A).tobytes()


def test_logm_refuses_an_eigenvalue_on_the_closed_negative_axis():
    for A in ([[-2.0, 0.0], [0.0, 3.0]], [[0.0, 1.0], [0.0, 1.0]], [[-0.5]]):
        with pytest.raises(LogDomainError, match="eigenvalue lies on"):
            _matfun.logm(np.array(A))


def test_logm_without_converging_square_roots_is_a_log_domain_error(monkeypatch):
    # e^{-theta} needs square roots, and one Denman-Beavers step settles none
    monkeypatch.setattr(_matfun, "_SQRT_STEPS", 1)
    with pytest.raises(LogDomainError, match="did not converge"):
        _matfun.logm(_matfun.expm(-np.array([[2.0, 0.3], [0.1, 1.2]])))


#: b values on both sides of the bound |b| h = SMALL_BH at h = 0.02
SMALL_B = [s * b for b in (1e-12, 1e-10, 1e-8, 1e-6, 1e-4) for s in (1.0, -1.0)]


@pytest.mark.parametrize("theta", [[[2.0]], [[2.0, 0.3], [0.1, 1.2]]], ids=["n1", "n2"])
@pytest.mark.parametrize("b", SMALL_B)
def test_one_step_coefficients_are_continuous_at_b_zero(b, theta):
    # a~(b) / a~(0) = 1 - b h / 2 + ... and EW(b) / EW(0) = 1 - 6.69e-3 b +
    # ... here; the difference forms were off by 2.2e-5 (a~) and 1.1e-4
    # (EW) at b = 1e-10, where 1 - e^{-bh} cancels
    h, bound = 0.02, 0.02 * abs(b) + 1e-12
    a_t, a_t0 = cir_mean_coeffs(2.0, b, h)[1], cir_mean_coeffs(2.0, 0.0, h)[1]
    EW, EW0 = step_integrals(b, np.array(theta), h)[3], step_integrals(0.0, np.array(theta), h)[3]
    assert abs(a_t / a_t0 - 1.0) <= bound
    assert np.max(np.abs(EW / EW0 - 1.0)) <= bound


@pytest.mark.parametrize("b", [1e-17, -1e-17])
def test_y_path_at_b_below_rounding_is_the_b_zero_path(b, subcritical_params):
    # 1 - e^{-bh} is 0 here: the CIR scale c was 0 and the step divided by it
    def Y(b):
        return simulate_path(dataclasses.replace(subcritical_params, b=b), 2.0, 0.02, 5).Y

    assert Y(b).tobytes() == Y(0.0).tobytes()


#: a zero and a non-symmetric nonzero theta for n = 1, 2 and 3
THETAS = {
    "n1_zero": [[0.0]], "n1": [[1.5]],
    "n2_zero": [[0.0, 0.0], [0.0, 0.0]], "n2": [[2.0, 0.3], [-0.1, 1.2]],
    "n3_zero": [[0.0] * 3] * 3, "n3": [[1.0, 0.2, 0.0], [-0.1, 0.8, 0.3], [0.05, 0.0, 0.6]],
}


@pytest.mark.parametrize("theta", THETAS.values(), ids=THETAS.keys())
@pytest.mark.parametrize("b", [0.0, 1e-8, -1e-8, 1.0])
def test_zero_kappa_coefficients_are_those_of_the_full_w(b, theta):
    # kappa = 0 skips W, which reaches m~ only as EW @ kappa; at n = 1 EW > 0
    # keeps every bit, at n >= 2 only the sign of a zero entry may differ
    a, h, theta = 2.0, 0.02, np.array(theta)
    n = theta.shape[0]
    m, kappa = np.linspace(1.0, -0.5, n), np.zeros(n)
    emth, K, M, EW = step_integrals(b, theta, h)
    want = (emth, M @ m - a * (EW @ kappa), K @ kappa)
    got = _matfun.one_step_conditional_mean_coeffs(a, b, m, kappa, theta, h)
    for g, w in zip(got, want):
        if n == 1:
            assert g.tobytes() == w.tobytes()
        else:
            assert np.array_equal(g, w)
