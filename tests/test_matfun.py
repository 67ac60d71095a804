"""``_matfun.expm`` against ``scipy.linalg.expm``: bit for bit on the
matrices it computes itself (1 x 1 and the one-step blocks [[c, h], [0, 0]]
that ``expm_integral`` builds for n = 1, up to Pade order 9), and scipy's
own result, through ``_matfun.scipy_call``, on every other matrix.  The
one-step coefficients a~ and EW are continuous as b -> 0, and those of a
zero kappa, built without W, are the ones the full W gives."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from ad1n import _matfun
from ad1n._matfun import cir_mean_coeffs, scipy_call, step_integrals
from ad1n.simulate import simulate_path

#: every Pade order of the port, and the blocks it hands to scipy
BRANCHES = {3, 5, 7, 9, "scipy"}


def _branch(c, h):
    A = (c, h, 0.0)
    A2 = _matfun._mul(A, A)
    A4 = _matfun._mul(A2, A2)
    m = _matfun._pade_order(c, h, A4, _matfun._mul(A2, A4), _matfun._mul(A4, A4))
    return "scipy" if m is None else m


def _blocks(rng, count):
    """Augmented blocks of ``expm_integral`` for n = 1: [[a h, h], [0, 0]],
    with the rate a in (-8, 8) and the step h in (1e-5, 8), both log-spread."""
    for _ in range(count):
        h = 10.0 ** rng.uniform(-5.0, np.log10(8.0))
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, np.log10(8.0))
        yield np.array([[a * h, h], [0.0, 0.0]])


def test_step_blocks_bit_equal_to_scipy():
    rng = np.random.default_rng(2024)
    seen = set()
    pivoted = 0
    for M in _blocks(rng, 6000):
        got, want = _matfun.expm(M), scipy.linalg.expm(M)
        assert got.tobytes() == want.tobytes(), M
        branch = _branch(M[0, 0], M[0, 1])
        seen.add(branch)
        pivoted += M[0, 1] > 2.0 and branch != "scipy"  # the solve's LU swaps rows
    assert seen == BRANCHES
    assert pivoted > 100


#: edge blocks that scipy takes at order 13, with squarings at (7.5, 0.5)
#: and (-30, 4); the port hands them to scipy_call
ORDER_13 = [(7.5, 0.5), (-30.0, 4.0), (3.0, 0.5), (-3.9, 0.6)]


@pytest.mark.parametrize("c, h", [
    (0.0, 0.0), (-2.0, 0.0), (0.0, 0.02), (0.0, 3.0), (1e-300, 1e-300), (-0.04, 0.02),
    *ORDER_13,
])
def test_edge_blocks_bit_equal_to_scipy(c, h, monkeypatch):
    calls = []

    def spy(name, A):
        calls.append(name)
        return scipy_call(name, A)

    monkeypatch.setattr(_matfun, "scipy_call", spy)
    M = np.array([[c, h], [0.0, 0.0]])
    assert _matfun.expm(M).tobytes() == scipy.linalg.expm(M).tobytes()
    assert calls == (["expm"] if (c, h) in ORDER_13 else [])


def test_one_by_one_is_np_exp():
    for x in np.random.default_rng(7).normal(scale=4.0, size=200):
        M = np.array([[x]])
        assert _matfun.expm(M).tobytes() == scipy.linalg.expm(M).tobytes()


@pytest.mark.parametrize("M", [
    [[0.3, 0.1], [0.2, -0.4]],                      # full 2 x 2
    [[0.3, 0.1], [0.0, -0.4]],                      # upper triangular, not a block
    [[np.nan, 0.1], [0.0, 0.0]],                    # a block the port refuses
    [[2e30, 1.0], [0.0, 0.0]],
    np.diag([0.1, -0.2, 0.3]) + np.triu(np.full((3, 3), 0.05), 1),
])
def test_other_matrices_go_to_scipy(M, monkeypatch):
    M = np.asarray(M, dtype=float)

    def refuse(*args):
        raise AssertionError("the port ran")

    monkeypatch.setattr(_matfun, "_expm_step_block", refuse)
    with np.errstate(all="ignore"):
        got, want = _matfun.expm(M), scipy.linalg.expm(M)
    assert np.array_equal(got, want, equal_nan=True)


def test_fused_multiply_add_rounds_once():
    # 1 + 2^-52 times 1 - 2^-52 is 1 - 2^-104: rounded alone it is 1.0
    a, b = 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -52
    assert a * b - 1.0 == 0.0
    assert _matfun._fma(a, b, -1.0) == -(2.0 ** -104)


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
