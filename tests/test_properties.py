"""Property tests of the normal-equation block layout and the tau stacking.

The Gram blocks and the quadratic-variation matrix are checked against
their definitions, sums over rows of the design matrix Lambda(z) from
``drift_design_row``, on random points (Y >= 0, X of either sign) and a
random lower-triangular rho with positive diagonal.  The tolerance is
relative to the largest entry, since a single entry may cancel to ~0.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ad1n import ModelParams, drift_design_row, stack_tau, unstack_tau
from ad1n.model import gram_blocks, qv_matrix
from ad1n.simulate import left_point_sums

SETTINGS = settings(max_examples=25, deadline=None, database=None)
VALUE = st.floats(-5.0, 5.0, allow_nan=False)
POSITIVE = st.floats(0.1, 3.0)


@st.composite
def points(draw):
    """n, a path of states (Y >= 0, X) and a valid lower-triangular rho."""
    n = draw(st.integers(1, 3))
    k = draw(st.integers(2, 12))
    Y = draw(arrays(float, k, elements=st.floats(0.0, 5.0)))
    X = draw(arrays(float, (k, n), elements=VALUE))
    rho = np.tril(draw(arrays(float, (n + 1, n + 1), elements=VALUE)))
    np.fill_diagonal(rho, draw(arrays(float, n + 1, elements=POSITIVE)))
    return n, Y, X, rho


def _assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@SETTINGS
@given(points())
def test_gram_blocks_are_sums_of_design_rows(point):
    n, Y, X, _ = point
    K = np.array([drift_design_row(y, x)[1, 2:n + 4] for y, x in zip(Y[:-1], X[:-1])])
    G1, G2 = gram_blocks(*left_point_sums(Y, X)[:6])
    _assert_close(G2, K.T @ K)
    _assert_close(G1, K[:, :2].T @ K[:, :2])


@SETTINGS
@given(points())
def test_qv_matrix_is_the_weighted_sum_of_design_quadratic_forms(point):
    n, Y, X, rho = point
    params = ModelParams(n=n, a=1.0, b=1.0, m=np.zeros(n), kappa=np.zeros(n),
                         theta=np.eye(n), rho=rho)
    RR = rho @ rho.T
    want = sum(y * drift_design_row(y, x).T @ RR @ drift_design_row(y, x)
               for y, x in zip(Y, X))
    B1, B3 = gram_blocks(np.sum(Y), np.sum(Y**2), np.sum(Y**3), Y @ X, (Y * Y) @ X,
                         (X.T * Y) @ X)
    _assert_close(qv_matrix(params, B1, B3), want)


@SETTINGS
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.just(n), arrays(float, (n + 1) ** 2 + 1, elements=VALUE))))
def test_stack_unstack_round_trip(case):
    n, tau = case
    a, b, m, kappa, theta = unstack_tau(tau, n)
    params = ModelParams(n=n, a=a, b=b, m=m, kappa=kappa, theta=theta, rho=np.eye(n + 1))
    assert np.array_equal(stack_tau(params), tau)
