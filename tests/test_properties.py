"""Property tests of the normal-equation block layout, the tau stacking, the
one-step map, the regime classification and the experiment CSV.

The Gram blocks and the quadratic-variation matrix are checked against
their definitions, sums over rows of the design matrix Lambda(z) from
``drift_design_row``, on random points (Y >= 0, X of either sign) and a
random lower-triangular rho with positive diagonal.  The tolerance is
relative to the largest entry, since a single entry may cancel to ~0.

Drift points take theta = S diag(lam) S^-1 with distinct real eigenvalues
lam and a well-conditioned S = I + E, ||E||_2 <= 3/4; b and lam lie on a
grid of step 1/20, so that b = 0 and zero eigenvalues are hit exactly.
The experiment CSV writes 17 significant digits, so its floats read back
bit for bit.
"""

import csv
import io

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ad1n import (
    ExperimentReport,
    ModelParams,
    classify,
    drift_design_row,
    g_inverse,
    g_map,
    stack_drift_fields,
    unstack_tau,
)
from ad1n.harness import Row
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
    # the floor keeps atol above 0 when every entry is subnormal
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=max(1e-12 * np.abs(want).max(), 1e-300))


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
@example((1, np.array([5e-324, 5e-324]), np.zeros((2, 1)),  # subnormal Y
          np.array([[1.0, 0.0], [0.5, 1.0]])))
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
    # any tau, admissible or not: the layout is not a model
    assert np.array_equal(stack_drift_fields(*unstack_tau(tau, n)), tau)


GRID = st.integers(-40, 60).map(lambda k: k / 20.0)


@st.composite
def similarities(draw, n):
    """A well-conditioned S = I + E with ||E||_2 <= n * max|E_ij| <= 3/4.

    The entries of E lie on a grid: LAPACK's balancing can return a wrong
    eigenvector when entries of ~1e-120 sit beside entries of ~0.1, which
    ``tests/test_model.py`` checks on its own."""
    E = draw(arrays(float, (n, n), elements=st.integers(-15, 15).map(lambda k: k / 60.0)))
    return np.eye(n) + E / n


@st.composite
def drift_points(draw):
    """n, drift fields (a, b, m, kappa, theta) and a step h."""
    n = draw(st.integers(1, 3))
    lam = np.array(draw(st.lists(st.integers(-40, 60), min_size=n, max_size=n,
                                 unique=True))) / 20.0
    S = draw(similarities(n))
    theta = S @ np.diag(lam) @ np.linalg.inv(S)
    a = draw(st.floats(0.1, 3.0))
    m = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    kappa = draw(arrays(float, n, elements=st.floats(-2.0, 2.0)))
    return n, (a, draw(GRID), m, kappa, theta), draw(st.floats(0.01, 0.2))


@SETTINGS
@given(drift_points())
def test_g_inverse_undoes_g_map(point):
    _, fields, h = point
    want = stack_drift_fields(*fields)
    got = stack_drift_fields(*g_inverse(g_map(*fields, h), h))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-40, 60), min_size=n, max_size=n, unique=True)
    | st.just([0] * n),
    similarities(n), GRID)))
def test_regime_is_invariant_under_similarity_of_theta(case):
    lam, S, b = case
    n = len(lam)

    def regime(theta):
        return classify(ModelParams(n=n, a=1.0, b=b, m=np.zeros(n), kappa=np.zeros(n),
                                    theta=theta, rho=np.eye(n + 1))).regime

    D = np.diag(np.array(lam) / 20.0)
    assert regime(S @ D @ np.linalg.inv(S)) == regime(D)


FINITE = st.floats(allow_nan=False)


@st.composite
def reports(draw):
    """An experiment report of random rows; an aborted row has no tau or err."""
    L = (draw(st.integers(1, 2)) + 1) ** 2 + 1
    rows = []
    for rep in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["estimate", "limit_draw"]))
        horizon = draw(FINITE) if kind == "estimate" else None
        aborted = draw(st.booleans())
        tau, err = (None, None) if aborted else draw(
            st.tuples(arrays(float, L, elements=FINITE), arrays(float, L, elements=FINITE)))
        rows.append(Row(kind, horizon, rep, aborted, draw(st.booleans()), tau, err))
    return ExperimentReport("digest", "critical", "discrete", 1, len(rows), [], [],
                            np.zeros(L), rows, [], {})


def _parsed_rows(text: str):
    """The rows of an experiment CSV back as Row objects; NaN tau and err
    rows become None."""
    lines = list(csv.reader(io.StringIO(text)))
    L = (len(lines[0]) - 5) // 2
    out = []
    for kind, horizon, rep, aborted, stab, *vals in lines[1:]:
        tau, err = np.array(vals[:L], dtype=float), np.array(vals[L:], dtype=float)
        out.append(Row(kind, float(horizon) if horizon else None, int(rep), aborted == "1",
                       stab == "1", None if np.all(np.isnan(tau)) else tau,
                       None if np.all(np.isnan(err)) else err))
    return out


@SETTINGS
@given(reports())
def test_csv_text_round_trips_to_the_same_rows(report):
    back = _parsed_rows(report.csv_text())
    assert len(back) == len(report.rows)
    for got, want in zip(back, report.rows):
        assert (got.kind, got.horizon, got.rep, got.aborted, got.stabilized) == (
            want.kind, want.horizon, want.rep, want.aborted, want.stabilized)
        for g, w in ((got.tau, want.tau), (got.err, want.err)):
            assert (g is None) == (w is None)
            assert g is None or g.tobytes() == w.tobytes()
