import math
import time

import numpy as np
import pytest
import scipy.integrate

from ad1n import (
    ModelParams,
    asymptotic_covariance,
    point_initial_moments,
    riccati_cf,
    riccati_cf_batch,
    simulate_path,
    stationary_moment,
    stationary_moment_table,
    substream,
    transient_moment,
)
from ad1n.errors import (
    DimensionMismatchError,
    InvalidGridError,
    MissingInitialMomentError,
    NotSubcriticalError,
    OrderTooHighError,
    SingularEGError,
)
from ad1n import moments
from ad1n.model import COND_LIMIT
from conftest import random_subcritical


def _unit(n, i):
    return tuple(int(q == i) for q in range(n))


def _pair(n, i, j):
    return tuple(int(q == i) + int(q == j) for q in range(n))


def remark_chain(params):
    """Independent hand coding of the worked stationary-moment chain.

    Returns the X-coordinate moments keyed like the table.  Written directly
    from the special-case formulas in theta's own eigenframe Xt = P X
    (P theta P^-1 = diag(lam)), not through the generator, and mapped back
    to X through P^-1.
    """
    lam, V = np.linalg.eig(params.theta)  # theta V = V diag(lam), P = V^-1
    lam, V = lam.real, V.real
    P = np.linalg.inv(V)
    a, b, s1 = float(params.a), float(params.b), params.sigma1
    mt, kt = P @ params.m, P @ params.kappa
    rc = P @ params.rho_tilde
    rr = rc @ rc.T
    n = params.n
    out = {}
    ey = a / b
    ey2 = a * (2 * a + s1**2) / (2 * b**2)
    ey3 = a * (a + s1**2) * (2 * a + s1**2) / (2 * b**3)
    out[(1, (0,) * n)] = ey
    out[(2, (0,) * n)] = ey2
    out[(3, (0,) * n)] = ey3
    ex = np.array([(b * mt[i] - a * kt[i]) / (b * lam[i]) for i in range(n)])
    eyx = np.array([
        (a * ex[i] + (mt[i] + s1 * rc[i, 0]) * ey - kt[i] * ey2) / (b + lam[i])
        for i in range(n)
    ])
    ey2x = np.array([
        ((2 * a + s1**2) * eyx[i] + (mt[i] + 2 * s1 * rc[i, 0]) * ey2 - kt[i] * ey3)
        / (2 * b + lam[i])
        for i in range(n)
    ])
    for k, first in enumerate((ex, eyx, ey2x)):
        for i, v in enumerate(V @ first):
            out[(k, _unit(n, i))] = v
    exx = np.empty((n, n))
    eyxx = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            exx[i, j] = (
                mt[i] * ex[j] + mt[j] * ex[i]
                - kt[i] * eyx[j] - kt[j] * eyx[i]
                + rr[i, j] * ey
            ) / (lam[i] + lam[j])
            eyxx[i, j] = (
                a * exx[i, j]
                + (mt[i] + s1 * rc[i, 0]) * eyx[j]
                + (mt[j] + s1 * rc[j, 0]) * eyx[i]
                - kt[i] * ey2x[j] - kt[j] * ey2x[i]
                + rr[i, j] * ey2
            ) / (b + lam[i] + lam[j])
    for k, second in enumerate((exx, eyxx)):
        second = V @ second @ V.T
        for i in range(n):
            for j in range(i, n):
                out[(k, _pair(n, i, j))] = second[i, j]
    return out


def assert_eight_moments_match(params, table):
    """``stationary_x_moments`` within 1e-13 of each moment's largest entry
    in ``table``, which is keyed like the moment table."""
    n = params.n
    want = (table[(1, (0,) * n)], table[(2, (0,) * n)], table[(3, (0,) * n)],
            *(np.array([table[(k, _unit(n, i))] for i in range(n)]) for k in (0, 1, 2)),
            *(np.array([[table[(k, _pair(n, i, j))] for j in range(n)] for i in range(n)])
              for k in (0, 1)))
    for got, w in zip(moments.stationary_x_moments(params), want, strict=True):
        assert np.max(np.abs(got - w)) <= 1e-13 * np.max(np.abs(w))


class TestStationaryMoments:
    def test_special_values_reference_point(self, subcritical_params):
        p = subcritical_params
        s1 = p.sigma1
        assert stationary_moment(p, 1, [0]) == pytest.approx(p.a / p.b, rel=1e-14)
        assert stationary_moment(p, 2, [0]) == pytest.approx(
            p.a * (2 * p.a + s1**2) / (2 * p.b**2), rel=1e-14
        )
        assert stationary_moment(p, 0, [0]) == 1.0

    def test_zero_numerator_gives_zero_mean(self):
        p = ModelParams(n=1, a=2.0, b=1.0, m=[0.0], kappa=[0.0], theta=[[2.0]],
                        rho=[[1.0, 0.0], [0.2, 0.9]])
        assert stationary_moment(p, 0, [1]) == 0.0

    def test_closed_form_chain_at_random_points(self):
        rng = np.random.default_rng(123)
        for trial in range(5):
            n = 1 if trial < 3 else 2
            params = random_subcritical(rng, n)
            table = stationary_moment_table(params, max_order=3)
            for key, want in remark_chain(params).items():
                got = table[key]
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12), key

    def test_not_subcritical_raises(self, critical_params):
        with pytest.raises(NotSubcriticalError):
            stationary_moment(critical_params, 1, [0])

    def test_order_guard(self, subcritical_params):
        with pytest.raises(OrderTooHighError):
            stationary_moment(subcritical_params, 5, [0])

    def test_batch_length_mismatch(self, subcritical_params):
        # the empty batch raised a bare ValueError from np.column_stack
        for lams, mus in [([0.1, 0.2], [[0.0]]), ([], [])]:
            with pytest.raises(DimensionMismatchError):
                riccati_cf_batch(subcritical_params, lams, mus)

    def test_index_of_the_wrong_length_is_a_dimension_error(self, subcritical_params):
        # l = [0, 0] on an n = 1 model returned 0.0
        with pytest.raises(DimensionMismatchError):
            stationary_moment(subcritical_params, 1, [0, 0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_x_moments_match_the_tilde_route(self, n):
        # the order-3 table in X coordinates against the order-3 chain in
        # theta's eigenframe, expanded through its inverse eigenvector matrix
        rng = np.random.default_rng(30 + n)
        for _ in range(10):
            p = random_subcritical(rng, n)
            assert_eight_moments_match(p, remark_chain(p))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_order_4_table_matches_a_50_digit_solve(self, n):
        # the degree-by-degree float solve against one 50-digit solve of the
        # same G^T mu = 0, E[1] = 1 (0.007 / 0.06 / 0.5 s per model at n = 1 /
        # 2 / 3), and E[Y^4] against the CIR chain
        # E[Y^k] = (a + (k - 1) sigma1^2 / 2) E[Y^(k-1)] / b
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(40 + n)
        for _ in range({1: 5, 2: 5, 3: 2}[n]):
            p = random_subcritical(rng, n)
            table = stationary_moment_table(p, 4)
            keys = list(table)
            assert keys == moments._index_set(n, 4)
            A = mpmath.matrix(moments.generator(p, 4).T.tolist())  # exact copies
            e0 = [1] + [0] * (len(keys) - 1)
            for j, v in enumerate(e0):  # row 0 of G^T is 0; it becomes E[1] = 1
                A[0, j] = v
            with mpmath.workdps(50):
                exact = mpmath.lu_solve(A, mpmath.matrix(e0))
            got = np.array(list(table.values()))
            assert np.max(np.abs(got - np.array(exact.tolist(), dtype=float).ravel())) <= (
                1e-14 * np.max(np.abs(got)))
            ey4 = math.prod(p.a + j * p.sigma1**2 / 2 for j in range(4)) / p.b**4
            assert table[(4, (0,) * n)] == pytest.approx(ey4, rel=1e-14)

    def test_ergodic_average_oracle_n2(self, subcritical_params_n2):
        # E X^1_inf against a long-run time average
        p = subcritical_params_n2
        want = stationary_moment(p, 0, [1, 0])
        path = simulate_path(p, 3000.0, 0.01, seed=substream(2024, 0))
        avg = float(np.mean(path.X[:, 0]))
        assert abs(avg - want) <= 0.03 * abs(want)

    @pytest.mark.parametrize("k, l", [(-1, [0]), (0, [-1]), (2, [-1])])
    def test_negative_index_is_zero(self, subcritical_params, k, l):
        # transient_moment raised a bare KeyError here
        init = point_initial_moments(subcritical_params, 1.3, [0.4], 3)
        assert stationary_moment(subcritical_params, k, l) == 0.0
        assert transient_moment(subcritical_params, init, k, l, 1.0) == 0.0

    def test_moment_matrix_psd(self, subcritical_params_n2):
        from ad1n.moments import stationary_x_moments

        ey, ey2, _, ex, eyx, _, exx, _ = stationary_x_moments(subcritical_params_n2)
        n = subcritical_params_n2.n
        M = np.zeros((n + 2, n + 2))
        M[0, 0] = 1.0
        M[0, 1] = M[1, 0] = ey
        M[1, 1] = ey2
        M[0, 2:] = ex
        M[2:, 0] = ex
        M[1, 2:] = eyx
        M[2:, 1] = eyx
        M[2:, 2:] = exx
        assert np.linalg.eigvalsh(M).min() > -1e-10


class TestGenerator:
    def test_degree_one_columns_are_the_drift(self, subcritical_params_n2):
        # L Y = a - b Y and L X_p = m_p - kappa_p Y - sum_q theta_pq X_q
        p = subcritical_params_n2
        keys = moments._index_set(2, 1)
        G = moments.generator(p, 1)
        assert keys == [(0, (0, 0)), (1, (0, 0)), (0, (1, 0)), (0, (0, 1))]
        np.testing.assert_array_equal(G[:, 0], 0.0)
        np.testing.assert_array_equal(G[:, 1], [p.a, -p.b, 0.0, 0.0])
        for i in range(2):
            np.testing.assert_array_equal(G[:, 2 + i], [p.m[i], -p.kappa[i], *-p.theta[i]])


class TestTransientMoments:
    def test_first_moments_solve_their_linear_ode(self, subcritical_params_n2):
        # z = (1, E Y_t, E X_t) solves z' = A z with the drift's coefficients
        import scipy.linalg

        p = subcritical_params_n2
        A = np.zeros((4, 4))
        A[1, :2] = p.a, -p.b
        A[2:, 0], A[2:, 1], A[2:, 2:] = p.m, -p.kappa, -p.theta
        x0 = np.array([0.4, -1.1])
        init = point_initial_moments(p, 1.3, x0, 1)
        for t in (0.2, 1.5):
            want = scipy.linalg.expm(A * t) @ np.array([1.0, 1.3, *x0])
            got = [transient_moment(p, init, 1, [0, 0], t),
                   transient_moment(p, init, 0, [1, 0], t),
                   transient_moment(p, init, 0, [0, 1], t)]
            np.testing.assert_allclose(got, want[1:], rtol=1e-13)

    def test_t_zero_returns_initial(self, subcritical_params):
        init = point_initial_moments(subcritical_params, 1.3, [0.4], 3)
        got = transient_moment(subcritical_params, init, 2, [1], 0.0)
        assert got == pytest.approx(init[(2, (1,))], abs=1e-14)

    def test_ey_closed_form(self, subcritical_params):
        p = subcritical_params
        init = point_initial_moments(p, 1.0, [0.0], 1)
        for t in (0.3, 1.7, 4.0):
            want = math.exp(-p.b * t) + p.a * (1 - math.exp(-p.b * t)) / p.b
            assert transient_moment(p, init, 1, [0], t) == pytest.approx(want, rel=1e-12)

    def test_remark_integral_forms_by_quadrature(self, subcritical_params):
        # E Y_t^2 = e^{-2bt} E Y_0^2 + (2a + s1^2) int e^{-2b(t-u)} E Y_u du
        p = subcritical_params
        a, b, s1 = p.a, p.b, p.sigma1
        y0 = 1.4
        init = point_initial_moments(p, y0, [0.0], 2)
        t = 0.9

        def ey(u):
            return math.exp(-b * u) * y0 + a * (1 - math.exp(-b * u)) / b

        integral, _ = scipy.integrate.quad(
            lambda u: math.exp(-2 * b * (t - u)) * ey(u), 0, t
        )
        want = math.exp(-2 * b * t) * y0**2 + (2 * a + s1**2) * integral
        assert transient_moment(p, init, 2, [0], t) == pytest.approx(want, rel=1e-10)

    def test_converges_to_stationary(self, subcritical_params):
        p = subcritical_params
        init = point_initial_moments(p, 1.0, [0.0], 2)
        lam_min = min(p.b, float(np.linalg.eigvals(p.theta).real.min()))
        t = 40.0 / lam_min
        for key in [(1, (0,)), (2, (0,)), (0, (1,)), (1, (1,))]:
            stat = stationary_moment(p, key[0], list(key[1]))
            tran = transient_moment(p, init, key[0], list(key[1]), t)
            assert abs(tran - stat) < 1e-8

    def test_exponential_decay_to_stationary(self, subcritical_params):
        p = subcritical_params
        init = point_initial_moments(p, 3.0, [1.0], 2)
        stat = stationary_moment(p, 1, [0])
        ts = np.array([1.0, 2.0, 4.0, 6.0, 8.0])
        gaps = np.array([
            abs(transient_moment(p, init, 1, [0], t) - stat) for t in ts
        ])
        slope = np.polyfit(ts, np.log(gaps), 1)[0]
        assert slope < 0

    @pytest.mark.parametrize("x0", [[0.0, 1.0], []])
    def test_x0_of_the_wrong_length_is_a_dimension_error(self, subcritical_params, x0):
        # a bare numpy ValueError from the matmul with P
        with pytest.raises(DimensionMismatchError):
            point_initial_moments(subcritical_params, 1.0, x0, 2)

    def test_missing_initial_entry(self, subcritical_params):
        init = point_initial_moments(subcritical_params, 1.0, [0.0], 1)
        with pytest.raises(MissingInitialMomentError):
            transient_moment(subcritical_params, init, 2, [0], 1.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_time_not_finite_and_nonnegative_is_a_grid_error(self, subcritical_params, t):
        # t = -1 integrated backwards; nan and inf returned nan with a warning
        init = point_initial_moments(subcritical_params, 1.0, [0.0], 1)
        with pytest.raises(InvalidGridError):
            transient_moment(subcritical_params, init, 1, [0], t)


class TestAsymptoticCovariance:
    def test_g1_determinant_is_variance(self, subcritical_params):
        rep = asymptotic_covariance(subcritical_params)
        ey = stationary_moment(subcritical_params, 1, [0])
        ey2 = stationary_moment(subcritical_params, 2, [0])
        det = np.linalg.det(rep.EG[:2, :2])
        assert det == pytest.approx(ey2 - ey**2, rel=1e-12)
        assert det > 0

    def test_sandwich_symmetric(self, subcritical_params_n2):
        rep = asymptotic_covariance(subcritical_params_n2)
        assert np.max(np.abs(rep.sandwich - rep.sandwich.T)) < 1e-12
        assert np.linalg.eigvalsh(rep.sandwich).min() > 0
        assert np.linalg.eigvalsh(rep.EH).min() > -1e-10

    def test_not_subcritical(self, supercritical_params):
        with pytest.raises(NotSubcriticalError):
            asymptotic_covariance(supercritical_params)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sandwich_matches_scipy_cholesky_solves(self, n):
        # EG is G1 and I (x) G2 placed in a zero array and solved with
        # numpy's LU; scipy's block_diag and Cholesky solves agree to 1e-13
        # of the largest entry (entries near zero differ relatively more)
        import scipy.linalg

        from test_golden import LAYOUT_MODELS

        rep = asymptotic_covariance(LAYOUT_MODELS[n][0])
        G2 = rep.EG[2:n + 4, 2:n + 4]
        assert np.array_equal(rep.EG, scipy.linalg.block_diag(rep.EG[:2, :2],
                                                              np.kron(np.eye(n), G2)))
        cho = scipy.linalg.cho_factor(rep.EG)
        want = scipy.linalg.cho_solve(cho, scipy.linalg.cho_solve(cho, rep.EH).T).T
        want = 0.5 * (want + want.T)
        assert np.max(np.abs(rep.sandwich - want)) <= 1e-13 * np.max(np.abs(want))

    def test_cond_agrees_with_svd(self, subcritical_params_n2):
        rep = asymptotic_covariance(subcritical_params_n2)
        assert rep.cond_EG == pytest.approx(np.linalg.cond(rep.EG), rel=1e-5)

    def test_raises_only_above_the_limit(self, monkeypatch, subcritical_params):
        # E[Y] = E[X] = 0 and E[Y^2] = E[X^2] = 1 leave EG = [[I, 0], [0, G2]]
        # with G2 = [[1, 0, 0], [0, 1, r], [0, r, 1]], cond (1 + r) / (1 - r)
        def report_at(cond):
            r = (cond - 1.0) / (cond + 1.0)
            table = (0.0, 1.0, 1.0, np.zeros(1), np.array([r]), np.zeros(1),
                     np.ones((1, 1)), np.ones((1, 1)))
            monkeypatch.setattr(moments, "stationary_x_moments", lambda params: table)
            return asymptotic_covariance(subcritical_params)

        rep = report_at(0.1 * COND_LIMIT)  # cond 1e11
        assert rep.cond_EG == pytest.approx(0.1 * COND_LIMIT, rel=1e-4)
        assert np.all(np.isfinite(rep.sandwich))
        with pytest.raises(SingularEGError):
            report_at(10.0 * COND_LIMIT)  # cond 1e13


# RK4 at step 5e-4 out to t = 60/b, with no tail: (grid index, Re CF,
# Im CF) on criterion 7's grid lams = repeat(linspace(0, 5, 10), 10),
# mus = tile(linspace(-5, 5, 10), 10), for the n = 1 fixture.
RICCATI_PINS_N1 = [
    (3, 0.5669046123010835, -0.022257232235168938),
    (12, 0.10930746021770096, -0.017619843916991156),
    (25, 0.16285020900267858, 0.0023161865660359256),
    (37, 0.03306943076301508, 0.0057245992837630984),
    (41, 0.009319569009647711, -0.0031005599590459374),
    (58, 0.00631432542932569, 0.002093771032275001),
    (64, 0.0191227628005574, -0.00045423145805453124),
    (79, 0.001383672136042157, 0.0007442271951055048),
    (86, 0.007099922861010095, 0.0006403841308391418),
    (99, 0.0008152619752360701, 0.0004309946292436857),
]
# The same for the n = 2 fixture: (lam, v, Re CF, Im CF) at mu = (v, -v/2).
RICCATI_PINS_N2 = [
    (0.0, -3.0, 0.17685357125663012, 0.26193128900164736),
    (1.25, 1.5, -0.1651145224357084, 0.10233533254323186),
    (2.5, 3.0, 0.012157958189091609, -0.03751063531254541),
    (3.75, -1.5, -0.02559145511868954, -0.019686354232036497),
    (5.0, 0.75, 0.006325230769793698, 0.017834674896943563),
]

# The same at step 5e-4 out to t* = ln(1/eps) / theta, plus the closed-form
# tail, for two n = 1 models with slow mean reversion (a = 2, m = 1,
# kappa = 0.5 and the fixture's rho): (lam, mu, Re CF, Im CF) per (theta, b).
RICCATI_PINS_SLOW = {
    (0.2, 2.0): [
        (3.13, -1.48, -0.011786583251216355, 0.006609905770219157),
        (4.49, 0.96, -0.014807905539390095, 0.015205029810920177),
        (3.88, 0.89, -0.018172834770248673, 0.026325864762737492),
        (1.13, -0.1, 0.354913305498396, -0.08949465000327084),
        (1.5, -0.59, 0.02292747860825193, -0.19854534894245315),
        (4.37, -0.66, -0.0012658777580075286, -0.03487613259354544),
    ],
    (0.05, 1.0): [
        (1.63, -0.06, 0.08933810123288446, -0.0004878280491232891),
        (4.94, -0.13, 0.00598581254837431, -0.00012460895415010296),
        (1.59, -0.39, 0.026434134413142407, -0.00315651451445404),
        (3.94, -0.02, 0.012808793636000163, -3.251674208249363e-05),
        (4.35, -0.26, 0.005587808410834763, -0.00033072604639402143),
        (1.96, -0.24, 0.03981876682920882, -0.0017178949024149123),
    ],
}


def _n1_model(theta, b):
    return ModelParams(
        n=1, a=2.0, b=b, m=[1.0], kappa=[0.5], theta=[[theta]],
        rho=[[1.0, 0.0], [0.2, 0.9]], y0=1.0, x0=0.0,
    )


@pytest.fixture
def fast_theta_slow_b_params():
    # at mu = 0 the ODE is K' = K (K - 1) / 2 while the coefficients decay
    # at 20 and 40, so K's own transient sets the early steps
    return _n1_model(20.0, 0.5)


class TestRiccatiCf:
    def test_default_step_matches_fine_step_pins_n1(self, subcritical_params):
        idx = [i for i, _, _ in RICCATI_PINS_N1]
        lams = np.repeat(np.linspace(0.0, 5.0, 10), 10)[idx]
        mus = [[v] for v in np.tile(np.linspace(-5.0, 5.0, 10), 10)[idx]]
        got = riccati_cf_batch(subcritical_params, lams, mus)
        want = np.array([complex(re, im) for _, re, im in RICCATI_PINS_N1])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_default_step_matches_fine_step_pins_n2(self, subcritical_params_n2):
        lams = [lam for lam, _, _, _ in RICCATI_PINS_N2]
        mus = [[v, -v / 2] for _, v, _, _ in RICCATI_PINS_N2]
        got = riccati_cf_batch(subcritical_params_n2, lams, mus)
        want = np.array([complex(re, im) for _, _, re, im in RICCATI_PINS_N2])
        assert np.max(np.abs(got - want)) <= 1e-10

    @pytest.mark.parametrize("theta, b", list(RICCATI_PINS_SLOW))
    def test_matches_fine_step_pins_slow_theta(self, theta, b):
        pins = RICCATI_PINS_SLOW[(theta, b)]
        got = riccati_cf_batch(_n1_model(theta, b), [lam for lam, _, _, _ in pins],
                               [[mu] for _, mu, _, _ in pins])
        want = np.array([complex(re, im) for _, _, re, im in pins])
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_origin_is_exactly_one(self, subcritical_params):
        assert riccati_cf(subcritical_params, 0.0, [0.0]) == 1.0 + 0.0j

    def test_lambda_derivative_matches_mean(self, subcritical_params):
        p = subcritical_params
        h = 1e-4
        vals = riccati_cf_batch(p, [h, -h], [[0.0], [0.0]])
        deriv = -(vals[0].real - vals[1].real) / (2 * h)
        assert abs(deriv - p.a / p.b) < 1e-3

    def test_mu_second_derivative_matches_ex2(self, subcritical_params):
        p = subcritical_params
        ex2 = stationary_moment(p, 0, [2])
        h = 1e-3
        vals = riccati_cf_batch(p, [0.0, 0.0, 0.0], [[h], [0.0], [-h]])
        fd = -(vals[0] - 2 * vals[1] + vals[2]).real / h**2
        assert abs(fd - ex2) <= 1e-2 * abs(ex2)

    def test_modulus_bounded_by_one(self, subcritical_params):
        lams = np.repeat(np.linspace(0.0, 5.0, 5), 5)
        mus = [[v] for v in np.tile(np.linspace(-4.0, 4.0, 5), 5)]
        vals = riccati_cf_batch(subcritical_params, lams, mus)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    @pytest.mark.parametrize("theta, b", list(RICCATI_PINS_SLOW))
    def test_single_point_calls_match_the_slow_theta_pins(self, theta, b):
        # a point alone gets its own grid (K's transient depends on its
        # lam) and lands on its pin as it does in a batch
        p = _n1_model(theta, b)
        for lam, mu, re, im in RICCATI_PINS_SLOW[(theta, b)][:2]:
            assert abs(riccati_cf(p, lam, [mu]) - complex(re, im)) <= 1e-10

    def test_slow_theta_batch_runs_in_under_a_second(self, monkeypatch):
        # a fixed step of 5e-3 took 144,175 steps and 3.5 s for this call
        steps = []
        grid = moments._riccati_grid

        def counting_grid(*args):
            times = grid(*args)
            steps.append(times.size - 1)
            return times

        monkeypatch.setattr(moments, "_riccati_grid", counting_grid)
        rng = np.random.default_rng(20)
        lams = rng.uniform(0.0, 5.0, 20)
        mus = [[v] for v in rng.uniform(-0.5, 0.5, 20)]
        t0 = time.perf_counter()
        vals = riccati_cf_batch(_n1_model(0.05, 1.0), lams, mus)
        elapsed = time.perf_counter() - t0
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)
        assert len(steps) == 1 and steps[0] <= 5000  # 2,615 steps
        assert elapsed < 1.0

    @pytest.mark.parametrize(
        "fixture", ["subcritical_params", "subcritical_params_n2", "fast_theta_slow_b_params"])
    def test_mu_zero_is_the_gamma_laplace_transform(self, fixture, request, monkeypatch):
        # the stationary Y is Gamma(2a / sigma1^2, scale sigma1^2 / (2b)),
        # finite for lam > -2b / sigma1^2.  At mu = 0, K' = alpha K^2 - b K
        # from K(0) = -lam: the tail's closed form from t = 0, so a batch of
        # such points builds no RK4 grid
        def no_grid(*args):
            raise AssertionError("a batch with every mu = 0 needs no grid")

        monkeypatch.setattr(moments, "_riccati_grid", no_grid)
        p = request.getfixturevalue(fixture)
        s2 = p.sigma1**2
        lams = np.linspace(max(-1.9, -1.9 * p.b / s2), 5.0, 24)
        got = riccati_cf_batch(p, lams, [np.zeros(p.n)] * len(lams))
        want = (1.0 + lams * s2 / (2.0 * p.b)) ** (-2.0 * p.a / s2)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-13

    def test_slow_theta_means(self):
        # with theta = 0.2, K is still 7e-7 at t = 60 / b = 30 once mu != 0;
        # t* = ln(1/eps) / 0.2 = 180
        p = _n1_model(0.2, 2.0)
        h = 1e-4
        vals = riccati_cf_batch(p, [h, -h, 0.0, 0.0], [[0.0], [0.0], [h], [-h]])
        ey = -(vals[0] - vals[1]).real / (2 * h)
        ex = (vals[2] - vals[3]).imag / (2 * h)
        assert abs(ey - p.a / p.b) < 1e-6
        assert abs(ex - (1.0 - 0.5 * p.a / p.b) / 0.2) < 1e-6  # (m - kappa a/b) / theta

    @pytest.mark.parametrize("lam", [-2.5, -2.0 - 1e-9])
    def test_infinite_transform_is_nan(self, subcritical_params, lam):
        # E exp(-lam Y) is infinite below lam = -2b / sigma1^2 = -2; at
        # -2 - 1e-9, K blows up only after t* ~ 18, inside the tail
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(riccati_cf(subcritical_params, lam, [0.0]))

    def test_not_subcritical(self, critical_params):
        with pytest.raises(NotSubcriticalError):
            riccati_cf(critical_params, 0.5, [0.0])

    @pytest.mark.parametrize("mu", [[0.0, 0.0], []])
    def test_mu_of_the_wrong_length_is_a_dimension_error(self, subcritical_params, mu):
        # a bare numpy ValueError from the solve for P^-T mu
        with pytest.raises(DimensionMismatchError):
            riccati_cf(subcritical_params, 0.1, mu)
        with pytest.raises(DimensionMismatchError):
            riccati_cf_batch(subcritical_params, [0.1, 0.2], [[0.0], mu])

    @pytest.mark.parametrize("lam, mu", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 0.0),
                                         (0.1, math.nan)])
    def test_point_not_finite_is_a_grid_error(self, subcritical_params, lam, mu):
        # lam = nan returned nan+nanj; lam = +-inf failed in math.log
        with pytest.raises(InvalidGridError):
            riccati_cf_batch(subcritical_params, [0.1, lam], [[0.0], [mu]])

    def test_negative_finite_lam_is_the_stationary_mgf(self, subcritical_params):
        # Y is stationary Gamma(2a / s1^2 = 4, scale s1^2 / 2b = 1/2): E e^Y = 2^4
        got = riccati_cf_batch(subcritical_params, [-1.0], [[0.0]])[0]
        assert got == pytest.approx(16.0, rel=1e-9)


def test_stationary_table_n3_builds_without_gaps():
    rng = np.random.default_rng(77)
    params = random_subcritical(rng, 3)
    table = stationary_moment_table(params, max_order=4)
    # every index of total order <= 4 is present and finite
    count = 0
    for key, val in table.items():
        assert np.isfinite(val)
        count += 1
    assert count == sum(
        1 for k in range(5) for s in range(5 - k)
        for _ in __import__("itertools").combinations_with_replacement(range(3), s)
    )
