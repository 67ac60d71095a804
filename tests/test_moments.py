import math

import numpy as np
import pytest
import scipy.integrate

from ad1n import (
    ModelParams,
    TildeFrame,
    asymptotic_covariance,
    point_initial_moments,
    riccati_cf,
    riccati_cf_batch,
    simulate_path,
    stationary_moment,
    stationary_moment_table,
    substream,
    tilde_to_x_moment,
    tilde_to_x_moments,
    transient_moment,
)
from ad1n.errors import (
    DimensionMismatchError,
    IncompleteTableError,
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

    Returns the moments keyed like the table.  Written directly from the
    special-case formulas, not through the generic recursion machinery.
    """
    frame = TildeFrame.from_params(params)
    a, b, s1 = float(params.a), float(params.b), params.sigma1
    lam = frame.lam
    mt, kt = frame.m_t, frame.kappa_t
    rc = frame.rho_check
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
    for i in range(n):
        out[(0, _unit(n, i))] = ex[i]
        out[(1, _unit(n, i))] = eyx[i]
        out[(2, _unit(n, i))] = ey2x[i]
    exx = np.empty((n, n))
    for i in range(n):
        exx[i, i] = (2 * mt[i] * ex[i] - 2 * kt[i] * eyx[i] + rr[i, i] * ey) / (2 * lam[i])
        for j in range(n):
            if j != i:
                exx[i, j] = (
                    mt[i] * ex[j] + mt[j] * ex[i]
                    - kt[i] * eyx[j] - kt[j] * eyx[i]
                    + rr[i, j] * ey
                ) / (lam[i] + lam[j])
    for i in range(n):
        for j in range(i, n):
            out[(0, _pair(n, i, j))] = exx[i, j]
    for i in range(n):
        out[(1, _pair(n, i, i))] = (
            a * exx[i, i] + 2 * (mt[i] + s1 * rc[i, 0]) * eyx[i]
            - 2 * kt[i] * ey2x[i] + rr[i, i] * ey2
        ) / (b + 2 * lam[i])
        for j in range(i + 1, n):
            out[(1, _pair(n, i, j))] = (
                a * exx[i, j]
                + (mt[i] + s1 * rc[i, 0]) * eyx[j]
                + (mt[j] + s1 * rc[j, 0]) * eyx[i]
                - kt[i] * ey2x[j] - kt[j] * ey2x[i]
                + rr[i, j] * ey2
            ) / (b + lam[i] + lam[j])
    return out


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
        with pytest.raises(DimensionMismatchError):
            riccati_cf_batch(subcritical_params, [0.1, 0.2], [[0.0]])

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


class TestTransientMoments:
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

    def test_missing_initial_entry(self, subcritical_params):
        init = point_initial_moments(subcritical_params, 1.0, [0.0], 1)
        with pytest.raises(MissingInitialMomentError):
            transient_moment(subcritical_params, init, 2, [0], 1.0)


class TestTildeConversion:
    def test_identity_frame(self, subcritical_params):
        frame = TildeFrame.from_params(subcritical_params)
        table = stationary_moment_table(subcritical_params, 2)
        # n = 1 with theta = [[2.]]: P is the 1x1 identity
        assert frame.P[0, 0] == pytest.approx(1.0)
        assert tilde_to_x_moment(frame, table, 1, [1]) == pytest.approx(
            table[(1, (1,))], rel=1e-14
        )

    def test_incomplete_table(self, subcritical_params_n2):
        frame = TildeFrame.from_params(subcritical_params_n2)
        with pytest.raises(IncompleteTableError):
            tilde_to_x_moment(frame, {}, 0, [1, 0])

    def test_full_table_conversion_shapes(self, subcritical_params_n2):
        frame = TildeFrame.from_params(subcritical_params_n2)
        table = stationary_moment_table(subcritical_params_n2, 2)
        xt = tilde_to_x_moments(frame, table)
        assert set(xt) == set(table)

    def test_ergodic_average_oracle_n2(self, subcritical_params_n2):
        # E X^1_inf from the conversion vs a long-run time average
        p = subcritical_params_n2
        frame = TildeFrame.from_params(p)
        table = stationary_moment_table(p, 1)
        want = tilde_to_x_moment(frame, table, 0, [1, 0])
        path = simulate_path(p, 3000.0, 0.01, seed=substream(2024, 0))
        avg = float(np.mean(path.X[:, 0]))
        assert abs(avg - want) <= 0.03 * abs(want)


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
        frame = TildeFrame.from_params(p)
        table = stationary_moment_table(p, 2)
        ex2 = tilde_to_x_moment(frame, table, 0, [2])
        h = 1e-3
        vals = riccati_cf_batch(p, [0.0, 0.0, 0.0], [[h], [0.0], [-h]])
        fd = -(vals[0] - 2 * vals[1] + vals[2]).real / h**2
        assert abs(fd - ex2) <= 1e-2 * abs(ex2)

    def test_modulus_bounded_by_one(self, subcritical_params):
        lams = np.repeat(np.linspace(0.0, 5.0, 5), 5)
        mus = [[v] for v in np.tile(np.linspace(-4.0, 4.0, 5), 5)]
        vals = riccati_cf_batch(subcritical_params, lams, mus)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12

    def test_richardson_step_halving(self, subcritical_params):
        c1 = riccati_cf(subcritical_params, 1.0, [0.7], step=1e-3)
        c2 = riccati_cf(subcritical_params, 1.0, [0.7], step=5e-4)
        assert abs(c1 - c2) < 1e-9

    @pytest.mark.parametrize("fixture", ["subcritical_params", "subcritical_params_n2"])
    def test_mu_zero_is_the_gamma_laplace_transform(self, fixture, request):
        # the stationary Y is Gamma(2a / sigma1^2, scale sigma1^2 / (2b))
        p = request.getfixturevalue(fixture)
        lams = np.linspace(-1.9, 5.0, 24)
        got = riccati_cf_batch(p, lams, [np.zeros(p.n)] * len(lams))
        s2 = p.sigma1**2
        want = (1.0 + lams * s2 / (2.0 * p.b)) ** (-2.0 * p.a / s2)
        assert np.max(np.abs(got / want - 1.0)) <= 1e-8

    def test_slow_theta_means(self):
        # with theta = 0.2, K is still 7e-7 at t = 60 / b = 30 once mu != 0;
        # t* = ln(1/eps) / 0.2 = 180
        p = ModelParams(
            n=1, a=2.0, b=2.0, m=[1.0], kappa=[0.5], theta=[[0.2]],
            rho=[[1.0, 0.0], [0.2, 0.9]], y0=1.0, x0=0.0,
        )
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
