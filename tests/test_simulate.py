import math

import numpy as np
import pytest
import scipy.stats

from ad1n import (
    ModelParams,
    increment_moment_probe,
    read_path_csv,
    scaled_critical_functionals,
    simulate_critical_limit,
    simulate_path,
    substream,
    write_path_csv,
)
from ad1n.errors import InvalidGridError
from ad1n.harness import ks_two_sample
from ad1n.moments import TildeFrame, point_initial_moments, transient_moment


class TestDeterminism:
    def test_bit_identical_repeat(self, subcritical_params):
        p1 = simulate_path(subcritical_params, 5.0, 0.01, seed=substream(42, 3))
        p2 = simulate_path(subcritical_params, 5.0, 0.01, seed=substream(42, 3))
        assert np.array_equal(p1.states, p2.states)
        assert p1.params_hash == p2.params_hash

    def test_different_streams_differ(self, subcritical_params):
        p1 = simulate_path(subcritical_params, 2.0, 0.01, seed=substream(42, 0))
        p2 = simulate_path(subcritical_params, 2.0, 0.01, seed=substream(42, 1))
        assert not np.array_equal(p1.states, p2.states)

    def test_scalar_and_general_loops_agree(self, subcritical_params):
        small_df = ModelParams(n=1, a=0.15, b=1.0, m=[0.5], kappa=[0.3], theta=[[1.5]],
                               rho=[[1.0, 0.0], [0.3, 0.8]], y0=0.5, x0=0.0)
        zero_start = ModelParams(n=1, a=2.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
                                 rho=[[1.0, 0.0], [0.2, 0.9]], y0=0.0, x0=0.0)
        for params in (subcritical_params, small_df, zero_start):
            p1 = simulate_path(params, 3.0, 0.02, seed=substream(9, 0))
            p2 = simulate_path(params, 3.0, 0.02, seed=substream(9, 0),
                               _force_general=True)
            assert np.array_equal(p1.states, p2.states)

    def test_set_up_kept_per_value(self, subcritical_params_n2):
        import scipy.linalg

        from ad1n._matfun import one_step_conditional_mean_coeffs as coeffs
        from ad1n.model import _try_real_eig

        p = subcritical_params_n2
        kept = coeffs(p.a, p.b, p.m, p.kappa, p.theta, 0.01)
        assert coeffs(float(p.a), p.b, list(p.m), p.kappa.copy(), p.theta.copy(), 0.01) is kept
        assert coeffs(p.a, p.b, p.m, p.kappa, p.theta, 0.02) is not kept
        assert coeffs(p.a, -0.0, p.m, p.kappa, p.theta, 0.01) is not coeffs(
            p.a, 0.0, p.m, p.kappa, p.theta, 0.01)
        assert np.array_equal(kept[0], scipy.linalg.expm(-p.theta * 0.01))
        assert not any(arr.flags.writeable for arr in kept)
        w, P = _try_real_eig(p.theta)
        assert _try_real_eig(p.theta.copy())[0] is w
        assert not (w.flags.writeable or P.flags.writeable)


class TestGrid:
    def test_uniform_times(self, subcritical_params):
        path = simulate_path(subcritical_params, 1.0, 0.01, seed=1)
        steps = np.diff(path.times)
        assert np.max(np.abs(steps - 0.01)) <= 1e-12 * path.horizon

    def test_invalid_grid(self, subcritical_params):
        with pytest.raises(InvalidGridError):
            simulate_path(subcritical_params, 1.0, -0.1, seed=1)
        with pytest.raises(InvalidGridError):
            simulate_path(subcritical_params, 0.005, 0.01, seed=1)


class TestYTransitions:
    def test_positivity(self, subcritical_params):
        for r in range(10):
            path = simulate_path(subcritical_params, 10.0, 0.05, seed=substream(5, r))
            assert path.Y.min() >= 0.0

    def test_mean_reverting_mean(self):
        # E Y_T = e^{-bT} Y_0 + a (1 - e^{-bT}) / b at a=2, b=1, Y0=1, T=2
        p = ModelParams(n=1, a=2.0, b=1.0, m=[0.0], kappa=[0.0], theta=[[1.0]],
                        rho=[[1.0, 0.0], [0.0, 1.0]], y0=1.0, x0=0.0)
        M = 2500
        ys = np.array([
            simulate_path(p, 2.0, 0.02, seed=substream(101, r)).Y[-1]
            for r in range(M)
        ])
        want = math.exp(-2.0) + 2.0 * (1.0 - math.exp(-2.0))
        se = ys.std(ddof=1) / math.sqrt(M)
        assert abs(ys.mean() - want) <= 3.0 * se

    def test_zero_reversion_mean(self, critical_params):
        # b = 0: E Y_t = a t + Y_0
        M = 1500
        ys = np.array([
            simulate_path(critical_params, 1.0, 0.01, seed=substream(55, r)).Y[-1]
            for r in range(M)
        ])
        se = ys.std(ddof=1) / math.sqrt(M)
        assert abs(ys.mean() - 3.0) <= 3.0 * se

    def test_supercritical_transient_mean(self, supercritical_params):
        p = supercritical_params
        init = point_initial_moments(p, float(p.y0), p.x0, 1)
        want = transient_moment(p, init, 1, [0], 2.0)
        M = 800
        ys = np.array([
            simulate_path(p, 2.0, 0.01, seed=substream(31, r)).Y[-1]
            for r in range(M)
        ])
        se = ys.std(ddof=1) / math.sqrt(M)
        assert abs(ys.mean() - want) <= 3.0 * se

    def test_critical_x_mean_is_linear(self, critical_params):
        # kappa = 0, theta = 0: E X_t = x0 + m t exactly
        M = 600
        xs = np.array([
            simulate_path(critical_params, 1.5, 0.01, seed=substream(32, r)).X[-1, 0]
            for r in range(M)
        ])
        se = xs.std(ddof=1) / math.sqrt(M)
        assert abs(xs.mean() - 1.5) <= 3.0 * se

    def test_x_transient_mean_matches_moment_solver(self, subcritical_params_n2):
        p = subcritical_params_n2
        init = point_initial_moments(p, float(p.y0), p.x0, 2)
        frame = TildeFrame.from_params(p)
        # E[X^1_t] = sum_j (P^-1)_{1j} E[Xt^j_t]
        want = sum(
            frame.P_inv[0, j] * transient_moment(p, init, 0, [int(j == q) for q in range(2)], 1.5)
            for j in range(2)
        )
        M = 1200
        xs = np.array([
            simulate_path(p, 1.5, 0.01, seed=substream(13, r)).X[-1, 0]
            for r in range(M)
        ])
        se = xs.std(ddof=1) / math.sqrt(M)
        assert abs(xs.mean() - want) <= 3.0 * se


class TestComparisonProperty:
    def test_zero_start_never_exceeds_positive_start(self):
        # monotone coupling of the exact transition via shared uniforms:
        # the transition law is stochastically increasing in its initial
        # value, so inverse-cdf sampling with common U keeps the order.
        a, b, sigma1, delta = 2.0, 0.0, 1.0, 0.01
        df = 4.0 * a / sigma1**2
        c = sigma1**2 * delta / 4.0
        rng = np.random.default_rng(77)
        for _ in range(5):
            y_hi, y_lo = 1.0, 0.0
            ok = True
            for _ in range(300):
                u = rng.uniform(1e-12, 1.0 - 1e-12)
                nc_hi = y_hi / c
                nc_lo = y_lo / c
                y_hi = c * float(scipy.stats.ncx2.ppf(u, df, nc_hi)) if nc_hi > 0 \
                    else c * float(scipy.stats.chi2.ppf(u, df))
                y_lo = c * float(scipy.stats.ncx2.ppf(u, df, nc_lo)) if nc_lo > 0 \
                    else c * float(scipy.stats.chi2.ppf(u, df))
                ok = ok and (y_lo <= y_hi + 1e-12)
            assert ok


class TestCriticalLimit:
    def test_degenerate_a_zero(self):
        p = ModelParams(n=1, a=0.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
                        rho=[[1.0, 0.0], [0.2, 0.9]])
        s = simulate_critical_limit(p, seed=1)
        assert s.y1 == 0.0
        assert s.int_yy == 0.0
        # X becomes the pure drift integral
        assert abs(s.x1[0] - 1.0) < 1e-12

    def test_end_value_means(self, critical_params):
        M = 400
        y1 = np.empty(M)
        x1 = np.empty(M)
        for r in range(M):
            s = simulate_critical_limit(critical_params, seed=substream(3, r))
            y1[r], x1[r] = s.y1, s.x1[0]
        se_y = y1.std(ddof=1) / math.sqrt(M)
        se_x = x1.std(ddof=1) / math.sqrt(M)
        assert abs(y1.mean() - 2.0) <= 3.0 * se_y
        assert abs(x1.mean() - 1.0) <= 3.0 * se_x

    def test_cauchy_schwarz_on_quadrature(self, critical_params):
        for r in range(30):
            s = simulate_critical_limit(critical_params, seed=substream(21, r))
            assert s.int_yy >= s.int_y**2 - 1e-12

    def test_fine_delta_guard(self, critical_params):
        with pytest.raises(InvalidGridError):
            simulate_critical_limit(critical_params, seed=1, fine_delta=0.01)

    def test_scaling_identity_ks(self, critical_params):
        # (Y1, int Y) of the [0,1] limit process vs the horizon-T path
        # functionals (Y_T/T, T^-2 int Y) of the zero-started process
        M = 2000
        T = 40.0
        p0 = ModelParams(n=1, a=2.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
                         rho=[[1.0, 0.0], [0.2, 0.9]], y0=0.0, x0=0.0)
        lim_y1 = np.empty(M)
        lim_iy = np.empty(M)
        path_y1 = np.empty(M)
        path_iy = np.empty(M)
        for r in range(M):
            s = simulate_critical_limit(p0, seed=substream(500, r))
            lim_y1[r], lim_iy[r] = s.y1, s.int_y
            path = simulate_path(p0, T, 0.04, seed=substream(501, r))
            f = scaled_critical_functionals(path)
            path_y1[r], path_iy[r] = f.y1, f.int_y
        assert ks_two_sample(lim_y1, path_y1) < 0.1
        assert ks_two_sample(lim_iy, path_iy) < 0.1


class TestIncrementProbe:
    def test_zero_lag_is_zero(self, subcritical_params):
        out = increment_moment_probe(
            subcritical_params, 2.0, [(0.5, 0.5)], delta=0.01,
            replications=20, seed=4,
        )
        assert out[0].value == 0.0

    def test_q1_sqrt_scaling_ratio(self, subcritical_params):
        out = increment_moment_probe(
            subcritical_params, 1.0, [(1.0, 1.01), (1.0, 1.04)], delta=0.01,
            replications=800, seed=12,
        )
        ratio = out[0].value / out[1].value
        assert abs(ratio - 0.5) <= 0.125  # within 25 percent of 1/2


class TestPathCsv:
    def test_round_trip(self, tmp_path, subcritical_params):
        path = simulate_path(subcritical_params, 1.0, 0.05, seed=substream(8, 2))
        f = str(tmp_path / "path.csv")
        write_path_csv(path, f)
        back = read_path_csv(f)
        assert np.array_equal(back.states, path.states)
        assert back.delta == path.delta
        assert back.seed == (8, 2)
        assert back.params_hash == path.params_hash
