import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

from ad1n import (
    ModelParams,
    Path,
    critical_limit_functional,
    increment_moment_probe,
    read_path_csv,
    simulate_critical_limit,
    simulate_critical_limits,
    simulate_path,
    simulate_paths,
    substream,
    write_path_csv,
)
from ad1n import simulate
from ad1n._matfun import cir_mean_coeffs, one_step_conditional_mean_coeffs
from ad1n.errors import DimensionMismatchError, InvalidGridError
from ad1n.harness import ks_two_sample
from ad1n.moments import point_initial_moments, transient_moment
from ad1n.simulate import (
    BATCH_PATHS,
    CHUNK,
    LOCKSTEP_MIN,
    STREAM_CHUNK,
    _x_pass_scalar,
    _x_running_sum,
    batch_width,
    generator,
)

from conftest import FirstPath, keys_at_first_path


def _stepped_x(params, path):
    """X of ``path`` rebuilt from the path's own Y and its redrawn normals by
    the per-step recursion X_{k+1} = E X_k + m~ - k~ Y_k + sqrt Y_k (rho_J1
    dB^1_k + rho_JJ dB^J_k), one matrix product a step.  The draws follow the
    order of the module docstring: for df >= 1 the chi-square values (none at
    df = 1) and the Y normals, then dB^J, then the fresh dB^1 (for df >= 1 its
    used prefix; for df < 1 the whole block, before the per-step CIR draws)."""
    N, n, delta = path.n_steps, path.n, path.delta
    a, b, sigma1 = float(params.a), float(params.b), params.sigma1
    df = 4.0 * a / (sigma1 * sigma1)
    emb, a_t = cir_mean_coeffs(a, b, delta)
    emth, m_t, k_t = one_step_conditional_mean_coeffs(a, b, params.m, params.kappa,
                                                      params.theta, delta)
    rng, sq_delta = generator(path.seed), math.sqrt(delta)
    if df > 1.0:
        rng.chisquare(df - 1.0, size=N)
    if df >= 1.0:
        rng.standard_normal(N)
    dB_J = rng.standard_normal((N, n)) * sq_delta
    Y, Yl = path.Y, path.Y[:-1]
    fresh = ~(Yl > simulate.RECONSTRUCT_EPS)
    used = np.flatnonzero(fresh)
    size = N if df < 1.0 else (used[-1] + 1 if used.size else 0)
    fresh1 = rng.standard_normal(size) * sq_delta
    with np.errstate(divide="ignore", invalid="ignore"):
        dB1 = (Y[1:] - emb * Yl - a_t) / (sigma1 * np.sqrt(Yl))
    np.copyto(dB1[:size], fresh1, where=fresh[:size])
    X = np.empty((N + 1, n))
    X[0] = x = params.x0
    for k in range(N):
        x = emth @ x + m_t - k_t * Yl[k] + math.sqrt(Yl[k]) * (
            params.rho_J1 * dB1[k] + params.rho_JJ @ dB_J[k])
        X[k + 1] = x
    return X


def _last_states(params, horizon, delta, master, M):
    """Final states of the paths of seeds substream(master, r), r < M, from
    one simulate_paths call (each path keeps its simulate_path bits)."""
    seeds = [substream(master, r) for r in range(M)]
    return np.array([path.states[-1] for path in simulate_paths(params, horizon, delta, seeds)])


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
        # the n = 1 float pass and running sum keep the stepped recursion's bits
        small_df = ModelParams(n=1, a=0.15, b=1.0, m=[0.5], kappa=[0.3], theta=[[1.5]],
                               rho=[[1.0, 0.0], [0.3, 0.8]], y0=0.5, x0=0.0)
        zero_start = ModelParams(n=1, a=2.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
                                 rho=[[1.0, 0.0], [0.2, 0.9]], y0=0.0, x0=0.0)
        theta0_drifting_y = ModelParams(n=1, a=2.0, b=0.5, m=[1.0], kappa=[0.5],
                                        theta=[[0.0]], rho=[[1.0, 0.0], [0.2, 0.9]],
                                        y0=1.0, x0=-0.5)
        for params in (subcritical_params, small_df, zero_start, theta0_drifting_y):
            path = simulate_path(params, 3.0, 0.02, seed=substream(9, 0))
            assert path.X.tobytes() == _stepped_x(params, path).tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("regime", ["subcritical", "critical", "supercritical"])
    def test_matrix_loop_matches_the_stepped_recursion(self, n, regime):
        # c_k is built over the time axis, so only the last bits may differ
        tridiag = np.array([[2.0, 0.2, 0.0], [0.1, 1.5, 0.1], [0.0, 0.2, 1.0]])[:n, :n]
        rho = np.tril(np.full((n + 1, n + 1), 0.15)) + np.diag(np.linspace(1.0, 0.7, n + 1))
        b, theta, horizon = {"subcritical": (1.2, tridiag, 20.0),
                             "critical": (0.0, np.zeros((n, n)), 500.0),
                             "supercritical": (-0.05, -0.1 * tridiag, 30.0)}[regime]
        params = ModelParams(n=n, a=2.0, b=b, m=np.linspace(1.0, -0.5, n),
                             kappa=np.linspace(0.3, -0.2, n), theta=theta, rho=rho,
                             y0=1.0, x0=np.linspace(0.5, -0.5, n))
        path = simulate_path(params, horizon, 0.02, seed=substream(17, n))
        want = _stepped_x(params, path)
        assert np.max(np.abs(path.X - want)) <= 1e-12 * np.max(np.abs(want))

    def test_set_up_bits_do_not_depend_on_the_argument_form(
            self, subcritical_params, subcritical_params_n2):
        from ad1n._matfun import expm
        from ad1n._matfun import one_step_conditional_mean_coeffs as coeffs

        def read_only(v):
            v = np.array(v, dtype=float)
            v.setflags(write=False)
            return v

        for p in (subcritical_params, subcritical_params_n2):
            want = coeffs(p.a, p.b, p.m, p.kappa, p.theta, 0.01)
            forms = [
                (float(p.a), float(p.b), p.m.tolist(), p.kappa.tolist(), p.theta.tolist(), 0.01),
                (np.float64(p.a), np.array(p.b), p.m.copy(), p.kappa.copy(), p.theta.copy(),
                 np.float64(0.01)),
                (p.a, p.b, *map(read_only, (p.m, p.kappa, p.theta)), 0.01),
            ]
            for args in forms:
                got = coeffs(*args)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want], p.n
            assert want[0].tobytes() == expm(-p.theta * 0.01).tobytes(), p.n


class TestGrid:
    def test_uniform_times(self, subcritical_params):
        path = simulate_path(subcritical_params, 1.0, 0.01, seed=1)
        steps = np.diff(path.times)
        assert np.max(np.abs(steps - 0.01)) <= 1e-12 * path.horizon

    def test_invalid_grid(self, subcritical_params):
        # the non-finite grids used to overflow or raise ValueError
        for horizon, delta in [(1.0, -0.1), (0.005, 0.01), (math.inf, 0.01), (1.0, math.nan),
                               (math.nan, 0.01), (math.inf, math.inf)]:
            with pytest.raises(InvalidGridError):
                simulate_path(subcritical_params, horizon, delta, seed=1)


class TestYTransitions:
    def test_positivity(self, subcritical_params):
        seeds = [substream(5, r) for r in range(10)]
        for path in simulate_paths(subcritical_params, 10.0, 0.05, seeds):
            assert path.Y.min() >= 0.0

    def test_mean_reverting_mean(self):
        # E Y_T = e^{-bT} Y_0 + a (1 - e^{-bT}) / b at a=2, b=1, Y0=1, T=2
        p = ModelParams(n=1, a=2.0, b=1.0, m=[0.0], kappa=[0.0], theta=[[1.0]],
                        rho=[[1.0, 0.0], [0.0, 1.0]], y0=1.0, x0=0.0)
        M = 2500
        ys = _last_states(p, 2.0, 0.02, 101, M)[:, 0]
        want = math.exp(-2.0) + 2.0 * (1.0 - math.exp(-2.0))
        se = ys.std(ddof=1) / math.sqrt(M)
        assert abs(ys.mean() - want) <= 3.0 * se

    def test_zero_reversion_mean(self, critical_params):
        # b = 0: E Y_t = a t + Y_0
        M = 1500
        ys = _last_states(critical_params, 1.0, 0.01, 55, M)[:, 0]
        se = ys.std(ddof=1) / math.sqrt(M)
        assert abs(ys.mean() - 3.0) <= 3.0 * se

    def test_supercritical_transient_mean(self, supercritical_params):
        p = supercritical_params
        init = point_initial_moments(p, float(p.y0), p.x0, 1)
        want = transient_moment(p, init, 1, [0], 2.0)
        M = 800
        ys = _last_states(p, 2.0, 0.01, 31, M)[:, 0]
        se = ys.std(ddof=1) / math.sqrt(M)
        assert abs(ys.mean() - want) <= 3.0 * se

    def test_critical_x_mean_is_linear(self, critical_params):
        # kappa = 0, theta = 0: E X_t = x0 + m t exactly
        M = 600
        xs = _last_states(critical_params, 1.5, 0.01, 32, M)[:, 1]
        se = xs.std(ddof=1) / math.sqrt(M)
        assert abs(xs.mean() - 1.5) <= 3.0 * se

    def test_x_transient_mean_matches_moment_solver(self, subcritical_params_n2):
        p = subcritical_params_n2
        init = point_initial_moments(p, float(p.y0), p.x0, 1)
        want = transient_moment(p, init, 0, [1, 0], 1.5)
        M = 1200
        xs = _last_states(p, 1.5, 0.01, 13, M)[:, 1]
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


def _int_y_yy(path, params):
    """(int Y, int Y^2) of a limit path, read from its U1 = [[1, -int Y],
    [-int Y, int Y^2]]."""
    u1 = critical_limit_functional(path, params.a, params.m).u1
    return -u1[0, 1], u1[1, 1]


class TestCriticalLimit:
    def test_degenerate_a_zero(self):
        p = ModelParams(n=1, a=0.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
                        rho=[[1.0, 0.0], [0.2, 0.9]])
        path = simulate_critical_limit(p, seed=1)
        assert path.Y[-1] == 0.0
        assert _int_y_yy(path, p)[1] == 0.0
        # X becomes the pure drift integral
        assert abs(path.X[-1, 0] - 1.0) < 1e-12

    def test_end_value_means(self, critical_params):
        M = 400
        y1 = np.empty(M)
        x1 = np.empty(M)
        for r in range(M):
            path = simulate_critical_limit(critical_params, seed=substream(3, r))
            y1[r], x1[r] = path.Y[-1], path.X[-1, 0]
        se_y = y1.std(ddof=1) / math.sqrt(M)
        se_x = x1.std(ddof=1) / math.sqrt(M)
        assert abs(y1.mean() - 2.0) <= 3.0 * se_y
        assert abs(x1.mean() - 1.0) <= 3.0 * se_x

    def test_cauchy_schwarz_on_quadrature(self, critical_params):
        for r in range(30):
            path = simulate_critical_limit(critical_params, seed=substream(21, r))
            int_y, int_yy = _int_y_yy(path, critical_params)
            assert int_yy >= int_y**2 - 1e-12

    def test_fine_delta_guard(self, critical_params):
        with pytest.raises(InvalidGridError):
            simulate_critical_limit(critical_params, seed=1, fine_delta=0.01)

    def test_scaling_identity_ks(self, critical_params):
        # (Y1, int Y) of the [0,1] limit process vs the horizon-T path
        # functionals (Y_T/T, T^-2 int Y) of the zero-started process, read
        # from that path rescaled to [0, 1] (time and state divided by T)
        M = 2000
        T = 40.0
        p0 = ModelParams(n=1, a=2.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
                         rho=[[1.0, 0.0], [0.2, 0.9]], y0=0.0, x0=0.0)
        lim_y1 = np.empty(M)
        lim_iy = np.empty(M)
        path_y1 = np.empty(M)
        path_iy = np.empty(M)
        for r in range(M):
            lim = simulate_critical_limit(p0, seed=substream(500, r))
            lim_y1[r], lim_iy[r] = lim.Y[-1], _int_y_yy(lim, p0)[0]
            path = simulate_path(p0, T, 0.04, seed=substream(501, r))
            scaled = Path(path.delta / T, path.times / T, path.states / T, path.seed,
                          path.params_hash)
            path_y1[r], path_iy[r] = scaled.Y[-1], _int_y_yy(scaled, p0)[0]
        assert ks_two_sample(lim_y1, path_y1) < 0.1
        assert ks_two_sample(lim_iy, path_iy) < 0.1


class TestIncrementProbe:
    def test_keys_are_made_a_batch_at_a_time(self, monkeypatch, subcritical_params):
        # a list of every replication's key used to come before the first path
        seen = keys_at_first_path(monkeypatch, simulate, simulate)
        with pytest.raises(FirstPath):
            increment_moment_probe(subcritical_params, 2.0, [(0.0, 0.5)], delta=0.01,
                                   replications=10**6, seed=4)
        assert seen == [simulate.batch_width(50)]

    def test_zero_lag_is_zero(self, subcritical_params):
        out = increment_moment_probe(
            subcritical_params, 2.0, [(0.5, 0.5)], delta=0.01,
            replications=20, seed=4,
        )
        assert out[0].value == 0.0

    @pytest.mark.parametrize("pair, delta", [((0.0, 0.0), 0.01), ((0.0, 0.5), 1.0)])
    def test_pairs_snapped_to_index_zero_are_zero(self, subcritical_params, pair, delta):
        # every pair snaps to index 0 (0.5 rounds to 0 on a grid of 1.0);
        # this used to ask simulate_paths for a zero horizon
        out = increment_moment_probe(subcritical_params, 2.0, [pair], delta=delta,
                                     replications=4, seed=4)
        assert (out[0].value, out[0].std_error) == (0.0, 0.0)

    def test_q1_sqrt_scaling_ratio(self, subcritical_params):
        out = increment_moment_probe(
            subcritical_params, 1.0, [(1.0, 1.01), (1.0, 1.04)], delta=0.01,
            replications=800, seed=12,
        )
        ratio = out[0].value / out[1].value
        assert abs(ratio - 0.5) <= 0.125  # within 25 percent of 1/2

    @pytest.mark.parametrize("pairs, replications", [
        ([(0.0, 0.5)], 0),
        ([(0.0, 0.5)], -2),
        ([], 10),
    ])
    def test_bad_inputs_are_grid_errors(self, subcritical_params, pairs, replications):
        with pytest.raises(InvalidGridError):
            increment_moment_probe(subcritical_params, 2.0, pairs, delta=0.01,
                                   replications=replications, seed=4)


    @pytest.mark.parametrize("delta", [0.0, -0.01])
    def test_nonpositive_delta_is_a_grid_error(self, subcritical_params, delta):
        # delta = 0 used to raise ZeroDivisionError
        with pytest.raises(InvalidGridError):
            increment_moment_probe(subcritical_params, 2.0, [(0.0, 0.5)], delta=delta,
                                   replications=4, seed=4)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.nan, math.inf])
    def test_q_not_finite_and_positive_is_a_grid_error(self, subcritical_params, q):
        # q = 0 gave 1.0 at s = t, q = -1 divided by zero and q = nan
        # returned nan
        with pytest.raises(InvalidGridError, match="q must be"):
            increment_moment_probe(subcritical_params, q, [(0.5, 0.5), (0.0, 0.5)],
                                   delta=0.01, replications=4, seed=4)

    def test_negative_s_is_a_grid_error(self, subcritical_params):
        # s = -0.1 used to snap to index -10 and read states[-10], counted
        # from the end of the path
        with pytest.raises(InvalidGridError):
            increment_moment_probe(subcritical_params, 2.0, [(-0.1, 0.1)], delta=0.01,
                                   replications=4, seed=1)

    def test_t_snapped_past_max_t(self, subcritical_params):
        # t = 0.5 snaps to index 2, i.e. t = 0.6 > 0.5, on a 0.3 grid; the
        # paths reach it (this used to raise IndexError)
        out = increment_moment_probe(subcritical_params, 2.0, [(0.0, 0.5)], delta=0.3,
                                     replications=4, seed=4)
        want = [np.sum(np.abs(p.states[2] - p.states[0])) ** 2.0
                for p in (simulate_path(subcritical_params, 0.6, 0.3, substream(4, r))
                          for r in range(4))]
        assert out[0].value == pytest.approx(np.mean(want), rel=1e-14)


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

    def test_sidecar_delta_off_the_grid_is_rejected(self, tmp_path, subcritical_params):
        # a sidecar delta of 0.02 on a 0.01 grid used to halve every estimate
        path = simulate_path(subcritical_params, 1.0, 0.01, seed=substream(8, 3))
        f = str(tmp_path / "path.csv")
        write_path_csv(path, f, sidecar={"delta": 0.02})
        with pytest.raises(InvalidGridError, match="sidecar delta"):
            read_path_csv(f)

    def test_sidecar_delta_on_the_grid_is_taken_exactly(self, tmp_path, subcritical_params):
        # within the grid's uniformity tolerance the sidecar's step wins
        path = simulate_path(subcritical_params, 1.0, 0.01, seed=substream(8, 4))
        f = str(tmp_path / "path.csv")
        step = float(np.nextafter(0.01, 1.0))
        write_path_csv(path, f, sidecar={"delta": step})
        assert read_path_csv(f).delta == step

    def test_file_without_x_column_is_rejected(self, tmp_path):
        # a t,Y file used to read as an n = 0 path
        f = tmp_path / "no_x.csv"
        f.write_text("t,Y\n0,1.0\n0.05,1.1\n0.1,0.9\n")
        with pytest.raises(DimensionMismatchError, match="got 2"):
            read_path_csv(str(f))


class TestBatches:
    """simulate_paths advances up to batch_width paths side by side; each
    path must keep the bits simulate_path gives it alone."""

    N1 = dict(n=1, a=2.0, b=1.0, m=[1.0], kappa=[0.5], theta=[[2.0]],
              rho=[[1.0, 0.0], [0.2, 0.9]], y0=2.0, x0=0.25)
    N2 = dict(n=2, a=2.0, b=1.5, m=[2.0, -1.5], kappa=[0.2, 0.1],
              theta=[[2.0, 0.3], [0.1, 1.2]],
              rho=[[1.0, 0.0, 0.0], [0.2, 0.8, 0.0], [-0.1, 0.15, 0.7]],
              y0=1.5, x0=[0.5, -1.0])
    CASES = ("df_above_1", "df_1", "df_below_1", "zero_start_b0", "theta0_drifting_y")

    def _params(self, name, n):
        p = dict(self.N1 if n == 1 else self.N2)
        if name == "df_1":  # df = 4a / rho_11^2
            p.update(a=0.25)
        elif name == "df_below_1":
            p.update(a=0.15, y0=0.5)
        elif name == "zero_start_b0":
            p.update(b=0.0, kappa=np.zeros(n), theta=np.zeros((n, n)), y0=0.0,
                     x0=np.zeros(n))
        elif name == "theta0_drifting_y":
            p.update(theta=np.zeros((n, n)))
        return ModelParams(**p)

    @pytest.mark.parametrize("width", [1, LOCKSTEP_MIN - 1, LOCKSTEP_MIN + 3])
    def test_running_sum_equals_matrix_recursion(self, monkeypatch, width):
        # theta = 0 with b, kappa != 0: e^{-theta dt} = 1 and k~ Y != 0
        params = self._params("theta0_drifting_y", 1)
        seeds = [substream(78, 3 * j) for j in range(width)]

        def stepped(*args):
            raise AssertionError("e^{-theta dt} = 1 must take the running sum")

        monkeypatch.setattr(simulate, "_x_pass_scalar", stepped)
        paths = list(simulate_paths(params, 0.4, 0.02, seeds))
        assert [p.X.tobytes() for p in paths] == [_stepped_x(params, p).tobytes() for p in paths]

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("n, stepped", [(1, False), (1, True), (2, False)])
    @pytest.mark.parametrize("width", [1, LOCKSTEP_MIN - 1, LOCKSTEP_MIN + 3])
    def test_batch_paths_equal_single_paths(self, name, n, stepped, width):
        # stepped: each n = 1 path also keeps the stepped recursion's bits
        params = self._params(name, n)
        seeds = [substream(77, 5 * j + 1) for j in range(width)]
        paths = list(simulate_paths(params, 0.4, 0.02, seeds))
        assert [p.seed for p in paths] == seeds
        for seed, got in zip(seeds, paths):
            want = simulate_path(params, 0.4, 0.02, seed)
            assert got.states.flags.c_contiguous
            assert got.states.tobytes() == want.states.tobytes()
            assert got.times.tobytes() == want.times.tobytes()
            assert (got.delta, got.params_hash) == (want.delta, want.params_hash)
            if stepped:
                assert got.X.tobytes() == _stepped_x(params, got).tobytes()

    def test_seeds_spanning_several_batches(self, monkeypatch, critical_params):
        width = LOCKSTEP_MIN + 2
        steps = 50
        monkeypatch.setattr(simulate, "BATCH_BYTES", 8 * width * ((steps + 1) + steps))
        assert batch_width(steps) == width
        seeds = [substream(3, j) for j in range(2 * width + 5)]  # two lockstep, one narrow
        want = [simulate_path(critical_params, 1.0, 0.02, s).states.tobytes() for s in seeds]
        got = [p.states.tobytes() for p in simulate_paths(critical_params, 1.0, 0.02, seeds)]
        assert got == want

    @pytest.mark.parametrize("width", [1, LOCKSTEP_MIN + 2])
    def test_seeds_are_read_one_batch_at_a_time(self, monkeypatch, critical_params, width):
        # a generator that reads a queue feeds the forked path phase, so a
        # batch may take only the seeds it simulates
        steps = 50
        fit = width if width > 1 else LOCKSTEP_MIN - 1
        monkeypatch.setattr(simulate, "BATCH_BYTES", 8 * fit * ((steps + 1) + steps))
        assert batch_width(steps) == width
        seeds = [substream(5, j) for j in range(2 * width + 1)]
        handed = []

        def queue():
            for seed in seeds:
                handed.append(seed)
                yield seed

        for k, path in enumerate(simulate_paths(critical_params, 1.0, 0.02, queue())):
            assert path.seed == seeds[k]
            assert len(handed) == min(len(seeds), (k // width + 1) * width)
            want = simulate_path(critical_params, 1.0, 0.02, seeds[k])
            assert path.states.tobytes() == want.states.tobytes()
        assert k + 1 == len(handed) == len(seeds)

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("n, stepped", [(1, False), (1, True), (2, False)])
    def test_streamed_batch_paths_equal_single_paths(self, monkeypatch, name, n, stepped):
        # chunks of 7 steps: 27 paths of 20 steps fit their Y rows and one
        # chunk of normal rows, and draw their normals in three chunks;
        # stepped: each n = 1 path also keeps the stepped recursion's bits
        params = self._params(name, n)
        width, steps, chunk = LOCKSTEP_MIN + 3, 20, 7
        seeds = [substream(79, 2 * j) for j in range(width)]
        want = [simulate_path(params, 0.4, 0.02, s).states.tobytes() for s in seeds]
        monkeypatch.setattr(simulate, "STREAM_CHUNK", chunk)
        monkeypatch.setattr(simulate, "BATCH_BYTES", 8 * width * (steps + 1 + chunk))
        assert batch_width(steps) == width
        got = list(simulate_paths(params, 0.4, 0.02, seeds))
        assert [p.states.tobytes() for p in got] == want
        assert all(p.states.flags.c_contiguous for p in got)
        if stepped:
            assert [p.X.tobytes() for p in got] == [_stepped_x(params, p).tobytes() for p in got]

    def test_critical_limit_horizon_streams_in_lockstep(self, monkeypatch, critical_params):
        # the critical_limit benchmark's horizon: 40 paths of 10,000 steps
        def per_path(*args):
            raise AssertionError("a 40-path horizon must advance in lockstep")

        monkeypatch.setattr(simulate, "_y_pass", per_path)
        seeds = [substream(313, j) for j in range(40)]
        assert batch_width(10_000) == BATCH_PATHS == 40
        assert sum(1 for _ in simulate_paths(critical_params, 200.0, 0.02, seeds)) == 40

    def test_streamed_batch_draws_each_chi_square_block_once(self, monkeypatch,
                                                             critical_params):
        # the critical_limit benchmark's horizon, 40 paths of 10,000 steps at
        # df = 8: every generator made while it runs counts its chi-square
        # values, which must be each path's N and no more
        drawn = []

        class Counting(np.random.Generator):
            def chisquare(self, df, size=None):
                drawn.append(1 if size is None else size)
                return super().chisquare(df, size)

        monkeypatch.setattr(np.random, "Generator", Counting)
        seeds = [substream(313, j) for j in range(40)]
        assert sum(1 for _ in simulate_paths(critical_params, 200.0, 0.02, seeds)) == 40
        assert sum(drawn) == 40 * 10_000

    def test_sixteen_path_horizon_runs_path_by_path(self, monkeypatch, subcritical_params):
        # the subcritical_clt benchmark's width; its 25,000-step paths do
        # not even fit LOCKSTEP_MIN to a batch
        def lockstep(*args):
            raise AssertionError("a 16-path horizon must run path by path")

        monkeypatch.setattr(simulate, "_y_lockstep", lockstep)
        seeds = [substream(11, j) for j in range(16)]
        assert sum(1 for _ in simulate_paths(subcritical_params, 200.0, 0.02, seeds)) == 16
        assert batch_width(25_000) == 1

    def test_streamed_horizon_stays_in_its_rows(self, critical_params):
        # 40 paths of 10,000 steps, taken one at a time as the harness takes
        # them: the batch's Y rows, one chunk of normal rows, and one path's
        # states and five N-float temporaries
        N, B = 10_000, 40
        y_rows = 8 * B * (N + 1)
        chunk_rows = 8 * B * STREAM_CHUNK
        one_path = 8 * (N + 1) * 2 + 5 * 8 * N
        seeds = [substream(313, j) for j in range(B)]
        simulate_path(critical_params, 200.0, 0.02, seeds[0])  # fill the caches
        tracemalloc.start()
        try:
            for _ in map(lambda path: None,
                         simulate_paths(critical_params, 200.0, 0.02, seeds)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < y_rows + chunk_rows + one_path

    def test_limit_draws_stay_in_the_byte_budget(self, critical_params):
        # the critical_limit benchmark's 160 x 1000-step limit draws; its
        # peak_rss_mb may rise by 5% (~3 MB), and a 1.25 MiB batch adds ~0.6 MB
        budget = 1_310_720
        slack = 128 << 10  # one path's dB^J, dB^1 and noise temporaries
        seeds = [substream(313, 40 + j) for j in range(160)]
        def draw(path):
            return critical_limit_functional(path, critical_params.a,
                                             critical_params.m).limit_draw()

        draw(next(simulate_critical_limits(critical_params, seeds[:1])))  # fill the caches
        tracemalloc.start()
        try:
            # path -> draw through map, as the harness consumes the paths: a
            # bare for loop would hold the last path of a batch, and with it
            # the whole batch, while the next batch is simulated
            for _ in map(draw, simulate_critical_limits(critical_params, seeds)):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < budget + slack


@pytest.mark.parametrize("seed", [-3, 2**64, (1, -1), (2**64, 0), (1, 2, 3),
                                  1.7, True, (1.5, 2)])
def test_seed_outside_uint64_is_a_grid_error(seed):
    # the out-of-range ones used to raise OverflowError; 1.7, True and
    # (1.5, 2) were truncated to a stream without a word
    with pytest.raises(InvalidGridError):
        generator(seed)


def test_largest_seed_is_accepted():
    a, b = generator(2**64 - 1), generator((2**64 - 1, 0))
    assert a.bit_generator.random_raw(4).tolist() == b.bit_generator.random_raw(4).tolist()


class TestStreamInvariants:
    """numpy behaviour that streamed batches rely on: a block drawn in
    chunks holds the values of the block drawn whole and leaves the
    generator where the whole draw leaves it."""

    N = 2 * STREAM_CHUNK + 37

    @staticmethod
    def _chunks(draw, N, step):
        return np.concatenate([draw(min(step, N - k)) for k in range(0, N, step)])

    @pytest.mark.parametrize("dof", [0.2, 1.0, 7.0])
    @pytest.mark.parametrize("step", [1, 7, STREAM_CHUNK])
    def test_chunked_chisquare_equals_whole_block(self, dof, step):
        whole, chunked = generator(substream(5, 1)), generator(substream(5, 1))
        want = whole.chisquare(dof, size=self.N)
        got = self._chunks(lambda m: chunked.chisquare(dof, size=m), self.N, step)
        assert got.tobytes() == want.tobytes()
        assert chunked.bit_generator.random_raw(8).tolist() == \
            whole.bit_generator.random_raw(8).tolist()

    @pytest.mark.parametrize("step", [1, 7, STREAM_CHUNK])
    def test_chunked_normals_equal_whole_block(self, step):
        whole, chunked = generator(substream(5, 2)), generator(substream(5, 2))
        want = whole.standard_normal(self.N)
        got = self._chunks(chunked.standard_normal, self.N, step)
        assert got.tobytes() == want.tobytes()
        assert chunked.bit_generator.random_raw(8).tolist() == \
            whole.bit_generator.random_raw(8).tolist()


class TestRunningSum:
    """At e^{-theta dt} = 1 the n = 1 X recursion is a running sum; it must
    give the bits of the stepped recursion."""

    @pytest.mark.parametrize("N", [1, 7, CHUNK, 2 * CHUNK + 37])
    @pytest.mark.parametrize("x0", [0.75, -0.0])
    @pytest.mark.parametrize("mt0", [0.0125, 0.0, -0.0])
    @pytest.mark.parametrize("k_y_kind", ["zero", "random"])
    def test_bit_equal_to_stepped_recursion(self, N, x0, mt0, k_y_kind):
        rng = np.random.default_rng(N)
        k_y = np.zeros(N) if k_y_kind == "zero" else rng.gamma(2.0, 0.01, size=N)
        noise = rng.normal(scale=0.1, size=N)
        want, got = np.full(N + 1, x0), np.full(N + 1, x0)
        _x_pass_scalar(want, 1.0, mt0, k_y, noise)
        _x_running_sum(got, mt0, k_y, noise)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mt0", [0.0, -0.0])
    @pytest.mark.parametrize("nz", [0.0, -0.0])
    def test_signed_zeros(self, mt0, nz):
        want, got = np.full(4, -0.0), np.full(4, -0.0)
        _x_pass_scalar(want, 1.0, mt0, np.zeros(3), np.full(3, nz))
        _x_running_sum(got, mt0, np.zeros(3), np.full(3, nz))
        assert got.tobytes() == want.tobytes()

    def test_writes_a_strided_column(self):
        rng = np.random.default_rng(5)
        states = np.zeros((CHUNK + 3, 2))
        states[0, 1] = 0.3
        k_y, noise = rng.random(CHUNK + 2), rng.normal(size=CHUNK + 2)
        want = states[:, 1].copy()
        _x_pass_scalar(want, 1.0, 0.01, k_y, noise)
        _x_running_sum(states[:, 1], 0.01, k_y, noise)
        assert states[:, 1].tobytes() == want.tobytes()
        assert not states[:, 0].any()
