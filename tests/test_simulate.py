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
from ad1n.errors import InvalidGridError
from ad1n.harness import ks_two_sample
from ad1n.moments import TildeFrame, point_initial_moments, transient_moment
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


class TestBatches:
    """simulate_paths advances up to batch_width paths side by side; each
    path must keep the bits simulate_path gives it alone."""

    N1 = dict(n=1, a=2.0, b=1.0, m=[1.0], kappa=[0.5], theta=[[2.0]],
              rho=[[1.0, 0.0], [0.2, 0.9]], y0=2.0, x0=0.25)
    N2 = dict(n=2, a=2.0, b=1.5, m=[2.0, -1.5], kappa=[0.2, 0.1],
              theta=[[2.0, 0.3], [0.1, 1.2]],
              rho=[[1.0, 0.0, 0.0], [0.2, 0.8, 0.0], [-0.1, 0.15, 0.7]],
              y0=1.5, x0=[0.5, -1.0])
    CASES = ("df_above_1", "df_1", "df_below_1", "zero_start_b0", "callable_start",
             "theta0_drifting_y")

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
        elif name == "callable_start":
            p.update(y0=lambda rng: float(rng.gamma(8.0, 0.25)),
                     x0=lambda rng: rng.normal(size=n))
        return ModelParams(**p)

    @pytest.mark.parametrize("width", [1, LOCKSTEP_MIN - 1, LOCKSTEP_MIN + 3])
    def test_running_sum_equals_matrix_recursion(self, monkeypatch, width):
        # theta = 0 with b, kappa != 0: e^{-theta dt} = 1 and k~ Y != 0
        params = self._params("theta0_drifting_y", 1)
        seeds = [substream(78, 3 * j) for j in range(width)]
        want = [simulate_path(params, 0.4, 0.02, s, _force_general=True).states.tobytes()
                for s in seeds]

        def stepped(*args):
            raise AssertionError("e^{-theta dt} = 1 must take the running sum")

        monkeypatch.setattr(simulate, "_x_pass_scalar", stepped)
        assert [p.states.tobytes() for p in simulate_paths(params, 0.4, 0.02, seeds)] == want

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("n, force", [(1, False), (1, True), (2, False)])
    @pytest.mark.parametrize("width", [1, LOCKSTEP_MIN - 1, LOCKSTEP_MIN + 3])
    def test_batch_paths_equal_single_paths(self, name, n, force, width):
        params = self._params(name, n)
        seeds = [substream(77, 5 * j + 1) for j in range(width)]
        paths = list(simulate_paths(params, 0.4, 0.02, seeds, _force_general=force))
        assert [p.seed for p in paths] == seeds
        for seed, got in zip(seeds, paths):
            want = simulate_path(params, 0.4, 0.02, seed, _force_general=force)
            assert got.states.flags.c_contiguous
            assert got.states.tobytes() == want.states.tobytes()
            assert got.times.tobytes() == want.times.tobytes()
            assert (got.delta, got.params_hash) == (want.delta, want.params_hash)

    def test_seeds_spanning_several_batches(self, monkeypatch, critical_params):
        width = LOCKSTEP_MIN + 2
        steps = 50
        monkeypatch.setattr(simulate, "BATCH_BYTES", 8 * width * ((steps + 1) + steps))
        assert batch_width(steps) == width
        seeds = [substream(3, j) for j in range(2 * width + 5)]  # two lockstep, one narrow
        want = [simulate_path(critical_params, 1.0, 0.02, s).states.tobytes() for s in seeds]
        got = [p.states.tobytes() for p in simulate_paths(critical_params, 1.0, 0.02, seeds)]
        assert got == want

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("n, force", [(1, False), (1, True), (2, False)])
    def test_streamed_batch_paths_equal_single_paths(self, monkeypatch, name, n, force):
        # chunks of 7 steps: 27 paths of 20 steps fit their Y rows and one
        # chunk of normal rows, and draw their normals in three chunks
        params = self._params(name, n)
        width, steps, chunk = LOCKSTEP_MIN + 3, 20, 7
        seeds = [substream(79, 2 * j) for j in range(width)]
        want = [simulate_path(params, 0.4, 0.02, s, _force_general=force).states.tobytes()
                for s in seeds]
        monkeypatch.setattr(simulate, "STREAM_CHUNK", chunk)
        monkeypatch.setattr(simulate, "BATCH_BYTES", 8 * width * (steps + 1 + chunk))
        assert batch_width(steps) == width
        got = list(simulate_paths(params, 0.4, 0.02, seeds, _force_general=force))
        assert [p.states.tobytes() for p in got] == want
        assert all(p.states.flags.c_contiguous for p in got)

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


@pytest.mark.parametrize("seed", [-3, 2**64, (1, -1), (2**64, 0), (1, 2, 3)])
def test_seed_outside_uint64_is_a_grid_error(seed):
    # the out-of-range ones used to raise OverflowError
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
