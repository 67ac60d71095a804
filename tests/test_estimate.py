import math

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from ad1n import (
    Path,
    clse_solve,
    design_blocks,
    error_term,
    estimate_blocks,
    estimate_path,
    g_inverse,
    g_map,
    simulate_path,
    stack_drift_fields,
    stack_tau,
    substream,
    tilde_regression,
)
from ad1n.estimate import DesignBlocks, TildeParams
from ad1n.errors import (
    ConfigError,
    DegeneratePathError,
    DimensionMismatchError,
    LogDomainError,
    PathTooShortError,
    SingularBlocksError,
)
from ad1n import estimate as estimate_module
from ad1n import _matfun
from ad1n.model import COND_LIMIT, drift_design_row

from conftest import random_subcritical


def _path_from_states(states, delta=0.1):
    states = np.asarray(states, dtype=float)
    times = np.arange(states.shape[0]) * delta
    return Path(delta=delta, times=times, states=states, seed=0, params_hash="")


def _random_path(rng, n, N, delta=0.1):
    Y = np.abs(rng.normal(size=N + 1)) + 0.1
    X = rng.normal(size=(N + 1, n))
    return _path_from_states(np.column_stack([Y, X]), delta)


def _stacked_lstsq(path):
    """Generic least-squares oracle for the one-step extremum problem."""
    N = path.n_steps
    A = np.vstack([
        path.delta * drift_design_row(path.states[k, 0], path.states[k, 1:])
        for k in range(N)
    ])
    y = np.diff(path.states, axis=0).ravel()
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return sol


def test_unknown_flavor_is_a_config_error():
    path = _random_path(np.random.default_rng(3), 1, 30)
    with pytest.raises(ConfigError):
        estimate_path(path, "exact-conditional")


class TestEstimateBlocks:
    @pytest.mark.parametrize("flavor", ["discrete", "exact"])
    def test_singular_blocks_raise_singular_blocks_error(self, flavor):
        # equal rows: equilibration leaves an exactly singular matrix
        blocks = DesignBlocks(
            G1=np.ones((2, 2)), f1=np.ones(2), G2=np.ones((3, 3)), f2=np.ones((3, 1)),
            horizon=1.0, step=0.1, n_steps=10, cond1=1.0, cond2=1.0,
        )
        with pytest.raises(SingularBlocksError):
            estimate_blocks(blocks, flavor)


class TestDesignBlocks:
    def test_constant_path_is_degenerate(self):
        states = np.tile([1.5, 0.3], (10, 1))
        with pytest.raises(DegeneratePathError):
            design_blocks(_path_from_states(states))

    def test_too_short(self):
        states = np.array([[1.0, 0.0], [1.1, 0.1]])
        with pytest.raises(PathTooShortError):
            design_blocks(_path_from_states(states))

    def test_toy_path_hand_accumulation(self):
        # n = 1, N = 3: brute-force every entry of the systems
        states = np.array([[1.0, 0.5], [2.0, -0.5], [0.5, 1.5], [1.5, 1.0]])
        path = _path_from_states(states, delta=0.2)
        blocks = design_blocks(path)
        Y, X = states[:, 0], states[:, 1]
        G2 = np.zeros((3, 3))
        for k in range(1, 4):
            reg = np.array([1.0, -Y[k - 1], -X[k - 1]])
            G2 += np.outer(reg, reg)
        # sign conventions: first row of f2 telescopes, rest are negated sums
        f2_expected = np.array([
            [X[3] - X[0]],
            [-np.sum(Y[:-1] * np.diff(X))],
            [-np.sum(X[:-1] * np.diff(X))],
        ])
        assert np.allclose(blocks.G2, G2, atol=1e-12)
        assert np.allclose(blocks.f2, f2_expected, atol=1e-12)
        assert blocks.f1[0] == Y[3] - Y[0]

    def test_phi1_first_entry_telescopes(self):
        rng = np.random.default_rng(0)
        path = _random_path(rng, 2, 30)
        blocks = design_blocks(path)
        assert np.isclose(blocks.f1[0], path.Y[-1] - path.Y[0], atol=1e-14)

    def test_gamma_quadratic_form_nonnegative(self):
        rng = np.random.default_rng(5)
        path = _random_path(rng, 2, 40)
        blocks = design_blocks(path)
        for _ in range(20):
            x = rng.normal(size=2)
            ytest = rng.normal(size=4)
            assert x @ blocks.G1 @ x >= -1e-10
            assert ytest @ blocks.G2 @ ytest >= -1e-10


def _unit_diagonal(p, cond):
    """Symmetric p x p with unit diagonal (so equilibration leaves it as it
    is) and 2-norm condition number cond: eigenvalues 1 + r, 1 - r, 1, ..."""
    r = (cond - 1.0) / (cond + 1.0)
    u = np.eye(p)
    u[0, 1] = u[1, 0] = r
    return u


def _equilibrated_svd_cond(G):
    d = np.sqrt(np.abs(np.diag(G)))
    return np.linalg.cond(G / np.outer(d, d))


class TestDesignBlockGuard:
    @pytest.mark.parametrize("which", [0, 1])
    def test_raises_only_above_the_limit(self, monkeypatch, which):
        path = _random_path(np.random.default_rng(21), 1, 30)

        def blocks_at(cond):
            G = [_unit_diagonal(2, 2.0), _unit_diagonal(3, 2.0)]
            G[which] = _unit_diagonal(G[which].shape[0], cond)
            monkeypatch.setattr(estimate_module, "gram_blocks", lambda *sums: tuple(G))
            return design_blocks(path)

        blocks = blocks_at(0.1 * COND_LIMIT)  # cond 1e11
        assert (blocks.cond1, blocks.cond2)[which] == pytest.approx(0.1 * COND_LIMIT, rel=1e-4)
        with pytest.raises(DegeneratePathError):
            blocks_at(10.0 * COND_LIMIT)  # cond 1e13

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cond_agrees_with_svd_on_simulated_paths(self, n):
        params = random_subcritical(np.random.default_rng(30 + n), n)
        for rep in range(3):
            path = simulate_path(params, 20.0, 0.02, seed=substream(31, rep))
            blocks = design_blocks(path)
            for cond, G in ((blocks.cond1, blocks.G1), (blocks.cond2, blocks.G2)):
                assert cond == pytest.approx(_equilibrated_svd_cond(G), rel=1e-5)


class TestClseSolve:
    def test_consistent_linear_system_recovery(self):
        # phi built from Gamma times known coefficients exactly
        rng = np.random.default_rng(1)
        path = _random_path(rng, 1, 25)
        blocks = design_blocks(path)
        coeff_ab = np.array([0.4, -0.7])
        coeff_x = np.array([[0.3], [1.1], [-0.6]])
        tweaked = DesignBlocks(
            G1=blocks.G1, f1=blocks.G1 @ coeff_ab * blocks.step,
            G2=blocks.G2, f2=blocks.G2 @ coeff_x * blocks.step,
            horizon=blocks.horizon, step=blocks.step,
            n_steps=blocks.n_steps, cond1=blocks.cond1, cond2=blocks.cond2,
        )
        est = clse_solve(tweaked)
        want = stack_drift_fields(0.4, -0.7, [0.3], [1.1], [[-0.6]])
        assert np.max(np.abs(est.tau_hat - want)) < 1e-12

    def test_matches_generic_least_squares(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            path = _random_path(rng, 2, 50)
            est = clse_solve(design_blocks(path))
            oracle = _stacked_lstsq(path)
            assert np.max(np.abs(est.tau_hat - oracle)) < 1e-9

    def test_continuous_flavor_equals_discrete(self):
        rng = np.random.default_rng(3)
        path = _random_path(rng, 1, 40)
        e1 = estimate_path(path, "discrete")
        e2 = estimate_path(path, "continuous")
        assert e1.tau_hat.tobytes() == e2.tau_hat.tobytes()

    def test_mc_consistency_subcritical(self, subcritical_params):
        # threshold 0.35 frozen from the MC oracle: the sandwich gives the
        # theta coordinate alone an asymptotic sd of ~0.097 at T=500, and
        # the measured 95th percentile of the max-abs error is ~0.30
        truth = stack_tau(subcritical_params)
        hits = 0
        for r in range(100):
            path = simulate_path(subcritical_params, 500.0, 0.02,
                                 seed=substream(321, r))
            est = estimate_path(path, "discrete")
            if np.max(np.abs(est.tau_hat - truth)) < 0.35:
                hits += 1
        assert hits >= 95

    def test_affine_equivariance_in_x(self):
        # noiseless data generated by state propagation; shifting X by c
        # moves m_hat by theta_hat @ c and leaves b_hat, kappa_hat alone
        rng = np.random.default_rng(4)
        tau = stack_drift_fields(1.0, 0.5, [0.4, -0.2], [0.3, 0.1],
                                 [[1.2, 0.2], [-0.1, 0.8]])
        states = np.zeros((40, 3))
        states[0] = [1.0, 0.2, -0.4]
        Yv = np.abs(rng.normal(size=40)) + 0.1
        states[:, 0] = Yv
        for k in range(39):
            lam = drift_design_row(states[k, 0], states[k, 1:])
            step = 0.05 * (lam @ tau)
            states[k + 1, 1:] = states[k, 1:] + step[1:]
        base = clse_solve(design_blocks(_path_from_states(states, 0.05)))
        c = np.array([0.7, -1.3])
        shifted = states.copy()
        shifted[:, 1:] += c
        est = clse_solve(design_blocks(_path_from_states(shifted, 0.05)))
        assert np.allclose(est.b, base.b, atol=1e-8)
        assert np.allclose(est.kappa, base.kappa, atol=1e-8)
        assert np.allclose(est.theta, base.theta, atol=1e-8)
        assert np.allclose(est.m, base.m + base.theta @ c, atol=1e-8)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(6)
        path = _random_path(rng, 2, 50)
        est = clse_solve(design_blocks(path))
        perm = [1, 0]
        swapped = path.states.copy()
        swapped[:, 1:] = swapped[:, 1:][:, perm]
        est_p = clse_solve(design_blocks(_path_from_states(swapped, path.delta)))
        P = np.eye(2)[perm]
        assert np.allclose(est_p.m, est.m[perm], atol=1e-9)
        assert np.allclose(est_p.kappa, est.kappa[perm], atol=1e-9)
        assert np.allclose(est_p.theta, P @ est.theta @ P.T, atol=1e-9)


class TestGMap:
    def test_zero_drift_degenerate(self):
        t = g_map(0.5, 0.0, [0.3, -0.2], [1.0, 2.0], np.zeros((2, 2)), h=0.1)
        assert t.a == pytest.approx(0.05, abs=1e-15)
        assert t.b == 0.0
        assert np.allclose(t.theta, 0.0)
        assert np.allclose(t.kappa, [0.1, 0.2], atol=1e-15)

    def test_against_quadrature_oracle(self):
        # n = 1 numeric point, defining integrals by adaptive quadrature
        a, b, th, kap, m, h = 2.0, 1.0, 3.0, 0.5, 1.0, 0.1
        t = g_map(a, b, [m], [kap], [[th]], h)
        a_q, _ = scipy.integrate.quad(lambda u: a * math.exp(-b * u), 0, h)
        k_q, _ = scipy.integrate.quad(
            lambda u: math.exp(-b * u) * math.exp(th * (u - h)) * kap, 0, h
        )
        m_q1, _ = scipy.integrate.quad(lambda u: math.exp(-th * u) * m, 0, h)
        m_q2, _ = scipy.integrate.quad(
            lambda u: ((1 - math.exp(-b * u)) / b) * math.exp(th * (u - h)) * kap,
            0, h,
        )
        assert abs(t.a - a_q) < 1e-12
        assert abs(t.b - (1 - math.exp(-b * h))) < 1e-15
        assert abs(t.theta[0, 0] - (1 - math.exp(-th * h))) < 1e-15
        assert abs(t.kappa[0] - k_q) < 1e-12
        assert abs(t.m[0] - (m_q1 - a * m_q2)) < 1e-12

    def test_quadrature_oracle_b_zero(self):
        a, th, kap, m, h = 1.5, 2.0, 0.7, -0.4, 0.05
        t = g_map(a, 0.0, [m], [kap], [[th]], h)
        m_q1, _ = scipy.integrate.quad(lambda u: math.exp(-th * u) * m, 0, h)
        m_q2, _ = scipy.integrate.quad(
            lambda u: u * math.exp(th * (u - h)) * kap, 0, h
        )
        assert abs(t.m[0] - (m_q1 - a * m_q2)) < 1e-12


@pytest.mark.parametrize("h", [math.nan, math.inf, -0.0])
def test_step_not_finite_and_positive_is_rejected(h):
    # nan gave all-nan coefficients, inf nan m~ and k~ with RuntimeWarnings,
    # and g_inverse at inf returned (0.0, 0.0, nan, nan, 0.0)
    tilde = g_map(2.0, 1.0, [1.0], [0.5], [[2.0]], 0.02)
    with pytest.raises(DimensionMismatchError):
        g_map(2.0, 1.0, [1.0], [0.5], [[2.0]], h)
    with pytest.raises(DimensionMismatchError):
        g_inverse(tilde, h)


class TestGInverse:
    def test_zero_fixed_point(self):
        t = TildeParams(a=0.0, b=0.0, m=np.zeros(2), kappa=np.zeros(2),
                        theta=np.zeros((2, 2)))
        a, b, m, kap, th = g_inverse(t, 0.05)
        assert a == 0.0 and b == 0.0
        assert np.allclose(m, 0.0) and np.allclose(kap, 0.0) and np.allclose(th, 0.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-1.0, 2.0)
            m = rng.normal(size=2)
            kap = rng.normal(size=2)
            th = rng.normal(size=(2, 2)) + np.diag([1.5, 2.5])
            t = g_map(a, b, m, kap, th, h=0.05)
            a2, b2, m2, k2, th2 = g_inverse(t, 0.05)
            assert abs(a2 - a) < 1e-10 and abs(b2 - b) < 1e-10
            assert np.max(np.abs(m2 - m)) < 1e-10
            assert np.max(np.abs(k2 - kap)) < 1e-10
            assert np.max(np.abs(th2 - th)) < 1e-10

    #: worst |tau back - tau| / max|tau| per (n, h) over the set below when
    #: scipy computed the n >= 2 matrix functions
    ROUND_TRIP_AT_SCIPY = {(2, 0.02): 3.52e-14, (2, 0.1): 1.47e-14, (2, 1.0): 5.14e-14,
                           (3, 0.02): 2.10e-12, (3, 0.1): 2.56e-13, (3, 1.0): 1.42e-12}

    @pytest.mark.parametrize("n", [2, 3])
    def test_round_trip_no_worse_than_with_scipy(self, n):
        rng = np.random.default_rng(70 + n)
        worst = dict.fromkeys((0.02, 0.1, 1.0), 0.0)
        for _ in range(40):
            a, b = rng.uniform(0.1, 3.0), rng.uniform(-1.0, 2.0)
            m, kappa = rng.normal(size=n), rng.normal(size=n)
            th = rng.normal(scale=0.5, size=(n, n)) + np.diag(rng.uniform(0.5, 2.5, n))
            tau = stack_drift_fields(a, b, m, kappa, th)
            for h in worst:
                back = stack_drift_fields(*g_inverse(g_map(a, b, m, kappa, th, h), h))
                worst[h] = max(worst[h], np.max(np.abs(back - tau)) / np.max(np.abs(tau)))
        for h, err in worst.items():
            assert err <= self.ROUND_TRIP_AT_SCIPY[n, h], (h, err)

    def test_log_domain_error(self):
        t = TildeParams(a=0.1, b=1.5, m=np.zeros(1), kappa=np.zeros(1),
                        theta=np.zeros((1, 1)))
        with pytest.raises(LogDomainError):
            g_inverse(t, 0.1)
        t2 = TildeParams(a=0.1, b=0.1, m=np.zeros(1), kappa=np.zeros(1),
                         theta=np.array([[1.5]]))  # I - theta~ = -0.5 < 0
        with pytest.raises(LogDomainError):
            g_inverse(t2, 0.1)

    def test_scalar_log_matches_logm_bit_for_bit(self):
        # at n = 1 g_inverse takes np.log of the 1x1 matrix in place of logm
        rng = np.random.default_rng(15)
        for v in np.exp(rng.uniform(-12.0, 12.0, size=10_000)):
            A = np.array([[v]])
            assert np.log(A).tobytes() == scipy.linalg.logm(A).tobytes()
        for th in rng.uniform(-5.0, 5.0, size=50):
            t = TildeParams(a=0.1, b=0.05, m=np.array([0.2]), kappa=np.array([0.3]),
                            theta=np.array([[-math.expm1(-0.1 * th)]]))
            want = -np.real(scipy.linalg.logm(1.0 - t.theta)) / 0.1
            assert g_inverse(t, 0.1)[4].tobytes() == want.tobytes()

    def test_exact_flavor_converges_to_discrete_as_h_shrinks(self, subcritical_params):
        # same data thinned to steps h = 0.1, 0.05, 0.025; the gap between
        # the exact-conditional and discrete estimates shrinks like O(h)
        fine = simulate_path(subcritical_params, 400.0, 0.025, seed=substream(60, 0))
        gaps = []
        for stride in (4, 2, 1):
            states = fine.states[::stride]
            path = _path_from_states(states, delta=0.025 * stride)
            d = estimate_path(path, "discrete")
            e = estimate_path(path, "exact")
            gaps.append(np.max(np.abs(d.tau_hat - e.tau_hat)))
        assert gaps[2] < gaps[1] < gaps[0]
        assert 0.2 < gaps[1] / gaps[0] < 0.8  # roughly halves with h


class TestErrorTerm:
    def test_exact_match_is_zero(self):
        est = clse_solve(design_blocks(_random_path(np.random.default_rng(9), 1, 30)))
        assert np.all(error_term(est, est.tau_hat) == 0.0)

    def test_unit_offset_in_a(self):
        est = clse_solve(design_blocks(_random_path(np.random.default_rng(10), 1, 30)))
        truth = est.tau_hat.copy()
        truth[0] -= 1.0
        err = error_term(est, truth)
        assert np.allclose(err, np.eye(5)[0], atol=1e-15)

    def test_random_pair_subtraction(self):
        rng = np.random.default_rng(11)
        est = clse_solve(design_blocks(_random_path(rng, 2, 40)))
        truth = rng.normal(size=est.tau_hat.shape[0])
        assert np.allclose(error_term(est, truth), est.tau_hat - truth, atol=1e-16)

    def test_dimension_mismatch(self):
        est = clse_solve(design_blocks(_random_path(np.random.default_rng(12), 1, 30)))
        with pytest.raises(DimensionMismatchError):
            error_term(est, np.zeros(7))


def test_matrix_functions_match_eigendecomposition():
    # expm / logm used under the hood agree with the eigenbasis evaluation
    rng = np.random.default_rng(13)
    for _ in range(5):
        th = np.diag(rng.uniform(0.5, 2.0, size=3)) + rng.uniform(-0.1, 0.1, (3, 3))
        w, v = np.linalg.eig(th)
        expm_eig = (v * np.exp(w)) @ np.linalg.inv(v)
        assert np.max(np.abs(_matfun.expm(th) - expm_eig.real)) < 1e-10
        A = np.eye(3) + 0.3 * th
        logm_eig = (np.linalg.eig(A)[1] * np.log(np.linalg.eig(A)[0])) @ \
            np.linalg.inv(np.linalg.eig(A)[1])
        assert np.max(np.abs(_matfun.logm(A) - logm_eig.real)) < 1e-9


def test_tilde_regression_vs_scaled_solve():
    rng = np.random.default_rng(14)
    path = _random_path(rng, 1, 60, delta=0.05)
    t = tilde_regression(path)
    est = clse_solve(design_blocks(path))
    assert abs(t.a / path.delta - est.a) < 1e-9
    assert abs(t.b / path.delta - est.b) < 1e-9
