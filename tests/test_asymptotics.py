import math

import numpy as np
import pytest

from ad1n import (
    ModelParams,
    Path,
    classify,
    critical_limit_functional,
    extract_supercritical_limits,
    normalizer,
    simulate_critical_limit,
    simulate_path,
    substream,
)
from ad1n.asymptotics import U_COND_LIMIT, CriticalLimitFunctional, symmetric_cond
from ad1n.errors import (
    InvalidGridError,
    NotStabilizedError,
    SingularUError,
    UnsupportedRegimeError,
)


class TestNormalizer:
    def test_subcritical_sqrt_t(self, subcritical_params):
        cls = classify(subcritical_params)
        nz = normalizer(cls, 4.0, subcritical_params)
        assert np.allclose(nz.Q, 2.0 * np.eye(5))

    def test_critical_identity_at_t_one(self, critical_params):
        cls = classify(critical_params)
        nz = normalizer(cls, 1.0, critical_params)
        assert np.allclose(nz.Q, np.eye(5))

    def test_critical_block_structure(self, critical_params):
        cls = classify(critical_params)
        nz = normalizer(cls, 10.0, critical_params)
        assert np.allclose(nz.diag, [1.0, 10.0, 1.0, 10.0, 10.0])

    def test_supercritical_hand_evaluated(self):
        # n = 1, b = -1, lam_min = -2, T = 1
        p = ModelParams(n=1, a=1.0, b=-1.0, m=[0.0], kappa=[0.0], theta=[[-2.0]],
                        rho=[[1.0, 0.0], [0.1, 1.0]])
        nz = normalizer(classify(p), 1.0, p)
        want = [
            1.0 * math.exp(-0.5),
            math.exp(0.5),
            1.0 * math.exp(-0.5),
            math.exp(0.5),
            math.exp((-1.0 + 4.0) / 2.0),
        ]
        assert np.allclose(nz.diag, want, rtol=1e-15)

    @pytest.mark.parametrize("T", [0.0, -1.0])
    def test_nonpositive_horizon(self, subcritical_params, T):
        with pytest.raises(InvalidGridError):
            normalizer(classify(subcritical_params), T, subcritical_params)

    def test_supercritical_outside_hypothesis(self):
        # lam_max(theta) > b: the displayed normalization does not apply
        p = ModelParams(n=1, a=1.0, b=-2.0, m=[0.0], kappa=[0.0], theta=[[-1.0]],
                        rho=[[1.0, 0.0], [0.1, 1.0]])
        with pytest.raises(UnsupportedRegimeError):
            normalizer(classify(p), 1.0, p)

    def test_determinism_and_invertibility(self, subcritical_params):
        cls = classify(subcritical_params)
        for T in (0.5, 3.0, 100.0):
            nz = normalizer(cls, T, subcritical_params)
            assert np.all(nz.diag > 0)
            nz2 = normalizer(cls, T, subcritical_params)
            assert np.array_equal(nz.diag, nz2.diag)


class TestSupercriticalLimits:
    @pytest.fixture()
    def extraction(self, supercritical_params):
        # delta small enough that the Euler growth-rate bias stays within
        # the 1 percent window tolerance
        cls = classify(supercritical_params)
        path = simulate_path(supercritical_params, 30.0, 0.002,
                             seed=substream(404, 0))
        lim = extract_supercritical_limits(path, supercritical_params, cls)
        return path, lim

    def test_v1_determinant_identity(self, extraction, supercritical_params):
        _, lim = extraction
        b = supercritical_params.b
        assert np.linalg.det(lim.v1) == pytest.approx(-lim.c1**2 / (2 * b), rel=1e-12)
        assert np.linalg.det(lim.v1) > 0

    def test_exponential_integral_consistency(self, extraction, supercritical_params):
        path, lim = extraction
        b = supercritical_params.b
        T = path.horizon
        val = math.exp(2 * b * T) * float(np.sum(path.Y[:-1] ** 2)) * path.delta
        want = -lim.c1**2 / (2 * b)
        assert abs(val - want) <= 0.05 * want

    def test_two_tail_windows_agree(self, extraction, supercritical_params):
        path, _ = extraction
        b = supercritical_params.b
        w = np.exp(b * path.times) * path.Y
        kA = int(0.8 * path.n_steps)
        kB = int(0.9 * path.n_steps)
        c1_a = float(np.mean(w[kA:kB]))
        c1_b = float(np.mean(w[kB:]))
        assert abs(c1_a / c1_b - 1.0) < 0.01

    def test_eta_etaT_psd(self, extraction):
        _, lim = extraction
        assert np.linalg.eigvalsh(lim.eta_etaT).min() > -1e-10

    def test_not_stabilized_raises_on_short_horizon(self, supercritical_params):
        cls = classify(supercritical_params)
        path = simulate_path(supercritical_params, 3.0, 0.002, seed=substream(404, 1))
        with pytest.raises(NotStabilizedError):
            extract_supercritical_limits(path, supercritical_params, cls)


class TestCriticalLimitFunctional:
    def test_r1_first_entry(self, critical_params):
        path = simulate_critical_limit(critical_params, seed=substream(7, 0))
        f = critical_limit_functional(path, critical_params.a, critical_params.m)
        assert f.r1[0] == path.Y[-1] - critical_params.a

    def test_u_blocks_psd(self, critical_params):
        for r in range(10):
            path = simulate_critical_limit(critical_params, seed=substream(7, r))
            f = critical_limit_functional(path, critical_params.a, critical_params.m)
            assert np.linalg.eigvalsh(f.u1).min() >= -1e-12
            assert np.linalg.eigvalsh(f.u2).min() >= -1e-12

    def test_degenerate_zero_process_singular(self):
        n = 1
        N = 1000
        zero = Path(1.0 / N, np.arange(N + 1) / N, np.zeros((N + 1, n + 1)), None, "")
        f = critical_limit_functional(zero, 0.0, np.zeros(n))
        assert np.allclose(f.u1, [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(SingularUError):
            f.limit_draw()

    def test_limit_draw_layout(self, critical_params):
        path = simulate_critical_limit(critical_params, seed=substream(8, 0))
        f = critical_limit_functional(path, critical_params.a, critical_params.m)
        draw = f.limit_draw()
        assert draw.shape == (5,)
        head = np.linalg.solve(f.u1, f.r1)
        assert np.allclose(draw[:2], head)


class TestSymmetricCond:
    """limit_draw's singularity test reads the 2-norm condition number of U1
    and U2 from their eigenvalues."""

    @staticmethod
    def _u(n, small):
        # symmetric, eigenvalues 1, ..., 1, small, in a rotated basis
        q = np.linalg.qr(np.random.default_rng(n).normal(size=(n, n)))[0]
        lam = np.ones(n)
        lam[-1] = small
        u = q @ np.diag(lam) @ q.T
        return 0.5 * (u + u.T)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agrees_with_svd_condition(self, n):
        rng = np.random.default_rng(10 + n)
        for _ in range(200):
            q = np.linalg.qr(rng.normal(size=(n, n)))[0]
            lam = 10.0 ** rng.uniform(-9, 0, size=n) * rng.choice([-1.0, 1.0], size=n)
            u = q @ np.diag(lam) @ q.T
            u = 0.5 * (u + u.T)
            assert symmetric_cond(u) == pytest.approx(np.linalg.cond(u), rel=1e-5)

    @pytest.mark.parametrize("n", [2, 3])
    def test_singular_is_infinite(self, n):
        assert symmetric_cond(np.zeros((n, n))) == math.inf
        assert symmetric_cond(np.diag([1.0] * (n - 1) + [0.0])) == math.inf

    @pytest.mark.parametrize("which", ["u1", "u2"])
    def test_limit_draw_raises_only_above_the_limit(self, which):
        blocks = dict(u1=self._u(2, 0.5), u2=self._u(3, 0.5))
        r1, r2 = np.array([0.3, -0.2]), np.array([[0.1], [0.4], [-0.3]])
        n = blocks[which].shape[0]
        blocks[which] = self._u(n, 10.0 / U_COND_LIMIT)  # cond 1e11
        draw = CriticalLimitFunctional(r1=r1, r2=r2, **blocks).limit_draw()
        assert np.all(np.isfinite(draw))
        blocks[which] = self._u(n, 0.1 / U_COND_LIMIT)  # cond 1e13
        with pytest.raises(SingularUError):
            CriticalLimitFunctional(r1=r1, r2=r2, **blocks).limit_draw()


class TestSupercriticalConsistencySplit:
    def test_b_consistent_a_not(self, supercritical_params):
        # medians of |b_hat - b| shrink with T; the normalized a error
        # T e^{bT/2} (a_hat - a) keeps a stable spread (a_hat itself is not
        # even weakly consistent: its raw error grows like e^{|b|T/2}/T)
        from ad1n import estimate_path, stack_tau

        truth = stack_tau(supercritical_params)
        b = supercritical_params.b
        med_b = []
        iqr_a_norm = []
        for T in (10.0, 30.0):
            b_errs = []
            a_errs = []
            for r in range(60):
                path = simulate_path(supercritical_params, T, 0.01,
                                     seed=substream(1234, r))
                est = estimate_path(path, "discrete")
                b_errs.append(abs(est.b - truth[1]))
                a_errs.append(T * math.exp(0.5 * b * T) * (est.a - truth[0]))
            med_b.append(float(np.median(b_errs)))
            q75, q25 = np.percentile(a_errs, [75, 25])
            iqr_a_norm.append(float(q75 - q25))
        assert med_b[1] < med_b[0]
        assert 0.5 <= iqr_a_norm[1] / iqr_a_norm[0] <= 2.0
