import numpy as np
import pytest

from ad1n import (
    ModelParams,
    Regime,
    classify,
    drift,
    drift_design_row,
    stack_drift_fields,
    stack_tau,
    unstack_tau,
)
from ad1n.errors import DimensionMismatchError, InadmissibleParamsError


def _params(n=1, a=2.0, b=1.0, m=None, kappa=None, theta=None, rho=None):
    m = [0.5] * n if m is None else m
    kappa = [0.2] * n if kappa is None else kappa
    theta = np.eye(n) * 2.0 if theta is None else theta
    if rho is None:
        rho = np.tril(np.full((n + 1, n + 1), 0.1))
        np.fill_diagonal(rho, 1.0)
    return ModelParams(n=n, a=a, b=b, m=m, kappa=kappa, theta=theta, rho=rho)


class TestValidate:
    def test_zero_rho_diagonal_is_flagged(self):
        with pytest.raises(InadmissibleParamsError, match="rho diagonal"):
            _params(rho=[[1.0, 0.0], [0.3, 0.0]])

    def test_admissible_point_passes(self):
        p = _params(n=1, a=2, b=1, theta=[[3.0]], rho=[[1, 0], [0.3, 0.95]])
        assert p.a == 2

    def test_jordan_block_theta_is_flagged(self):
        with pytest.raises(InadmissibleParamsError, match="not diagonalizable"):
            _params(n=2, theta=[[0.0, 1.0], [0.0, 0.0]], rho=np.eye(3))

    def test_negative_a_is_flagged(self):
        with pytest.raises(InadmissibleParamsError, match="a must be"):
            _params(a=-1.0)

    def test_upper_triangular_rho_entry_is_flagged(self):
        with pytest.raises(InadmissibleParamsError, match="lower triangular"):
            _params(rho=[[1.0, 0.2], [0.3, 0.9]])

    @pytest.mark.parametrize("field, value", [
        ("a", float("nan")), ("b", float("inf")), ("m", [float("nan")]),
        ("kappa", [-float("inf")]), ("theta", [[float("nan")]]),
        ("rho", [[1.0, 0.0], [float("inf"), 0.9]]),
        ("y0", float("nan")), ("x0", [float("inf")]),
    ])
    def test_non_finite_value_is_rejected(self, field, value):
        base = dict(n=1, a=2.0, b=1.0, m=[0.5], kappa=[0.2], theta=[[2.0]],
                    rho=[[1.0, 0.0], [0.1, 1.0]], y0=1.0, x0=[0.0])
        with pytest.raises(InadmissibleParamsError, match=f"{field} must be finite"):
            ModelParams(**{**base, field: value})

    def test_non_numeric_start_is_rejected(self):
        # a start is a number: callables used to be drawn once per path,
        # and a string died with a bare TypeError in validate
        base = dict(n=1, a=2.0, b=1.0, m=[0.5], kappa=[0.2], theta=[[2.0]],
                    rho=[[1.0, 0.0], [0.1, 1.0]], y0=1.0, x0=[0.0])
        for field, value in [("y0", lambda rng: 1.0), ("x0", lambda rng: [0.0]),
                             ("y0", "one")]:
            with pytest.raises(InadmissibleParamsError, match=f"^{field} must be numeric"):
                ModelParams(**{**base, field: value})

    @pytest.mark.parametrize("field, value", [
        ("a", "x"), ("b", lambda rng: 1.0), ("b", "1.0.0"),
    ])
    def test_non_numeric_rate_is_rejected(self, field, value):
        # a string or a callable died with a bare TypeError from np.isfinite
        base = dict(n=1, a=2.0, b=1.0, m=[0.5], kappa=[0.2], theta=[[2.0]],
                    rho=[[1.0, 0.0], [0.1, 1.0]])
        with pytest.raises(InadmissibleParamsError, match=f"^{field} must be numeric"):
            ModelParams(**{**base, field: value})

    @pytest.mark.parametrize("n", [1.5, 2.0, "2", True, None])
    def test_non_integer_n_is_rejected(self, n):
        # n = 1.5 was reported as "m must have shape (1.5,)"
        with pytest.raises(InadmissibleParamsError, match="^n must be an integer"):
            ModelParams(n=n, a=2.0, b=1.0, m=[0.5], kappa=[0.2], theta=[[2.0]],
                        rho=[[1.0, 0.0], [0.1, 1.0]])

    @pytest.mark.parametrize("changes, violation", [
        ({"rho": [[1.0, 0.5], [0.2, 0.9]]}, "rho must be lower triangular"),
        ({"rho": [[-1.0, 0.0], [0.2, 0.9]]}, "rho diagonal must be positive"),
        ({"a": -1.0}, "a must be nonnegative"),
        ({"a": -1.0, "rho": [[1.0, 0.5], [0.2, 0.9]]},
         "rho must be lower triangular; a must be nonnegative"),
    ])
    def test_construction_rejects_inadmissible_point(self, changes, violation):
        # classify, the moment functions and riccati_cf took these points
        # and returned numbers; the error lists every violation
        base = dict(n=1, a=2.0, b=1.0, m=[1.0], kappa=[0.5], theta=[[2.0]],
                    rho=[[1.0, 0.0], [0.2, 0.9]], y0=2.0, x0=0.25)
        with pytest.raises(InadmissibleParamsError, match=f"^inadmissible model: {violation}"):
            ModelParams(**{**base, **changes})

    def test_sigma_derived_positive(self):
        p = _params()
        assert np.all(p.sigma > 0)


class TestShapes:
    @pytest.mark.parametrize("field, value", [
        ("m", [0.5]), ("kappa", [0.2, 0.1, 0.0]), ("theta", [[2.0, 0.0]]),
        ("rho", np.eye(2)), ("x0", [0.5, -1.0, 2.0]), ("y0", [1.0]),
    ])
    def test_shape_not_fitting_n_is_rejected(self, field, value):
        base = dict(n=2, a=2.0, b=1.0, m=[0.5, 0.1], kappa=[0.2, 0.1],
                    theta=np.eye(2), rho=np.eye(3), x0=[0.5, -1.0])
        with pytest.raises(DimensionMismatchError, match=f"^{field} must have shape"):
            ModelParams(**{**base, field: value})

    def test_n_below_one_is_rejected(self):
        with pytest.raises(DimensionMismatchError, match="^n must be at least 1"):
            ModelParams(n=0, a=1.0, b=1.0, m=[], kappa=[], theta=np.zeros((0, 0)),
                        rho=np.eye(1))

    def test_single_x0_is_taken_for_every_coordinate(self):
        p = _params(n=3, rho=np.eye(4))
        assert ModelParams(**{**p.__dict__, "x0": 0.5}).x0.tolist() == [0.5] * 3

    def test_y0_is_stored_as_float(self):
        p = _params()
        for y0 in (2, np.float32(2.0), np.array(2.0)):
            q = ModelParams(**{**p.__dict__, "y0": y0})
            assert type(q.y0) is float and q.y0 == 2.0
            assert q.digest() == ModelParams(**{**p.__dict__, "y0": 2.0}).digest()

    def test_rates_and_n_are_stored_as_python_numbers(self):
        p = _params()
        q = ModelParams(**{**p.__dict__, "n": np.int64(1), "a": 2, "b": np.float32(1.0)})
        assert (type(q.n), type(q.a), type(q.b)) == (int, float, float)
        assert q.digest() == p.digest()
        with pytest.raises(DimensionMismatchError, match=r"^a must have shape \(\)"):
            ModelParams(**{**p.__dict__, "a": [2.0]})


class TestClassify:
    def test_subcritical(self):
        p = _params(n=2, b=1.0, theta=np.eye(2), rho=np.eye(3))
        assert classify(p).regime == Regime.SUBCRITICAL

    def test_critical_zero_matrix(self):
        p = _params(n=2, b=0.0, theta=np.zeros((2, 2)), rho=np.eye(3))
        assert classify(p).regime == Regime.CRITICAL

    def test_critical_b_zero_theta_pd(self):
        p = _params(n=1, b=0.0, theta=[[1.5]])
        assert classify(p).regime == Regime.CRITICAL

    def test_supercritical(self):
        p = _params(n=2, b=-0.5, theta=np.diag([-1.0, -2.0]), rho=np.eye(3))
        cls = classify(p)
        assert cls.regime == Regime.SUPERCRITICAL
        assert np.all(np.diff(cls.eig_theta) >= 0)  # ascending

    def test_supercritical_negative_b_positive_theta(self):
        p = _params(n=1, b=-0.1, theta=[[2.0]])
        assert classify(p).regime == Regime.SUPERCRITICAL

    @pytest.mark.parametrize("b, regime", [(1.0, Regime.CRITICAL), (0.0, Regime.CRITICAL),
                                           (-1.0, Regime.SUPERCRITICAL)])
    @pytest.mark.parametrize("theta", [1e-13, -1e-13])
    def test_theta_within_the_zero_tolerance_is_zero(self, b, regime, theta):
        # at b = 1, theta = 1e-13 was subcritical and -1e-13 critical: the
        # trichotomy called both zero, and raw eigenvalue signs decided
        assert classify(_params(n=1, b=b, theta=[[theta]])).regime == regime

    def test_mixed_spectrum_unsupported(self):
        p = _params(n=2, b=1.0, theta=np.diag([1.0, -1.0]), rho=np.eye(3))
        assert classify(p).regime == Regime.UNSUPPORTED

    def test_complex_spectrum_raises(self):
        with pytest.raises(InadmissibleParamsError, match="theta eigenvalues not real"):
            _params(n=2, theta=[[0.0, -1.0], [1.0, 0.0]], rho=np.eye(3))

    def test_jordan_block_raises(self):
        with pytest.raises(InadmissibleParamsError, match="theta not diagonalizable"):
            _params(n=2, theta=[[1.0, 1.0], [0.0, 1.0]], rho=np.eye(3))

    def test_entries_spanning_many_magnitudes_diagonalize(self):
        # LAPACK's balancing returns e1 as the eigenvector of the zero
        # eigenvalue of this theta, whose entries span ~120 orders
        S = np.full((3, 3), 2.3e-123)
        np.fill_diagonal(S, 1.0)
        S[1, 0] = 1.0 / 12.0
        D = np.diag([0.0, 0.05, 0.1])
        theta = S @ D @ np.linalg.inv(S)
        p = _params(n=3, b=0.7, theta=theta, rho=np.eye(4))  # admissible: no raise
        cls = classify(p)
        assert cls.regime == classify(_params(n=3, b=0.7, theta=D, rho=np.eye(4))).regime
        np.testing.assert_allclose(cls.eig_theta, np.diag(D), atol=1e-15)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(7)
        theta = np.diag([0.8, 2.0, 3.5])
        base = _params(n=3, b=0.7, theta=theta, rho=np.eye(4))
        regime = classify(base).regime
        for _ in range(5):
            S = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
            conj = S @ theta @ np.linalg.inv(S)
            p = _params(n=3, b=0.7, theta=conj, rho=np.eye(4))
            assert classify(p).regime == regime


class TestTauStacking:
    def test_n1_flat_case(self):
        p = _params(n=1, a=2, b=1, m=[0.5], kappa=[0.2], theta=[[3.0]])
        assert np.array_equal(stack_tau(p), [2, 1, 0.5, 0.2, 3.0])

    def test_hand_enumerated_order_n2(self):
        # hand table for n = 2: (a, b, m1, k1, th11, th12, m2, k2, th21, th22)
        tau = stack_drift_fields(
            10.0, 20.0, [1.0, 2.0], [3.0, 4.0], [[11.0, 12.0], [21.0, 22.0]]
        )
        expected = [10, 20, 1, 3, 11, 12, 2, 4, 21, 22]
        assert np.array_equal(tau, expected)
        assert tau[8] == 21.0  # theta_21 sits at 0-based index 8

    def test_round_trip_random_n3(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = rng.normal(size=2)
            m, kappa = rng.normal(size=3), rng.normal(size=3)
            theta = rng.normal(size=(3, 3))
            tau = stack_drift_fields(a, b, m, kappa, theta)
            a2, b2, m2, k2, th2 = unstack_tau(tau, 3)
            assert a2 == a and b2 == b
            assert np.array_equal(m2, m)
            assert np.array_equal(k2, kappa)
            assert np.array_equal(th2, theta)

    def test_unstack_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            unstack_tau(np.zeros(6), 2)


class TestDriftDesign:
    def test_n1_expansion(self):
        p = _params(n=1, a=2, b=1, m=[0.5], kappa=[0.2], theta=[[3.0]])
        lam = drift_design_row(0.7, [0.4])
        got = lam @ stack_tau(p)
        want = [2 - 1 * 0.7, 0.5 - 0.2 * 0.7 - 3.0 * 0.4]
        assert np.allclose(got, want, atol=1e-15)

    def test_zero_state(self):
        p = _params(n=2, a=1.5, m=[0.3, -0.2], rho=np.eye(3))
        lam = drift_design_row(0.0, [0.0, 0.0])
        assert np.allclose(lam @ stack_tau(p), [1.5, 0.3, -0.2])

    def test_matches_direct_drift_n2(self):
        rng = np.random.default_rng(11)
        # a non-symmetric theta with a real spectrum: S diag(w) S^-1
        S = np.eye(2) + 0.3 * rng.normal(size=(2, 2))
        p = _params(
            n=2,
            m=rng.normal(size=2),
            kappa=rng.normal(size=2),
            theta=S @ np.diag(rng.uniform(0.5, 3.0, size=2)) @ np.linalg.inv(S),
            rho=np.eye(3),
        )
        assert p.theta[0, 1] != p.theta[1, 0]
        for _ in range(20):
            y = float(rng.uniform(0, 3))
            x = rng.normal(size=2)
            lam = drift_design_row(y, x)
            assert np.max(np.abs(lam @ stack_tau(p) - drift(p, y, x))) < 1e-14


def test_params_arrays_are_immutable():
    p = _params()
    with pytest.raises(ValueError):
        p.theta[0, 0] = 5.0


def test_digest_changes_with_parameters():
    p1 = _params(a=2.0)
    p2 = _params(a=2.0000001)
    assert p1.digest() == _params(a=2.0).digest()
    assert p1.digest() != p2.digest()
