"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here; the heavy Monte Carlo experiments
are shared through module-scoped fixtures so the determinism criterion can
re-run them against frozen byte images.
"""

import time

import numpy as np
import pytest

from ad1n import (
    ModelParams,
    Path,
    clse_solve,
    design_blocks,
    discrete_vs_continuous_gap,
    experiment_config_from_text,
    increment_moment_probe,
    riccati_cf,
    riccati_cf_batch,
    run_experiment,
    simulate_path,
    stationary_moment_table,
    substream,
)
from ad1n.model import drift_design_row
from ad1n.moments import stationary_x_moments
from test_moments import remark_chain
from conftest import random_subcritical

# ---------------------------------------------------------------------------
# frozen experiment configurations (master seeds are part of the contract)

SUBCRITICAL_CLT_CFG = """
n = 1
a = 2.0
b = 1.0
m = 1.0
kappa = 0.5
theta = 2.0
rho = 1,0; 0.2,0.9
y0 = 2.0
x0 = 0.25
regime = subcritical
horizons = 500
delta = 0.02
replications = 500
seed = 11
flavor = exact
"""

CRITICAL_CFG = """
n = 1
a = 2.0
b = 0.0
m = 1.0
kappa = 0.0
theta = 0.0
rho = 1,0; 0.2,0.9
y0 = 1.0
x0 = 0.0
regime = critical
horizons = 200
delta = 0.02
replications = 300
seed = 313
flavor = discrete
fine_delta = 0.001
limit_draws = 300
"""

SUPERCRITICAL_CFG = """
n = 1
a = 1.0
b = -0.5
m = 0.5
kappa = -0.2
theta = -1.0
rho = 1,0; 0.2,0.9
y0 = 1.0
x0 = 0.0
regime = supercritical
horizons = 10,20,30
delta = 0.01
replications = 100
seed = 515
flavor = discrete
"""

GAP_CFG = """
n = 1
a = 2.0
b = 1.0
m = 1.0
kappa = 0.5
theta = 2.0
rho = 1,0; 0.2,0.9
y0 = 2.0
x0 = 0.25
regime = subcritical
horizons = 25,50
gamma = {gamma}
replications = 100
seed = 616
flavor = discrete
"""


def _announce(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


@pytest.fixture(scope="module")
def clt_run():
    cfg = experiment_config_from_text(SUBCRITICAL_CLT_CFG)
    t0 = time.time()
    rep = run_experiment(cfg, threads=1)
    return cfg, rep, time.time() - t0


@pytest.fixture(scope="module")
def critical_run():
    cfg = experiment_config_from_text(CRITICAL_CFG)
    t0 = time.time()
    rep = run_experiment(cfg, threads=1)
    return cfg, rep, time.time() - t0


@pytest.fixture(scope="module")
def supercritical_run():
    cfg = experiment_config_from_text(SUPERCRITICAL_CFG)
    t0 = time.time()
    rep = run_experiment(cfg, threads=1)
    return cfg, rep, time.time() - t0


@pytest.fixture(scope="module")
def gap_runs():
    t0 = time.time()
    g11 = discrete_vs_continuous_gap(
        experiment_config_from_text(GAP_CFG.format(gamma="1.1")))
    g05 = discrete_vs_continuous_gap(
        experiment_config_from_text(GAP_CFG.format(gamma="0.5")))
    return g11, g05, time.time() - t0


def test_criterion_1_estimator_oracle_equivalence():
    """clse_solve equals a generic stacked least-squares solve to 1e-9."""
    t0 = time.time()
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(20):
        N, n = 50, 2
        Y = np.abs(rng.normal(size=N + 1)) + 0.1
        X = rng.normal(size=(N + 1, n))
        states = np.column_stack([Y, X])
        path = Path(delta=0.1, times=np.arange(N + 1) * 0.1, states=states,
                    seed=0, params_hash="")
        est = clse_solve(design_blocks(path))
        A = np.vstack([
            0.1 * drift_design_row(states[k, 0], states[k, 1:]) for k in range(N)
        ])
        y = np.diff(states, axis=0).ravel()
        oracle, *_ = np.linalg.lstsq(A, y, rcond=None)
        worst = max(worst, float(np.max(np.abs(est.tau_hat - oracle))))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 1.0
    _announce(1, "estimator oracle equivalence", ok,
              f"max gap {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-9
    assert elapsed < 1.0


def test_criterion_2_moment_identities():
    """Closed-form stationary moments to 1e-12 plus ergodic averages to 3%."""
    t0 = time.time()
    rng = np.random.default_rng(314)
    worst = 0.0
    for trial in range(5):
        n = 1 if trial < 3 else 2
        params = random_subcritical(rng, n)
        table = stationary_moment_table(params, max_order=3)
        for key, want in remark_chain(params).items():
            got = table[key]
            scale = max(abs(want), 1.0)
            worst = max(worst, abs(got - want) / scale)
    closed_ok = worst < 1e-12

    p = ModelParams(n=1, a=2.0, b=2.0, m=[2.0], kappa=[0.2], theta=[[4.0]],
                    rho=[[1.0, 0.0], [0.2, 0.9]], y0=1.0, x0=0.45)
    ey, ey2, _, ex, eyx, _, _, _ = stationary_x_moments(p)
    path = simulate_path(p, 2000.0, 0.01, seed=substream(2, 0))
    Y, X = path.Y, path.X[:, 0]
    rels = [
        abs(Y.mean() - ey) / ey,
        abs((Y**2).mean() - ey2) / ey2,
        abs(X.mean() - ex[0]) / abs(ex[0]),
        abs((Y * X).mean() - eyx[0]) / abs(eyx[0]),
    ]
    ergodic_ok = max(rels) <= 0.03
    elapsed = time.time() - t0
    ok = closed_ok and ergodic_ok and elapsed < 60.0
    _announce(2, "moment identities", ok,
              f"closed-form {worst:.2e}, ergodic max rel {max(rels):.3f}, {elapsed:.1f}s")
    assert closed_ok
    assert ergodic_ok
    assert elapsed < 60.0


def test_criterion_3_subcritical_clt(clt_run):
    """Empirical covariance vs sandwich (20% Frobenius), shape statistics
    and mean within 3 MC standard errors at the reference configuration."""
    cfg, rep, elapsed = clt_run
    s = rep.per_horizon[0]
    mean = np.array(s["mean_norm_err"])
    se = np.array(s["se_norm_err"])
    mean_ok = bool(np.all(np.abs(mean) <= 3.0 * se))
    frob_ok = s["frobenius_rel_gap"] <= 0.20
    skew_ok = bool(np.all(np.abs(s["skewness"]) < 0.3))
    kurt_ok = bool(np.all(np.abs(s["excess_kurtosis"]) < 0.5))
    ok = mean_ok and frob_ok and skew_ok and kurt_ok and rep.passed and elapsed < 600
    _announce(3, "subcritical CLT", ok,
              f"frob {s['frobenius_rel_gap']:.3f}, max|mean|/se "
              f"{np.max(np.abs(mean) / se):.2f}, {elapsed:.0f}s")
    assert mean_ok
    assert frob_ok
    assert skew_ok
    assert kurt_ok
    assert elapsed < 600


def test_criterion_4_critical_limit(critical_run):
    """Two-sample KS between every normalized coordinate of the error at
    T = 200 (a, T b, m, T kappa, T theta) and the simulated limit
    functional draws stays below 0.15."""
    cfg, rep, elapsed = critical_run
    ks = rep.per_horizon[0]["ks_vs_limit"]
    ok = max(ks) < 0.15 and rep.passed and elapsed < 600
    _announce(4, "critical-case limit", ok,
              "KS " + ", ".join(f"{v:.3f}" for v in ks) + f", {elapsed:.0f}s")
    assert len(ks) == 5
    assert max(ks) < 0.15
    assert rep.passed
    assert elapsed < 600


def test_criterion_5_supercritical_behavior(supercritical_run):
    """b_hat consistency split, stable normalized a-spread and Y-tail
    stabilization across T in {10, 20, 30}."""
    cfg, rep, elapsed = supercritical_run
    med = [s["median_abs_b_err"] for s in rep.per_horizon]
    iqr = [s["iqr_a_err"] for s in rep.per_horizon]
    stab = rep.per_horizon[-1]["stabilization_rate"]
    decreasing = all(med[i + 1] < med[i] for i in range(len(med) - 1))
    final_ok = med[-1] < 0.05
    ratio = iqr[-1] / iqr[0]
    iqr_ok = 0.5 <= ratio <= 2.0
    stab_ok = stab >= 0.95
    ok = decreasing and final_ok and iqr_ok and stab_ok and elapsed < 300
    _announce(5, "supercritical behavior", ok,
              f"median|b err| {med}, iqr ratio {ratio:.2f}, stab {stab:.2f}, "
              f"{elapsed:.0f}s")
    assert decreasing
    assert final_ok
    assert iqr_ok
    assert stab_ok
    assert elapsed < 300


def test_criterion_6_discrete_continuous_gap(gap_runs):
    """Median sqrt(t_N) gap contracts under the step rule T^-1.1 and does
    not under T^-0.5 (both outcomes reported)."""
    g11, g05, elapsed = gap_runs
    contracting = g11.ratios[0] <= 0.8
    non_contracting = g05.ratios[0] >= 0.8
    ok = contracting and non_contracting and elapsed < 600
    _announce(6, "discrete/continuous gap", ok,
              f"gamma=1.1 medians {np.round(g11.medians, 4).tolist()} "
              f"(ratio {g11.ratios[0]:.2f}); gamma=0.5 medians "
              f"{np.round(g05.medians, 4).tolist()} (ratio {g05.ratios[0]:.2f}); "
              f"{elapsed:.0f}s")
    assert contracting
    assert non_contracting
    assert elapsed < 600


def test_criterion_7_riccati_cross_check(subcritical_params):
    """CF(0,0) = 1 exactly, the lambda derivative matches E[Y] to 1e-3 and
    the modulus stays at or below one on a 10 x 10 grid."""
    p = subcritical_params
    t0 = time.time()
    origin = riccati_cf(p, 0.0, [0.0])
    origin_ok = origin == 1.0 + 0.0j
    h = 1e-4
    vals = riccati_cf_batch(p, [h, -h], [[0.0], [0.0]])
    deriv = -(vals[0].real - vals[1].real) / (2 * h)
    deriv_ok = abs(deriv - p.a / p.b) < 1e-3
    lams = np.repeat(np.linspace(0.0, 5.0, 10), 10)
    mus = [[v] for v in np.tile(np.linspace(-5.0, 5.0, 10), 10)]
    grid = riccati_cf_batch(p, lams, mus)
    modulus_ok = bool(np.max(np.abs(grid)) <= 1.0 + 1e-12)
    elapsed = time.time() - t0
    ok = origin_ok and deriv_ok and modulus_ok and elapsed < 10.0
    _announce(7, "Riccati cross-check", ok,
              f"deriv err {abs(deriv - p.a / p.b):.2e}, max|CF| "
              f"{np.max(np.abs(grid)):.4f}, {elapsed:.1f}s")
    assert origin_ok
    assert deriv_ok
    assert modulus_ok
    assert elapsed < 10.0


def test_criterion_8_increment_scaling(subcritical_params):
    """log E||Z_{t+h} - Z_t||^2 against log h has slope in [0.8, 1.2]."""
    t0 = time.time()
    lags = [0.001, 0.004, 0.016, 0.064]
    out = increment_moment_probe(
        subcritical_params, 2.0, [(0.5, 0.5 + h) for h in lags],
        delta=0.001, replications=600, seed=88,
    )
    vals = [o.value for o in out]
    slope = float(np.polyfit(np.log(lags), np.log(vals), 1)[0])
    elapsed = time.time() - t0
    ok = 0.8 <= slope <= 1.2 and elapsed < 60.0
    _announce(8, "increment scaling", ok, f"slope {slope:.3f}, {elapsed:.1f}s")
    assert 0.8 <= slope <= 1.2
    assert elapsed < 60.0


def test_criterion_9_determinism(clt_run, critical_run, supercritical_run, gap_runs):
    """Re-running the criterion 3-6 experiments with their frozen master
    seeds reproduces the per-replication CSVs byte for byte."""
    t0 = time.time()
    cfg3, rep3, _ = clt_run
    cfg4, rep4, _ = critical_run
    cfg5, rep5, _ = supercritical_run
    g11, g05, _ = gap_runs
    same3 = run_experiment(cfg3, threads=1).csv_text() == rep3.csv_text()
    same4 = run_experiment(cfg4, threads=1).csv_text() == rep4.csv_text()
    same5 = run_experiment(cfg5, threads=1).csv_text() == rep5.csv_text()
    g11b = discrete_vs_continuous_gap(
        experiment_config_from_text(GAP_CFG.format(gamma="1.1")))
    same6 = g11b.csv_text() == g11.csv_text()
    ok = same3 and same4 and same5 and same6
    _announce(9, "determinism", ok,
              f"criteria 3/4/5/6 byte-identical: {same3}/{same4}/{same5}/{same6}, "
              f"{time.time() - t0:.0f}s")
    assert same3 and same4 and same5 and same6
