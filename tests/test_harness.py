import contextlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.stats

from ad1n import (
    ExperimentConfig,
    Regime,
    discrete_vs_continuous_gap,
    experiment_config_from_text,
    run_experiment,
    write_report,
)
from ad1n import harness, simulate
from ad1n.errors import ConfigError, RegimeMismatchError
from ad1n.harness import (
    excess_kurtosis,
    ks_two_sample,
    ks_vs_normal,
    parse_config_text,
    skewness,
)
from ad1n.simulate import STREAM_CHUNK
from conftest import FirstPath, keys_at_first_path
from test_golden import _CRITICAL, _CRITICAL_N2, _N2_EXACT

SUB_CFG = """
# reference subcritical point
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
horizons = 40
delta = 0.02
replications = 24
seed = 4242
flavor = exact
"""

# the golden supercritical config, with a single replication per horizon
SUPER_ONE_REP_CFG = """
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
horizons = 15,25
delta = 0.02
replications = 1
seed = 707
flavor = discrete
"""


class TestStatsHelpers:
    def test_ks_two_sample_matches_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.normal(size=130)
            y = rng.normal(loc=0.3, size=90)
            assert ks_two_sample(x, y) == pytest.approx(
                scipy.stats.ks_2samp(x, y).statistic, abs=1e-12
            )

    def test_ks_vs_normal_matches_scipy(self):
        rng = np.random.default_rng(1)
        x = rng.normal(scale=2.0, size=200)
        got = ks_vs_normal(x, 2.0)
        want = scipy.stats.kstest(x, "norm", args=(0.0, 2.0)).statistic
        assert got == pytest.approx(want, abs=1e-12)

    def test_moment_shape_stats_match_scipy(self):
        rng = np.random.default_rng(2)
        x = rng.gamma(3.0, size=500)
        assert skewness(x) == pytest.approx(scipy.stats.skew(x), abs=1e-12)
        assert excess_kurtosis(x) == pytest.approx(
            scipy.stats.kurtosis(x), abs=1e-12
        )


#: small n = 1 runs of each kind the benchmark times, and a statistic each
#: reports only after the stage that needs a matrix function or a law
SMALL_N1_RUNS = {
    "subcritical_exact": (SUB_CFG.replace("horizons = 40", "horizons = 10").replace(
        "replications = 24", "replications = 3"), "ks_vs_sandwich_normal"),
    "critical": (_CRITICAL, "ks_vs_limit"),
}


def _in_fresh_interpreter(code, text):
    """Run ``code`` with config ``text`` on stdin in a fresh interpreter
    that imports this ad1n; its standard output, split into words."""
    import ad1n

    src = os.path.dirname(os.path.dirname(os.path.abspath(ad1n.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], input=text, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def _modules_after_small_run(text, statistic, package="scipy"):
    """Import ad1n and run the experiment of config ``text`` in a fresh
    interpreter; the sorted names of the ``package`` modules loaded by then."""
    # a critical run's limit draws run in a forked child, whose imports
    # never reach this process's sys.modules: run them here too
    code = (
        "import sys, ad1n\n"
        "cfg = ad1n.experiment_config_from_text(sys.stdin.read())\n"
        "report = ad1n.run_experiment(cfg)\n"
        f"assert {statistic!r} in report.per_horizon[0]\n"
        "assert not any(r.aborted for r in report.rows)\n"
        "if cfg.regime is ad1n.Regime.CRITICAL:\n"
        "    assert all(d is not None for d in ad1n.harness._limit_phase(cfg))\n"
        f"print(*sorted(m for m in sys.modules if m == {package!r} or m.startswith({package + '.'!r})))\n"
    )
    return _in_fresh_interpreter(code, text)


@pytest.mark.parametrize("kind", sorted(SMALL_N1_RUNS))
def test_n1_run_loads_no_scipy(kind):
    # an n = 1 run computes its matrix functions and statistics without
    # scipy: importing scipy.linalg alone costs ~0.3 s and ~28 MB, and
    # scipy.stats, scipy.special and scipy.sparse more on top
    assert _modules_after_small_run(*SMALL_N1_RUNS[kind]) == []


_N3_EXACT = """\
n = 3
a = 2.5
b = 1.2
m = 1.0, 0.25, -0.5
kappa = 0.3, 0.05, -0.2
theta = 2.0, 0.2, 0.0; 0.1, 1.5, 0.1; 0.0, 0.2, 1.0
rho = 1,0,0,0; 0.15,0.9,0,0; 0.15,0.15,0.8,0; 0.15,0.15,0.15,0.7
y0 = 1.0
x0 = 0.5, 0.0, -0.5
regime = subcritical
horizons = 5
delta = 0.02
replications = 3
seed = 31
flavor = exact
"""

#: small n >= 2 runs: the exact flavor's logm at n = 2 and 3, and the
#: n = 2 exponentials of a critical run's estimation and limit paths
SMALL_N23_RUNS = {
    "n2_exact": (_N2_EXACT.replace("horizons = 20", "horizons = 5"), "ks_vs_sandwich_normal"),
    "n3_exact": (_N3_EXACT, "ks_vs_sandwich_normal"),
    "critical_n2": (_CRITICAL_N2, "ks_vs_limit"),
}


@pytest.mark.parametrize("kind", sorted(SMALL_N23_RUNS))
def test_n2_and_n3_runs_load_no_scipy(kind):
    # every matrix function is numpy's at any n
    assert _modules_after_small_run(*SMALL_N23_RUNS[kind]) == []


def test_n2_transient_moment_loads_no_scipy():
    code = (
        "import sys, ad1n\n"
        "p = ad1n.ModelParams(n=2, a=2.0, b=1.5, m=[2.0, -1.5], kappa=[0.2, 0.1],\n"
        "                     theta=[[2.0, 0.3], [0.1, 1.2]],\n"
        "                     rho=[[1, 0, 0], [0.2, 0.8, 0], [-0.1, 0.15, 0.7]])\n"
        "initial = ad1n.point_initial_moments(p, 1.5, [0.5, -1.0], 2)\n"
        "assert ad1n.transient_moment(p, initial, 1, [1, 0], 0.5) != 0.0\n"
        "print(*sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    assert _in_fresh_interpreter(code, "") == []


def test_n2_run_without_scipy():
    # a process in which scipy cannot be imported runs an n = 2 exact
    # experiment to the end
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import ad1n\n"
        "report = ad1n.run_experiment(ad1n.experiment_config_from_text(sys.stdin.read()))\n"
        "assert report.rows and not any(r.aborted for r in report.rows)\n"
        "print('ran')\n"
    )
    assert _in_fresh_interpreter(code, SMALL_N23_RUNS["n2_exact"][0]) == ["ran"]


@pytest.mark.parametrize("kappa", ["0.0", "0.5"])
def test_zero_kappa_critical_run_loads_no_numpy_polynomial(kappa):
    # W, the only user of numpy.polynomial's Gauss-Legendre nodes (~4-5 ms
    # to import and build), is built only when kappa != 0; the limit paths
    # force kappa = 0, so at kappa = 0.5 only the estimation paths load it
    text = _CRITICAL.replace("kappa = 0.0", f"kappa = {kappa}")
    loaded = _modules_after_small_run(text, "ks_vs_limit", "numpy.polynomial")
    assert ("numpy.polynomial" in loaded) == (kappa != "0.0")


def test_subcritical_run_does_not_import_scipy_stats():
    # importing scipy.stats would add ~0.8 s and ~40 MB to every run
    assert "scipy.stats" not in _modules_after_small_run(*SMALL_N1_RUNS["subcritical_exact"])


def test_n1_exact_run_does_not_import_scipy_sparse():
    # at n = 1 the exact flavor's logarithm is np.log; scipy.linalg.logm
    # imports scipy.sparse.linalg on its first call (~28 ms, ~3.4 MB)
    assert "scipy.sparse" not in _modules_after_small_run(*SMALL_N1_RUNS["subcritical_exact"])


def test_subcritical_run_does_not_import_scipy_special():
    # ks_vs_normal's normal cdf comes from math.erfc, not scipy.special.ndtr
    assert "scipy.special" not in _modules_after_small_run(*SMALL_N1_RUNS["subcritical_exact"])


class TestConfigParsing:
    def test_full_round_trip(self):
        cfg = experiment_config_from_text(SUB_CFG)
        assert cfg.params.n == 1
        assert cfg.params.a == 2.0
        assert cfg.regime == Regime.SUBCRITICAL
        assert cfg.horizons == [40.0]
        assert cfg.delta == 0.02
        assert cfg.replications == 24
        assert cfg.flavor == "exact"
        cfg.validate()

    def test_matrix_parsing(self):
        raw = parse_config_text("rho = 1,0,0; 0.2,0.8,0; -0.1,0.2,0.7")
        assert raw["rho"] == "1,0,0; 0.2,0.8,0; -0.1,0.2,0.7"

    def test_comments_and_blank_lines(self):
        raw = parse_config_text("# full comment\n\na = 1.0  # trailing\n")
        assert raw == {"a": "1.0"}

    def test_repeated_key_rejected(self):
        # used to keep the last line: seed = 4242 then seed = 3 ran seed 3
        with pytest.raises(ConfigError, match="'seed' is set on lines 16 and 19"):
            parse_config_text(SUB_CFG + "# again\nseed = 3\n")

    def test_missing_model_key(self):
        with pytest.raises(ConfigError):
            experiment_config_from_text("n = 1\na = 1.0\nregime = subcritical\n")

    def test_delta_xor_gamma(self):
        both = SUB_CFG + "gamma = 1.1\n"
        cfg = experiment_config_from_text(both)
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("draws", [0, -3])
    def test_limit_draws_below_one_rejected(self, draws):
        cfg = experiment_config_from_text(SUB_CFG + f"limit_draws = {draws}\n")
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("fine_delta", ["0.01", "0", "-0.001", "nan"])
    def test_fine_delta_outside_its_range_fails_at_the_parent(self, monkeypatch, fine_delta):
        # 0.01 used to pass validate() and fail only in the forked limit
        # child, after the first horizon's path and solve phases
        cfg = experiment_config_from_text(
            _CRITICAL.replace("fine_delta = 0.001", f"fine_delta = {fine_delta}"))
        with pytest.raises(ConfigError, match="fine_delta"):
            cfg.validate()
        seen = _count_children(monkeypatch)
        monkeypatch.setattr(harness, "_path_phase", None)
        with pytest.raises(ConfigError, match="fine_delta"):
            run_experiment(cfg)
        assert seen["started"] == 0

    # each passed validation: replications = 10^20 built a 10^20-entry seed
    # list, and a step of 1e-300 died in np.arange ("Maximum allowed size
    # exceeded"), the fine_delta one in the limit child
    @pytest.mark.parametrize("key, text", [
        ("replications", SUB_CFG.replace("replications = 24", f"replications = {10**20}")),
        ("replications", _CRITICAL.replace("replications = 3", f"replications = {2**63 + 1}")
         .replace("limit_draws = 4\n", "")),
        ("limit_draws", _CRITICAL.replace("limit_draws = 4", f"limit_draws = {2**64 - 2}")),
        ("delta", SUB_CFG.replace("delta = 0.02", "delta = 1e-300")),
        ("gamma", SUB_CFG.replace("delta = 0.02", "gamma = 200")),
        ("fine_delta", _CRITICAL.replace("fine_delta = 0.001", "fine_delta = 1e-300")),
    ])
    def test_run_that_cannot_be_indexed_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            experiment_config_from_text(text).validate()

    @pytest.mark.parametrize("text", [
        _CRITICAL.replace("replications = 3", f"replications = {2**63}")
        .replace("limit_draws = 4\n", ""),  # as many limit draws as replications
        _CRITICAL.replace("limit_draws = 4", f"limit_draws = {2**64 - 3}"),
    ])
    def test_last_substream_index_accepted(self, text):
        # the largest index, paths + limit draws - 1, is 2^64 - 1 in both
        experiment_config_from_text(text).validate()

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        # both used to end the run in an OverflowError from the generator
        cfg = experiment_config_from_text(SUB_CFG.replace("seed = 4242", f"seed = {seed}"))
        with pytest.raises(ConfigError, match="seed"):
            cfg.validate()

    # each used to pass validation: a bad delta became a run of aborted rows
    # (or a bare ValueError at nan), a bad gamma nan medians in the gap study
    @pytest.mark.parametrize("delta", ["-0.02", "0", "50", "nan", "inf"])
    def test_bad_delta_rejected(self, delta):
        cfg = experiment_config_from_text(SUB_CFG.replace("delta = 0.02", f"delta = {delta}"))
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("gamma", ["-1.5", "0", "nan", "inf"])
    def test_bad_gamma_rejected(self, gamma):
        cfg = experiment_config_from_text(SUB_CFG.replace("delta = 0.02", f"gamma = {gamma}"))
        with pytest.raises(ConfigError):
            discrete_vs_continuous_gap(cfg)

    def test_gamma_step_longer_than_horizon_rejected(self):
        # 0.5^-1.1 > 0.5: every replication of this run used to abort
        cfg = experiment_config_from_text(
            SUB_CFG.replace("horizons = 40\ndelta = 0.02", "horizons = 0.5\ngamma = 1.1"))
        with pytest.raises(ConfigError):
            cfg.validate()

    # 25,15 failed median_b_err_decreasing and iqr_a_not_contracting of the
    # golden supercritical model, which pass with 15,25; 15,15 let the gap
    # study call medians "decreasing" without the horizon growing
    @pytest.mark.parametrize("horizons", ["25,15", "15,15", "10,30,20"])
    def test_horizons_not_strictly_increasing_rejected(self, horizons):
        text = SUB_CFG.replace("horizons = 40", f"horizons = {horizons}")
        with pytest.raises(ConfigError, match="horizons"):
            experiment_config_from_text(text).validate()
        with pytest.raises(ConfigError, match="horizons"):
            discrete_vs_continuous_gap(
                experiment_config_from_text(text.replace("delta = 0.02", "gamma = 1.1")))

    def test_delta_equal_to_smallest_horizon_accepted(self):
        experiment_config_from_text(SUB_CFG.replace("delta = 0.02", "delta = 40")).validate()

    # each used to raise a bare ValueError, which the CLI printed as a traceback
    @pytest.mark.parametrize("key, line", [
        ("replications", "replications = abc"),
        ("m", "m = 1.0, x"),
        ("seed", "seed = 1.5"),
        ("theta", "theta = 1, 2; 3"),
    ])
    def test_bad_value_is_a_config_error_naming_the_key(self, key, line):
        old = next(ln for ln in SUB_CFG.splitlines() if ln.startswith(f"{key} ="))
        with pytest.raises(ConfigError, match=f"bad value for {key}:"):
            experiment_config_from_text(SUB_CFG.replace(old, line))

    # each used to be ignored, so the run took the default instead
    @pytest.mark.parametrize("line", ["replicatons = 5", "flavour = exact", "Seed = 3"])
    def test_unknown_key_is_a_config_error_naming_it(self, line):
        key = line.split(" =")[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            experiment_config_from_text(SUB_CFG + line + "\n")

    def test_unknown_regime(self):
        with pytest.raises(ConfigError):
            experiment_config_from_text(SUB_CFG.replace("subcritical", "weird"))

    def test_regime_mismatch(self):
        cfg = experiment_config_from_text(SUB_CFG.replace("regime = subcritical",
                                                          "regime = critical"))
        with pytest.raises(RegimeMismatchError):
            cfg.validate()

    def test_supercritical_power_rule_rejected(self):
        text = """
n = 1
a = 1.0
b = -0.5
m = 0.5
kappa = -0.2
theta = -1.0
rho = 1,0; 0.2,0.9
regime = supercritical
horizons = 10
gamma = 2.5
replications = 4
seed = 1
"""
        cfg = experiment_config_from_text(text)
        with pytest.raises(ConfigError):
            cfg.validate_for_limit_theorem()

    def test_subcritical_small_gamma_rejected_for_clt(self):
        cfg = experiment_config_from_text(
            SUB_CFG.replace("delta = 0.02", "gamma = 0.5")
        )
        with pytest.raises(ConfigError):
            cfg.validate_for_limit_theorem()

    def test_supercritical_sign_hypothesis_enforced(self):
        text = """
n = 1
a = 1.0
b = -0.5
m = 0.5
kappa = 0.2
theta = -1.0
rho = 1,0; 0.2,0.9
regime = supercritical
horizons = 10
delta = 0.01
replications = 4
seed = 1
"""
        # m * kappa > 0 violates the sign condition of the limit law
        cfg = experiment_config_from_text(text)
        with pytest.raises(ConfigError):
            cfg.validate_for_limit_theorem()
        ok = experiment_config_from_text(text.replace("kappa = 0.2",
                                                      "kappa = -0.2"))
        ok.validate_for_limit_theorem()

    def test_supercritical_b_ordering_enforced(self):
        text = """
n = 1
a = 1.0
b = -2.0
m = 0.5
kappa = -0.2
theta = -1.0
rho = 1,0; 0.2,0.9
regime = supercritical
horizons = 10
delta = 0.01
replications = 4
seed = 1
"""
        cfg = experiment_config_from_text(text)
        with pytest.raises(ConfigError):
            cfg.validate_for_limit_theorem()


class TestRunExperiment:
    def test_single_replication_row_and_no_covariance(self):
        cfg = experiment_config_from_text(SUB_CFG.replace("replications = 24",
                                                          "replications = 1"))
        rep = run_experiment(cfg)
        est_rows = [r for r in rep.rows if r.kind == "estimate"]
        assert len(est_rows) == 1
        assert "emp_cov" not in rep.per_horizon[0]

    def test_supercritical_run_with_one_replication_fails_its_checks(self):
        # a horizon with one estimate has no median or IQR; the run used to
        # die with KeyError: 'median_abs_b_err'
        rep = run_experiment(experiment_config_from_text(SUPER_ONE_REP_CFG))
        super_checks = {k: v for k, v in rep.checks.items() if not k.startswith("abort")}
        assert len(super_checks) == 4 and not any(super_checks.values())
        assert all("median_abs_b_err" not in s for s in rep.per_horizon)

    def test_one_horizon_supercritical_run_records_every_check(self):
        # one horizon has nothing to compare, so both comparisons fail; the
        # run used to record its abort-rate check alone and pass
        text = (SUPER_ONE_REP_CFG.replace("horizons = 15,25", "horizons = 15")
                .replace("replications = 1", "replications = 4"))
        rep = run_experiment(experiment_config_from_text(text))
        s, checks = rep.per_horizon[0], rep.checks
        assert sorted(checks) == sorted([
            "abort_rate<0.01[T=15]", "median_b_err_decreasing", "median_b_err_final<0.05",
            "iqr_a_not_contracting", "stabilization>=0.95"])
        assert not checks["median_b_err_decreasing"] and not checks["iqr_a_not_contracting"]
        assert checks["median_b_err_final<0.05"] == (s["median_abs_b_err"] < 0.05)
        assert checks["stabilization>=0.95"] == (s["stabilization_rate"] >= 0.95)
        assert not rep.passed

    def test_subcritical_run_with_one_replication_fails_its_checks(self):
        # one estimate has no mean, covariance, skewness or kurtosis; the run
        # used to pass on its abort-rate check alone
        cfg = experiment_config_from_text(SUB_CFG.replace("replications = 24",
                                                          "replications = 1"))
        rep = run_experiment(cfg)
        stat_checks = {k: v for k, v in rep.checks.items() if not k.startswith("abort")}
        assert len(stat_checks) == 4 and not any(stat_checks.values())
        assert not rep.passed

    @pytest.mark.parametrize("replications, draws_left", [(1, True), (3, False)])
    def test_critical_run_without_statistics_fails_its_ks_checks(
            self, monkeypatch, replications, draws_left):
        # one estimate, or no limit draw left, has no KS distance; the run
        # used to leave the KS checks out
        if not draws_left:
            monkeypatch.setattr(harness, "_limit_draw", lambda path, params: None)
        text = TestLimitDrawFailures.CFG.replace("replications = 6",
                                                 f"replications = {replications}")
        rep = run_experiment(experiment_config_from_text(text))
        ks_checks = {k: v for k, v in rep.checks.items() if k.startswith("ks_")}
        assert list(ks_checks) == [f"ks_err_{i}<0.15[T=20]" for i in range(5)]
        assert not any(ks_checks.values()) and not rep.passed
        assert "ks_vs_limit" not in rep.per_horizon[0]

    @pytest.mark.parametrize("zero, moved", [(None, None), ("b = 0.0", "b = 0.5"),
                                             ("kappa = 0.0", "kappa = 0.5"),
                                             ("theta = 0.0", "theta = 1.0")],
                             ids=["zero", "b", "kappa", "theta"])
    def test_critical_law_applies_only_at_zero_b_kappa_and_theta(self, zero, moved):
        # the limit draws simulate the b = kappa = theta = 0 process; every
        # other critical model used to pass on the KS of (a, T b) alone
        text = TestLimitDrawFailures.CFG
        rep = run_experiment(experiment_config_from_text(text.replace(zero, moved) if zero else text))
        assert rep.checks["critical_law_applies"] is (zero is None)
        if zero:
            assert not rep.passed

    def test_byte_identical_reruns(self):
        cfg = experiment_config_from_text(SUB_CFG)
        rep1 = run_experiment(cfg, threads=1)
        rep2 = run_experiment(cfg, threads=1)
        assert rep1.csv_text() == rep2.csv_text()
        assert json.dumps(rep1.summary(), sort_keys=True) == json.dumps(
            rep2.summary(), sort_keys=True
        )

    def test_threads_other_than_one_are_a_config_error(self):
        cfg = experiment_config_from_text(SUB_CFG)
        with pytest.raises(ConfigError):
            run_experiment(cfg, threads=2)

    def test_summary_recomputable_from_csv(self):
        cfg = experiment_config_from_text(SUB_CFG)
        rep = run_experiment(cfg)
        lines = rep.csv_text().strip().splitlines()
        header = lines[0].split(",")
        err_cols = [i for i, h in enumerate(header) if h.startswith("err_")]
        E = np.array([
            [float(row.split(",")[i]) for i in err_cols]
            for row in lines[1:]
            if row.startswith("estimate")
        ])
        assert np.allclose(E.mean(axis=0), rep.per_horizon[0]["mean_norm_err"],
                           atol=1e-12)

    def test_report_files(self, tmp_path):
        cfg = experiment_config_from_text(SUB_CFG)
        rep = run_experiment(cfg)
        paths = write_report(rep, str(tmp_path), stem="experiment")
        with open(paths["json"]) as fh:
            summary = json.load(fh)
        assert summary["config_digest"] == cfg.digest()
        with open(paths["csv"]) as fh:
            assert fh.read() == rep.csv_text()

    def test_csv_rows_render_as_fmt_writes_them(self):
        # csv_text formats a row's floats with one "{:.17g}" string; every
        # field must still read as _fmt writes it, NaN stand-ins included
        L = 3
        rows = [
            harness.Row("estimate", 40.0, 0, False, True, np.array([0.1, -0.0, np.inf]),
                        np.array([1e-300, -np.inf, 2.0 / 3.0])),
            harness.Row("estimate", 40.0, 1, True, False, None, None),
            harness.Row("limit_draw", None, 0, False, True, None, np.array([-1.5, 0.0, 7e22])),
            harness.Row("limit_draw", None, 1, True, False, None, None),
            harness.Row("estimate", 1e-5, 2, np.bool_(False), np.bool_(True),
                        np.array([5e-324, np.nan, -1.0]), np.array([1.0, 2.0, 3.0])),
        ]
        rep = harness.ExperimentReport("d", "critical", "discrete", 1, 2, [40.0], [0.02],
                                       np.zeros(L), rows, [], {})
        nan = [float("nan")] * L
        assert rep.csv_text().splitlines()[1:] == [",".join(
            [r.kind, harness._fmt(r.horizon), str(r.rep), harness._fmt(r.aborted),
             harness._fmt(r.stabilized)]
            + [harness._fmt(v) for v in (nan if r.tau is None else r.tau)]
            + [harness._fmt(v) for v in (nan if r.err is None else r.err)]) for r in rows]
        gap_rows = [(16.0, 0, False, 0.125), (16.0, 1, True, float("nan")),
                    (32.0, 0, False, -0.0), (32.0, 1, False, float("inf"))]
        gap = harness.GapReport("d", 1, 1.1, [16.0, 32.0], [0.1, 0.05], [], [], False, gap_rows)
        assert gap.csv_text().splitlines()[1:] == [
            ",".join([harness._fmt(T), str(r), harness._fmt(a), harness._fmt(g)])
            for T, r, a, g in gap_rows]

    @pytest.mark.parametrize("kind", ["experiment", "gap"])
    def test_report_renders_its_csv_once(self, kind, tmp_path, monkeypatch):
        if kind == "experiment":
            rep = run_experiment(experiment_config_from_text(SUB_CFG))
        else:
            rep = discrete_vs_continuous_gap(experiment_config_from_text(
                SUB_CFG.replace("delta = 0.02", "gamma = 1.1")
                .replace("horizons = 40", "horizons = 16,32")
                .replace("replications = 24", "replications = 4")))
        csv, summary = rep.csv_text(), rep.summary()
        renders = []
        csv_text = type(rep).csv_text
        monkeypatch.setattr(type(rep), "csv_text",
                            lambda self: renders.append(1) or csv_text(self))
        paths = write_report(rep, str(tmp_path), stem=kind)
        assert len(renders) == 1
        with open(paths["csv"], encoding="utf-8") as fh:
            assert fh.read() == csv
        with open(paths["json"], encoding="utf-8") as fh:
            assert fh.read() == json.dumps(summary, indent=2, sort_keys=True) + "\n"

    def test_critical_run_includes_limit_rows(self):
        text = """
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
horizons = 30
delta = 0.05
replications = 12
seed = 99
flavor = discrete
limit_draws = 10
"""
        rep = run_experiment(experiment_config_from_text(text))
        kinds = {r.kind for r in rep.rows}
        assert kinds == {"estimate", "limit_draw"}
        assert sum(r.kind == "limit_draw" for r in rep.rows) == 10
        assert "ks_vs_limit" in rep.per_horizon[0]


def _fail_call(monkeypatch, name, k, fail):
    """Make call k (0-based) of ad1n.estimate.<name> return
    fail(original, *args) instead."""
    import ad1n.estimate

    original = getattr(ad1n.estimate, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == k:
            return fail(original, *args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ad1n.estimate, name, wrapper)


def _raise_linalg(original, *args):
    raise np.linalg.LinAlgError("injected")


def _nan_b(original, tilde, h):
    a, _, m, kappa, theta = original(tilde, h)
    return a, float("nan"), m, kappa, theta


class TestReplicationFailures:
    CFG = SUB_CFG.replace("horizons = 40", "horizons = 10").replace(
        "replications = 24", "replications = 4")

    def _lines(self):
        rep = run_experiment(experiment_config_from_text(self.CFG))
        return rep.csv_text().splitlines()

    @pytest.mark.parametrize("name, fail", [
        ("g_inverse", _raise_linalg),   # solve phase
        ("g_inverse", _nan_b),          # non-finite estimate
        ("design_blocks", _raise_linalg),  # path phase
    ])
    def test_one_failed_replication_is_one_aborted_row(self, monkeypatch, name, fail):
        want = self._lines()
        _fail_call(monkeypatch, name, 2, fail)
        got = self._lines()
        assert len(got) == len(want)
        changed = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert changed == [3]  # header, then replications 0, 1, 2
        fields = got[3].split(",")
        assert fields[:5] == ["estimate", "10", "2", "1", "0"]
        assert all(v == "nan" for v in fields[5:])
        assert sum(line.split(",")[3] == "1" for line in got[1:]) == 1

    def test_gap_study_records_a_failed_solve(self, monkeypatch):
        cfg = self.CFG.replace("delta = 0.02", "gamma = 1.1")
        want = discrete_vs_continuous_gap(experiment_config_from_text(cfg))
        _fail_call(monkeypatch, "g_inverse", 1, _raise_linalg)
        got = discrete_vs_continuous_gap(experiment_config_from_text(cfg))
        assert [r[2] for r in got.rows] == [False, True, False, False]
        assert [r for i, r in enumerate(got.rows) if i != 1] == \
            [r for i, r in enumerate(want.rows) if i != 1]
        assert got.medians == [float(np.median([want.rows[i][3] for i in (0, 2, 3)]))]


class TestStreamedReplicationFailures:
    """Inside a streamed lockstep batch (27 paths of 8,000 steps), a
    replication whose design blocks raise stays one aborted row."""

    CFG = SUB_CFG.replace("horizons = 40", "horizons = 160").replace(
        "replications = 24", "replications = 27").replace("flavor = exact", "flavor = discrete")

    def _lines(self, monkeypatch, bad):
        chunks = []  # (steps + 1, paths) of each lockstep chunk
        lockstep = simulate._y_lockstep
        monkeypatch.setattr(simulate, "_y_lockstep",
                            lambda Y, *args: chunks.append(Y.shape) or lockstep(Y, *args))
        if bad is not None:
            _fail_call(monkeypatch, "design_blocks", bad, _raise_linalg)
        lines = run_experiment(experiment_config_from_text(self.CFG)).csv_text().splitlines()
        # the failure leaves the batch whole: all 27 paths advance together
        assert (STREAM_CHUNK + 1, 27) in chunks
        return lines

    @pytest.mark.parametrize("bad", [1, 25])
    def test_failed_design_blocks_is_one_aborted_row(self, monkeypatch, bad):
        want = self._lines(monkeypatch, None)
        got = self._lines(monkeypatch, bad)
        assert len(got) == len(want) == 28
        changed = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert changed == [bad + 1]
        fields = got[bad + 1].split(",")
        assert fields[:5] == ["estimate", "160", str(bad), "1", "0"]
        assert all(v == "nan" for v in fields[5:])


def _singular_third_draw(monkeypatch):
    """Make the third limit draw of a run raise SingularUError."""
    from ad1n.asymptotics import CriticalLimitFunctional
    from ad1n.errors import SingularUError

    original = CriticalLimitFunctional.limit_draw
    calls = []

    def limit_draw(self):
        calls.append(None)
        if len(calls) == 3:
            raise SingularUError("injected")
        return original(self)

    monkeypatch.setattr(CriticalLimitFunctional, "limit_draw", limit_draw)


class TestLimitDrawFailures:
    CFG = """
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
horizons = 20
delta = 0.05
replications = 6
seed = 31
flavor = discrete
limit_draws = 8
"""

    def test_one_singular_draw_is_one_aborted_row(self, monkeypatch):
        want = run_experiment(experiment_config_from_text(self.CFG))
        _singular_third_draw(monkeypatch)
        got = run_experiment(experiment_config_from_text(self.CFG))
        want_lines, got_lines = want.csv_text().splitlines(), got.csv_text().splitlines()
        assert len(got_lines) == len(want_lines)
        changed = [i for i, (g, w) in enumerate(zip(got_lines, want_lines)) if g != w]
        assert changed == [1 + 6 + 2]  # header, 6 estimates, limit draws 0 and 1
        fields = got_lines[changed[0]].split(",")
        assert fields[:5] == ["limit_draw", "", "2", "1", "0"]
        assert all(v == "nan" for v in fields[5:])
        # the KS sample leaves the aborted draw out
        E = np.array([r.err for r in want.rows if r.kind == "estimate"])
        kept = np.array([r.err for r in want.rows if r.kind == "limit_draw" and r.rep != 2])
        ks = [ks_two_sample(E[:, i], kept[:, i]) for i in range(E.shape[1])]
        assert got.per_horizon[0]["ks_vs_limit"] == ks
        assert want.checks["limit_abort_rate<0.01"]
        assert not got.checks["limit_abort_rate<0.01"]
        assert not got.passed


class LimitPhaseBug(RuntimeError):
    """An exception outside REP_FAILURES, raised in the limit phase."""


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not harness._FORKS, reason="the limit draws run in-process")
class TestLimitPhaseChild:
    """A critical run's limit draws run in a forked child; its failures
    reach the caller and it never outlives the run."""

    CFG = experiment_config_from_text(TestLimitDrawFailures.CFG)

    def test_same_report_in_process(self, monkeypatch):
        forked = run_experiment(self.CFG)
        monkeypatch.setattr(harness, "_FORKS", False)
        assert run_experiment(self.CFG).csv_text() == forked.csv_text()

    def test_exception_reaches_the_caller_with_its_class(self, monkeypatch):
        def boom(*args, **kwargs):
            raise LimitPhaseBug("in the child", os.getpid())

        monkeypatch.setattr(harness, "simulate_critical_limits", boom)
        fds = _open_fds()
        with pytest.raises(LimitPhaseBug, match="in the child") as info:
            run_experiment(self.CFG)
        assert info.value.args[1] != os.getpid()
        assert _open_fds() == fds

    def test_killed_child_makes_the_run_raise(self, monkeypatch):
        monkeypatch.setattr(harness, "_limit_phase",
                            lambda config: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(ChildProcessError, match=f"status {-signal.SIGKILL} "):
            run_experiment(self.CFG)

    def test_failing_path_phase_kills_the_child(self, monkeypatch):
        def path_phase(*args):
            raise LimitPhaseBug("in the parent")

        monkeypatch.setattr(harness, "_limit_phase", lambda config: time.sleep(60))
        monkeypatch.setattr(harness, "_path_phase", path_phase)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(LimitPhaseBug, match="in the parent"):
            run_experiment(self.CFG)
        assert time.monotonic() - start < 30  # killed, not waited for
        assert _open_fds() == fds


class PathPhaseBug(RuntimeError):
    """An exception outside REP_FAILURES, raised in a path phase."""


def _count_children(monkeypatch):
    """Wrap harness._in_child; the returned dict counts the children started
    and the most alive at once."""
    seen = {"started": 0, "alive": 0, "most": 0}
    in_child = harness._in_child

    @contextlib.contextmanager
    def counted(fn):
        with in_child(fn) as join:
            seen["started"] += 1
            seen["alive"] += 1
            seen["most"] = max(seen["most"], seen["alive"])
            try:
                yield join
            finally:
                seen["alive"] -= 1

    monkeypatch.setattr(harness, "_in_child", counted)
    return seen


#: 25 replications of 20,000 steps: simulate_paths runs them one at a time,
#: and 11 paths' states fit BATCH_BYTES, so the path phase runs a round of
#: 22 paths and one of 3, each with one forked child
LONG_CFG = SUB_CFG.replace("horizons = 40", "horizons = 400").replace(
    "replications = 24", "replications = 25")


@pytest.mark.skipif(not harness._FORKS, reason="the path phases run in-process")
class TestPathPhaseChildren:
    """Path-by-path horizons are simulated in rounds by the parent and one
    forked child, which take seeds from one queue, and the parent keeps
    each path; the report is the in-process one, every seed is simulated
    once, and no child outlives the run, whether it returns or raises."""

    CFG = experiment_config_from_text(LONG_CFG)

    def test_shape_of_the_rounds(self):
        N = simulate.grid_steps(400, 0.02, 2)
        assert N >= 18_602 and simulate.batch_width(N) == 1
        assert simulate.BATCH_BYTES // (8 * (N + 1) * 2) == 11

    def test_same_report_in_process(self, monkeypatch, tmp_path):
        seen = _count_children(monkeypatch)
        kept_by = []  # the process that keeps each path
        design_blocks = harness.estimate.design_blocks
        monkeypatch.setattr(harness.estimate, "design_blocks",
                            lambda path: kept_by.append(os.getpid()) or design_blocks(path))
        simulated = tmp_path / "simulated"  # "pid index" per path, from both processes
        simulate_paths = harness.simulate_paths

        def recording(*args):
            for path in simulate_paths(*args):
                with open(simulated, "a") as fh:
                    fh.write(f"{os.getpid()} {path.seed[1]}\n")
                yield path

        monkeypatch.setattr(harness, "simulate_paths", recording)
        fds = _open_fds()
        forked = run_experiment(self.CFG)
        assert seen == {"started": 2, "alive": 0, "most": 1}
        assert kept_by == [os.getpid()] * 25
        assert _open_fds() == fds
        lines = [line.split() for line in simulated.read_text().splitlines()]
        assert sorted(int(index) for _, index in lines) == list(range(25))
        assert len({pid for pid, _ in lines}) <= 3  # the parent and a child per round
        monkeypatch.setattr(harness, "_FORKS", False)
        alone = run_experiment(self.CFG)
        assert seen["started"] == 2
        assert alone.csv_text() == forked.csv_text()
        assert alone.summary() == forked.summary()

    def test_same_gap_report_in_process(self, monkeypatch):
        # delta(T) = T^-1.1 gives 23,264 and 42,799 steps: one round each
        cfg = experiment_config_from_text(
            SUB_CFG.replace("delta = 0.02", "gamma = 1.1")
            .replace("horizons = 40", "horizons = 120,160")
            .replace("replications = 24", "replications = 5"))
        seen = _count_children(monkeypatch)
        forked = discrete_vs_continuous_gap(cfg)
        assert seen["started"] == 2 and seen["most"] == 1
        monkeypatch.setattr(harness, "_FORKS", False)
        assert discrete_vs_continuous_gap(cfg).csv_text() == forked.csv_text()

    def test_lockstep_phases_start_no_path_child(self, monkeypatch):
        seen = _count_children(monkeypatch)
        run_experiment(experiment_config_from_text(SUB_CFG))
        assert seen["started"] == 0
        run_experiment(experiment_config_from_text(_CRITICAL))
        assert seen["started"] == 1  # the limit draws

    def test_one_replication_runs_in_process(self, monkeypatch):
        seen = _count_children(monkeypatch)
        run_experiment(experiment_config_from_text(LONG_CFG.replace(
            "replications = 25", "replications = 1")))
        assert seen["started"] == 0

    def test_failed_design_blocks_is_one_aborted_row(self, monkeypatch):
        want = run_experiment(self.CFG).csv_text().splitlines()
        _fail_call(monkeypatch, "design_blocks", 13, _raise_linalg)
        got = run_experiment(self.CFG).csv_text().splitlines()
        changed = [i for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert len(got) == len(want) and changed == [14]
        assert got[14].split(",")[:5] == ["estimate", "400", "13", "1", "0"]

    def test_exception_reaches_the_caller_with_its_class(self, monkeypatch):
        # raised once in the child's share of a round and once in the parent's
        parent = os.getpid()
        simulate_paths = harness.simulate_paths
        for where in ("child", "parent"):
            def boom(*args):
                if (os.getpid() == parent) == (where == "parent"):
                    raise PathPhaseBug(f"in the {where}", os.getpid())
                return simulate_paths(*args)

            monkeypatch.setattr(harness, "simulate_paths", boom)
            fds = _open_fds()
            with pytest.raises(PathPhaseBug, match=f"in the {where}") as info:
                run_experiment(self.CFG)
            assert (info.value.args[1] == parent) == (where == "parent")
            assert _open_fds() == fds

    def test_child_killed_during_simulation_makes_the_run_raise(self, monkeypatch):
        # the seeds are a generator that reads the round's queue
        parent = os.getpid()
        simulate_paths = harness.simulate_paths
        kept = []

        def child_dies(params, T, delta, seeds):
            paths = simulate_paths(params, T, delta, seeds)
            if os.getpid() == parent:
                yield from paths
                return
            yield from itertools.islice(paths, 1)
            os.kill(os.getpid(), signal.SIGKILL)

        design_blocks = harness.estimate.design_blocks
        monkeypatch.setattr(harness, "simulate_paths", child_dies)
        monkeypatch.setattr(harness.estimate, "design_blocks",
                            lambda path: kept.append(path) or design_blocks(path))
        fds = _open_fds()
        with pytest.raises(ChildProcessError, match=f"status {-signal.SIGKILL} "):
            run_experiment(self.CFG)
        assert kept == []  # no path is kept before the round's child is joined
        assert _open_fds() == fds

    def test_parent_error_kills_the_child(self, monkeypatch):
        # the no_child_left fixture checks that the child is reaped
        parent = os.getpid()
        simulate_paths = harness.simulate_paths

        def failing_parent_share(params, T, delta, seeds):
            if os.getpid() == parent:
                raise PathPhaseBug("in the parent", os.getpid())
            time.sleep(60)
            return simulate_paths(params, T, delta, seeds)

        monkeypatch.setattr(harness, "simulate_paths", failing_parent_share)
        fds = _open_fds()
        start = time.monotonic()
        with pytest.raises(PathPhaseBug, match="in the parent") as info:
            run_experiment(self.CFG)
        assert time.monotonic() - start < 30  # killed, not waited for
        assert info.value.args[1] == parent
        assert _open_fds() == fds

    def _handover_fails(self, monkeypatch, error, match):
        """Run with a broken handover: the run raises ``error`` and keeps
        no path of the first round (so no row of zeros either)."""
        kept = []
        design_blocks = harness.estimate.design_blocks
        monkeypatch.setattr(harness.estimate, "design_blocks",
                            lambda path: kept.append(path) or design_blocks(path))
        fds = _open_fds()
        with pytest.raises(error, match=match):
            run_experiment(self.CFG)
        assert kept == []
        assert _open_fds() == fds

    def _fault_at_path(self, monkeypatch, fault):
        """Let whichever process simulates replication 5, inside the first
        round, hand back the paths ``fault(path)`` in its place."""
        simulate_paths = harness.simulate_paths
        fifth = simulate.substream(self.CFG.seed, 5)

        def faulty(*args):
            for path in simulate_paths(*args):
                yield from fault(path) if path.seed == fifth else (path,)

        monkeypatch.setattr(harness, "simulate_paths", faulty)

    def test_skipped_path_makes_the_run_raise(self, monkeypatch):
        # simulated but never written: the memfd keeps a hole there
        self._fault_at_path(monkeypatch, lambda path: ())
        self._handover_fails(monkeypatch, ChildProcessError,
                             r"a round of 22 paths wrote indices \[0, 1, 2, 3, 4, 6, ")

    def test_duplicated_index_makes_the_run_raise(self, monkeypatch):
        self._fault_at_path(monkeypatch, lambda path: (path, path))
        self._handover_fails(monkeypatch, ChildProcessError,
                             r"a round of 22 paths wrote indices \[0, 1, 2, 3, 4, 5, 5, ")

    def test_short_write_makes_the_run_raise(self, monkeypatch):
        size = 8 * (simulate.grid_steps(400, 0.02, 2) + 1) * 2
        pwrite = os.pwrite

        def short(fd, data, offset):  # the last float of path 5 is not written
            return pwrite(fd, memoryview(data).cast("B")[:-8] if offset == 5 * size else data,
                          offset)

        monkeypatch.setattr(os, "pwrite", short)
        self._handover_fails(monkeypatch, OSError, f"wrote {size - 8} of {size} bytes of path 5")

    def test_short_read_makes_the_run_raise(self, monkeypatch):
        size = 8 * (simulate.grid_steps(400, 0.02, 2) + 1) * 2
        preadv = os.preadv

        def short(fd, buffers, offset):  # the last float of each path is not read
            return preadv(fd, [memoryview(buffers[0]).cast("B")[:-8]], offset)

        monkeypatch.setattr(os, "preadv", short)
        self._handover_fails(monkeypatch, OSError, f"read {size - 8} of {size} bytes of path 0")

    def test_failing_keep_reaches_the_caller_with_its_class(self, monkeypatch):
        # the failing keep's frame still holds its Path while the round's
        # memfd is closed; nothing may raise over keep's own exception
        def keep_bug(path):
            raise PathPhaseBug("in the parent", os.getpid())

        monkeypatch.setattr(harness.estimate, "design_blocks", keep_bug)
        with pytest.raises(PathPhaseBug, match="in the parent") as info:
            run_experiment(self.CFG)
        assert info.value.args[1] == os.getpid()
        assert info.value.__context__ is None

    def test_kept_paths_equal_the_in_process_paths(self, monkeypatch):
        seen = []
        design_blocks = harness.estimate.design_blocks

        def recording(path):
            seen.append((path.delta, path.times.copy(), path.times.flags.writeable,
                         path.states.copy(), path.seed, path.params_hash))
            return design_blocks(path)

        monkeypatch.setattr(harness.estimate, "design_blocks", recording)
        run_experiment(self.CFG)
        cfg = self.CFG
        seeds = [simulate.substream(cfg.seed, r) for r in range(cfg.replications)]
        assert [s[4] for s in seen] == seeds
        for got, path in zip(seen, simulate.simulate_paths(cfg.params, 400.0, 0.02, seeds)):
            delta, times, writeable, states, seed, params_hash = got
            assert delta == path.delta and seed == path.seed
            assert params_hash == path.params_hash
            assert not writeable and np.array_equal(times, path.times)
            assert states.shape == path.states.shape
            assert np.array_equal(states, path.states)

    def test_parent_holds_one_slot_at_a_time(self):
        # 16 paths of 25,000 steps are one round; a parent that held every
        # path it read back until the round ended would grow by 16 slots.
        # The peak is VmHWM, the high-water mark behind ru_maxrss: a process
        # started by this one inherits this one's ru_maxrss across exec
        code = (
            "import mmap, sys, ad1n\n"
            "text = sys.stdin.read()\n"
            "def peak():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return 1024 * int(next(l for l in fh if l.startswith('VmHWM:')).split()[1])\n"
            "# a two-path round first: lazy imports, OpenBLAS's buffers, the grid\n"
            "ad1n.run_experiment(ad1n.experiment_config_from_text(\n"
            "    text.replace('replications = 16', 'replications = 2')))\n"
            "before = peak()\n"
            "ad1n.run_experiment(ad1n.experiment_config_from_text(text))\n"
            "slot = -(-8 * 25_001 * 2 // mmap.PAGESIZE) * mmap.PAGESIZE\n"
            "print(peak() - before, slot)\n"
        )
        text = SUB_CFG.replace("horizons = 40", "horizons = 500").replace(
            "replications = 24", "replications = 16")
        grown, slot = map(int, _in_fresh_interpreter(code, text))
        assert grown < 2 * slot

    def test_no_mapping_outlives_the_run(self, monkeypatch):
        run_experiment(self.CFG)  # OpenBLAS's threads and lazy imports map their pages
        maps = _mapped_regions()
        run_experiment(self.CFG)
        assert _mapped_regions() == maps

        def boom(*args):
            raise PathPhaseBug("in the child")

        simulate_paths = harness.simulate_paths
        monkeypatch.setattr(harness, "simulate_paths", boom)
        with pytest.raises(PathPhaseBug) as info:
            run_experiment(self.CFG)
        # info holds the traceback, and with it the path phase's frame
        assert info.traceback and _mapped_regions() == maps
        monkeypatch.setattr(harness, "simulate_paths", simulate_paths)

        def keep_bug(path):
            raise PathPhaseBug("in the parent")

        monkeypatch.setattr(harness.estimate, "design_blocks", keep_bug)
        try:
            run_experiment(self.CFG)
        except PathPhaseBug:
            pass
        # nor once a failing keep's exception, which holds its Path, is dropped
        assert _mapped_regions() == maps


def _mapped_regions():
    with open("/proc/self/maps") as fh:
        return len(fh.readlines())


#: two inadmissible models: rho not lower triangular, and a negative
#: diagonal entry of rho
INADMISSIBLE_RHO = ["rho = 1,0.5; 0.2,0.9", "rho = -1,0; 0.2,0.9"]


class TestKeysMadeAsPathsStart:
    """A horizon's substream keys, and the limit draws', are made one batch
    or one round at a time, so no list of all of them is built; each run
    below stops at its first path."""

    M = 10**6

    def _first_path(self, monkeypatch, run, paths_module=harness):
        seen = keys_at_first_path(monkeypatch, harness, paths_module)
        with pytest.raises(FirstPath):
            run()
        return seen

    def test_lockstep_path_phase(self, monkeypatch):
        cfg = experiment_config_from_text(
            SUB_CFG.replace("replications = 24", f"replications = {self.M}"))
        seen = self._first_path(monkeypatch, lambda: harness._path_phase(cfg, 0, len))
        assert seen == [simulate.batch_width(simulate.grid_steps(40, 0.02, 2))]

    def test_path_by_path_rounds(self, monkeypatch):
        cfg = experiment_config_from_text(
            LONG_CFG.replace("replications = 25", f"replications = {self.M}"))
        seen = self._first_path(monkeypatch, lambda: harness._path_phase(cfg, 0, len))
        assert seen == [22 if harness._FORKS else 1]  # a round of 2 x 11 paths

    def test_limit_phase(self, monkeypatch):
        cfg = experiment_config_from_text(
            _CRITICAL.replace("limit_draws = 4", f"limit_draws = {self.M}"))
        seen = self._first_path(monkeypatch, lambda: harness._limit_phase(cfg), simulate)
        assert seen == [simulate.batch_width(1000)]


class TestInadmissibleModel:
    """An inadmissible model is a ConfigError when its config is parsed; it
    used to run with every replication aborted."""

    @pytest.mark.parametrize("rho", INADMISSIBLE_RHO)
    def test_run_experiment(self, rho):
        with pytest.raises(ConfigError, match="inadmissible model: rho"):
            run_experiment(experiment_config_from_text(SUB_CFG.replace("rho = 1,0; 0.2,0.9", rho)))

    @pytest.mark.parametrize("rho", INADMISSIBLE_RHO)
    def test_gap_study(self, rho):
        with pytest.raises(ConfigError, match="inadmissible model: rho"):
            discrete_vs_continuous_gap(experiment_config_from_text(
                SUB_CFG.replace("rho = 1,0; 0.2,0.9", rho).replace("delta = 0.02", "gamma = 1.1")))


class TestGapExperiment:
    def test_identical_flavors_give_zero(self):
        # when both sides use the same flavor the gap vanishes identically
        from ad1n import estimate_path, simulate_path, substream

        cfg = experiment_config_from_text(SUB_CFG)
        path = simulate_path(cfg.params, 25.0, 0.05, seed=substream(1, 0))
        d1 = estimate_path(path, "discrete")
        d2 = estimate_path(path, "discrete")
        assert np.max(np.abs(d1.tau_hat - d2.tau_hat)) == 0.0

    def test_gap_requires_gamma(self):
        cfg = experiment_config_from_text(SUB_CFG)
        with pytest.raises(ConfigError):
            discrete_vs_continuous_gap(cfg)

    def test_gap_report_fields(self):
        cfg = experiment_config_from_text(
            SUB_CFG.replace("delta = 0.02", "gamma = 1.1")
            .replace("horizons = 40", "horizons = 16,32")
            .replace("replications = 24", "replications = 20")
        )
        rep = discrete_vs_continuous_gap(cfg)
        assert len(rep.medians) == 2
        assert len(rep.ratios) == 1
        assert rep.csv_text().startswith("horizon,rep,aborted,gap")
