import dataclasses
import json
import os
import subprocess
import sys

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
from ad1n import simulate
from ad1n.errors import ConfigError, RegimeMismatchError
from ad1n.harness import (
    excess_kurtosis,
    ks_two_sample,
    ks_vs_normal,
    parse_config_text,
    skewness,
)
from ad1n.simulate import STREAM_CHUNK

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


def _modules_after_small_run(*modules):
    """Run a small n = 1 exact subcritical experiment in a fresh interpreter
    and report, per module name, whether it ended up imported."""
    import ad1n

    code = (
        "import sys, ad1n\n"
        "text = sys.stdin.read()\n"
        "report = ad1n.run_experiment(ad1n.experiment_config_from_text(text))\n"
        "assert 'ks_vs_sandwich_normal' in report.per_horizon[0]\n"
        "assert not any(r.aborted for r in report.rows)\n"
        f"print(*[m in sys.modules for m in {list(modules)!r}])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(ad1n.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    text = SUB_CFG.replace("horizons = 40", "horizons = 10").replace(
        "replications = 24", "replications = 3")
    out = subprocess.run([sys.executable, "-c", code], input=text, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return dict(zip(modules, (w == "True" for w in out.stdout.split())))


def test_subcritical_run_does_not_import_scipy_stats():
    # importing scipy.stats would add ~0.8 s and ~40 MB to every run
    assert _modules_after_small_run("scipy.stats") == {"scipy.stats": False}


def test_n1_exact_run_does_not_import_scipy_sparse():
    # at n = 1 the exact flavor's logarithm is np.log; scipy.linalg.logm
    # imports scipy.sparse.linalg on its first call (~28 ms, ~3.4 MB)
    assert _modules_after_small_run("scipy.sparse") == {"scipy.sparse": False}


def test_subcritical_run_does_not_import_scipy_special():
    # ks_vs_normal's normal cdf comes from math.erfc, not scipy.special.ndtr
    assert _modules_after_small_run("scipy.special") == {"scipy.special": False}


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

    @pytest.mark.parametrize("seed", [-3, 2**64])
    def test_seed_outside_uint64_rejected(self, seed):
        # both used to end the run in an OverflowError from the generator
        cfg = experiment_config_from_text(SUB_CFG + f"seed = {seed}\n")
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
    replication whose simulation raises stays one aborted row."""

    CFG = SUB_CFG.replace("horizons = 40", "horizons = 160").replace(
        "replications = 24", "replications = 27").replace("flavor = exact", "flavor = discrete")

    def _lines(self, monkeypatch, bad):
        def y0(rng):
            # the Philox key is (seed, replication index)
            v = float(rng.gamma(8.0, 0.25))
            return -v if int(rng.bit_generator.state["state"]["key"][1]) == bad else v

        chunks = []  # (steps + 1, paths) of each lockstep chunk
        lockstep = simulate._y_lockstep
        monkeypatch.setattr(simulate, "_y_lockstep",
                            lambda Y, *args: chunks.append(Y.shape) or lockstep(Y, *args))
        cfg = experiment_config_from_text(self.CFG)
        cfg.params = dataclasses.replace(cfg.params, y0=y0)
        lines = run_experiment(cfg).csv_text().splitlines()
        # a failure at replication 1 leaves 25 paths after it, at 25 the 25 before it
        assert (STREAM_CHUNK + 1, 27 if bad is None else 25) in chunks
        return lines

    @pytest.mark.parametrize("bad", [1, 25])
    def test_negative_start_is_one_aborted_row(self, monkeypatch, bad):
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
