import json
import os

import numpy as np
import pytest

from ad1n.cli import main

MODEL_CFG = """
n = 1
a = 2.0
b = 1.0
m = 1.0
kappa = 0.5
theta = 2.0
rho = 1,0; 0.2,0.9
y0 = 2.0
x0 = 0.25
horizon = 20
delta = 0.02
seed = 7
"""

EXP_CFG = MODEL_CFG + """
regime = subcritical
horizons = 20
replications = 10
flavor = exact
"""


@pytest.fixture
def cfg_file(tmp_path):
    f = tmp_path / "model.cfg"
    f.write_text(MODEL_CFG)
    return str(f)


@pytest.fixture
def exp_file(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text(EXP_CFG)
    return str(f)


def test_classify_command(cfg_file, capsys):
    assert main(["classify", "--config", cfg_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["regime"] == "subcritical"
    assert out["eig_theta"] == [2.0]


def test_simulate_then_estimate(cfg_file, tmp_path, capsys):
    out_dir = str(tmp_path / "sim")
    assert main(["simulate", "--config", cfg_file, "--out", out_dir]) == 0
    csv_file = capsys.readouterr().out.strip()
    assert os.path.exists(csv_file)
    assert os.path.exists(csv_file + ".json")
    with open(csv_file) as fh:
        header = fh.readline().strip()
    assert header == "t,Y,X1"

    assert main(["estimate", "--path", csv_file, "--flavor", "discrete"]) == 0
    est = json.loads(capsys.readouterr().out)
    assert len(est["tau_hat"]) == 5
    assert est["step"] == 0.02

    assert main(["estimate", "--path", csv_file, "--flavor", "exact"]) == 0
    est2 = json.loads(capsys.readouterr().out)
    assert est2["flavor"] == "exact"


def test_estimate_path_without_x_column_exit_code(tmp_path, capsys):
    # a t,Y file used to print an n = 0 estimate and exit 0
    f = tmp_path / "no_x.csv"
    f.write_text("t,Y\n0,1.0\n0.02,1.1\n0.04,0.9\n0.06,1.2\n")
    assert main(["estimate", "--path", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: path file needs columns t, Y, X1..Xn") and err.count("\n") == 1


def test_simulate_deterministic_given_seed(cfg_file, tmp_path, capsys):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    main(["simulate", "--config", cfg_file, "--out", d1, "--seed", "5"])
    main(["simulate", "--config", cfg_file, "--out", d2, "--seed", "5"])
    capsys.readouterr()
    with open(os.path.join(d1, "path.csv")) as fh:
        c1 = fh.read()
    with open(os.path.join(d2, "path.csv")) as fh:
        c2 = fh.read()
    assert c1 == c2


def test_moments_command(cfg_file, capsys):
    assert main(["moments", "--config", cfg_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stationary"]["E[Y]"] == pytest.approx(2.0, rel=1e-12)
    sandwich = np.array(out["covariance"]["sandwich"])
    assert sandwich.shape == (5, 5)
    assert np.allclose(sandwich, sandwich.T)


def test_experiment_command(exp_file, tmp_path, capsys):
    out_dir = str(tmp_path / "exp_out")
    code = main(["experiment", "--config", exp_file, "--out", out_dir])
    output = capsys.readouterr().out
    assert "overall" in output
    assert os.path.exists(os.path.join(out_dir, "experiment.csv"))
    assert os.path.exists(os.path.join(out_dir, "experiment.json"))
    assert code in (0, 1)  # statistical checks at desk scale may fail


def test_gap_command(tmp_path, capsys):
    f = tmp_path / "gap.cfg"
    f.write_text(EXP_CFG.replace("delta = 0.02", "gamma = 1.1")
                 .replace("horizons = 20", "horizons = 12,24"))
    out_dir = str(tmp_path / "gap_out")
    assert main(["gap", "--config", str(f), "--out", out_dir]) == 0
    out = capsys.readouterr().out
    assert "median_gap" in out
    assert os.path.exists(os.path.join(out_dir, "gap.json"))


def test_simulate_without_delta_is_a_config_error(tmp_path, capsys):
    f = tmp_path / "gamma.cfg"
    f.write_text(MODEL_CFG.replace("delta = 0.02", "gamma = 1.1"))
    assert main(["simulate", "--config", str(f), "--out", str(tmp_path / "sim")]) == 2
    assert "error:" in capsys.readouterr().err


def test_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text(EXP_CFG.replace("regime = subcritical", "regime = critical"))
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_nonpositive_delta_exit_code(tmp_path, capsys):
    # all but the first ended in an OverflowError or ValueError traceback (exit 1)
    for command, old, new in [("experiment", "delta = 0.02", "delta = -0.02"),
                              ("simulate", "horizon = 20", "horizon = inf"),
                              ("simulate", "delta = 0.02", "delta = nan"),
                              ("experiment", "horizons = 20", "horizons = inf")]:
        f = tmp_path / "bad_delta.cfg"
        f.write_text(EXP_CFG.replace(old, new))
        assert main([command, "--config", str(f), "--out", str(tmp_path)]) == 2, new
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_decreasing_horizons_exit_code(tmp_path, capsys):
    # ran, and compared the horizons in the order given
    f = tmp_path / "decreasing.cfg"
    f.write_text(EXP_CFG.replace("horizons = 20", "horizons = 24,12"))
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: horizons") and err.count("\n") == 1, err


def test_repeated_key_exit_code(tmp_path, capsys):
    f = tmp_path / "repeated.cfg"
    f.write_text(EXP_CFG + "delta = 0.01\n")
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: key 'delta' is set on lines") and err.count("\n") == 1, err


def test_fine_delta_out_of_range_exit_code(tmp_path, capsys):
    # passed validation: a subcritical run ignored it, and a critical run
    # raised in its limit-draw child after the first horizon's path and
    # solve phases
    f = tmp_path / "fine_delta.cfg"
    f.write_text(EXP_CFG + "fine_delta = 0.01\n")
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: fine_delta") and err.count("\n") == 1, err


def test_bad_config_value_exit_code(tmp_path, capsys):
    f = tmp_path / "bad_value.cfg"
    f.write_text(EXP_CFG.replace("replications = 10", "replications = abc"))
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path)]) == 2
    assert "error: bad value for replications" in capsys.readouterr().err


def test_misspelled_key_exit_code(tmp_path, capsys):
    f = tmp_path / "misspelled.cfg"
    f.write_text(EXP_CFG.replace("replications = 10", "replicatons = 10"))
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path)]) == 2
    assert "unknown key 'replicatons'" in capsys.readouterr().err


def test_bad_simulate_value_exit_code(tmp_path, capsys):
    f = tmp_path / "bad_delta.cfg"
    f.write_text(MODEL_CFG.replace("delta = 0.02", "delta = fast"))
    assert main(["simulate", "--config", str(f), "--out", str(tmp_path / "sim")]) == 2
    assert "error: bad value for delta" in capsys.readouterr().err


@pytest.mark.parametrize("command, seed_args, cfg_seed", [
    ("experiment", ["--seed", "-3"], "7"),
    ("experiment", ["--seed", str(2**64)], "7"),
    ("experiment", [], "-3"),
    ("simulate", ["--seed", "-3"], "7"),
    ("simulate", ["--seed", str(2**64)], "7"),
    ("simulate", [], "-3"),
])
def test_seed_outside_uint64_exit_code(tmp_path, capsys, command, seed_args, cfg_seed):
    # each used to end in an OverflowError traceback (exit 1)
    f = tmp_path / "seed.cfg"
    f.write_text(EXP_CFG.replace("seed = 7", f"seed = {cfg_seed}"))
    argv = [command, "--config", str(f), "--out", str(tmp_path / "out")] + seed_args
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err and err.count("\n") == 1


def test_supercritical_run_with_one_replication_writes_its_report(tmp_path, capsys):
    # one estimate per horizon: no median b error, so the checks fail (exit
    # 1); the run used to die with KeyError: 'median_abs_b_err'
    f = tmp_path / "super.cfg"
    f.write_text("""
n = 1
a = 1.0
b = -0.5
m = 0.5
kappa = -0.2
theta = -1.0
rho = 1,0; 0.2,0.9
regime = supercritical
horizons = 15,25
delta = 0.02
replications = 1
seed = 707
""")
    out_dir = str(tmp_path / "exp")
    assert main(["experiment", "--config", str(f), "--out", out_dir]) == 1
    with open(os.path.join(out_dir, "experiment.json")) as fh:
        assert json.load(fh)["checks"]["median_b_err_decreasing"] is False
    assert "FAIL  overall" in capsys.readouterr().out


SUPER_CFG = """
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
horizons = 12
delta = 0.01
replications = 20
seed = 5
"""


def test_one_horizon_supercritical_run_fails(tmp_path, capsys):
    # with stabilization_rate 0.2 the run printed PASS overall and exited 0
    # on its abort-rate check alone
    f = tmp_path / "super.cfg"
    f.write_text(SUPER_CFG)
    out_dir = str(tmp_path / "exp")
    assert main(["experiment", "--config", str(f), "--out", out_dir]) == 1
    with open(os.path.join(out_dir, "experiment.json")) as fh:
        checks = json.load(fh)["checks"]
    assert checks["median_b_err_decreasing"] is False
    assert checks["iqr_a_not_contracting"] is False
    assert checks["stabilization>=0.95"] is False
    assert "FAIL  overall" in capsys.readouterr().out


def test_supercritical_horizon_outside_the_float_range_exit_code(tmp_path, capsys):
    # Q_T at T = 1000 overflows; the run used to end in an OverflowError
    # traceback after simulating the first horizon
    f = tmp_path / "super.cfg"
    f.write_text(SUPER_CFG.replace("horizons = 12", "horizons = 10, 1000"))
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path / "exp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Q_T at horizon 1000") and err.count("\n") == 1, err


_CRITICAL_CHANGES = [("b = 1.0", "b = 0.0"), ("kappa = 0.5", "kappa = 0.0"),
                     ("theta = 2.0", "theta = 0.0"),
                     ("regime = subcritical", "regime = critical\nlimit_draws = 4")]


@pytest.mark.parametrize("changes", [[], _CRITICAL_CHANGES], ids=["subcritical", "critical"])
def test_run_with_one_replication_fails(tmp_path, capsys, changes):
    # one estimate per horizon has no statistics; the run used to print
    # PASS overall on its abort-rate check alone
    text = EXP_CFG.replace("replications = 10", "replications = 1")
    for old, new in changes:
        text = text.replace(old, new)
    f = tmp_path / "one.cfg"
    f.write_text(text)
    assert main(["experiment", "--config", str(f), "--out", str(tmp_path / "exp")]) == 1
    assert "FAIL  overall" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["experiment", "gap", "classify", "moments", "simulate"])
@pytest.mark.parametrize("rho", ["rho = 1,0.5; 0.2,0.9", "rho = -1,0; 0.2,0.9"])
def test_inadmissible_model_exit_code(tmp_path, capsys, command, rho):
    # experiment and gap used to run every replication aborted (exit 1,
    # median_gap=nan); classify and moments printed numbers (exit 0)
    f = tmp_path / "bad_rho.cfg"
    f.write_text(EXP_CFG.replace("rho = 1,0; 0.2,0.9", rho).replace("delta = 0.02", "gamma = 1.1"))
    out = [] if command in ("classify", "moments") else ["--out", str(tmp_path / "out")]
    assert main([command, "--config", str(f)] + out) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: inadmissible model: rho") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--config"], ["simulate", "--config"], ["moments", "--config"],
    ["experiment", "--config"], ["gap", "--config"], ["estimate", "--path"],
], ids=lambda argv: argv[0])
def test_missing_input_file_exit_code(tmp_path, capsys, argv):
    # each used to end in a FileNotFoundError traceback (exit 1)
    missing = str(tmp_path / "missing.cfg")
    assert main(argv + [missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.cfg" in err and err.count("\n") == 1


N2_MODEL_CFG = """
n = 2
a = 2.0
b = 1.5
m = 2.0, -1.5
kappa = 0.2, 0.1
theta = 2.0, 0.3; 0.1, 1.2
rho = 1,0,0; 0.2,0.8,0; -0.1,0.15,0.7
y0 = 1.5
x0 = 0.5, -1.0
"""


@pytest.mark.parametrize("command, old, new", [
    ("classify", "x0 = 0.5, -1.0", "x0 = 0.5, -1.0, 2.0"),
    ("moments", "m = 2.0, -1.5", "m = 2.0"),
])
def test_model_key_of_wrong_shape_exit_code(tmp_path, capsys, command, old, new):
    # both died with a bare ValueError traceback (np.broadcast_to, matmul)
    f = tmp_path / "n2.cfg"
    f.write_text(N2_MODEL_CFG.replace(old, new))
    assert main([command, "--config", str(f)]) == 2
    key = new.split(" =")[0]
    assert f"error: {key} must have shape (2,) for n = 2" in capsys.readouterr().err


@pytest.mark.parametrize("old, new", [
    ("kappa = 0.2, 0.1", "kappa = 0.2, 0.1, 0.0"),
    ("theta = 2.0, 0.3; 0.1, 1.2", "theta = 2.0, 0.3"),
    ("rho = 1,0,0; 0.2,0.8,0; -0.1,0.15,0.7", "rho = 1,0; 0.2,0.9"),
    ("n = 2", "n = 0"),
])
def test_every_shaped_model_key_is_checked(tmp_path, capsys, old, new):
    f = tmp_path / "n2.cfg"
    f.write_text(N2_MODEL_CFG.replace(old, new))
    assert main(["classify", "--config", str(f)]) == 2
    assert f"error: {new.split(' =')[0]} must" in capsys.readouterr().err


def test_single_x0_is_taken_for_every_coordinate(tmp_path, capsys):
    f = tmp_path / "n2.cfg"
    f.write_text(N2_MODEL_CFG.replace("x0 = 0.5, -1.0", "x0 = 0.5"))
    assert main(["classify", "--config", str(f)]) == 0
