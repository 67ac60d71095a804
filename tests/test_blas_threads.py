"""scipy's OpenBLAS pool runs on one thread inside each scipy matrix
function that ad1n calls, from a run or from a single entry point, also
when the run itself loads scipy; numpy's pool is left as found, and both
counts come back after each call, also when it raises."""

import ctypes
import json
import os
import subprocess
import sys

import pytest
import scipy
import scipy.linalg

from ad1n import (
    _matfun,
    discrete_vs_continuous_gap,
    estimate,
    experiment_config_from_text,
    point_initial_moments,
    run_experiment,
    simulate_path,
    transient_moment,
)
from test_golden import _N2_EXACT

# the golden n = 2 exact-flavor config, on a shorter horizon: an n = 1 run
# makes no scipy call (test_harness.py::test_n1_run_loads_no_scipy)
_N2_MODEL = _N2_EXACT.replace("horizons = 20", "horizons = 5")

# each calls scipy's logm once per replication, and expm from g_inverse
RUNS = {
    "experiment": (run_experiment, _N2_MODEL),
    "gap": (discrete_vs_continuous_gap, _N2_MODEL.replace("delta = 0.02", "gamma = 1.1")),
}

#: the matrix functions ad1n takes from scipy.linalg
SCIPY_FUNCTIONS = ("expm", "logm")


def _symbol(module_file, name, argtypes, restype):
    """A function of the shared library behind a module, or None."""
    try:
        fn = getattr(ctypes.CDLL(module_file), name)
    except AttributeError:
        return None
    fn.argtypes, fn.restype = argtypes, restype
    return fn


def _numpy_pool():
    """Reader of numpy's OpenBLAS thread count, or one that reads None when
    numpy's BLAS does not export it."""
    import numpy._core._multiarray_umath as umath

    get = _symbol(umath.__file__, "scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    return get or (lambda: None)


@pytest.fixture
def scipy_pool():
    """Reader of scipy's OpenBLAS thread count, looked up here and not
    through ad1n, and set to 2 for the test so that one thread inside a
    call is a change; the count it had comes back after."""
    import scipy.linalg.cython_blas as blas

    get = _symbol(blas.__file__, "scipy_openblas_get_num_threads", [], ctypes.c_int)
    set_ = _symbol(blas.__file__, "scipy_openblas_set_num_threads", [ctypes.c_int], None)
    if get is None or set_ is None:
        pytest.skip("scipy's BLAS is not a scipy-openblas")
    found = get()
    set_(2)
    yield get
    set_(found)


def _spy_scipy(monkeypatch, read, fail=False):
    """Record ``read()`` inside every scipy.linalg.expm and logm call, and
    raise from each one when ``fail`` is set."""
    seen = []

    def spy(original):
        def call(*args, **kwargs):
            seen.append(read())
            if fail:
                raise RuntimeError("injected")
            return original(*args, **kwargs)
        return call

    for name in SCIPY_FUNCTIONS:
        monkeypatch.setattr(scipy.linalg, name, spy(getattr(scipy.linalg, name)))
    return seen


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_scipy_pool_is_one_thread_inside_a_run(monkeypatch, scipy_pool, kind):
    run, text = RUNS[kind]
    numpy_pool = _numpy_pool()
    before = (scipy_pool(), numpy_pool())
    seen = _spy_scipy(monkeypatch, lambda: (scipy_pool(), numpy_pool()))
    run(experiment_config_from_text(text))
    assert len(seen) >= 3
    assert set(seen) == {(1, before[1])}
    assert (scipy_pool(), numpy_pool()) == before


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_counts_restored_after_an_error(monkeypatch, scipy_pool, kind):
    run, text = RUNS[kind]
    numpy_pool = _numpy_pool()
    before = (scipy_pool(), numpy_pool())
    seen = _spy_scipy(monkeypatch, scipy_pool, fail=True)
    with pytest.raises(RuntimeError, match="injected"):
        run(experiment_config_from_text(text))
    assert seen == [1]
    assert (scipy_pool(), numpy_pool()) == before


def _simulate_path(p):
    simulate_path(p, 1.0, 0.05, seed=(7, 0))


def _g_inverse(p):
    estimate.g_inverse(estimate.g_map(p.a, p.b, p.m, p.kappa, p.theta, 0.05), 0.05)


def _transient_moment(p):
    transient_moment(p, point_initial_moments(p, float(p.y0), p.x0, 2), 1, [1, 0], 0.5)


#: entry points that reach scipy outside any run
ENTRY_POINTS = {"simulate_path": _simulate_path, "g_inverse": _g_inverse,
                "transient_moment": _transient_moment}


@pytest.mark.parametrize("fail", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_points_hold_the_pool_per_call(monkeypatch, scipy_pool, subcritical_params_n2,
                                             entry, fail):
    numpy_pool = _numpy_pool()
    before = (scipy_pool(), numpy_pool())
    seen = _spy_scipy(monkeypatch, lambda: (scipy_pool(), numpy_pool()), fail=fail)
    if fail:
        with pytest.raises(RuntimeError, match="injected"):
            ENTRY_POINTS[entry](subcritical_params_n2)
        assert len(seen) == 1
    else:
        ENTRY_POINTS[entry](subcritical_params_n2)
        assert seen
    assert set(seen) == {(1, before[1])}
    assert (scipy_pool(), numpy_pool()) == before


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_without_openblas_the_report_is_unchanged(monkeypatch, scipy_pool, kind):
    run, text = RUNS[kind]
    want = run(experiment_config_from_text(text)).csv_text()
    monkeypatch.setattr(_matfun, "_scipy_openblas", lambda: None)
    seen = _spy_scipy(monkeypatch, scipy_pool)
    got = run(experiment_config_from_text(text)).csv_text()
    assert got == want
    assert seen and set(seen) == {2}  # nothing was set


def test_scipy_openblas_build_resolves():
    # a scipy wheel that renames the symbols must fail here, not run slowly
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"scipy's BLAS is {blas.get('name')!r}")
    get, _ = _matfun._scipy_openblas()
    assert get() >= 1


# runs in a fresh interpreter: ad1n loads scipy only during the n = 2 run,
# and the pool count is read from the loaded module, never by importing
# it, inside every call of scipy.linalg's expm and logm (a profile hook
# sees those calls without importing scipy first)
_FRESH_N2_RUN = """\
import ctypes, json, sys
import ad1n

assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)


def pool():
    blas = sys.modules.get("scipy.linalg.cython_blas")
    get = blas and getattr(ctypes.CDLL(blas.__file__), "scipy_openblas_get_num_threads", None)
    if not get:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


seen = []


def profile(frame, event, arg):
    code = frame.f_code
    if (event == "call" and code.co_name in ("expm", "logm")
            and "scipy" in code.co_filename and "linalg" in code.co_filename):
        seen.append(pool())


sys.setprofile(profile)
ad1n.run_experiment(ad1n.experiment_config_from_text(sys.stdin.read()))
sys.setprofile(None)
print(json.dumps({"seen": seen, "after": pool()}))
"""


def test_pool_held_when_a_run_loads_scipy():
    # scipy's pool starts at OPENBLAS_NUM_THREADS = 2, so one thread inside
    # each scipy call is a change, and 2 after the run is the count put back
    import ad1n

    src = os.path.dirname(os.path.dirname(os.path.abspath(ad1n.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", _FRESH_N2_RUN], input=_N2_MODEL, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.splitlines()[-1])
    if got["after"] is None:
        pytest.skip("scipy's BLAS is not a scipy-openblas")
    if got["after"] == 1:
        pytest.skip("scipy's OpenBLAS runs one thread on this machine")
    assert len(got["seen"]) >= 3
    assert set(got["seen"]) == {1}
    assert got["after"] == 2
