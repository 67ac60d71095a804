"""scipy's OpenBLAS pool runs on one thread inside an experiment and a gap
study, also when the run itself loads scipy; numpy's pool is left as found,
and both counts come back after."""

import ctypes
import json
import os
import subprocess
import sys

import pytest
import scipy

from ad1n import (
    _matfun,
    discrete_vs_continuous_gap,
    estimate,
    experiment_config_from_text,
    run_experiment,
)
from test_golden import _N2_EXACT

_MODEL = """\
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
horizons = 10
replications = 4
seed = 4242
flavor = exact
"""

# each calls estimate.g_inverse once per replication
RUNS = {
    "experiment": (run_experiment, _MODEL + "delta = 0.02\n"),
    "gap": (discrete_vs_continuous_gap, _MODEL + "gamma = 1.1\n"),
}


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
    through ad1n, and set to 2 for the test so that one thread inside a run
    is a change; the count it had comes back after."""
    import scipy.linalg.cython_blas as blas

    get = _symbol(blas.__file__, "scipy_openblas_get_num_threads", [], ctypes.c_int)
    set_ = _symbol(blas.__file__, "scipy_openblas_set_num_threads", [ctypes.c_int], None)
    if get is None or set_ is None:
        pytest.skip("scipy's BLAS is not a scipy-openblas")
    found = get()
    set_(2)
    yield get
    set_(found)


def _spy_g_inverse(monkeypatch, read):
    seen = []
    original = estimate.g_inverse

    def spy(*args):
        seen.append(read())
        return original(*args)

    monkeypatch.setattr(estimate, "g_inverse", spy)
    return seen


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_scipy_pool_is_one_thread_inside_a_run(monkeypatch, scipy_pool, kind):
    run, text = RUNS[kind]
    numpy_pool = _numpy_pool()
    before = (scipy_pool(), numpy_pool())
    seen = _spy_g_inverse(monkeypatch, lambda: (scipy_pool(), numpy_pool()))
    run(experiment_config_from_text(text))
    assert len(seen) >= 4
    assert set(seen) == {(1, before[1])}
    assert (scipy_pool(), numpy_pool()) == before


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_counts_restored_after_an_error(monkeypatch, scipy_pool, kind):
    run, text = RUNS[kind]
    numpy_pool = _numpy_pool()
    before = (scipy_pool(), numpy_pool())

    def boom(*args):
        raise RuntimeError("injected")

    monkeypatch.setattr(estimate, "g_inverse", boom)
    with pytest.raises(RuntimeError, match="injected"):
        run(experiment_config_from_text(text))
    assert (scipy_pool(), numpy_pool()) == before


def test_scope_restores_the_count_it_found(scipy_pool):
    with pytest.raises(ValueError):
        with _matfun.one_blas_thread():
            assert scipy_pool() == 1
            with _matfun.one_blas_thread():
                assert scipy_pool() == 1
            assert scipy_pool() == 1
            raise ValueError
    assert scipy_pool() == 2


@pytest.mark.parametrize("kind", sorted(RUNS))
def test_without_openblas_the_report_is_unchanged(monkeypatch, scipy_pool, kind):
    run, text = RUNS[kind]
    want = run(experiment_config_from_text(text)).csv_text()
    monkeypatch.setattr(_matfun, "_scipy_openblas", lambda: None)
    seen = _spy_g_inverse(monkeypatch, scipy_pool)
    got = run(experiment_config_from_text(text)).csv_text()
    assert got == want
    assert set(seen) == {2}  # nothing was set


def test_scipy_openblas_build_resolves():
    # a scipy wheel that renames the symbols must fail here, not run slowly
    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"scipy's BLAS is {blas.get('name')!r}")
    get, _ = _matfun._scipy_openblas()
    assert get() >= 1


# the golden n = 2 exact-flavor config, on a shorter horizon
_N2_MODEL = _N2_EXACT.replace("horizons = 20", "horizons = 5")

# runs in a fresh interpreter: ad1n loads scipy only during the n = 2 run,
# and the pool count is read from the loaded module, never by importing it
_FRESH_N2_RUN = """\
import ctypes, json, sys
import ad1n
from ad1n import estimate

assert not any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)


def pool():
    blas = sys.modules.get("scipy.linalg.cython_blas")
    get = blas and getattr(ctypes.CDLL(blas.__file__), "scipy_openblas_get_num_threads", None)
    if not get:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    return get()


seen = []
original = estimate.g_inverse


def spy(*args):
    seen.append(pool())
    return original(*args)


estimate.g_inverse = spy
ad1n.run_experiment(ad1n.experiment_config_from_text(sys.stdin.read()))
print(json.dumps({"seen": seen, "after": pool()}))
"""


def test_pool_held_when_a_run_loads_scipy():
    # scipy's pool starts at OPENBLAS_NUM_THREADS = 2, so one thread inside
    # the run is a change, and 2 after it is the count put back
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
