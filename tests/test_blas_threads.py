"""scipy's OpenBLAS pool runs on one thread inside an experiment and a gap
study; numpy's pool is left as found, and both counts come back after."""

import ctypes

import pytest
import scipy

from ad1n import (
    _matfun,
    discrete_vs_continuous_gap,
    estimate,
    experiment_config_from_text,
    run_experiment,
)

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
