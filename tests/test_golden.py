"""Golden SHA-256 digests of small frozen runs.

The digests were computed before the simulator was rewritten and pin its
output byte for byte.  Paths are kept short (at most a few thousand steps)
so that the BLAS reductions in the estimator give the same bits whatever
the BLAS thread count; this file passes both with OPENBLAS_NUM_THREADS=1 and
with the default.  The gap-study and n = 2 exact-flavor digests were pinned
before the replications were split into a path phase and a solve phase.
The supercritical digest (which pins the Y-tail stabilization column) and
the ``g_map`` digest were pinned before the thread pool, the continuous
design blocks and the second one-step map were removed.  The ``g_inverse``
digest was pinned before the one-step integrals got a single owner.  The critical runs
with 40-70 limit draws and the ``increment_moment_probe`` digest were
pinned while every path was still simulated on its own, before paths were
advanced side by side in batches.  The critical run with theta = 0 but
kappa != 0 and b > 0 was pinned while the n = 1 X recursion still stepped
x <- e^{-theta dt} x + ... when e^{-theta dt} = 1, before it became a
running sum.  The two 26-replication runs of 6,000-step paths (one with
the zero-Y threshold raised, so that the fresh dB^1 fallback fires mid-path,
one started at Y = 0) were pinned while every estimation path was still
simulated on its own, before a horizon's paths were streamed side by side
and before only the used prefix of the fresh dB^1 block was drawn.
The tau-layout and moment digest was pinned while the tau layout was still
indexed by hand in each stacking loop and the moment table had its own
key-order loop, and re-pinned once since, when the sandwich covariance
moved from scipy's Cholesky solves to numpy's LU solves (its last bits
moved; ``test_moments`` holds it within 1e-13 of scipy's).  It was
re-pinned again when the sandwich's stationary moments came to be solved
from their X-coordinate equations instead of expanded from the tilde table
through the inverse eigenvector matrix: the sandwich moved by at most
1.5e-15 of its largest entry (n = 3).  Every other value in that digest was
unchanged both times.  It was re-pinned a third time when the moment table
and the transient moments moved from theta's eigenbasis to X coordinates,
solved from the generator's matrix on the monomials Y^k X^l; with the old
table and transient values put back, the rest of the digest gives the old
digest.  The three n = 2 simulation digests
(``n2_exact``, ``critical_n2`` and ``test_n2_path_digest``) were re-pinned
when the n >= 2 X step started to build its drift-and-noise input over the
time axis before its per-step matrix products: X moved by at most 2.0e-15
of max|X| on the n = 2 path and the CSV columns by at most 7.9e-14 of each
column's largest entry, while Y and every n = 1 digest kept their bits.
Those three, the ``g_map`` and ``g_inverse`` digests and the tau-layout and
moment digest were re-pinned once more when every matrix function that
scipy computed (the exponentials of n >= 2 blocks and of the transient
moment systems, and the n >= 2 logarithm) moved to numpy's Pade-13
``expm`` and inverse scaling and squaring ``logm``: each value moved by at
most 3.3e-15 of its largest entry (the n2_exact CSV columns by at most
4.3e-14, the n = 2 path's X by 2.7e-16 of max|X|, Y not at all), and with
the old n >= 2 values (or, in the moment digest, the old transient values)
put back, the n = 1 values give the old digests.
``test_digests_with_one_blas_thread`` reruns every digest test in a fresh
process with OPENBLAS_NUM_THREADS=1.
"""

import hashlib
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from ad1n import (
    ModelParams,
    discrete_vs_continuous_gap,
    experiment_config_from_text,
    run_experiment,
    simulate_path,
    substream,
)
from ad1n import simulate
from ad1n.asymptotics import normalizer
from ad1n.estimate import g_inverse, g_map
from ad1n.model import classify, drift_design_row, stack_drift_fields, unstack_tau
from ad1n.moments import (asymptotic_covariance, point_initial_moments, stationary_moment,
                          stationary_moment_table, transient_moment)
from ad1n.simulate import increment_moment_probe

_SUBCRITICAL = """\
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
horizons = 20
delta = 0.02
replications = 4
seed = 101
flavor = exact
"""

# the limit draws start at Y = 0, which exercises the zero-Y fallback
_CRITICAL = """\
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
horizons = 10
delta = 0.02
replications = 3
seed = 202
flavor = discrete
fine_delta = 0.001
limit_draws = 4
"""

# df = 4a / rho_11^2 = 0.6 < 1: per-step noncentral chi-square draws
_SMALL_DF = """\
n = 1
a = 0.15
b = 1.0
m = 0.5
kappa = 0.3
theta = 1.5
rho = 1,0; 0.3,0.8
y0 = 0.5
x0 = 0.0
regime = subcritical
horizons = 20
delta = 0.02
replications = 3
seed = 303
flavor = discrete
"""

# n = 2 exact flavor: g_inverse goes through the matrix logarithm
_N2_EXACT = """\
n = 2
a = 2.0
b = 1.5
m = 2.0, -1.5
kappa = 0.2, 0.1
theta = 2.0, 0.3; 0.1, 1.2
rho = 1,0,0; 0.2,0.8,0; -0.1,0.15,0.7
y0 = 1.5
x0 = 0.5, -1.0
regime = subcritical
horizons = 20
delta = 0.02
replications = 3
seed = 606
flavor = exact
"""

# supercritical: the stabilized column mixes 0 and 1 across the two horizons
_SUPERCRITICAL = """\
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
replications = 6
seed = 707
flavor = discrete
"""

_GAP = """\
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
horizons = 10,20
gamma = 1.1
replications = 4
seed = 505
flavor = exact
"""

# 70 limit draws: more than one batch of 1000-step paths, and a short last one
_CRITICAL_MANY_DRAWS = _CRITICAL.replace("seed = 202", "seed = 212").replace(
    "limit_draws = 4", "limit_draws = 70")

# n = 2 critical: the X recursion of every limit draw is a matrix recursion
_CRITICAL_N2 = """\
n = 2
a = 2.0
b = 0.0
m = 1.0, -0.5
kappa = 0.0, 0.0
theta = 0.0, 0.0; 0.0, 0.0
rho = 1,0,0; 0.2,0.8,0; -0.1,0.15,0.7
y0 = 1.0
x0 = 0.0, 0.0
regime = critical
horizons = 10
delta = 0.02
replications = 3
seed = 222
flavor = discrete
fine_delta = 0.001
limit_draws = 40
"""

# df = 0.8 < 1: the limit draws take per-step noncentral chi-square draws
_CRITICAL_SMALL_DF = _CRITICAL.replace("a = 2.0", "a = 0.2").replace(
    "y0 = 1.0", "y0 = 0.5").replace("seed = 202", "seed = 232").replace(
    "limit_draws = 4", "limit_draws = 40")

# theta = 0, so e^{-theta dt} = 1, while kappa != 0 and b > 0 keep the
# k~ Y term of the estimation paths' X recursion non-zero
_CRITICAL_DRIFTING_Y = _CRITICAL.replace("b = 0.0", "b = 0.5").replace(
    "kappa = 0.0", "kappa = 0.5").replace("x0 = 0.0", "x0 = -0.5").replace(
    "seed = 202", "seed = 242")

# y0 = 0: every estimation path takes the fresh dB^1 at its first step;
# 26 replications of 6,000 steps are wide and long enough to be streamed
_ZERO_START_WIDE = _CRITICAL.replace("y0 = 1.0", "y0 = 0.0").replace(
    "horizons = 10", "horizons = 120").replace("replications = 3", "replications = 26").replace(
    "seed = 202", "seed = 919")

# df = 2.4; with the zero-Y threshold raised to FALLBACK_EPS a few steps of
# each path fall back to the fresh dB^1, the last one anywhere from step
# ~2,800 to the final step
_FALLBACK_WIDE = """\
n = 1
a = 0.6
b = 1.0
m = 0.5
kappa = 0.3
theta = 1.5
rho = 1,0; 0.3,0.8
y0 = 0.5
x0 = 0.0
regime = subcritical
horizons = 120
delta = 0.02
replications = 26
seed = 909
flavor = discrete
"""
FALLBACK_EPS = 0.003

GOLDEN_CSV = {
    "subcritical_exact": (_SUBCRITICAL,
                          "26128e4fd93fbee6cf29c728ef392bb6c0e11a0514662a2063225cf7a77a3512"),
    "critical_limit_draws": (_CRITICAL,
                             "008f8568ecbaf82ea29ea32a2383b65d3a5a5df9a9bc72609b2dabce05127e59"),
    "small_df": (_SMALL_DF,
                 "4e03906121b712866055e9c48b882c5c01f770767a2139a841dc704ac9c8c707"),
    "n2_exact": (_N2_EXACT,
                 "c927d5306dda3d9abe353f46c7105693cf4536e9913237fb6c65a57af663d9ab"),
    "supercritical": (_SUPERCRITICAL,
                      "a07c83da2c90f629cbf292a3c4964dc5cfb8ecc85cbb88dc6a6f60581582c4e3"),
    "critical_many_draws": (_CRITICAL_MANY_DRAWS,
                            "32b48e093016e1f84adecd45b3f1f36c71277987405ae7c3be059f8103d2258b"),
    "critical_n2": (_CRITICAL_N2,
                    "b814941f9ae7a8322b3e715ab065ccc1afb96be13c63c3b702b080aa081573ef"),
    "critical_small_df": (_CRITICAL_SMALL_DF,
                          "03a29b7fadebd8477391d6098e895d57c3f37f063e125c2beff8052d89956f28"),
    "critical_drifting_y": (_CRITICAL_DRIFTING_Y,
                            "fe469eae457a75b40888d0324c2939a363b5321eab80d78db606e4a0a003fb14"),
    "zero_start_wide": (_ZERO_START_WIDE,
                        "9c78833cb2a0f7dbb0c6c18b499c801992686ca5b010cc0bbe000377c17c0b0b"),
}

# (a, b, m, kappa, theta, h): n = 1, n = 1 with b = 0, a supercritical
# point, n = 2, and n = 2 with b = 0
G_MAP_POINTS = [
    (2.0, 1.0, [1.0], [0.5], [[2.0]], 0.02),
    (2.0, 0.0, [1.0], [0.5], [[2.0]], 0.02),
    (1.0, -0.5, [0.5], [-0.2], [[-1.0]], 0.1),
    (2.0, 1.5, [2.0, -1.5], [0.2, 0.1], [[2.0, 0.3], [0.1, 1.2]], 0.05),
    (1.5, 0.0, [0.3, 0.7], [-0.4, 0.25], [[1.0, 0.2], [-0.1, 0.5]], 0.1),
]


def _sha(data) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
def test_experiment_csv_digest(name):
    text, want = GOLDEN_CSV[name]
    report = run_experiment(experiment_config_from_text(text), threads=1)
    assert _sha(report.csv_text().encode()) == want


def test_fresh_increment_fallback_digest(monkeypatch):
    monkeypatch.setattr(simulate, "RECONSTRUCT_EPS", FALLBACK_EPS)
    report = run_experiment(experiment_config_from_text(_FALLBACK_WIDE), threads=1)
    assert _sha(report.csv_text().encode()) == (
        "aee32b2441453f9fbaa9a2529bd2250d210bbbaebbdeed563b4ba127c639b48a")


def test_g_map_digest():
    h = hashlib.sha256()
    for a, b, m, kappa, theta, step in G_MAP_POINTS:
        t = g_map(a, b, m, kappa, theta, step)
        for v in (t.a, t.b, t.m, t.kappa, t.theta):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    assert h.hexdigest() == (
        "9f18bb2931f5db25e7eef5117fed9d7d309242ca6543508f1afa9353b3f95349")


def test_g_inverse_digest():
    # the inverse map's own bits: logm, the step integrals and their solves
    h = hashlib.sha256()
    for a, b, m, kappa, theta, step in G_MAP_POINTS:
        for v in g_inverse(g_map(a, b, m, kappa, theta, step), step):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    assert h.hexdigest() == (
        "5152533030381b0b45049572a33940d9d34cbe4bf1eb78f7a7ac5c4b0d8da646")


def test_gap_study_csv_digest():
    report = discrete_vs_continuous_gap(experiment_config_from_text(_GAP))
    assert _sha(report.csv_text().encode()) == (
        "adecc76e732a6e0ccf570543038221e4ea599ed054408818a5df009fed11742b")


def test_n2_path_digest(subcritical_params_n2):
    path = simulate_path(subcritical_params_n2, 20.0, 0.02, seed=substream(404, 1))
    assert _sha(path.states.tobytes()) == (
        "69cd61c9c43cc225d4d41a1653ea5c2b3851a27dd221f4a35ebf03a47e639729")


def test_increment_moment_probe_digest(subcritical_params):
    pairs = [(0.0, 0.5), (0.25, 1.0), (1.0, 1.0), (0.5, 1.2)]
    res = increment_moment_probe(subcritical_params, 1.5, pairs, 0.01, 40, 808)
    table = np.array([[e.s, e.t, e.value, e.std_error] for e in res])
    assert _sha(table.tobytes()) == (
        "36def6b6523bce1b615225c0bc3e612e5e901553b665363fc650d30a13532b13")


def test_digests_with_one_blas_thread():
    # BLAS reductions may sum in another order with another thread count;
    # this process keeps the default, the child runs OpenBLAS on one thread
    import ad1n

    src = os.path.dirname(os.path.dirname(os.path.abspath(ad1n.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not one_blas_thread"],
        env=env, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout[-3000:]
    passed = re.search(r"(\d+) passed", out.stdout)
    assert passed and int(passed.group(1)) == len(GOLDEN_CSV) + 7, out.stdout[-3000:]


def _drift_model(n, a, b, theta):
    rho = np.tril(np.full((n + 1, n + 1), 0.15)) + np.diag(np.linspace(1.0, 0.7, n + 1))
    return ModelParams(n=n, a=a, b=b, m=np.linspace(1.0, -0.5, n),
                       kappa=np.linspace(0.3, -0.2, n), theta=theta, rho=rho,
                       y0=1.0, x0=np.linspace(0.5, -0.5, n))


_TRIDIAG = np.array([[2.0, 0.2, 0.0], [0.1, 1.5, 0.1], [0.0, 0.2, 1.0]])

# (subcritical, critical, supercritical) models for n = 1, 2 and 3; the
# supercritical ones satisfy lam_max(theta) < b < 0
LAYOUT_MODELS = {
    1: (_drift_model(1, 2.0, 1.0, [[2.0]]), _drift_model(1, 2.0, 0.0, [[0.0]]),
        _drift_model(1, 1.0, -0.5, [[-1.0]])),
    2: (_drift_model(2, 2.0, 1.5, [[2.0, 0.3], [0.1, 1.2]]),
        _drift_model(2, 1.5, 0.5, np.zeros((2, 2))),
        _drift_model(2, 1.0, -0.3, [[-1.0, 0.2], [0.1, -0.8]])),
    3: (_drift_model(3, 2.5, 1.2, _TRIDIAG), _drift_model(3, 2.0, 0.0, _TRIDIAG),
        _drift_model(3, 1.0, -0.2, -_TRIDIAG)),
}


def test_tau_layout_and_moment_digest():
    # the tau layout (stacking, unstacking, the design row with its +0.0
    # off-block entries at x < 0), the regime normalizers and the moment
    # tables, sandwich and transient moments that index by (k, l)
    h = hashlib.sha256()

    def put(v):
        h.update(np.ascontiguousarray(v, dtype=float).tobytes())

    rng = np.random.default_rng(1515)
    for n in (1, 2, 3):
        for _ in range(150):
            a, b, y = rng.normal(size=3)
            m, kappa, x = rng.normal(size=(3, n))
            theta = rng.normal(size=(n, n))
            tau = stack_drift_fields(a, b, m, kappa, theta)
            put(tau)
            for v in unstack_tau(tau, n):
                put(v)
            put(drift_design_row(y, x))
        for p in LAYOUT_MODELS[n]:
            cls = classify(p)
            for T in (3.0, 17.5, 40.0):
                put(normalizer(cls, T, p).diag)
        p = LAYOUT_MODELS[n][0]
        for key, value in stationary_moment_table(p, 4).items():
            h.update(repr(key).encode())
            put(value)
        put(stationary_moment(p, -1, [0] * n))
        put(asymptotic_covariance(p).sandwich)
        initial = point_initial_moments(p, 1.5, np.linspace(-1.0, 0.5, n))
        for k, l in [(1, (0,) * n), (2, (1,) + (0,) * (n - 1)), (0, (0,) * (n - 1) + (3,))]:
            for t in (0.3, 2.0):
                put(transient_moment(p, initial, k, l, t))
    assert h.hexdigest() == (
        "8a64c1942a9bcb6c6cf5ce9475a71e24af20b8b25d9d15b7ad331c130ccfce60")
