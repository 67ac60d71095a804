"""Golden SHA-256 digests of small frozen runs.

The digests were computed before the simulator was rewritten and pin its
output byte for byte.  Paths are kept short (at most a few thousand steps)
so that the BLAS reductions in the estimator give the same bits whatever
the BLAS thread count; this file passes both with OPENBLAS_NUM_THREADS=1 and
with the default.  The gap-study and n = 2 exact-flavor digests were pinned
before the replications were split into a path phase and a solve phase.
The supercritical digest (which pins the Y-tail stabilization column) and
the ``g_map`` digest were pinned before the thread pool, the continuous
design blocks and the second one-step map were removed.  The critical runs
with 40-70 limit draws and the ``increment_moment_probe`` digest were
pinned while every path was still simulated on its own, before paths were
advanced side by side in batches.
"""

import hashlib

import numpy as np
import pytest

from ad1n import (
    discrete_vs_continuous_gap,
    experiment_config_from_text,
    run_experiment,
    simulate_path,
    substream,
)
from ad1n.estimate import g_map
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

GOLDEN_CSV = {
    "subcritical_exact": (_SUBCRITICAL,
                          "26128e4fd93fbee6cf29c728ef392bb6c0e11a0514662a2063225cf7a77a3512"),
    "critical_limit_draws": (_CRITICAL,
                             "008f8568ecbaf82ea29ea32a2383b65d3a5a5df9a9bc72609b2dabce05127e59"),
    "small_df": (_SMALL_DF,
                 "4e03906121b712866055e9c48b882c5c01f770767a2139a841dc704ac9c8c707"),
    "n2_exact": (_N2_EXACT,
                 "4cc2d1a16c62734bafb2cb138c50b600c3a682b6a594adf3446417eeb5d0ff4c"),
    "supercritical": (_SUPERCRITICAL,
                      "a07c83da2c90f629cbf292a3c4964dc5cfb8ecc85cbb88dc6a6f60581582c4e3"),
    "critical_many_draws": (_CRITICAL_MANY_DRAWS,
                            "32b48e093016e1f84adecd45b3f1f36c71277987405ae7c3be059f8103d2258b"),
    "critical_n2": (_CRITICAL_N2,
                    "1e0af4098df3429a96a9c89700c1818ad40045887f948d786fd4ae7ff8fb90e3"),
    "critical_small_df": (_CRITICAL_SMALL_DF,
                          "03a29b7fadebd8477391d6098e895d57c3f37f063e125c2beff8052d89956f28"),
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


def test_g_map_digest():
    h = hashlib.sha256()
    for a, b, m, kappa, theta, step in G_MAP_POINTS:
        t = g_map(a, b, m, kappa, theta, step)
        for v in (t.a, t.b, t.m, t.kappa, t.theta):
            h.update(np.ascontiguousarray(v, dtype=float).tobytes())
    assert h.hexdigest() == (
        "433d261d752f2a785881b30e68a645af4f8dc4c432eb9252495cbb24b38b69a2")


def test_gap_study_csv_digest():
    report = discrete_vs_continuous_gap(experiment_config_from_text(_GAP))
    assert _sha(report.csv_text().encode()) == (
        "adecc76e732a6e0ccf570543038221e4ea599ed054408818a5df009fed11742b")


def test_n2_path_digest(subcritical_params_n2):
    path = simulate_path(subcritical_params_n2, 20.0, 0.02, seed=substream(404, 1))
    assert _sha(path.states.tobytes()) == (
        "e47b55bca9048a5ba46bd3f8445447749ab67452045c64609eead5022e7585fc")


def test_increment_moment_probe_digest(subcritical_params):
    pairs = [(0.0, 0.5), (0.25, 1.0), (1.0, 1.0), (0.5, 1.2)]
    res = increment_moment_probe(subcritical_params, 1.5, pairs, 0.01, 40, 808)
    table = np.array([[e.s, e.t, e.value, e.std_error] for e in res])
    assert _sha(table.tobytes()) == (
        "36def6b6523bce1b615225c0bc3e612e5e901553b665363fc650d30a13532b13")
