"""The benchmark's workloads: `ad1n experiment` configs generated from a seed.

Each workload is one experiment config, written as the flat ``key = value``
text the program reads.  The seed is the benchmark's argument; the program
sees only the generated text.  Replication counts are sized so that one
experiment takes a few seconds on a 2-core machine, so that a run of the
benchmark can repeat it in several fresh processes and report medians.

Why these two (each puts a different layer in front):

subcritical_clt  the frozen criterion-3 config (n = 1, exact flavor,
                 25,000 steps per path) with fewer replications.  The long
                 paths run on the n = 1 scalar loop with the pre-drawn CIR
                 branch (df = 8); each replication calls ``g_inverse`` once
                 and ``design_blocks`` twice.  Simulator batching and
                 exact-flavor estimator work show here.
critical_limit   the frozen criterion-4 config (n = 1, discrete flavor):
                 many 1,000-step limit-draw paths beside 10,000-step
                 estimation paths, so per-path overhead (validation, set-up
                 of each simulation) shows.  The discrete flavor never calls
                 ``g_inverse`` and builds the design blocks once, so a change
                 to the exact-flavor estimator must leave it unchanged.

Left out: an n = 3, df < 1 exact-flavor model (per-step noncentral
chi-square draws on the n-general loop), because its wall time swings
between about 2.7 and 5.6 s per experiment with OpenBLAS's default
threading and run medians spread by 16% across seeds; with one BLAS thread
it repeats within 1%, but the benchmark must not pin BLAS threads.  Also
left out: the supercritical config and the gap study (same n = 1 loop and
discrete flavor as critical_limit, so no new layer), ``riccati_cf`` (no
experiment calls it) and ``threads > 1`` (the thread pool holds the GIL and
its timings were not steady).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

_N1_SUBCRITICAL = """\
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
"""

_N1_CRITICAL = """\
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
"""

def grid_steps(horizon: float, delta: float) -> int:
    """Steps of a path on the grid k*delta, as the simulator counts them."""
    return int(math.floor(horizon / delta + 1e-9))


@dataclass(frozen=True)
class Workload:
    name: str
    default_seed: int  # the seed whose CSV digest is pinned in digests.json
    model: str
    horizon: float
    delta: float
    replications: int
    flavor: str
    limit_draws: int = 0
    fine_delta: float = 1e-3

    def config_text(self, seed: int) -> str:
        text = self.model + (
            f"horizons = {self.horizon:g}\n"
            f"delta = {self.delta:g}\n"
            f"replications = {self.replications}\n"
            f"seed = {seed}\n"
            f"flavor = {self.flavor}\n"
        )
        if self.limit_draws:
            text += f"fine_delta = {self.fine_delta:g}\nlimit_draws = {self.limit_draws}\n"
        return text

    @property
    def steps(self) -> int:
        """Grid steps one experiment simulates: estimation plus limit-draw paths."""
        return (self.replications * grid_steps(self.horizon, self.delta)
                + self.limit_draws * grid_steps(1.0, self.fine_delta))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("subcritical_clt", 11, _N1_SUBCRITICAL, horizon=500, delta=0.02,
                 replications=16, flavor="exact"),
        Workload("critical_limit", 313, _N1_CRITICAL, horizon=200, delta=0.02,
                 replications=40, flavor="discrete", limit_draws=160, fine_delta=0.001),
    )
}
