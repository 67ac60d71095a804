"""Sample path generation on a uniform grid.

Y is advanced with its exact transition law: conditionally on Y_t, the value
Y_{t+dt} is c times a noncentral chi-square with df = 4a/sigma_1^2 degrees
of freedom and noncentrality Y_t * exp(-b*dt) / c, where

    c = sigma_1^2 * (1 - exp(-b*dt)) / (4b)      (c = sigma_1^2*dt/4 at b=0).

For df >= 1 the draw is decomposed as chi2(df-1) + (Z + sqrt(ncp))^2, which
lets the chi-square and normal variates be drawn in vectorized blocks ahead
of the recursion; for df in (0, 1) it falls back to per-step noncentral
chi-square draws, and df = 0 (a = 0) uses the Poisson mixture with an atom
at zero.  This keeps Y >= 0 exactly, with no discretization error in Y.

X is advanced by a conditional Euler-type step with the drift integrated
exactly over the step,

    X_{t+dt} = e^{-theta*dt} X_t + m~ - k~ * Y_t + sqrt(Y_t)*rho_tilde*dB,

where (m~, k~) are the exact one-step conditional-mean coefficients (the
same integrals the one-step estimator map uses), so E[X_{t+dt} | F_t] is
exact and only the noise term carries the O(dt) left-point approximation.
The plain Euler drift (m - kappa*Y_t - theta*X_t)*dt agrees with this step
to first order but tilts the growth rate by ~ ||theta||^2 dt/2 and biases
the drift estimators by sqrt(T)*O(dt), which is visible at the step sizes
the acceptance experiments use.

The first Brownian increment dB^1 is reconstructed from the exact Y
transition, dB^1 = (Y_{t+dt} - E[Y_{t+dt} | F_t]) / (rho_11*sqrt(Y_t)), so
the cross-correlation between Y and X noise is preserved to first order in
dt and the reconstructed increment is exactly conditionally centered; when
Y_t <= 1e-12 a fresh N(0, dt) increment is substituted.  The remaining
coordinates dB^2..dB^d are independent N(0, dt).

Y does not depend on X, so a path takes two passes over the grid.  The Y
pass runs the CIR recursion on Python floats; dB^1, and for n = 1 the whole
noise term, are then built over the time axis with numpy; the X pass runs the
X recursion, on Python floats for n = 1 and with per-step matrix products for
n > 1 (batching those over time changes the last bit).  When
e^{-theta dt} == 1 (theta = 0, as in the critical limit process) the n = 1
recursion only adds terms, and the X pass is one running sum
(``np.add.accumulate``) over them, bit-equal to the float loop.  The float
passes and the running sum walk the grid in chunks of ``CHUNK`` steps to
bound memory, and every operation keeps the operand order of the formulas
above.

:func:`simulate_paths` simulates many seeds at once, in batches of at
most ``BATCH_PATHS`` paths whose Y rows, time-major (N+1, B), and one
chunk of ``STREAM_CHUNK`` normal rows fit ``BATCH_BYTES``.  Validation, the
step constants, the parameter digest and the time grid are computed once
per call.  A batch of at least ``LOCKSTEP_MIN`` paths advances the Y
recursion (df >= 1, any n) in lockstep: all its paths one grid step at a
time with numpy row operations, in the operand order of the float pass, so
every path keeps its bits.  A narrower batch runs path by path on Python
floats.  Then each path takes its remaining draws, dB^1 and its X pass on
its own, into its own contiguous (N+1, d) states, and the batch yields it
before it starts the next path.  The df < 1 Y recursion (one draw per
step) and every X pass stay per path.  States are never a column of a
wider array: the BLAS kernels behind
:func:`left_point_sums` depend on the stride, and with it the last bits of
the sums.  :func:`simulate_path` is the one-seed call.
:func:`simulate_critical_limits` runs the zero-started critical limit
process on [0, 1] through the same engine and yields its paths; the limit
functional (U, R) of a path is built from its :func:`left_point_sums` by
:func:`ad1n.asymptotics.critical_limit_functional`.

Randomness comes from the counter-based Philox generator keyed by
(seed, stream), so every path index owns an independent substream and
results are bit-reproducible for fixed (params, horizon, delta, seed).
A path draws, in order: initial values, CIR blocks (df >= 1: N chi-square
values, then N normals), dB^J, the fresh dB^1 block, then per-step CIR
variates (df < 1).  For df >= 1 the fresh dB^1 block is the path's last
draw, so only its prefix up to the last step with Y_k <= RECONSTRUCT_EPS
is drawn (none if Y never gets there).  A batch keeps this order per path;
as each path has its own generator, staging the draws across paths changes
no value.  A path draws its chi-square block whole into its Y column and
its normals in chunks, which numpy draws with the values and the end state
of the whole block (``TestStreamInvariants`` pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from ._matfun import cir_mean_coeffs, one_step_conditional_mean_coeffs
from .errors import InadmissibleParamsError, InvalidGridError
from .model import ModelParams, validate

#: Y values at or below this use a fresh normal instead of the reconstructed
#: Brownian increment.
RECONSTRUCT_EPS = 1e-12

#: Grid steps per chunk of the Python-float passes.
CHUNK = 4096

#: Bytes a batch may hold in its Y rows and one chunk of normal rows.
#: 3.5 MiB holds BATCH_PATHS Y rows of 10,001 steps (3.20 MB) and their
#: STREAM_CHUNK normal rows (0.16 MB), so a 40-path horizon of 10,000 steps
#: is one lockstep batch; LOCKSTEP_MIN paths of 25,000 steps would need
#: 4.9 MB, so such horizons run path by path.
BATCH_BYTES = 3_670_016

#: Most paths in one batch: 40 is the width of a 1000-step limit-draw batch
#: under the earlier 1.25 MiB budget, which the limit draws' memory test
#: still holds them to.
BATCH_PATHS = 40

#: Narrowest batch that advances in lockstep; narrower batches run path by
#: path on Python floats, which is faster below this width.  Measured break
#: even: 20-24 paths of 1000 steps; about 16 paths of 10,000 steps streamed
#: (47 ms in lockstep against 49 ms path by path, 61 against 70 ms at 24).
LOCKSTEP_MIN = 24

#: Grid steps per chunk of normals a batch draws and advances at a time.
#: 40 paths of 10,000 steps took 61.6 ms at 512 against 66.2 ms at 256,
#: 67.3 ms at 128 and 61.8 ms at 1024, which holds twice the rows (min of
#: 15, 2-vCPU VM).
STREAM_CHUNK = 512


def substream(master_seed: int, index: int) -> tuple[int, int]:
    """Key of the Philox substream owned by path ``index``."""
    return (int(master_seed), int(index))


def generator(seed) -> np.random.Generator:
    """Philox generator for a seed given as an int or a (master, index) key,
    each in [0, 2^64)."""
    key = np.array(seed if isinstance(seed, (tuple, list)) else [int(seed), 0], dtype=object)
    if key.shape != (2,) or not all(0 <= k < 2**64 for k in key):
        raise InvalidGridError("seed must be an int or a pair of ints, each in [0, 2^64)")
    return np.random.Generator(np.random.Philox(key=key.astype(np.uint64)))


@dataclass(frozen=True)
class Path:
    """A simulated trajectory on the uniform grid t_k = k*delta."""

    delta: float
    times: np.ndarray  # (N+1,)
    states: np.ndarray  # (N+1, d) with column 0 = Y
    seed: object
    params_hash: str

    @property
    def Y(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def X(self) -> np.ndarray:
        return self.states[:, 1:]

    @property
    def n(self) -> int:
        return self.states.shape[1] - 1

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])


def _resolve_initials(params: ModelParams, rng: np.random.Generator):
    y0 = params.y0(rng) if callable(params.y0) else float(params.y0)
    if callable(params.x0):
        x0 = np.asarray(params.x0(rng), dtype=float).reshape(params.n)
    else:
        x0 = np.array(params.x0, dtype=float)
    if y0 < 0:
        raise InadmissibleParamsError("initial Y must be nonnegative")
    return y0, x0


def _draw_y_slow(rng, df, ncp):
    """Single exact CIR transition draw (unscaled) for df < 1."""
    if df > 0.0:
        if ncp > 0.0:
            return rng.noncentral_chisquare(df, ncp)
        return rng.chisquare(df)
    j = rng.poisson(ncp / 2.0) if ncp > 0.0 else 0
    return rng.chisquare(2 * j) if j > 0 else 0.0


def simulate_paths(
    params: ModelParams,
    horizon: float,
    delta: float,
    seeds: Iterable,
    _force_general: bool = False,
) -> Iterator[Path]:
    """Simulate one path per seed on the grid k*delta, k = 0..floor(horizon/delta).

    Yields the paths in seed order; each is bit-equal to
    ``simulate_path(params, horizon, delta, seed)``.  Validation and the
    step constants are computed once for all seeds.  ``_force_general``
    runs n = 1 paths through the matrix X recursion (same output; tests
    compare the two).
    """
    if delta <= 0:
        raise InvalidGridError("delta must be positive")
    if horizon < delta:
        raise InvalidGridError("horizon must be at least one step")
    report = validate(params)
    if not report.ok:
        raise InadmissibleParamsError("; ".join(report.violations))

    N = int(math.floor(horizon / delta + 1e-9))
    n, d = params.n, params.d
    a, b, sigma1 = float(params.a), float(params.b), params.sigma1
    emb, a_t = cir_mean_coeffs(a, b, delta)
    if b != 0.0:  # CIR scale c
        c = sigma1 * sigma1 * (1.0 - emb) / (4.0 * b)
    else:
        c = sigma1 * sigma1 * delta / 4.0
    df = 4.0 * a / (sigma1 * sigma1)
    sq_delta = math.sqrt(delta)
    emth, m_t, k_t = one_step_conditional_mean_coeffs(
        a, b, params.m, params.kappa, params.theta, delta
    )
    scalar_x = n == 1 and not _force_general
    if scalar_x:
        eth, mt0, kt0 = float(emth[0, 0]), float(m_t[0]), float(k_t[0])
        rj1, rjj = float(params.rho_J1[0]), float(params.rho_JJ[0, 0])
    rho_JJ = params.rho_JJ
    times = np.arange(N + 1) * delta
    times.flags.writeable = False  # one grid shared by every path
    params_hash = params.digest()

    def y_blocks(Y, rngs):
        """Fill Y[1:] of a batch, time-major (N+1, B): each path draws its N
        chi-square values into its column (zeros at df = 1), then its
        normals in chunks; the recursion reads chi_k from Y[k+1] before it
        writes y_{k+1} there."""
        B = len(rngs)
        if df > 1.0:
            for j in range(B):
                Y[1:, j] = rngs[j].chisquare(df - 1.0, size=N)
        else:
            Y[1:] = 0.0
        if B < LOCKSTEP_MIN:
            for j in range(B):
                _y_pass(Y[:, j], emb, c, df, rngs[j])
            return
        z = np.empty((min(N, STREAM_CHUNK), B))
        for k0 in range(0, N, STREAM_CHUNK):
            m = min(STREAM_CHUNK, N - k0)
            for j in range(B):
                z[:m, j] = rngs[j].standard_normal(m)
            _y_lockstep(Y[k0:k0 + m + 1], z[:m], emb, c)

    def finish(y_col, x0, rng) -> np.ndarray:
        """States (N+1, d) of one path from its column of the batch's Y:
        its last draws, dB^1 and the X pass."""
        states = np.empty((N + 1, d))
        states[:, 0] = y_col
        states[0, 1:] = x0
        y = states[:, 0]
        dB_J = rng.standard_normal((N, n))
        dB_J *= sq_delta
        if df < 1.0:
            fresh1 = rng.standard_normal(N) * sq_delta
            _y_pass(y, emb, c, df, rng)
        if np.any(y < 0):  # exact transitions cannot go negative
            raise AssertionError("negative Y produced by exact CIR transition")
        Yl = y[:-1]
        fresh = ~(Yl > RECONSTRUCT_EPS)  # where dB^1 is the fresh normal
        if df >= 1.0:  # the fresh block is the path's last draw: only its used prefix
            used = np.flatnonzero(fresh)
            fresh1 = rng.standard_normal(used[-1] + 1 if used.size else 0) * sq_delta
        sqrt_y = np.sqrt(Yl)
        # dB1 = (Y_{k+1} - emb Y_k - a~) / (sigma1 sqrt Y_k), in place
        dB1 = emb * Yl
        np.subtract(y[1:], dB1, out=dB1)
        dB1 -= a_t
        with np.errstate(divide="ignore", invalid="ignore"):
            dB1 /= sigma1 * sqrt_y
        np.copyto(dB1[:fresh1.size], fresh1, where=fresh[:fresh1.size])
        if scalar_x:
            # noise = sqrt Y_k (rj1 dB1 + rjj dB^J), in place
            dB1 *= rj1
            dB_J *= rjj
            dB1 += dB_J[:, 0]
            dB1 *= sqrt_y
            k_y = np.multiply(kt0, Yl, out=sqrt_y)
            if eth == 1.0:  # no mean reversion: a running sum
                _x_running_sum(states[:, 1], mt0, k_y, dB1)
            else:
                _x_pass_scalar(states[:, 1], eth, mt0, k_y, dB1)
        else:  # e^{-theta dt} X_t and rho_JJ dB^J_t stay per step
            k_y, rj_dB1 = k_t * Yl[:, None], dB1[:, None] * params.rho_J1
            x = states[0, 1:].copy()
            for k in range(N):
                x = emth @ x + m_t - k_y[k] + sqrt_y[k] * (rj_dB1[k] + rho_JJ @ dB_J[k])
                states[k + 1, 1:] = x
        return states

    def run(batch) -> Iterator[Path]:
        """The paths of a batch in seed order.  A seed whose initial values
        raise ends the batch: its error is raised after the paths before it."""
        rngs, starts, failure = [], [], None
        for seed in batch:
            rng = generator(seed)
            try:
                starts.append(_resolve_initials(params, rng))
            except Exception as exc:
                failure = exc
                break
            rngs.append(rng)
        B = len(rngs)
        Y = np.empty((N + 1, B))
        Y[0] = [y0 for y0, _ in starts]
        if df >= 1.0 and B:
            y_blocks(Y, rngs)
        for j in range(B):
            yield Path(delta=float(delta), times=times,
                       states=finish(Y[:, j], starts[j][1], rngs[j]), seed=batch[j],
                       params_hash=params_hash)
        if failure is not None:
            raise failure

    seeds = list(seeds)
    width = batch_width(N)
    for i in range(0, len(seeds), width):
        yield from run(seeds[i:i + width])


def batch_width(n_steps: int) -> int:
    """Paths per batch: as many as fit their Y rows and a STREAM_CHUNK of
    normal rows into ``BATCH_BYTES``, at most ``BATCH_PATHS``; one when
    fewer than ``LOCKSTEP_MIN`` fit, so that such paths run one at a time."""
    fit = BATCH_BYTES // (8 * (n_steps + 1 + min(n_steps, STREAM_CHUNK)))
    return min(fit, BATCH_PATHS) if fit >= LOCKSTEP_MIN else 1


def simulate_path(
    params: ModelParams,
    horizon: float,
    delta: float,
    seed,
    _force_general: bool = False,
) -> Path:
    """Simulate (Y, X) on the grid k*delta, k = 0..floor(horizon/delta).

    Deterministic given (params, horizon, delta, seed).  ``seed`` may be a
    plain int or a (master_seed, stream_index) pair from :func:`substream`.
    ``_force_general`` runs an n = 1 path through the matrix X pass (same
    output; tests compare the two).
    """
    return next(simulate_paths(params, horizon, delta, [seed], _force_general))


def _y_pass(Y, emb, c, df, rng):
    """Fill Y[1:] by the exact CIR recursion from Y[0], on Python floats.
    For df >= 1, Y[1:] holds the chi-square values on entry and rng draws
    the normals a chunk at a time; for df < 1 every step draws from rng."""
    sqrt = math.sqrt
    y = float(Y[0])
    N = Y.shape[0] - 1
    for k0 in range(0, N, CHUNK):
        k1 = min(k0 + CHUNK, N)
        out = []
        if df >= 1.0:
            z_y = rng.standard_normal(k1 - k0).tolist()
            for chi, z in zip(Y[k0 + 1:k1 + 1].tolist(), z_y):
                zz = z + sqrt(y * emb / c)
                y = c * (chi + zz * zz)
                out.append(y)
        else:
            for _ in range(k0, k1):
                y = c * _draw_y_slow(rng, df, y * emb / c)
                out.append(y)
        Y[k0 + 1:k1 + 1] = out


def _y_lockstep(Y, z, emb, c):
    """Fill Y[1:] of a time-major batch (m+1, B) by the recursion of
    :func:`_y_pass`, all paths one grid step at a time, in the same operand
    order; Y[1:] holds the chi-square values on entry and z is (m, B)."""
    B = Y.shape[1]
    # array operands, positional outputs and local names: a Python float
    # operand, an ``out=`` keyword or a module lookup costs every call
    c = np.full(B, c)
    emb = None if emb == 1.0 else np.full(B, emb)  # y * 1.0 == y
    t = np.empty(B)
    mul, div, sqrt, add = np.multiply, np.divide, np.sqrt, np.add
    y0 = Y[0]
    for y1, zk in zip(Y[1:], z):
        if emb is not None:
            y0 = mul(y0, emb, t)
        div(y0, c, t)
        sqrt(t, t)
        add(zk, t, t)
        mul(t, t, t)
        add(y1, t, t)  # chi_k, before y_{k+1} replaces it
        mul(c, t, y1)
        y0 = y1


def _x_pass_scalar(X, eth, mt0, k_y, noise):
    """n = 1: fill X[1:] by x <- eth*x + mt0 - k_y[k] + noise[k]."""
    x = float(X[0])
    N = X.shape[0] - 1
    for k0 in range(0, N, CHUNK):
        k1 = min(k0 + CHUNK, N)
        out = []
        for ky, nz in zip(k_y[k0:k1].tolist(), noise[k0:k1].tolist()):
            x = eth * x + mt0 - ky + nz
            out.append(x)
        X[k0 + 1:k1 + 1] = out


def _x_running_sum(X, mt0, k_y, noise):
    """n = 1 with eth == 1: fill X[1:] by the recursion of
    :func:`_x_pass_scalar` as a running sum over (x0, mt0, -k_y[0],
    noise[0], mt0, -k_y[1], noise[1], ...), every third entry a state.
    Bit-equal: 1.0 * x == x and a - b == a + (-b) exactly, and
    ``np.add.accumulate`` adds left to right."""
    N = X.shape[0] - 1
    terms = np.empty(3 * min(N, CHUNK) + 1)
    for k0 in range(0, N, CHUNK):
        k1 = min(k0 + CHUNK, N)
        t = terms[:3 * (k1 - k0) + 1]
        t[0] = X[k0]
        t[1::3] = mt0
        np.negative(k_y[k0:k1], out=t[2::3])
        t[3::3] = noise[k0:k1]
        np.add.accumulate(t, out=t)
        X[k0 + 1:k1 + 1] = t[3::3]


def left_point_sums(Y: np.ndarray, X: np.ndarray):
    """Left-point sums over a sampled path: N, sum Y, sum Y^2, sum X, Y @ X,
    X^T X, sum Y dY, Y @ dX and X^T dX, each over the N left endpoints.

    The first six are the moments :func:`ad1n.model.gram_blocks` takes.
    """
    Yl, Xl = Y[:-1], X[:-1, :]
    dY, dX = np.diff(Y), np.diff(X, axis=0)
    return (Y.shape[0] - 1, float(np.sum(Yl)), float(np.sum(Yl * Yl)),
            np.sum(Xl, axis=0), Yl @ Xl, Xl.T @ Xl,
            float(np.sum(Yl * dY)), Yl @ dX, Xl.T @ dX)


def simulate_critical_limits(
    params: ModelParams, seeds: Iterable, fine_delta: float = 1e-3
) -> Iterator[Path]:
    """Paths of the zero-started limit process on [0, 1], one per seed in
    seed order, simulated in batches by :func:`simulate_paths`.  Only a, m
    and rho are read from ``params``; b, kappa and theta are forced to zero.
    :func:`ad1n.asymptotics.critical_limit_functional` turns a path into
    its limit draw; map it over the paths, so that no path outlives its
    draw and a batch is freed before the next one is simulated."""
    if not (0 < fine_delta <= 1e-3):
        raise InvalidGridError("fine_delta must be in (0, 1e-3]")
    base = ModelParams(
        n=params.n,
        a=params.a,
        b=0.0,
        m=params.m,
        kappa=np.zeros(params.n),
        theta=np.zeros((params.n, params.n)),
        rho=params.rho,
        y0=0.0,
        x0=np.zeros(params.n),
    )
    return simulate_paths(base, 1.0, fine_delta, seeds)


def simulate_critical_limit(params: ModelParams, seed, fine_delta: float = 1e-3) -> Path:
    """One path of :func:`simulate_critical_limits`."""
    return next(simulate_critical_limits(params, [seed], fine_delta))


def write_path_csv(path: Path, csv_file: str, sidecar: dict | None = None) -> None:
    """Write a path as CSV (header t, Y, X1..Xn) plus a JSON sidecar with
    the generating seed, step and parameter digest."""
    import json

    n = path.n
    header = ["t", "Y"] + [f"X{i + 1}" for i in range(n)]
    with open(csv_file, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(path.states.shape[0]):
            row = [f"{path.times[k]:.17g}"] + [f"{v:.17g}" for v in path.states[k]]
            fh.write(",".join(row) + "\n")
    meta = {
        "delta": path.delta,
        "seed": list(path.seed) if isinstance(path.seed, (tuple, list)) else path.seed,
        "params_hash": path.params_hash,
    }
    if sidecar:
        meta.update(sidecar)
    with open(csv_file + ".json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_path_csv(csv_file: str) -> Path:
    """Read a path written by :func:`write_path_csv` (sidecar optional)."""
    import json
    import os

    data = np.loadtxt(csv_file, delimiter=",", skiprows=1, ndmin=2)
    times = data[:, 0]
    states = data[:, 1:]
    if times.shape[0] < 2:
        raise InvalidGridError("path file must contain at least two rows")
    steps = np.diff(times)
    delta = float(steps[0])
    if np.max(np.abs(steps - delta)) > 1e-12 * max(abs(times[-1]), 1.0):
        raise InvalidGridError("path grid is not uniform")
    seed: object = None
    params_hash = ""
    sidecar = csv_file + ".json"
    if os.path.exists(sidecar):
        with open(sidecar, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        seed = meta.get("seed")
        if isinstance(seed, list):
            seed = tuple(seed)
        delta = float(meta.get("delta", delta))
        params_hash = meta.get("params_hash", "")
    return Path(delta=delta, times=times, states=states, seed=seed,
                params_hash=params_hash)


@dataclass
class IncrementEstimate:
    s: float
    t: float
    value: float
    std_error: float
    replications: int


def increment_moment_probe(
    params: ModelParams,
    q: float,
    pairs: Iterable[tuple[float, float]],
    delta: float,
    replications: int,
    seed: int,
) -> list[IncrementEstimate]:
    """Monte Carlo estimates of E ||Z_t - Z_s||_1^q for each (s, t) pair.

    All pairs are evaluated on the same replication paths; s and t are
    snapped to the simulation grid.  s = t returns exactly zero.
    """
    pairs = [(float(s), float(t)) for s, t in pairs]
    if not delta > 0:
        raise InvalidGridError("delta must be positive")
    if not pairs:
        raise InvalidGridError("need at least one (s, t) pair")
    if replications < 1:
        raise InvalidGridError("need at least one replication")
    for s, t in pairs:
        if not 0 <= s <= t:
            raise InvalidGridError("need 0 <= s <= t in every pair")
        if t - s >= 1.0:
            raise InvalidGridError("increments longer than 1 are not supported")
    idx = [(int(round(s / delta)), int(round(t / delta))) for s, t in pairs]
    # out to the largest snapped index, which may lie one step past max t
    horizon = max(i1 for _, i1 in idx) * delta

    def increments(path):
        return [np.sum(np.abs(path.states[i1] - path.states[i0])) ** q for i0, i1 in idx]

    seeds = [substream(seed, r) for r in range(replications)]
    # map keeps no path once its row is made, so a batch is freed early
    samples = np.array(list(map(increments, simulate_paths(params, horizon, delta, seeds))))
    out = []
    for j, (s, t) in enumerate(pairs):
        vals = samples[:, j]
        se = float(np.std(vals, ddof=1) / math.sqrt(replications)) if replications > 1 else 0.0
        out.append(IncrementEstimate(s, t, float(np.mean(vals)), se, replications))
    return out
