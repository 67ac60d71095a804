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
n > 1 (batching those over time changes the last bit).  The float passes walk
the grid in chunks of ``CHUNK`` steps to bound memory, and every operation
keeps the operand order of the formulas above.

:func:`simulate_paths` simulates many seeds at once, in batches of as many
paths as ``BATCH_BYTES`` holds.  Validation, the step constants, the
parameter digest and the time grid are computed once per call.  A batch of
at least ``LOCKSTEP_MIN`` paths advances in lockstep: the Y recursion
(df >= 1, any n) and the n = 1 X recursion step all its paths at once with
numpy row operations, in the operand order of the float passes, so every
path keeps its bits.  The df < 1 Y recursion (one draw per step) and the
n > 1 X recursion stay per path.  Each path's states are a contiguous
(N+1, d) block of a (B, N+1, d) array, never a column of a wider one: the
BLAS kernels behind :func:`left_point_sums` depend on the stride, and with
it the last bits of the sums.  :func:`simulate_path` is the one-seed call.

Randomness comes from the counter-based Philox generator keyed by
(seed, stream), so every path index owns an independent substream and
results are bit-reproducible for fixed (params, horizon, delta, seed).
A path draws, in order: initial values, CIR blocks (df >= 1), dB^J and fresh
dB^1 blocks, then per-step CIR variates (df < 1).  A batch keeps this order
per path: it draws every path's initial values and CIR blocks, runs the Y
recursion, then draws each path's dB^J and fresh dB^1; as each path has its
own generator, staging the draws across paths changes no value.
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

#: Bytes a batch of paths may hold in its states and staging buffers; sets
#: how many paths :func:`simulate_paths` advances side by side (40 limit-draw
#: paths of 1000 steps at n = 1).
BATCH_BYTES = 1_310_720  # 1.25 MiB

#: Narrowest batch that advances in lockstep; narrower batches run path by
#: path on Python floats, which is faster below this width.
LOCKSTEP_MIN = 24


def substream(master_seed: int, index: int) -> tuple[int, int]:
    """Key of the Philox substream owned by path ``index``."""
    return (int(master_seed), int(index))


def generator(seed) -> np.random.Generator:
    """Philox generator for a seed given as an int or a (master, index) key."""
    if isinstance(seed, (tuple, list)):
        key = np.array(seed, dtype=np.uint64)
    else:
        key = np.array([int(seed), 0], dtype=np.uint64)
    if key.shape != (2,):
        raise InvalidGridError("seed must be an int or a pair of ints")
    return np.random.Generator(np.random.Philox(key=key))


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

    def run(batch) -> np.ndarray:
        """States (B, N+1, d) of a batch of paths."""
        B = len(batch)
        lockstep = B >= LOCKSTEP_MIN
        states = np.empty((B, N + 1, d))
        # CIR blocks (chi-square, normal) while Y runs, then (noise, k~ Y) for n = 1
        buf = np.empty((2, B, N))
        Y = states[:, :, 0]
        rngs = []
        for j, seed in enumerate(batch):
            rng = generator(seed)
            states[j, 0, 0], states[j, 0, 1:] = _resolve_initials(params, rng)
            if df >= 1.0:
                buf[0, j] = rng.chisquare(df - 1.0, size=N) if df > 1.0 else 0.0
                rng.standard_normal(out=buf[1, j])
            rngs.append(rng)
        if df >= 1.0 and lockstep:
            _y_lockstep(Y, buf[0], buf[1], emb, c)
        for j, rng in enumerate(rngs):
            if df >= 1.0 and not lockstep:
                _y_pass(Y[j], emb, c, df, buf[0, j], buf[1, j], None)
            dB_J = rng.standard_normal((N, n)) * sq_delta
            fresh1 = rng.standard_normal(N) * sq_delta
            if df < 1.0:
                _y_pass(Y[j], emb, c, df, None, None, rng)
            if np.any(Y[j] < 0):  # exact transitions cannot go negative
                raise AssertionError("negative Y produced by exact CIR transition")

            Yl = Y[j, :-1]
            sqrt_y = np.sqrt(Yl)
            with np.errstate(divide="ignore", invalid="ignore"):
                dB1 = np.where(Yl > RECONSTRUCT_EPS,
                               (Y[j, 1:] - emb * Yl - a_t) / (sigma1 * sqrt_y), fresh1)
            if scalar_x:
                np.multiply(sqrt_y, rj1 * dB1 + rjj * dB_J[:, 0], out=buf[0, j])
                np.multiply(kt0, Yl, out=buf[1, j])
            else:  # e^{-theta dt} X_t and rho_JJ dB^J_t stay per step
                k_y, rj_dB1 = k_t * Yl[:, None], dB1[:, None] * params.rho_J1
                x = states[j, 0, 1:].copy()
                for k in range(N):
                    x = emth @ x + m_t - k_y[k] + sqrt_y[k] * (rj_dB1[k] + rho_JJ @ dB_J[k])
                    states[j, k + 1, 1:] = x
        if scalar_x and lockstep:
            _x_lockstep(states[:, :, 1], eth, mt0, buf[1], buf[0])
        elif scalar_x:
            for j in range(B):
                _x_pass_scalar(states[j, :, 1], eth, mt0, buf[1, j], buf[0, j])
        return states

    seeds = list(seeds)
    width = batch_width(N, d)
    for i in range(0, len(seeds), width):
        batch = seeds[i:i + width]
        # no loop variable of this frame outlives the batch's states
        yield from (Path(delta=float(delta), times=times, states=block, seed=seed,
                         params_hash=params_hash)
                    for seed, block in zip(batch, run(batch)))


def batch_width(n_steps: int, d: int) -> int:
    """Paths per batch: as many as fit their states and two staging rows of
    ``n_steps`` floats each into ``BATCH_BYTES``, and at least one."""
    return max(1, BATCH_BYTES // (8 * ((n_steps + 1) * d + 2 * n_steps)))


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


def _y_pass(Y, emb, c, df, chi_part, z_y, rng):
    """Fill Y[1:] by the exact CIR recursion from Y[0], on Python floats."""
    sqrt = math.sqrt
    y = float(Y[0])
    N = Y.shape[0] - 1
    for k0 in range(0, N, CHUNK):
        k1 = min(k0 + CHUNK, N)
        out = []
        if chi_part is not None:
            for chi, z in zip(chi_part[k0:k1].tolist(), z_y[k0:k1].tolist()):
                zz = z + sqrt(y * emb / c)
                y = c * (chi + zz * zz)
                out.append(y)
        else:
            for _ in range(k0, k1):
                y = c * _draw_y_slow(rng, df, y * emb / c)
                out.append(y)
        Y[k0 + 1:k1 + 1] = out


def _y_lockstep(Y, chi, z, emb, c):
    """Fill Y[:, 1:] of a batch (B, N+1) by the recursion of :func:`_y_pass`,
    all paths one grid step at a time, in the same operand order."""
    t = np.empty(Y.shape[0])
    for y0, y1, zk, chik in zip(Y.T[:-1], Y.T[1:], z.T, chi.T):
        np.multiply(y0, emb, out=t)
        np.divide(t, c, out=t)
        np.sqrt(t, out=t)
        np.add(zk, t, out=t)
        np.multiply(t, t, out=t)
        np.add(chik, t, out=t)
        np.multiply(c, t, out=y1)


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


def _x_lockstep(X, eth, mt0, k_y, noise):
    """n = 1: fill X[:, 1:] of a batch (B, N+1) by the recursion of
    :func:`_x_pass_scalar`, all paths one grid step at a time."""
    t = np.empty(X.shape[0])
    for x0, x1, ky, nz in zip(X.T[:-1], X.T[1:], k_y.T, noise.T):
        np.multiply(eth, x0, out=t)
        np.add(t, mt0, out=t)
        np.subtract(t, ky, out=t)
        np.add(t, nz, out=x1)


@dataclass(frozen=True)
class CriticalLimitSample:
    """One draw of the path functionals of the zero-started process
    (Y, X) with dY = a dt + rho_11 sqrt(Y) dB^1, dX = m dt + sqrt(Y) rho~ dB
    on [0, 1]:  end values, Riemann integrals (left point) and Ito sums."""

    y1: float
    x1: np.ndarray  # (n,)
    int_y: float
    int_x: np.ndarray  # (n,)
    int_yy: float
    int_xx: np.ndarray  # (n, n)
    int_yx: np.ndarray  # (n,)
    int_y_dy: float
    int_y_dx: np.ndarray  # (n,)
    int_x_dx: np.ndarray  # (n, n), entry (i, j) = sum X^i d(X^j)


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


def _limit_functionals(path: Path, s: float = 1.0) -> CriticalLimitSample:
    """Left-point quadrature / Ito sums of the ten limit functionals of a
    path, with time rescaled by s (state implicitly rescaled by s through
    the caller)."""
    Y, X = path.Y, path.X
    delta = float(path.times[1] - path.times[0])
    _, s_y, s_yy, s_x, s_yx, s_xx, s_ydy, s_ydx, s_xdx = left_point_sums(Y, X)
    return CriticalLimitSample(
        y1=float(Y[-1] / s),
        x1=X[-1] / s,
        int_y=s_y * delta / s**2,
        int_x=s_x * delta / s**2,
        int_yy=s_yy * delta / s**3,
        int_xx=s_xx * delta / s**3,
        int_yx=s_yx * delta / s**3,
        int_y_dy=s_ydy / s**2,
        int_y_dx=s_ydx / s**2,
        int_x_dx=s_xdx / s**2,
    )


def simulate_critical_limits(
    params: ModelParams, seeds: Iterable, fine_delta: float = 1e-3
) -> Iterator[CriticalLimitSample]:
    """Functionals of the zero-started limit process on [0, 1], one draw per
    seed in seed order, the paths simulated in batches by
    :func:`simulate_paths`.  Only a, m and rho are read from ``params``; b,
    kappa and theta are forced to zero internally."""
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
    # map keeps no path once its sample is made, so a batch is freed early
    return map(_limit_functionals, simulate_paths(base, 1.0, fine_delta, seeds))


def simulate_critical_limit(
    params: ModelParams, seed, fine_delta: float = 1e-3
) -> CriticalLimitSample:
    """One draw of :func:`simulate_critical_limits`."""
    return next(simulate_critical_limits(params, [seed], fine_delta))


def scaled_critical_functionals(path: Path) -> CriticalLimitSample:
    """Functionals of a horizon-T path under the critical scaling
    (Y_T/T, X_T/T, T^-2 int Y, ..., T^-2 sum Y dY, ...).

    By the Brownian scaling identity these match the distribution of the
    [0, 1] limit functionals when the path is the zero-started critical
    process.
    """
    return _limit_functionals(path, float(path.times[-1]))


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
    if not pairs:
        raise InvalidGridError("need at least one (s, t) pair")
    if replications < 1:
        raise InvalidGridError("need at least one replication")
    for s, t in pairs:
        if t < s:
            raise InvalidGridError("need s <= t in every pair")
        if t - s >= 1.0:
            raise InvalidGridError("increments longer than 1 are not supported")
    horizon = max(t for _, t in pairs)
    idx = [(int(round(s / delta)), int(round(t / delta))) for s, t in pairs]

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
