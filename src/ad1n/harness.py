"""Seeded Monte Carlo experiment runner behind the CLI.

An experiment simulates ``replications`` independent paths per horizon,
estimates the drift vector on each, applies the regime's normalization to
the errors and compares the resulting sample against the regime's limit
theory:

subcritical    mean within 3 MC standard errors of zero per coordinate,
               empirical covariance within 20% relative Frobenius distance
               of the sandwich covariance, per-coordinate |skewness| < 0.3
               and |excess kurtosis| < 0.5 (plus per-coordinate KS
               statistics against the sandwich-implied normal marginals,
               reported, not thresholded);
critical       two-sample KS distance below 0.15 between each normalized
               coordinate of the error (CSV column err_i) and draws of the
               simulated limit functional, whose law is that of
               b = kappa = theta = 0: any other critical model fails its
               ``critical_law_applies`` check;
supercritical  median |b_hat - b| decreasing in the horizon and below 0.05
               at the largest one, interquartile range of a_hat - a not
               contracting (ratio within [0.5, 2]), and the exponentially
               scaled Y tail stabilized in at least 95% of paths; a run of
               one horizon fails the two comparisons.

Each horizon runs in two phases.  The path phase (``_path_phase``)
simulates every replication's path and keeps only its design blocks (and,
in the supercritical regime, the Y-tail stabilization flag), so no path
outlives its replication.  The solve phase then turns each replication's
blocks into an estimate, one replication after another, once the whole
horizon has been simulated; running the small dense solves and matrix
functions back to back keeps them off the cold start that follows each
long simulation.  A replication whose design blocks or solve raise an
``Ad1nError`` or a ``LinAlgError``, or whose estimate is not finite, is
recorded as aborted.

A critical run has a third phase, the limit draws: the zero-started limit
process simulated ``limit_draws`` times and each path's limit functional
drawn.  It is independent of the estimation paths, so it runs in a child
(``_in_child``) forked before the first horizon's path phase, and the
parent joins it where the KS check first needs its sample.  The paths of a
horizon that ``simulate_paths`` runs one at a time are simulated by the
parent and one forked child side by side, in rounds that ``_path_phase``
describes.  Where ``_FORKS`` is false, everything runs in-process at the
same points.  A critical limit draw whose limit functional is singular has
a row with aborted=1, is left out of the KS sample, and
``limit_abort_rate`` bounds the share of such draws.  An ``n = 1`` run
whose one-step blocks stay at Pade order 9 or below never loads scipy; any
other run loads it at its first scipy matrix function, and
``_matfun.scipy_call`` holds scipy's OpenBLAS pool at one thread for each
such call, so that they do not starve numpy's threaded reductions.

Replication r of horizon index h owns the Philox substream
(seed, h*replications + r); limit-functional draw j owns substream
(seed, len(horizons)*replications + j).  A horizon's replications and the
limit draws are simulated side by side in batches
(``simulate.simulate_paths``), which leaves every path's bits as they are
alone, and are kept, estimated and recorded in index order.  So reruns
with the same configuration are byte-identical.

Config files are flat ``key = value`` text; '#' starts a comment.  Vectors
are comma lists; matrices are semicolon-separated rows of comma lists.
Keys: n, a, b, m, kappa, theta, rho, y0, x0, regime, horizons (strictly
increasing, since the supercritical checks and the gap study compare
consecutive horizons in the order given), delta or gamma (step rule
delta(T) = T^-gamma, gamma > 0; the step must lie in (0, T]), replications,
seed, flavor, fine_delta (in (0, 1e-3]), limit_draws, horizon (single-path
commands).  Any other key, a key given on two lines, a value that does not
parse or lies outside its range, or a vector or matrix whose shape does not
fit n, is a ``ConfigError`` naming the key; a model outside the admissible
set is one listing every violation.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__, estimate
from .asymptotics import TAIL_REL_TOL, critical_limit_functional, normalizer, scaled_tail
from .errors import (Ad1nError, ConfigError, DimensionMismatchError, InadmissibleParamsError,
                     RegimeMismatchError)
from .estimate import estimate_path  # noqa: F401  (bench/spans.py rebinds it)
from .model import Classification, ModelParams, Regime, classify, stack_tau, tau_length
from .moments import asymptotic_covariance
# simulate_path and simulate_critical_limit stay bound here for bench/spans.py
from .simulate import (  # noqa: F401
    BATCH_BYTES,
    batch_width,
    grid_steps,
    path_maker,
    simulate_critical_limit,
    simulate_critical_limits,
    simulate_path,
    simulate_paths,
    substream,
)

# acceptance thresholds
MEAN_SE_FACTOR = 3.0
FROBENIUS_REL_TOL = 0.20
SKEWNESS_TOL = 0.3
KURTOSIS_TOL = 0.5
CRITICAL_KS_TOL = 0.15
SUPER_B_MEDIAN_TOL = 0.05
SUPER_IQR_RATIO = (0.5, 2.0)
SUPER_STAB_MIN = 0.95
ABORT_RATE_MAX = 0.01

_SQRT2 = math.sqrt(2.0)


def skewness(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    s = math.sqrt(float(np.mean(c * c)))
    return float(np.mean(c**3) / s**3)


def excess_kurtosis(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    c = x - x.mean()
    s2 = float(np.mean(c * c))
    return float(np.mean(c**4) / (s2 * s2) - 3.0)


def ks_two_sample(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic sup |F_x - F_y|."""
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    grid = np.concatenate([x, y])
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.max(np.abs(fx - fy)))


def ks_vs_normal(x: np.ndarray, sigma: float) -> float:
    """One-sample KS statistic of x against the N(0, sigma^2) cdf."""
    x = np.sort(np.asarray(x, dtype=float))
    n = x.size
    # Phi(v) = erfc(-v / sqrt 2) / 2, within 2.2e-16 of scipy.special.ndtr;
    # importing scipy.special for ndtr takes ~60 ms of every subcritical run
    cdf = np.array([0.5 * math.erfc(-v / _SQRT2) for v in (x / sigma).tolist()])
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(np.max(upper), np.max(lower)))


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return f"{float(v):.17g}"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class ExperimentConfig:
    params: ModelParams
    regime: Regime
    horizons: list
    replications: int
    seed: int
    flavor: str = "discrete"
    delta: Optional[float] = None
    gamma: Optional[float] = None
    fine_delta: float = 1e-3
    limit_draws: Optional[int] = None

    def delta_for(self, T: float) -> float:
        if self.delta is not None:
            return self.delta
        return float(T) ** (-self.gamma)

    def validate(self) -> Classification:
        if (self.delta is None) == (self.gamma is None):
            raise ConfigError("exactly one of delta / gamma must be set")
        if self.flavor not in estimate.FLAVORS:
            raise ConfigError(f"unknown flavor {self.flavor!r}")
        if self.replications < 1 or not self.horizons:
            raise ConfigError("need at least one horizon and one replication")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ConfigError(f"gamma = {self.gamma!r} must be finite and positive")
        for T in self.horizons:
            if not (0 < T < math.inf and 0 < self.delta_for(T) <= T):
                raise ConfigError(f"horizon {T!r} must be finite, with its step in (0, {T!r}]")
        if any(T1 <= T0 for T0, T1 in zip(self.horizons, self.horizons[1:])):
            raise ConfigError(f"horizons {self.horizons!r} must be strictly increasing")
        if not 0 < self.fine_delta <= 1e-3:  # the limit draws' grid rule
            raise ConfigError(f"fine_delta = {self.fine_delta!r} must be in (0, 1e-3]")
        if self.limit_draws is not None and self.limit_draws < 1:
            raise ConfigError("limit_draws must be at least 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed {self.seed!r} is not in [0, 2^64)")
        cls = classify(self.params)
        if cls.regime != self.regime:
            raise RegimeMismatchError(
                f"declared regime {self.regime.value}, classified {cls.regime.value}"
            )
        return cls

    def validate_for_limit_theorem(self) -> Classification:
        """Stricter validation for runs that compare against limit laws.

        The gap study deliberately runs step rules that violate these
        conditions, so they are not part of plain :meth:`validate`.
        """
        cls = self.validate()
        if self.gamma is not None:
            if self.regime == Regime.SUBCRITICAL and self.gamma <= 1.0:
                raise ConfigError(
                    "subcritical limit-theorem runs need gamma > 1 (T*delta -> 0)"
                )
            if self.regime == Regime.SUPERCRITICAL:
                # no power rule can satisfy N*delta^{3/2} -> 0 together with
                # t_N / log(N*delta^{3/2}) -> 0; require an explicit step
                raise ConfigError("supercritical runs require an explicit delta")
        if self.regime == Regime.SUPERCRITICAL:
            # the supercritical limit law needs lam_max(theta) < b < 0 and
            # the sign condition mt_i * kt_i <= 0 in diagonalizing coords
            from .moments import TildeFrame

            lam_max = float(cls.eig_theta[-1])
            if not (lam_max < self.params.b < 0):
                raise ConfigError(
                    "supercritical runs need lam_max(theta) < b < 0"
                )
            frame = TildeFrame.from_params(self.params)
            if np.any(frame.m_t * frame.kappa_t > 1e-12):
                raise ConfigError(
                    "supercritical runs need elementwise nonpositive products "
                    "of the transformed level and coupling vectors"
                )
        return cls

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.params.digest().encode())
        payload = (
            self.regime.value,
            tuple(float(T) for T in self.horizons),
            self.replications,
            self.seed,
            self.flavor,
            self.delta,
            self.gamma,
            self.fine_delta,
            self.limit_draws,
        )
        h.update(repr(payload).encode())
        return h.hexdigest()


@dataclass
class Row:
    kind: str  # "estimate" or "limit_draw"
    horizon: Optional[float]
    rep: int
    aborted: bool
    stabilized: bool
    tau: Optional[np.ndarray]
    err: Optional[np.ndarray]


@dataclass
class ExperimentReport:
    config_digest: str
    regime: str
    flavor: str
    seed: int
    replications: int
    horizons: list
    deltas: list
    truth: np.ndarray
    rows: list
    per_horizon: list
    checks: dict

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def csv_text(self) -> str:
        L = self.truth.shape[0]
        header = (
            ["kind", "horizon", "rep", "aborted", "stabilized"]
            + [f"tau_{i}" for i in range(L)]
            + [f"err_{i}" for i in range(L)]
        )
        lines = [",".join(header)]
        nanrow = [float("nan")] * L
        for r in self.rows:
            floats = [*(nanrow if r.tau is None else r.tau.tolist()),
                      *(nanrow if r.err is None else r.err.tolist())]
            fields = ",".join(["{:.17g}"] * len(floats)).format(*floats)
            lines.append(",".join([r.kind, _fmt(r.horizon), str(r.rep), _fmt(r.aborted),
                                   _fmt(r.stabilized), fields]))
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return self._summary(self.csv_text())

    def _summary(self, csv: str) -> dict:
        """The summary of a report whose CSV text is ``csv``."""
        return {
            "package_version": __version__,
            "config_digest": self.config_digest,
            "regime": self.regime,
            "flavor": self.flavor,
            "seed": self.seed,
            "replications": self.replications,
            "horizons": [float(T) for T in self.horizons],
            "deltas": [float(d) for d in self.deltas],
            "truth_tau": [float(v) for v in self.truth],
            "per_horizon": self.per_horizon,
            "checks": {k: bool(v) for k, v in self.checks.items()},
            "passed": self.passed,
            "csv_sha256": _sha256(csv),
        }


#: failures that abort one replication instead of the whole run
REP_FAILURES = (Ad1nError, np.linalg.LinAlgError)


def _path_phase(config: ExperimentConfig, h_idx: int, keep) -> list:
    """Simulate every replication of horizon ``h_idx`` and return
    ``keep(path)`` per replication, in seed order, or None where ``keep``
    raises one of ``REP_FAILURES``.

    Paths that ``simulate_paths`` runs side by side are simulated here.
    Paths it runs one at a time (``batch_width`` 1) are simulated, with
    ``_FORKS`` and more than one replication, in rounds of at most 2K
    seeds, where K paths' states fit ``BATCH_BYTES``: this process and one
    forked child (``_in_child``) simulate a round side by side.  Before the
    fork, the round's indices go into a pipe, 4 bytes each, whose write end
    is then closed; each process reads one index at a time until the pipe
    is empty, so the faster one takes more seeds.  Each writes a path's
    states with ``os.pwrite`` at its index's offset in the round's memfd,
    which no process maps, and the child returns the indices it wrote.
    Once the child is joined and the two lists are found to cover the
    round exactly once, ``keep`` runs here on each path in seed order, read
    back with ``os.preadv`` into its own array and built by
    ``simulate.path_maker``.  So every threaded ``left_point_sums``
    reduction stays in this process, where its OpenBLAS thread count, and
    with it every bit, is what it is without a child; and none runs beside
    a simulating process, since numpy's OpenBLAS worker spins a core for
    about 120 ms after each reduction (children that reduced their own
    paths made a 16-path run slower than in-process on 2 vCPUs).  A write
    or read of fewer bytes than a path's states raises ``OSError``; the
    memfd is not sized in advance, so a slot left unwritten at its end
    reads short rather than as zeros."""
    params = config.params
    T = config.horizons[h_idx]
    delta = config.delta_for(T)
    M = config.replications
    seeds = [substream(config.seed, h_idx * M + r) for r in range(M)]

    def kept(path):
        try:
            return keep(path)
        except REP_FAILURES:
            return None

    N = grid_steps(T, delta)
    if not (_FORKS and M > 1 and batch_width(N) == 1):
        # map holds no path past its keep, so a batch is freed early
        return list(map(kept, simulate_paths(params, T, delta, seeds)))

    shape = (N + 1, params.d)
    size = 8 * shape[0] * shape[1]
    K = max(1, BATCH_BYTES // size)
    new_path = path_maker(params, T, delta)

    def share(queue, fd, rnd):
        """Simulate the seeds of ``rnd`` whose indices this process takes
        from ``queue``, write each path's states into ``fd`` and return the
        indices written, in the order taken."""
        def taken():
            while index := os.read(queue, 4):
                yield rnd[int.from_bytes(index, "little")]

        slot = {seed: i for i, seed in enumerate(rnd)}
        wrote = []
        for path in simulate_paths(params, T, delta, taken()):
            i = slot[path.seed]
            n = os.pwrite(fd, path.states, i * size)
            if n != size:
                raise OSError(f"wrote {n} of {size} bytes of path {i}")
            wrote.append(i)
            del path  # not held while the next path is simulated
        return wrote

    out = []
    for lo in range(0, M, 2 * K):
        rnd = seeds[lo:lo + 2 * K]
        fd = os.memfd_create("ad1n-paths")
        try:
            queue, w = os.pipe()
            try:
                try:
                    os.write(w, np.arange(len(rnd), dtype="<u4").tobytes())
                finally:
                    os.close(w)  # the pipe reads empty once its indices are taken
                with _in_child(functools.partial(share, queue, fd, rnd)) as join:
                    wrote = share(queue, fd, rnd) + join()
            finally:
                os.close(queue)
            if sorted(wrote) != list(range(len(rnd))):
                raise ChildProcessError(
                    f"a round of {len(rnd)} paths wrote indices {sorted(wrote)}")
            for i, seed in enumerate(rnd):
                states = np.empty(shape)
                n = os.preadv(fd, [states], i * size)
                if n != size:
                    raise OSError(f"read {n} of {size} bytes of path {i}")
                out.append(kept(new_path(seed, states)))
        finally:
            os.close(fd)
    return out


def _solve(blocks, flavor: str):
    """One replication's tau_hat from its design blocks, or None when there
    are no blocks, the solve fails or the estimate is not finite."""
    if blocks is None:
        return None
    try:
        tau = estimate.estimate_blocks(blocks, flavor).tau_hat
    except REP_FAILURES:
        return None
    return tau if np.all(np.isfinite(tau)) else None


def _limit_draw(path, params: ModelParams):
    """One critical limit draw from a path of the limit process, or None
    when its limit functional is singular or its solve fails."""
    try:
        return critical_limit_functional(path, params.a, params.m).limit_draw()
    except REP_FAILURES:
        return None


def _limit_phase(config: ExperimentConfig) -> list:
    """The critical limit draws of ``config``, one per limit substream
    (None where ``_limit_draw`` fails)."""
    params = config.params
    M = config.replications
    base = len(config.horizons) * M
    seeds = [substream(config.seed, base + j) for j in range(config.limit_draws or M)]
    paths = simulate_critical_limits(params, seeds, fine_delta=config.fine_delta)
    # map holds no path past its draw, so one batch is alive at a time
    return list(map(_limit_draw, paths, itertools.repeat(params)))


#: whether ``_in_child`` forks: os.fork exists, the platform is Linux
#: (macOS's Accelerate BLAS is not fork-safe) and a second CPU is usable
_FORKS = (hasattr(os, "fork") and sys.platform.startswith("linux")
          and len(os.sched_getaffinity(0)) >= 2)


@contextlib.contextmanager
def _in_child(fn):
    """Run ``fn()`` in a forked child beside the caller's block, which gets
    a ``join()`` that returns the child's value or re-raises its exception.

    The child sends ``(ok, value_or_exception)`` back through a pipe as one
    pickle and always ends with ``os._exit``, so it never returns into the
    caller's frames and never flushes the parent's stdio.  ``join()`` reads
    the whole payload, then reaps the child; a child that died or sent
    nothing is a ChildProcessError naming its exit status.  A child not yet
    joined when the block exits, by an exception or otherwise, is killed
    and reaped.  The child inherits the caller's open file descriptors, so
    it can work beside the block on what both reach through them (the path
    phase's seed queue and memfd).  Without ``_FORKS``, ``fn()`` runs
    in-process on entry.
    The parent may hold OpenBLAS worker threads: numpy's OpenBLAS stops its
    pool at a fork (a ``pthread_atfork`` handler) and each process starts
    it again when it next needs it.
    """
    if not _FORKS:
        value = fn()
        yield lambda: value
        return
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                payload = (True, fn())
            except BaseException as exc:  # join() re-raises it in the parent
                payload = (False, exc)
            with os.fdopen(w, "wb") as fh:
                pickle.dump(payload, fh, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    running = True

    def join():
        nonlocal running
        with os.fdopen(r, "rb", closefd=False) as fh:
            data = fh.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        running = False
        if code != 0 or not data:
            raise ChildProcessError(
                f"forked child exited with status {code} after sending {len(data)} bytes")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield join
    finally:
        os.close(r)
        if running:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentReport:
    """Simulate, estimate and compare against the regime's limit theory.

    Deterministic given the configuration (including the master seed).
    """
    # the parent keeps and solves the replications one after another; only
    # the simulation of path-by-path horizons and a critical run's limit
    # draws run in forked children (see the module docstring); threads=1 is
    # still accepted because bench/worker.py passes it
    if threads != 1:
        raise ConfigError("replications are kept and solved in one process; "
                          "only threads=1 is accepted")
    cls = config.validate_for_limit_theorem()
    limits = contextlib.nullcontext()
    if config.regime == Regime.CRITICAL:
        limits = _in_child(lambda: _limit_phase(config))
    with limits as join_limits:
        return _experiment(config, cls, join_limits)


def _experiment(config: ExperimentConfig, cls: Classification, join_limits) -> ExperimentReport:
    """The body of :func:`run_experiment`; ``join_limits()`` returns the
    critical limit draws (see :func:`_limit_phase`)."""
    params = config.params
    truth = stack_tau(params)
    L = tau_length(params.n)
    M = config.replications
    b = float(params.b)
    rows: list[Row] = []
    per_horizon = []
    checks: dict[str, bool] = {}
    deltas = [config.delta_for(T) for T in config.horizons]
    is_super = config.regime == Regime.SUPERCRITICAL

    limit_draws = limit_sample = None
    sandwich = None
    if config.regime == Regime.SUBCRITICAL:
        sandwich = asymptotic_covariance(params).sandwich
    elif config.regime == Regime.CRITICAL:
        # the limit draws follow the law of b = kappa = theta = 0 only
        checks["critical_law_applies"] = not (b or np.any(params.kappa) or np.any(params.theta))

    def keep(path):
        # looked up on the module, so that a wrapper installed there sees it
        blocks = estimate.design_blocks(path)
        return blocks, (scaled_tail(path, b, path.Y)[1] <= TAIL_REL_TOL if is_super else True)

    # every Q_T is checked before the first path phase
    norms = [normalizer(cls, T, params) for T in config.horizons]
    for h_idx, T in enumerate(config.horizons):
        delta, norm = deltas[h_idx], norms[h_idx]
        kept = _path_phase(config, h_idx, keep)
        errs = []
        for r, rep in enumerate(kept):
            blocks, stab = rep if rep is not None else (None, False)
            tau = _solve(blocks, config.flavor)
            if tau is None:
                rows.append(Row("estimate", float(T), r, True, False, None, None))
                continue
            err = norm.apply(tau - truth)
            rows.append(Row("estimate", float(T), r, False, stab, tau, err))
            errs.append((err, stab, tau))
        E = np.array([e for e, _, _ in errs])
        n_ok = len(errs)
        n_abort = M - n_ok
        summary = {
            "horizon": float(T),
            "delta": float(delta),
            "aborted": n_abort,
            "abort_rate": n_abort / M,
        }
        tag = f"T={T:g}"
        # a horizon with fewer than two estimates (or, critical, no limit
        # draw) has no statistics: its NaN fails every check
        if config.regime == Regime.SUBCRITICAL:
            mean = se = skews = kurts = np.full(L, math.nan)
            frob_gap = math.nan
            if n_ok > 1:
                mean = E.mean(axis=0)
                se = E.std(axis=0, ddof=1) / math.sqrt(n_ok)
                emp_cov = np.cov(E.T)
                frob_gap = float(
                    np.linalg.norm(emp_cov - sandwich, "fro") / np.linalg.norm(sandwich, "fro")
                )
                skews = [skewness(E[:, i]) for i in range(L)]
                kurts = [excess_kurtosis(E[:, i]) for i in range(L)]
                ks = [
                    ks_vs_normal(E[:, i], math.sqrt(sandwich[i, i])) for i in range(L)
                ]
                summary.update(
                    mean_norm_err=[float(v) for v in mean],
                    se_norm_err=[float(v) for v in se],
                    emp_cov=[[float(v) for v in row] for row in emp_cov],
                    sandwich=[[float(v) for v in row] for row in sandwich],
                    frobenius_rel_gap=frob_gap,
                    skewness=skews,
                    excess_kurtosis=kurts,
                    ks_vs_sandwich_normal=ks,
                )
            checks[f"mean_within_3se[{tag}]"] = bool(
                np.all(np.abs(mean) <= MEAN_SE_FACTOR * se)
            )
            checks[f"cov_frobenius<={FROBENIUS_REL_TOL:g}[{tag}]"] = frob_gap <= FROBENIUS_REL_TOL
            checks[f"skewness<{SKEWNESS_TOL:g}[{tag}]"] = bool(
                np.all(np.abs(skews) < SKEWNESS_TOL)
            )
            checks[f"kurtosis<{KURTOSIS_TOL:g}[{tag}]"] = bool(
                np.all(np.abs(kurts) < KURTOSIS_TOL)
            )
        elif config.regime == Regime.CRITICAL:
            ks = [math.nan] * L
            if limit_draws is None:  # the first horizon's path and solve phases are done
                limit_draws = join_limits()
                limit_sample = np.array([v for v in limit_draws if v is not None]).reshape(-1, L)
            if n_ok > 1 and limit_sample.size:
                ks = [
                    ks_two_sample(E[:, i], limit_sample[:, i]) for i in range(L)
                ]
                summary.update(ks_vs_limit=[float(v) for v in ks])
            for i, v in enumerate(ks):
                checks[f"ks_err_{i}<{CRITICAL_KS_TOL:g}[{tag}]"] = v < CRITICAL_KS_TOL
        elif is_super and n_ok > 1:
            taus = np.array([t for _, _, t in errs])
            b_err = np.abs(taus[:, 1] - truth[1])
            # the raw a error diverges like e^{|b|T/2}/T (a_hat is not even
            # weakly consistent); its normalized version T e^{bT/2}(a - a^)
            # converges, so the non-contraction check uses E[:, 0]
            q75, q25 = np.percentile(E[:, 0], [75, 25])
            stab_rate = float(np.mean([s for _, s, _ in errs]))
            summary.update(
                median_abs_b_err=float(np.median(b_err)),
                iqr_a_err=float(q75 - q25),
                stabilization_rate=stab_rate,
            )
        per_horizon.append(summary)
        checks[f"abort_rate<{ABORT_RATE_MAX:g}[{tag}]"] = (n_abort / M) < ABORT_RATE_MAX

    if is_super:
        # a horizon with at most one estimate has no statistics, and one
        # horizon has nothing to compare: a NaN fails every such check
        med = [s.get("median_abs_b_err", math.nan) for s in per_horizon]
        iqr = [s.get("iqr_a_err", math.nan) for s in per_horizon]
        checks["median_b_err_decreasing"] = len(med) > 1 and all(
            med[i + 1] < med[i] for i in range(len(med) - 1)
        )
        checks[f"median_b_err_final<{SUPER_B_MEDIAN_TOL:g}"] = med[-1] < SUPER_B_MEDIAN_TOL
        ratio = iqr[-1] / iqr[0] if len(iqr) > 1 else math.nan
        checks["iqr_a_not_contracting"] = SUPER_IQR_RATIO[0] <= ratio <= SUPER_IQR_RATIO[1]
        checks[f"stabilization>={SUPER_STAB_MIN:g}"] = (
            per_horizon[-1].get("stabilization_rate", math.nan) >= SUPER_STAB_MIN
        )

    if limit_draws is not None:
        for j, draw in enumerate(limit_draws):
            ok = draw is not None
            rows.append(Row("limit_draw", None, j, not ok, ok, None, draw))
        rate = (len(limit_draws) - limit_sample.shape[0]) / len(limit_draws)
        checks[f"limit_abort_rate<{ABORT_RATE_MAX:g}"] = rate < ABORT_RATE_MAX

    return ExperimentReport(
        config_digest=config.digest(),
        regime=config.regime.value,
        flavor=config.flavor,
        seed=config.seed,
        replications=M,
        horizons=list(config.horizons),
        deltas=deltas,
        truth=truth,
        rows=rows,
        per_horizon=per_horizon,
        checks=checks,
    )


@dataclass
class GapReport:
    config_digest: str
    seed: int
    gamma: float
    horizons: list
    deltas: list
    medians: list
    ratios: list  # consecutive median ratios median[i+1]/median[i]
    decreasing: bool  # strictly decreasing medians
    rows: list  # (horizon, rep, aborted, gap)

    def csv_text(self) -> str:
        lines = ["horizon,rep,aborted,gap"]
        for T, r, aborted, gap in self.rows:
            lines.append(f"{T:.17g},{r},{_fmt(aborted)},{gap:.17g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return self._summary(self.csv_text())

    def _summary(self, csv: str) -> dict:
        """The summary of a report whose CSV text is ``csv``."""
        return {
            "package_version": __version__,
            "config_digest": self.config_digest,
            "seed": self.seed,
            "gamma": self.gamma,
            "horizons": [float(T) for T in self.horizons],
            "deltas": [float(d) for d in self.deltas],
            "median_gap": [float(v) for v in self.medians],
            "median_ratios": [float(v) for v in self.ratios],
            "decreasing": self.decreasing,
            "csv_sha256": _sha256(csv),
        }


def discrete_vs_continuous_gap(config: ExperimentConfig) -> GapReport:
    """Median sqrt(t_N) * max-abs gap between the discrete estimate and the
    exact-conditional (one-step inverse) estimate on the same paths."""
    if config.gamma is None:
        raise ConfigError("gap experiment needs the step rule delta(T) = T^-gamma")
    config.validate()
    rows = []
    medians = []
    deltas = [config.delta_for(T) for T in config.horizons]
    for h_idx, T in enumerate(config.horizons):
        # both flavors solve from the same blocks
        kept = _path_phase(config, h_idx, estimate.design_blocks)
        gaps = []
        for r, blocks in enumerate(kept):
            disc = _solve(blocks, "discrete")
            exact = _solve(blocks, "exact") if disc is not None else None
            if exact is None:
                rows.append((float(T), r, True, float("nan")))
                continue
            t_n = blocks.n_steps * blocks.step
            gaps.append(math.sqrt(t_n) * float(np.max(np.abs(disc - exact))))
            rows.append((float(T), r, False, gaps[-1]))
        medians.append(float(np.median(gaps)))
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    decreasing = all(r < 1.0 for r in ratios)
    return GapReport(
        config_digest=config.digest(),
        seed=config.seed,
        gamma=float(config.gamma),
        horizons=list(config.horizons),
        deltas=deltas,
        medians=medians,
        ratios=ratios,
        decreasing=decreasing,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# config file parsing

_MODEL_KEYS = ("n", "a", "b", "m", "kappa", "theta", "rho", "y0", "x0")


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _parse_matrix(text: str) -> np.ndarray:
    rows = [r for r in text.split(";") if r.strip() != ""]
    return np.array([[float(v) for v in r.split(",")] for r in rows])


def parse_config_text(text: str) -> dict:
    """Flat key = value lines into a raw string dict; a key outside the list
    in the module docstring, or one given on two lines, is a ConfigError."""
    known = _MODEL_KEYS + ("regime", "horizons", "delta", "gamma", "replications", "seed",
                           "flavor", "fine_delta", "limit_draws", "horizon")
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"key {key!r} is set on lines {first_line[key]} and {lineno}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def parse_value(raw: dict, key: str, parse, default=None):
    """``parse(raw[key])``, or ``default`` when the key is absent; a value
    ``parse`` rejects is a ConfigError naming the key."""
    if key not in raw:
        return default
    try:
        return parse(raw[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw[key]!r}") from exc


def params_from_config(raw: dict) -> ModelParams:
    """Model parameters of a raw config.  A key whose shape does not fit n
    (the rule :class:`ModelParams` keeps) is a ConfigError naming the key,
    and an inadmissible model is one listing every violation."""
    missing = [k for k in _MODEL_KEYS[:7] if k not in raw]
    if missing:
        raise ConfigError(f"config lacks model keys: {', '.join(missing)}")
    try:
        return ModelParams(
            n=parse_value(raw, "n", int),
            a=parse_value(raw, "a", float),
            b=parse_value(raw, "b", float),
            m=parse_value(raw, "m", _parse_vector),
            kappa=parse_value(raw, "kappa", _parse_vector),
            theta=parse_value(raw, "theta", _parse_matrix),
            rho=parse_value(raw, "rho", _parse_matrix),
            y0=parse_value(raw, "y0", float, 1.0),
            x0=parse_value(raw, "x0", _parse_vector, 0.0),
        )
    except (DimensionMismatchError, InadmissibleParamsError) as exc:
        raise ConfigError(str(exc)) from exc


def experiment_config_from_text(text: str) -> ExperimentConfig:
    raw = parse_config_text(text)
    params = params_from_config(raw)
    if "regime" not in raw:
        raise ConfigError("config lacks a declared regime")
    if "horizons" not in raw:
        raise ConfigError("config lacks horizons")
    return ExperimentConfig(
        params=params,
        regime=parse_value(raw, "regime", lambda v: Regime(v.lower())),
        horizons=[float(v) for v in parse_value(raw, "horizons", _parse_vector)],
        replications=parse_value(raw, "replications", int, 100),
        seed=parse_value(raw, "seed", int, 0),
        flavor=raw.get("flavor", "discrete"),
        delta=parse_value(raw, "delta", float),
        gamma=parse_value(raw, "gamma", float),
        fine_delta=parse_value(raw, "fine_delta", float, 1e-3),
        limit_draws=parse_value(raw, "limit_draws", int),
    )


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return experiment_config_from_text(fh.read())


def write_report(report, out_dir: str, stem: str = "experiment") -> dict:
    """Write the per-replication CSV and the JSON summary; returns paths.
    The CSV is rendered once, for the file and for the summary's hash."""
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{stem}.csv")
    json_path = os.path.join(out_dir, f"{stem}.json")
    csv = report.csv_text()
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(csv)
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report._summary(csv), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"csv": csv_path, "json": json_path}
