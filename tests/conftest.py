import os

import numpy as np
import pytest

from ad1n import ModelParams


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps what it forks, whether it returns or raises."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pipes_and_path_memfds():
    """{fd: link target} of this process's open pipes and ``ad1n-paths``
    memfds, or None where /proc/self/fd is missing."""
    try:
        fds = os.listdir("/proc/self/fd")
    except FileNotFoundError:
        return None
    out = {}
    for fd in fds:
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:  # the listing's own fd, closed by now
            continue
        if target.startswith("pipe:") or target.startswith("/memfd:ad1n-paths"):
            out[fd] = target
    return out


@pytest.fixture(autouse=True)
def no_fd_left():
    """Every test closes the pipes and path memfds it opens, whether it
    returns or raises."""
    before = _pipes_and_path_memfds()
    yield
    if before is not None:
        left = _pipes_and_path_memfds().items() - before.items()
        assert not left, f"left open: {sorted(left)}"


@pytest.fixture
def subcritical_params():
    """n = 1 reference point used across the estimation tests."""
    return ModelParams(
        n=1, a=2.0, b=1.0, m=[1.0], kappa=[0.5], theta=[[2.0]],
        rho=[[1.0, 0.0], [0.2, 0.9]], y0=2.0, x0=0.25,
    )


@pytest.fixture
def subcritical_params_n2():
    return ModelParams(
        n=2, a=2.0, b=1.5,
        m=[2.0, -1.5], kappa=[0.2, 0.1],
        theta=[[2.0, 0.3], [0.1, 1.2]],
        rho=[[1.0, 0.0, 0.0], [0.2, 0.8, 0.0], [-0.1, 0.15, 0.7]],
        y0=1.5, x0=[0.5, -1.0],
    )


@pytest.fixture
def critical_params():
    return ModelParams(
        n=1, a=2.0, b=0.0, m=[1.0], kappa=[0.0], theta=[[0.0]],
        rho=[[1.0, 0.0], [0.2, 0.9]], y0=1.0, x0=0.0,
    )


@pytest.fixture
def supercritical_params():
    return ModelParams(
        n=1, a=1.0, b=-0.5, m=[0.5], kappa=[-0.2], theta=[[-1.0]],
        rho=[[1.0, 0.0], [0.2, 0.9]], y0=1.0, x0=0.0,
    )


def random_subcritical(rng: np.random.Generator, n: int) -> ModelParams:
    """A random admissible subcritical parameter point."""
    d = n + 1
    rho = np.tril(rng.uniform(-0.5, 0.5, size=(d, d)))
    np.fill_diagonal(rho, rng.uniform(0.5, 1.5, size=d))
    # positive definite diagonalizable theta: diagonal plus a small tilt
    theta = np.diag(rng.uniform(0.8, 3.0, size=n)) + rng.uniform(-0.15, 0.15, size=(n, n))
    b = rng.uniform(0.5, 2.5)
    while True:
        eig = np.linalg.eigvals(theta)
        if np.all(np.abs(eig.imag) < 1e-12) and eig.real.min() > 0.1:
            break
        theta = np.diag(rng.uniform(0.8, 3.0, size=n)) + rng.uniform(-0.1, 0.1, size=(n, n))
    return ModelParams(
        n=n, a=rng.uniform(0.5, 3.0), b=b,
        m=rng.normal(size=n), kappa=rng.normal(scale=0.5, size=n),
        theta=theta, rho=rho, y0=1.0, x0=np.zeros(n),
    )


class FirstPath(Exception):
    """Raised by the ``keys_at_first_path`` spy at the first path."""


def keys_at_first_path(monkeypatch, keys_module, paths_module) -> list:
    """Count the substream keys made through ``keys_module.substream``, and
    make ``paths_module.simulate_paths`` raise FirstPath once it has its
    first path; the returned list then holds the count at that path."""
    made, seen = [], []
    substream, simulate_paths = keys_module.substream, paths_module.simulate_paths

    def counting(*args):
        made.append(args)
        return substream(*args)

    def stop_at_first(*args):
        next(simulate_paths(*args))
        seen.append(len(made))
        raise FirstPath

    monkeypatch.setattr(keys_module, "substream", counting)
    monkeypatch.setattr(paths_module, "simulate_paths", stop_at_first)
    return seen
