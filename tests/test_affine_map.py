"""The limit objects at n = 2 and 3 against an invertible affine map of X,
without Monte Carlo.

If Z = (Y, X) is an AD(1,n) process, so is (Y, X') with X' = P X + q for an
invertible P: m' = P m + theta' q, kappa' = P kappa, theta' = P theta P^-1,
the X rows of rho map by P, and rho' is the Cholesky factor of the mapped
rho rho^T.  Row by row, F' = [m' | kappa' | theta'] = P F T with
T = [[1, 0, 0], [0, 1, 0], [P^-1 q, 0, P^-1]], so tau' = J tau with
J = diag(I_2, P kron T^T), and each limit object of tau_hat - tau maps by
J as well; the stationary moments of X' are those of P X + q.  A
kron-order or transpose slip in a layout breaks that map at order 1, far
above rounding.

The drawn P is a signed permutation times a diagonal of entries +-1 or +-2
times I + E, ||E||_2 <= 3/4, so cond(P) <= 2 * 7.  Each tolerance is
``ROUNDING`` times eps times the condition number of the matrix that the
mapped side solves (EG' for the sandwich, U2' for the limit draw, the
worst degree block of the mapped generator's G^T for the moments), the size
of the rounding error that solve can make.  The drawn maps stay that well
conditioned for the normalizer check, whose tolerance is a fixed 1e-12
(0.85 of it at cond(P) up to 100).  The sandwich and the moments, whose
tolerances hold at any P, are also checked on a fixed set of maps with
cond(P) between 14 and 100.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ad1n import ModelParams, classify
from ad1n.asymptotics import critical_limit_functional, normalizer
from ad1n.model import stack_tau, symmetric_cond
from ad1n.moments import (_index_set, asymptotic_covariance, generator,
                          stationary_x_moments)
from ad1n.simulate import simulate_critical_limit

from conftest import random_subcritical

SETTINGS = settings(max_examples=10, deadline=None, database=None)
EPS = np.finfo(float).eps
#: allowed error over eps * cond of the solved matrix; on 600 random P of
#: cond <= 10 the largest ratio seen was 1.95, and on 1,000 drawn maps the
#: moments' largest, over the size of their terms, was 2.2 (0.74 on the
#: fixed maps of cond(P) up to 100)
ROUNDING = 32


@st.composite
def affine_maps(draw, shift=True):
    """(P, q) at n = 2 or 3: P = signed permutation @ diag(+-1, +-2) @ (I + E),
    and q = 0 unless ``shift``."""
    n = draw(st.integers(2, 3))
    perm = np.eye(n)[draw(st.permutations(range(n)))]
    signs = draw(arrays(float, n, elements=st.sampled_from([-2.0, -1.0, 1.0, 2.0])))
    E = draw(arrays(float, (n, n), elements=st.integers(-15, 15).map(lambda k: k / 60.0)))
    P = perm @ np.diag(signs) @ (np.eye(n) + E / n)
    assert np.linalg.cond(P) <= 14.0
    if not shift:
        return P, np.zeros(n)
    return P, draw(arrays(float, n, elements=st.integers(-8, 8).map(lambda k: k / 8.0)))


def mapped(p: ModelParams, P, q) -> ModelParams:
    theta = P @ p.theta @ np.linalg.inv(P)
    D = np.eye(p.d)
    D[1:, 1:] = P
    R = D @ p.rho
    return ModelParams(n=p.n, a=p.a, b=p.b, m=P @ p.m + theta @ q, kappa=P @ p.kappa,
                       theta=theta, rho=np.linalg.cholesky(R @ R.T), y0=p.y0,
                       x0=P @ p.x0 + q)


def jacobian(P, q) -> np.ndarray:
    """J with tau' = J tau."""
    n = P.shape[0]
    Pinv = np.linalg.inv(P)
    T = np.eye(n + 2)
    T[2:, 0] = Pinv @ q
    T[2:, 2:] = Pinv
    J = np.eye((n + 1) ** 2 + 1)
    J[2:, 2:] = np.kron(P, T.T)
    return J


def rel_error(got, want) -> float:
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@functools.cache
def subcritical(n):
    return random_subcritical(np.random.default_rng(n), n)


@functools.cache
def limit_path(n):
    return simulate_critical_limit(subcritical(n), 5)


@SETTINGS
@given(affine_maps())
def test_tau_maps_by_j(case):
    P, q = case
    p = subcritical(P.shape[0])
    assert rel_error(stack_tau(mapped(p, P, q)), jacobian(P, q) @ stack_tau(p)) <= 16 * EPS


def ill_conditioned_maps(count=50):
    """``count`` fixed (P, q) at each of n = 2 and 3: P = U diag(1, ..., 1/c) V^T
    with U, V random orthogonal and cond(P) = c log-uniform in [14, 100], and q
    on the grid of :func:`affine_maps`."""
    rng = np.random.default_rng(2024)
    maps = []
    for n in (2, 3):
        for _ in range(count):
            U, V = (np.linalg.qr(rng.normal(size=(n, n)))[0] for _ in range(2))
            c = np.exp(rng.uniform(np.log(14.0), np.log(100.0)))
            P = U @ np.diag(np.geomspace(1.0, 1.0 / c, n)) @ V.T
            maps.append((P, rng.integers(-8, 9, size=n) / 8.0))
    return maps


def sandwich_ratio(P, q) -> float:
    """The mapped model's sandwich error against J S J^T, over eps cond(EG')."""
    p = subcritical(P.shape[0])
    J = jacobian(P, q)
    report = asymptotic_covariance(mapped(p, P, q))
    want = J @ asymptotic_covariance(p).sandwich @ J.T
    return rel_error(report.sandwich, want) / (EPS * report.cond_EG)


@SETTINGS
@given(affine_maps())
def test_sandwich_maps_by_j(case):
    assert sandwich_ratio(*case) <= ROUNDING


def test_sandwich_maps_by_j_at_ill_conditioned_p():
    # moments expanded through the inverse eigenvector matrix of theta'
    # would lose digits with its condition number; the X-coordinate solves
    # do not, so the drawn maps' bound holds here too
    ratios = [sandwich_ratio(P, q) for P, q in ill_conditioned_maps()]
    assert max(ratios) <= ROUNDING, max(ratios)


@SETTINGS
@given(affine_maps(shift=False))
def test_critical_limit_draw_maps_by_j(case):
    # the limit process starts at X = 0, so only q = 0 keeps it zero-started
    P, q = case
    p = subcritical(P.shape[0])
    path = limit_path(P.shape[0])
    states = path.states.copy()
    states[:, 1:] = path.X @ P.T
    functional = critical_limit_functional(dataclasses.replace(path, states=states),
                                           p.a, P @ p.m)
    want = jacobian(P, q) @ critical_limit_functional(path, p.a, p.m).limit_draw()
    assert (rel_error(functional.limit_draw(), want)
            <= ROUNDING * EPS * symmetric_cond(functional.u2))


def moments_of_mapped_x(moments, P, q):
    """``stationary_x_moments`` of (Y, P X + q) from those of (Y, X)."""
    ey, ey2, ey3, ex, eyx, ey2x, exx, eyxx = moments

    def second(w_x, w_xx, w):  # E[w X'X'^T] from E[w X], E[w X X^T] and E[w]
        return P @ w_xx @ P.T + np.outer(P @ w_x, q) + np.outer(q, P @ w_x) + w * np.outer(q, q)

    return (ey, ey2, ey3, P @ ex + q, P @ eyx + ey * q, P @ ey2x + ey2 * q,
            second(ex, exx, 1.0), second(eyx, eyxx, ey))


def solved_cond(p: ModelParams) -> float:
    """The largest condition number among the degree blocks of G^T (degrees 1
    to 3) that ``stationary_moment_table`` solves for the moments that
    ``stationary_x_moments`` reads."""
    degree = np.array([k + sum(l) for k, l in _index_set(p.n, 3)])
    GT = generator(p, 3).T
    return max(np.linalg.cond(GT[np.ix_(degree == d, degree == d)]) for d in (1, 2, 3))


def moments_ratio(P, q) -> float:
    """The mapped model's worst moment error against those of P X + q, over
    the size of the terms summed into the latter (so that their cancellation
    is not taken for an error of the mapped side) times eps ``solved_cond``."""
    p = subcritical(P.shape[0])
    p_mapped = mapped(p, P, q)
    moments = stationary_x_moments(p)
    want = moments_of_mapped_x(moments, P, q)
    scale = moments_of_mapped_x([np.abs(v) for v in moments], np.abs(P), np.abs(q))
    return max(float(np.max(np.abs(got - w)) / np.max(s))
               for got, w, s in zip(stationary_x_moments(p_mapped), want, scale)) / (
                   EPS * solved_cond(p_mapped))


@SETTINGS
@given(affine_maps())
def test_stationary_moments_map_by_p(case):
    assert moments_ratio(*case) <= ROUNDING


def test_stationary_moments_map_by_p_at_ill_conditioned_p():
    ratios = [moments_ratio(P, q) for P, q in ill_conditioned_maps()]
    assert max(ratios) <= ROUNDING, max(ratios)


def regime_points(n):
    """A subcritical, a critical and a supercritical point of dimension n."""
    S = np.eye(n) + np.triu(np.full((n, n), 0.2), 1)
    Sinv = np.linalg.inv(S)
    common = dict(n=n, a=1.0, m=np.ones(n), kappa=np.full(n, 0.5), rho=np.eye(n + 1))
    return [
        subcritical(n),
        ModelParams(b=0.0, theta=np.zeros((n, n)), **common),
        ModelParams(b=-0.5, theta=S @ np.diag(-1.0 - np.arange(n)) @ Sinv, **common),
    ]


@SETTINGS
@given(affine_maps(shift=False), st.sampled_from([0, 1, 2]))
def test_normalizer_commutes_with_j(case, which):
    P, q = case
    p = regime_points(P.shape[0])[which]
    p_mapped = mapped(p, P, q)
    J = jacobian(P, q)
    Q = normalizer(classify(p), 5.0, p).Q
    Q_mapped = normalizer(classify(p_mapped), 5.0, p_mapped).Q
    assert classify(p_mapped).regime == classify(p).regime
    np.testing.assert_allclose(Q_mapped @ J, J @ Q, rtol=0, atol=1e-12 * np.abs(J @ Q).max())
