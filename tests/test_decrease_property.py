"""Seeded property tests of the feasibility passes' decrease inequalities,
computed here from the oracle and the certified projection alone, apart
from the solver's lemma checker.

For a violated constraint with value g+ and row d at v, the relaxed step
z = v - t d, t = beta g+ / |d|^2, satisfies, for y = P_X(v) and e =
max(0, g(y)), which the projection's certificate keeps near 0:

    |z - y|^2 <= |v - y|^2 - beta (2 - beta) g+^2 / |d|^2 + 2 t e,

and the parallel pass's projected mean x of its N steps satisfies

    |x - y|^2 <= |v - y|^2 - beta (2 - beta L_N,k) mean(g+^2 / |d|^2)
                 + 2 mean(t e).

The sequential pass's chain z_0 = v, ..., z_N satisfies the first at each
step from z_{i-1}, at y = P_X(z_{i-1}), and their sum at y = P_X(v).
"""

import numpy as np
import pytest

from mbproj import solver
from mbproj.geometry import project_intersection
from mbproj.harness import RunConfig
from mbproj.problems import make_orthonormal_benchmark, make_polyhedral_benchmark
from mbproj.solver import parallel_feasibility_update, sequential_feasibility_update

INSTANCES = {
    **{f"benchmark-{seed}": (lambda seed=seed: make_polyhedral_benchmark(10, 20, seed))
       for seed in (0, 1, 2)},
    **{f"orthonormal-{seed}": (lambda seed=seed: make_orthonormal_benchmark(8, seed))
       for seed in (0, 1, 2)},
}
POLICIES = {"fixed0.5": RunConfig(beta=0.5), "fixed1": RunConfig(beta=1.0),
            "fixed1.9": RunConfig(beta=1.9),
            "adaptive": RunConfig(beta_policy="adaptive", delta=0.1)}
POINTS = 25
SIZE = 4


def draws(inst, seed):
    """``POINTS`` (minibatch, point) pairs: ``SIZE`` distinct indices, and a
    point at 0.05 to 1.5 radii from the center of Y, so some lie outside."""
    rng = np.random.default_rng(seed)
    ball = inst.spec.simple_set
    for _ in range(POINTS):
        u = rng.standard_normal(ball.dimension)
        v = ball.center + rng.uniform(0.05, 1.5) * ball.radius * u / np.linalg.norm(u)
        yield rng.choice(inst.poly.m, SIZE, replace=False), v


def oracle(inst, idx, v):
    """g+ and the rows at v of the constraints ``idx``, and |d|^2."""
    gvals, dirs = inst.spec.constraints.batch(idx[None], v[None])
    return np.maximum(gvals[0], 0.0), dirs[0], np.einsum("ij,ij->i", dirs[0], dirs[0])


def nearest(inst, v):
    """y = P_X(v), certified, and e = max(0, g(y)) of every row."""
    y = project_intersection(inst.poly, inst.spec.simple_set, v)
    return y, np.maximum(inst.poly.A @ y + inst.poly.b, 0.0)


def sq(d):
    return float(d @ d)


def holds(lhs, rhs, scale):
    return lhs <= rhs + 1e-10 * (1.0 + scale)


def rows_of_one():
    return solver._Rows((0,), (SIZE,))


@pytest.mark.parametrize("policy", list(POLICIES))
@pytest.mark.parametrize("name", list(INSTANCES))
def test_parallel_pass_decreases(name, policy):
    inst, cfg = INSTANCES[name](), POLICIES[policy]
    stepped = 0
    for idx, v in draws(inst, 7):
        (x,), ln_k, (beta,) = parallel_feasibility_update(
            inst.spec, idx[None], v[None], np.full(1, solver.initial_beta(cfg)),
            cfg, rows_of_one(), ratio=True)
        g, d, q = oracle(inst, idx, v)
        if not g.any():
            assert np.isnan(ln_k[0]) and x.tobytes() == v.tobytes()
            continue
        stepped += 1
        # L_N,k, here from its definition
        ratio = sq((g / q) @ d / SIZE) / np.mean(g * g / q)
        assert ln_k[0] == pytest.approx(ratio, rel=1e-12)
        y, e = nearest(inst, v)
        t, start = beta * g / q, sq(v - y)
        te = t * e[idx]
        for i in np.flatnonzero(g):
            z = v - t[i] * d[i]
            assert holds(sq(z - y), start - beta * (2 - beta) * g[i] ** 2 / q[i]
                         + 2 * te[i], start)
        assert holds(sq(x - y), start - beta * (2 - beta * ratio) * np.mean(g * g / q)
                     + 2 * np.mean(te), start)
    assert stepped >= POINTS // 3


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.9])
@pytest.mark.parametrize("name", list(INSTANCES))
def test_sequential_chain_decreases(name, beta):
    inst = INSTANCES[name]()
    steps = 0
    for idx, v in draws(inst, 8):
        y0, e0 = nearest(inst, v)
        z, total = v, 0.0
        for i in range(SIZE):
            # the chain's step from z: the pass over one column
            (z_next,) = sequential_feasibility_update(
                inst.spec, idx[None, i:i + 1], z[None], np.full(1, beta),
                solver._Rows((0,), (1,)))
            g, d, q = oracle(inst, idx[i:i + 1], z)
            if not g[0]:
                assert z_next.tobytes() == z.tobytes()
                continue
            steps += 1
            y, e = nearest(inst, z)
            t, decrease = beta * g[0] / q[0], beta * (2 - beta) * g[0] ** 2 / q[0]
            start = sq(z - y)
            assert holds(sq(z_next - y), start - decrease + 2 * t * e[idx[i]], start)
            total += decrease - 2 * t * e0[idx[i]]
            z = z_next
        # the whole pass is the chain, and the chain's sum holds at P_X(v)
        (whole,) = sequential_feasibility_update(
            inst.spec, idx[None], v[None], np.full(1, beta), rows_of_one())
        assert whole.tobytes() == z.tobytes()
        assert holds(sq(z - y0), sq(v - y0) - total, sq(v - y0))
    assert steps >= POINTS // 3
