"""Built-in benchmark generators with analytically known constants, the exact
batch-alignment analyzer for linear constraint systems, the rate theory's
predicted minibatch gain b(N), and a plain-text instance format so other
implementations can consume identical problems.

Every instance, builtin or file, is built by ``_build_instance``, which
derives its constants: f(x) = 0.5 * |x - c|^2, so mu = 1; the rows are
unit, so M_g = 1; and the optimum x* = P_X[c] and its value come from the
certified ``project_intersection``, making rate measurement exact.  A
generator places the pull center c outside the feasible region, so x* is
tight on a row and the feasibility machinery works on every run.

Instance format (``save_instance`` / ``load_instance``): plain text, one
record per line, tokens separated by whitespace, blank lines ignored: the
header, the m constraint rows, then keyed lines in any order.  The lines
down to ``anchor`` define the problem.  The keys after it are optional
claims, checked against the derived values: a false one raises
``OracleError`` naming its key, and a weaker true one changes nothing.
``save_instance`` writes each at its derived value::

    n m                       dimension and number of constraints
    a_1 ... a_n b             m rows, one per constraint a^T x + b <= 0
    objective quadratic       f(x) = 0.5 * |x - c|^2
    center c_1 ... c_n        the objective's pull center c
    set ball y_1 ... y_n r    simple set Y: the ball of center y and radius r,
    set whole                 or the whole space
    anchor p_1 ... p_n        optional: a strictly feasible point (default 0)
    mu <value>                strong convexity of f: true if <= 1
    Mg <value>                constraint subgradient bound: true if >= 1
    Mf <value>                objective subgradient bound over Y: true if
                              >= r + |c - y|; none is true on ``set whole``
    fstar <value>             with xstar: f*, true within TOL_METRIC * s^2
    xstar x_1 ... x_n         with fstar: x*, true within TOL_METRIC * s
                              in each coordinate

with s = 1 + the largest |c_i| or |x*_i|, the scale of x*'s certificate.
Every number must be finite, every vector must have n entries, and each
key may appear once; any other key is an error.  Numbers are written with
17 significant digits, so a round trip is exact.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geometry import (TOL_METRIC, PolyhedronSpec, linear_family,
                       project_intersection)
from .oracle import KnownOptimum, ObjectiveOracle, OracleError, ProblemSpec, SimpleSet
from .solver import ConfigError, PolyhedralContext


# shape of the generated instances: constraint margins at the anchor, how far
# the pull center overshoots the violated faces, the simple-set radius as a
# multiple of the pull distance, and the rows the ``orthonormal`` pull
# center violates
MARGIN_RANGE = (0.1, 0.5)
OVERSHOOT = 1.0
RADIUS_FACTOR = 4.0
N_ACTIVE = 4


@dataclass
class BenchmarkInstance:
    """A generated problem plus the polyhedral data the harness needs."""

    spec: ProblemSpec
    poly: PolyhedronSpec
    anchor: np.ndarray                # strictly feasible interior point
    pull_center: np.ndarray           # unconstrained minimizer x_c of the objective

    def context(self) -> PolyhedralContext:
        return PolyhedralContext(poly=self.poly, feasible_point=self.anchor)


def _quadratic_objective(center: np.ndarray) -> ObjectiveOracle:
    def evaluate(x):
        d = x - center
        return 0.5 * float(d @ d)

    def subgradient(x):
        return x - center

    return ObjectiveOracle(evaluate=evaluate, subgradient=subgradient)


def _objective_bound(simple_set: SimpleSet, pull_center: np.ndarray) -> float:
    """M_f of f = 0.5 * |x - c|^2 over Y, the largest |x - c| there: r +
    |c - y| on a ball of center y and radius r, inf on the whole space."""
    if simple_set.variant == "whole-space":
        return math.inf
    return simple_set.radius + float(np.linalg.norm(pull_center - simple_set.center))


def _build_instance(A: np.ndarray, b: np.ndarray, anchor: np.ndarray,
                    pull_center: np.ndarray,
                    simple_set: Optional[SimpleSet] = None) -> BenchmarkInstance:
    """Assemble spec + instance around a pull center: the one builder of a
    ``ProblemSpec``, for builtins and instance files alike, with the
    constants of the module docstring.  Y is ``simple_set``, by default a
    ball about the anchor.  The ``PolyhedronSpec`` checks the rows once, at
    least one of them, and the constraints are its ``linear_family``.  An
    empty feasible set raises ``EmptyFeasibleSetError``."""
    poly = PolyhedronSpec(A=A, b=b)
    if simple_set is None:
        radius = RADIUS_FACTOR * max(float(np.linalg.norm(pull_center - anchor)), 1.0)
        simple_set = SimpleSet.ball(anchor, radius)
    x_star = project_intersection(poly, simple_set, pull_center)
    f_star = 0.5 * float(np.linalg.norm(x_star - pull_center)) ** 2
    spec = ProblemSpec(objective=_quadratic_objective(pull_center),
                       constraints=linear_family(poly), simple_set=simple_set,
                       mu=1.0, M_g=1.0,
                       known_optimum=KnownOptimum(f_star=f_star, x_star=x_star))
    return BenchmarkInstance(spec=spec, poly=poly, anchor=anchor.copy(),
                             pull_center=pull_center)


def make_polyhedral_benchmark(n: int, m: int, seed: int) -> BenchmarkInstance:
    """Random polytope benchmark with known optimum on the boundary.

    Rows are unit-norm Gaussian directions; offsets keep the origin strictly
    feasible with margins drawn from ``MARGIN_RANGE``.  The pull center is
    placed beyond a random face j (plus a tangential perturbation): it lies
    in the ball Y and violates row j, so the optimum, its projection onto
    the feasible set, is tight on some row, and one draw always suffices.
    """
    if m < 1 or n < 2:
        raise OracleError("need m >= 1 and n >= 2")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=1)[:, None]
    margins = rng.uniform(*MARGIN_RANGE, size=m)
    b = -margins
    j = int(rng.integers(0, m))
    depth = margins[j] + OVERSHOOT * rng.uniform(0.5, 1.5)
    tangent = rng.standard_normal(n)
    tangent -= (tangent @ A[j]) * A[j]
    pull = depth * A[j] + 0.3 * tangent
    return _build_instance(A, b, np.zeros(n), pull)


def make_orthonormal_benchmark(n: int, seed: int) -> BenchmarkInstance:
    """Benchmark whose n constraint rows are orthonormal.

    Any size-N subset J of rows then has a Gram matrix equal to the identity,
    so the exact batch alignment bound is 1/N: the regime where averaging the
    parallel steps provably helps.  The pull center violates ``N_ACTIVE``
    constraints at once.
    """
    if n < N_ACTIVE:
        raise OracleError(f"need n >= {N_ACTIVE}, the number of violated rows")
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    A = Q.T.copy()
    margins = rng.uniform(*MARGIN_RANGE, size=n)
    b = -margins
    anchor = np.zeros(n)
    depths = margins[:N_ACTIVE] + OVERSHOOT * rng.uniform(0.5, 1.5, size=N_ACTIVE)
    pull = depths @ A[:N_ACTIVE]
    return _build_instance(A, b, anchor, pull)


def make_duplicated_benchmark(n: int, m: int, seed: int) -> BenchmarkInstance:
    """Benchmark with one constraint direction duplicated m times.

    Every admissible row subset is rank one, so the exact batch alignment
    bound is 1 and the rate theory predicts no gain from parallel averaging.
    Every constraint has margin 0.3 at the anchor.
    """
    if m < 1 or n < 1:
        raise OracleError("need m >= 1 and n >= 1")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    A = np.tile(a, (m, 1))
    margin = 0.3
    b = np.full(m, -margin)
    anchor = np.zeros(n)
    tangent = rng.standard_normal(n)
    tangent -= (tangent @ a) * a
    pull = (margin + OVERSHOOT) * a + 0.3 * tangent
    return _build_instance(A, b, anchor, pull)


def make_orthant2() -> BenchmarkInstance:
    """Two-dimensional corner problem: x <= 0 componentwise, pull center (1, 1).

    The optimum is the origin with value 1; handy for end-to-end smoke runs.
    """
    A = np.eye(2)
    b = np.zeros(2)
    anchor = np.array([-0.5, -0.5])
    pull = np.array([1.0, 1.0])
    return _build_instance(A, b, anchor, pull)


BUILTINS = {
    "orthant2": lambda n, m, seed: make_orthant2(),
    "benchmark": lambda n, m, seed: make_polyhedral_benchmark(n, m, seed),
    "orthonormal": lambda n, m, seed: make_orthonormal_benchmark(n, seed),
    "duplicated": lambda n, m, seed: make_duplicated_benchmark(n, m, seed),
}


def make_builtin(name: str, n: int = 10, m: int = 20, seed: int = 0) -> BenchmarkInstance:
    try:
        factory = BUILTINS[name]
    except KeyError:
        raise OracleError(f"unknown builtin problem {name!r}; "
                          f"choose from {sorted(BUILTINS)}") from None
    if seed < 0:
        raise OracleError(f"problem seed must be >= 0, got {seed}")
    return factory(n, m, seed)


# ---------------------------------------------------------------------------
# exact batch-alignment analysis for linear constraints


def lambda_max_power(G: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric (k, k) matrix, or the largest over a
    (C, k, k) stack of them, k >= 1.

    Computed by ``np.linalg.eigvalsh``.  The name is kept although no power
    iteration runs: the benchmark's tracer times this module attribute as
    ``problems.lambda_max_power``, once per Gram stack of ``exact_ln_linear``.
    """
    G = np.asarray(G, dtype=np.float64)
    return float(np.linalg.eigvalsh(G)[..., -1].max())


MAX_ENUMERATION = 10 ** 6
# subsets per stacked ``eigvalsh`` call of ``exact_ln_linear``
LN_CHUNK = 1024


def exact_ln_linear(poly: PolyhedronSpec, batch_size: int) -> float:
    """Exact supremum of the batch alignment ratio for linear constraints
    under sampling without replacement.

    Returns max over the index sets J of ``batch_size`` distinct rows of
    lambda_max(A_J A_J^T) / |J|, which bounds every realized per-batch ratio.
    The value lies in (0, 1]; it reaches 1 only when some subset has rank
    <= 1 (duplicated directions), which is flagged with a warning.

    Gershgorin's circle theorem bounds lambda_max(A_J A_J^T) by the largest
    row sum of |A A^T| over J x J.  The running max of lambda_max starts at
    each row's N most coherent rows; then each chunk of at most ``LN_CHUNK``
    subsets sends to ``lambda_max_power`` (a module global, for the
    benchmark's tracer) only those whose bound + 1e-6 N reaches it.  That
    margin is far above either side's rounding, about (n + N) N eps, each
    evaluated Gram matrix and eigenvalue is computed as in the full
    enumeration, and rounding is monotone, so the max divided by N once is
    bit for bit that of lambda_max / N over every subset.  Memory is a
    chunk's Gram matrices and one m x m matrix (at N = 1, a copy of A).
    """
    m = poly.m
    size = int(batch_size)
    if not 1 <= size <= m:
        raise OracleError(f"batch size {size} out of range for m={m}")
    if math.comb(m, size) > MAX_ENUMERATION:
        raise OracleError(
            f"exhaustive enumeration of {math.comb(m, size)} subsets exceeds "
            f"the {MAX_ENUMERATION} cap")

    if size == 1:    # one row per subset: no bound, no m x m matrix
        rows = poly.A[np.arange(m)[:, None]]
        return min(lambda_max_power(rows @ rows.transpose(0, 2, 1)), 1.0)
    coherence = np.abs(poly.A @ poly.A.T)
    # first the seeds, each row's N most coherent rows; no bound is below 0
    chunk = np.unique(np.sort(np.argsort(-coherence, axis=1)[:, :size], axis=1), axis=0)
    best, subsets = 0.0, itertools.combinations(range(m), size)
    while len(chunk):
        bound = coherence[chunk[:, :, None], chunk[:, None, :]].sum(axis=2)
        rows = poly.A[chunk[bound.max(axis=1) + 1e-6 * size >= best]]
        if len(rows):
            best = max(best, lambda_max_power(rows @ rows.transpose(0, 2, 1)))
        chunk = np.fromiter(itertools.chain.from_iterable(
            itertools.islice(subsets, LN_CHUNK)), np.intp).reshape(-1, size)
    best /= size
    if best >= 1.0 - 1e-12:
        warnings.warn("a row subset has rank <= 1 (duplicated "
                      "directions): the alignment bound reaches 1 and parallel "
                      "averaging gives no predicted gain", stacklevel=2)
    return min(best, 1.0)


def predicted_gain(poly: PolyhedronSpec, variant: str, beta: float,
                   c_hat: float, mg: float, size: int,
                   with_replacement: bool = False) -> Optional[float]:
    """The rate theory's gain factor b(N) of the given variant at batch size
    N = ``size``, or None where the theory does not cover that N.

    With c = ``c_hat``:

    - parallel: q = beta * (2 - beta * L_N) / (c * M_g^2) and
      b = 1 / (1 - q) - 1, covered when c * M_g^2 * L_N > 1 and
      beta < 2 / L_N.  L_N is ``exact_ln_linear`` for batches of distinct
      indices, which raises ``OracleError`` above its enumeration cap; with
      ``with_replacement`` (iid sampling) a batch may repeat one index N
      times, whose ratio is exactly 1 for unit rows, so L_N = 1.
    - sequential: q = beta * (2 - beta) / (c * M_g^2) and
      b = (1 - q)^{-N} - 1, covered at every N; no L_N is computed.

    A ``c_hat`` that is not finite with c * M_g^2 > 1 is a ``ConfigError``,
    raised before any L_N.  ``variant``, ``beta`` and ``size`` are the
    runs' own, checked by ``solver.validate``: beta lies in (0, 2) for
    the sequential variant.
    """
    scale = c_hat * mg ** 2
    if not (math.isfinite(c_hat) and scale > 1.0):
        raise ConfigError(f"need a finite c_hat with c_hat * M_g^2 > 1 for the "
                          f"gain predictions, got c_hat = {c_hat!r}")
    if variant == "sequential":
        q = beta * (2.0 - beta) / scale
        return (1.0 - q) ** (-size) - 1.0
    ln = 1.0 if with_replacement else exact_ln_linear(poly, size)
    if scale * ln > 1.0 and beta < 2.0 / ln:
        q = beta * (2.0 - beta * ln) / scale
        return 1.0 / (1.0 - q) - 1.0
    return None


# ---------------------------------------------------------------------------
# plain-text instance format


def save_instance(instance: BenchmarkInstance, path) -> None:
    """Write an instance in the plain-text format of the module docstring,
    each claim at its derived value and no ``Mf`` on ``set whole``."""
    spec, poly, ss = instance.spec, instance.poly, instance.spec.simple_set
    opt = spec.known_optimum

    def text(*values):
        return " ".join(format(float(v), ".17g") for v in values)

    ball = ss.variant == "ball"
    lines = [f"{poly.n} {poly.m}", *(text(*a, b) for a, b in zip(poly.A, poly.b)),
             "objective quadratic", "center " + text(*instance.pull_center),
             "set ball " + text(*ss.center, ss.radius) if ball else "set whole",
             "mu " + text(spec.mu)]
    if ball:
        lines.append("Mf " + text(_objective_bound(ss, instance.pull_center)))
    lines += ["Mg " + text(spec.M_g), "fstar " + text(opt.f_star),
              "xstar " + text(*opt.x_star), "anchor " + text(*instance.anchor)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> BenchmarkInstance:
    """Read an instance in the plain-text format of the module docstring
    and build it by ``_build_instance``.  A file that is not text, a
    malformed line, a non-finite number, a vector of the wrong length, an
    unknown or repeated key, ``fstar`` or ``xstar`` without the other, or a
    false claim raises ``OracleError`` naming the line's field or key."""
    def numbers(name, text, count):
        values = np.array([float(t) for t in text.split()])
        if values.size != count:
            raise ValueError(f"{name} has {values.size} values, expected {count}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has a non-finite value")
        return values

    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
        n, m = (int(t) for t in lines[0].split())
        A = np.zeros((m, n))
        b = np.zeros(m)
        for i in range(m):
            vals = numbers(f"row {i}", lines[1 + i], n + 1)
            A[i], b[i] = vals[:n], vals[n]
        fields = {}
        for line in lines[1 + m:]:
            key, _, rest = line.partition(" ")
            if key not in ("objective", "center", "set", "mu", "Mf", "Mg",
                           "fstar", "xstar", "anchor"):
                raise ValueError(f"unknown key {key!r}")
            if key in fields:
                raise ValueError(f"repeated key {key!r}")
            fields[key] = rest
        if fields.get("objective") != "quadratic":
            raise ValueError("unsupported objective block")
        pull = numbers("center", fields["center"], n)
        kind, _, rest = fields["set"].partition(" ")
        if kind == "ball":
            ball = numbers("set ball", rest, n + 1)
            simple_set = SimpleSet.ball(ball[:n], ball[n])
        elif kind == "whole":
            simple_set = SimpleSet.whole_space(n)
        else:
            raise ValueError(f"unsupported set variant {kind!r}")
        for given, missing in (("fstar", "xstar"), ("xstar", "fstar")):
            if given in fields and missing not in fields:
                raise ValueError(f"{given} given without {missing}")
        claims = {key: numbers(key, fields[key], n if key == "xstar" else 1)
                  for key in ("mu", "Mf", "Mg", "fstar", "xstar") if key in fields}
        anchor = numbers("anchor", fields["anchor"], n) \
            if "anchor" in fields else np.zeros(n)
    except (KeyError, IndexError, ValueError) as exc:
        raise OracleError(f"malformed instance file {path}: {exc}") from exc

    instance = _build_instance(A, b, anchor, pull, simple_set)
    opt = instance.spec.known_optimum
    s = 1.0 + float(np.max(np.abs(np.append(pull, opt.x_star)), initial=0.0))
    # by how much each claim is false; at most 0 when it is true
    excess = {"mu": lambda v: v - instance.spec.mu,
              "Mg": lambda v: instance.spec.M_g - v,
              "Mf": lambda v: _objective_bound(simple_set, pull) - v,
              "fstar": lambda v: abs(v - opt.f_star) - TOL_METRIC * s * s,
              "xstar": lambda v: np.abs(v - opt.x_star) - TOL_METRIC * s}
    for key, value in claims.items():
        miss = float(np.max(excess[key](value)))
        if miss > 0.0:
            raise OracleError(f"false claim in instance file {path}: {key} "
                              f"{fields[key]} misses the true {key} by {miss:.3g}")
    return instance
