"""Built-in benchmark generators with analytically known constants, the exact
batch-alignment analyzer for linear constraint systems, the rate theory's
predicted minibatch gain b(N), and a plain-text instance format so other
implementations can consume identical problems.

``predicted_gains`` prices b(N) for one variant, the runs' own: a sweep's
``outside_theory`` flag refers to that variant's conditions, and a
sequential sweep needs no L_N, so it enumerates no row subsets.

Every generated instance uses the objective f(x) = 0.5 * |x - x_c|^2.  With
constraints, the pull center x_c is placed outside the feasible region, so the
constrained optimum x* = P_X[x_c] sits on the boundary of at least one
constraint and the feasibility machinery is exercised on every run.  The optimum and its value
are computed by the independent distance oracle, making rate measurement
exact.

Instance format (``save_instance`` / ``load_instance``): plain text, one
record per line, tokens separated by whitespace, blank lines ignored.  The
first line is the header, then come the m constraint rows, then keyed lines
in any order::

    n m                       dimension and number of constraints
    a_1 ... a_n b             m rows, one per constraint a^T x + b <= 0
    objective quadratic       f(x) = 0.5 * |x - center|^2
    center c_1 ... c_n        the objective's pull center
    set ball y_1 ... y_n r    simple set: the ball of center y and radius r,
    set whole                 or the whole space
    mu <value>                strong convexity constant of f
    Mf <value>                bound on the objective subgradients
    Mg <value>                bound on the constraint subgradients
    fstar <value>             optional: the optimal value
    xstar x_1 ... x_n         optional: the optimum (used only with fstar)
    anchor p_1 ... p_n        optional: a strictly feasible point (default 0)

Every number must be finite and every vector must have n entries.  Numbers
are written with 17 significant digits, so a round trip is exact.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import PolyhedronSpec, project_intersection
from .oracle import (KnownOptimum, ObjectiveOracle, OracleError,
                     ProblemSpec, SimpleSet, empty_family, linear_family)
from .solver import ConfigError, PolyhedralContext


class GenerationError(RuntimeError):
    """Benchmark generation failed (degenerate geometry after all retries)."""


# shape of the generated instances: constraint margins at the anchor, how far
# the pull center overshoots the violated faces, the simple-set radius as a
# multiple of the pull distance, the draws ``benchmark`` may retry and the
# rows the ``orthonormal`` pull center violates
MARGIN_RANGE = (0.1, 0.5)
OVERSHOOT = 1.0
RADIUS_FACTOR = 4.0
MAX_ATTEMPTS = 100
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


def _build_instance(A: np.ndarray, b: np.ndarray, anchor: np.ndarray,
                    pull_center: np.ndarray) -> BenchmarkInstance:
    """Assemble spec + instance around a pull center; the one place that
    sets Y (a ball about the anchor), M_f, mu, M_g, x* and f*.  With rows,
    the optimum must lie on the boundary of one; with none (A of shape
    (0, n)) the problem is unconstrained."""
    poly = PolyhedronSpec(A=A, b=b)
    radius = RADIUS_FACTOR * max(float(np.linalg.norm(pull_center - anchor)), 1.0)
    simple_set = SimpleSet.ball(anchor, radius)
    x_star = project_intersection(poly, simple_set, pull_center)
    if poly.m and float(np.max(poly.A @ x_star + poly.b)) < -1e-6:
        raise GenerationError("optimum interior to all constraints")
    f_star = 0.5 * float(np.linalg.norm(x_star - pull_center)) ** 2
    spec = ProblemSpec(
        dimension=poly.n,
        objective=_quadratic_objective(pull_center),
        constraints=linear_family(poly.A, poly.b) if poly.m else empty_family(),
        simple_set=simple_set,
        mu=1.0,
        M_f=radius + float(np.linalg.norm(pull_center - anchor)),
        M_g=1.0,
        known_optimum=KnownOptimum(f_star=f_star, x_star=x_star),
    )
    return BenchmarkInstance(spec=spec, poly=poly, anchor=anchor.copy(),
                             pull_center=pull_center)


def make_polyhedral_benchmark(n: int, m: int, seed: int) -> BenchmarkInstance:
    """Random polytope benchmark with known optimum on the boundary.

    Rows are unit-norm Gaussian directions; offsets keep the origin strictly
    feasible with margins drawn from ``MARGIN_RANGE``.  The pull center is
    placed beyond a random face (plus a tangential perturbation), so the
    optimum computed by the distance oracle is boundary-active; degenerate
    draws are regenerated with a shifted center, up to ``MAX_ATTEMPTS``.
    """
    if m < 1 or n < 2:
        raise OracleError("need m >= 1 and n >= 2")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    A /= np.linalg.norm(A, axis=1)[:, None]
    margins = rng.uniform(*MARGIN_RANGE, size=m)
    b = -margins
    anchor = np.zeros(n)

    last_error = None
    for attempt in range(MAX_ATTEMPTS):
        j = int(rng.integers(0, m))
        depth = margins[j] + OVERSHOOT * rng.uniform(0.5, 1.5)
        tangent = rng.standard_normal(n)
        tangent -= (tangent @ A[j]) * A[j]
        pull = depth * A[j] + 0.3 * tangent
        try:
            return _build_instance(A, b, anchor, pull)
        except GenerationError as exc:
            last_error = exc
    raise GenerationError(
        f"no boundary-active optimum after {MAX_ATTEMPTS} attempts: {last_error}")


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


def make_unconstrained(n: int = 4, seed: int = 3) -> BenchmarkInstance:
    """No functional constraints: plain projected subgradient descent.

    ``_build_instance`` with no rows: the feasible set is the ball Y, which
    contains the optimum, the pull center.  A run has no polyhedral context,
    so it logs max_violation and dist_X empty.
    """
    if n < 1:
        raise OracleError("need n >= 1")
    pull = np.random.default_rng(seed).standard_normal(n)
    return _build_instance(np.zeros((0, n)), np.zeros(0), np.zeros(n), pull)


BUILTINS = {
    "orthant2": lambda n, m, seed: make_orthant2(),
    "benchmark": lambda n, m, seed: make_polyhedral_benchmark(n, m, seed),
    "orthonormal": lambda n, m, seed: make_orthonormal_benchmark(n, seed),
    "duplicated": lambda n, m, seed: make_duplicated_benchmark(n, m, seed),
    "unconstrained": lambda n, m, seed: make_unconstrained(n, seed),
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
    """Largest eigenvalue of a symmetric matrix (0.0 for a 0x0 matrix).

    Computed by ``np.linalg.eigvalsh``.  The name is kept although no power
    iteration runs: the benchmark's tracer times this module attribute as
    ``problems.lambda_max_power``, once per subset of ``exact_ln_linear``.
    """
    G = np.asarray(G, dtype=np.float64)
    if G.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(G)[-1])


MAX_ENUMERATION = 10 ** 6


def exact_ln_linear(poly: PolyhedronSpec, batch_size: int) -> float:
    """Exact supremum of the batch alignment ratio for linear constraints
    under sampling without replacement.

    Returns max over the index sets J of ``batch_size`` distinct rows of
    lambda_max(A_J A_J^T) / |J|, which bounds every realized per-batch ratio.
    The value lies in (0, 1]; it reaches 1 only when some subset has rank
    <= 1 (duplicated directions), which is flagged with a warning.

    Each subset's Gram matrix goes through one ``lambda_max_power`` call,
    looked up as a module global so the benchmark's tracer counts it.  The
    Gram matrices are not stacked into one batched ``eigvalsh``: that would
    change the traced call count and, at the ``MAX_ENUMERATION`` cap, hold
    every subset's matrix in memory at once.
    """
    m = poly.m
    size = int(batch_size)
    if not 1 <= size <= m:
        raise OracleError(f"batch size {size} out of range for m={m}")
    if math.comb(m, size) > MAX_ENUMERATION:
        raise OracleError(
            f"exhaustive enumeration of {math.comb(m, size)} subsets exceeds "
            f"the {MAX_ENUMERATION} cap")

    best = 0.0
    for subset in itertools.combinations(range(m), size):
        rows = poly.A[list(subset)]
        gram = rows @ rows.T
        best = max(best, lambda_max_power(gram) / size)
    if size >= 2 and best >= 1.0 - 1e-12:
        warnings.warn("a row subset has rank <= 1 (duplicated "
                      "directions): the alignment bound reaches 1 and parallel "
                      "averaging gives no predicted gain", stacklevel=2)
    return min(best, 1.0)


def predicted_gains(poly: PolyhedronSpec, variant: str, beta: float,
                    c_hat: float, mg: float, n_list,
                    with_replacement: bool = False) -> list:
    """The rate theory's gain factor b(N) of the given variant, one per N of
    ``n_list``, or None where the theory does not cover that N.

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
    raised before any L_N.  ``variant``, ``beta`` and the sizes are the
    runs' own, checked by ``SolverConfig.validate``: beta lies in (0, 2) for
    the sequential variant.
    """
    scale = c_hat * mg ** 2
    if not (math.isfinite(c_hat) and scale > 1.0):
        raise ConfigError(f"need a finite c_hat with c_hat * M_g^2 > 1 for the "
                          f"gain predictions, got c_hat = {c_hat!r}")
    if variant == "sequential":
        q = beta * (2.0 - beta) / scale
        return [(1.0 - q) ** (-size) - 1.0 for size in n_list]
    gains = []
    for size in n_list:
        ln = 1.0 if with_replacement else exact_ln_linear(poly, size)
        if scale * ln > 1.0 and beta < 2.0 / ln:
            q = beta * (2.0 - beta * ln) / scale
            gains.append(1.0 / (1.0 - q) - 1.0)
        else:
            gains.append(None)
    return gains


# ---------------------------------------------------------------------------
# plain-text instance format


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def save_instance(instance: BenchmarkInstance, path) -> None:
    """Write an instance in the plain-text format of the module docstring."""
    spec = instance.spec
    poly = instance.poly
    ss = spec.simple_set
    lines = [f"{poly.n} {poly.m}"]
    for i in range(poly.m):
        lines.append(" ".join(_fmt(v) for v in poly.A[i]) + " " + _fmt(poly.b[i]))
    lines.append("objective quadratic")
    lines.append("center " + " ".join(_fmt(v) for v in instance.pull_center))
    if ss.variant == "ball":
        lines.append("set ball " + " ".join(_fmt(v) for v in ss.center)
                     + " " + _fmt(ss.radius))
    elif ss.variant == "whole-space":
        lines.append("set whole")
    else:
        raise OracleError(f"instance format supports ball or whole-space sets, "
                          f"not {ss.variant!r}")
    lines.append("mu " + _fmt(spec.mu))
    lines.append("Mf " + _fmt(spec.M_f))
    lines.append("Mg " + _fmt(spec.M_g))
    if spec.known_optimum is not None:
        lines.append("fstar " + _fmt(spec.known_optimum.f_star))
        lines.append("xstar " + " ".join(_fmt(v) for v in spec.known_optimum.x_star))
    lines.append("anchor " + " ".join(_fmt(v) for v in instance.anchor))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> BenchmarkInstance:
    """Read an instance in the plain-text format of the module docstring.

    A malformed file, a non-finite number or a vector of the wrong length
    raises ``OracleError`` naming the offending line's field.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]

    def numbers(name, text, count):
        values = np.array([float(t) for t in text.split()])
        if values.size != count:
            raise ValueError(f"{name} has {values.size} values, expected {count}")
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has a non-finite value")
        return values

    try:
        n, m = (int(t) for t in lines[0].split())
        A = np.zeros((m, n))
        b = np.zeros(m)
        for i in range(m):
            vals = numbers(f"row {i}", lines[1 + i], n + 1)
            A[i], b[i] = vals[:n], vals[n]
        fields = {}
        for line in lines[1 + m:]:
            key, _, rest = line.partition(" ")
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
        mu, mf, mg = (float(numbers(key, fields[key], 1)[0])
                      for key in ("mu", "Mf", "Mg"))
        known = None
        if "fstar" in fields and "xstar" in fields:
            known = KnownOptimum(f_star=float(numbers("fstar", fields["fstar"], 1)[0]),
                                 x_star=numbers("xstar", fields["xstar"], n))
        anchor = numbers("anchor", fields["anchor"], n) \
            if "anchor" in fields else np.zeros(n)
    except (KeyError, IndexError, ValueError) as exc:
        raise OracleError(f"malformed instance file {path}: {exc}") from exc

    poly = PolyhedronSpec(A=A, b=b)
    fam = linear_family(A, b) if m else empty_family()
    spec = ProblemSpec(dimension=n, objective=_quadratic_objective(pull),
                       constraints=fam, simple_set=simple_set, mu=mu, M_f=mf,
                       M_g=mg, known_optimum=known)
    return BenchmarkInstance(spec=spec, poly=poly, anchor=anchor, pull_center=pull)
