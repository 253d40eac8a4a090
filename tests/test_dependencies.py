"""numpy is the package's only runtime dependency, the package's modules
import one another in one direction only and only by public names, and
every function reads every parameter it takes."""

import ast
import pathlib
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "mbproj"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}
# each module may import only the modules before it; ``__init__`` is exempt
LAYERS = ("oracle", "geometry", "sampling", "solver", "problems", "harness")


def test_imports_are_stdlib_numpy_or_relative():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert not outside, outside


def test_relative_imports_only_reach_lower_layers():
    modules = {path.stem: path for path in SRC.glob("*.py")}
    assert set(modules) == set(LAYERS) | {"__init__"}
    upward = []
    for rank, name in enumerate(LAYERS):
        path = modules[name]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                targets = [node.module] if node.module else \
                    [alias.name for alias in node.names]
                upward += [f"{path.name}:{node.lineno} {target}" for target in targets
                           if LAYERS.index(target.split(".")[0]) >= rank]
    assert not upward, upward


def _private_imports(tree) -> list:
    """(line, name) of each ``_``-prefixed name that ``tree`` imports from
    another module of the package."""
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names if alias.name.startswith("_")]


def test_modules_import_only_public_names():
    # a helper that two modules share is a public name of the lower one
    private = [f"{path.name}:{line} {name}" for path in sorted(SRC.glob("*.py"))
               for line, name in _private_imports(
                   ast.parse(path.read_text(), filename=str(path)))]
    assert not private, private


def test_private_import_check_sees_relative_imports_only():
    tree = ast.parse("from .oracle import row_norms, _hidden\n"
                     "from . import _module\n"
                     "from numpy import _private\n")
    assert _private_imports(tree) == [(1, "_hidden"), (2, "_module")]


def _call_sites(name: str) -> list:
    """``module.function`` of each top-level definition of the package
    that calls ``name(``, once per call."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            sites += [f"{path.stem}.{getattr(top, 'name', top.lineno)}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      == name]
    return sites


def test_problem_spec_has_one_builder():
    # every instance, builtin or file, gets its constants and optimum from
    # the one function that calls ``ProblemSpec(``
    sites = _call_sites("ProblemSpec")
    assert sites == ["problems._build_instance"], sites


def test_solver_abort_has_one_site():
    # a failed step or check raises its row's fault, and the block's loop
    # alone labels it with k, the seed and N
    sites = _call_sites("SolverAbort")
    assert sites == ["solver._run_block"], sites


def test_solver_reads_no_polyhedron_rows():
    # the solver asks the constraints of the spec's family, and X of the
    # geometry's oracles: no ``.A`` or ``.b`` is read in it
    path = SRC / "solver.py"
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Attribute) and node.attr in ("A", "b")]
    assert not reads, reads


def _unread_parameters(tree) -> list:
    """(name, line, parameter) of each function, method or lambda in
    ``tree`` whose body never reads that parameter, except the factory
    lambdas of a ``BUILTINS`` dict, whose (n, m, seed) signature is fixed."""
    exempt = {id(node) for top in ast.walk(tree) if isinstance(top, ast.Assign)
              and [getattr(t, "id", None) for t in top.targets] == ["BUILTINS"]
              for node in ast.walk(top.value) if isinstance(node, ast.Lambda)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) \
                or id(node) in exempt:
            continue
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        # an augmented assignment reads its target before it stores it
        read = {name.id for stmt in body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and not isinstance(name.ctx, ast.Store)}
        read |= {aug.target.id for stmt in body for aug in ast.walk(stmt)
                 if isinstance(aug, ast.AugAssign) and isinstance(aug.target, ast.Name)}
        unread += [(getattr(node, "name", "<lambda>"), node.lineno, param)
                   for param in params if param not in read]
    return unread


def test_every_parameter_is_read():
    # a function takes only what it reads: a value it can derive, or never
    # uses, is plumbing
    unread = [f"{path.stem}.{name}:{line} {param}"
              for path in sorted(SRC.glob("*.py"))
              for name, line, param in _unread_parameters(
                  ast.parse(path.read_text(), filename=str(path)))]
    assert not unread, unread


def test_unread_parameter_check_sees_what_it_exempts():
    tree = ast.parse("BUILTINS = {'a': lambda n, m, seed: f(n)}\n"
                     "OTHER = {'a': lambda n, m, seed: f(n)}\n"
                     "def g(self, x, y, *rest, z=0, **more):\n"
                     "    x += 1\n"
                     "    def h(w):\n"
                     "        return self, w, more\n"
                     "    return h\n")
    assert sorted(_unread_parameters(tree)) == [
        ("<lambda>", 2, "m"), ("<lambda>", 2, "seed"),
        ("g", 3, "rest"), ("g", 3, "y"), ("g", 3, "z")]
