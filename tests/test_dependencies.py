"""numpy is the package's only runtime dependency, the package's modules
import one another in one direction only, and every function reads every
parameter it takes."""

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


def test_problem_spec_has_one_builder():
    # every instance, builtin or file, gets its constants and optimum from
    # the one function that calls ``ProblemSpec(``
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            sites += [f"{path.stem}.{getattr(top, 'name', top.lineno)}"
                      for node in ast.walk(top) if isinstance(node, ast.Call)
                      and getattr(node.func, "id", getattr(node.func, "attr", None))
                      == "ProblemSpec"]
    assert sites == ["problems._build_instance"], sites


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
