"""numpy is the package's only runtime dependency, and the package's
modules import one another in one direction only."""

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
