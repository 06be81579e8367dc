"""Every name a module under src/ or tests/ imports is read in that module,
every top-level function and class under src/ is read somewhere in src/,
the oracle-scale limit is raised in one place and checked only at the dense
oracles' entry points, and no training-path module imports oracles."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source):
    """Names that source imports and never reads, sorted; `from __future__
    import ...` is exempt, and `import a.b` binds (and must read) `a`."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def dead_definitions(sources):
    """"path:name" of each top-level function or class in sources, a
    {path: source text} map, that no source reads by name (a loaded
    ast.Name or an ast.Attribute), sorted."""
    trees = {path: ast.parse(source) for path, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(f"{path}:{node.name}" for path, tree in trees.items() for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in read)


def test_unused_import_scan_flags_dead_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\nfrom a import b as c, d\n"
              "js.dumps(d)\n")
    assert unused_imports(source) == ["c", "os"]


def test_src_and_tests_import_no_unused_names():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    unused = {str(path.relative_to(ROOT)): names for path in files
              if (names := unused_imports(path.read_text(encoding="utf-8")))}
    assert unused == {}


def test_dead_definition_scan_flags_unread_top_level_names():
    sources = {"a.py": ("def called():\n    def inner(): pass\n"
                        "def dead(): pass\nclass Used: pass\nclass Patched: pass\n"),
               "b.py": "import a\na.called()\nx = Used\ndead = 1\nPatched.attr = 2\n"}
    assert dead_definitions(sources) == ["a.py:dead"]


def test_src_defines_no_unread_function_or_class():
    files = sorted((ROOT / "src").rglob("*.py"))
    assert dead_definitions({str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
                             for path in files}) == []


def functions_where(tree, test):
    """Names of the innermost functions of tree that hold a node passing test."""
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                visit(child, child.name)
            else:
                if test(child):
                    found.add(where)
                visit(child, where)

    visit(tree, "<module>")
    return found


def _calls(name):
    def test(node):
        func = getattr(node, "func", None)
        return isinstance(node, ast.Call) and name in (getattr(func, "id", None),
                                                        getattr(func, "attr", None))
    return test


def test_oracle_scale_is_raised_once_and_checked_only_at_dense_oracles():
    raises, checks = set(), set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        raising = _calls("OracleScaleError")
        raises |= {f"{path.name}:{f}" for f in functions_where(
            tree, lambda n: isinstance(n, ast.Raise) and n.exc is not None and raising(n.exc))}
        checks |= {f"{path.name}:{f}" for f in functions_where(
            tree, _calls("require_oracle_scale"))}
    assert raises == {"numkit.py:require_oracle_scale"}
    assert checks == {"diffnet.py:per_example_jacobian", "oracles.py:loss_hessian_fd",
                      "oracles.py:exact_ppm_solve", "kronprecond.py:dense_precond"}


TRAINING_PATH = ("apo.py", "baseopt.py", "diffnet.py", "kronprecond.py", "tasks.py",
                 "harness/runner.py")


def imports_oracles(source):
    """Line numbers of every import of the oracles module in source, at top
    level or inside a function: `import apobench.oracles`, `from .oracles
    import x` at any depth, and `from . import oracles`."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Import)
                  and any("oracles" in a.name.split(".") for a in node.names)
                  or isinstance(node, ast.ImportFrom)
                  and ("oracles" in (node.module or "").split(".")
                       or any(a.name == "oracles" for a in node.names)))


def test_oracles_import_scan_finds_every_form():
    source = ("import apobench.oracles\nfrom .oracles import kfac_blocks\n"
              "def f():\n    from .. import oracles\n    from apobench.oracles import x\n"
              "from .baseopt import oracles_free\nimport oraclesque\n")
    assert imports_oracles(source) == [1, 2, 4, 5]


def test_training_path_never_imports_oracles():
    pkg = ROOT / "src" / "apobench"
    assert {name: lines for name in TRAINING_PATH
            if (lines := imports_oracles((pkg / name).read_text(encoding="utf-8")))} == {}
