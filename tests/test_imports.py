"""Every name a module under src/ or tests/ imports is read in that module."""

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
