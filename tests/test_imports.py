import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).parents[1] / "src" / "invdisc"


def test_library_imports_only_the_standard_library():
    # the package has no runtime dependency: every import and absolute
    # from-import, at module level or inside a function, names a module of
    # the standard library or invdisc itself, never a test-only package
    where = {}  # top-level module -> "file:line" of each import of it
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                where.setdefault(name.partition(".")[0], []).append(f"{path.name}:{node.lineno}")
    outside = {name: lines for name, lines in where.items()
               if name not in sys.stdlib_module_names and name != "invdisc"}
    assert outside == {}
    # the walk reaches function bodies: cli imports decimal inside one
    assert "decimal" in where and "math" in where
