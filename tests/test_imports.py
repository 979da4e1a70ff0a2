import ast
import os
import subprocess
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


GUARD = """
import functools  # its first import evals a namedtuple, in any program that loads it
import sys
compiled = []
sys.addaudithook(lambda event, args: compiled.append(args[:2]) if event == "compile" else None)
import invdisc, invdisc.cli
# exec and eval of a str compile it as '<string>'; a module's source compiles from its file
print([(type(s).__name__, f) for s, f in compiled if isinstance(s, str) or f == "<string>"])
print(sorted({"dataclasses", "inspect", "typing", "pathlib"} & set(sys.modules)))
"""


def test_importing_the_package_generates_no_code():
    # -S: without site, which may import any of these itself; the import
    # generates and execs no code, and loads no module it does not use
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", GUARD], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.splitlines() == ["[]", "[]"]
