"""Lines of ``src/diracfock`` that no bundled scenario reaches.

Runs every bundled scenario through ``cli.main`` into a temporary directory
under a ``sys.settrace`` line trace of the package's own frames, then prints
each executable line of ``src/diracfock/*.py`` that no run reached, as
``path:line: source``.  Import-time lines are left out: the package is
imported under the same trace first, and every line that runs then (module
and class bodies, ``def`` lines, functions called at import) counts as
reached.  Unreached lines of error branches are listed apart, after the
others, since their oracle is a test of the error, not a bundled report: the
lines of a ``raise`` statement, and the header and body of an ``except``
handler whose body only raises, or only prints to ``sys.stderr`` and returns
exit code 2 or 3.  Standard library and numpy only:

    python3 tools/oracle_coverage.py

Exits 0; the listing is a measurement, not a gate.  ``unreached(configs)``
traces any list of bundled scenario names or config paths and returns the
lines; ``tests/test_oracle_reach.py`` pins its list for the fast scenarios.
"""

import ast
import contextlib
import importlib
import io
import sys
import tempfile
import time
from pathlib import Path

import numpy  # noqa: F401  (imported before the trace starts, so its import is not traced)

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "diracfock"
sys.path.insert(0, str(SRC))

reached: set[tuple[str, int]] = set()


def _trace(frame, event, arg):
    """Global tracer: follow only the package's frames, recording their lines."""
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    return local


def _traced(fn, *args):
    """fn(*args) under the line trace."""
    sys.settrace(_trace)
    try:
        return fn(*args)
    finally:
        sys.settrace(None)


def executable_lines(path: Path) -> set[int]:
    """Line numbers that can raise a trace 'line' event: the line starts of
    the module's code object and of every code object nested in it."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _reports(body: list[ast.stmt]) -> bool:
    """An except body that only raises, or prints to sys.stderr and returns 2 or 3."""
    if all(isinstance(stmt, ast.Raise) for stmt in body):
        return True
    if len(body) != 2 or not isinstance(body[0], ast.Expr) or not isinstance(body[1], ast.Return):
        return False
    call, ret = body[0].value, body[1].value
    return (
        isinstance(call, ast.Call) and ast.unparse(call.func) == "print"
        and any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in call.keywords)
        and isinstance(ret, ast.Constant) and ret.value in (2, 3)
    )


def error_lines(path: Path) -> set[int]:
    """Lines of a raise statement, or of an except handler that only raises or reports."""
    tree = ast.parse(path.read_text())
    return {n for node in ast.walk(tree)
            if isinstance(node, ast.Raise) or (isinstance(node, ast.ExceptHandler) and _reports(node.body))
            for n in range(node.lineno, node.end_lineno + 1)}


def scopes(path: Path) -> dict[int, str]:
    """Line -> qualified name of the innermost function or class around it ("" at module level)."""
    out: dict[int, str] = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            name = prefix
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                out.update(dict.fromkeys(range(child.lineno, child.end_lineno + 1), name))
                name += "."
            visit(child, name)

    visit(ast.parse(path.read_text()), "")
    return out


def unreached(configs: list[str]) -> tuple[list[tuple[str, int]], float, list[tuple[str, int, str, str, bool]]]:
    """Run ``diracfock run <config>`` for each bundled scenario name or config path
    under the line trace.  Returns (config, exit code) pairs, the seconds traced and
    every unreached line as (path, line, enclosing function, stripped source, in an
    error branch).  Import-time lines count as reached only if the package was
    first imported under the trace, so call it where nothing has imported it yet."""
    cli = _traced(importlib.import_module, "diracfock.cli")
    exits = []
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(configs):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = _traced(cli.main, ["run", config, "--out", str(Path(tmp, str(i)))])
            exits.append((config, code))
    traced = time.perf_counter() - started

    lines = []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        done = {line for f, line in reached if f == str(path)}
        in_error, scope = error_lines(path), scopes(path)
        rel = str(path.relative_to(SRC.parent))
        for line in sorted(executable_lines(path) - done):
            lines.append((rel, line, scope.get(line, ""), text[line - 1].strip(), line in in_error))
    return exits, traced, lines


def main() -> int:
    exits, traced, lines = unreached(_traced(importlib.import_module, "diracfock.scenarios").scenario_names())
    for name, code in exits:
        print(f"# {name}: exit {code}")
    other = [f"{rel}:{line}: {src}" for rel, line, _, src, in_error in lines if not in_error]
    errors = [f"{rel}:{line}: {src}" for rel, line, _, src, in_error in lines if in_error]
    print(f"# {len(exits)} scenarios traced in {traced:.1f} s; import-time lines left out")
    print(f"# unreached lines: {len(other)}")
    print("\n".join(other))
    print(f"# unreached lines of error branches: {len(errors)}")
    print("\n".join(errors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
