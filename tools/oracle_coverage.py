"""Lines of ``src/diracfock`` that no bundled scenario reaches.

Runs every bundled scenario through ``cli.main`` into a temporary directory
under a ``sys.settrace`` line trace of the package's own frames, then prints
each executable line of ``src/diracfock/*.py`` that no run reached, as
``path:line: source``.  Import-time lines are left out: the package is
imported under the same trace first, and every line that runs then (module
and class bodies, ``def`` lines, functions called at import) counts as
reached.  Unreached lines that belong to a ``raise`` statement are listed
apart, after the others, since they are error branches whose oracle is a
test of the error, not a bundled report.  Standard library and numpy only:

    python3 tools/oracle_coverage.py

Exits 0; the listing is a measurement, not a gate.
"""

import ast
import contextlib
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


def raise_lines(path: Path) -> set[int]:
    """Lines that belong to a raise statement."""
    tree = ast.parse(path.read_text())
    return {n for node in ast.walk(tree) if isinstance(node, ast.Raise)
            for n in range(node.lineno, node.end_lineno + 1)}


def main() -> int:
    sys.settrace(_trace)
    try:
        from diracfock import cli
        from diracfock.scenarios import scenario_names
    finally:
        sys.settrace(None)

    names = scenario_names()
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                sys.settrace(_trace)
                try:
                    code = cli.main(["run", name, "--out", str(Path(tmp, name))])
                finally:
                    sys.settrace(None)
            print(f"# {name}: exit {code}")
    traced = time.perf_counter() - started

    other, raises = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        done = {line for f, line in reached if f == str(path)}
        missed = sorted(executable_lines(path) - done)
        in_raise = raise_lines(path)
        rel = path.relative_to(SRC.parent)
        for line in missed:
            (raises if line in in_raise else other).append(f"{rel}:{line}: {text[line - 1].strip()}")
    print(f"# {len(names)} scenarios traced in {traced:.1f} s; import-time lines left out")
    print(f"# unreached lines: {len(other)}")
    print("\n".join(other))
    print(f"# unreached lines of raise statements: {len(raises)}")
    print("\n".join(raises))
    return 0


if __name__ == "__main__":
    sys.exit(main())
