"""Digest of every bundled scenario's outputs, for byte-identity gates.

Runs each bundled scenario through ``cli.main`` into a temporary directory
and prints one ``scenario file sha256`` line per output file and for the
captured stderr, then one ``scenario exit <code>`` line.  Diff the output of
two checkouts to confirm that a refactor left every report unchanged:

    python3 tools/bundled_digest.py > digest.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diracfock import cli  # noqa: E402
from diracfock.scenarios import scenario_names  # noqa: E402


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenario_names():
            out = Path(tmp, name)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", name, "--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else []
            digests = [(f.name, hashlib.sha256(f.read_bytes())) for f in files]
            digests.append(("<stderr>", hashlib.sha256(err.getvalue().encode())))
            for fname, digest in digests:
                print(name, fname, digest.hexdigest())
            print(name, "exit", code)


if __name__ == "__main__":
    main()
