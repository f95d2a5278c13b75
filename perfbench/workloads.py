"""The benchmark's workloads and the checks on their outputs.

A workload is a list of operations; one pass runs each of them once.  An
operation is either one CLI run (`diracfock run <config>`, in process) or one
library call.  `call` is the timed part and goes through module attributes,
so that the traced run sees it; `check` verifies what `call` produced and
uses the original functions, so that checking adds no spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from typing import NamedTuple

import numpy as np
from diracfock import cli, dynamics, geometry
from diracfock.config import DEFAULT_TOLERANCES
from diracfock.constants import PhysicalConstants
from diracfock.scenarios import BUNDLED

_grid_norm = dynamics.grid_norm  # captured before any wrapping


class Outcome(NamedTuple):
    """Verdict of one operation plus the bytes it wrote, by file name."""

    ok: bool
    detail: str
    outputs: dict[str, bytes]


def read_outputs(out_dir: str) -> dict[str, bytes]:
    if not os.path.isdir(out_dir):
        return {}
    outputs = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            outputs[name] = fh.read()
    return outputs


class CliRun:
    """`diracfock run <config> --out <dir> --seed <seed>` through `cli.main`."""

    def __init__(self, label: str, config: str, expect_exit: int = 0):
        self.label = label
        self.config = config
        self.expect_exit = expect_exit

    def prepare(self) -> None:
        cli.resolve_config(self.config)

    def call(self, seed: int, out_dir: str):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", self.config, "--out", out_dir, "--seed", str(seed)])
        return code, err.getvalue()

    def check(self, raw, out_dir: str) -> Outcome:
        code, err = raw
        outputs = read_outputs(out_dir)
        if code != self.expect_exit:
            return Outcome(False, "exit %r, expected %d: %s" % (code, self.expect_exit, err.strip()), outputs)
        if "Traceback" in err:
            return Outcome(False, "traceback on stderr", outputs)
        if self.expect_exit == 3:
            ok = err.startswith("instability:")
            return Outcome(ok, "" if ok else "exit 3 without an instability message", outputs)
        rows = [json.loads(line) for line in outputs.get("checks.jsonl", b"").decode().splitlines()]
        failed = ["%s.%s" % (r["suite"], r["check"]) for r in rows if not r["passed"]]
        if not rows or failed:
            return Outcome(False, "failed rows: %s" % (failed or "no rows"), outputs)
        tail = "passed %d of %d checks" % (len(rows), len(rows))
        if tail not in outputs.get("report.txt", b"").decode():
            return Outcome(False, "report.txt lacks %r" % tail, outputs)
        return Outcome(True, "", outputs)


def plane_wave_choice(seed: int) -> tuple[tuple[int, int, int], int, int]:
    """A two-axis unit harmonic (|k| = sqrt 2 box harmonics), spin and branch.

    All 48 choices have the same |k|, so the seed varies the input without
    changing how hard it is.
    """
    rng = random.Random(seed)
    zero_axis = rng.randrange(3)
    k_index = tuple(0 if ax == zero_axis else rng.choice((1, -1)) for ax in range(3))
    return k_index, rng.choice((0, 1)), rng.choice((1, -1))


class PlaneWave3D:
    """Library-level RK4 of a plane wave on a flat 32^3 periodic box.

    The result must meet the default bounds against the analytic wave:
    `evolution_error` and `norm_drift`.
    """

    label = "plane_wave_32"
    shape = (32, 32, 32)
    steps = 20
    t_span = 0.2  # dt = 0.01

    def __init__(self, seed: int):
        self.k_index, self.spin, self.branch = plane_wave_choice(seed)

    def prepare(self) -> None:
        pass

    def call(self, seed: int, out_dir: str):
        k = PhysicalConstants.natural_units()
        lengths = (2.0 * math.pi,) * 3
        chart = geometry.minkowski_chart(0.0, self.t_span, self.steps, lengths, self.shape)
        bg = geometry.build_background(chart)
        exact = dynamics.plane_wave(chart, self.k_index, k, spin=self.spin, branch=self.branch)
        return chart, exact, dynamics.evolve(exact.values[0], bg, k)

    def check(self, raw, out_dir: str) -> Outcome:
        chart, exact, out = raw
        err = float(np.max(np.abs(out.values - exact.values)))
        norms = [_grid_norm(v, chart) for v in out.values]
        drift = max(abs(n - norms[0]) for n in norms)
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "plane_wave.txt"), "w", encoding="utf-8") as fh:
            fh.write("k_index %s spin %d branch %d\n" % (self.k_index, self.spin, self.branch))
            fh.write("evolution_error %.17e\nnorm_drift %.17e\n" % (err, drift))
        problems = []
        if not err <= DEFAULT_TOLERANCES["evolution_error"]:
            problems.append("evolution_error %.3e" % err)
        if not drift <= DEFAULT_TOLERANCES["norm_drift"]:
            problems.append("norm_drift %.3e" % drift)
        return Outcome(not problems, ", ".join(problems), read_outputs(out_dir))


def boosted_config(seed: int) -> str:
    """`flat_boosted_wave` with its time axis cut to a tenth.

    The grid, the mode and dt stay as bundled, so every code path and check
    is the same.  The full scenario is one 25-40 s sample per run and too
    unsteady on a shared host; the cut one gives several passes per run.
    """
    text = BUNDLED["flat_boosted_wave"]
    for old, new in (
        ("name = flat_boosted_wave", "name = flat_boosted_wave_100"),
        ("seed = 20260819", "seed = %d" % seed),
        ("t_span = 5.0", "t_span = 0.5"),
        ("steps = 1000", "steps = 100"),
    ):
        if old not in text:
            raise ValueError("bundled flat_boosted_wave no longer has %r" % old)
        text = text.replace(old, new)
    return text


def connection_config(seed: int) -> str:
    return (
        "[scenario]\nname = grid3d_connection\nunits = natural\nseed = %d\nsuites = connection\n\n"
        "[chart]\nfamily = static-diagonal\nt_span = 1.0\nsteps = 2\n"
        "lengths = %r %r %r\nshape = 16 16 16\nepsilon = 0.01\nprofile = sin\n"
        % ((seed,) + (2.0 * math.pi,) * 3)
    )


def fock_config(seed: int) -> str:
    return "[scenario]\nname = fock_m8\nunits = natural\nseed = %d\nfock_modes = 8\nsuites = fock\n" % seed


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def build(workload: str, seed: int, config_dir: str) -> list:
    """The operations of one pass; generated configs are written to config_dir."""
    if workload == "boosted_wave":
        path = _write(os.path.join(config_dir, "flat_boosted_wave_100.ini"), boosted_config(seed))
        return [CliRun("flat_boosted_wave_100", path)]
    if workload == "packet_pairing":
        return [CliRun("flat_pairing", "flat_pairing")]
    if workload == "grid3d":
        path = _write(os.path.join(config_dir, "grid3d_connection.ini"), connection_config(seed))
        return [CliRun("grid3d_connection", path), PlaneWave3D(seed)]
    if workload == "short_scenarios":
        path = _write(os.path.join(config_dir, "fock_m8.ini"), fock_config(seed))
        return [
            CliRun("flat_identities", "flat_identities"),
            CliRun("cgs_identities", "cgs_identities"),
            CliRun("fock_m6", "fock_m6"),
            CliRun("static_diagonal_connection", "static_diagonal_connection"),
            CliRun("fock_m8", path),
            CliRun("unstable_dt", "unstable_dt", expect_exit=3),
        ]
    raise KeyError(workload)


WORKLOADS = ("boosted_wave", "packet_pairing", "grid3d", "short_scenarios")
