"""Command line behavior: exit codes, outputs, and determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracfock
from diracfock import (
    ChartError,
    CurrentRealityError,
    GridMismatchError,
    NotSpacelikeError,
    RankDeficientModeError,
    scenario_names,
)
from diracfock.cli import main
from diracfock.suites import SUITES


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_list_scenarios(capsys):
    assert main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == list(scenario_names())


def test_no_command_prints_usage(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_run_bundled_identities(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "flat_identities", "--out", out_dir]) == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout
    assert "FAIL" not in stdout
    assert "flat_identities" in stdout

    report = read(os.path.join(out_dir, "report.txt"))
    assert report == stdout
    lines = [json.loads(l) for l in read(os.path.join(out_dir, "checks.jsonl")).splitlines()]
    assert lines
    for entry in lines:
        assert entry["passed"] is True
        assert entry["suite"] in ("identities", "current", "fock")
        assert set(entry) >= {"suite", "check", "value", "bound", "passed"}


def test_suite_subset_and_artifacts(tmp_path):
    out_dir = str(tmp_path / "out")
    assert main(["run", "flat_identities", "--suite", "fock", "--out", out_dir]) == 0
    lines = [json.loads(l) for l in read(os.path.join(out_dir, "checks.jsonl")).splitlines()]
    assert {entry["suite"] for entry in lines} == {"fock"}
    assert os.path.exists(os.path.join(out_dir, "fock_vector.txt"))


def test_seed_override_lands_in_the_header(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "flat_identities", "--suite", "fock", "--seed", "123", "--out", out_dir]) == 0
    header = capsys.readouterr().out.splitlines()[:6]
    assert any("seed" in line and "123" in line for line in header)


def test_unknown_scenario_is_a_config_error(tmp_path, capsys):
    assert main(["run", "no_such_scenario", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_file_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nmass = banana\n")
    assert main(["run", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_bad_suite_flag_is_a_config_error(tmp_path, capsys):
    assert main(["run", "flat_identities", "--suite", "bogus", "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_unstable_evolution_exits_three(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    assert main(["run", "unstable_dt", "--out", out_dir]) == 3
    err = capsys.readouterr().err
    assert "instability" in err
    assert "evolution unstable" in err
    # aborted runs leave no report behind
    assert not os.path.exists(os.path.join(out_dir, "report.txt"))


OVERFLOW_CONFIG = """
[scenario]
suites = evolve
units = cgs
mass = 3.0
[chart]
t_span = 40
steps = 4
lengths = 2.0 6.283185307179586 1.0
shape = 8 1 1
[modes]
m1 = 0 0 0 0 -1
"""


def test_an_overflowing_march_exits_three_with_one_line(tmp_path):
    # The first step leaves the float range, so the norm check overflows; the
    # command line must print only the instability line, no RuntimeWarning.
    cfg = tmp_path / "overflow.ini"
    cfg.write_text(OVERFLOW_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(Path(diracfock.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "diracfock.cli", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == "instability: evolution unstable: norm ratio inf at step 1, x0 = 10\n"


def test_pairing_abort_names_the_first_failing_step(tmp_path, capsys):
    # flat_pairing at 40 steps (dt = 0.15) marches the packet and its four
    # modes together; the packet passes 10x its norm at the last step
    cfg = tmp_path / "pairing40.ini"
    cfg.write_text(diracfock.BUNDLED["flat_pairing"].replace("steps = 1200", "steps = 40"))
    out_dir = str(tmp_path / "out")
    assert main(["run", str(cfg), "--out", out_dir]) == 3
    err = capsys.readouterr().err
    assert err == "instability: evolution unstable: norm ratio 2.060e+01 at step 40, x0 = 6\n"
    assert not os.path.exists(os.path.join(out_dir, "report.txt"))


def test_failed_check_exits_one(tmp_path, capsys):
    cfg = tmp_path / "strict.ini"
    cfg.write_text(
        "[scenario]\n"
        "name = strict\n"
        "suites = current\n"
        "samples = 200\n"
        "[tolerances]\n"
        "closed_form = 1e-30\n"
    )
    out_dir = str(tmp_path / "out")
    assert main(["run", str(cfg), "--out", out_dir]) == 1
    stdout = capsys.readouterr().out
    assert "FAIL" in stdout
    report = read(os.path.join(out_dir, "report.txt"))
    assert "FAIL" in report


def test_evolve_checks_stationarity_against_the_action(tmp_path, capsys):
    # the stationarity row pairs random perturbations with the field-equation
    # residual; the Euler-Lagrange row checks one of them against a central
    # difference of action_value; the reality draws' thread ends with the run
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(
        "[scenario]\nname = tiny_evolve\nsuites = evolve\n"
        "[chart]\nt_span = 1.0\nsteps = 20\nshape = 8 1 1\n"
        "[modes]\nm1 = 0 0 0 0 +1\n"
    )
    out_dir = str(tmp_path / "out")
    threads = threading.active_count()
    assert main(["run", str(cfg), "--out", out_dir]) == 0
    assert threading.active_count() == threads
    capsys.readouterr()
    rows = {}
    for line in read(os.path.join(out_dir, "checks.jsonl")).splitlines():
        entry = json.loads(line)
        rows[entry["check"]] = entry
    for name in ("action_stationarity", "action_euler_lagrange"):
        assert rows[name]["suite"] == "evolve"
        assert rows[name]["passed"] is True


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    dirs = [str(tmp_path / d) for d in ("a", "b")]
    for d in dirs:
        assert main(["run", "fock_m6", "--out", d]) == 0
    capsys.readouterr()
    for name in ("report.txt", "checks.jsonl", "fock_vector.txt"):
        first = read(os.path.join(dirs[0], name))
        second = read(os.path.join(dirs[1], name))
        assert first == second, name


def test_config_file_and_bundled_name_agree(tmp_path, capsys):
    from diracfock import BUNDLED

    path = tmp_path / "copy.ini"
    path.write_text(BUNDLED["flat_identities"])
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["run", str(path), "--suite", "identities", "--out", out_a]) == 0
    assert main(["run", "flat_identities", "--suite", "identities", "--out", out_b]) == 0
    capsys.readouterr()
    assert read(os.path.join(out_a, "report.txt")) == read(os.path.join(out_b, "report.txt"))


CLI_PROBES = {
    "evolve_steps_3": "[scenario]\nsuites = evolve\n[chart]\nsteps = 3\n[modes]\nm1 = 0 0 0 0 +1\n",
    "lengths_inf": "[scenario]\nsuites = evolve\n[chart]\nlengths = inf 6.28 6.28\n[modes]\nm1 = 0 0 0 0 +1\n",
    "epsilon_nan": "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nepsilon = nan\n",
    "pairing_tilt_x2": (
        "[scenario]\nsuites = pairing\n[chart]\nshape = 8 8 1\n[modes]\nm1 = 0 0 0 0 +1\n[pairing]\ntilt = 0 0.2 0\n"
    ),
    "pairing_slice_past_t_span": (
        "[scenario]\nsuites = pairing\n[chart]\nshape = 16 1 1\nt_span = 0.5\nsteps = 10\n"
        "[modes]\nm1 = 0 0 0 0 +1\n"
    ),
    # g00 = 1 + eps x1 would go negative here, but the profile rule rejects it first
    "profile_linear": (
        "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nprofile = linear\n"
        "epsilon = 0.5\norigin = -10 0 0\nshape = 16 1 1\n"
    ),
    "sin_g00_negative": (
        "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nprofile = sin\n"
        "epsilon = 1.5\norigin = -10 0 0\nshape = 16 1 1\n"
    ),
    "pairing_duplicate_modes": (
        "[scenario]\nsuites = pairing\n[chart]\nshape = 64 1 1\nlengths = 12 6.283185307179586 6.283185307179586\n"
        "t_span = 2\nsteps = 20\n[modes]\nm1 = 1 0 0 0 +1\nm2 = 1 0 0 0 +1\n[pairing]\ntilt = 0.1 0 0\n"
    ),
    "pairing_packet_underflow": (
        "[scenario]\nsuites = pairing\n[chart]\nshape = 64 1 1\nlengths = 32 6.283185307179586 6.283185307179586\n"
        "[modes]\nm1 = 0 0 0 0 +1\n[pairing]\nwidth = 0.001\ncenter = 16.25\ntilt = 0 0 0\n"
    ),
    "evolve_t_start_1e15": "[scenario]\nsuites = evolve\n[chart]\nt_start = 1e15\n[modes]\nm1 = 0 0 0 0 +1\n",
    "evolve_t_start_1e300": "[scenario]\nsuites = evolve\n[chart]\nt_start = 1e300\n[modes]\nm1 = 0 0 0 0 +1\n",
    "evolve_origin_1e300": "[scenario]\nsuites = evolve\n[chart]\norigin = 1e300 0 0\n[modes]\nm1 = 0 0 0 0 +1\n",
    "pairing_origin_1e300": "[scenario]\nsuites = pairing\n[chart]\norigin = 1e300 0 0\n[modes]\nm1 = 0 0 0 0 +1\n",
    "pairing_t_start_1e17": "[scenario]\nsuites = pairing\n[chart]\nt_start = 1e17\n[modes]\nm1 = 0 0 0 0 +1\n",
    "ini_syntax_error": "[scenario]\nname = x\ngarbage\n",
    "out_is_a_file": None,
}


@pytest.mark.parametrize("probe", sorted(CLI_PROBES))
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, probe):
    text = CLI_PROBES[probe]
    if text is None:
        config = "flat_identities"
        out = tmp_path / "taken"
        out.write_text("")
    else:
        config = tmp_path / "probe.ini"
        config.write_text(text)
        out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith(("config error:", "output error:"))
    assert "Traceback" not in err


def test_non_utf8_config_file_exits_two_with_one_line(tmp_path, capsys):
    config = tmp_path / "latin1.ini"
    config.write_bytes("[scenario]\nname = caf\u00e9\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and "UTF-8" in err
    assert not out.exists()


def test_byte_order_mark_config_runs_like_plain_utf8(tmp_path, capsys):
    from diracfock import BUNDLED

    plain, marked = tmp_path / "plain.ini", tmp_path / "marked.ini"
    plain.write_text(BUNDLED["flat_identities"], encoding="utf-8")
    marked.write_text(BUNDLED["flat_identities"], encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    for path in (plain, marked):
        assert main(["run", str(path), "--suite", "identities", "--out", str(tmp_path / path.stem)]) == 0
    capsys.readouterr()
    assert read(str(tmp_path / "plain" / "report.txt")) == read(str(tmp_path / "marked" / "report.txt"))


def test_offset_time_axis_passes_every_check(tmp_path, capsys):
    # the evolve suite's march and its closed forms step by the nominal dt, not
    # by the difference of two nodes rounded near t = 1000
    config = tmp_path / "offset.ini"
    config.write_text("[scenario]\nsuites = evolve\n[chart]\nt_start = 1000\n[modes]\nm1 = 0 0 0 0 +1\n")
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    rows = [line for line in read(str(tmp_path / "out" / "report.txt")).splitlines() if line.startswith("[evolve]")]
    assert len(rows) == 7 and all(line.endswith("PASS") for line in rows)


def test_a_step_below_rounding_passes_every_evolve_row(tmp_path, capsys):
    # at dt = 2.5e-10 the march is its closed form to rounding; m1_max_divergence
    # reads 9.25e-8, the closest row to its bound, as d_0 J scales rounding by 1/dt
    config = tmp_path / "tiny.ini"
    config.write_text("[scenario]\nsuites = evolve\n[chart]\nt_span = 1e-9\nsteps = 4\n[modes]\nm1 = 0 0 0 0 +1\n")
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [line for line in read(str(tmp_path / "out" / "report.txt")).splitlines() if line.startswith("[evolve]")]
    assert len(rows) == 7 and all(line.endswith("PASS") for line in rows)


LIBRARY_ERRORS = [
    ChartError("g00 must stay positive on the chart\n  at x1 node 3"),
    GridMismatchError("field and background live on different grids"),
    NotSpacelikeError("induced metric is not negative definite"),
    RankDeficientModeError(2),
    CurrentRealityError("current reality violated: max imaginary part 1.000e-03"),
    NotImplementedError("slice times varying along x2/x3 are not supported"),
    MemoryError("Unable to allocate 58.2 TiB for an array with shape (1000000000000, 4) and data type complex128"),
]


@pytest.mark.parametrize("exc", LIBRARY_ERRORS, ids=lambda e: type(e).__name__)
def test_library_error_in_a_suite_exits_two_with_one_line(tmp_path, capsys, monkeypatch, exc):
    def fail(cfg, constants):
        raise exc

    monkeypatch.setitem(SUITES, "fock", fail)
    out = tmp_path / "out"
    assert main(["run", "flat_identities", "--suite", "fock", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: %s: %s\n" % (type(exc).__name__, " ".join(str(exc).split()))
    assert not out.exists()


def test_other_value_error_in_a_suite_is_not_a_config_problem(tmp_path, monkeypatch):
    # A plain ValueError is a bug in the library, not bad input: it keeps its traceback.
    def fail(cfg, constants):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setitem(SUITES, "fock", fail)
    with pytest.raises(ValueError, match="broadcast"):
        main(["run", "flat_identities", "--suite", "fock", "--out", str(tmp_path / "out")])


def test_repeated_suite_override_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "fock_m6", "--suite", "fock,fock", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error:") and "twice" in err
    assert not out.exists()


def test_module_entry_point_prints_one_config_error_line(tmp_path):
    # python -m diracfock.cli must not import the module twice (a runpy
    # warning line on stderr) before reporting the config error.
    env = dict(os.environ, PYTHONPATH=str(Path(diracfock.__file__).resolve().parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "diracfock.cli", "run", str(tmp_path / "missing.ini")],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("config error:")


MODES = st.tuples(st.sampled_from([1, 0, -2, 2]), st.integers(0, 1), st.sampled_from(["+1", "-1"]))


@st.composite
def tiny_runs(draw):
    """A config of one suite on a few nodes, steps, samples and Fock modes:
    valid, rejected at parse time, unstable or failing a check.  Charts are
    flat three times in four, curved three in four for the connection suite,
    which needs them; a curved evolve or pairing is rejected."""
    suite = draw(st.sampled_from(["pairing", "evolve"] * 2 + ["identities", "current", "connection", "fock"]))
    n1 = draw(st.sampled_from([8, 16, 8, 1, 4]))
    n2 = draw(st.sampled_from([1, 1, 1, 5, 4]))
    modes = draw(st.lists(MODES, min_size=1, max_size=5, unique=draw(st.booleans())))
    families = ["minkowski"] * 3 + ["static-diagonal"]
    lines = [
        "[scenario]",
        "suites = %s" % suite,
        "units = %s" % draw(st.sampled_from(["natural", "natural", "cgs"])),
        "mass = %r" % draw(st.sampled_from([1.0, 0.5, 3.0])),
        "growth_abort = %r" % draw(st.sampled_from([10.0, 1.5, 1.0001])),
        "samples = %d" % draw(st.sampled_from([64, 1, 64, 64, 64, 0])),
        "fock_modes = %d" % draw(st.sampled_from([2, 1, 4, 2, 1, 9])),
        "[chart]",
        "family = %s" % draw(st.sampled_from(families[::-1] if suite == "connection" else families)),
        "epsilon = %r" % draw(st.sampled_from([0.01, 0.3, 0.01, 2.0])),
        "profile = %s" % draw(st.sampled_from(["sin", "linear"])),
        "t_span = %r" % draw(st.sampled_from([0.05, 0.5, 1.0, 4.0, 40.0])),
        "steps = %d" % draw(st.sampled_from([6, 12, 4, 8, 3])),
        "lengths = %r 6.283185307179586 %r"
        % (draw(st.sampled_from([2.0, 6.283185307179586, 16.0])), draw(st.sampled_from([1.0, 6.3]))),
        "shape = %d %d 1" % (n1, n2),
        "[modes]",
    ] + ["m%d = %d 0 0 %d %s" % (i + 1, kx, spin, branch) for i, (kx, spin, branch) in enumerate(modes)]
    if suite == "pairing":
        lines += [
            "[pairing]",
            "carrier = %d" % draw(st.integers(0, 3)),
            "tilt = %r 0 %r"
            % (draw(st.sampled_from([0.0, 0.05, 0.15, 0.9])), draw(st.sampled_from([0.0, 0.0, 0.3]))),
        ]
        if draw(st.booleans()):
            lines.append("width = %r" % draw(st.sampled_from([1e-3, 0.3, 1.0, 50.0])))
    return "\n".join(lines) + "\n"


@settings(derandomize=True, deadline=None, max_examples=100)
@given(tiny_runs())
def test_tiny_pairing_and_evolve_runs_end_in_a_documented_exit_code(text):
    # Runs of every suite.  Warnings are recorded, not printed as under the
    # command line, so exits 2 and 3 assert one stderr line and no warning.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tiny.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = main(["run", path, "--out", os.path.join(tmp, "out")])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if code in (2, 3):
        assert len(err.getvalue().splitlines()) == 1 and not caught, [str(w.message) for w in caught]
