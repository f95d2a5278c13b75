"""Command line behavior: exit codes, outputs, and determinism."""

import json
import os

import pytest

from diracfock import scenario_names
from diracfock.cli import main


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
