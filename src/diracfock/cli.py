"""Scenario runner: load a config, run the selected suites, write reports.

Exit codes: 0 all selected checks pass, 1 at least one check fails,
2 configuration problem or unwritable output, 3 numerical instability
during evolution.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, ScenarioConfig, load_config, parse_config
from .constants import PhysicalConstants
from .dynamics import EvolutionUnstableError
from .report import CheckResult, render_jsonl, render_text
from .scenarios import BUNDLED, scenario_names
from .suites import SUITES


def resolve_config(arg: str) -> ScenarioConfig:
    if os.path.exists(arg):
        return load_config(arg)
    if arg in BUNDLED:
        return parse_config(BUNDLED[arg])
    raise ConfigError(
        "%r is neither a readable config file nor a bundled scenario (use --list-scenarios)" % arg
    )


def run_scenario(cfg: ScenarioConfig) -> tuple[list[CheckResult], dict[str, str]]:
    if cfg.units == "natural":
        constants = PhysicalConstants.natural_units(mass=cfg.mass)
    else:
        constants = PhysicalConstants.cgs(mass=cfg.mass)

    results: list[CheckResult] = []
    artifacts: dict[str, str] = {}
    for name in cfg.suites:
        suite_results, suite_artifacts = SUITES[name](cfg, constants)
        results.extend(suite_results)
        artifacts.update(suite_artifacts)
    return results, artifacts


def write_outputs(cfg: ScenarioConfig, results: list[CheckResult], artifacts: dict[str, str]) -> str:
    header = [
        ("scenario", cfg.name),
        ("units", cfg.units),
        ("seed", str(cfg.seed)),
        ("suites", " ".join(cfg.suites)),
    ]
    text = render_text(header, results)
    os.makedirs(cfg.out_dir, exist_ok=True)
    with open(os.path.join(cfg.out_dir, "report.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(os.path.join(cfg.out_dir, "checks.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(render_jsonl(results))
    for name, content in sorted(artifacts.items()):
        with open(os.path.join(cfg.out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(content)
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracfock",
        description="Run verification scenarios for the spinor field library.",
    )
    parser.add_argument(
        "--list-scenarios", action="store_true", help="list bundled scenario names and exit"
    )
    sub = parser.add_subparsers(dest="command")
    run = sub.add_parser("run", help="run a scenario from a config file or bundled name")
    run.add_argument("config", help="path to a config file, or a bundled scenario name")
    run.add_argument("--suite", help="comma-separated suite subset overriding the config")
    run.add_argument("--out", help="output directory overriding the config")
    run.add_argument("--seed", type=int, help="RNG seed overriding the config")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios:
        for name in scenario_names():
            print(name)
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = resolve_config(args.config)
        suites = None
        if args.suite is not None:
            suites = tuple(p for p in args.suite.replace(",", " ").split() if p)
        cfg = cfg.with_overrides(suites=suites, out_dir=args.out, seed=args.seed)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    try:
        results, artifacts = run_scenario(cfg)
    except EvolutionUnstableError as exc:
        print("instability: %s" % exc, file=sys.stderr)
        return 3

    try:
        text = write_outputs(cfg, results, artifacts)
    except OSError as exc:
        print("output error: %s" % exc, file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return 0 if all(r.passed for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
