"""Deterministic report rendering for scenario runs.

All output is reproducible byte for byte: fixed float formatting, fixed
column widths, no timestamps, no environment-dependent content.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence


def format_value(value: float) -> str:
    """Fixed rendering; exact zeros print as 0.0e0 so exactness is visible."""
    if value == 0.0:
        return "0.0e0"
    return "%.10e" % value


@dataclass(frozen=True)
class CheckResult:
    """One named residual or property check with its bound and verdict."""

    suite: str
    name: str
    value: float
    bound: str
    passed: bool


def check_at_most(suite: str, name: str, value: float, tol: float) -> CheckResult:
    return CheckResult(suite, name, float(value), "<= " + format_value(tol), float(value) <= tol)


def check_at_least(suite: str, name: str, value: float, tol: float) -> CheckResult:
    return CheckResult(suite, name, float(value), ">= " + format_value(tol), float(value) >= tol)


def check_exact_zero(suite: str, name: str, value: float) -> CheckResult:
    return CheckResult(suite, name, float(value), "== 0", float(value) == 0.0)


def check_in(suite: str, name: str, value: float, lo: float, hi: float) -> CheckResult:
    bound = "in [%s, %s]" % (format_value(lo), format_value(hi))
    return CheckResult(suite, name, float(value), bound, lo <= float(value) <= hi)


def render_text(header: Sequence[tuple[str, str]], results: Sequence[CheckResult]) -> str:
    lines = []
    for key, val in header:
        lines.append("%s: %s" % (key, val))
    if header:
        lines.append("")
    for r in results:
        lines.append(
            "%-13s %-40s %18s  %-24s %s"
            % ("[%s]" % r.suite, r.name, format_value(r.value), r.bound, "PASS" if r.passed else "FAIL")
        )
    npass = sum(1 for r in results if r.passed)
    lines.append("")
    lines.append("passed %d of %d checks" % (npass, len(results)))
    lines.append("")
    return "\n".join(lines)


def render_jsonl(results: Sequence[CheckResult]) -> str:
    lines = []
    for r in results:
        lines.append(
            json.dumps(
                {
                    "suite": r.suite,
                    "check": r.name,
                    "value": format_value(r.value),
                    "bound": r.bound,
                    "passed": r.passed,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def render_series(rows: Iterable[tuple[int, float, float, float, float]]) -> str:
    """Comma-separated evolution records: step, time, norm, flux, max |div J|."""
    lines = ["step,time,norm,flux,max_div_j"]
    for step, time, norm, flx, mdj in rows:
        lines.append(
            "%d,%s,%s,%s,%s"
            % (step, format_value(time), format_value(norm), format_value(flx), format_value(mdj))
        )
    return "\n".join(lines) + "\n"
