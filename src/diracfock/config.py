"""Scenario configuration: a flat key-value text format with sections.

The grammar is INI as accepted by the standard library parser, restricted
to the sections and keys documented in the README.  Unknown sections or
keys are rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .geometry import FAMILIES, PROFILES, MetricChart, minkowski_chart, static_diagonal_chart

SUITE_NAMES = ("identities", "connection", "evolve", "current", "pairing", "fock")

DEFAULT_TOLERANCES: dict[str, float] = {
    "evolution_error": 1e-6,
    "ratio_low": 12.0,
    "ratio_high": 20.0,
    "norm_drift": 1e-8,
    "divergence": 1e-6,
    "hermiticity": 1e-12,
    "slice_independence": 1e-6,
    "gram_drift": 1e-8,
    "orthonormality": 1e-12,
    "timelike_floor": 1e-12,
    "closed_form": 1e-12,
    "current_reality": 1e-13,
    "action_reality": 1e-10,
    "stationarity": 1e-6,
    "connection_floor": 1e-14,
    "connection_residual": 1e-6,
    "gram_determinant": 1e-12,
    "flux_normalization": 1e-12,
}


class ConfigError(ValueError):
    """Raised for unreadable, malformed, or invalid configurations."""


@dataclass(frozen=True)
class Mode:
    """Plane-wave label: integer box harmonics plus spin and branch."""

    k_index: tuple[int, int, int]
    spin: int
    branch: int


@dataclass(frozen=True)
class ScenarioConfig:
    name: str = "unnamed"
    units: str = "natural"
    mass: float = 1.0
    seed: int = 0
    samples: int = 100000
    fock_modes: int = 6
    growth_abort: float = 10.0
    suites: tuple[str, ...] = ("identities", "current", "fock")
    out_dir: str = "out"

    family: str = "minkowski"
    t_start: float = 0.0
    t_span: float = 1.0
    steps: int = 100
    lengths: tuple[float, float, float] = (2.0 * math.pi,) * 3
    shape: tuple[int, int, int] = (64, 1, 1)
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)
    epsilon: float = 0.0
    profile: str = "sin"

    modes: tuple[Mode, ...] = ()

    packet_center: float | None = None
    packet_width: float | None = None
    packet_carrier: int = 2
    tilt: tuple[float, float, float] = (0.15, 0.0, 0.0)

    tolerances: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def tol(self, key: str) -> float:
        return self.tolerances[key]

    def build_chart(self) -> MetricChart:
        if self.family == "minkowski":
            return minkowski_chart(
                self.t_start, self.t_span, self.steps, self.lengths, self.shape, self.origin
            )
        return static_diagonal_chart(
            self.t_start,
            self.t_span,
            self.steps,
            self.lengths,
            self.shape,
            epsilon=self.epsilon,
            profile=self.profile,
            origin=self.origin,
        )

    def with_overrides(
        self,
        suites: tuple[str, ...] | None = None,
        out_dir: str | None = None,
        seed: int | None = None,
    ) -> "ScenarioConfig":
        cfg = self
        if suites is not None:
            cfg = replace(cfg, suites=suites)
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
        if seed is not None:
            cfg = replace(cfg, seed=seed)
        return validate(cfg)


_KNOWN_KEYS = {
    "scenario": {
        "name", "units", "mass", "seed", "samples", "fock_modes",
        "growth_abort", "suites", "out",
    },
    "chart": {
        "family", "t_start", "t_span", "steps", "lengths", "shape",
        "origin", "epsilon", "profile",
    },
    "pairing": {"center", "width", "carrier", "tilt"},
    "tolerances": set(DEFAULT_TOLERANCES),
}


def _floats(text: str, n: int, what: str) -> tuple[float, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError("%s needs %d numbers, got %r" % (what, n, text))
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (what, exc)) from exc


def _ints(text: str, n: int, what: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if len(parts) != n:
        raise ConfigError("%s needs %d integers, got %r" % (what, n, text))
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (what, exc)) from exc


def _scalar(section, key: str, cast, default, what: str):
    if key not in section:
        return default
    try:
        return cast(section[key])
    except ValueError as exc:
        raise ConfigError("%s: %s" % (what, exc)) from exc


def parse_config(text: str) -> ScenarioConfig:
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError("parse failure: %s" % exc) from exc

    for section in parser.sections():
        if section == "modes":
            continue
        if section not in _KNOWN_KEYS:
            raise ConfigError("unknown section [%s]" % section)
        for key in parser[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ConfigError("unknown key %r in [%s]" % (key, section))

    cfg = ScenarioConfig()
    if parser.has_section("scenario"):
        s = parser["scenario"]
        suites = cfg.suites
        if "suites" in s:
            suites = tuple(s["suites"].replace(",", " ").split())
        cfg = replace(
            cfg,
            name=s.get("name", cfg.name),
            units=s.get("units", cfg.units),
            mass=_scalar(s, "mass", float, cfg.mass, "mass"),
            seed=_scalar(s, "seed", int, cfg.seed, "seed"),
            samples=_scalar(s, "samples", int, cfg.samples, "samples"),
            fock_modes=_scalar(s, "fock_modes", int, cfg.fock_modes, "fock_modes"),
            growth_abort=_scalar(s, "growth_abort", float, cfg.growth_abort, "growth_abort"),
            suites=suites,
            out_dir=s.get("out", cfg.out_dir),
        )

    if parser.has_section("chart"):
        c = parser["chart"]
        cfg = replace(
            cfg,
            family=c.get("family", cfg.family),
            t_start=_scalar(c, "t_start", float, cfg.t_start, "t_start"),
            t_span=_scalar(c, "t_span", float, cfg.t_span, "t_span"),
            steps=_scalar(c, "steps", int, cfg.steps, "steps"),
            lengths=_floats(c["lengths"], 3, "lengths") if "lengths" in c else cfg.lengths,
            shape=_ints(c["shape"], 3, "shape") if "shape" in c else cfg.shape,
            origin=_floats(c["origin"], 3, "origin") if "origin" in c else cfg.origin,
            epsilon=_scalar(c, "epsilon", float, cfg.epsilon, "epsilon"),
            profile=c.get("profile", cfg.profile),
        )

    if parser.has_section("modes"):
        modes = []
        for key in sorted(parser["modes"], key=_mode_key_order):
            nums = _ints(parser["modes"][key], 5, "mode %s" % key)
            modes.append(Mode(k_index=nums[:3], spin=nums[3], branch=nums[4]))
        cfg = replace(cfg, modes=tuple(modes))

    if parser.has_section("pairing"):
        p = parser["pairing"]
        cfg = replace(
            cfg,
            packet_center=_scalar(p, "center", float, cfg.packet_center, "center"),
            packet_width=_scalar(p, "width", float, cfg.packet_width, "width"),
            packet_carrier=_scalar(p, "carrier", int, cfg.packet_carrier, "carrier"),
            tilt=_floats(p["tilt"], 3, "tilt") if "tilt" in p else cfg.tilt,
        )

    if parser.has_section("tolerances"):
        tols = dict(DEFAULT_TOLERANCES)
        for key in parser["tolerances"]:
            try:
                tols[key] = float(parser["tolerances"][key])
            except ValueError as exc:
                raise ConfigError("tolerance %s: %s" % (key, exc)) from exc
        cfg = replace(cfg, tolerances=tols)

    return validate(cfg)


def _mode_key_order(key: str):
    digits = "".join(ch for ch in key if ch.isdigit())
    return (int(digits) if digits else 0, key)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    if cfg.units not in ("natural", "cgs"):
        raise ConfigError("units must be natural or cgs, got %r" % cfg.units)
    if not (cfg.mass > 0):
        raise ConfigError("mass must be positive")
    if cfg.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if cfg.samples < 1:
        raise ConfigError("samples must be at least 1")
    if not 1 <= cfg.fock_modes <= 8:
        raise ConfigError("fock_modes must be in 1..8 (dense brute force)")
    if not (cfg.growth_abort > 1):
        raise ConfigError("growth_abort must exceed 1")
    if not cfg.suites:
        raise ConfigError("at least one suite must be selected")
    for name in cfg.suites:
        if name not in SUITE_NAMES:
            raise ConfigError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES)))

    if cfg.family not in FAMILIES:
        raise ConfigError("family must be minkowski or static-diagonal")
    if cfg.steps < 1:
        raise ConfigError("steps must be at least 1")
    if not (cfg.t_span > 0):
        raise ConfigError("t_span must be positive")
    if any(not (L > 0) for L in cfg.lengths):
        raise ConfigError("lengths must be positive")
    if any(n < 1 for n in cfg.shape):
        raise ConfigError("shape entries must be at least 1")
    if cfg.epsilon < 0:
        raise ConfigError("epsilon must be non-negative")
    if cfg.profile not in PROFILES:
        raise ConfigError("profile must be linear or sin")

    for i, mode in enumerate(cfg.modes):
        if mode.spin not in (0, 1):
            raise ConfigError("mode %d: spin must be 0 or 1" % (i + 1))
        if mode.branch not in (1, -1):
            raise ConfigError("mode %d: branch must be +1 or -1" % (i + 1))
        for ax in range(3):
            if cfg.shape[ax] == 1 and mode.k_index[ax] != 0:
                raise ConfigError("mode %d: harmonic on collapsed axis %d" % (i + 1, ax + 1))

    v = math.sqrt(sum(t * t for t in cfg.tilt))
    if v >= 1.0:
        raise ConfigError("tilt speed must be subluminal, got |v| = %.3f" % v)
    if cfg.packet_width is not None and not (cfg.packet_width > 0):
        raise ConfigError("packet width must be positive")

    for key, val in cfg.tolerances.items():
        if not (val > 0):
            raise ConfigError("tolerance %s must be positive" % key)
    if cfg.tolerances["ratio_low"] >= cfg.tolerances["ratio_high"]:
        raise ConfigError("ratio_low must be below ratio_high")

    if "evolve" in cfg.suites or "pairing" in cfg.suites:
        if cfg.family != "minkowski":
            raise ConfigError("evolve and pairing suites need the flat chart family")
        if not cfg.modes:
            raise ConfigError("evolve and pairing suites need at least one mode")
    if "connection" in cfg.suites and cfg.family != "static-diagonal":
        raise ConfigError("connection suite needs the static-diagonal chart family")
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    return parse_config(text)
