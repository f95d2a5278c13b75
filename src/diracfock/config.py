"""Scenario configuration: a flat key-value text format with sections.

The grammar is INI as accepted by the standard library parser, restricted
to the sections and keys documented in the README.  Unknown sections or
keys are rejected so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

from .constants import PhysicalConstants
from .dynamics import gaussian_packet
from .geometry import FAMILIES, ChartError, MetricChart, minkowski_chart, static_diagonal_chart

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
            origin=self.origin,
        )

    def refined(self) -> "ScenarioConfig":
        """The same scenario with twice the nodes on every active axis."""
        return replace(self, shape=tuple(2 * n if n > 1 else 1 for n in self.shape))

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


def _text(raw: str, what: str) -> str:
    return raw


def _words(raw: str, what: str) -> tuple[str, ...]:
    return tuple(raw.replace(",", " ").split())


def _number(cast, n: int | None = None):
    """Parser for one number, or for exactly n when n is given; floats must be finite."""

    def parse(raw: str, what: str):
        parts = [raw] if n is None else raw.replace(",", " ").split()
        if n is not None and len(parts) != n:
            kind = "numbers" if cast is float else "integers"
            raise ConfigError("%s needs %d %s, got %r" % (what, n, kind, raw))
        try:
            vals = tuple(cast(p) for p in parts)
        except ValueError as exc:
            raise ConfigError("%s: %s" % (what, exc)) from exc
        if cast is float and not all(math.isfinite(x) for x in vals):
            raise ConfigError("%s must be finite" % what)
        return vals if n is not None else vals[0]

    return parse


# section -> key -> (ScenarioConfig field, parser).  [modes] (free-form keys)
# and [tolerances] (the keys of DEFAULT_TOLERANCES) are parsed in parse_config.
_GRAMMAR = {
    "scenario": {
        "name": ("name", _text),
        "units": ("units", _text),
        "mass": ("mass", _number(float)),
        "seed": ("seed", _number(int)),
        "samples": ("samples", _number(int)),
        "fock_modes": ("fock_modes", _number(int)),
        "growth_abort": ("growth_abort", _number(float)),
        "suites": ("suites", _words),
        "out": ("out_dir", _text),
    },
    "chart": {
        "family": ("family", _text),
        "t_start": ("t_start", _number(float)),
        "t_span": ("t_span", _number(float)),
        "steps": ("steps", _number(int)),
        "lengths": ("lengths", _number(float, 3)),
        "shape": ("shape", _number(int, 3)),
        "origin": ("origin", _number(float, 3)),
        "epsilon": ("epsilon", _number(float)),
        "profile": ("profile", _text),
    },
    "pairing": {
        "center": ("packet_center", _number(float)),
        "width": ("packet_width", _number(float)),
        "carrier": ("packet_carrier", _number(int)),
        "tilt": ("tilt", _number(float, 3)),
    },
}


def parse_config(text: str) -> ScenarioConfig:
    # default_section="" matches no header, so [DEFAULT] is an unknown section
    # instead of a source of keys for every other section.
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), default_section=""
    )
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser's messages span lines; exit 2 promises one
        raise ConfigError("parse failure: %s" % " ".join(str(exc).split())) from exc

    fields = {}
    for section in parser.sections():
        entries = parser[section]
        if section == "modes":
            nums = {key: _number(int, 5)(raw, "mode %s" % key) for key, raw in entries.items()}
            fields["modes"] = tuple(
                Mode(k_index=nums[key][:3], spin=nums[key][3], branch=nums[key][4])
                for key in sorted(nums, key=_mode_key_order)
            )
        elif section == "tolerances":
            tols = dict(DEFAULT_TOLERANCES)
            for key, raw in entries.items():
                if key not in tols:
                    raise ConfigError("unknown key %r in [%s]" % (key, section))
                tols[key] = _number(float)(raw, "tolerance %s" % key)
            fields["tolerances"] = tols
        elif section in _GRAMMAR:
            for key, raw in entries.items():
                if key not in _GRAMMAR[section]:
                    raise ConfigError("unknown key %r in [%s]" % (key, section))
                name, parse = _GRAMMAR[section][key]
                fields[name] = parse(raw, key)
        else:
            raise ConfigError("unknown section [%s]" % section)
    return validate(ScenarioConfig(**fields))


def _mode_key_order(key: str):
    digits = "".join(ch for ch in key if ch.isdigit())
    return (int(digits) if digits else 0, key)


def _constants(cfg: ScenarioConfig) -> PhysicalConstants:
    if cfg.units == "natural":
        return PhysicalConstants.natural_units(mass=cfg.mass)
    return PhysicalConstants.cgs(mass=cfg.mass)


def _packet_center_width(cfg: ScenarioConfig) -> tuple[float, float]:
    """Centre and width of the pairing packet; by default the box centre and L1/16."""
    center = cfg.packet_center
    if center is None:
        center = cfg.origin[0] + 0.5 * cfg.lengths[0]
    width = cfg.packet_width
    if width is None:
        width = cfg.lengths[0] / 16.0
    return center, width


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
    for i, name in enumerate(cfg.suites):
        if name not in SUITE_NAMES:
            raise ConfigError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITE_NAMES)))
        if name in cfg.suites[:i]:
            raise ConfigError("suite %r is selected twice" % name)

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
    if cfg.profile != "sin":
        raise ConfigError("profile must be sin")
    try:
        if cfg.family == "static-diagonal":
            # the g00 rule of metric_values; the connection suite also builds the refined chart
            for c in (cfg, cfg.refined()):
                c.build_chart().metric_values()
        # Every chart a selected suite builds must build (the g00 rule built the
        # connection suite's): far from 0, rounding can collapse an axis.
        if "evolve" in cfg.suites or "pairing" in cfg.suites:
            cfg.build_chart()
    except ChartError as exc:
        raise ConfigError("chart: %s" % exc) from exc

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
    if "pairing" in cfg.suites:
        if cfg.shape[0] == 1 and cfg.packet_carrier != 0:
            raise ConfigError("pairing carrier: harmonic on collapsed axis 1")
        # the first four modes are orthonormalized, so they must differ
        if len(set(cfg.modes[:4])) < len(cfg.modes[:4]):
            raise ConfigError("pairing modes: the first four must be distinct")
        # The slice is sampled column by column along x1, and its times must
        # stay on the time axis: the pivot is the box centre, so the slice
        # spans |tilt1| * length1 / 2 either side of the middle time.
        for ax in (1, 2):
            if cfg.shape[ax] > 1 and cfg.tilt[ax] != 0.0:
                raise ConfigError("pairing tilt along active axis %d is not supported" % (ax + 1))
        if cfg.shape[0] > 1 and abs(cfg.tilt[0]) * cfg.lengths[0] > cfg.t_span:
            raise ConfigError(
                "pairing tilt: |tilt1| * length1 = %.6g exceeds t_span = %.6g"
                % (abs(cfg.tilt[0]) * cfg.lengths[0], cfg.t_span)
            )
        # the packet is built here once, so an envelope that underflows on
        # every x1 node fails at parse time, not as an instability
        center, width = _packet_center_width(cfg)
        try:
            gaussian_packet(cfg.build_chart(), _constants(cfg), center, width, cfg.packet_carrier)
        except ValueError as exc:
            raise ConfigError("pairing packet (center %.6g, width %.6g): %s" % (center, width, exc)) from exc

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

    # The 5-point stencils need 5 nodes on every active axis and, in time,
    # 5 snapshots; cubic time interpolation on a slice needs 4.
    for name in ("connection", "evolve", "pairing"):
        if name in cfg.suites and any(1 < n < 5 for n in cfg.shape):
            raise ConfigError("%s suite needs 1 or at least 5 nodes on each axis" % name)
    if "evolve" in cfg.suites and cfg.steps < 4:
        raise ConfigError("evolve suite needs steps >= 4")
    if "pairing" in cfg.suites and cfg.steps < 3:
        raise ConfigError("pairing suite needs steps >= 3")
    return cfg


def load_config(path: str) -> ScenarioConfig:
    try:
        # utf-8-sig also takes UTF-8 that starts with a byte-order mark
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc
    except UnicodeDecodeError as exc:
        raise ConfigError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    return parse_config(text)
