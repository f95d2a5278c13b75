"""Scenario configuration parsing and validation."""

import math

import pytest

from diracfock import (
    BUNDLED,
    ConfigError,
    DEFAULT_TOLERANCES,
    Mode,
    SUITE_NAMES,
    load_config,
    parse_config,
    scenario_names,
)

FULL = """
[scenario]
name = full             # inline comment
units = natural
mass = 2.5
seed = 42
samples = 500
fock_modes = 4
growth_abort = 8.0
suites = evolve, pairing
out = results

[chart]
family = minkowski
t_start = 0.5
t_span = 2.0
steps = 40
lengths = 12.0, 6.28, 6.28
shape = 128 1 1
origin = 1.0 0.0 0.0
epsilon = 0.0
profile = sin

[modes]
m1 = 0 0 0 0 +1
m2 = 1 0 0 1 -1

[pairing]
center = 7.0
width = 1.5
carrier = 3
tilt = 0.1 0.0 0.0

[tolerances]
evolution_error = 1e-5
"""


def test_empty_text_gives_defaults():
    cfg = parse_config("")
    assert cfg.name == "unnamed"
    assert cfg.units == "natural"
    assert cfg.suites == ("identities", "current", "fock")
    assert cfg.shape == (64, 1, 1)
    assert cfg.family == "minkowski"
    assert cfg.modes == ()
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.tol("norm_drift") == DEFAULT_TOLERANCES["norm_drift"]


def test_full_document_parses_every_field():
    cfg = parse_config(FULL)
    assert cfg.name == "full"
    assert cfg.mass == 2.5
    assert cfg.seed == 42
    assert cfg.samples == 500
    assert cfg.fock_modes == 4
    assert cfg.growth_abort == 8.0
    assert cfg.suites == ("evolve", "pairing")
    assert cfg.out_dir == "results"
    assert cfg.t_start == 0.5
    assert cfg.t_span == 2.0
    assert cfg.steps == 40
    assert cfg.lengths == (12.0, 6.28, 6.28)
    assert cfg.shape == (128, 1, 1)
    assert cfg.origin == (1.0, 0.0, 0.0)
    assert cfg.modes == (
        Mode(k_index=(0, 0, 0), spin=0, branch=1),
        Mode(k_index=(1, 0, 0), spin=1, branch=-1),
    )
    assert cfg.packet_center == 7.0
    assert cfg.packet_width == 1.5
    assert cfg.packet_carrier == 3
    assert cfg.tilt == (0.1, 0.0, 0.0)
    assert cfg.tol("evolution_error") == 1e-5
    # untouched tolerances keep their defaults
    assert cfg.tol("gram_drift") == DEFAULT_TOLERANCES["gram_drift"]


def test_mode_keys_sort_numerically():
    text = """
[scenario]
suites = identities
[modes]
m10 = 3 0 0 0 +1
m2 = 2 0 0 0 +1
m1 = 1 0 0 0 +1
[chart]
shape = 64 1 1
"""
    cfg = parse_config(text)
    assert [m.k_index[0] for m in cfg.modes] == [1, 2, 10][:2] + [3]


def test_build_chart_both_families():
    flat = parse_config("").build_chart()
    assert flat.family == "minkowski"
    curved = parse_config(
        "[scenario]\nsuites = connection\n"
        "[chart]\nfamily = static-diagonal\nepsilon = 0.01\nprofile = sin\n"
    ).build_chart()
    assert curved.family == "static-diagonal"
    assert curved.epsilon == 0.01


BAD_DOCUMENTS = [
    "[wormhole]\nx = 1\n",
    "[scenario]\ncolour = red\n",
    "[scenario]\nmass = abc\n",
    "[scenario]\nmass = -1\n",
    "[scenario]\nunits = imperial\n",
    "[scenario]\nseed = -2\n",
    "[scenario]\nsamples = 0\n",
    "[scenario]\nfock_modes = 0\n",
    "[scenario]\nfock_modes = 9\n",
    "[scenario]\ngrowth_abort = 1.0\n",
    "[scenario]\nsuites =\n",
    "[scenario]\nsuites = algebra\n",
    "[scenario]\nsuites = fock fock\n",
    "[scenario]\nsuites = identities current identities\n",
    "[chart]\nfamily = kerr\n",
    "[chart]\nsteps = 0\n",
    "[chart]\nt_span = 0\n",
    "[chart]\nlengths = 1.0 2.0\n",
    "[chart]\nlengths = 1.0 -2.0 3.0\n",
    "[chart]\nshape = 64 0 1\n",
    "[chart]\nepsilon = -0.1\n",
    "[chart]\nprofile = cosh\n",
    "[chart]\nprofile = linear\n",  # sin is the only profile
    "[modes]\nm1 = 1 0 0 0\n",
    "[modes]\nm1 = 0 0 0 2 +1\n",
    "[modes]\nm1 = 0 0 0 0 0\n",
    "[modes]\nm1 = 0 1 0 0 +1\n",  # harmonic on a collapsed axis
    "[pairing]\nwidth = 0\n",
    "[pairing]\ntilt = 0.8 0.8 0.0\n",
    "[tolerances]\nnorm_drift = 0\n",
    "[tolerances]\nnorm_drift = oops\n",
    "[tolerances]\nunknown_knob = 1\n",
    "[tolerances]\nratio_low = 25\n",
    "[scenario]\nsuites = evolve\n",  # evolve needs at least one mode
    "[scenario]\nsuites = connection\n",  # connection needs the curved family
    "[scenario]\nsuites = evolve\n[chart]\nfamily = static-diagonal\n[modes]\nm1 = 0 0 0 0 +1\n",
    "not an ini document",
    # grids too small for the 5-point stencils or for cubic time interpolation
    "[scenario]\nsuites = evolve\n[chart]\nsteps = 3\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = pairing\n[chart]\nsteps = 2\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = evolve\n[chart]\nshape = 3 1 1\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nshape = 4 1 1\n",
    # non-finite numbers
    "[scenario]\nmass = inf\n",
    "[chart]\nt_start = inf\n",
    "[chart]\nt_span = inf\n",
    "[chart]\nlengths = inf 6.28 6.28\n",
    "[chart]\norigin = nan 0 0\n",
    "[chart]\nepsilon = nan\n",
    "[pairing]\ncenter = nan\n",
    "[pairing]\nwidth = inf\n",
    "[pairing]\ntilt = nan 0 0\n",
    # the default carrier harmonic 2 on a collapsed x1
    "[scenario]\nsuites = pairing\n[chart]\nshape = 1 16 1\n[modes]\nm1 = 0 0 0 0 +1\n",
    # every float is finite, including growth_abort and tolerances
    "[scenario]\ngrowth_abort = inf\n",
    "[tolerances]\nnorm_drift = inf\n",
    # [DEFAULT] is an unknown section, not a source of keys for the others
    "[DEFAULT]\nmass = abc\n",
    "[DEFAULT]\nmass = 3\n[scenario]\n",
    # pairing slices: no tilt along an active x2/x3, and the tilted slice
    # must stay inside the time axis (|tilt1| * length1 <= t_span)
    "[scenario]\nsuites = pairing\n[pairing]\ntilt = 0 0.2 0\n"
    "[chart]\nshape = 8 8 1\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = pairing\n[chart]\nt_span = 0.5\nsteps = 10\nshape = 16 1 1\n"
    "[modes]\nm1 = 0 0 0 0 +1\n",
    FULL.replace("tilt = 0.1 0.0 0.0", "tilt = 0.2 0.0 0.0"),  # 0.2 * 12 > t_span = 2
    # profile = linear (g00 = 1 + eps x1 < 0 here) fails the profile rule;
    # g00 = 1 + eps sin x1 must stay positive on the chart and on the refined
    # chart of the connection suite (the last one only fails there)
    "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nprofile = linear\nepsilon = 0.5\n"
    "origin = -10 0 0\nshape = 16 1 1\n",
    "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nprofile = sin\nepsilon = 1.5\n"
    "origin = -10 0 0\nshape = 16 1 1\n",
    "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nprofile = sin\nepsilon = 1.05\n"
    "origin = 0.39269908169872414 0 0\nshape = 8 1 1\n",
    # the first four pairing modes are orthonormalized, so they must differ
    "[scenario]\nsuites = pairing\n[modes]\nm1 = 1 0 0 0 +1\nm2 = 1 0 0 0 +1\n[chart]\nshape = 64 1 1\n"
    "lengths = 12 6.283185307179586 6.283185307179586\nt_span = 2\nsteps = 20\n[pairing]\ntilt = 0.1 0 0\n",
    # a packet envelope that underflows on every x1 node has no norm; at
    # width 0.0091585 the envelope peaks at 1.6e-162 on the nodes but its squares still underflow
    "[pairing]\nwidth = 0.001\ncenter = 16.25\ntilt = 0 0 0\n[scenario]\nsuites = pairing\n[chart]\n"
    "lengths = 32 6.283185307179586 6.283185307179586\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[pairing]\nwidth = 0.0091585\ncenter = 16.25\ntilt = 0 0 0\n[scenario]\nsuites = pairing\n[chart]\n"
    "lengths = 32 6.283185307179586 6.283185307179586\n[modes]\nm1 = 0 0 0 0 +1\n",
    # far from 0, rounding collapses an axis of a chart that a suite builds
    "[scenario]\nsuites = evolve\n[chart]\nt_start = 1e15\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = evolve\n[chart]\nt_start = 1e300\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = evolve\n[chart]\norigin = 1e300 0 0\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = pairing\n[chart]\norigin = 1e300 0 0\n[modes]\nm1 = 0 0 0 0 +1\n",
    "[scenario]\nsuites = pairing\n[chart]\nt_start = 1e17\n[modes]\nm1 = 0 0 0 0 +1\n",
    # at origin 2^45 the 128-node x1 axis is exact, its 256-node refinement collapses
    "[scenario]\nsuites = connection\n[chart]\nfamily = static-diagonal\nepsilon = 0.01\n"
    "origin = 35184372088832 0 0\nlengths = 1 1 1\nshape = 128 1 1\n",
]


@pytest.mark.parametrize("text", BAD_DOCUMENTS)
def test_invalid_documents_are_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_with_overrides_revalidates():
    cfg = parse_config("")
    out = cfg.with_overrides(suites=("fock",), out_dir="elsewhere", seed=7)
    assert out.suites == ("fock",)
    assert out.out_dir == "elsewhere"
    assert out.seed == 7
    # original is untouched
    assert cfg.suites == ("identities", "current", "fock")
    with pytest.raises(ConfigError):
        cfg.with_overrides(suites=("novelty",))
    with pytest.raises(ConfigError):
        cfg.with_overrides(suites=("evolve",))  # no modes configured


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text(FULL)
    cfg = load_config(str(path))
    assert cfg.name == "full"
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))


def test_bundled_scenarios_are_valid():
    names = scenario_names()
    assert list(names) == sorted(BUNDLED)
    assert len(names) == 8
    for name in names:
        cfg = parse_config(BUNDLED[name])
        assert cfg.name == name
        for suite in cfg.suites:
            assert suite in SUITE_NAMES


def test_huge_integer_seed_is_accepted():
    seed = 10**400
    assert parse_config("[scenario]\nseed = %d\n" % seed).seed == seed


def test_collapsed_axis_is_checked_only_for_suites_that_build_charts():
    text = "[scenario]\nsuites = %s\n[chart]\nt_start = 1e17\n[modes]\nm1 = 0 0 0 0 +1\n"
    assert parse_config(text % "identities fock").t_start == 1e17
    with pytest.raises(ConfigError, match="rounding collapsed an axis"):
        parse_config(text % "identities pairing")


def test_offset_time_axis_is_accepted_at_parse_time():
    # at t_start = 1000 the node differences jitter by ~1e-11 relative, a few
    # units of rounding of the nodes themselves, so the axis is uniform
    cfg = parse_config("[scenario]\nsuites = evolve\n[chart]\nt_start = 1000\n[modes]\nm1 = 0 0 0 0 +1\n")
    assert cfg.build_chart().axes[0][0] == 1000.0


def test_evolve_builds_only_the_scenario_time_axis_at_parse_time():
    # at t_start = 2^45 the chart's 64 steps of 2^-6 are exact; with 4 times
    # the steps the nodes would collapse, but the evolve suite marches only
    # the scenario's own time axis, so the document is accepted
    text = "[scenario]\nsuites = evolve\n[chart]\nt_start = 35184372088832\nsteps = 64\n[modes]\nm1 = 0 0 0 0 +1\n"
    taxis = parse_config(text).build_chart().axes[0]
    assert taxis[0] == 2.0**45 and all(b - a == 2.0**-6 for a, b in zip(taxis, taxis[1:]))


def test_tilt_speed_just_below_light_is_accepted():
    v = 0.57  # three equal components, |v| just under 1
    cfg = parse_config("[pairing]\ntilt = %g %g %g\n" % (v, v, v))
    assert math.sqrt(sum(t * t for t in cfg.tilt)) < 1.0
