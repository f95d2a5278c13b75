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
tilt = 0.2 0.0 0.0

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
    assert cfg.tilt == (0.2, 0.0, 0.0)
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
    "[chart]\nfamily = kerr\n",
    "[chart]\nsteps = 0\n",
    "[chart]\nt_span = 0\n",
    "[chart]\nlengths = 1.0 2.0\n",
    "[chart]\nlengths = 1.0 -2.0 3.0\n",
    "[chart]\nshape = 64 0 1\n",
    "[chart]\nepsilon = -0.1\n",
    "[chart]\nprofile = cosh\n",
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


def test_tilt_speed_just_below_light_is_accepted():
    v = 0.57  # three equal components, |v| just under 1
    cfg = parse_config("[pairing]\ntilt = %g %g %g\n" % (v, v, v))
    assert math.sqrt(sum(t * t for t in cfg.tilt)) < 1.0
