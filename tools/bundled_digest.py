"""Digest of every bundled scenario's outputs and of the library's array paths,
for byte-identity gates.

First come three header lines: numpy's version, and the baseline and found
SIMD extensions of its build.  Byte identity is promised per host and per
numpy build: the rounding of a complex product depends on the SIMD kernel
numpy dispatches to, so two digests compare only where their headers agree.
Then it runs each bundled scenario through ``cli.main`` into a temporary
directory and prints one ``scenario file sha256`` line per output file and for the
captured stderr, then one ``scenario exit <code>`` line.  After those it
prints one ``probe name sha256`` line per array that the library computes on
charts no bundled scenario reaches: the ``build_background`` arrays of sin
and linear charts with the values of their concordance, torsion and frame
orthonormality residuals, and ``evolve``, ``current`` with ``divergence``,
``action_value``, ``dirac_residual`` and ``covariant_derivative`` on curved
and flat grids, 1D and 3D; ``sample_on_slice``, ``flux`` and ``gram`` on a
flat (8, 8, 1) grid for an x1 tilt, a tilt along the suppressed x3 and an
off-node coordinate slice, where ``gram`` pairs each mode's
``sample_on_slice`` samples; and the ``operator_matrix`` arrays with the
``car_report`` residuals for 1 to 8 modes.  Array digests fold -0.0 into +0.0
first, so they compare values the way ``np.array_equal`` does.  Scalars
(residuals, fluxes, ``action_value``) print as ``repr``, so a stated rounding
change shows its size in the diff.  The probes
use public API only.  Diff the output of two checkouts to confirm that a
refactor left every result unchanged:

    python3 tools/bundled_digest.py > digest.txt
"""

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from diracfock import cli, dynamics, fock, geometry, pairing  # noqa: E402
from diracfock.constants import PhysicalConstants  # noqa: E402
from diracfock.fields import SpinorField  # noqa: E402
from diracfock.scenarios import scenario_names  # noqa: E402

TWO_PI = 2.0 * np.pi
BACKGROUND_ARRAYS = ("metric", "tetrad", "christoffel", "omega", "spinor_connection", "sqrt_neg_det")


def digest(values) -> str:
    arr = np.ascontiguousarray(np.asarray(values) + 0.0)  # -0.0 + 0.0 == +0.0
    return hashlib.sha256(str(arr.dtype).encode() + str(arr.shape).encode() + arr.tobytes()).hexdigest()


def scenario_lines():
    with tempfile.TemporaryDirectory() as tmp:
        for name in scenario_names():
            out = Path(tmp, name)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(["run", name, "--out", str(out)])
            files = sorted(out.iterdir()) if out.is_dir() else []
            digests = [(f.name, hashlib.sha256(f.read_bytes())) for f in files]
            digests.append(("<stderr>", hashlib.sha256(err.getvalue().encode())))
            for fname, h in digests:
                print(name, fname, h.hexdigest())
            print(name, "exit", code)


def background_lines():
    for profile, eps in (("sin", 0.01), ("linear", 0.05)):
        for shape in ((64, 1, 1), (8, 1, 1), (16, 16, 16)):
            chart = geometry.static_diagonal_chart(0.0, 1.0, 2, (TWO_PI,) * 3, shape, epsilon=eps, profile=profile)
            bg = geometry.build_background(chart)
            label = "background-%s-%dx%dx%d" % ((profile,) + shape)
            for name in BACKGROUND_ARRAYS:
                print(label, name, digest(getattr(bg, name)))
            for name, value in geometry.concordance_residuals(bg).as_dict().items():
                print(label, "concordance", name, repr(value))
            print(label, "torsion_residual", repr(geometry.torsion_residual(bg)))
            print(label, "frame_orthonormality_residual", repr(geometry.frame_orthonormality_residual(bg)))


def field_lines(label, bg, initial, k):
    out = dynamics.evolve(initial, bg, k)
    j = dynamics.current(out, k)
    print(label, "evolve", digest(out.values))
    print(label, "current", digest(j.values))
    print(label, "divergence", digest(dynamics.divergence(j, bg)))
    print(label, "action_value", repr(dynamics.action_value(out, bg, k)))
    print(label, "dirac_residual", digest(dynamics.dirac_residual(out, bg, k).values))
    for q in range(4):
        print(label, "covariant_derivative_%d" % q, digest(geometry.covariant_derivative(out, bg, q).values))


def dynamics_lines():
    k = PhysicalConstants.natural_units(mass=1.0)
    chart = geometry.static_diagonal_chart(0.0, 1.0, 40, (TWO_PI,) * 3, (32, 1, 1), epsilon=0.01, profile="sin")
    init = dynamics.gaussian_packet(chart, k, center=np.pi, width=TWO_PI / 16.0, carrier_index=2)
    field_lines("curved-32x1x1", geometry.build_background(chart), init, k)

    chart = geometry.static_diagonal_chart(0.0, 0.5, 8, (TWO_PI,) * 3, (8, 8, 8), epsilon=0.01, profile="sin")
    rng = np.random.default_rng(5)
    init = rng.standard_normal((8, 8, 8, 4)) + 1j * rng.standard_normal((8, 8, 8, 4))
    field_lines("curved-8x8x8", geometry.build_background(chart), init, k)

    chart = geometry.minkowski_chart(0.0, 0.5, 8, (TWO_PI,) * 3, (8, 8, 8))
    wave = dynamics.plane_wave(chart, (1, 1, 0), k)
    field_lines("flat-8x8x8", geometry.build_background(chart), wave.values[0], k)


def slice_lines():
    k = PhysicalConstants.natural_units(mass=1.0)
    chart = geometry.minkowski_chart(0.0, 1.0, 10, (TWO_PI,) * 3, (8, 8, 1))
    bg = geometry.build_background(chart)
    rng = np.random.default_rng(7)
    noise = SpinorField(chart, rng.standard_normal(chart.shape + (4,)) + 1j * rng.standard_normal(chart.shape + (4,)))
    modes = [
        dynamics.plane_wave(chart, (1, 0, 0), k),
        dynamics.plane_wave(chart, (0, 1, 0), k, spin=1),
        dynamics.plane_wave(chart, (1, 1, 0), k, branch=-1),
        noise,
    ]
    slices = {
        "tilt-x1": pairing.tilted_slice(bg, 0.5, (0.1, 0.0, 0.0)),
        "tilt-x3-suppressed": pairing.tilted_slice(bg, 0.5, (0.0, 0.0, 0.2)),
        "tilt-x1-x3": pairing.tilted_slice(bg, 0.5, (0.1, 0.0, 0.2)),
        "coordinate-off-node": pairing.coordinate_slice(bg, 0.5 + 0.37 * chart.dt),
    }
    j = dynamics.current(noise, k)
    for name, s in slices.items():
        label = "slice-8x8x1-" + name
        print(label, "sample_on_slice", digest(pairing.sample_on_slice(noise, s)))
        print(label, "flux", repr(pairing.flux(j, s)))
        samples = [pairing.sample_on_slice(m, s) for m in modes]
        print(label, "gram", digest(pairing.gram(samples, s, k)))


def fock_lines():
    for nmodes in range(1, 9):
        for kind in ("create", "annihilate"):
            for i in range(nmodes):
                print("fock-%d" % nmodes, "operator_matrix", kind, i, digest(fock.operator_matrix(kind, i, nmodes)))
        rep = fock.car_report(nmodes)
        for name in ("annihilate_pairs", "create_pairs", "mixed_pairs", "adjointness"):
            print("fock-%d" % nmodes, "car_report", name, repr(getattr(rep, name)))


def header_lines():
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    print("numpy", np.__version__)
    print("numpy simd baseline", " ".join(simd.get("baseline", [])))
    print("numpy simd found", " ".join(simd.get("found", [])))


def main() -> None:
    header_lines()
    scenario_lines()
    background_lines()
    dynamics_lines()
    slice_lines()
    fock_lines()


if __name__ == "__main__":
    main()
