"""Dirac fields on flat and static curved backgrounds.

Gamma-matrix algebra and its identities, metric spinor connections,
time evolution of the field equation, the conserved current with its
hypersurface pairing, and the fermionic Fock space built on top.
"""

from .constants import C_CGS, HBAR_CGS, PhysicalConstants
from .fields import CurrentField, GridMismatchError, SpinorField
from .spin_algebra import (
    FRAME,
    GammaSet,
    SpinTensorSignature,
    canonical_gamma_set,
    check_dirac_form_identities,
    clifford_residual,
    tau_conjugate,
)
from .geometry import (
    Background,
    ChartError,
    MetricChart,
    build_background,
    concordance_residuals,
    covariant_derivative,
    frame_orthonormality_residual,
    minkowski_chart,
    static_diagonal_chart,
    torsion_residual,
)
from .dynamics import (
    CurrentRealityError,
    EvolutionUnstableError,
    action_value,
    closed_form_current_norm,
    current,
    current_norm,
    dirac_residual,
    dispersion_mode,
    divergence,
    evolve,
    gaussian_packet,
    grid_norm,
    plane_wave,
    timelike_report,
)
from .pairing import (
    NotSpacelikeError,
    RankDeficientModeError,
    Slice,
    coordinate_slice,
    flux,
    gram,
    inner,
    orthonormalize,
    sample_on_slice,
    tilted_slice,
)
from .fock import (
    CarReport,
    FockVector,
    annihilate,
    antisymmetrize,
    basis_state,
    car_report,
    create,
    format_fock_vector,
    indices_from_occupation,
    multiparticle_inner,
    occupation_from_indices,
    parse_fock_vector,
    particle_number,
    permutation_parity,
    vacuum,
)

__version__ = "0.1.0"
from .config import (
    DEFAULT_TOLERANCES,
    ConfigError,
    Mode,
    SUITE_NAMES,
    ScenarioConfig,
    load_config,
    parse_config,
)
from .report import CheckResult, format_value, render_jsonl, render_series, render_text
from .scenarios import BUNDLED, scenario_names
from .suites import SUITES
