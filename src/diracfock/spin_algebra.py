"""Constant spin-tensor fields of the canonical chiral frame and their identities.

The five basic fields are kept as exact complex128 matrices: the metric g,
the skew spinor metric d, the chirality operator H, the Dirac form D and the
four gamma matrices.  Row index is the upper spinor index a, column index the
lower spinor index b, all 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GammaSet",
    "SpinTensorSignature",
    "DiracFormReport",
    "canonical_gamma_set",
    "FRAME",
    "tau_conjugate",
    "check_dirac_form_identities",
    "clifford_residual",
    "METRIC_SIGNATURE",
    "SKEW_METRIC_SIGNATURE",
    "CHIRALITY_SIGNATURE",
    "DIRAC_FORM_SIGNATURE",
    "GAMMA_SIGNATURE",
]


@dataclass(frozen=True)
class SpinTensorSignature:
    """Axis layout of a spin-tensor block.

    Axes are ordered: spinor-up, spinor-down, conjugate-up, conjugate-down,
    tensor-up, tensor-down.  Each count gives how many axes of that kind the
    component array carries.
    """

    spinor_up: int = 0
    spinor_down: int = 0
    conj_up: int = 0
    conj_down: int = 0
    tensor_up: int = 0
    tensor_down: int = 0

    def __post_init__(self) -> None:
        for n in self.as_tuple():
            if n < 0:
                raise ValueError("signature counts must be non-negative")

    def as_tuple(self) -> tuple[int, int, int, int, int, int]:
        return (
            self.spinor_up,
            self.spinor_down,
            self.conj_up,
            self.conj_down,
            self.tensor_up,
            self.tensor_down,
        )

    @property
    def ndim(self) -> int:
        return sum(self.as_tuple())

    @property
    def spinor_axes(self) -> int:
        return self.spinor_up + self.spinor_down

    @property
    def conj_axes(self) -> int:
        return self.conj_up + self.conj_down

    def swapped(self) -> "SpinTensorSignature":
        """Signature after the conjugation involution: spinor and conjugate
        blocks trade places, tensor block is unchanged."""
        return SpinTensorSignature(
            spinor_up=self.conj_up,
            spinor_down=self.conj_down,
            conj_up=self.spinor_up,
            conj_down=self.spinor_down,
            tensor_up=self.tensor_up,
            tensor_down=self.tensor_down,
        )


# Types of the five basic fields.
METRIC_SIGNATURE = SpinTensorSignature(tensor_down=2)
SKEW_METRIC_SIGNATURE = SpinTensorSignature(spinor_down=2)
CHIRALITY_SIGNATURE = SpinTensorSignature(spinor_up=1, spinor_down=1)
DIRAC_FORM_SIGNATURE = SpinTensorSignature(spinor_down=1, conj_down=1)
GAMMA_SIGNATURE = SpinTensorSignature(spinor_up=1, spinor_down=1, tensor_up=1)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GammaSet:
    """The constant matrices of the canonical chiral frame.

    gamma has shape (4, 4, 4): first axis is the tensor index q, then the
    spinor row a and column b.
    """

    gamma: np.ndarray
    chirality: np.ndarray   # H, mixed spinor indices
    dirac_form: np.ndarray  # D, one spinor and one conjugate index, both down
    metric: np.ndarray      # g, frame components, two tensor indices down
    skew_metric: np.ndarray  # d, two spinor indices down


def canonical_gamma_set() -> GammaSet:
    """Exact matrices of the chiral frame."""
    i = 1j
    gamma0 = [
        [0, 0, 1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, 1, 0, 0],
    ]
    gamma1 = [
        [0, 0, 0, -1],
        [0, 0, -1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    gamma2 = [
        [0, 0, 0, i],
        [0, 0, -i, 0],
        [0, -i, 0, 0],
        [i, 0, 0, 0],
    ]
    gamma3 = [
        [0, 0, -1, 0],
        [0, 0, 0, 1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ]
    chirality = np.diag([1.0, 1.0, -1.0, -1.0])
    dirac_form = np.array(gamma0, dtype=float)
    metric = np.diag([1.0, -1.0, -1.0, -1.0])
    skew = [
        [0, 1, 0, 0],
        [-1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]
    return GammaSet(
        gamma=_frozen(np.stack([np.array(m, dtype=complex) for m in (gamma0, gamma1, gamma2, gamma3)])),
        chirality=_frozen(chirality),
        dirac_form=_frozen(dirac_form),
        metric=_frozen(metric),
        skew_metric=_frozen(np.array(skew, dtype=complex)),
    )


# The one frame every layer works in, built once at import.
FRAME = canonical_gamma_set()


def tau_conjugate(block: np.ndarray, signature: SpinTensorSignature) -> tuple[np.ndarray, SpinTensorSignature]:
    """Conjugation involution on a spin-tensor component block.

    Complex-conjugates the components and swaps the spinor axis block with the
    conjugate axis block; tensor axes stay in place.  Applying it twice gives
    back the input.  Raises ValueError when the array rank does not match the
    signature.
    """
    block = np.asarray(block)
    if block.ndim != signature.ndim:
        raise ValueError(
            f"signature mismatch: array has {block.ndim} axes, signature expects {signature.ndim}"
        )
    ns = signature.spinor_axes
    nc = signature.conj_axes
    order = (
        list(range(ns, ns + nc))          # conjugate block moves first
        + list(range(ns))                 # then the spinor block
        + list(range(ns + nc, block.ndim))  # tensor block unchanged
    )
    return np.conj(np.transpose(block, order)), signature.swapped()


@dataclass(frozen=True)
class DiracFormReport:
    """Max-norm residuals of the two Dirac-form identities."""

    hermiticity_residual: float
    contraction_residual: float

    def max(self) -> float:
        return max(self.hermiticity_residual, self.contraction_residual)


def check_dirac_form_identities(frame: GammaSet) -> DiracFormReport:
    """Residuals of D's hermiticity and of its gamma contraction symmetry.

    hermiticity: max |D_{a abar} - conj(D_{abar a})|
    contraction: max over q of
        |sum_a D_{a abar} gamma^{a q}_b - sum_sbar D_{b sbar} conj(gamma^{sbar q}_abar)|
    """
    d = frame.dirac_form
    herm = float(np.max(np.abs(d - np.conj(d.T))))
    contraction = 0.0
    for q in range(4):
        lhs = d.T @ frame.gamma[q]                 # indexed (abar, b)
        rhs = (d @ np.conj(frame.gamma[q])).T      # indexed (abar, b)
        contraction = max(contraction, float(np.max(np.abs(lhs - rhs))))
    return DiracFormReport(hermiticity_residual=herm, contraction_residual=contraction)


def clifford_residual(frame: GammaSet) -> float:
    """Max-norm defect of gamma^p gamma^q + gamma^q gamma^p = 2 g^{pq} I.

    The frame metric diag(1, -1, -1, -1) is its own inverse.
    """
    ginv = frame.metric
    eye = np.eye(4)
    worst = 0.0
    for p in range(4):
        for q in range(4):
            anti = frame.gamma[p] @ frame.gamma[q] + frame.gamma[q] @ frame.gamma[p]
            worst = max(worst, float(np.max(np.abs(anti - 2.0 * ginv[p, q] * eye))))
    return worst
