"""Physical constants entering the field equations."""

from __future__ import annotations

from dataclasses import dataclass

# CGS values, NIST-quoted digits.
HBAR_CGS = 1.05457168e-27  # erg s
C_CGS = 2.99792458e10      # cm / s


@dataclass(frozen=True)
class PhysicalConstants:
    """Planck constant, speed of light and particle mass for one model run.

    Natural units are the dimensionless convention hbar = c = 1; CGS is the
    dimensional alternative (erg s, cm/s, g).
    """

    hbar: float
    c: float
    mass: float

    def __post_init__(self) -> None:
        if not (self.hbar > 0 and self.c > 0):
            raise ValueError("hbar and c must be positive")
        if self.mass < 0:
            raise ValueError("mass must be non-negative")

    @classmethod
    def natural_units(cls, mass: float = 1.0) -> "PhysicalConstants":
        return cls(hbar=1.0, c=1.0, mass=mass)

    @classmethod
    def cgs(cls, mass: float) -> "PhysicalConstants":
        return cls(hbar=HBAR_CGS, c=C_CGS, mass=mass)

    @property
    def compton_wavenumber(self) -> float:
        """mc / hbar, the inverse length scale of the mass term."""
        return self.mass * self.c / self.hbar
