import numpy as np
import pytest

from diracfock import PhysicalConstants, canonical_gamma_set, dynamics
from diracfock.spin_algebra import _PAIRING_ROWS, _Rows


@pytest.fixture(scope="session")
def gs():
    return canonical_gamma_set()


@pytest.fixture(scope="session")
def nat():
    return PhysicalConstants.natural_units(mass=1.0)


@pytest.fixture
def non_hermitian_pairing(monkeypatch):
    """D^T gamma^2 with one phase conjugated, which leaves it non-Hermitian, so
    Im J(psi, psi) != 0: patched into dynamics' rows and into the pair plans
    that the current's kernel builds from them at import."""
    rows = list(_PAIRING_ROWS)
    phase = rows[2].phase.copy()
    phase[0] = np.conj(phase[0])
    rows[2] = _Rows(rows[2].perm, phase)
    monkeypatch.setattr(dynamics, "_PAIRING_ROWS", tuple(rows))
    monkeypatch.setattr(dynamics, "_PAIR_PLANS", {same: dynamics._pair_plan(same) for same in (False, True)})
