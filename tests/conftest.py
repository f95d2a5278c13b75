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


def _patch_pairing_phase(monkeypatch, change):
    """Patch one phase of D^T gamma^2's rows through ``change`` into dynamics'
    rows and into the pair plans that the current's kernel builds from them at
    import."""
    rows = list(_PAIRING_ROWS)
    phase = rows[2].phase.copy()
    phase[0] = change(phase[0])
    rows[2] = _Rows(rows[2].perm, phase)
    monkeypatch.setattr(dynamics, "_PAIRING_ROWS", tuple(rows))
    monkeypatch.setattr(dynamics, "_PAIR_PLANS", {same: dynamics._pair_plan(same) for same in (False, True)})


@pytest.fixture
def non_hermitian_pairing(monkeypatch):
    """D^T gamma^2 with one phase conjugated, which leaves it non-Hermitian, so
    Im J(psi, psi) != 0: a relative reality residual of about 0.5."""
    _patch_pairing_phase(monkeypatch, np.conj)


@pytest.fixture
def nearly_hermitian_pairing(monkeypatch):
    """D^T gamma^2 with one phase scaled by 1 + 4e-10, which leaves it barely
    non-Hermitian: a relative reality residual of about 1e-10, between
    current's bound 1e-13 and 1e-3.  The phase keeps one zero part, as the
    current's pair plans assume."""
    _patch_pairing_phase(monkeypatch, lambda p: p * (1.0 + 4e-10))
