"""Occupation states, ladder operators, anticommutators, and Slater vectors."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracfock import (
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
from diracfock.fock import _adjoint_residual, _anticommutator_residual, _ladder_map


def test_occupation_bitset_round_trip():
    for indices in [(), (0,), (0, 2), (1, 3, 5), (0, 1, 2, 3)]:
        state = occupation_from_indices(indices)
        assert indices_from_occupation(state) == indices
        assert particle_number(state) == len(indices)
    with pytest.raises(ValueError):
        occupation_from_indices((2, 1))
    with pytest.raises(ValueError):
        occupation_from_indices((0, 0))
    with pytest.raises(ValueError):
        occupation_from_indices((-1,))
    with pytest.raises(ValueError):
        indices_from_occupation(-3)


def test_ladder_on_sorted_slot_states():
    # one occupied mode below the acted slot flips the sign
    assert (annihilate(2, basis_state((0, 2))) + basis_state((0,))).norm() == 0.0
    assert (create(1, basis_state((0, 2))) + basis_state((0, 1, 2))).is_zero()
    assert create(0, basis_state((0,))).is_zero()
    assert annihilate(1, basis_state((0,))).is_zero()


def test_ladder_positional_signs():
    assert (create(3, basis_state((0, 1))) - basis_state((0, 1, 3))).is_zero()
    assert (annihilate(0, basis_state((0, 1))) - basis_state((1,))).is_zero()
    assert (annihilate(1, basis_state((0, 1))) + basis_state((0,))).is_zero()
    assert (create(0, vacuum()) - basis_state((0,))).is_zero()


def test_antisymmetrize_examples():
    assert (antisymmetrize((3, 1, 2)) - basis_state((1, 2, 3))).is_zero()
    assert (antisymmetrize((2, 1)) + basis_state((1, 2))).is_zero()
    assert antisymmetrize((1, 1)).is_zero()
    assert antisymmetrize((0, 1, 0)).is_zero()
    assert (antisymmetrize((0, 5)) - basis_state((0, 5))).is_zero()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.permutations(list(range(5))))
def test_antisymmetrize_carries_the_sorting_parity(perm):
    expected = permutation_parity(perm) * basis_state(tuple(range(5)))
    assert (antisymmetrize(perm) - expected).is_zero()


def test_permutation_parity_agrees_with_transposition_count():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        perm = list(rng.permutation(n))
        # parity from explicit bubble sort
        work, swaps = list(perm), 0
        for a in range(n):
            for b in range(n - 1 - a):
                if work[b] > work[b + 1]:
                    work[b], work[b + 1] = work[b + 1], work[b]
                    swaps += 1
        assert permutation_parity(perm) == (-1) ** swaps


@pytest.mark.parametrize("nmodes", range(1, 9))
def test_car_residuals_are_exact_zero(nmodes):
    rep = car_report(nmodes)
    assert rep.annihilate_pairs == 0.0
    assert rep.create_pairs == 0.0
    assert rep.mixed_pairs == 0.0
    assert rep.adjointness == 0.0
    assert rep.max() == 0.0


def _dense_residual(x, y, shift):
    return float(np.max(np.abs(x @ y + y @ x - shift * np.eye(len(x)))))


def _dense(ladder):
    rows, entries = ladder
    m = np.zeros((len(rows), len(rows)))
    m[rows, np.arange(len(rows))] = entries
    return m


@st.composite
def _partial_signed_permutation(draw, dim):
    """(row, entry) maps of a matrix with at most one nonzero per row and column."""
    rows = np.array(draw(st.permutations(list(range(dim)))))
    entries = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0]), min_size=dim, max_size=dim)))
    return rows, entries


def _flipped_ladder_pair():
    """annihilate(1) of 3 modes with one sign flipped, and create(1): {a, c} - I != 0."""
    rows, entries = _ladder_map(1, 3, occupied=True)
    entries[np.flatnonzero(entries)[0]] *= -1.0
    return (rows, entries), _ladder_map(1, 3, occupied=False)


@settings(derandomize=True, deadline=None, max_examples=200)
@example(_flipped_ladder_pair(), 1.0)
@given(st.integers(1, 12).flatmap(
    lambda dim: st.tuples(_partial_signed_permutation(dim), _partial_signed_permutation(dim))),
    st.sampled_from([0.0, 1.0]))
def test_column_map_residual_equals_the_dense_one(pair, shift):
    x, y = pair
    stacked = [tuple(v[None] for v in m) for m in pair]
    assert _anticommutator_residual(*stacked, shift) == _dense_residual(_dense(x), _dense(y), shift)


@settings(derandomize=True, deadline=None, max_examples=200)
@example(_flipped_ladder_pair())
@given(st.integers(1, 12).flatmap(
    lambda dim: st.tuples(_partial_signed_permutation(dim), _partial_signed_permutation(dim))))
def test_column_map_adjoint_residual_equals_the_dense_one(pair):
    x, y = pair
    stacked = [tuple(v[None] for v in m) for m in pair]
    assert _adjoint_residual(*stacked) == float(np.max(np.abs(_dense(x) - _dense(y).T)))


def test_operator_matrix_adjointness_and_validation():
    # the ladder matrices are held as (row, entry) column maps: the create map
    # inverts the annihilate map with the same sign, so C_i = A_i^T
    for nmodes in (2, 4):
        for i in range(nmodes):
            a_rows, a_entries = _ladder_map(i, nmodes, occupied=True)
            c_rows, c_entries = _ladder_map(i, nmodes, occupied=False)
            for state in np.flatnonzero(a_entries):
                assert c_rows[a_rows[state]] == state
                assert c_entries[a_rows[state]] == a_entries[state]
            assert np.count_nonzero(c_entries) == np.count_nonzero(a_entries) == 1 << (nmodes - 1)
    with pytest.raises(ValueError):
        annihilate(-1, vacuum())


@pytest.mark.parametrize("nmodes", range(1, 6))
def test_operator_matrix_columns_are_the_ladder(nmodes):
    # the CAR rows check the ladder column maps; each column must be the ladder
    # operator that builds the Slater vectors, applied to that basis state
    for occupied, op in ((False, create), (True, annihilate)):
        for i in range(nmodes):
            rows, entries = _ladder_map(i, nmodes, occupied)
            for state in range(1 << nmodes):
                image = op(i, FockVector({state: 1.0}))
                if entries[state]:
                    assert dict(image) == {int(rows[state]): complex(entries[state])}
                else:
                    assert image.is_zero() and rows[state] == 0


def test_multiparticle_inner_orthonormal_basis():
    states = [(), (0,), (1,), (0, 1), (0, 2, 4)]
    for a in states:
        for b in states:
            got = multiparticle_inner(basis_state(a), basis_state(b))
            assert got == (1.0 if a == b else 0.0)
    # conjugate linear in the first argument
    u = (0.3 + 0.4j) * basis_state((0,))
    v = basis_state((0,))
    assert multiparticle_inner(u, v) == (0.3 - 0.4j)
    assert multiparticle_inner(v, u) == (0.3 + 0.4j)


def slater(coeffs):
    """c+(row 0) ... c+(row n-1) applied to the vacuum."""
    out = vacuum()
    for row in reversed(coeffs):
        acc = FockVector()
        for b, c in enumerate(row):
            acc = acc + c * create(b, out)
        out = acc
    return out


def test_slater_inner_equals_gram_determinant():
    rng = np.random.default_rng(21)
    for n in (2, 3, 4):
        nm = 6
        u = rng.standard_normal((n, nm)) + 1j * rng.standard_normal((n, nm))
        v = rng.standard_normal((n, nm)) + 1j * rng.standard_normal((n, nm))
        gram = np.conj(u) @ v.T
        got = multiparticle_inner(slater(u), slater(v))
        want = np.linalg.det(gram)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_slater_with_dependent_rows_vanishes():
    rng = np.random.default_rng(22)
    row = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    dependent = np.stack([row, 2.0 * row])
    assert slater(dependent).norm() <= 1e-14


def test_fock_vector_algebra_and_pruning():
    v = basis_state((0, 2)) + 2.0j * basis_state((1,))
    assert v.norm() == pytest.approx(np.sqrt(5.0))
    assert (v - v).is_zero()
    assert len(v - v) == 0
    assert multiparticle_inner(v, v) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        FockVector({-2: 1.0})


def test_numpy_scalars_multiply_into_fock_vectors():
    # ndarray ops must defer to the vector's own scalar multiplication
    v = basis_state((0,))
    for scalar in (np.float64(2.0), np.complex128(1.0 - 1.0j)):
        out = scalar * v
        assert isinstance(out, FockVector)
        assert out[1] == complex(scalar)
        out = v * scalar
        assert isinstance(out, FockVector)


def test_dump_round_trip():
    v = basis_state((0, 3)) + (0.5 - 0.25j) * basis_state((1,)) + 1e-17 * basis_state((2,))
    text = format_fock_vector(v)
    back = parse_fock_vector(text)
    assert (back - v).is_zero()
    assert format_fock_vector(FockVector()) == ""
    assert parse_fock_vector("\n\n").is_zero()


@pytest.mark.parametrize("text", ["[0 1 1 0\n", "[0 x] 1 0\n", "[0 1] 1 y\n", "[1 0] 1 0\n"],
                         ids=["unclosed", "index", "imaginary", "unsorted"])
def test_every_malformed_line_is_named(text):
    with pytest.raises(ValueError, match="^line 2: "):
        parse_fock_vector("[0] 1.0 0.0\n" + text)


def test_dump_parse_errors():
    with pytest.raises(ValueError):
        parse_fock_vector("0 1 2\n")
    with pytest.raises(ValueError):
        parse_fock_vector("[0] 1.0\n")
    with pytest.raises(ValueError):
        parse_fock_vector("[0] 1.0 0.0\n[0] 2.0 0.0\n")
