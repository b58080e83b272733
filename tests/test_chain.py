"""Chain geometry, coupling profiles, and single-particle Hamiltonian layout."""

import numpy as np
import pytest

from spinbus import (
    BALLISTIC,
    ENGINEERED,
    UNIFORM,
    ChainSpec,
    build_chain,
    hamiltonian_matrix,
)


def test_barrier_placement():
    assert build_chain(7, 2, 1.0).barriers == (3, 5)
    assert build_chain(9, 1, 1.0).barriers == (2, 8)
    assert build_chain(12, 3, 0.5).barriers == (4, 9)
    assert build_chain(5).barriers is None


def test_uniform_hamiltonian_entries():
    ham = hamiltonian_matrix(build_chain(7, 2, 5.0))
    assert np.array_equal(ham.diagonal, [0.0, 0.0, -10.0, 0.0, -10.0, 0.0, 0.0])
    assert np.array_equal(ham.offdiagonal, [-2.0] * 6)
    dense = ham.to_dense()
    assert dense.shape == (7, 7)
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("profile", [UNIFORM, ENGINEERED, BALLISTIC])
@pytest.mark.parametrize("n_sites", range(2, 17))
def test_dense_matrix_is_the_entrywise_assembly(profile, n_sites):
    """The entries are -2 h and -2 J, and to_dense writes the three diagonals
    through strides of the flat view: bit for bit the matrix set entry by
    entry, with and without a barrier field (the sign of a zero field's -0.0
    included)."""
    specs = [build_chain(n_sites, profile=profile)]
    if n_sites >= 5:
        specs.append(build_chain(n_sites, (n_sites - 3) // 2, 7.5, profile))
    for spec in specs:
        ham = hamiltonian_matrix(spec)
        assert ham.diagonal.tobytes() == (-2.0 * spec.site_fields()).tobytes()
        assert ham.offdiagonal.tobytes() == (-2.0 * spec.couplings()).tobytes()
        expected = np.zeros((n_sites, n_sites))
        for i, d in enumerate(ham.diagonal):
            expected[i, i] = d
        for i, o in enumerate(ham.offdiagonal):
            expected[i, i + 1] = expected[i + 1, i] = o
        dense = ham.to_dense()
        assert np.array_equal(dense, np.diag(ham.diagonal) + np.diag(ham.offdiagonal, 1)
                              + np.diag(ham.offdiagonal, -1))
        assert dense.tobytes() == expected.tobytes()


def test_engineered_couplings():
    # N=4: sqrt(l(N-l)) gives (sqrt3, 2, sqrt3)
    spec = build_chain(4, profile=ENGINEERED)
    expected = np.sqrt([3.0, 4.0, 3.0])
    np.testing.assert_allclose(spec.couplings(), expected, atol=1e-15)


def test_ballistic_couplings():
    spec = build_chain(6, profile=BALLISTIC, ballistic_c=1.030)
    j = spec.couplings()
    boosted = 1.030 * 6 ** (-1.0 / 6.0)
    np.testing.assert_allclose(j[0], boosted, atol=1e-15)
    np.testing.assert_allclose(j[-1], boosted, atol=1e-15)
    assert np.all(j[1:-1] == 1.0)


def test_field_requires_room_for_blocks():
    with pytest.raises(ValueError):
        build_chain(3, 1, 4.0)  # barriers would collide
    with pytest.raises(ValueError):
        build_chain(5, 2, 4.0)
    build_chain(5, 1, 4.0)  # smallest legal barrier layout


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_chain(1)
    with pytest.raises(ValueError):
        build_chain(7, 0, 1.0)
    with pytest.raises(ValueError):
        build_chain(7, 2, -1.0)
    with pytest.raises(ValueError):
        build_chain(7, 2, 1.0, profile="nonsense")
    with pytest.raises(ValueError):
        ChainSpec(n_sites=7, block=4, field=1.0)


def test_spec_is_immutable():
    spec = build_chain(7, 2, 5.0)
    with pytest.raises(Exception):
        spec.field = 9.0
    assert not spec.couplings().flags.writeable


def test_field_zero_block_optional():
    spec = build_chain(8)
    assert spec.site_fields().tolist() == [0.0] * 8
    ham = hamiltonian_matrix(spec)
    assert np.all(ham.diagonal == 0.0)


@pytest.mark.parametrize("n_sites, block", [(7.9, 2), (7, 2.6), (7.0, 2), (7, True)])
def test_lengths_must_be_whole_numbers(n_sites, block):
    # int() would build 7.9 sites as 7 and a block of True as 1
    with pytest.raises(ValueError, match="n_sites|block"):
        build_chain(n_sites, block, 5.0)


def test_numpy_integer_lengths_are_stored_as_int():
    spec = build_chain(np.int64(7), np.int64(2), 5.0)
    assert (spec.n_sites, spec.block) == (7, 2)
    assert type(spec.n_sites) is int and type(spec.block) is int


@pytest.mark.parametrize("field, ballistic_c", [(True, 1.03), ("5", 1.03), (5.0, True),
                                                (5.0, "1.03"), (None, 1.03)])
def test_field_and_prefactor_must_be_real_numbers(field, ballistic_c):
    # float() would read True as 1.0 and "5" as 5.0
    with pytest.raises(ValueError, match="field|ballistic_c"):
        build_chain(7, 2, field, ballistic_c=ballistic_c)
    with pytest.raises(ValueError, match="field|ballistic_c"):
        ChainSpec(7, 2, field, ballistic_c=ballistic_c)


def test_real_fields_are_stored_as_float():
    for field in (5, np.float32(5.0), np.int64(5)):
        spec = ChainSpec(7, 2, field, ballistic_c=1)
        assert (spec.field, spec.ballistic_c) == (5.0, 1.0)
        assert type(spec.field) is float and type(spec.ballistic_c) is float


@pytest.mark.parametrize("field, ballistic_c", [(1e308, 1.03), (np.inf, 1.03), (np.nan, 1.03),
                                                (5.0, 1.7e308), (5.0, np.inf)])
def test_matrix_entries_must_be_finite(field, ballistic_c):
    # a finite h = 1e308 has the entry -2h = -inf, and c = 1.7e308 the end
    # bonds' -2 c N^(-1/6) = -inf at N = 7: their spectrum would be NaN
    with pytest.raises(ValueError, match="finite matrix entry"):
        build_chain(7, 2, field, BALLISTIC, ballistic_c)


def test_largest_finite_entries_are_accepted():
    # -2h = -1.78e308 and, at c = 1e308, -2 c 7^(-1/6) = -1.45e308 are finite
    assert hamiltonian_matrix(build_chain(7, 2, 8.9e307)).diagonal.min() == -1.78e308
    spec = build_chain(7, 2, 5.0, BALLISTIC, 1e308)
    assert np.isfinite(hamiltonian_matrix(spec).offdiagonal).all()
