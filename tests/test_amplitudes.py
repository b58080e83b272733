"""Determinant amplitudes for multi-excitation transfer."""

import itertools

import numpy as np
import pytest

from spinbus import (
    amplitude_rp,
    build_chain,
    decompose_chain,
    propagator_minor,
)


def test_single_excitation_reduces_to_propagator():
    rng = np.random.default_rng(17)
    dec = decompose_chain(build_chain(6, 1, 2.0))
    for _ in range(10):
        i, j = rng.integers(1, 7, 2)
        t = rng.uniform(0.0, 30.0)
        a = amplitude_rp(dec, (int(j),), (int(i),), t)
        assert abs(a - propagator_minor(dec, (int(j),), (int(i),), t)[0, 0]) < 1e-14


def test_two_excitation_determinant_explicit():
    dec = decompose_chain(build_chain(7, 2, 8.0))
    t = 2.6
    m = propagator_minor(dec, (4, 6), (1, 2), t)
    expected = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert abs(amplitude_rp(dec, (4, 6), (1, 2), t) - expected) < 1e-14


def test_three_excitation_matches_numpy_det():
    dec = decompose_chain(build_chain(8, 1, 5.0))
    t = 1.9
    m = propagator_minor(dec, (2, 5, 7), (1, 3, 4), t)
    assert abs(amplitude_rp(dec, (2, 5, 7), (1, 3, 4), t) - np.linalg.det(m)) < 1e-13


def test_amplitudes_conserve_probability():
    """Summing |amplitude|^2 over all ordered target pairs gives 1."""
    n = 7
    dec = decompose_chain(build_chain(n, 2, 6.0))
    for t in (0.7, 9.2):
        total = sum(
            abs(amplitude_rp(dec, pair, (1, 2), t)) ** 2
            for pair in itertools.combinations(range(1, n + 1), 2)
        )
        assert abs(total - 1.0) < 1e-12, f"t={t}: sum={total}"


def test_group_property():
    # G(t+s) minors obey Cauchy-Binet over intermediate configurations
    n = 6
    dec = decompose_chain(build_chain(n, 1, 3.0))
    t, s = 1.3, 2.4
    direct = amplitude_rp(dec, (4, 6), (1, 2), t + s)
    summed = sum(
        amplitude_rp(dec, (4, 6), mid, s) * amplitude_rp(dec, mid, (1, 2), t)
        for mid in itertools.combinations(range(1, n + 1), 2)
    )
    assert abs(direct - summed) < 1e-12


def test_identity_at_time_zero():
    dec = decompose_chain(build_chain(9, 2, 14.0))
    assert abs(amplitude_rp(dec, (1, 2), (1, 2), 0.0) - 1.0) < 1e-13
    assert abs(amplitude_rp(dec, (8, 9), (1, 2), 0.0)) < 1e-13


def test_requires_ordered_distinct_sites():
    dec = decompose_chain(build_chain(6))
    with pytest.raises(ValueError):
        amplitude_rp(dec, (3, 2), (1, 2), 1.0)
    with pytest.raises(ValueError):
        amplitude_rp(dec, (2, 2), (1, 2), 1.0)
    with pytest.raises(ValueError):
        amplitude_rp(dec, (2, 3), (1,), 1.0)
    with pytest.raises(ValueError):
        amplitude_rp(dec, (), (), 1.0)


@pytest.mark.parametrize("targets, sources", [
    ((6.5, 7), (1, 2)), ((6, 7.0), (1, 2)), ((6, 7), (True, 2)),
])
def test_sites_must_be_whole_numbers(targets, sources):
    # int() would read 6.5 and 7.0 as sites 6 and 7, and True as site 1
    dec = decompose_chain(build_chain(7, 2, 5.0))
    with pytest.raises(ValueError, match="site"):
        amplitude_rp(dec, targets, sources, 3.0)
