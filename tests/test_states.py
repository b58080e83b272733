"""Qubit-pair states, seeded sampling, and Haar-measure statistics."""

import numpy as np
import pytest
from scipy import stats

from spinbus import (
    SeededSampler,
    TwoQubitState,
    sample_haar_1q,
    sample_haar_2q,
    sample_omega1,
    sample_omega2,
)


def test_state_norm_enforced():
    TwoQubitState(1.0, 0.0, 0.0, 0.0)
    inv = np.sqrt(0.5)
    TwoQubitState(inv, 0.0, 0.0, inv * 1j)
    with pytest.raises(ValueError):
        TwoQubitState(1.0, 0.5, 0.0, 0.0)
    for bad in (np.nan, complex(0.0, np.nan), np.inf):
        with pytest.raises(ValueError):
            TwoQubitState(bad, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            TwoQubitState.from_vector([bad, 0.0, 0.0, 1.0], normalize=True)


def test_from_vector_normalization():
    st = TwoQubitState.from_vector([2.0, 0.0, 0.0, 2.0], normalize=True)
    assert abs(st.a00 - np.sqrt(0.5)) < 1e-12
    with pytest.raises(ValueError):
        TwoQubitState.from_vector([2.0, 0.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        TwoQubitState.from_vector([0.0, 0.0, 0.0, 0.0], normalize=True)


def test_vector_order():
    st = TwoQubitState.from_vector([0.1, 0.2, 0.3, np.sqrt(0.86)])
    v = st.vector()
    assert v[0] == st.a00 and v[1] == st.a01 and v[2] == st.a10 and v[3] == st.a11


def test_sampler_determinism_and_streams():
    a = SeededSampler(9).complex_normals((4,))
    b = SeededSampler(9).complex_normals((4,))
    np.testing.assert_array_equal(a, b)
    assert not np.allclose(a, SeededSampler(10).complex_normals((4,)))


def test_sampler_frozen_first_draw():
    """Regression pin: first Haar draw for seed 42 must never change."""
    st = sample_haar_2q(SeededSampler(42))
    np.testing.assert_allclose(
        st.vector(),
        [
            0.1279701111472126 + 0.2332130567456609j,
            -0.2965069129810195 + 0.41444948516717145j,
            -0.11980213511730263 + 0.1435633997530389j,
            -0.7965506655950272 - 0.009727868638698194j,
        ],
        atol=1e-15,
    )


def test_restricted_samplers_zero_out_sectors():
    n = 64
    v1 = sample_omega1(SeededSampler(5), size=n)
    assert v1.shape == (n, 4)
    assert np.all(v1[:, 0] == 0) and np.all(v1[:, 3] == 0)
    v2 = sample_omega2(SeededSampler(5), size=n)
    assert np.all(v2[:, 1] == 0) and np.all(v2[:, 2] == 0)
    np.testing.assert_allclose(np.sum(np.abs(v2) ** 2, axis=1), 1.0, atol=1e-12)
    # both restricted samplers draw the same underlying pair of coefficients
    np.testing.assert_array_equal(v1[:, 1], v2[:, 0])


def _reference_normals(seed, shape):
    """The sampler's stream written out: all real parts, then all imaginary parts."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    re = rng.standard_normal(shape)
    im = rng.standard_normal(shape)
    return re + 1j * im


def _reference_haar(seed, n, width):
    z = _reference_normals(seed, (n, width))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


@pytest.mark.parametrize("n", [1, 7, 2047, 2048, 2049, 10000])
def test_draws_match_the_stream_written_out(n):
    """The draws and their normalization, which run through one buffer and in
    row blocks, give the bits of the plain recipe on either side of a block edge."""
    seed = 7919 + n
    np.testing.assert_array_equal(SeededSampler(seed).complex_normals((n, 4)),
                                  _reference_normals(seed, (n, 4)))
    np.testing.assert_array_equal(sample_haar_2q(SeededSampler(seed), size=n),
                                  _reference_haar(seed, n, 4))
    pair = _reference_haar(seed, n, 2)
    np.testing.assert_array_equal(sample_haar_1q(SeededSampler(seed), size=n), pair)
    for draw, slots in ((sample_omega1, [1, 2]), (sample_omega2, [0, 3])):
        want = np.zeros((n, 4), dtype=complex)
        want[:, slots] = pair
        np.testing.assert_array_equal(draw(SeededSampler(seed), size=n), want)


def test_haar_moments():
    n = 200000
    v = sample_haar_2q(SeededSampler(12), size=n)
    p = np.abs(v) ** 2
    # CP^3 moments: E p^2 = 1/10, E p_i p_j = 1/20
    assert abs(np.mean(p[:, 0] ** 2) - 0.1) < 2e-3
    assert abs(np.mean(p[:, 1] * p[:, 2]) - 0.05) < 1e-3
    b = sample_haar_1q(SeededSampler(12), size=n)
    q = np.abs(b) ** 2
    # CP^1 moments: E q^2 = 1/3, E q0 q1 = 1/6
    assert abs(np.mean(q[:, 0] ** 2) - 1.0 / 3.0) < 2e-3
    assert abs(np.mean(q[:, 0] * q[:, 1]) - 1.0 / 6.0) < 1e-3


def test_haar_overlap_distribution():
    # squared overlap with a fixed state follows Beta(1, 3)
    n = 50000
    v = sample_haar_2q(SeededSampler(8), size=n)
    overlap = np.abs(v[:, 3]) ** 2
    result = stats.kstest(overlap, stats.beta(1, 3).cdf)
    assert result.pvalue > 1e-3, f"KS p-value {result.pvalue}"


def test_invalid_seed_rejected():
    with pytest.raises(ValueError):
        SeededSampler(-1)
    with pytest.raises(ValueError):
        SeededSampler(1 << 64)


@pytest.mark.parametrize("seed", [2.5, 3.0, True, "3"])
def test_seed_must_be_a_whole_number(seed):
    # int() would key 2.5 as seed 2 and True as seed 1
    with pytest.raises(ValueError, match="seed"):
        SeededSampler(seed)


@pytest.mark.parametrize("draw", [sample_haar_2q, sample_haar_1q, sample_omega1, sample_omega2])
@pytest.mark.parametrize("size", [2.7, 2.0, True, -1, "3"])
def test_sample_size_must_be_a_whole_number(draw, size):
    # int() would draw 2 rows for a size of 2.7 and 1 for True
    with pytest.raises(ValueError, match="size"):
        draw(SeededSampler(0), size=size)


@pytest.mark.parametrize("draw", [sample_haar_2q, sample_haar_1q, sample_omega1, sample_omega2])
def test_sample_size_takes_zero_and_numpy_integers(draw):
    assert len(draw(SeededSampler(0), size=0)) == 0
    rows = draw(SeededSampler(0), size=np.int64(3))
    assert np.array_equal(rows, draw(SeededSampler(0), size=3))
