"""Two-qubit input states and seeded samplers.

Basis convention for a qubit pair on chain sites (p, q) with p < q: the state
is a00|00> + a01|01> + a10|10> + a11|11>, where the first slot is site p and
the second slot site q.  |01> therefore means "second site excited".  For the
sender pair the slots are sites (1, 2); for the receiver pair, (N-1, N).

Sampling uses the Philox counter-based generator keyed by the seed, so a seed
identifies a reproducible stream of draws on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import whole_number

_NORM_TOL = 1e-9


@dataclass(frozen=True)
class TwoQubitState:
    """Normalized pure state of a qubit pair, amplitudes in |00>,|01>,|10>,|11> order."""

    a00: complex
    a01: complex
    a10: complex
    a11: complex

    def __post_init__(self):
        for name in ("a00", "a01", "a10", "a11"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        norm = self.norm_squared()
        if not abs(norm - 1.0) <= _NORM_TOL:  # also rejects NaN amplitudes
            raise ValueError(f"state must be finite and normalized: |psi|^2 = {norm!r}")

    def norm_squared(self) -> float:
        return (abs(self.a00) ** 2 + abs(self.a01) ** 2
                + abs(self.a10) ** 2 + abs(self.a11) ** 2)

    def vector(self) -> np.ndarray:
        """Amplitudes as a length-4 complex array [a00, a01, a10, a11]."""
        return np.array([self.a00, self.a01, self.a10, self.a11])

    @classmethod
    def from_vector(cls, v, normalize=False) -> "TwoQubitState":
        v = np.asarray(v, dtype=complex).reshape(4)
        if normalize:
            n = np.linalg.norm(v)
            if not 0 < n < np.inf:
                raise ValueError(f"cannot normalize a vector of norm {n}")
            v = v / n
        return cls(*v)


class SeededSampler:
    """Reproducible random stream keyed by a seed.

    Wraps a Philox counter-based generator; the k-th sample drawn from a
    fresh SeededSampler(seed) is the same on every platform.
    """

    def __init__(self, seed: int):
        seed = whole_number("seed", seed, 0)
        if seed >= 2 ** 64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        self.seed = seed
        self._rng = np.random.Generator(np.random.Philox(key=seed))

    def complex_normals(self, shape) -> np.ndarray:
        """Standard complex normal draws (real and imaginary parts N(0, 1)).

        All real parts are drawn first, then all imaginary parts, through one
        float buffer.
        """
        buf = self._rng.standard_normal(shape)
        z = buf.astype(complex)
        z.imag = self._rng.standard_normal(out=buf)
        return z

    def __repr__(self):
        return f"SeededSampler(seed={self.seed})"


# rows normalized per block, so the squared moduli take one 128 kB buffer
_NORM_BLOCK = 2048


def _normalize_rows(z: np.ndarray) -> np.ndarray:
    """Scale each row of z to unit norm, in place.

    Bit for bit z / np.linalg.norm(z, axis=-1, keepdims=True).  Per block,
    the squared moduli are the real part of conj(z) z, as in the norm, put
    into one reused buffer; their columns are summed in order,
    ((s0 + s1) + s2) + s3, as the norm's reduction sums a short row; and the
    rows are scaled through their float view by the reciprocal of the norm,
    which is how numpy divides a complex by a real.
    """
    squares = np.empty((min(len(z), _NORM_BLOCK), z.shape[-1]), dtype=complex)
    for i in range(0, len(z), _NORM_BLOCK):
        rows = z[i:i + _NORM_BLOCK]
        moduli = squares[:len(rows)]
        np.conjugate(rows, out=moduli)
        moduli *= rows
        columns = moduli.real.T
        norm = columns[0] + columns[1]
        for column in columns[2:]:
            norm += column
        np.sqrt(norm, out=norm)
        np.divide(1.0, norm, out=norm)
        flat = rows.view(float)
        flat *= norm[:, None]
    return z


def sample_haar_2q(sampler: SeededSampler, size=None):
    """Haar-random two-qubit states.

    With size=None returns one TwoQubitState; otherwise an array of shape
    (size, 4) whose rows are [a00, a01, a10, a11].
    """
    n = 1 if size is None else whole_number("size", size, 0)
    v = _normalize_rows(sampler.complex_normals((n, 4)))
    if size is None:
        return TwoQubitState(*v[0])
    return v


def sample_haar_1q(sampler: SeededSampler, size=None):
    """Haar-random single-qubit amplitude pairs [a, b]."""
    n = 1 if size is None else whole_number("size", size, 0)
    v = _normalize_rows(sampler.complex_normals((n, 2)))
    return v[0] if size is None else v


def _draw(sampler: SeededSampler, size, slots):
    """Haar samples from the slice spanned by two basis slots, others zero."""
    n = 1 if size is None else whole_number("size", size, 0)
    # drawn first, so the draw's buffers are freed before the rows are made
    pair = sample_haar_1q(sampler, n)
    v = np.zeros((n, 4), dtype=complex)
    v[:, slots] = pair
    if size is None:
        return TwoQubitState(*v[0])
    return v


def sample_omega1(sampler: SeededSampler, size=None):
    """Haar samples from the single-excitation slice b|01> + c|10>."""
    return _draw(sampler, size, [1, 2])


def sample_omega2(sampler: SeededSampler, size=None):
    """Haar samples from the even slice a|00> + d|11>."""
    return _draw(sampler, size, [0, 3])
