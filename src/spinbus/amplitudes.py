"""Multi-excitation transition amplitudes as determinants of propagator minors.

For r excitations prepared on sites i_1 < ... < i_r, the amplitude to find
them on sites j_1 < ... < j_r after time t is the r x r determinant of the
single-excitation propagator restricted to those rows and columns.  This is
the free-fermion collapse of the many-body evolution; the brute-force sector
oracle certifies it, including the overall sign.
"""

from __future__ import annotations

import numpy as np

from .spectral import SpectralDecomposition, propagator_minor


def _check_ordered(name, sites):
    sites = tuple(sites)  # spectral rejects an empty one and a site that is not a whole number
    if any(b <= a for a, b in zip(sites, sites[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {sites}")
    return sites


def amplitude_rp(dec: SpectralDecomposition, targets, sources, t: float) -> complex:
    """r-excitation transition amplitude from sources to targets.

    Both site tuples must be strictly increasing and of equal length.
    r = 2 uses the explicit 2 x 2 determinant; larger r goes through
    LU-based det on the complex minor.
    """
    targets = _check_ordered("targets", targets)
    sources = _check_ordered("sources", sources)
    if len(targets) != len(sources):
        raise ValueError(
            f"target and source counts differ: {len(targets)} vs {len(sources)}"
        )
    m = propagator_minor(dec, targets, sources, t)
    r = len(targets)
    if r == 1:
        return complex(m[0, 0])
    if r == 2:
        return complex(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
    return complex(np.linalg.det(m))
