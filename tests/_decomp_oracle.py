"""Reference side of the Freudenthal data in :mod:`minaff.decomp`.

The dominant-chamber multiplicities handed out as a fresh map, orbit sizes
counted from the doubled coordinates, and the total multiplicity mass of an
irreducible summed over orbit sizes, with no orbit expansion.  Only the
tests use them: orbit sizes are checked against the full orbit closure, and
the mass against the Weyl dimension formula and against the full expansion
of :func:`minaff.decomp.irr_character`.
"""

from collections import Counter
from math import factorial, prod

from minaff.cartan import check_dominant, eps2, fw_from_eps2
from minaff.decomp import _dominant_mults


def dominant_mults(n, lam):
    """Freudenthal recursion over the dominant chamber.

    Returns a fresh map from doubled coordinates to weight multiplicities
    for every dominant weight of the irreducible with highest weight
    ``lam``.
    """
    return dict(_dominant_mults(n, tuple(lam)))


def orbit_size(n, mu):
    """Orbit size from the absolute doubled coordinates: every signed
    permutation of them, halved when none is zero (the Weyl group flips an
    even number of signs, and only a zero coordinate absorbs an odd flip)."""
    check_dominant(n, mu)
    mags = [abs(v) for v in eps2(n, mu)]
    size = factorial(n) * 2 ** sum(1 for v in mags if v)
    size //= prod(factorial(k) for k in Counter(mags).values())
    return size if 0 in mags else size // 2


def character_mass(n, mu):
    """Total multiplicity mass via stabilizer orders; no orbit expansion."""
    mu = tuple(mu)
    return sum(
        m * orbit_size(n, fw_from_eps2(n, d)) for d, m in _dominant_mults(n, mu).items()
    )
