"""Reference side of the Freudenthal data in :mod:`minaff.decomp`.

The dominant-chamber multiplicities handed out as a fresh map, and the total
multiplicity mass of an irreducible summed over orbit sizes, with no orbit
expansion.  Only the tests use them: the mass is checked against the Weyl
dimension formula and against the full expansion of
:func:`minaff.decomp.irr_character`.
"""

from minaff.cartan import fw_from_eps2
from minaff.decomp import _dominant_mults, orbit_size


def dominant_mults(n, lam):
    """Freudenthal recursion over the dominant chamber.

    Returns a fresh map from doubled coordinates to weight multiplicities
    for every dominant weight of the irreducible with highest weight
    ``lam``.
    """
    return dict(_dominant_mults(n, tuple(lam)))


def character_mass(n, mu):
    """Total multiplicity mass via stabilizer orders; no orbit expansion."""
    mu = tuple(mu)
    return sum(
        m * orbit_size(n, fw_from_eps2(n, d)) for d, m in _dominant_mults(n, mu).items()
    )
