"""Reference side of the Freudenthal data in :mod:`minaff.decomp`.

The dominant-chamber multiplicities handed out as a fresh map, orbit sizes
counted from the doubled coordinates, the total multiplicity mass of an
irreducible summed over orbit sizes, with no orbit expansion, and the Weyl
dimension formula root by root.  Only the tests use them: orbit sizes are
checked against the full orbit closure, the mass against the Weyl dimension
formula and against the full expansion of
:func:`minaff.decomp.irr_character`, and the root-by-root formula against
the closed product of :func:`minaff.cartan.dim_irr`.
"""

from collections import Counter
from math import factorial, prod

from minaff.cartan import _rho2, check_dominant, eps2, fw_from_eps2
from minaff.decomp import _dominant_mults, _dot, positive_roots_eps2


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


def dim_by_roots(n, mu):
    """Weyl dimension formula root by root, on doubled coordinates: the
    product of the pairings of mu + rho with every positive root over the
    same product at rho."""
    check_dominant(n, mu)
    rho = _rho2(n)
    top = tuple(a + b for a, b in zip(eps2(n, mu), rho))
    num = den = 1
    for a in positive_roots_eps2(n):
        num *= _dot(top, a)
        den *= _dot(rho, a)
    q, r = divmod(num, den)
    assert r == 0, f"dimension formula not integral at {mu}"
    return q
