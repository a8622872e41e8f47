"""Highest-weight data and multiplicity tables of regular minimal affinizations.

For a dominant weight and a family label s (one of the three extreme nodes)
this module builds the tensor-factor weights xi_j, their rotated dominant
forms Lambda_j, the nested Demazure polynomial of the associated module and
its multiplicity table.  The s = n-1 family is the fork twin of s = n;
past :func:`xi_sequence`, only :func:`_pre_w0` knows it.

Everything runs on plain maps and on the kernel of :mod:`minaff.weyl`, in
its frame.  The rotated factor weights are keys, each a closed form
(:func:`minaff.weyl._dominant_key`), so a table process builds no word and
walks no chamber.  The nested polynomial is a map {d: coefficient} of
finite weights at one shared level: each rotation pass runs the rotation's
letters (:func:`minaff.weyl.demazure_letters`) and relabels by its prefix
at that level (:func:`minaff.weyl.finite_twist`).  The table is read off
the result by dot-action straightening, with no expansion at all, and its
rows alone go back to fundamental coordinates; the full character,
:func:`minaff.polyring.character`, finishes it with the longest-element
pass instead, and a ``char`` or ``decomp`` process never compiles it.
"""

from collections import namedtuple
from operator import add, sub

from .cartan import (
    _rho2,
    _unit,
    check_dominant,
    eps2,
    is_regular,
    resolve_family,
)
from . import CharacterError, InputError, VerificationError, weyl
from .weyl import _dominantize, _dominates, fw_from_eps2


class XiSequence(
    namedtuple(
        "XiSequence",
        ("n", "s", "lam", "keys", "m", "m_prime", "cut", "lambda_bar"),
        defaults=(None, None, None, None),
    )
):
    """Tensor-factor weights for one family, plus the bookkeeping that
    produced them: the spin split (m, m_prime) for s = 1, the cut index and
    leftover bar coordinate for s = n and its fork twin.  ``keys`` holds the
    weights as integer keys (a_1, ..., a_n, level, 2 delta) in fundamental
    coordinates, not in the frame of :mod:`minaff.weyl`."""

    __slots__ = ()


def _level_one(n, j):
    """Key of the level-one weight varpi_j + Lambda_0."""
    return _unit(n, j) + (1, 0)


def _scaled(c, k):
    return tuple(c * v for v in k)


def _plus(*keys):
    return tuple(map(sum, zip(*keys)))


def _xi_family_one(n, lam):
    lm, lmp = max(lam[n - 2], lam[n - 1]), min(lam[n - 2], lam[n - 1])
    m = n - 1 if lam[n - 2] >= lam[n - 1] else n
    mp = n + (n - 1) - m
    keys = [_scaled(lam[j - 1], _level_one(n, j)) for j in range(1, n - 1)]
    keys.append(_scaled(lmp, _plus(_level_one(n, n - 1), _unit(n, n) + (0, 0))))
    keys.append(_scaled(lm - lmp, _level_one(n, m)))
    return tuple(keys), m, mp


def _cut_index(n, lam):
    """Largest start of a tail of chain coordinates still covering the
    n-1 coordinate; 0 when even the full chain falls short."""
    if sum(lam[: n - 3]) < lam[n - 2]:
        return 0
    return max(j for j in range(1, n - 2) if sum(lam[j - 1 : n - 3]) >= lam[n - 2])


def _xi_family_n(n, lam):
    cut = _cut_index(n, lam)
    lbar = lam[n - 2] - sum(lam[cut : n - 3])
    spin = _unit(n, n - 1) + (0, 0)
    lambda0 = (0,) * n + (1, 0)
    keys = []
    for j in range(1, n + 1):
        if j == n - 1:
            xi = (0,) * (n + 2)
        elif j < cut or j in (n - 2, n):
            xi = _scaled(lam[j - 1], _level_one(n, j))
        elif j == cut:
            xi = _plus(_scaled(lam[j - 1], _level_one(n, j)), _scaled(lbar, spin))
        else:  # cut < j < n-2
            xi = _scaled(lam[j - 1], _plus(_level_one(n, j), spin))
            if cut == 0 and j == 1:
                xi = _plus(xi, _scaled(lbar, _plus(spin, lambda0)))
        keys.append(xi)
    return tuple(keys), cut, lbar


def _swap_fork(n, k):
    """The fork swap of a finite weight or a key in fundamental coordinates:
    its spin coordinates exchanged.  On a key it is the relabelling by the
    fork automorphism, which fixes node 0, so the level and 2 delta stay."""
    return k[: n - 2] + (k[n - 1], k[n - 2]) + k[n:]


def xi_sequence(n, lam, s):
    """The n tensor-factor weights of a dominant weight and family, checked here."""
    lam = tuple(lam)
    check_dominant(n, lam)
    return _xi(n, lam, resolve_family(n, s))


def _xi(n, lam, s):
    """:func:`xi_sequence` of a checked dominant ``lam`` and family ``s``."""
    if s == 1:
        keys, m, mp = _xi_family_one(n, lam)
        return XiSequence(n, s, lam, keys, m=m, m_prime=mp)
    if s == n - 1:  # the s = n data of the swapped weight, swapped back
        swapped = _xi(n, _swap_fork(n, lam), n)
        return swapped._replace(s=s, lam=lam, keys=tuple(_swap_fork(n, k) for k in swapped.keys))
    keys, cut, lbar = _xi_family_n(n, lam)
    return XiSequence(n, s, lam, keys, cut=cut, lambda_bar=lbar)


def _lambda_keys(n, xi_keys):
    """The dominant keys Lambda_j = sigma^-j xi_j (j < n), then xi_n, in the
    frame of :mod:`minaff.weyl`, from the tensor-factor weights of s = 1 or
    n.  A weight of positive level has one dominant point in its affine
    Weyl orbit (V. G. Kac, Infinite-dimensional Lie algebras, Prop. 3.12),
    and sigma^-j is tau^j, tau the rotation word's prefix (an involution),
    times an affine Weyl element: Lambda_j is the dominant point of the
    orbit of xi_j (:func:`minaff.weyl._dominant_key`), relabelled by tau
    when j is odd.  A factor with no dominant point (negative level, or
    level 0 and a finite part) is refused; one of level 0 and no finite
    part, a multiple of delta, is dominant as it stands."""
    tau = weyl.key_twist(n, weyl.sigma_pair(n)[0])
    keys = [eps2(n, xi[:n]) + xi[n:] for xi in xi_keys]
    for j, xi in enumerate(xi_keys[: n - 1], 1):
        if xi[n] < 0 or xi[n] == 0 and any(xi[:n]):
            raise VerificationError(f"factor weight {xi} of level {xi[n]} has no dominant point")
        top = weyl._dominant_key(n, keys[j - 1]) if xi[n] else keys[j - 1]
        keys[j - 1] = tau(top) if j % 2 else top
    return tuple(keys)


def _regular_input(n, lam, s):
    """Checked (lam, s) for the character pipeline; refuses weights outside
    the regular classification."""
    lam = tuple(lam)
    regular = is_regular(n, lam)
    s = resolve_family(n, s)
    if not regular:
        raise InputError(
            f"weight {lam} is outside the regular classification "
            "(full spread support with zero fork coordinate)"
        )
    return lam, s


def _shift(k, terms):
    """The map ``terms`` times e^k: every key shifted by ``k``."""
    return {tuple(map(add, kk, k)): c for kk, c in terms.items()}


def _pre_w0(n, lam, s):
    """The nested polynomial before the longest-element pass, as a map
    {d: coefficient} of finite weights of the frame without zeros, for all
    three families, of checked (lam, s).

    Innermost factor first: shift by each rotated factor weight's finite
    part and add its level, then run the rotation's letters (finite nodes,
    which read no delta) and relabel by its prefix at that level; the last
    factor is shifted in unrotated.  The fork twin is the fork relabelling
    (d_n to -d_n) of the s = n map of the swapped weight; rho is
    fork-invariant, so the relabelling commutes with both finishes.
    """
    if s == n - 1:
        return {d[:-1] + (-d[-1],): c for d, c in _pre_w0(n, _swap_fork(n, lam), n).items()}
    lams = _lambda_keys(n, _xi(n, lam, s).keys)
    tau, letters = weyl.sigma_pair(n)
    twist = weyl.finite_twist(n, tau)
    g, level = {(0,) * n: 1}, 0
    for j in range(n - 1, 0, -1):
        level += lams[j - 1][n]
        g = weyl.demazure_letters(n, letters, _shift(lams[j - 1][:n], g))
        g = {twist(mu, level): c for mu, c in g.items()}
    return _shift(lams[n - 1][:n], g)


def _straighten(n, terms):
    """Irreducible multiplicities {d: m} of the longest-element Demazure
    operator applied to the finite weights {d: c} of ``terms``, rank-n
    points of the frame with int coefficients, keyed by the frame points
    of the highest weights.

    That operator takes e^mu to the Weyl character of mu straightened by
    the dot action.  Shifted by rho, a weight with two equal absolute
    coordinates lies on a wall and contributes nothing; any other is
    sorted into the dominant chamber with the sign of the sorting
    permutation (type D Weyl elements flip an even number of signs, so
    that is their whole sign) and shifted back.
    """
    rho = _rho2(n)
    out = {}
    for d, c in terms.items():
        x = tuple(map(add, d, rho))
        mags = [abs(v) for v in x]
        if len(set(mags)) < n:
            continue
        inversions = sum(a < b for i, a in enumerate(mags) for b in mags[i + 1 :])
        nu = tuple(map(sub, _dominantize(x), rho))
        out[nu] = out.get(nu, 0) + (-c if inversions % 2 else c)
    return {nu: m for nu, m in out.items() if m}


def multiplicity_table(n, lam, s):
    """Multiplicities {mu: m} of the irreducibles in the character of the
    minimal affinization (:func:`minaff.polyring.character`).

    The longest-element operator takes e^mu to the Weyl character of mu
    straightened by the dot action, so the table is read off the nested
    polynomial before that pass (:func:`_straighten`); the full
    character is never expanded.
    """
    return _table(n, *_regular_input(n, lam, s))


def _table(n, lam, s):
    """:func:`multiplicity_table` of a checked regular ``lam`` and family
    ``s``: the straightened rows checked in the frame, then read back
    into fundamental coordinates."""
    top = eps2(n, lam)
    mults = _straighten(n, _pre_w0(n, lam, s))
    if mults.get(top) != 1:
        raise CharacterError(f"leading multiplicity at {lam} must be 1, got {mults.get(top, 0)}")
    for d, m in mults.items():
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at {fw_from_eps2(n, d)}")
        if not _dominates(n, top, d):
            raise CharacterError(f"{fw_from_eps2(n, d)} is not below the highest weight {lam}")
    return {fw_from_eps2(n, d): m for d, m in mults.items()}
