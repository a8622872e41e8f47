"""Highest-weight data and multiplicity tables of regular minimal affinizations.

For a dominant weight and a family label s (one of the three extreme nodes)
this module builds the tensor-factor weights xi_j, their rotated dominant
forms Lambda_j, the nested Demazure polynomial of the associated module and
its multiplicity table.  The s = n-1 family is the fork twin of s = n;
past :func:`xi_sequence`, only :func:`_pre_w0` knows it.

Everything runs on plain maps {key: coefficient}: each rotation pass
shifts by a factor weight and applies the rotation word's Demazure operator
(:func:`minaff.weyl.demazure_word_terms`).  The table is read off the
result by dot-action straightening, with no expansion at all; the full
character, :func:`minaff.polyring.character`, finishes it with the
longest-element pass instead, and a ``char`` or ``decomp`` process never
compiles it.
"""

from collections import namedtuple
from operator import add

from .cartan import (
    _rho2,
    _unit,
    check_dominant,
    eps2,
    fw_from_eps2,
    is_regular,
    resolve_family,
)
from . import CharacterError, InputError, VerificationError, weyl
from .weyl import _dominantize, _dominates


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
    weights as integer keys (a_1, ..., a_n, level, 2 delta)."""

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
    """The fork swap of a finite weight or a key: its two spin coordinates
    exchanged.  On a key it is the relabelling by the fork automorphism,
    which fixes node 0, so the level and 2 delta stay."""
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
    """Dominant affine weights feeding the nested character formula, as a
    tuple of keys, from the tensor-factor weights of s = 1 or n (the fork
    twin is handled by the fork relabelling).

    Entry j < n is the j-th rotation preimage of xi_j; the last entry is
    xi_n itself.
    """
    keys = list(xi_keys)
    sigma_inv = weyl.inverse(weyl.sigma_word(n))
    for j in range(1, n):
        for _ in range(j):
            keys[j - 1] = weyl._act(sigma_inv, keys[j - 1])
    for k in keys:
        if not weyl._is_dominant(n, k):
            raise VerificationError(f"non-dominant factor weight {k}")
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
    {key: coefficient} without zeros, for all three families, of checked (lam, s).

    Innermost factor first: shift by each tensor-factor weight, then run
    the rotation pass (the rotation word's Demazure operator, its diagram
    twist included); the last factor is shifted in unrotated.  The fork
    twin is the fork relabelling of the s = n map of the swapped weight;
    rho is fork-invariant, so the relabelling commutes with both finishes.
    """
    if s == n - 1:
        return {_swap_fork(n, k): c for k, c in _pre_w0(n, _swap_fork(n, lam), n).items()}
    lams = _lambda_keys(n, _xi(n, lam, s).keys)
    sig = weyl.sigma_word(n)
    g = {(0,) * (n + 2): 1}
    for j in range(n - 1, 0, -1):
        g = weyl.demazure_word_terms(sig, _shift(lams[j - 1], g))
    return _shift(lams[n - 1], g)


def _finite_parts(n, terms):
    """The map ``terms`` with level and delta killed: each key cut to its
    finite part, coefficients of equal parts summed."""
    out = {}
    for k, c in terms.items():
        mu = k[:n]
        out[mu] = out.get(mu, 0) + c
    return out


def _straighten(n, terms):
    """Irreducible multiplicities {mu: m} of the longest-element Demazure
    operator applied to the finite weights {mu: c} of ``terms``, rank-n
    int tuples with int coefficients.

    That operator takes e^mu to the Weyl character of mu straightened by
    the dot action.  In rho-shifted doubled coordinates a weight with two
    equal absolute coordinates lies on a wall and contributes nothing; any
    other is sorted into the dominant chamber with the sign of the sorting
    permutation (type D Weyl elements flip an even number of signs, so
    that is their whole sign) and shifted back.
    """
    rho = _rho2(n)
    out = {}
    for mu, c in terms.items():
        x = tuple(map(add, eps2(n, mu), rho))
        mags = [abs(v) for v in x]
        if len(set(mags)) < n:
            continue
        inversions = sum(a < b for i, a in enumerate(mags) for b in mags[i + 1 :])
        nu = fw_from_eps2(n, tuple(a - b for a, b in zip(_dominantize(x), rho)))
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
    """:func:`multiplicity_table` of a checked regular ``lam`` and family ``s``."""
    mults = _straighten(n, _finite_parts(n, _pre_w0(n, lam, s)))
    if mults.get(lam) != 1:
        raise CharacterError(f"leading multiplicity at {lam} must be 1, got {mults.get(lam, 0)}")
    for mu, m in mults.items():
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at {mu}")
        if not _dominates(n, lam, mu):
            raise CharacterError(f"{mu} is not below the highest weight {lam}")
    return mults
