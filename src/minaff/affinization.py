"""Highest-weight data and characters of regular minimal affinizations.

For a dominant weight and a family label s (one of the three extreme nodes)
this module builds the tensor-factor weights xi_j, their rotated dominant
forms Lambda_j, the nested Demazure character of the associated module,
its multiplicity table, and the classifying polynomial data.  The table is
read off the nested polynomial before the longest-element pass by
dot-action straightening, with no expansion at all.  The s = n-1 family is
obtained from s = n by the fork swap throughout.
"""

from collections import namedtuple
from functools import lru_cache

from .cartan import (
    _dominantize,
    _rho2,
    check_dominant,
    dominates,
    eps2,
    fw_from_eps2,
    is_regular,
    resolve_family,
    varpi,
)
from .errors import CharacterError, InputError, VerificationError
from .polyring import CharElem
from . import weyl


# The two weight-sequence records hold integer keys (see weyl.key_of);
# ``entries`` reads them as affine weights.
_entries = property(lambda self: tuple(map(weyl.weight_of, self.keys)))


class XiSequence(
    namedtuple(
        "XiSequence",
        ("n", "s", "lam", "keys", "m", "m_prime", "cut", "lambda_bar"),
        defaults=(None, None, None, None),
    )
):
    """Tensor-factor weights for one family, plus the bookkeeping that
    produced them: the spin split (m, m_prime) for s = 1, the cut index and
    leftover bar coordinate for s = n and its fork twin."""

    __slots__ = ()
    entries = _entries


def _level_one(n, j):
    """Key of the level-one weight varpi_j + Lambda_0."""
    return varpi(n, j) + (1, 0)


def _scaled(c, k):
    return tuple(c * v for v in k)


def _plus(*keys):
    return tuple(map(sum, zip(*keys)))


def _xi_family_one(n, lam):
    lm, lmp = max(lam[n - 2], lam[n - 1]), min(lam[n - 2], lam[n - 1])
    m = n - 1 if lam[n - 2] >= lam[n - 1] else n
    mp = n + (n - 1) - m
    keys = [_scaled(lam[j - 1], _level_one(n, j)) for j in range(1, n - 1)]
    keys.append(_scaled(lmp, _plus(_level_one(n, n - 1), varpi(n, n) + (0, 0))))
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
    spin = varpi(n, n - 1) + (0, 0)
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


def _swap_fork(n, lam):
    return lam[: n - 2] + (lam[n - 1], lam[n - 2])


def xi_sequence(n, lam, s):
    """The n tensor-factor weights for the given dominant weight and family."""
    lam = tuple(lam)
    check_dominant(n, lam)
    s = resolve_family(n, s)
    if s == 1:
        keys, m, mp = _xi_family_one(n, lam)
        return XiSequence(n, s, lam, keys, m=m, m_prime=mp)
    if s == n:
        keys, cut, lbar = _xi_family_n(n, lam)
        return XiSequence(n, s, lam, keys, cut=cut, lambda_bar=lbar)
    # fork twin: swap, build the s = n data, swap back
    inner = xi_sequence(n, _swap_fork(n, lam), n)
    keys = tuple(map(weyl.key_twist(n, weyl.tau_fork(n).tau), inner.keys))
    return XiSequence(n, s, lam, keys, cut=inner.cut, lambda_bar=inner.lambda_bar)


class LambdaSequence(namedtuple("LambdaSequence", ("n", "s", "lam", "keys"))):
    __slots__ = ()
    entries = _entries


def lambda_sequence(n, lam, s):
    """Dominant affine weights feeding the nested character formula.

    Entry j < n is the j-th rotation preimage of xi_j; the last entry is
    xi_n itself.  Only the families s = 1 and s = n are rotated directly;
    the fork twin goes through the character-level twist instead.
    """
    lam = tuple(lam)
    check_dominant(n, lam)
    s = resolve_family(n, s)
    if s == n - 1:
        raise InputError("the fork twin family is handled by the character twist")
    xi = xi_sequence(n, lam, s)
    sigma_inv = weyl.inverse(weyl.sigma_word(n))
    keys = []
    rot = weyl.identity(n)
    for j in range(1, n):
        rot = weyl.compose(rot, sigma_inv)
        keys.append(weyl.act_key(rot, xi.keys[j - 1]))
    keys.append(xi.keys[n - 1])
    for k in keys:
        if not weyl.is_dominant_key(k):
            raise VerificationError(f"non-dominant factor weight {weyl.weight_of(k)}")
    return LambdaSequence(n, s, lam, tuple(keys))


@lru_cache(maxsize=None)
def _assert_nesting_legal(n):
    """Length additivity of the composite word behind the nested formula."""
    w = weyl.longest_word(n)
    comp = w
    sig = weyl.sigma_word(n)
    for _ in range(n - 1):
        comp = weyl.compose(comp, sig)
    expected = n * (n - 1) + (n - 1) * (n - 1)
    got = weyl.length(comp)
    if got != expected:
        raise VerificationError(f"length additivity failed at rank {n}: {got} != {expected}")
    return True


def _regular_input(n, lam, s):
    """Checked (lam, s) for the character pipeline; refuses weights outside
    the regular classification."""
    lam = tuple(lam)
    check_dominant(n, lam)
    s = resolve_family(n, s)
    if not is_regular(n, lam):
        raise InputError(
            f"weight {lam} is outside the regular classification "
            "(full spread support with zero fork coordinate)"
        )
    return lam, s


# The most terms the nested polynomial may reach after a rotation pass.
# Measured on a 2-vCPU Xeon VM: no case of the tests, the README or the
# benchmark passes 1,012 terms; rank 9 reaches 98,116 terms at
# (1,1,0,1,1,1,1,1,1) and 148,692 at (1,...,1), in 2.8 s and 3.7 s.  A pass
# multiplies the count by about n, so a refused job stops one pass beyond
# the limit.
MAX_TERMS = 200_000


def _pre_w0(n, lam, s):
    """The nested polynomial before the longest-element pass, s in {1, n}.

    Innermost factor first: multiply in each tensor-factor weight, then
    rotate-and-expand with the rotation operator; the last factor is
    multiplied in unrotated.  Refuses with InputError once a pass leaves
    more than MAX_TERMS terms.
    """
    _assert_nesting_legal(n)
    lams = lambda_sequence(n, lam, s).keys
    sig = weyl.sigma_word(n)
    g = CharElem._of(n, {(0,) * (n + 2): 1})
    for j in range(n - 1, 0, -1):
        g = (CharElem._of(n, {lams[j - 1]: 1}) * g).demazure_word(sig)
        if len(g) > MAX_TERMS:
            raise InputError(
                f"rank {n} weight {lam}: the nested polynomial passed the limit of "
                f"{MAX_TERMS} terms, so the job is refused"
            )
    return CharElem._of(n, {lams[n - 1]: 1}) * g


def straighten(f):
    """Irreducible multiplicities {mu: m} of the longest-element Demazure
    operator applied to the finite element ``f``.

    That operator takes e^mu to the Weyl character of mu straightened by
    the dot action.  In rho-shifted doubled coordinates a weight with two
    equal absolute coordinates lies on a wall and contributes nothing; any
    other is sorted into the dominant chamber with the sign of the sorting
    permutation (type D Weyl elements flip an even number of signs, so
    that is their whole sign) and shifted back.
    """
    if f.affine:
        raise InputError("straighten expects a finite-tagged element")
    n = f.n
    rho = _rho2(n)
    out = {}
    for k, c in f._terms.items():
        x = tuple(a + b for a, b in zip(eps2(n, k[:n]), rho))
        mags = [abs(v) for v in x]
        if len(set(mags)) < n:
            continue
        inversions = sum(a < b for i, a in enumerate(mags) for b in mags[i + 1 :])
        mu = fw_from_eps2(n, tuple(a - b for a, b in zip(_dominantize(x), rho)))
        out[mu] = out.get(mu, 0) + (-c if inversions % 2 else c)
    return {mu: m for mu, m in out.items() if m}


def character(n, lam, s):
    """Finite character of the minimal affinization, exact.

    The nested polynomial, finished with the longest-element operator, with
    level and delta killed.  The fork twin is the fork swap of the s = n
    character of the swapped weight.
    """
    lam, s = _regular_input(n, lam, s)
    if s == n - 1:
        ch = character(n, _swap_fork(n, lam), n)
        return ch.twist(weyl.tau_fork(n).tau)
    g = _pre_w0(n, lam, s).demazure_word(weyl.longest_word(n))
    ch = g.specialize()
    if ch.coeff(lam) != 1:
        raise CharacterError(f"leading coefficient at {lam} must be 1")
    return ch


def multiplicity_table(n, lam, s):
    """Multiplicities {mu: m} of the irreducibles in :func:`character`.

    The longest-element operator takes e^mu to the Weyl character of mu
    straightened by the dot action, so the table is read off the nested
    polynomial before that pass (:func:`straighten`); the full
    character is never expanded.  The fork twin is the fork swap of the
    s = n table of the swapped weight.
    """
    lam, s = _regular_input(n, lam, s)
    if s == n - 1:
        inner = multiplicity_table(n, _swap_fork(n, lam), n)
        return {_swap_fork(n, mu): m for mu, m in inner.items()}
    mults = straighten(_pre_w0(n, lam, s).specialize())
    if mults.get(lam) != 1:
        raise CharacterError(f"leading multiplicity at {lam} must be 1, got {mults.get(lam, 0)}")
    for mu, m in mults.items():
        if m < 0:
            raise CharacterError(f"negative multiplicity {m} at {mu}")
        if not dominates(n, lam, mu):
            raise CharacterError(f"{mu} is not below the highest weight {lam}")
    return mults


class DrinfeldSpec(namedtuple("DrinfeldSpec", ("n", "s", "lam", "epsilon", "factors"))):
    """Classifying polynomial data: one factor per supported node, each a
    (node, degree, power-offset) triple relative to a symbolic base point."""

    __slots__ = ()

    @property
    def wt(self):
        out = [0] * self.n
        for i, m, _ in self.factors:
            out[i - 1] += m
        return tuple(out)


def drinfeld(n, lam, s, epsilon=1):
    """Offsets of the spectral parameters, instantiated exactly."""
    lam = tuple(lam)
    check_dominant(n, lam)
    s = resolve_family(n, s)
    if epsilon not in (1, -1):
        raise InputError(f"epsilon must be +1 or -1, got {epsilon}")
    chain = lam[0] + 2 * sum(lam[1 : n - 2])

    def offset(i):
        if i == 1:
            return 0
        if 2 <= i <= n - 2:
            e = lam[0] + 2 * sum(lam[1 : i - 1]) + lam[i - 1] + i - 1
        elif s == 1 or i == s:
            e = chain + lam[i - 1] + n - 2
        else:
            e = lam[0] + 2 * sum(lam[1 : n - 3]) - lam[i - 1] + n - 4
        return epsilon * e

    factors = tuple((i, lam[i - 1], offset(i)) for i in range(1, n + 1) if lam[i - 1] > 0)
    return DrinfeldSpec(n, s, lam, epsilon, factors)
