"""Sparse exact character polynomials over the affine and finite weight lattices.

Elements are maps from affine weights to nonzero integers.  They store each
weight under its integer key (a_1, ..., a_n, level, 2 delta) from
:mod:`weyl`, so every operation is integer arithmetic on int tuples; an
``AffineWeight`` appears only at the boundary (the constructor,
:meth:`CharElem.monomial`, :meth:`CharElem.coeff` and
:meth:`CharElem.items`).  Operation results go through a trusted
constructor that skips the conversion; both constructors end in
``_set``, the one place zero coefficients are dropped: every operation
sums into a plain map, cancelled keys included, and hands it over.  The Demazure operator is applied monomial by monomial through its
integer string form, never by polynomial division.  Elements are immutable;
all operations return new elements.
"""

from operator import add

from .cartan import AffineWeight, check_rank
from .errors import InputError
from . import weyl


class CharElem:
    """Formal integer combination of lattice points e^mu.

    ``affine`` tags the lattice: affine-tagged elements may carry level and
    delta; finite-tagged elements must not.  The same container also serves
    finite character rings of other rank data, where only the plain ring
    operations apply.  Deltas must be multiples of 1/2.
    """

    __slots__ = ("n", "affine", "_terms")

    def __init__(self, n, terms=None, affine=True):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"coordinate rank must be a positive integer, got {n!r}")
        keys = {}
        for x, v in (terms or {}).items():
            if not isinstance(x, AffineWeight):
                x = AffineWeight(x)
            if x.n != n:
                raise InputError(f"key {x} has rank {x.n}, element has rank {n}")
            keys[weyl.key_of(x)] = v
        self._set(n, keys, affine)

    def _set(self, n, terms, affine):
        self.n = n
        self.affine = affine
        self._terms = {k: v for k, v in terms.items() if v}
        if not affine and any(k[n] or k[n + 1] for k in self._terms):
            raise InputError("finite-tagged element with a level or delta")

    @classmethod
    def _of(cls, n, terms, affine=True):
        """The element with integer-keyed ``terms`` of rank n: the trusted
        constructor of operation results."""
        f = cls.__new__(cls)
        f._set(n, terms, affine)
        return f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n, affine=True):
        return cls(n, {}, affine)

    @classmethod
    def monomial(cls, x, coeff=1, affine=True):
        if not isinstance(x, AffineWeight):
            x = AffineWeight(x)
        return cls(x.n, {x: coeff}, affine)

    @classmethod
    def one(cls, n, affine=True):
        return cls.monomial(AffineWeight((0,) * n), 1, affine)

    # -- ring structure ----------------------------------------------------

    def _check_tag(self, other):
        if self.n != other.n or self.affine != other.affine:
            raise InputError("lattice tag mismatch")

    def __add__(self, other):
        if not isinstance(other, CharElem):
            return NotImplemented
        self._check_tag(other)
        out = dict(self._terms)
        for k, v in other._terms.items():
            out[k] = out.get(k, 0) + v
        return CharElem._of(self.n, out, self.affine)

    def __sub__(self, other):
        if not isinstance(other, CharElem):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return CharElem._of(
                self.n, {k: other * v for k, v in self._terms.items()}, self.affine
            )
        if not isinstance(other, CharElem):
            return NotImplemented
        self._check_tag(other)
        small, big = (
            (self._terms, other._terms)
            if len(self._terms) <= len(other._terms)
            else (other._terms, self._terms)
        )
        out = {}
        for k1, v1 in small.items():
            for k2, v2 in big.items():
                k = tuple(map(add, k1, k2))
                out[k] = out.get(k, 0) + v1 * v2
        return CharElem._of(self.n, out, self.affine)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CharElem)
            and self.n == other.n
            and self.affine == other.affine
            and self._terms == other._terms
        )

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def coeff(self, x):
        if not isinstance(x, AffineWeight):
            x = AffineWeight(x)
        return self._terms.get(weyl.key_of(x), 0)

    def items(self):
        """The (weight, coefficient) pairs, as a list in no fixed order."""
        return [(weyl.weight_of(k), v) for k, v in self._terms.items()]

    def mass(self):
        """Sum of all coefficients (the dimension, for a module character)."""
        return sum(self._terms.values())

    def items_sorted(self):
        """The (weight, coefficient) pairs by finite part, level, then delta."""
        return [(weyl.weight_of(k), v) for k, v in sorted(self._terms.items())]

    def __repr__(self):
        parts = [f"{v}*e{k.finite, k.level, str(k.delta)}" for k, v in self.items_sorted()[:6]]
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return f"CharElem[{' + '.join(parts) or '0'}{more}]"

    # -- Demazure operators --------------------------------------------------

    def demazure(self, i):
        """One divided-difference step at node i.

        Per monomial with coroot pairing m: a descending string of length
        m+1 when m >= 0, nothing when m = -1, and a negated ascending string
        of length -m-1 otherwise.  The defining rational identity is pinned
        by the test suite.
        """
        if not self.affine:
            raise InputError("Demazure operators act on affine-tagged elements")
        check_rank(self.n)
        return CharElem._of(self.n, _demazure_terms(self.n, i, self._terms))

    def demazure_word(self, w):
        """Composite operator along a reduced word, then the prefix twist."""
        if w.n != self.n:
            raise InputError("rank mismatch")
        if not weyl.is_reduced(w):
            raise InputError(f"word {w.word} is not reduced")
        f = self
        for i in reversed(w.word):
            f = f.demazure(i)
        if w.tau != tuple(range(self.n + 1)):
            f = f.twist(w.tau)
        return f

    def twist(self, tau):
        """Relabel every key by a diagram automorphism."""
        if hasattr(tau, "tau"):
            if tau.word:
                raise InputError("twist expects a pure automorphism")
            tau = tau.tau
        twist = weyl.key_twist(self.n, tuple(tau))
        return CharElem._of(self.n, {twist(k): v for k, v in self._terms.items()}, self.affine)

    def relabel_weyl(self, w):
        """Relabel keys by a Weyl group element (exact orbit map)."""
        out = {}
        for k, v in self._terms.items():
            kk = weyl.act_key(w, k)
            out[kk] = out.get(kk, 0) + v
        return CharElem._of(self.n, out, self.affine)

    def specialize(self):
        """Kill level and delta: project keys to their finite parts."""
        if not self.affine:
            raise InputError("element is already finite-tagged")
        n = self.n
        out = {}
        for k, v in self._terms.items():
            kk = k[:n] + (0, 0)
            out[kk] = out.get(kk, 0) + v
        return CharElem._of(n, out, affine=False)


def _demazure_terms(n, i, terms):
    out = {}
    up = weyl.alpha_key(n, i)
    down = tuple(-a for a in up)
    pair = weyl.key_pairing(n, i)
    for k, c in terms.items():
        m = pair(k)
        if m >= 0:
            # c times the descending string k, k - alpha, ..., k - m alpha
            step, count, sign = down, m + 1, c
        else:
            # -c times the ascending string k + alpha, ..., k + (-m-1) alpha,
            # empty when m = -1
            k, step, count, sign = tuple(map(add, k, up)), up, -m - 1, -c
        for _ in range(count):
            out[k] = out.get(k, 0) + sign
            k = tuple(map(add, k, step))
    return out
