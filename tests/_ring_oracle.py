"""The full-character ring that the program's plain maps replaced.

Elements are maps from integer keys (a_1, ..., a_n, level, 2 delta) to
nonzero integers, so every operation is integer arithmetic on int tuples.
The constructor, :meth:`CharElem.monomial` and :meth:`CharElem.coeff`
check each key they are given; operation results go through a trusted
constructor that skips the check.  Both constructors end in ``_set``, the
one place an element drops zero coefficients: every operation sums into a
plain map, cancelled keys included, and hands it over.

The keys are in fundamental coordinates, and the Demazure operator is
applied monomial by monomial through its integer string form on the
fundamental-coordinate kernel of ``_weyl_oracle``
(:func:`_weyl_oracle.demazure_terms`), never by polynomial division; the
twist is that kernel's too.  The program runs its own kernel, in doubled
orthogonal coordinates, so the element route shares no kernel code with
it.  The word operator, :meth:`CharElem.demazure_word`, is written here
on its own, on the words of ``_weyl_oracle``, and checks that the word is
reduced, so it is a reference for :func:`minaff.weyl.demazure_letters`
followed by :func:`minaff.weyl.key_twist`, conjugated by ``eps2``.
Elements are immutable; all operations return new elements.

The tests check the ring laws and the Demazure identities on elements,
build the nested polynomial by the element route (:func:`pre_w0_oracle`,
on the rotated factor weights of the chamber walk),
and hand characters to the greedy peel of ``_decomp_oracle`` as
finite-tagged elements (:func:`finite_char`).  The element route keeps
the level and the 2 delta slot of every key, which the program's nested
polynomial does not carry: the graded Kirillov-Reshetikhin check reads
its 2 delta slices, and the map-path test merges it by finite part.
"""

from operator import add

from minaff import InputError
from minaff.affinization import _straighten, _xi
from minaff.cartan import check_node, check_rank, eps2
from minaff.weyl import fw_from_eps2
from _weyl_oracle import (
    act, checked_tau, demazure_terms, is_reduced, key_twist, lambda_keys_by_walk, sigma_word
)


def _checked_rank(n):
    if n.__class__ is not int or n < 1:
        raise InputError(f"coordinate rank must be a positive integer, got {n!r}")
    return n


def _checked_key(n, k):
    """``k`` if it is a tuple of n + 2 ints, else InputError; a bool or a
    float is not an int here."""
    if k.__class__ is not tuple or len(k) != n + 2 or any(v.__class__ is not int for v in k):
        raise InputError(f"key {k!r} is not a tuple of {n + 2} integers")
    return k


def _checked_terms(n, terms):
    """``terms`` as a fresh map, each key checked and each coefficient an int."""
    out = {}
    for k, v in terms.items():
        if v.__class__ is not int:
            raise InputError(f"coefficient {v!r} at {k!r} is not an integer")
        out[_checked_key(n, k)] = v
    return out


class CharElem:
    """Formal integer combination of lattice points e^mu.

    ``affine`` tags the lattice: affine-tagged elements may carry level and
    delta; finite-tagged elements must not.  The same container also serves
    finite character rings of other rank data, where only the plain ring
    operations apply.  Keys are int tuples of length n + 2.
    """

    __slots__ = ("n", "affine", "_terms")

    def __init__(self, n, terms=None, affine=True):
        self._set(_checked_rank(n), _checked_terms(n, terms or {}), affine)

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
    def monomial(cls, n, key, coeff=1, affine=True):
        return cls(n, {_checked_key(_checked_rank(n), key): coeff}, affine)

    @classmethod
    def one(cls, n, affine=True):
        return cls(n, {(0,) * (_checked_rank(n) + 2): 1}, affine)

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

    def coeff(self, key):
        return self._terms.get(_checked_key(self.n, key), 0)

    def items(self):
        """The (key, coefficient) pairs, as a list in no fixed order."""
        return list(self._terms.items())

    def mass(self):
        """Sum of all coefficients (the dimension, for a module character)."""
        return sum(self._terms.values())

    def __repr__(self):
        parts = [f"{v}*e{k}" for k, v in sorted(self._terms.items())[:6]]
        more = "" if len(self._terms) <= 6 else f" ... ({len(self._terms)} terms)"
        return f"CharElem[{' + '.join(parts) or '0'}{more}]"

    # -- Demazure operators --------------------------------------------------

    def demazure(self, i):
        """One divided-difference step at node i, through the string form
        of :func:`_weyl_oracle.demazure_terms`.  The defining rational
        identity is pinned by the test suite.
        """
        if not self.affine:
            raise InputError("Demazure operators act on affine-tagged elements")
        check_rank(self.n)
        check_node(self.n, i, 0)
        return CharElem._of(self.n, demazure_terms(self.n, i, self._terms))

    def demazure_word(self, w):
        """Composite operator along a reduced word, then the prefix twist."""
        if w.n != self.n:
            raise InputError("rank mismatch")
        if not is_reduced(w):
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
        twist = key_twist(self.n, checked_tau(self.n, tau))
        return CharElem._of(self.n, {twist(k): v for k, v in self._terms.items()}, self.affine)

    def relabel_weyl(self, w):
        """Relabel keys by a Weyl group element (exact orbit map)."""
        out = {}
        for k, v in self._terms.items():
            kk = act(w, k)
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


def finite_char(n, ch):
    """The character map {mu: c} of finite weights as a finite-tagged element."""
    return CharElem(n, {mu + (0, 0): c for mu, c in ch.items()}, affine=False)


def swap_fork(n, mu):
    """The finite weight ``mu`` with its two spin coordinates exchanged."""
    return mu[: n - 2] + (mu[n - 1], mu[n - 2])


def pre_w0_oracle(n, lam, s):
    """The nested polynomial before the longest-element pass by the
    element route, for s = 1 or n: CharElem products and the word operator
    of the rotation word, which checks the word on every pass, on keys
    that keep the level and 2 delta, from the rotated factor weights of
    the chamber walk."""
    lams = lambda_keys_by_walk(n, _xi(n, lam, s).keys)
    sig = sigma_word(n)
    g = CharElem.one(n)
    for j in range(n - 1, 0, -1):
        g = (CharElem.monomial(n, lams[j - 1]) * g).demazure_word(sig)
    return CharElem.monomial(n, lams[n - 1]) * g


def straightened(n, terms):
    """The program's straightening of a map of finite weights in
    fundamental coordinates, conjugated by eps2: the table {mu: m} in
    fundamental coordinates."""
    table = _straighten(n, {eps2(n, mu): c for mu, c in terms.items()})
    return {fw_from_eps2(n, d): m for d, m in table.items()}
