"""Sparse exact character polynomials over the affine and finite weight lattices.

Elements are maps from affine weights to nonzero integers.  The constructor
is the one place zero coefficients are dropped: every operation sums into a
plain map, cancelled keys included, and hands it to the constructor.  The
Demazure operator is applied monomial by monomial through its integer
string form, never by polynomial division, so every operation stays in
exact integer arithmetic.  Elements are immutable; all operations return
new elements.
"""

from .cartan import AffineWeight, check_rank, pairing
from .errors import InputError
from . import weyl


class CharElem:
    """Formal integer combination of lattice points e^mu.

    ``affine`` tags the lattice: affine-tagged elements may carry level and
    delta; finite-tagged elements must not.  The same container also serves
    finite character rings of other rank data, where only the plain ring
    operations apply.
    """

    __slots__ = ("n", "affine", "terms")

    def __init__(self, n, terms=None, affine=True):
        if not isinstance(n, int) or n < 1:
            raise InputError(f"coordinate rank must be a positive integer, got {n!r}")
        self.n = n
        self.affine = affine
        clean = {}
        for k, v in (terms or {}).items():
            if not isinstance(k, AffineWeight):
                k = AffineWeight(k)
            if k.n != n:
                raise InputError(f"key {k} has rank {k.n}, element has rank {n}")
            if v:
                if not affine and not k.is_finite():
                    raise InputError(f"finite-tagged element with affine key {k}")
                clean[k] = v
        self.terms = clean

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
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return CharElem(self.n, out, self.affine)

    def __sub__(self, other):
        if not isinstance(other, CharElem):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, other):
        if isinstance(other, int):
            return CharElem(
                self.n, {k: other * v for k, v in self.terms.items()}, self.affine
            )
        if not isinstance(other, CharElem):
            return NotImplemented
        self._check_tag(other)
        small, big = (
            (self.terms, other.terms)
            if len(self.terms) <= len(other.terms)
            else (other.terms, self.terms)
        )
        out = {}
        for k1, v1 in small.items():
            for k2, v2 in big.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return CharElem(self.n, out, self.affine)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, CharElem)
            and self.n == other.n
            and self.affine == other.affine
            and self.terms == other.terms
        )

    def __len__(self):
        return len(self.terms)

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, x):
        if not isinstance(x, AffineWeight):
            x = AffineWeight(x)
        return self.terms.get(x, 0)

    def mass(self):
        """Sum of all coefficients (the dimension, for a module character)."""
        return sum(self.terms.values())

    def items_sorted(self):
        return sorted(self.terms.items(), key=lambda kv: (kv[0].finite, kv[0].level, kv[0].delta))

    def __repr__(self):
        parts = [f"{v}*e{k.finite, k.level, str(k.delta)}" for k, v in self.items_sorted()[:6]]
        more = "" if len(self.terms) <= 6 else f" ... ({len(self.terms)} terms)"
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
        return CharElem(self.n, _demazure_terms(self.n, i, self.terms), True)

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
        out = {}
        for k, v in self.terms.items():
            out[weyl.tau_on_weight(tau, k)] = v
        return CharElem(self.n, out, self.affine)

    def relabel_weyl(self, w):
        """Relabel keys by a Weyl group element (exact orbit map)."""
        out = {}
        for k, v in self.terms.items():
            kk = weyl.act(w, k)
            out[kk] = out.get(kk, 0) + v
        return CharElem(self.n, out, self.affine)

    def specialize(self):
        """Kill level and delta: project keys to their finite parts."""
        if not self.affine:
            raise InputError("element is already finite-tagged")
        out = {}
        for k, v in self.terms.items():
            kk = AffineWeight(k.finite)
            out[kk] = out.get(kk, 0) + v
        return CharElem(self.n, out, affine=False)


def _demazure_terms(n, i, terms):
    out = {}
    alpha = weyl._alpha_wt(n, i)
    up = alpha.finite, alpha.delta
    down = tuple(-a for a in alpha.finite), -alpha.delta
    for mu, c in terms.items():
        m = pairing(i, mu)
        if m >= 0:
            # c times the descending string mu, mu - alpha, ..., mu - m alpha
            fin, dlt, step, count, sign = mu.finite, mu.delta, down, m + 1, c
        else:
            # -c times the ascending string mu + alpha, ..., mu + (-m-1) alpha,
            # empty when m = -1
            fin = tuple(a + b for a, b in zip(mu.finite, alpha.finite))
            dlt, step, count, sign = mu.delta + alpha.delta, up, -m - 1, -c
        sf, sd = step
        for _ in range(count):
            k = AffineWeight(fin, mu.level, dlt)
            out[k] = out.get(k, 0) + sign
            fin = tuple(a + b for a, b in zip(fin, sf))
            dlt += sd
    return out
