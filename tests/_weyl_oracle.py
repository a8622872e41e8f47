"""The fundamental-coordinate key kernel, rational affine weights, the
extended affine Weyl group as words, the positive roots in simple-root
coordinates and their family subsets, the affine root action, the
root-by-root descent, the twist by norm preservation, and the family
labels, branch sets and diagram swaps by their definitions, kept as a
reference.

minaff runs its kernel in one frame, doubled orthogonal coordinates
(``cartan.eps2``).  This module keeps the kernel it replaced, on keys
(a_1, ..., a_n, level, 2 delta) in fundamental coordinates: the pairings
read one coordinate, or the level minus the highest root's marks at node
0, and the simple roots are the columns of the Cartan matrix
(:func:`root_to_fw`).  Every frame function of ``minaff.weyl`` and
``minaff.verify`` is pinned against its function here conjugated by eps2
(:func:`frame_key`, :func:`fw_key`), and the ring oracle runs its Demazure
step and twist on this kernel, so the element route shares no kernel code
with the program.

It also keeps the weight with an exact rational delta, any denominator,
acting on it through the key kernel plus a delta shift, so the kernel is
pinned on deltas the keys cannot hold.

The extended affine Weyl group as words lives here too: an automorphism
prefix (one of the four generated by the two diagram swaps, each its own
inverse) and a tuple of reflection letters, read left to right, rightmost
applied first, with products, inverses and the action on keys through
the simple reflection of this kernel (:func:`reflect_key`).
:func:`reduce_word` walks w^-1 rho-hat into the dominant chamber, and
:func:`length` reads the reduced word: the oracle for ``verify``'s
hyperplane count.  :func:`longest_word` keeps the walk from -rho that
``polyring._w0_letters`` replaced with a closed form.
:func:`descent_oracle` keeps the older construction the walk replaced,
which strips right descents found by acting on the affine simple roots,
so the two can be compared word for word.  :func:`key_twist` permutes
coroot pairings; this module keeps the expansion over the fundamental
weights that it replaced, each mapped to its image with the delta
correction that norm preservation forces.  :func:`element_images` is a
fingerprint of a group element, the action on a basis of the affine
weight space, which reads no reduced word.  ``affinization._lambda_keys`` reads each rotated factor weight off
a closed form; this module keeps the two routes it replaced, the chamber
walk (:func:`lambda_keys_by_walk`) and the inverse rotation word applied
j times to the j-th factor (:func:`lambda_keys_by_rotation`), and the
affine dominance test they are checked by.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add, itemgetter, mul

from minaff import InputError, VerificationError, weyl
from minaff.cartan import _unit, check_node, check_rank, check_weight, eps2, varpi
from minaff.verify import _identity_tau, finite_edges
from minaff.weyl import fw_from_eps2


# ---------------------------------------------------------------------------
# The labels by their definitions.  minaff writes each of them in closed
# form: the family labels as (1, n - 1, n), regularity on four coordinates
# (``cartan.is_regular``) and the prefixes as tuple literals, so the support
# of a weight or a root, which the branch sets are read against, lives here.


def family_nodes(n):
    """The three extreme nodes indexing affinization families, at a checked rank."""
    return (1, n - 1, n)


def branch_set(n, s):
    """Nodes cut off by removing the fork from the branch at s."""
    if s == 1:
        return frozenset(range(1, n - 2))
    if s == n - 1:
        return frozenset((n - 1,))
    if s == n:
        return frozenset((n,))
    raise InputError(f"family label must be one of {family_nodes(n)}, got {s}")


def support(coords):
    """Indices (1-based nodes) of strictly positive coordinates.

    Serves both dominant weights and positive roots (in simple-root
    coordinates); a negative coordinate means the input is neither and is
    rejected, and so is anything ``cartan.check_weight`` refuses.
    """
    check_weight(len(coords), coords)
    if any(v < 0 for v in coords):
        raise InputError(f"support undefined for {coords}: negative coordinate")
    return frozenset(i + 1 for i, v in enumerate(coords) if v > 0)


def regular_by_branches(n, lam):
    """Regularity by the branch sets: some branch misses the support of the
    dominant ``lam`` entirely, or the fork coordinate is positive."""
    supp = support(lam)
    if any(not (supp & branch_set(n, s)) for s in family_nodes(n)):
        return True
    return lam[n - 3] > 0


def _swap_tau(n, a, b):
    """The identity permutation of the affine nodes 0..n with a and b swapped."""
    t = list(range(n + 1))
    t[a], t[b] = t[b], t[a]
    return tuple(t)


# ---------------------------------------------------------------------------
# The fundamental-coordinate key kernel


def frame_key(k):
    """A key in fundamental coordinates as a key of the program's frame."""
    n = len(k) - 2
    return eps2(n, k[:n]) + k[n:]


def fw_key(k):
    """A key of the program's frame in fundamental coordinates."""
    n = len(k) - 2
    return fw_from_eps2(n, k[:n]) + k[n:]


def theta_coeffs(n):
    """Simple-root coefficients of the highest root, at a checked rank."""
    return (1,) + (2,) * (n - 3) + (1, 1)


def root_to_fw(n, c):
    """Fundamental coordinates of a root-coordinate vector (Cartan matrix action)."""
    fw = [2 * v for v in c]
    for a, b in finite_edges(n):
        fw[a - 1] -= c[b - 1]
        fw[b - 1] -= c[a - 1]
    return tuple(fw)


def fw_to_root(n, fw):
    """Root coordinates of a root-lattice element given in fundamental coordinates."""
    d = eps2(n, fw)
    c = []
    acc = 0
    for k in range(n - 2):
        acc += d[k]
        q, r = divmod(acc, 2)
        if r:
            raise InputError(f"{fw} is not on the root lattice")
        c.append(q)
    acc += d[n - 2]
    qa, ra = divmod(acc - d[n - 1], 4)
    qb, rb = divmod(acc + d[n - 1], 4)
    if ra or rb:
        raise InputError(f"{fw} is not on the root lattice")
    c.extend([qa, qb])
    return tuple(c)


@lru_cache(maxsize=None, typed=True)
def key_pairing(n, i):
    """The pairing of the i-th simple coroot (i in 0..n) with a key, as a
    function.  The node-0 coroot is the canonical central element minus the
    highest-root coroot: the level minus the mark-weighted finite part.
    The 2-delta slot never contributes."""
    check_rank(n)
    check_node(n, i, 0)
    if i:
        return itemgetter(i - 1)
    marks = theta_coeffs(n)
    return lambda k: k[n] - sum(map(mul, marks, k))


@lru_cache(maxsize=None)
def alpha_key(n, i):
    """Simple root i as a key; alpha_0 = delta - theta, 2 in the 2-delta
    slot, as theta = e_1 + e_2 is varpi_2."""
    if i == 0:
        return (0, -1) + (0,) * (n - 2) + (0, 2)
    return root_to_fw(n, _unit(n, i)) + (0, 0)


@lru_cache(maxsize=None)
def finite_twist(n, tau):
    """The relabelling by a diagram automorphism ``tau`` of a finite weight
    at a level, as a function (mu, level) -> mu': the image pairs with the
    coroot at node tau(i) as the weight does at node i, so its coordinates
    are the permuted pairings, the one at node j read from node tau(j), as
    ``tau`` is its own inverse.  The pairing at node 0 reads the level."""
    pick = itemgetter(*tau[1:])
    pair0 = key_pairing(n, 0)
    return lambda mu, level: pick((pair0(mu + (level,)),) + mu)


@lru_cache(maxsize=None)
def key_twist(n, tau):
    """The relabelling of keys by a diagram automorphism ``tau``: the finite
    part by :func:`finite_twist` at the key's level, and 2 delta raised by
    c_1 minus the image's first coordinate, which norm preservation forces
    (Lambda_0 has norm 0 and Lambda_1 norm 1; the spin weights have equal
    norms)."""
    relabel = finite_twist(n, tau)

    def twist(k):
        mu = relabel(k[:n], k[n])
        return mu + (k[n], k[n + 1] + k[0] - mu[0])

    return twist


def demazure_terms(n, i, terms):
    """One Demazure step at node i on a map {key: coefficient}, as a fresh
    map without zero coefficients: per key with coroot pairing m, the
    descending string k, ..., k - m alpha_i when m >= 0, nothing when
    m = -1, and the negated ascending string k + alpha_i, ...,
    k + (-m-1) alpha_i otherwise."""
    out = {}
    up = alpha_key(n, i)
    down = tuple(-a for a in up)
    pair = key_pairing(n, i)
    for k, c in terms.items():
        m = pair(k)
        if m >= 0:
            step, count, sign = down, m + 1, c
        else:
            k, step, count, sign = tuple(map(add, k, up)), up, -m - 1, -c
        for _ in range(count):
            out[k] = out.get(k, 0) + sign
            k = tuple(map(add, k, step))
    return {k: c for k, c in out.items() if c}


def reflect_key(i, k):
    """Simple reflection at node i: subtract the pairing times alpha_i."""
    n = len(k) - 2
    m = key_pairing(n, i)(k)
    return tuple(a - m * b for a, b in zip(k, alpha_key(n, i)))


# ---------------------------------------------------------------------------
# Words


ExtendedWeylWord = namedtuple("ExtendedWeylWord", ("n", "tau", "word"))


@lru_cache(maxsize=None)
def allowed_taus(n):
    """The four automorphism prefixes generated by the two swaps."""
    a = _swap_tau(n, 0, 1)
    b = _swap_tau(n, n - 1, n)
    return frozenset((_identity_tau(n), a, b, tuple(a[j] for j in b)))


def checked_tau(n, tau):
    """``tau`` as a tuple, refused unless it is one of :func:`allowed_taus`."""
    tau = tuple(tau)
    if tau not in allowed_taus(n):
        raise InputError(f"automorphism prefix {tau} outside the two-swap subgroup")
    return tau


def from_word(n, word, tau=None):
    """The letters ``word`` after the prefix ``tau``, the identity when None."""
    return ExtendedWeylWord(n, _identity_tau(n) if tau is None else tuple(tau), tuple(word))


def simple(n, i):
    return from_word(n, (i,))


def tau_01(n):
    return from_word(n, (), _swap_tau(n, 0, 1))


def tau_fork(n):
    return from_word(n, (), _swap_tau(n, n - 1, n))


def sigma_word(n):
    return ExtendedWeylWord(n, *weyl.sigma_pair(n))


def compose(u, v):
    """Product u*v, rightmost factor applied first."""
    if u.n != v.n:
        raise InputError("rank mismatch in composition")
    word = tuple(v.tau[i] for i in u.word) + v.word
    return ExtendedWeylWord(u.n, tuple(u.tau[j] for j in v.tau), word)


def inverse(u):
    return ExtendedWeylWord(u.n, u.tau, tuple(u.tau[i] for i in reversed(u.word)))


def act(w, k):
    """Apply a word to a key, letters first, prefix last."""
    for i in reversed(w.word):
        k = reflect_key(i, k)
    return key_twist(w.n, w.tau)(k)


def walk_up(k, nodes):
    """Reflect the key ``k`` at the smallest node of ``nodes`` with a
    negative pairing until there is none; returns the nodes used, in order,
    and the key where it stops."""
    n = len(k) - 2
    pairings = [(i, key_pairing(n, i)) for i in nodes]
    steps = []
    while True:
        i = next((i for i, pair in pairings if pair(k) < 0), None)
        if i is None:
            return steps, k
        k = reflect_key(i, k)
        steps.append(i)


def reduce_word(w):
    """Canonical reduced word for the same group element: walking w^-1
    rho-hat up into the dominant chamber, always at the smallest node with
    a negative pairing, strips the right descents of w one by one; the
    steps reversed are the word."""
    n = w.n
    steps, _ = walk_up(act(inverse(w), (1,) * n + (2 * n - 2, 0)), range(n + 1))
    return ExtendedWeylWord(n, w.tau, tuple(reversed(steps)))


def length(w):
    return len(reduce_word(w).word)


def is_reduced(w):
    return length(w) == len(w.word)


def same_element(u, v):
    return u.n == v.n and reduce_word(u) == reduce_word(v)


@lru_cache(maxsize=None)
def longest_word(n):
    """-rho walked up over the finite nodes, the steps reversed."""
    steps, _ = walk_up((-1,) * n + (0, 0), range(1, n + 1))
    return from_word(n, reversed(steps))


class AffineWeight(namedtuple("AffineWeight", ("finite", "level", "delta"))):
    """Finite fundamental coordinates, the integer level and the exact
    rational coefficient of delta."""

    __slots__ = ()

    def __new__(cls, finite, level=0, delta=0):
        return super().__new__(cls, tuple(finite), level, Fraction(delta))

    @property
    def n(self):
        return len(self.finite)

    def __add__(self, other):
        return AffineWeight(
            tuple(a + b for a, b in zip(self.finite, other.finite)),
            self.level + other.level,
            self.delta + other.delta,
        )

    def __mul__(self, k):
        return AffineWeight(
            tuple(k * a for a in self.finite), k * self.level, k * self.delta
        )

    __rmul__ = __mul__


def lambda0(n):
    check_rank(n)
    return AffineWeight((0,) * n, 1, 0)


def key_of(x):
    """The int key of a weight whose delta is a multiple of 1/2."""
    d2 = 2 * x.delta
    if d2.denominator != 1:
        raise InputError(f"delta {x.delta} of {x} is not a multiple of 1/2")
    return x.finite + (x.level, int(d2))


def weight_of(k, delta=0):
    """The weight with int key ``k``, its delta raised by ``delta``."""
    n = len(k) - 2
    return AffineWeight(k[:n], k[n], Fraction(k[n + 1], 2) + delta)


def _delta_free(x):
    return x.finite + (x.level, 0)


def pairing(i, x):
    """The i-th simple coroot (i in 0..n) paired with ``x``; delta never
    contributes."""
    return key_pairing(x.n, i)(_delta_free(x))


def form(x, y):
    """The invariant symmetric form, exact: finite parts pair through the
    orthogonal coordinates, delta pairs with the level."""
    n = x.n
    dot = sum(a * b for a, b in zip(eps2(n, x.finite), eps2(n, y.finite)))
    return Fraction(dot, 4) + x.level * y.delta + y.level * x.delta


def act_weight(w, x):
    """An extended word on a weight: the key kernel on the delta-free part,
    plus the delta of ``x``."""
    return weight_of(act(w, _delta_free(x)), x.delta)


def tau_on_weight(tau, x):
    """A diagram automorphism on a weight, through :func:`key_twist`;
    ``tau`` may be a tuple or a list, checked by :func:`checked_tau`."""
    tau = checked_tau(x.n, tau)
    return weight_of(key_twist(x.n, tau)(_delta_free(x)), x.delta)


# Positive roots in simple-root coordinates, and the ones a family label
# leaves out of some other branch.


@lru_cache(maxsize=None)
def positive_roots(n):
    """All positive roots in simple-root coordinates, read off the doubled list."""
    from _decomp_oracle import positive_roots_eps2  # it imports this module through _ring_oracle

    check_rank(n)
    roots = frozenset(fw_to_root(n, fw_from_eps2(n, a)) for a in positive_roots_eps2(n))
    if len(roots) != n * (n - 1):
        raise VerificationError(f"found {len(roots)} positive roots, expected {n * (n - 1)}")
    return roots


@lru_cache(maxsize=None)
def delta_plus_s(n, s):
    """Positive roots supported away from at least one branch other than s."""
    check_rank(n)
    others = [r for r in family_nodes(n) if r != s]
    if len(others) != 2:
        raise InputError(f"family label must be one of {family_nodes(n)}, got {s}")
    out = set()
    for root in positive_roots(n):
        supp = support(root)
        if any(not (supp & branch_set(n, r)) for r in others):
            out.add(root)
    return frozenset(out)


# A real root is a pair (beta, k): finite root coordinates plus a delta shift.


def root_weight(n, beta, k=0):
    """Embed a real root into the affine weight space."""
    return AffineWeight(root_to_fw(n, beta), 0, Fraction(k))


def _root_from_weight(x):
    n = x.n
    if x.level != 0 or x.delta.denominator != 1:
        raise InputError(f"{x} is not a real root")
    return fw_to_root(n, x.finite), int(x.delta)


def affine_simple_root(n, i):
    if i == 0:
        return tuple(-v for v in theta_coeffs(n)), 1
    return tuple(int(j == i) for j in range(1, n + 1)), 0


def act_root(w, root):
    """Image of a real root under an extended word."""
    beta, k = root
    if all(v == 0 for v in beta):
        raise InputError("imaginary roots have no well-defined coordinates here")
    return _root_from_weight(act_weight(w, root_weight(w.n, beta, k)))


def is_positive_root(n, root):
    """Positivity of a real root: positive delta shift, or none and beta positive."""
    beta, k = root
    if k != 0:
        return k > 0
    return beta in positive_roots(n)


def power(u, k):
    if k < 0:
        return power(inverse(u), -k)
    out = from_word(u.n, ())
    for _ in range(k):
        out = compose(out, u)
    return out


def descent_oracle(w):
    """The root-by-root descent: while some simple root goes negative under
    g, strip that reflection on the right, smallest node first."""
    n = w.n
    g = w
    collected = []
    while True:
        found = next(
            (
                i
                for i in range(n + 1)
                if not is_positive_root(n, act_root(g, affine_simple_root(n, i)))
            ),
            None,
        )
        if found is None:
            return ExtendedWeylWord(n, g.tau, tuple(reversed(collected)))
        g = compose(g, simple(n, found))
        collected.append(found)


def element_images(w):
    """The images of the keys of the fundamental weights, Lambda_0 and delta
    under ``w``: a fingerprint of the group element."""
    n = w.n
    zero = (0,) * n
    basis = [varpi(n, i) + (0, 0) for i in range(1, n + 1)] + [zero + (1, 0), zero + (0, 2)]
    return tuple(act(w, b) for b in basis)


def tau_on_weight_oracle(tau, x):
    """The twist by expansion: write ``x`` over the delta-free fundamental
    weights (node i at level a_i) and delta, and send the node-i weight to
    the node-tau(i) weight plus the delta correction that keeps its norm
    (delta pairs with the level a_tau(i))."""
    n = x.n
    marks = (1,) + theta_coeffs(n)
    fundamental = [lambda0(n)]
    fundamental += [AffineWeight(varpi(n, i), marks[i], 0) for i in range(1, n + 1)]
    out = AffineWeight((0,) * n, 0, x.delta)
    for i in range(n + 1):
        li, lt = fundamental[i], fundamental[tau[i]]
        d = (form(li, li) - form(lt, lt)) / (2 * marks[tau[i]])
        out = out + pairing(i, x) * AffineWeight(lt.finite, lt.level, d)
    return out


def is_dominant(n, k):
    """Nonnegative coroot pairings of a rank-n key over the affine node set 0..n."""
    return all(key_pairing(n, i)(k) >= 0 for i in range(n + 1))


def lambda_keys_by_rotation(n, xi_keys):
    """The rotated factor weights by the reflection route: sigma^-1 applied
    j times to the j-th factor (j < n), the last factor as it is.  Raises
    VerificationError where an entry is not affine-dominant."""
    sigma_inv = inverse(sigma_word(n))
    keys = list(xi_keys)
    for j in range(1, n):
        for _ in range(j):
            keys[j - 1] = act(sigma_inv, keys[j - 1])
    for k in keys:
        if not is_dominant(n, k):
            raise VerificationError(f"non-dominant factor weight {k}")
    return tuple(keys)


def lambda_keys_by_walk(n, xi_keys):
    """The rotated factor weights by the chamber walk: where the walk of
    xi_j over the affine nodes stops, relabelled by the rotation prefix at
    odd j (j < n); the last factor as it is."""
    tau = key_twist(n, weyl.sigma_pair(n)[0])
    keys = [walk_up(xi, range(n + 1))[1] for xi in xi_keys[: n - 1]]
    return (*(tau(k) if j % 2 else k for j, k in enumerate(keys, 1)), xi_keys[n - 1])
