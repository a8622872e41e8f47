"""The internal consistency suites behind the ``verify`` subcommand.

Three suites, each a list of named pass/fail checks: ``demazure`` (the
defining identity, idempotency, the twist involution and reduced-word
independence on random maps {key: coefficient}, and one word worked by
hand, which pins the order of its letters), ``weyl`` (the rotation
table, length additivity of the nested composite and invariance of the
form) and ``pipeline`` (the straightened tables against the symplectic
pipeline, and their total dimension against the mass of the full character
of :mod:`minaff.polyring`, which the longest-element pass builds without
straightening).  From rank 5 on, ``pipeline`` adds one ``crown_`` check
with no ``straighten_`` twin, on (0,1,1,1,1) at rank 5 and on varpi_2 +
varpi_(n-2) above: the sigma passes of these weights meet negative
pairings, so a wrong negative Demazure string changes their tables (no
table of a rank-4 weight meets one, and there the ``demazure`` suite is
that string's guard), while their full characters are too large to
straighten (54,481 terms at rank 8, past the term limit from rank 9).
The suites run on keys and the one Demazure step of :mod:`minaff.weyl`,
in its frame, with node 0 added here (:func:`_step`), and on its
(prefix, letters) pairs: a length is a count of hyperplanes
(:func:`_length`), so no word is ever reduced.  A ``pipeline`` check
whose table or character the library refuses as inconsistent (a
CharacterError or VerificationError) fails, so a broken kernel still
prints every check line.  Only the ``verify`` handler imports this
module, so no other subcommand compiles it.  The handler returns its
report as a dict, one status per check and the counts; the command line
writes it as JSON, or through :mod:`minaff.cli_extra` as CSV or aligned
text, and this module imports neither.
"""

import random
from operator import add, mul, sub

from . import CharacterError, VerificationError, affinization, polyring, spbranch, weyl
from .cartan import _rho2, dim_irr, eps2, varpi


def finite_edges(n):
    """Edges of the finite diagram: a chain 1..n-1 plus the fork edge (n-2, n)."""
    return tuple((i, i + 1) for i in range(1, n - 1)) + ((n - 2, n),)


def affine_edges(n):
    """Finite edges plus the affine attachment (0, 2)."""
    return ((0, 2),) + finite_edges(n)


def bilinear(x, y):
    """Four times the invariant symmetric form of two keys, an integer.

    Finite parts pair as the dot product of the frame, delta pairs with the
    level, and both delta and the level-one generator are isotropic.
    """
    n = len(x) - 2
    return sum(map(mul, x[:n], y[:n])) + 2 * (x[n] * y[n + 1] + y[n] * x[n + 1])


def _twist01(n):
    """The relabelling of keys by the 0-1 swap, the permutation (1, 0, 2,
    ..., n) of the affine nodes, which conjugates node 1 to 0."""
    return weyl.key_twist(n, (1, 0, *range(2, n + 1)))


def _step(n, i, terms):
    """The Demazure step of :mod:`minaff.weyl` at node i in 0..n, conjugated
    from node 1 at node 0."""
    if i:
        return weyl._demazure_terms(n, i, terms)
    twist = _twist01(n)
    step = weyl._demazure_terms(n, 1, {twist(k): c for k, c in terms.items()})
    return {twist(k): c for k, c in step.items()}


def _demazure_word(n, letters, terms):
    """The Demazure operator of a word over the affine nodes on a map, last
    letter first: :func:`_step` at each node."""
    for i in reversed(letters):
        terms = _step(n, i, terms)
    return terms


def reflect_key(i, k):
    """Simple reflection at node i, the end of the string of
    :func:`minaff.weyl._demazure_terms`: the signed swap of the node's two
    coordinates, conjugated from node 1 at node 0."""
    n = len(k) - 2
    if not i:
        twist = _twist01(n)
        return twist(reflect_key(1, twist(k)))
    p, f = weyl._node_coords(n, i)
    return k[:p] + (f * k[p + 1], f * k[p]) + k[p + 2 :]


def _alpha(n, i):
    """Simple root i as a key: k - s_i k for a key k that pairs 1 with node
    i, Lambda_0 at node 0 and varpi_i at level 0 otherwise."""
    k = eps2(n, varpi(n, i)) + (0, 0) if i else (0,) * n + (1, 0)
    return tuple(map(sub, k, reflect_key(i, k)))


# A word is a (prefix, letters) pair, as in weyl: the prefix one of the
# four automorphisms generated by the two diagram swaps (each its own
# inverse), the letters read left to right, rightmost applied first.


def _identity_tau(n):
    return tuple(range(n + 1))


def _act(n, w, k):
    """The word ``w`` on the key ``k``: letters first, prefix last."""
    tau, letters = w
    for i in reversed(letters):
        k = reflect_key(i, k)
    return weyl.key_twist(n, tau)(k)


def _compose(u, v):
    """The product u*v, rightmost factor applied first; u's letters pass
    v's prefix, relabelled by it."""
    return tuple(u[0][j] for j in v[0]), tuple(v[0][i] for i in u[1]) + v[1]


def _length(n, w):
    """The length of the affine Weyl part of ``w``: the number of root
    hyperplanes <x, alpha> = m h that separate rho-hat = rho + h Lambda_0,
    h = 2n - 2, which lies inside the fundamental alcove, from its image x
    (N. Iwahori and H. Matsumoto, 1965; J. E. Humphreys, Reflection Groups
    and Coxeter Groups, ch. 4).  On the image's doubled coordinates d the
    positive root alpha = e_i -+ e_j adds |floor((d_i -+ d_j) / 2h)|.  A
    prefix maps the fundamental alcove to itself and adds nothing."""
    h2 = 4 * n - 4
    d = _act(n, w, _rho2(n) + (2 * n - 2, 0))[:n]
    return sum(
        abs((a - b) // h2) + abs((a + b) // h2) for i, a in enumerate(d) for b in d[i + 1 :]
    )


def _is_reduced(n, w):
    return _length(n, w) == len(w[1])


def _rand_key(rng, n, levels):
    """A key with fundamental coordinates in -2..2, a level from ``levels``
    and a delta in -1..1."""
    finite = eps2(n, tuple(rng.randint(-2, 2) for _ in range(n)))
    return finite + (rng.randint(*levels), 2 * rng.randint(-1, 1))


def _rand_reduced(rng, n, size):
    """A reduced word after the identity prefix: ``size`` random letters,
    each kept when it makes the word longer."""
    tau, letters = _identity_tau(n), ()
    for _ in range(size):
        i = rng.randint(0, n)
        if _length(n, (tau, letters + (i,))) > len(letters):
            letters += (i,)
    return tau, letters


def _minus(a, b):
    """The map a - b, without zero coefficients."""
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def _suite_demazure(n, checks):
    rng = random.Random(20240 + n)

    def rand_terms(maxterms=25):
        terms = {}
        for _ in range(rng.randint(1, maxterms)):
            terms[_rand_key(rng, n, (0, 2))] = rng.choice([-3, -2, -1, 1, 2, 3])
        return terms

    ok = True
    for _ in range(25):
        f = rand_terms()
        for i in range(n + 1):
            # D - e^{-alpha_i} D = f - e^{-alpha_i} s_i f, with D the Demazure step
            D = _step(n, i, f)
            minus_alpha = tuple(-v for v in _alpha(n, i))
            left = _minus(D, affinization._shift(minus_alpha, D))
            s_f = {reflect_key(i, k): c for k, c in f.items()}
            if left != _minus(f, affinization._shift(minus_alpha, s_f)):
                ok = False
            if _step(n, i, D) != D:
                ok = False
    checks.append(("demazure.defining_identity_and_idempotency", ok))

    ok = True
    twist = weyl.key_twist(n, weyl.sigma_pair(n)[0])  # both diagram swaps
    for _ in range(10):
        f = rand_terms(10)
        if {twist(twist(k)): c for k, c in f.items()} != f:
            ok = False
    checks.append(("demazure.twist_involution", ok))

    ok = True
    compared = 0
    rho = _rho2(n) + (2 * n - 2, 0)  # regular: with the prefix, its image determines an element
    for _ in range(10):
        tau, word = _rand_reduced(rng, n, 8)
        f = rand_terms(10)
        other = _other_reduced_word(n, word)
        if other is not None:
            compared += 1
            same = _act(n, (tau, word), rho) == _act(n, (tau, other), rho)
            if not (same and _is_reduced(n, (tau, other))):
                ok = False
            elif _demazure_word(n, word, f) != _demazure_word(n, other, f):
                ok = False
    # a word by hand, as the random words cannot pin the order of letters:
    # D_2 D_1 e^top has the keys top, top - alpha_1, top - alpha_1 - alpha_2
    tau = _identity_tau(n)
    top = eps2(n, varpi(n, 1)) + (1, 0)
    chain = {_act(n, (tau, w), top): 1 for w in ((), (1,), (2, 1))}
    ok = ok and weyl.demazure_letters(n, (2, 1), {top: 1}) == chain
    checks.append(("demazure.reduced_word_application", ok and compared > 0))


def _other_reduced_word(n, word):
    """Another reduced word of the same element as the reduced ``word``: the
    first commutation (ab -> ba) or braid move (aba -> bab) it admits, else
    None."""
    joined = {frozenset(e) for e in affine_edges(n)}
    for i in range(len(word) - 1):
        a, b = word[i], word[i + 1]
        if a != b and frozenset((a, b)) not in joined:
            return word[:i] + (b, a) + word[i + 2 :]
        if word[i + 2 : i + 3] == (a,):
            return word[:i] + (b, a, b) + word[i + 3 :]
    return None


def _suite_weyl(n, checks):
    sig = weyl.sigma_pair(n)

    def modqd(k):
        return (k[:n], k[n])

    def plus(*js):
        return eps2(n, tuple(map(sum, zip(*(varpi(n, j) for j in js)))))

    table = {}
    for j in range(n + 1):
        fin = eps2(n, varpi(n, j)) if j else (0,) * n
        table[j] = modqd(_act(n, sig, fin + (1, 0)))
    expect = {}
    for j in range(n + 1):
        if j <= n - 3:
            expect[j] = (plus(j + 1), 1)
        elif j == n - 2:
            expect[j] = (plus(n - 1, n), 1)
        elif j == n - 1:
            expect[j] = (plus(n - 1, 1), 1)
        else:
            expect[j] = (plus(n - 1), 1)
    ok = table == expect
    ok = ok and modqd(_act(n, sig, plus(n - 1) + (0, 0))) == (plus(n - 1), 0)
    checks.append(("weyl.rotation_table", ok))

    # The nested formula is legal, and w0's word reduced, as the lengths of
    # w0 sigma^(n-1) add; this check and the tests prove it, not the library.
    comp = (_identity_tau(n), polyring._w0_letters(n))
    for _ in range(n - 1):
        comp = _compose(comp, sig)
    ok = _is_reduced(n, sig) and _length(n, comp) == n * (n - 1) + (n - 1) ** 2
    checks.append(("weyl.length_additivity", ok))

    rng = random.Random(777 + n)
    ok = True
    for _ in range(10):
        w = (_identity_tau(n), tuple(rng.randint(0, n) for _ in range(8)))
        x, y = _rand_key(rng, n, (-1, 1)), _rand_key(rng, n, (-1, 1))
        if bilinear(_act(n, w, x), _act(n, w, y)) != bilinear(x, y):
            ok = False
    checks.append(("weyl.form_invariance", ok))


def _holds(check):
    """Whether ``check()`` holds: False when the kernel under it refuses
    what it built (CharacterError or VerificationError), so a broken kernel
    fails the check instead of ending the report.  InputError, a term limit
    passed, propagates."""
    try:
        return check()
    except (CharacterError, VerificationError):
        return False


def _suite_pipeline(n, checks):
    def plus(i, j):
        return tuple(map(add, varpi(n, i), varpi(n, j)))

    if n == 4:
        lams, crown_only = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)], None
    else:  # the weight with no straighten_ twin, as the module docstring says
        crown_only = (0, 1, 1, 1, 1) if n == 5 else plus(2, n - 2)
        lams = [varpi(n, 1), varpi(n, 2), plus(n - 1, n), crown_only]
    for lam in lams:
        tag = "".join(map(str, lam))
        twin = lam != crown_only
        try:
            table = affinization.multiplicity_table(n, lam, 1)
        except (CharacterError, VerificationError):  # neither check of lam can finish
            checks.append(("pipeline.crown_" + tag, False))
            if twin:
                checks.append(("pipeline.straighten_" + tag, False))
            continue
        ok = table.get(lam) == 1 and _holds(lambda: table == spbranch.sam_table(n, lam))
        checks.append(("pipeline.crown_" + tag, ok))
        if twin:
            dimension = sum(m * dim_irr(n, mu) for mu, m in table.items())
            ok = _holds(lambda: dimension == sum(polyring.character(n, lam, 1).values()))
            checks.append(("pipeline.straighten_" + tag, ok))


_SUITES = {"demazure": _suite_demazure, "weyl": _suite_weyl, "pipeline": _suite_pipeline}


def verify_report(opts):
    n = opts["n"]
    checks = []
    for suite in _SUITES if opts["suite"] == "all" else (opts["suite"],):
        _SUITES[suite](n, checks)
    passed = sum(1 for _, ok in checks if ok)
    report = {
        "n": n,
        "suite": opts["suite"],
        "checks": [{"name": name, "status": "pass" if ok else "FAIL"} for name, ok in checks],
        "passed": passed,
        "failed": len(checks) - passed,
    }
    return report, (0 if passed == len(checks) else 3)
