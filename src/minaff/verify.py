"""The internal consistency suites behind the ``verify`` subcommand.

Three suites, each a list of named pass/fail checks: ``demazure`` (the
defining identity, idempotency, the twist involution and reduced-word
independence on random maps {key: coefficient}, and one word worked by
hand, which pins the order of its letters), ``weyl`` (the rotation
table, length additivity of the nested composite and invariance of the
form) and ``pipeline`` (the straightened tables against the symplectic
pipeline, and their total dimension against the mass of the full character
of :mod:`minaff.polyring`, which the longest-element pass builds without
straightening).  Only the ``verify`` handler imports this module, so no
other subcommand compiles it.
"""

import random

from . import affinization, polyring, spbranch, weyl, words
from .cartan import dim_irr, varpi
from .cli import _csv_text, _json_text, _meta
from .words import affine_edges, bilinear


def _rand_key(rng, n, levels):
    """A key with finite coordinates in -2..2, a level from ``levels`` and
    a delta in -1..1."""
    finite = tuple(rng.randint(-2, 2) for _ in range(n))
    return finite + (rng.randint(*levels), 2 * rng.randint(-1, 1))


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
            D = words.demazure_terms(n, i, f)
            minus_alpha = tuple(-v for v in weyl.alpha_key(n, i))
            left = _minus(D, affinization._shift(minus_alpha, D))
            s_f = {words.act(words.simple(n, i), k): c for k, c in f.items()}
            if left != _minus(f, affinization._shift(minus_alpha, s_f)):
                ok = False
            if words.demazure_terms(n, i, D) != D:
                ok = False
    checks.append(("demazure.defining_identity_and_idempotency", ok))

    ok = True
    twist = weyl.key_twist(n, words.compose(words.tau_01(n), words.tau_fork(n)).tau)
    for _ in range(10):
        f = rand_terms(10)
        if {twist(twist(k)): c for k, c in f.items()} != f:
            ok = False
    checks.append(("demazure.twist_involution", ok))

    ok = True
    compared = 0
    rho = (1,) * n + (2 * n - 2, 0)  # regular: with the prefix, its image determines an element
    for _ in range(10):
        raw = words.from_word(n, tuple(rng.randint(0, n) for _ in range(8)))
        r = words.reduce_word(raw)
        if (raw.tau, words.act(raw, rho)) != (r.tau, words.act(r, rho)) or not words.is_reduced(r):
            ok = False
        f = rand_terms(10)
        other = _other_reduced_word(n, r.word)
        if other is not None:
            compared += 1
            r2 = words.ExtendedWeylWord(n, r.tau, other)
            if not (words.same_element(r, r2) and words.is_reduced(r2)):
                ok = False
            elif words.demazure_word_terms(r, f) != words.demazure_word_terms(r2, f):
                ok = False
    # a word by hand, as the random words cannot pin the order of letters:
    # D_2 D_1 e^top has the keys top, top - alpha_1, top - alpha_1 - alpha_2
    top = varpi(n, 1) + (1, 0)
    chain = {words.act(words.from_word(n, w), top): 1 for w in ((), (1,), (2, 1))}
    ok = ok and words.demazure_word_terms(words.from_word(n, (2, 1)), {top: 1}) == chain
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
    sig = words.sigma_word(n)

    def modqd(k):
        return (k[:n], k[n])

    table = {}
    for j in range(n + 1):
        fin = varpi(n, j) if j else (0,) * n
        table[j] = modqd(words.act(sig, fin + (1, 0)))
    expect = {}
    for j in range(n + 1):
        if j <= n - 3:
            expect[j] = (varpi(n, j + 1), 1)
        elif j == n - 2:
            expect[j] = (tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, n))), 1)
        elif j == n - 1:
            expect[j] = (tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, 1))), 1)
        else:
            expect[j] = (varpi(n, n - 1), 1)
    ok = table == expect
    ok = ok and modqd(words.act(sig, varpi(n, n - 1) + (0, 0))) == (varpi(n, n - 1), 0)
    checks.append(("weyl.rotation_table", ok))

    # The nested formula is legal because the lengths of w0 sigma^(n-1) add;
    # this check and the tests prove it, so the table path does not.
    comp = words.longest_word(n)
    for _ in range(n - 1):
        comp = words.compose(comp, sig)
    ok = words.is_reduced(sig) and words.length(comp) == n * (n - 1) + (n - 1) ** 2
    checks.append(("weyl.length_additivity", ok))

    rng = random.Random(777 + n)
    ok = True
    for _ in range(10):
        w = words.from_word(n, tuple(rng.randint(0, n) for _ in range(8)))
        x, y = _rand_key(rng, n, (-1, 1)), _rand_key(rng, n, (-1, 1))
        if bilinear(words.act(w, x), words.act(w, y)) != bilinear(x, y):
            ok = False
    checks.append(("weyl.form_invariance", ok))


def _suite_pipeline(n, checks):
    if n == 4:
        lams = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1), (1, 1, 0, 0)]
    else:
        lams = [
            varpi(n, 1),
            varpi(n, 2),
            tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, n))),
        ]
    for lam in lams:
        straightened = affinization.multiplicity_table(n, lam, 1)
        tag = "".join(map(str, lam))
        ok = straightened.get(lam) == 1 and straightened == spbranch.sam_table(n, lam)
        checks.append(("pipeline.crown_" + tag, ok))
        dimension = sum(m * dim_irr(n, mu) for mu, m in straightened.items())
        mass = sum(polyring.character(n, lam, 1).values())
        checks.append(("pipeline.straighten_" + tag, dimension == mass))


_SUITES = {"demazure": _suite_demazure, "weyl": _suite_weyl, "pipeline": _suite_pipeline}


def verify_report(opts):
    n = opts["n"]
    checks = []
    for suite in _SUITES if opts["suite"] == "all" else (opts["suite"],):
        _SUITES[suite](n, checks)
    passed = sum(1 for _, ok in checks if ok)
    failed = len(checks) - passed
    if opts["format"] == "json":
        report = {
            "n": n,
            "suite": opts["suite"],
            "checks": [{"name": name, "status": "pass" if ok else "FAIL"} for name, ok in checks],
            "passed": passed,
            "failed": failed,
            "meta": _meta(),
        }
        text = _json_text(report)
    elif opts["format"] == "csv":
        text = _csv_text(
            ("check", "status"),
            [(name, "pass" if ok else "FAIL") for name, ok in checks],
        )
    else:
        lines = [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in checks]
        lines.append(f"{passed} passed, {failed} failed")
        text = "\n".join(lines) + "\n"
    return text, (0 if failed == 0 else 3)
