"""The internal consistency suites behind the ``verify`` subcommand.

Three suites, each a list of named pass/fail checks: ``demazure`` (the
defining identity, idempotency, the twist involution and reduced-word
independence on random elements), ``weyl`` (the rotation table, length
additivity of the nested composite and invariance of the form) and
``pipeline`` (the straightened tables against the greedy decomposition of
the full character, and both against the symplectic pipeline).  Only the
``verify`` handler imports this module, so no other subcommand compiles it.
"""

import random

from . import affinization, decomp, spbranch, weyl
from .cartan import AffineWeight, affine_edges, bilinear, fw_from_eps2, varpi
from .cli import _csv_text, _json_text, _meta
from .polyring import CharElem



def _suite_demazure(n, checks):
    rng = random.Random(20240 + n)

    def rand_elem(maxterms=25):
        terms = {}
        for _ in range(rng.randint(1, maxterms)):
            k = AffineWeight(
                tuple(rng.randint(-2, 2) for _ in range(n)),
                rng.randint(0, 2),
                rng.randint(-1, 1),
            )
            terms[k] = rng.choice([-3, -2, -1, 1, 2, 3])
        return CharElem(n, terms)

    ok = True
    for _ in range(25):
        f = rand_elem()
        for i in range(n + 1):
            D = f.demazure(i)
            am = CharElem.monomial(-weyl._alpha_wt(n, i))
            if D - am * D != f - am * f.relabel_weyl(weyl.simple(n, i)):
                ok = False
            if D.demazure(i) != D:
                ok = False
    checks.append(("demazure.defining_identity_and_idempotency", ok))

    ok = True
    tau = weyl.compose(weyl.tau_01(n), weyl.tau_fork(n)).tau
    for _ in range(10):
        f = rand_elem(10)
        if f.twist(tau).twist(tau) != f:
            ok = False
    checks.append(("demazure.twist_involution", ok))

    ok = True
    compared = 0
    for _ in range(10):
        raw = weyl.from_word(n, tuple(rng.randint(0, n) for _ in range(8)))
        r = weyl.reduce_word(raw)
        if not weyl.same_element(raw, r) or not weyl.is_reduced(r):
            ok = False
        f = rand_elem(10)
        other = _other_reduced_word(n, r.word)
        if other is not None:
            compared += 1
            r2 = weyl.ExtendedWeylWord(n, r.tau, other)
            if not weyl.same_element(r, r2) or f.demazure_word(r) != f.demazure_word(r2):
                ok = False
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
    sig = weyl.sigma_word(n)
    w0 = weyl.longest_word(n)
    lam0 = AffineWeight((0,) * n, 1, 0)

    def modqd(x):
        return (x.finite, x.level)

    table = {}
    for j in range(n + 1):
        fin = varpi(n, j) if j else (0,) * n
        table[j] = modqd(weyl.act(sig, AffineWeight(fin, 1, 0)))
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
    ok = ok and modqd(weyl.act(sig, AffineWeight(varpi(n, n - 1)))) == (varpi(n, n - 1), 0)
    checks.append(("weyl.rotation_table", ok))

    comp = w0
    for _ in range(n - 1):
        comp = weyl.compose(comp, sig)
    ok = (
        weyl.length(sig) == n - 1
        and weyl.length(w0) == n * (n - 1)
        and weyl.length(comp) == n * (n - 1) + (n - 1) ** 2
    )
    checks.append(("weyl.length_additivity", ok))

    rng = random.Random(777 + n)
    ok = True
    for _ in range(10):
        w = weyl.from_word(n, tuple(rng.randint(0, n) for _ in range(8)))
        x = AffineWeight(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-1, 1), rng.randint(-1, 1))
        y = AffineWeight(tuple(rng.randint(-2, 2) for _ in range(n)), rng.randint(-1, 1), rng.randint(-1, 1))
        if bilinear(weyl.act(w, x), weyl.act(w, y)) != bilinear(x, y):
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
        table = decomp.decompose(affinization.character(n, lam, 1))
        doms = [fw_from_eps2(n, d) for d in decomp.dominant_weights_below(n, lam)]
        ok = table.mults.get(lam, 0) == 1
        for mu in doms:
            if table.mults.get(mu, 0) != spbranch.sam_mult(n, lam, mu):
                ok = False
        tag = "".join(map(str, lam))
        checks.append(("pipeline.crown_" + tag, ok))
        straightened = affinization.multiplicity_table(n, lam, 1)
        checks.append(("pipeline.straighten_" + tag, straightened == table.mults))


def verify_report(opts, t0):
    n = opts["n"]
    suites = [opts["suite"]] if opts["suite"] != "all" else ["demazure", "weyl", "pipeline"]
    checks = []
    for suite in suites:
        if suite == "demazure":
            _suite_demazure(n, checks)
        elif suite == "weyl":
            _suite_weyl(n, checks)
        elif suite == "pipeline":
            _suite_pipeline(n, checks)
    passed = sum(1 for _, ok in checks if ok)
    failed = len(checks) - passed
    if opts["format"] == "json":
        report = {
            "n": n,
            "suite": opts["suite"],
            "checks": [{"name": name, "status": "pass" if ok else "FAIL"} for name, ok in checks],
            "passed": passed,
            "failed": failed,
            "meta": _meta(t0),
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
