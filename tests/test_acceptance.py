"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every comparison is exact integer or rational equality; the time
budgets from the requirements are asserted as hard limits.
"""

import itertools
import json
import time

from minaff.affinization import _lambda_keys, _xi, multiplicity_table, xi_sequence
from minaff.cartan import dim_irr, varpi
from minaff.cli import run
from minaff.polyring import character
from minaff.spbranch import sam_table
from minaff.weyl import fw_from_eps2
from minaff import polyring, verify, weyl
from _decomp_oracle import (
    character_mass,
    decompose,
    dominant_weights_below,
    irr_character,
    table_dimension,
)
from _helpers import braid_variant, rand_char, seeded
from _ring_oracle import CharElem, finite_char
from _weyl_oracle import (
    ExtendedWeylWord,
    from_word,
    is_dominant,
    is_reduced,
    reduce_word,
    same_element,
    simple,
)


def report(number, ok, detail, t0, budget):
    elapsed = time.time() - t0
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} {status}: {detail} ({elapsed:.1f}s, budget {budget}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def canonical_serialization(ch):
    return json.dumps(sorted(ch.items()))


def regular_unit_cube(n):
    from minaff.affinization import is_regular

    return [
        lam
        for lam in itertools.product((0, 1), repeat=n)
        if is_regular(n, lam)
    ]


N5_SAMPLE = [
    ((0, 0, 0, 0, 0), 1),
    ((1, 0, 0, 0, 0), 1),
    ((0, 1, 0, 0, 0), 5),
    ((0, 0, 1, 0, 0), 4),
    ((0, 0, 0, 1, 0), 1),
    ((0, 0, 0, 0, 1), 5),
    ((1, 0, 0, 1, 0), 1),
    ((0, 1, 0, 0, 1), 4),
    ((0, 0, 1, 1, 1), 5),
    ((1, 1, 0, 0, 0), 5),
]


def test_criterion_01_demazure_defining_identity():
    t0 = time.time()
    ok = True
    for n in (4, 5):
        rng = seeded(100 + n)
        for _ in range(100):
            f = rand_char(n, rng, 50)
            for i in range(0, n + 1):
                D = f.demazure(i)
                am = CharElem.monomial(n, tuple(-v for v in weyl.alpha_key(n, i)))
                if D - am * D != f - am * f.relabel_weyl(simple(n, i)):
                    ok = False
    report(1, ok, "defining identity on 200 random elements, every node", t0, 10)


def test_criterion_02_idempotency_and_word_independence():
    t0 = time.time()
    ok = True
    for n in (4, 5):
        rng = seeded(200 + n)
        for _ in range(100):
            f = rand_char(n, rng, 50)
            for i in range(0, n + 1):
                D = f.demazure(i)
                if D.demazure(i) != D:
                    ok = False
    # 30 random elements of length <= 10, two reduced words each
    n = 4
    rng = seeded(222)
    for _ in range(30):
        raw = from_word(n, tuple(rng.randint(0, n) for _ in range(rng.randint(1, 10))))
        r1 = reduce_word(raw)
        r2 = ExtendedWeylWord(n, r1.tau, braid_variant(r1.word, n, rng))
        if not (is_reduced(r2) and same_element(r1, r2)):
            ok = False
        f = rand_char(n, rng, 20)
        if f.demazure_word(r1) != f.demazure_word(r2):
            ok = False
    report(2, ok, "idempotency on the corpus; 30 elements, two reduced words", t0, 30)


def test_criterion_03_rotation_table_and_length_additivity():
    t0 = time.time()
    ok = True
    for n in (4, 5, 6):
        sig = weyl.sigma_pair(n)
        for j in range(0, n + 1):
            fin = varpi(n, j) if j else (0,) * n
            got = verify._act(n, sig, fin + (1, 0))
            if j <= n - 3:
                expect = (varpi(n, j + 1), 1)
            elif j == n - 2:
                expect = (tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, n))), 1)
            elif j == n - 1:
                expect = (tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, 1))), 1)
            else:
                expect = (varpi(n, n - 1), 1)
            if (got[:n], got[n]) != expect:
                ok = False
        fix = verify._act(n, sig, varpi(n, n - 1) + (0, 0))
        if (fix[:n], fix[n]) != (varpi(n, n - 1), 0):
            ok = False
        comp = (verify._identity_tau(n), polyring._w0_letters(n))
        for _ in range(n - 1):
            comp = verify._compose(comp, sig)
        if verify._length(n, comp) != n * (n - 1) + (n - 1) ** 2:
            ok = False
    report(3, ok, "rotation table and length additivity, ranks 4..6", t0, 5)


def test_criterion_04_xi_congruence_and_lambda_dominance():
    t0 = time.time()
    ok = True
    for n in (4, 5, 6, 7):
        rng = seeded(400 + n)
        for _ in range(25):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            for s in (1, n - 1, n):
                xs = xi_sequence(n, lam, s)
                tot = tuple(map(sum, zip(*xs.keys)))
                if tot[:n] != lam:
                    ok = False
            # rotated factor weights are affine-dominant; the fork twin is
            # covered by running the swapped weight through s = n
            swapped = lam[: n - 2] + (lam[n - 1], lam[n - 2])
            for s, l in ((1, lam), (n, lam), (n, swapped)):
                for x in _lambda_keys(n, _xi(n, l, s).keys):
                    if not is_dominant(n, x):
                        ok = False
    report(4, ok, "100 random weights per rank 4..7, all families", t0, 30)


def test_criterion_05_character_well_formedness():
    t0 = time.time()
    ok = True
    cases = [(4, lam, s) for lam in regular_unit_cube(4) for s in (1, 3, 4)]
    cases += [(5, lam, s) for lam, s in N5_SAMPLE]
    for n, lam, s in cases:
        ch = character(n, lam, s)
        if ch.get(lam) != 1:
            ok = False
        table = decompose(finite_char(n, ch))  # checks Weyl invariance and zero residual
        if table_dimension(n, table) != sum(ch.values()):
            ok = False
    report(5, ok, f"{len(cases)} characters: leading 1, invariant, residual 0", t0, 300)


def test_criterion_06_cross_family_collapse():
    t0 = time.time()
    ok = True
    pairs = [(4, lam) for lam in itertools.product((0, 1), repeat=4) if lam[3] == 0]
    pairs += [(5, lam) for lam in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 1, 0), (1, 0, 0, 1, 0))]
    for n, lam in pairs:
        a = canonical_serialization(character(n, lam, 1))
        b = canonical_serialization(character(n, lam, n - 1))
        if a != b:
            ok = False
    report(6, ok, f"{len(pairs)} spin-branch-free weights, byte-equal characters", t0, 60)


def test_criterion_07_crown_cross_check():
    t0 = time.time()
    ok = True
    for lam in regular_unit_cube(4):
        table = decompose(finite_char(4, character(4, lam, 1)))
        sam = sam_table(4, lam)
        doms = [fw_from_eps2(4, d) for d in dominant_weights_below(4, lam)]
        for mu in doms:
            if table.get(mu, 0) != sam.get(mu, 0):
                ok = False
        if not set(table) <= set(doms):
            ok = False
    worked = decompose(finite_char(4, character(4, (0, 0, 1, 1), 1)))
    ok = ok and worked == {(0, 0, 1, 1): 1, (1, 0, 0, 0): 1}
    ok = ok and table_dimension(4, worked) == 64
    report(7, ok, "Demazure vs symplectic tables on every dominant weight", t0, 300)


def test_criterion_08_known_small_modules():
    t0 = time.time()
    ok = True
    for s in (1, 3, 4):
        t1 = decompose(finite_char(4, character(4, (1, 0, 0, 0), s)))
        ok = ok and t1 == {(1, 0, 0, 0): 1} and table_dimension(4, t1) == 8
        t2 = decompose(finite_char(4, character(4, (0, 1, 0, 0), s)))
        ok = ok and t2 == {(0, 1, 0, 0): 1, (0, 0, 0, 0): 1} and table_dimension(4, t2) == 29
    # the same tables through the independent pipeline
    ok = ok and sam_table(4, (1, 0, 0, 0)).get((1, 0, 0, 0), 0) == 1
    ok = ok and sam_table(4, (0, 1, 0, 0)).get((0, 1, 0, 0), 0) == 1
    ok = ok and sam_table(4, (0, 1, 0, 0)).get((0, 0, 0, 0), 0) == 1
    ok = ok and sam_table(4, (0, 1, 0, 0)).get((1, 0, 0, 0), 0) == 0
    report(8, ok, "vector and adjoint-node modules, dims 8 and 29, all families", t0, 60)


def test_criterion_09_oracle_integrity():
    t0 = time.time()
    ok = True
    # rank 4: full orbit expansion, cross-checked against stabilizer counts
    for mu in itertools.product((0, 1, 2), repeat=4):
        d = dim_irr(4, mu)
        if irr_character(4, mu).mass() != d or character_mass(4, mu) != d:
            ok = False
    # rank 5: stabilizer-order masses (the expansion identity is pinned at
    # rank 4 above, and the Freudenthal data is identical machinery)
    for mu in itertools.product((0, 1, 2), repeat=5):
        if character_mass(5, mu) != dim_irr(5, mu):
            ok = False
    f = irr_character(4, varpi(4, 3)) * irr_character(4, varpi(4, 4))
    table = decompose(f)
    ok = ok and table == {(0, 0, 1, 1): 1, (1, 0, 0, 0): 1}
    report(9, ok, "324 Freudenthal masses vs dimension formula; fork tensor", t0, 60)


def test_criterion_10_cli_contract(capsys):
    t0 = time.time()
    ok = True

    def invoke(*argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out

    examples = [
        ("char", "--n", "4", "--lambda", "0,1,0,0", "--s", "1", "--format", "json"),
        ("xi", "--n", "5", "--lambda", "1,1,0,2,0", "--s", "n", "--format", "json"),
        ("verify", "--suite", "all", "--n", "4"),
    ]
    outputs = []
    for argv in examples:
        code, out = invoke(*argv)
        ok = ok and code == 0 and out
        outputs.append(out)
    code, out = invoke(*examples[0])
    ok = ok and out == outputs[0]
    code, out = invoke(*examples[1])
    ok = ok and out == outputs[1]
    rep = json.loads(outputs[0])
    ok = ok and rep["dimension"] == 29 and len(rep["multiplicities"]) == 2
    ok = ok and set(rep["meta"]) == {"tool_version", "elapsed_ms"}
    rep = json.loads(outputs[1])
    ok = ok and rep["cut"] == 1 and rep["lambda_bar"] == 1 and len(rep["xi"]) == 5
    ok = ok and "0 failed" in outputs[2]
    for argv in (
        ("char", "--n", "4", "--lambda", "1,-1,0,0", "--s", "1"),
        ("char", "--n", "4", "--lambda", "1,0,1,1", "--s", "1"),
        ("char", "--n", "4", "--lambda", "1,0,0,0", "--s", "2"),
        ("char", "--n", "3", "--lambda", "1,0,0", "--s", "1"),
    ):
        code, out = invoke(*argv)
        ok = ok and code == 2 and out == ""
    report(10, ok, "three examples byte-stable and schema-valid; exit 2 clean", t0, 120)


# regular weights with a coordinate 2, on top of the unit cubes
STRAIGHTEN_EXTRA = [
    (4, (2, 1, 1, 2)),
    (4, (0, 2, 1, 0)),
    (4, (2, 0, 0, 1)),
    (4, (1, 2, 0, 2)),
    (5, (2, 0, 1, 0, 0)),
    (5, (1, 0, 0, 0, 2)),
    (5, (0, 0, 2, 0, 1)),
]


def test_criterion_11_straightened_tables_match_greedy():
    t0 = time.time()
    ok = True
    weights = [(n, lam) for n in (4, 5) for lam in regular_unit_cube(n)]
    weights += STRAIGHTEN_EXTRA
    for n, lam in weights:
        tables = {}
        for s in (1, n - 1, n):
            tables[s] = multiplicity_table(n, lam, s)
            if tables[s] != decompose(finite_char(n, character(n, lam, s))):
                ok = False
        swapped = lam[: n - 2] + (lam[n - 1], lam[n - 2])
        twin = {
            mu[: n - 2] + (mu[n - 1], mu[n - 2]): m
            for mu, m in multiplicity_table(n, swapped, n).items()
        }
        ok = ok and tables[n - 1] == twin
    report(
        11, ok, f"{len(weights)} weights x 3 families: straightened == greedy; fork twin", t0, 300
    )


def test_criterion_12_straightened_tables_match_symplectic():
    t0 = time.time()
    ok = True
    for lam in ((1, 0, 0, 1, 1, 1), (1, 1, 0, 1, 1, 1)):
        ok = ok and multiplicity_table(6, lam, 1) == sam_table(6, lam)
    report(12, ok, "two rank-6 weights: straightened s = 1 table == sam_table", t0, 120)


def test_criterion_13_straightened_tables_match_littlewood_rule():
    # weights whose symplectic tables were out of reach by tableau enumeration
    t0 = time.time()
    ok = True
    for n, lam in ((6, (2, 1, 0, 1, 1, 1)), (7, (1, 0, 0, 0, 1, 1, 1)), (7, (1, 1, 0, 1, 1, 1, 1))):
        ok = ok and multiplicity_table(n, lam, 1) == sam_table(n, lam)
    report(13, ok, "three rank-6/7 weights: straightened s = 1 table == sam_table", t0, 60)
