import functools
import itertools
import sys
from fractions import Fraction
from operator import mul, sub

import pytest

from minaff import InputError, VerificationError, cartan, decomp, spbranch, verify, weyl
from minaff.cartan import _rho2, check_rank, eps2, varpi
from minaff.weyl import _dominates, fw_from_eps2
from minaff.verify import _alpha, _step, affine_edges, bilinear, finite_edges
from _decomp_oracle import _dot, positive_roots_eps2
from _helpers import (
    benchmark_lines, minaff_imports, rand_key, seeded, source_mutant, uncalled_code
)
import _weyl_oracle
from _weyl_oracle import (
    AffineWeight,
    branch_set,
    delta_plus_s,
    family_nodes,
    form,
    frame_key,
    fw_to_root,
    key_of,
    pairing,
    positive_roots,
    regular_by_branches,
    root_to_fw,
    support,
    weight_of,
)


def alpha_interval(n, p, q):
    """Connected-support root running from node p to node q: the reference
    the positive-root list and the branch subsets are checked against.

    For q = n the chain detours through the fork: the summand at node n-1
    is replaced by node n.  The pair (p, q) = (n-1, n) is not a root.
    """
    check_rank(n)
    if not (1 <= p <= q <= n) or (p, q) == (n - 1, n):
        raise InputError(f"invalid interval ({p}, {q}) for rank {n}")
    if q <= n - 1:
        support = range(p, q + 1)
    else:
        support = list(range(p, n - 1)) + [n]
    c = [0] * n
    for i in support:
        c[i - 1] = 1
    return tuple(c)


def cartan_matrix(nodes, edges):
    """Rows of the simply-laced Cartan matrix of a diagram, aligned with ``nodes``."""
    joined = {frozenset(e) for e in edges}
    return tuple(
        tuple(2 if i == j else (-1 if frozenset((i, j)) in joined else 0) for j in nodes)
        for i in nodes
    )


def test_positive_root_counts():
    for n in range(4, 9):
        assert len(positive_roots(n)) == n * (n - 1)


def test_positive_roots_match_interval_construction():
    # the interval roots plus, for p < q < n, the root running from p
    # through the fork to n together with the one from q to n-1
    for n in range(4, 10):
        roots = {
            alpha_interval(n, p, q)
            for p in range(1, n + 1)
            for q in range(p, n + 1)
            if (p, q) != (n - 1, n)
        }
        for p in range(1, n):
            for q in range(p + 1, n):
                a, b = alpha_interval(n, p, n), alpha_interval(n, q, n - 1)
                roots.add(tuple(x + y for x, y in zip(a, b)))
        assert positive_roots(n) == roots


def test_positive_roots_contain_detour_roots():
    roots = positive_roots(4)
    assert (1, 1, 0, 1) in roots  # runs 1 -> 4 through the fork
    assert (0, 1, 1, 1) in roots  # interval to 4 plus the lone fork node


def test_alpha_interval():
    assert alpha_interval(4, 2, 2) == (0, 1, 0, 0)
    assert alpha_interval(4, 1, 4) == (1, 1, 0, 1)
    assert alpha_interval(5, 1, 4) == (1, 1, 1, 1, 0)
    with pytest.raises(InputError):
        alpha_interval(4, 3, 4)
    with pytest.raises(InputError):
        alpha_interval(4, 0, 2)
    with pytest.raises(InputError):
        alpha_interval(4, 2, 5)


def test_rank_below_four_rejected():
    with pytest.raises(InputError):
        positive_roots(3)
    with pytest.raises(InputError):
        varpi(3, 1)


def test_bools_and_floats_are_neither_ranks_labels_nor_coordinates():
    # True == 1 and 4.0 == 4, but neither is an int: each is refused before
    # any work, as the command line's exit 2 for invalid input
    from minaff.affinization import multiplicity_table

    for n in (True, 4.0):
        with pytest.raises(InputError):
            check_rank(n)
    for s in (True, 1.0, 4.0):
        with pytest.raises(InputError):
            cartan.resolve_family(4, s)
        with pytest.raises(InputError):
            multiplicity_table(4, (1, 0, 0, 0), s)
    for lam in ((True, 0, 0, 0), (1.0, 0, 0, 0)):
        with pytest.raises(InputError):
            cartan.check_dominant(4, lam)
        with pytest.raises(InputError):
            multiplicity_table(4, lam, 1)
    assert cartan.resolve_family(4, 4) == cartan.resolve_family(4, "n") == 4


def test_a_refused_node_is_printed_with_its_type():
    # the string "1" and the float 1.0 are refused as themselves, not as
    # the int 1 that a bare format would show
    for bad, shown in (("1", "'1'"), (1.0, "1.0")):
        with pytest.raises(InputError) as refused:
            varpi(4, bad)
        assert str(refused.value) == f"node {shown} outside 1..4"


def _input_checks(fn, *args):
    """What ``fn(*args)`` returns, and how often it runs each input check:
    the rank, weight, node and dominance rules, ``resolve_family``, and the
    symplectic ``partition_of``.
    Counted by code object: the modules bind the names through ``from
    .cartan import``, so patching ``cartan`` would miss their calls."""
    checks = (cartan.check_rank, cartan.check_weight, cartan.check_node,
              cartan.check_dominant, cartan.resolve_family, spbranch.partition_of)
    names = {fn.__code__: fn.__name__ for fn in checks}
    counts = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, counts


def test_each_entry_point_checks_its_input_once():
    from minaff.affinization import multiplicity_table, xi_sequence
    from minaff.cli_extra import drinfeld
    from minaff.polyring import character

    lam6, lam5 = (1, 0, 0, 1, 1, 1), (1, 1, 0, 2, 0)
    calls = [(multiplicity_table, 6, lam6, s) for s in (1, 5, 6)] + [
        (character, 4, (1, 1, 1, 1), 4),
        (xi_sequence, 5, lam5, 4),
        (spbranch.sam_table, 6, lam6),
        (drinfeld, 4, (1, 1, 0, 0), 1),
    ]
    for fn, *args in calls:
        _, counts = _input_checks(fn, *args)
        assert counts["check_dominant"] == 1, (fn.__name__, args, counts)
        assert counts["resolve_family"] <= 1, (fn.__name__, args, counts)


def test_a_table_report_checks_the_input_weight_once(capsys):
    # the rows are weights the pipeline built: their dimensions, the
    # partition behind a sam table and its constituents are read without a
    # second check.  The pairs, keys and finite weights of the table path
    # are built from checked data and not checked again.  What remains is
    # each public function's own check (the rank in ``run``,
    # ``check_dominant`` and the one ``resolve_family`` call, in
    # ``_regular_input``; the weight once, in ``check_dominant``, since
    # ``is_regular`` reads its coordinates and builds no support).
    # The Demazure step reads its nodes off the letters and checks none.
    from minaff.cli import run

    lam = "1,0,0,1,1,1"
    for command in ("char", "decomp"):
        for s in ("1", "n-1", "n"):
            code, counts = _input_checks(run, [command, "--n", "6", "--lambda", lam, "--s", s])
            assert code == 0 and counts["check_dominant"] == 1, (command, s, counts)
            assert counts["resolve_family"] == 1, (command, s, counts)
            assert counts["check_weight"] == 1, (command, s, counts)
            assert counts["check_rank"] == 3, (command, s, counts)
            assert counts["check_node"] == 0, (command, s, counts)
    code, counts = _input_checks(run, ["sam", "--n", "6", "--lambda", lam])
    assert code == 0, counts
    assert counts["check_dominant"] == 1 and counts["partition_of"] == 1, counts
    assert counts["resolve_family"] == 0 and counts["check_rank"] <= 3, counts
    code, counts = _input_checks(run, ["xi", "--n", "5", "--lambda", "1,1,0,2,0", "--s", "n"])
    assert code == 0 and counts["resolve_family"] == 1, counts
    assert capsys.readouterr().err == ""


def test_a_weight_failing_two_checks_is_refused_for_the_first(capsys):
    from minaff.affinization import multiplicity_table, xi_sequence
    from minaff.cli import run
    from minaff.cli_extra import drinfeld
    from minaff.polyring import character

    nondominant, irregular = (1, 0, -1, 0), (1, 0, 1, 1)
    for fn in (multiplicity_table, character, xi_sequence, drinfeld):
        with pytest.raises(InputError, match="is not dominant"):
            fn(4, nondominant, "x")
    for fn in (multiplicity_table, character):
        with pytest.raises(InputError, match="unknown family label"):
            fn(4, irregular, "x")
        with pytest.raises(InputError, match="outside the regular classification"):
            fn(4, irregular, 1)
    with pytest.raises(InputError, match="is not dominant"):
        spbranch.sam_table(4, nondominant)
    # the command line hands the raw label to each entry point, so it
    # refuses in the same order; sam_table takes no label, so sam checks
    # its --s first
    lam = ["--n", "4", "--lambda", "1,0,-1,0"]
    for command in ("char", "decomp", "xi", "drinfeld"):
        assert run([command, *lam, "--s", "x"]) == 2, command
        out = capsys.readouterr()
        assert out.out == "" and "is not dominant" in out.err, (command, out.err)
    for s, message in (("x", "unknown family label"), ("1", "outside the regular")):
        assert run(["char", "--n", "4", "--lambda", "1,0,1,1", "--s", s]) == 2
        assert message in capsys.readouterr().err
    assert run(["sam", *lam, "--s", "n"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "covers the s = 1 family only" in out.err, out.err
    assert run(["sam", *lam]) == 2
    assert "is not dominant" in capsys.readouterr().err


# Every weight with coordinates in 0..2 at ranks 4..8: 9,801 weights.
SMALL_WEIGHTS = [
    (n, lam) for n in range(4, 9) for lam in itertools.product(range(3), repeat=n)
]


def regularity_mismatches():
    """The small weights on which ``cartan.is_regular`` and the oracle's
    branch-set rule disagree."""
    return [
        (n, lam)
        for n, lam in SMALL_WEIGHTS
        if cartan.is_regular(n, lam) != regular_by_branches(n, lam)
    ]


def test_regularity_in_closed_form_is_the_branch_set_rule():
    assert len(SMALL_WEIGHTS) == 9801
    assert regularity_mismatches() == []


@pytest.mark.parametrize(
    "old, new",
    [("lam[n - 3] > 0 or ", ""), (" and any(lam[: n - 3])", "")],
    ids=["without the fork", "without the chain"],
)
def test_the_regularity_sweep_sees_a_dropped_clause(monkeypatch, old, new):
    monkeypatch.setattr(cartan, "is_regular", source_mutant(cartan, "is_regular", old, new))
    assert regularity_mismatches()


def test_cartan_matrices():
    fin = cartan_matrix(range(1, 5), finite_edges(4))
    assert all(fin[i][i] == 2 for i in range(4))
    assert fin[1][3] == fin[3][1] == -1  # nodes 2 and 4
    assert fin[2][3] == 0  # nodes 3 and 4
    aff = cartan_matrix(range(5), affine_edges(4))
    assert aff[0][2] == -1 and aff[0][1] == 0
    # row sums reflect node degree: 2 - #neighbours; the central node of the
    # rank-4 affine diagram carries all four outer nodes
    assert [sum(row) for row in aff] == [1, 1, -2, 1, 1]
    # the finite diagram is the affine one with node 0 removed
    aff6 = cartan_matrix(range(7), affine_edges(6))
    assert tuple(row[1:] for row in aff6[1:]) == cartan_matrix(range(1, 7), finite_edges(6))


def test_delta_plus_s_against_brute_force():
    for n in (4, 5, 6):
        for s in family_nodes(n):
            brute = {
                r
                for r in positive_roots(n)
                if any(
                    not (support(r) & branch_set(n, rr))
                    for rr in family_nodes(n)
                    if rr != s
                )
            }
            assert delta_plus_s(n, s) == brute


def test_delta_plus_s_examples():
    assert all(r[2] == 0 or r[3] == 0 for r in delta_plus_s(4, 1))
    a13 = alpha_interval(4, 1, 3)
    assert a13 in delta_plus_s(4, 1)
    # meets all three branches, so it lies in no family subset
    doubled = tuple(x + y for x, y in zip(alpha_interval(4, 1, 4), alpha_interval(4, 3, 3)))
    for s in (1, 3, 4):
        assert doubled not in delta_plus_s(4, s)
    with pytest.raises(InputError):
        delta_plus_s(4, 2)


def test_delta_plus_s_multiplicity_free():
    for n in (4, 5, 6):
        for s in (1, n - 1, n):
            for r in delta_plus_s(n, s):
                assert all(v in (0, 1) for v in r)


def test_pairing():
    # in the frame, read off the step: a key pairing m >= 0 with a node
    # spans a string of m + 1 keys, one pairing -1 none, and one pairing
    # m < -1 a negated string of -m - 1 keys.  Lambda_0 pairs 1 with node 0
    # (verify's) and 0 with node 2; varpi_2 is (2, 2, 0, 0) and pairs -2
    # with node 0, varpi_1 -1
    L0 = (0,) * 4 + (1, 0)
    assert _step(4, 2, {L0: 1}) == {L0: 1}
    assert _step(4, 0, {L0: 1}) == {L0: 1, tuple(map(sub, L0, _alpha(4, 0))): 1}
    w2 = eps2(4, varpi(4, 2)) + (0, 0)
    assert w2 == (2, 2, 0, 0, 0, 0)
    assert _step(4, 0, {w2: 1}) == {tuple(map(sum, zip(w2, _alpha(4, 0)))): -1}
    assert _step(4, 0, {eps2(4, varpi(4, 1)) + (0, 0): 1}) == {}
    with pytest.raises(InputError):
        _alpha(4, 5)


def test_pairing_ignores_delta():
    rng = seeded(4)
    for _ in range(30):
        fin = tuple(rng.randint(-3, 3) for _ in range(5))
        x = AffineWeight(fin, rng.randint(-2, 2), 0)
        y = AffineWeight(fin, x.level, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for i in range(6):
            assert pairing(i, x) == pairing(i, y)


def test_bilinear_normalization():
    # bilinear is four times the form: delta pairs 1 with Lambda_0, a simple
    # root has square length 2
    n = 4
    d = (0,) * n + (0, 2)
    L0 = (0,) * n + (1, 0)
    assert bilinear(d, L0) == 4
    assert bilinear(L0, L0) == 0
    a1, a2 = _alpha(n, 1), _alpha(n, 2)
    assert bilinear(a1, a1) == 8
    assert bilinear(a1, a2) == -4
    assert bilinear(frame_key(varpi(n, 1) + (0, 0)), d) == 0


def test_bilinear_is_four_times_the_rational_form():
    rng = seeded(5)
    for n in (4, 5, 6):
        for _ in range(40):
            x = AffineWeight(
                tuple(rng.randint(-3, 3) for _ in range(n)),
                rng.randint(-2, 2),
                Fraction(rng.randint(-5, 5), 2),
            )
            y = rand_key(n, rng)
            assert bilinear(frame_key(key_of(x)), frame_key(y)) == 4 * form(x, weight_of(y))


def test_real_roots_have_square_length_two():
    for n in (4, 5):
        for beta in positive_roots(n):
            for k in range(-3, 4):
                x = AffineWeight(root_to_fw(n, beta), 0, k)
                assert form(x, x) == 2
                assert bilinear(frame_key(key_of(x)), frame_key(key_of(x))) == 8


def test_support():
    assert support(tuple(a + b for a, b in zip(varpi(4, 1), varpi(4, 3)))) == {1, 3}
    assert support((0, 0, 0, 0)) == frozenset()
    assert support(alpha_interval(4, 2, 4)) == {2, 4}
    for bad in ((-1, 0, 0, 0), (1.5, 0), (True, 0)):
        with pytest.raises(InputError):
            support(bad)


def test_coordinate_round_trips():
    rng = seeded(12)
    for n in (4, 5, 7):
        for _ in range(50):
            fw = tuple(rng.randint(-4, 4) for _ in range(n))
            assert fw_from_eps2(n, eps2(n, fw)) == fw
        # every point it reads was computed: one off the lattice is a
        # failed verification, not bad input
        with pytest.raises(VerificationError, match="not a doubled weight-lattice point"):
            fw_from_eps2(n, (1,) + (0,) * (n - 1))
        for c in list(positive_roots(n))[:20]:
            assert fw_to_root(n, root_to_fw(n, c)) == c


def dominates(n, lam, mu):
    """The frame's dominance order on two weights in fundamental coordinates."""
    return _dominates(n, eps2(n, lam), eps2(n, mu))


def test_dominance_order():
    n = 4
    lam = (1, 1, 0, 0)
    a2 = root_to_fw(n, (0, 1, 0, 0))
    assert dominates(n, lam, tuple(l - a for l, a in zip(lam, a2)))
    assert not dominates(n, (0, 0, 0, 1), (0, 0, 1, 0))  # different coset
    assert not dominates(n, (0, 0, 0, 0), (0, 1, 0, 0))
    assert dominates(n, root_to_fw(n, (1, 2, 1, 1)), (0, 0, 0, 0))


def test_dominates_matches_sums_of_positive_roots():
    # oracle: every positive root is a sum of simple roots, so lam - mu must
    # be one.  A nonzero sum q of simple roots has <q, q> > 0, so it pairs
    # positively with a simple coroot at some node of its support, and that
    # pairing is q's fundamental coordinate there: stepping down by simple
    # roots at positive coordinates while the rho-height stays positive
    # finds every such sum.
    for n in (4, 5):
        simple = cartan_matrix(range(1, n + 1), finite_edges(n))
        rho = _rho2(n)

        @functools.lru_cache(maxsize=None)
        def is_sum(d):
            if not any(d):
                return True
            if sum(map(mul, eps2(n, d), rho)) <= 0:
                return False
            return any(v > 0 and is_sum(tuple(map(sub, d, a))) for v, a in zip(d, simple))

        weights = list(itertools.product(range(3), repeat=n))
        below = 0
        for lam in weights:
            for mu in weights:
                expected = is_sum(tuple(map(sub, lam, mu)))
                assert dominates(n, lam, mu) == expected, (lam, mu)
                below += expected
        assert len(weights) < below < len(weights) ** 2


# The root-system names: weyl defines what the table path runs, verify the
# diagrams and the form, and cartan none of them; the fundamental-coordinate
# kernel that the frame replaced is the Weyl oracle's.
MOVED_TO_WEYL = ("_dominates", "_dominantize", "fw_from_eps2")
MOVED_TO_VERIFY = ("affine_edges", "bilinear", "finite_edges")
MOVED_TO_ORACLE = (
    "theta_coeffs", "root_to_fw", "fw_to_root", "key_pairing", "alpha_key", "support"
)
# Root lists: the doubled one lives with its only reader, the Freudenthal
# recursion of the decomposition oracle; the simple-root-coordinate one and
# its family subsets in the Weyl oracle.
ROOT_LISTS = ("positive_roots_eps2", "positive_roots", "delta_plus_s")


def test_cartan_keeps_the_weight_lattice_and_weyl_the_roots():
    assert minaff_imports(cartan) == set()
    for name in MOVED_TO_WEYL:
        assert not hasattr(cartan, name), name
        assert getattr(weyl, name).__module__ == "minaff.weyl", name
    for name in MOVED_TO_VERIFY:
        assert not hasattr(cartan, name) and not hasattr(weyl, name), name
        assert getattr(verify, name).__module__ == "minaff.verify", name
    for name in MOVED_TO_ORACLE:
        assert not any(hasattr(m, name) for m in (cartan, weyl, verify, decomp)), name
        assert getattr(_weyl_oracle, name).__module__ == "_weyl_oracle", name
    for name in (*ROOT_LISTS, "_dot"):
        assert not any(hasattr(m, name) for m in (cartan, weyl, verify, decomp)), name
    assert positive_roots_eps2.__module__ == _dot.__module__ == "_decomp_oracle"
    assert positive_roots.__module__ == delta_plus_s.__module__ == "_weyl_oracle"
    assert not any(hasattr(m, "in_root_cone") for m in (cartan, weyl, verify))
    # so the symplectic pipeline loads no code that knows a root
    assert minaff_imports(spbranch) == {"cartan"}


# cartan holds what both pipelines share, so the six sam lines of the
# benchmark call every function it defines but these, by qualified name.
SAM_UNCALLED = {
    "check_node",  # the node rule, read by varpi
    "varpi",  # a library export; the Demazure side and verify call it
    "_unit",  # varpi's body and the level-one weights of the Demazure side
    "_unit.<locals>.<genexpr>",  # part of _unit
    "resolve_family",  # the family label, which a sam line given no --s never reads
    "_irregular",  # the refusal of an irregular weight, which no benchmark line meets
    "dim_irr",  # the checked library export; a table report calls _dim_irr
}


def test_a_sam_process_runs_every_function_of_cartan_but_the_exempt_ones():
    sam_lines = [argv for argv in benchmark_lines() if argv[0] == "sam"]
    assert len(sam_lines) == 6
    assert uncalled_code(cartan, sam_lines) == SAM_UNCALLED
