import itertools

import pytest
from hypothesis import given, settings, strategies as st

from minaff import CharacterError, InputError, VerificationError
from minaff.affinization import (
    _lambda_keys,
    _straighten,
    _xi,
    is_regular,
    multiplicity_table,
    resolve_family,
    xi_sequence,
)
from minaff.cartan import eps2, varpi
from minaff.cli import run
from minaff.cli_extra import drinfeld
from minaff.polyring import character
from minaff.spbranch import sam_table
from minaff import affinization, polyring, verify, weyl
from _decomp_oracle import decompose, irr_character
from _helpers import break_longest_word, rand_char, rand_key, seeded
from _ring_oracle import CharElem, finite_char, pre_w0_oracle, straightened, swap_fork
from _weyl_oracle import (
    ExtendedWeylWord,
    act,
    branch_set,
    compose,
    from_word,
    frame_key,
    fw_key,
    inverse,
    is_dominant,
    lambda_keys_by_rotation,
    lambda_keys_by_walk,
    longest_word,
    sigma_word,
    simple,
    support,
    tau_fork,
)
import _weyl_oracle as oracle



def lambda_keys(n, xi):
    """The program's rotated factor weights, read back into fundamental
    coordinates."""
    return tuple(fw_key(k) for k in _lambda_keys(n, xi))


def modqd(k):
    """A key's finite part and level: the weight modulo delta."""
    return (k[:-2], k[-2])


def test_resolve_family():
    assert resolve_family(4, "n-1") == 3
    assert resolve_family(4, "n") == 4
    assert resolve_family(5, 4) == 4
    with pytest.raises(InputError):
        resolve_family(4, 2)
    with pytest.raises(InputError):
        resolve_family(4, "spin")


def test_xi_family_one_worked_case():
    xs = xi_sequence(4, (0, 0, 1, 2), 1)
    assert (xs.m, xs.m_prime) == (4, 3)
    e = xs.keys
    assert e[0] == (0, 0, 0, 0, 0, 0) and e[1] == (0, 0, 0, 0, 0, 0)
    assert e[2] == (0, 0, 1, 1, 1, 0)
    assert e[3] == (0, 0, 0, 1, 1, 0)


def test_xi_family_n_worked_case():
    xs = xi_sequence(5, (1, 1, 0, 2, 0), 5)
    assert (xs.cut, xs.lambda_bar) == (1, 1)
    e = xs.keys
    assert e[0] == (1, 0, 0, 1, 0, 1, 0)
    assert e[1] == (0, 1, 0, 1, 0, 1, 0)
    assert e[2] == e[3] == e[4] == (0,) * 7


def test_xi_congruence():
    rng = seeded(42)
    for n in (4, 5, 6, 7):
        for _ in range(15):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            for s in (1, n - 1, n):
                xs = xi_sequence(n, lam, s)
                tot = tuple(map(sum, zip(*xs.keys)))
                assert tot[:n] == lam, (n, lam, s)


def test_xi_rejects_non_dominant():
    with pytest.raises(InputError):
        xi_sequence(4, (1, -1, 0, 0), 1)


def test_lambda_sequence_displays():
    # multiples of a single chain node stay at the affine vertex
    L = lambda_keys(4, _xi(4, (0, 3, 0, 0), 1).keys)
    assert modqd(L[1]) == ((0, 0, 0, 0), 3)
    # the worked s = n case pins entry 2 at the spin node
    L = lambda_keys(5, _xi(5, (1, 1, 0, 2, 0), 5).keys)
    assert modqd(L[1]) == (varpi(5, 4), 1)


def test_lambda_sequence_display_random():
    rng = seeded(43)
    for n in (4, 5, 6):
        for _ in range(12):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            L1 = lambda_keys(n, _xi(n, lam, 1).keys)
            lmp = min(lam[n - 2], lam[n - 1])
            for j in range(1, n - 1):
                assert modqd(L1[j - 1]) == ((0,) * n, lam[j - 1])
            assert modqd(L1[n - 2]) == ((0,) * n, lmp)
            xs = xi_sequence(n, lam, n)
            Ln = lambda_keys(n, xs.keys)
            cut, lbar = xs.cut, xs.lambda_bar
            spin = varpi(n, n - 1)
            for j in range(1, n - 1):
                if j < cut or j == n - 2:
                    expect = ((0,) * n, lam[j - 1])
                elif j == cut:
                    expect = (tuple(lbar * v for v in spin), lam[j - 1])
                else:
                    fin = tuple(lam[j - 1] * v for v in spin)
                    lvl = lam[j - 1]
                    if cut == 0 and j == 1:
                        fin = tuple(a + lbar * b for a, b in zip(fin, varpi(n, n)))
                        lvl += lbar
                    expect = (fin, lvl)
                assert modqd(Ln[j - 1]) == expect, (n, lam, j)


def test_lambda_sequence_dominant():
    rng = seeded(44)
    for n in (4, 5):
        for _ in range(10):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            for s in (1, n):
                for x in lambda_keys(n, _xi(n, lam, s).keys):
                    assert is_dominant(n, x)


def test_character_small_cases():
    n = 4
    assert character(n, (0,) * n, 1) == {(0,) * n: 1}
    assert finite_char(n, character(n, varpi(n, 1), 1)) == irr_character(n, varpi(n, 1))
    for s in (1, 3, 4):
        ch = character(n, varpi(n, 2), s)
        assert sum(ch.values()) == 29
        assert ch[varpi(n, 2)] == 1
        assert 0 not in ch.values()


def test_character_weyl_invariant():
    n = 4
    ch = finite_char(n, character(n, (1, 1, 0, 0), 4))
    for i in range(1, n + 1):
        assert ch.relabel_weyl(simple(n, i)) == ch


def test_character_symmetric_weight_fork_symmetry():
    # equal spin coordinates give a fork-symmetric character for s = 1
    for lam in ((0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)):
        ch = finite_char(4, character(4, lam, 1))
        assert ch.twist(tau_fork(4)) == ch


def test_character_cross_family_collapse():
    # spin branch n missed: the two remaining families literally coincide
    for lam in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0)):
        assert character(4, lam, 1) == character(4, lam, 3)


def test_character_fork_twin_is_twist():
    lam = (1, 0, 1, 0)
    swapped = (1, 0, 0, 1)
    a = finite_char(4, character(4, lam, 3))
    b = finite_char(4, character(4, swapped, 4)).twist(tau_fork(4))
    assert a == b


def test_character_rejects_bad_input(monkeypatch):
    with pytest.raises(InputError):
        character(4, (1, -1, 0, 0), 1)
    with pytest.raises(InputError):
        character(4, (1, 0, 1, 1), 1)  # zero fork coordinate, full spread
    real = polyring._pre_w0
    monkeypatch.setattr(polyring, "_pre_w0", lambda *a: {k: 2 * c for k, c in real(*a).items()})
    with pytest.raises(CharacterError, match="leading coefficient"):
        character(4, (0, 1, 0, 0), 1)


def test_is_regular():
    assert is_regular(4, (0, 1, 0, 0))
    assert not is_regular(4, (1, 0, 1, 1))
    assert is_regular(4, (1, 1, 1, 1))
    assert is_regular(5, (1, 1, 0, 0, 0))
    assert not is_regular(5, (1, 0, 0, 1, 1))


def test_drinfeld_examples():
    d = drinfeld(4, varpi(4, 1), 1, 1)
    assert d == ((1, 1, 0),)
    d = drinfeld(4, (1, 1, 0, 0), 1, 1)
    assert dict((i, c) for i, m, c in d)[2] == 3
    dm = drinfeld(4, (1, 1, 0, 0), 1, -1)
    assert dict((i, c) for i, m, c in dm)[2] == -3
    # each factor carries lambda_i at node i
    assert {i: m for i, m, _ in d} == {1: 1, 2: 1}
    with pytest.raises(InputError):
        drinfeld(4, (1, 0, 0, 0), 1, 2)
    # the offsets are exact data: a float or a bool sign is refused, not multiplied in
    for epsilon in (1.0, True, -1.0):
        with pytest.raises(InputError, match="epsilon must be"):
            drinfeld(4, (1, 1, 0, 0), 1, epsilon)


def test_drinfeld_family_agreement_on_missed_spin_branch():
    rng = seeded(47)
    for n in (4, 5):
        for _ in range(10):
            lam = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (0,)
            assert drinfeld(n, lam, 1) == drinfeld(n, lam, n - 1)


def test_multiplicity_table_small_cases():
    for s in (1, 3, 4):
        assert multiplicity_table(4, (1, 0, 0, 0), s) == {(1, 0, 0, 0): 1}
        assert multiplicity_table(4, (0, 1, 0, 0), s) == {(0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    assert multiplicity_table(4, (0, 0, 1, 1), 1) == {(0, 0, 1, 1): 1, (1, 0, 0, 0): 1}


def test_multiplicity_table_fork_twin_is_swap():
    twin = multiplicity_table(4, (1, 1, 2, 1), 3)
    base = multiplicity_table(4, (1, 1, 1, 2), 4)
    assert twin == {mu[:2] + (mu[3], mu[2]): m for mu, m in base.items()}


@st.composite
def regular_family_case(draw):
    n = draw(st.sampled_from((4, 5)))
    lam = draw(st.tuples(*[st.integers(0, 2)] * n).filter(lambda lam: is_regular(n, lam)))
    return n, lam, draw(st.sampled_from((1, n - 1, n)))


@settings(max_examples=100, deadline=None)
@given(regular_family_case())
def test_multiplicity_table_cross_pipeline_sweep(case):
    n, lam, s = case
    table = multiplicity_table(n, lam, s)
    if s == 1:
        assert table == sam_table(n, lam)
    elif s == n - 1:
        swapped = lam[: n - 2] + (lam[n - 1], lam[n - 2])
        base = multiplicity_table(n, swapped, n)
        assert table == {mu[: n - 2] + (mu[n - 1], mu[n - 2]): m for mu, m in base.items()}
    if n == 4 and s != 1:
        # the full character is cheap at rank 4; rank 5 is covered by criterion 11
        assert table == decompose(finite_char(n, character(n, lam, s)))


def test_a_rank_9_table_matches_the_symplectic_pipeline():
    # the largest table a test checks: 98,116 terms in the biggest map of
    # the passes and 1,335 rows, against the pipeline that shares no code
    lam = (1, 1, 0, 1, 1, 1, 1, 1, 1)
    table = multiplicity_table(9, lam, 1)
    assert len(table) == 1335
    assert table == sam_table(9, lam)


# every regular weight with coordinates <= 2 at ranks 4 and 5, <= 1 at rank 6
COINCIDENCE_WEIGHTS = [
    (n, lam)
    for n, top in ((4, 2), (5, 2), (6, 1))
    for lam in itertools.product(range(top + 1), repeat=n)
    if is_regular(n, lam)
]


def assert_family_coincidences(n, lam):
    """Check the coincidences a regular ``lam`` implies; True if its support
    meets every branch, where the three tables must differ pairwise.

    A measured invariant: a branch that the support misses makes the two
    families it does not label agree, which checks the s = n passes against
    s = 1 and, through it, against the symplectic pipeline."""
    tables = {s: multiplicity_table(n, lam, s) for s in (1, n - 1, n)}
    missed = {t for t in (1, n - 1, n) if not support(lam) & branch_set(n, t)}
    if n - 1 in missed:
        assert tables[1] == tables[n], (n, lam)
    if n in missed:
        assert tables[1] == tables[n - 1], (n, lam)
    if 1 in missed:
        assert tables[n] == tables[n - 1], (n, lam)
    if len(missed) >= 2:
        assert tables[1] == sam_table(n, lam), (n, lam)
    if not missed:
        for a, b in itertools.combinations((1, n - 1, n), 2):
            assert tables[a] != tables[b], (n, lam, a, b)
    return not missed


def test_family_tables_coincide_where_the_support_misses_a_branch():
    spread = sum(assert_family_coincidences(n, lam) for n, lam in COINCIDENCE_WEIGHTS)
    assert spread > 0


@st.composite
def coincidence_case(draw):
    # past the grid: rank 6 with a coordinate 2, and rank 7, where a weight
    # of size at most 7 keeps the three tables under about 1.5 s (2-vCPU VM)
    n = draw(st.sampled_from((6, 7)))
    lam = draw(
        st.tuples(*[st.integers(0, 2)] * n).filter(
            lambda lam: is_regular(n, lam) and (2 in lam if n == 6 else sum(lam) <= 7)
        )
    )
    return n, lam


@settings(max_examples=20, deadline=None)
@given(coincidence_case())
def test_family_tables_coincide_past_the_grid(case):
    assert_family_coincidences(*case)


def test_fork_swap_is_the_fork_relabelling():
    rng = seeded(45)
    for n in range(4, 9):
        fork = oracle.key_twist(n, tau_fork(n).tau)
        for _ in range(30):
            k = rand_key(n, rng)
            assert affinization._swap_fork(n, k) == fork(k), (n, k)
            mu = k[:n]
            assert affinization._swap_fork(n, mu) + k[n:] == fork(k), (n, mu)


def test_lambda_sequence_is_the_rotation_preimage_on_the_grid():
    for n, lam in COINCIDENCE_WEIGHTS:
        sigma_inv = inverse(sigma_word(n))
        for s in (1, n):
            xi = xi_sequence(n, lam, s).keys
            rot = from_word(n, ())
            expect = []
            for j in range(1, n):
                rot = compose(rot, sigma_inv)
                expect.append(act(rot, xi[j - 1]))
            assert lambda_keys(n, xi) == (*expect, xi[n - 1]), (n, lam, s)


@pytest.mark.parametrize("n", range(4, 13))
def test_lambda_keys_walk_equals_the_rotation_route(n):
    # three routes: the closed form of the program, the end of the chamber
    # walk relabelled at odd j, and sigma^-1 applied j times; on the zero
    # weight, every fundamental weight and random regular weights with
    # coordinates <= 2, at ranks 4 to 12
    rng = seeded(46 + n)
    weights = [(0,) * n] + [varpi(n, i) for i in range(1, n + 1)]
    while len(weights) < 2 * n + 13:
        lam = tuple(rng.randint(0, 2) for _ in range(n))
        if is_regular(n, lam):
            weights.append(lam)
    for lam in weights:
        for s in (1, n):
            xi = _xi(n, lam, s).keys
            expect = lambda_keys_by_rotation(n, xi)
            assert lambda_keys(n, xi) == lambda_keys_by_walk(n, xi) == expect, (n, lam, s)


@pytest.mark.parametrize("level", [0, -1])
def test_lambda_keys_refuses_a_factor_with_no_dominant_point(level):
    # a runtime invariant, not an assert: such a factor has no orbit point
    # in the alcove, and the closed form would divide by its level
    xi = _xi(4, (0, 1, 0, 0), 1).keys
    bad = (varpi(4, 1) + (level, 0),) + xi[1:]
    with pytest.raises(VerificationError, match="no dominant point"):
        _lambda_keys(4, bad)
    # a multiple of delta has level 0 and is dominant as it stands
    assert _lambda_keys(4, ((0, 0, 0, 0, 0, 2),) + xi[1:])[0] == (0, 0, 0, 0, 0, 2)


def test_multiplicity_table_rejects_bad_input():
    with pytest.raises(InputError):
        multiplicity_table(4, (1, 0, 1, 1), 1)  # non-regular
    with pytest.raises(InputError):
        multiplicity_table(4, (1, -1, 0, 0), 1)
    with pytest.raises(InputError):
        multiplicity_table(4, (1, 0, 0, 0), 2)


@pytest.mark.parametrize(
    "table, message",
    [
        ({(0, 1, 0, 0): 2}, "leading multiplicity"),
        ({(0, 1, 0, 0): 1, (0, 0, 0, 0): -1}, "negative multiplicity"),
        ({(0, 1, 0, 0): 1, (1, 0, 0, 0): 1}, "not below"),
    ],
)
def test_multiplicity_table_invariants_raise(monkeypatch, table, message):
    frame = {eps2(4, mu): m for mu, m in table.items()}
    monkeypatch.setattr(affinization, "_straighten", lambda n, terms: dict(frame))
    with pytest.raises(CharacterError, match=message):
        multiplicity_table(4, (0, 1, 0, 0), 1)


def length_additivity_holds(n):
    """Whether ``verify``'s nesting proof passes at rank n."""
    checks = []
    verify._suite_weyl(n, checks)
    return dict(checks)["weyl.length_additivity"]


def test_nesting_check_refuses_a_composite_that_cancels(monkeypatch):
    assert length_additivity_holds(4)
    break_longest_word(monkeypatch)
    assert not length_additivity_holds(4)


def test_pre_w0_refuses_a_polynomial_past_the_term_limit(monkeypatch, capsys):
    # a tiny limit stands in for a huge job, which is never launched
    lam = (0, 1, 1, 1, 1)
    assert len(affinization._pre_w0(5, lam, 5)) == 48  # the largest step
    assert len(character(5, lam, "n")) == 6052
    monkeypatch.setattr(weyl, "MAX_TERMS", 48)
    table = multiplicity_table(5, lam, "n")
    assert len(table) == 11
    # the longest-element pass is bounded by the same check
    with pytest.raises(InputError, match="limit of 48 terms"):
        character(5, lam, "n")
    monkeypatch.setattr(weyl, "MAX_TERMS", 47)
    with pytest.raises(InputError, match="limit of 47 terms"):
        multiplicity_table(5, lam, "n")
    with pytest.raises(InputError, match="limit of 47 terms"):
        multiplicity_table(5, lam, "n-1")
    argv = ["char", "--n", "5", "--lambda", "0,1,1,1,1", "--s", "n"]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "limit of 47 terms" in out.err
    # the verify suites build their characters through the same passes
    monkeypatch.setattr(weyl, "MAX_TERMS", 1)
    assert run(["verify", "--n", "4", "--suite", "pipeline"]) == 2
    assert capsys.readouterr().out == ""
    monkeypatch.undo()
    assert multiplicity_table(5, lam, "n") == table


def test_nesting_check_refuses_a_rotation_word_that_is_not_reduced(monkeypatch):
    # verify fails the rotation word, which the ring oracle's word
    # operator refuses on every pass
    real = weyl.sigma_pair

    def doubled_first_letter(n):
        tau, letters = real(n)
        return tau, letters[:1] + letters

    monkeypatch.setattr(weyl, "sigma_pair", doubled_first_letter)
    assert not length_additivity_holds(4)
    with pytest.raises(InputError, match="is not reduced"):
        CharElem.one(4).demazure_word(ExtendedWeylWord(4, *doubled_first_letter(4)))


# every regular weight with coordinates <= 1 at ranks 4 and 5, and the
# weights of the benchmark's char/decomp cases
MAP_PATH_WEIGHTS = [
    (n, lam)
    for n in (4, 5)
    for lam in itertools.product((0, 1), repeat=n)
    if is_regular(n, lam)
] + [(6, (1, 0, 0, 1, 1, 1)), (5, (1, 0, 1, 1, 2)), (5, (1, 0, 1, 1, 0))]


def finite_parts(n, elem):
    """The keys of an affine element cut to their finite parts, the
    coefficients of equal parts summed."""
    return {k[:n]: c for k, c in elem.specialize().items()}


def in_frame(n, terms):
    """A map of finite weights in fundamental coordinates, in the frame."""
    return {eps2(n, mu): c for mu, c in terms.items()}


def test_map_path_matches_the_element_route():
    # the program carries finite weights only, so keys of the element route
    # that differ only in delta merge: 52 keys become 48 here, and a
    # comparison that merged nothing would not see it.  The program's maps
    # are in its frame, the oracle's in fundamental coordinates; eps2 is a
    # bijection, so the maps are compared through it term for term
    lam = (0, 1, 1, 1, 1)
    assert (len(pre_w0_oracle(5, lam, 5)), len(affinization._pre_w0(5, lam, 5))) == (52, 48)
    for n, lam in MAP_PATH_WEIGHTS:
        for s in (1, n - 1, n):
            # the fork twin runs the s = n passes of the swapped weight
            base, s0 = (swap_fork(n, lam), n) if s == n - 1 else (lam, s)
            oracle_map = pre_w0_oracle(n, base, s0)
            finite = finite_parts(n, oracle_map)
            assert affinization._pre_w0(n, base, s0) == in_frame(n, finite), (n, lam, s)
            if s == n - 1:
                # the program relabels the polynomial; the oracle swaps the
                # finished table and character below, so the two finishes
                # are checked to commute with the fork relabelling
                twin = in_frame(n, finite_parts(n, oracle_map.twist(tau_fork(n))))
                assert affinization._pre_w0(n, lam, s) == twin, (n, lam, s)
            expected = straightened(n, finite)
            if s == n - 1:
                expected = {swap_fork(n, mu): m for mu, m in expected.items()}
            assert multiplicity_table(n, lam, s) == expected, (n, lam, s)
            if n == 4:
                # the full character: the oracle runs w0 on the affine
                # element and specializes after; the program projects first
                full = oracle_map.demazure_word(longest_word(n)).specialize()
                if s == n - 1:
                    full = full.twist(tau_fork(n))
                assert finite_char(n, character(n, lam, s)) == full, (n, lam, s)


def test_demazure_kernel_drops_cancelled_keys():
    rng = seeded(83)
    for n in (4, 5):
        for _ in range(20):
            terms = {frame_key(k): c for k, c in rand_char(n, rng).items()}
            for i in range(n + 1):
                assert all(verify._step(n, i, terms).values())
    # at node 1, D e^0 = e^0 and D e^{-alpha_1} = -e^0, so their sum maps to 0
    terms = {(0,) * 6: 1, tuple(-a for a in verify._alpha(4, 1)): 1}
    assert weyl._demazure_terms(4, 1, terms) == {}


def test_an_internal_point_off_the_lattice_is_a_failed_verification(monkeypatch, capsys):
    # a table row of mixed parity can only come from a fault in the
    # pipeline: the table's check and its message read it back through
    # fw_from_eps2, which fails the verification (exit 3), not the input
    real = affinization._pre_w0
    monkeypatch.setattr(
        affinization, "_pre_w0", lambda n, lam, s: {**real(n, lam, s), (1, 0, 0, 0): 1}
    )
    assert run(["char", "--n", "4", "--lambda", "1,1,1,1", "--s", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("verification failure:") and "weight-lattice point" in err
