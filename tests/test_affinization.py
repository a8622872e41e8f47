import pytest
from hypothesis import given, settings, strategies as st

from minaff import CharElem, CharacterError, InputError, VerificationError
from minaff.affinization import (
    character,
    drinfeld,
    is_regular,
    lambda_sequence,
    multiplicity_table,
    resolve_family,
    xi_sequence,
)
from minaff.cartan import AffineWeight, lambda0, varpi
from minaff.cli import run
from minaff.spbranch import sam_table
from minaff import affinization, decomp, weyl
from _helpers import break_longest_word, seeded


def fw_sum(n, *nodes):
    out = [0] * n
    for i in nodes:
        out[i - 1] += 1
    return tuple(out)


def modqd(x):
    return (x.finite, x.level)


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
    e = xs.entries
    assert e[0] == AffineWeight((0, 0, 0, 0)) and e[1] == AffineWeight((0, 0, 0, 0))
    assert e[2] == AffineWeight((0, 0, 1, 1), 1)
    assert e[3] == AffineWeight((0, 0, 0, 1), 1)


def test_xi_family_n_worked_case():
    xs = xi_sequence(5, (1, 1, 0, 2, 0), 5)
    assert (xs.cut, xs.lambda_bar) == (1, 1)
    e = xs.entries
    assert e[0] == AffineWeight((1, 0, 0, 1, 0), 1)
    assert e[1] == AffineWeight((0, 1, 0, 1, 0), 1)
    assert e[2] == e[3] == e[4] == AffineWeight((0,) * 5)


def test_xi_congruence():
    rng = seeded(42)
    for n in (4, 5, 6, 7):
        for _ in range(15):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            for s in (1, n - 1, n):
                xs = xi_sequence(n, lam, s)
                tot = xs.entries[0]
                for x in xs.entries[1:]:
                    tot = tot + x
                assert tot.finite == lam, (n, lam, s)


def test_xi_rejects_non_dominant():
    with pytest.raises(InputError):
        xi_sequence(4, (1, -1, 0, 0), 1)


def test_lambda_sequence_displays():
    # multiples of a single chain node stay at the affine vertex
    L = lambda_sequence(4, (0, 3, 0, 0), 1).entries
    assert modqd(L[1]) == ((0, 0, 0, 0), 3)
    # the worked s = n case pins entry 2 at the spin node
    L = lambda_sequence(5, (1, 1, 0, 2, 0), 5).entries
    assert modqd(L[1]) == (varpi(5, 4), 1)


def test_lambda_sequence_display_random():
    rng = seeded(43)
    for n in (4, 5, 6):
        for _ in range(12):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            L1 = lambda_sequence(n, lam, 1).entries
            lmp = min(lam[n - 2], lam[n - 1])
            for j in range(1, n - 1):
                assert modqd(L1[j - 1]) == ((0,) * n, lam[j - 1])
            assert modqd(L1[n - 2]) == ((0,) * n, lmp)
            xs = xi_sequence(n, lam, n)
            Ln = lambda_sequence(n, lam, n).entries
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


def test_lambda_sequence_dominant_and_fork_rejected():
    rng = seeded(44)
    for n in (4, 5):
        for _ in range(10):
            lam = tuple(rng.randint(0, 3) for _ in range(n))
            for s in (1, n):
                for x in lambda_sequence(n, lam, s).entries:
                    assert weyl.is_dominant(x)
    with pytest.raises(InputError):
        lambda_sequence(4, (1, 0, 0, 0), 3)


def test_character_small_cases():
    from minaff.decomp import irr_character

    n = 4
    assert character(n, (0,) * n, 1) == CharElem.one(n, affine=False)
    assert character(n, varpi(n, 1), 1) == irr_character(n, varpi(n, 1))
    for s in (1, 3, 4):
        ch = character(n, varpi(n, 2), s)
        assert ch.mass() == 29
        assert ch.coeff(AffineWeight(varpi(n, 2))) == 1


def test_character_weyl_invariant():
    n = 4
    ch = character(n, (1, 1, 0, 0), 4)
    for i in range(1, n + 1):
        assert ch.relabel_weyl(weyl.simple(n, i)) == ch


def test_character_symmetric_weight_fork_symmetry():
    # equal spin coordinates give a fork-symmetric character for s = 1
    for lam in ((0, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 1)):
        ch = character(4, lam, 1)
        assert ch.twist(weyl.tau_fork(4)) == ch


def test_character_cross_family_collapse():
    # spin branch n missed: the two remaining families literally coincide
    for lam in ((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0)):
        assert character(4, lam, 1) == character(4, lam, 3)


def test_character_fork_twin_is_twist():
    lam = (1, 0, 1, 0)
    swapped = (1, 0, 0, 1)
    a = character(4, lam, 3)
    b = character(4, swapped, 4).twist(weyl.tau_fork(4))
    assert a == b


def test_character_rejects_bad_input():
    with pytest.raises(InputError):
        character(4, (1, -1, 0, 0), 1)
    with pytest.raises(InputError):
        character(4, (1, 0, 1, 1), 1)  # zero fork coordinate, full spread


def test_is_regular():
    assert is_regular(4, (0, 1, 0, 0))
    assert not is_regular(4, (1, 0, 1, 1))
    assert is_regular(4, (1, 1, 1, 1))
    assert is_regular(5, (1, 1, 0, 0, 0))
    assert not is_regular(5, (1, 0, 0, 1, 1))


def test_drinfeld_examples():
    d = drinfeld(4, varpi(4, 1), 1, 1)
    assert d.factors == ((1, 1, 0),)
    d = drinfeld(4, (1, 1, 0, 0), 1, 1)
    assert dict((i, c) for i, m, c in d.factors)[2] == 3
    dm = drinfeld(4, (1, 1, 0, 0), 1, -1)
    assert dict((i, c) for i, m, c in dm.factors)[2] == -3
    assert d.wt == (1, 1, 0, 0)
    with pytest.raises(InputError):
        drinfeld(4, (1, 0, 0, 0), 1, 2)


def test_drinfeld_family_agreement_on_missed_spin_branch():
    rng = seeded(47)
    for n in (4, 5):
        for _ in range(10):
            lam = tuple(rng.randint(0, 2) for _ in range(n - 1)) + (0,)
            assert drinfeld(n, lam, 1).factors == drinfeld(n, lam, n - 1).factors


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
        assert table == decomp.decompose(character(n, lam, s)).mults


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
    monkeypatch.setattr(affinization, "straighten", lambda f: dict(table))
    with pytest.raises(CharacterError, match=message):
        multiplicity_table(4, (0, 1, 0, 0), 1)


def test_nesting_check_refuses_a_composite_that_cancels(monkeypatch):
    break_longest_word(monkeypatch)
    with pytest.raises(VerificationError, match="length additivity"):
        affinization._assert_nesting_legal.__wrapped__(4)


def test_pre_w0_refuses_a_polynomial_past_the_term_limit(monkeypatch, capsys):
    # a tiny limit stands in for a huge job, which is never launched
    lam = (0, 1, 1, 1, 1)
    assert len(affinization._pre_w0(5, lam, 5)) == 52  # the largest pass
    monkeypatch.setattr(affinization, "MAX_TERMS", 52)
    table = multiplicity_table(5, lam, "n")
    monkeypatch.setattr(affinization, "MAX_TERMS", 51)
    with pytest.raises(InputError, match="limit of 51 terms"):
        multiplicity_table(5, lam, "n")
    with pytest.raises(InputError, match="limit of 51 terms"):
        multiplicity_table(5, lam, "n-1")
    argv = ["char", "--n", "5", "--lambda", "0,1,1,1,1", "--s", "n"]
    assert run(argv) == 2
    out = capsys.readouterr()
    assert out.out == "" and "limit of 51 terms" in out.err
    # the verify suites build their characters through the same passes
    monkeypatch.setattr(affinization, "MAX_TERMS", 1)
    assert run(["verify", "--n", "4", "--suite", "pipeline"]) == 2
    assert capsys.readouterr().out == ""
    monkeypatch.undo()
    assert multiplicity_table(5, lam, "n") == table
