import itertools

import pytest
from hypothesis import given, settings, strategies as st

from minaff import CharacterError, InputError
from minaff.spbranch import (
    _fold,
    _schur_dim,
    _skew_contents,
    _sp_branch,
    _sp_dim_irr,
    partition_of,
    sam_table,
)
from _helpers import minaff_imports
from _sp_oracle import (
    decompose_sp,
    peel_sp,
    schur_char,
    schur_terms,
    sp_dim_by_roots,
    sp_irr_character,
)
from _ring_oracle import CharElem


def hook_content_count(p, letters):
    """Independent tableau count for a partition shape: the classical
    product over cells of (letters + column - row) over hook lengths."""
    rows = len(p)
    num = 1
    den = 1
    for r in range(rows):
        for c in range(p[r]):
            num *= letters + c - r
            arm = p[r] - c - 1
            leg = sum(1 for rr in range(r + 1, rows) if p[rr] > c)
            den *= arm + leg + 1
    return num // den


def test_fold():
    assert _fold(4, (1, 0, 0, 0)) == (1, 0, 0)
    assert _fold(4, (0, 0, 1, 1)) == (0, 0, 1)
    assert _fold(4, (0, 0, 1, 2)) == (0, 0, 1)
    assert _fold(5, (2, 1, 0, 3, 1)) == (2, 1, 0, 1)


def test_partition_of():
    assert partition_of((0, 0, 1)) == (1, 1, 1)
    assert partition_of((1, 0, 0)) == (1, 0, 0)
    assert partition_of((2, 1, 0)) == (3, 1, 0)


def test_schur_standard_module():
    ch = schur_char((1,), 3)
    assert len(ch.items()) == 6 and ch.mass() == 6
    assert decompose_sp(ch, 3) == {(1, 0, 0): 1}


def test_schur_exterior_square():
    ch = schur_char((1, 1), 3)
    assert ch.mass() == 15
    assert decompose_sp(ch, 3) == {(0, 1, 0): 1, (0, 0, 0): 1}


def test_schur_exterior_cube():
    ch = schur_char((1, 1, 1), 3)
    assert ch.mass() == 20
    table = decompose_sp(ch, 3)
    assert table == {(0, 0, 1): 1, (1, 0, 0): 1}
    assert _sp_dim_irr(partition_of((0, 0, 1))) == 14
    assert _sp_dim_irr(partition_of((1, 0, 0))) == 6


def test_schur_symmetric_square_irreducible():
    assert decompose_sp(schur_char((2,), 3), 3) == {(2, 0, 0): 1}


def test_schur_dimension_against_hook_content():
    for rank in (3, 4):
        for p in ((1,), (2,), (1, 1), (2, 1), (3, 1), (2, 2), (1, 1, 1), (3, 2, 1)):
            assert schur_char(p, rank).mass() == hook_content_count(p, 2 * rank)
            assert _schur_dim(p, 2 * rank) == hook_content_count(p, 2 * rank)


def test_schur_validation():
    with pytest.raises(InputError):
        schur_char((1, 2), 3)
    with pytest.raises(InputError):
        schur_char((1,) * 7, 3)
    assert schur_char((), 3).mass() == 1
    assert schur_char((1, 0, 0), 3) == schur_char((1,), 3)


def partitions(size, parts):
    """Partitions of ``size`` with at most ``parts`` parts."""

    def rec(left, cap, room):
        if left == 0:
            yield ()
            return
        if room == 0:
            return
        for a in range(min(left, cap), 0, -1):
            for rest in rec(left - a, a, room - 1):
                yield (a,) + rest

    return list(rec(size, size, parts))


def test_littlewood_rule_matches_tableau_oracle():
    cases = 0
    for rank in (3, 4, 5):
        for size in range(9):
            for p in partitions(size, rank):
                oracle = peel_sp(schur_terms(p, rank), rank)
                assert _sp_branch(p, rank) == {partition_of(nu): m for nu, m in oracle.items()}, (
                    p, rank)
                cases += 1
    assert cases == 154


def test_lr_coefficients_by_hand():
    # c^p_{mu,nu} is the count of LR fillings of p/mu with content nu
    assert _skew_contents((2, 1), (1,)).get((1, 1), 0) == 1
    assert _skew_contents((2, 1), (1,)).get((2,), 0) == 1
    assert _skew_contents((3, 2, 1), (2, 1)).get((2, 1), 0) == 2
    assert _skew_contents((3, 2, 1), (2, 1)).get((3,), 0) == 1
    assert _skew_contents((2, 2), (1, 1)).get((1, 1), 0) == 1
    assert _skew_contents((2, 2), (1,)).get((2, 1), 0) == 1
    assert _skew_contents((2, 1), (1,)).get((1,), 0) == 0  # sizes do not add up
    assert _skew_contents((2, 1), (2, 1)).get((), 0) == 1


@pytest.mark.parametrize(
    "fn, args",
    [
        (partition_of, ((1.0, 0),)),
        (partition_of, ((0, 0, True),)),
        (sam_table, (4, (0, 0, 1, 1.0))),
        (sam_table, (4, (0, 0, True, 1))),
    ],
    ids=["partition_of", "partition_of_bool", "sam_table", "sam_table_bool"],
)
def test_symplectic_functions_refuse_coordinates_that_are_not_ints(fn, args):
    with pytest.raises(InputError, match="non-integer"):
        fn(*args)


def test_sp_branch_small_cases():
    # constituents keyed by their partitions padded to the rank
    assert _sp_branch((1, 1), 3) == {(1, 1, 0): 1, (0, 0, 0): 1}
    assert _sp_branch((), 3) == {(0, 0, 0): 1}
    assert _sp_branch((2, 2), 3) == {(2, 2, 0): 1, (1, 1, 0): 1, (0, 0, 0): 1}


def test_closed_dimension_product_matches_root_by_root_formula():
    count = 0
    for n in (4, 5, 6, 7):
        for nu in itertools.product((0, 1, 2), repeat=n - 1):
            assert _sp_dim_irr(partition_of(nu)) == sp_dim_by_roots(n - 1, nu), nu
            count += 1
    assert count == 1080


def test_standard_module_dimension_bridge():
    # the standard symplectic module has dimension twice the rank
    for n in (4, 5, 6):
        assert _sp_dim_irr(partition_of((1,) + (0,) * (n - 2))) == 2 * (n - 1)


def test_sp_irr_zero_weight_multiplicity():
    # adjoint-adjacent sanity: the second fundamental has zero weight
    # multiplicity rank - 1
    ch = sp_irr_character(3, (0, 1, 0))
    assert ch.mass() == 14
    assert ch.coeff((0, 0, 0, 0, 0)) == 2


@settings(max_examples=20, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)),
        st.integers(1, 3),
        min_size=1,
        max_size=3,
    )
)
def test_decompose_sp_round_trip(tbl):
    rank = 3
    f = CharElem.zero(rank, affine=False)
    for nu, m in tbl.items():
        f = f + m * sp_irr_character(rank, nu)
    assert decompose_sp(f, rank) == tbl


def test_decompose_sp_rejects_non_characters():
    with pytest.raises(CharacterError):
        decompose_sp(CharElem.monomial(3, (1, 0, 0, 0, 0), affine=False), 3)


def test_sam_table_entries():
    assert sam_table(4, (0, 0, 1, 1)).get((1, 0, 0, 0), 0) == 1
    assert sam_table(4, (0, 0, 1, 1)).get((0, 0, 1, 0), 0) == 0  # spin difference mismatch
    for lam in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 2)):
        assert sam_table(4, lam).get(lam, 0) == 1


def test_sam_table_spin_difference_lift():
    table = sam_table(4, (0, 0, 1, 2))
    assert all(mu[3] - mu[2] == 1 for mu in table)
    assert table[(0, 0, 1, 2)] == 1


def test_sam_table_result_is_the_callers_own():
    first = sam_table(4, (0, 1, 0, 0))
    expected = dict(first)
    first.clear()
    assert sam_table(4, (0, 1, 0, 0)) == expected
    assert sam_table(4, (0, 1, 0, 0)).get((0, 1, 0, 0), 0) == 1


def test_spbranch_shares_no_code_with_the_demazure_stack():
    from minaff import affinization, decomp, polyring, spbranch, weyl

    assert minaff_imports(spbranch) == {"cartan"}
    for module in (weyl, polyring, decomp, affinization):
        assert "spbranch" not in minaff_imports(module), module.__name__
    # the scan sees "from . import weyl", and not the exception types
    assert minaff_imports(affinization) == {"cartan", "weyl"}


def test_sam_rejects_non_regular():
    with pytest.raises(InputError):
        sam_table(4, (1, 0, 1, 1))


def test_iota_additive_on_aligned_spin_pairs():
    import itertools

    for mu in itertools.product((0, 1, 2), repeat=4):
        for nu in itertools.product((0, 1), repeat=4):
            if mu[2] <= mu[3] and nu[2] <= nu[3]:
                s = tuple(a + b for a, b in zip(mu, nu))
                assert _fold(4, s) == tuple(
                    a + b for a, b in zip(_fold(4, mu), _fold(4, nu))
                )
