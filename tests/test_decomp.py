import ast
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from minaff import CharacterError, InputError
from minaff.affinization import _straighten, multiplicity_table
from minaff.cartan import dim_irr, eps2, varpi
from minaff.decomp import compare_affinization
from minaff import decomp
from minaff.weyl import _dominantize, _dominates, fw_from_eps2
from _decomp_oracle import (
    _orbit,
    character_mass,
    decompose,
    dim_by_roots,
    dominant_mults,
    dominant_weights_below,
    irr_character,
    orbit_size,
    table_dimension,
)
from _helpers import SRC, imported_names, seeded
import _decomp_oracle
from _ring_oracle import CharElem, finite_char
from _weyl_oracle import longest_word


def test_trivial_and_vector_characters():
    n = 4
    assert irr_character(n, (0,) * n) == CharElem.one(n, affine=False)
    ch = irr_character(n, varpi(n, 1))
    terms = dict(ch.items())
    assert len(terms) == 8 and set(terms.values()) == {1}
    # brute-force oracle: the support is exactly one Weyl orbit
    orbit = {fw_from_eps2(n, d) + (0, 0) for d in _orbit(eps2(n, varpi(n, 1)))}
    assert set(terms) == orbit


def test_adjoint_character():
    n = 4
    ch = irr_character(n, varpi(n, 2))
    assert ch.mass() == 28
    assert ch.coeff((0,) * (n + 2)) == 4  # the rank


def test_dim_examples():
    assert dim_irr(4, varpi(4, 1)) == 8
    assert dim_irr(4, (2, 0, 0, 0)) == 35
    assert dim_irr(4, (0, 0, 1, 1)) == 56
    assert dim_irr(4, (0, 0, 0, 0)) == 1
    with pytest.raises(InputError):
        dim_irr(4, (0, -1, 0, 0))


def test_closed_dimension_product_matches_root_by_root_formula():
    count = 0
    for n in (4, 5, 6, 7):
        for mu in itertools.product((0, 1, 2), repeat=n):
            assert dim_irr(n, mu) == dim_by_roots(n, mu), mu
            count += 1
    assert count == 3240


def test_mass_equals_dimension():
    for n in (4, 5):
        for mu in itertools.product((0, 1), repeat=n):
            assert irr_character(n, mu).mass() == dim_irr(n, mu)
            assert character_mass(n, mu) == dim_irr(n, mu)


def test_orbit_size_against_expansion():
    sweeps = [(4, (0, 1, 2)), (5, (0, 1, 2)), (6, (0, 1))]
    for n, coords in sweeps:
        for mu in itertools.product(coords, repeat=n):
            assert orbit_size(n, mu) == len(_orbit(eps2(n, mu))), mu
    assert orbit_size(4, (0, 0, 0, 0)) == 1
    assert orbit_size(4, (1, 1, 1, 1)) == 192  # a regular orbit is the whole group


def test_dominant_enumeration_complete():
    # oracle: walk the full weight diagram by simple-root steps and collect
    # the dominant points
    from minaff.weyl import root_to_fw

    n = 4
    lam = (1, 1, 0, 0)
    top = eps2(n, lam)
    units = [tuple(int(j == i) for j in range(1, n + 1)) for i in range(1, n + 1)]
    simple_roots = [eps2(n, root_to_fw(n, u)) for u in units]
    seen = {top}
    frontier = [top]
    while frontier:
        fresh = []
        for d in frontier:
            for a in simple_roots:
                e = tuple(x - y for x, y in zip(d, a))
                if e not in seen and _dominantize(e) in dominant_weights_below(n, lam):
                    seen.add(e)
                    fresh.append(e)
        frontier = fresh
    brute_dominant = {d for d in seen if _dominantize(d) == d}
    assert brute_dominant == dominant_weights_below(n, lam)


def test_freudenthal_string_consistency():
    # weight multiplicities are orbit constants and the table is saturated
    n = 4
    mults = dominant_mults(n, (1, 0, 0, 1))
    assert mults[eps2(n, (1, 0, 0, 1))] == 1
    assert all(m > 0 for m in mults.values())


def test_decompose_irreducible_and_squares():
    n = 4
    v = varpi(n, 1)
    assert decompose(irr_character(n, v)) == {v: 1}
    sq = irr_character(n, v) * irr_character(n, v)
    table = decompose(sq)
    assert table == {(2, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 0, 0): 1}
    assert table_dimension(n, table) == 64


def test_tensor_fork_pair():
    n = 4
    f = irr_character(n, varpi(n, 3)) * irr_character(n, varpi(n, 4))
    table = decompose(f)
    assert table == {(0, 0, 1, 1): 1, (1, 0, 0, 0): 1}
    assert table_dimension(n, table) == 64


def test_decompose_rejects_non_characters():
    n = 4
    with pytest.raises(CharacterError):
        decompose(CharElem.monomial(n, varpi(n, 1) + (0, 0), affine=False))
    bad = irr_character(n, varpi(n, 2)) - 2 * CharElem.one(n, affine=False)
    with pytest.raises(CharacterError):
        decompose(bad)
    with pytest.raises(InputError):
        decompose(CharElem.one(n, affine=True))


@settings(max_examples=25, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 1)] * 4),
        st.integers(1, 3),
        min_size=1,
        max_size=3,
    )
)
def test_decompose_round_trip(tbl):
    n = 4
    f = CharElem.zero(n, affine=False)
    for mu, m in tbl.items():
        f = f + m * irr_character(n, mu)
    table = decompose(f)
    assert table == tbl
    assert table_dimension(n, table) == f.mass()


def test_compare_affinization():
    n = 4
    lam = varpi(n, 2)
    t = decompose(irr_character(n, lam))
    assert compare_affinization(n, t, t) == "equal"
    bigger = {lam: 1, (0, 0, 0, 0): 2}
    smaller = {lam: 1, (0, 0, 0, 0): 1}
    assert compare_affinization(n, smaller, bigger) == "leq"
    assert compare_affinization(n, bigger, smaller) == "geq"
    with pytest.raises(InputError):
        compare_affinization(n, t, decompose(irr_character(n, varpi(n, 1))))
    with pytest.raises(InputError, match="rank mismatch"):
        compare_affinization(n, t, {(0, 1, 0, 0, 0): 1})
    with pytest.raises(InputError, match="no unique top weight"):
        compare_affinization(n, {(1, 0, 0, 0): 1, (0, 0, 1, 0): 1}, t)


def test_zero_entries_change_no_verdict():
    # the order reads a missing weight as multiplicity 0, and so does the
    # top weight: zeros above, beside and below the top leave every verdict
    n = 4
    t = multiplicity_table(n, (0, 1, 0, 0), 1)
    assert compare_affinization(n, t, {**t, (0, 2, 0, 0): 0}) == "equal"
    top = (1, 1, 1, 1)
    above, beside, below = (1, 2, 1, 1), (2, 1, 1, 1), (0, 0, 0, 0)
    assert _dominates(n, above, top) and _dominates(n, top, below)
    assert not _dominates(n, beside, top) and not _dominates(n, top, beside)
    families = [multiplicity_table(n, top, s) for s in (1, 3, 4)]
    smaller, bigger = ({top: 1, (1, 0, 1, 1): m} for m in (1, 2))
    pairs = [(a, b) for a in families for b in families] + [(smaller, bigger), (bigger, smaller)]
    verdicts = set()
    for a, b in pairs:
        verdict = compare_affinization(n, a, b)
        verdicts.add(verdict)
        for mu in (above, beside, below):
            assert mu not in a and mu not in b
            assert compare_affinization(n, {**a, mu: 0}, b) == verdict
            assert compare_affinization(n, a, {**b, mu: 0}) == verdict
    assert verdicts == {"equal", "leq", "geq", "incomparable"}
    with pytest.raises(InputError, match="no unique top weight"):
        compare_affinization(n, {top: 0}, families[0])


def test_three_families_pairwise_incomparable():
    from minaff.polyring import character

    n = 4
    lam = (1, 1, 1, 1)
    tables = [decompose(finite_char(n, character(n, lam, s))) for s in (1, 3, 4)]
    for a, b in itertools.combinations(tables, 2):
        assert a != b
        assert compare_affinization(n, a, b) == "incomparable"


def test_decompose_refuses_swap_symmetric_element_without_sign_flip():
    # the four coordinate permutations of e_1 are closed under every swap,
    # but the paired sign flip takes e_4 to -e_3
    n = 4
    terms = {
        fw_from_eps2(n, d) + (0, 0): 1
        for d in set(itertools.permutations((2, 0, 0, 0)))
    }
    f = CharElem(n, terms, affine=False)
    assert len(f) == 4
    with pytest.raises(CharacterError, match="node 4"):
        decompose(f)


def test_cached_results_are_not_handed_out():
    n = 4
    dominant_mults(n, (1, 0, 0, 0)).clear()
    assert dominant_mults(n, (1, 0, 0, 0)) == {eps2(n, (1, 0, 0, 0)): 1}
    assert character_mass(n, (1, 0, 0, 0)) == 8
    adjoint = (0, 1, 0, 0)
    irr_character(n, adjoint)._terms.clear()
    assert irr_character(n, adjoint).mass() == 28
    assert character_mass(n, adjoint) == 28
    assert decompose(irr_character(n, adjoint)) == {adjoint: 1}


def test_decomp_imports_no_affine_weyl_group():
    # decomp takes the dominance order from weyl (its unchecked core, as
    # compare_affinization checks the tables once), never the group or its action
    assert imported_names(decomp, "weyl") == {"_dominates"}
    assert not hasattr(decomp, "weyl")
    assert not hasattr(decomp, "finite_edges")


GREEDY_ROUTE = (
    "positive_roots_eps2 _dot _is_dominant_eps dominant_weights_below _dominant_mults "
    "_reflections _orbit irr_character _irr_terms decompose DecompositionTable"
).split()


def test_the_greedy_route_is_defined_only_in_the_oracle():
    # the program reads its tables off by straightening; the Freudenthal
    # recursion, the orbit expansion and the peel are the tests' slow path,
    # and the character ring they run on is the tests' as well
    nodes = [
        node
        for path in (SRC / "minaff").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
    ]
    defined = {node.name for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    imported = {
        alias.name
        for node in nodes
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not defined & set(GREEDY_ROUTE)
    assert "CharElem" not in defined | imported
    oracle = set(vars(_decomp_oracle))
    assert set(GREEDY_ROUTE) - oracle == {"DecompositionTable"}


def test_weyl_invariance_precondition():
    n = 4
    ch = irr_character(n, (1, 0, 0, 1))
    shifted = dict(ch.items())
    key = next(iter(shifted))
    shifted[key] += 1
    with pytest.raises(CharacterError):
        decompose(CharElem(n, shifted, affine=False))


def test_straighten_matches_longest_element_operator():
    # oracle: D_{w0} e^mu expanded in full and peeled greedily, monomial by
    # monomial; straightening must give 0 or +-1 copy of one irreducible
    n = 4
    w0 = longest_word(n)
    rng = seeded(61)
    seen = set()
    for _ in range(60):
        mu = tuple(rng.randint(-3, 2) for _ in range(n))
        got = _straighten(n, {mu: 1})
        full = CharElem.monomial(n, mu + (0, 0)).demazure_word(w0).specialize()
        if not got:
            assert not full
            seen.add(0)
            continue
        ((nu, sign),) = got.items()
        assert sign in (1, -1)
        assert decompose(sign * full) == {nu: 1}
        seen.add(sign)
    assert seen == {0, 1, -1}


def test_straighten_sums_and_cancels():
    n = 4
    # e^{s_1 . mu} straightens to -ch V(mu) and cancels one copy of e^mu
    mu = (1, 0, 0, 0)
    dot = (-3, 2, 0, 0)  # s_1(mu + rho) - rho
    assert _straighten(n, {mu: 2, dot: 1}) == {mu: 1}
    assert _straighten(n, {(0, 0, 0, 0): 3}) == {(0, 0, 0, 0): 3}
