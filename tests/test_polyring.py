import pytest
from hypothesis import given, settings, strategies as st

from minaff import InputError
from minaff.cartan import varpi
from minaff import verify, weyl
from _helpers import braid_variant, rand_char, seeded
from _ring_oracle import CharElem
from _weyl_oracle import (
    ExtendedWeylWord,
    alpha_key,
    compose,
    frame_key,
    from_word,
    fw_key,
    key_pairing,
    is_reduced,
    length,
    longest_word,
    reduce_word,
    same_element,
    sigma_word,
    simple,
    tau_01,
    tau_fork,
)

N = 4


def mono(fin, level=0, delta=0, coeff=1, affine=True):
    return CharElem.monomial(len(fin), fin + (level, 2 * delta), coeff, affine)


def plus(*keys):
    return tuple(map(sum, zip(*keys)))


def times(c, k):
    return tuple(c * v for v in k)


def alpha(n, i):
    return alpha_key(n, i)


def lambda0(n):
    return (0,) * n + (1, 0)


def test_demazure_monomial_cases():
    one = CharElem.one(N)
    for i in range(0, N + 1):
        assert one.demazure(i) == one
    w1 = varpi(N, 1) + (0, 0)
    w1_a1 = plus(w1, times(-1, alpha(N, 1)))
    f = CharElem.monomial(N, w1)
    assert f.demazure(1) == f + CharElem.monomial(N, w1_a1)
    # pairing -1 annihilates; value pinned by the defining identity below
    assert not CharElem.monomial(N, w1_a1).demazure(1)
    # negative pairings give negated interior strings
    g = mono((-2, 0, 0, 0)).demazure(1)
    assert g == mono((0, -1, 0, 0), coeff=-1)
    g = CharElem.monomial(N, plus(w1, times(-2, alpha(N, 1)))).demazure(1)
    assert g == CharElem.monomial(N, w1_a1, -1) + CharElem.monomial(N, w1, -1)


def test_demazure_defining_identity():
    rng = seeded(9)
    for n in (4, 5):
        for _ in range(60):
            f = rand_char(n, rng)
            for i in range(0, n + 1):
                D = f.demazure(i)
                am = CharElem.monomial(n, times(-1, alpha(n, i)))
                assert D - am * D == f - am * f.relabel_weyl(simple(n, i)), (n, i)


def test_demazure_idempotent_and_invariant():
    rng = seeded(10)
    for n in (4, 5):
        for _ in range(40):
            f = rand_char(n, rng)
            for i in range(0, n + 1):
                D = f.demazure(i)
                assert D.demazure(i) == D
                assert D.relabel_weyl(simple(n, i)) == D


def test_projection_formula():
    rng = seeded(13)
    for _ in range(25):
        g = rand_char(N, rng, 12)
        h = rand_char(N, rng, 6)
        i = rng.randint(0, N)
        f = h + h.relabel_weyl(simple(N, i))
        assert (f * g).demazure(i) == f * g.demazure(i)


def test_demazure_word():
    rng = seeded(14)
    f = rand_char(N, rng, 10)
    assert f.demazure_word(from_word(N, ())) == f
    L0 = lambda0(N)
    g = CharElem.monomial(N, L0).demazure_word(simple(N, 0))
    assert g == CharElem.monomial(N, L0) + CharElem.monomial(N, plus(L0, times(-1, alpha(N, 0))))
    with pytest.raises(InputError):
        f.demazure_word(from_word(N, (1, 1)))


def test_braid_pair_gives_equal_operators():
    rng = seeded(16)
    w1 = from_word(N, (1, 2, 1))
    w2 = from_word(N, (2, 1, 2))
    assert length(w1) == length(w2) == 3
    for _ in range(10):
        f = rand_char(N, rng, 20)
        assert f.demazure_word(w1) == f.demazure_word(w2)


def test_reduced_word_independence():
    rng = seeded(17)
    distinct = 0
    for _ in range(30):
        raw = from_word(N, tuple(rng.randint(0, N) for _ in range(rng.randint(1, 10))))
        r1 = reduce_word(raw)
        r2 = ExtendedWeylWord(N, r1.tau, braid_variant(r1.word, N, rng))
        assert is_reduced(r2) and same_element(r1, r2)
        distinct += r1.word != r2.word
        f = rand_char(N, rng, 15)
        assert f.demazure_word(r1) == f.demazure_word(r2)
        # the program's steps on plain maps of its frame, then the key
        # twist, conjugated by eps2
        w = compose(tau_01(N), r1)
        twist = weyl.key_twist(N, w.tau)
        terms = verify._demazure_word(N, w.word, {frame_key(k): c for k, c in f.items()})
        assert {fw_key(twist(k)): c for k, c in terms.items()} == dict(f.demazure_word(w).items())
    assert distinct >= 10


def test_twist():
    n = 4
    f = mono(varpi(n, n - 1))
    assert f.twist(tau_fork(n)) == mono(varpi(n, n))
    # node swap at the affine end: image of the level-one generator pairs
    # like the original did, one node over
    g = CharElem.monomial(n, lambda0(n)).twist(tau_01(n))
    ((key, _),) = g.items()
    tau = tau_01(n).tau
    for i in range(n + 1):
        assert key_pairing(n, tau[i])(key) == key_pairing(n, i)(lambda0(n))
    rng = seeded(19)
    for t in (tau_01(n), tau_fork(n)):
        for _ in range(20):
            f = rand_char(n, rng, 10)
            assert f.twist(t).twist(t) == f
    with pytest.raises(InputError):
        f.twist(sigma_word(n))


def test_specialize():
    n = 4
    assert CharElem.monomial(n, lambda0(n)).specialize() == CharElem.one(n, affine=False)
    w1 = varpi(n, 1)
    f = mono(w1, level=1) + mono(w1, level=1, delta=-1)
    assert f.specialize() == mono(w1, coeff=2, affine=False)
    g = mono(varpi(n, 2), level=1)
    fin = g.demazure_word(longest_word(n)).specialize()
    for i in range(1, n + 1):
        assert fin.relabel_weyl(simple(n, i)) == fin


def test_ring_operations():
    n = 4
    a = mono(varpi(n, 1), level=1)
    b = mono(varpi(n, 2), delta=2)
    ((key, _),) = (a * b).items()
    assert key == plus(varpi(n, 1), varpi(n, 2)) + (1, 4)
    f = rand_char(n, seeded(23))
    assert not (f + (-1) * f)
    v = mono(varpi(n, 1)) + mono(tuple(-x for x in varpi(n, 1)))
    sq = v * v
    assert sq.coeff((0,) * (n + 2)) == 2
    assert sq.coeff(times(2, varpi(n, 1)) + (0, 0)) == 1
    assert len(sq) == 3
    with pytest.raises(InputError):
        a + a.specialize()


def test_no_operation_keeps_a_zero_coefficient():
    n = 4
    x = varpi(n, 1) + (1, 0)
    y = varpi(n, 2) + (0, 1)  # delta 1/2
    f = CharElem.monomial(n, x, 2) + CharElem.monomial(n, y, -1)
    a1 = alpha(n, 1)
    # x pairs 1 with node 1 and x - 2 alpha_1 is its dot-reflection: opposite strings
    z = CharElem.monomial(n, x) + CharElem.monomial(n, plus(x, times(-2, a1)))
    results = {
        "add": f + CharElem.monomial(n, x, -2),
        "sub": f - CharElem.monomial(n, y, -1),
        "int mul": 0 * f,
        "mul int": f * 0,
        "elem mul": (CharElem.monomial(n, x) + CharElem.monomial(n, y))
        * (CharElem.monomial(n, x) - CharElem.monomial(n, y)),
        "specialize": (mono(varpi(n, 1), level=1) - mono(varpi(n, 1), delta=3)).specialize(),
        # bijections on keys: fed a sum whose x term cancelled
        "twist": (f - CharElem.monomial(n, x, 2)).twist(tau_01(n)),
        "relabel_weyl": (f - CharElem.monomial(n, x, 2)).relabel_weyl(simple(n, 1)),
        "demazure": z.demazure(1),
    }
    for name, r in results.items():
        assert 0 not in dict(r.items()).values(), name
    assert not results["add"] - CharElem.monomial(n, y, -1)
    assert not results["sub"] - CharElem.monomial(n, x, 2)
    assert not results["int mul"] and not results["mul int"] and not results["demazure"]
    assert len(results["elem mul"]) == 2
    assert not results["specialize"]


def test_half_integer_delta_round_trips_and_quarter_is_refused():
    n = 4
    x = varpi(n, 1) + (1, -3)  # delta -3/2
    f = CharElem.monomial(n, x, 5)
    assert f.items() == [(x, 5)]
    assert f.coeff(x) == 5
    quarter = varpi(n, 1) + (1, 0.5)  # a 2-delta slot of 1/2
    with pytest.raises(InputError):
        CharElem.monomial(n, quarter)
    with pytest.raises(InputError):
        CharElem(n, {x: 1, quarter: 1})
    with pytest.raises(InputError):
        f.coeff(quarter)


def test_keys_refuse_inexact_level_and_delta():
    n = 4
    bad_keys = [
        (0, 0, 0, 0, 1.7, 0),  # a float level
        (0, 0, 0, 0, 1, 0.1),  # a float 2-delta slot
        (0, 0, 0, 0, True, 0),  # a bool is not an int here
        (0, 0, 0, False, 1, 0),
        (0, 0, 0, 0, 1),  # one slot short
        (0, 0, 0, 0, 1, 0, 0),  # one slot long
        (0, 0, 0, 0),  # a finite weight is not a key
        [0, 0, 0, 0, 1, 0],  # not a tuple
    ]
    for key in bad_keys:
        with pytest.raises(InputError):
            CharElem.one(n).coeff(key)
        if isinstance(key, tuple):
            with pytest.raises(InputError):
                CharElem(n, {key: 1})
        with pytest.raises(InputError):
            CharElem.monomial(n, key)


def test_monomial_takes_the_rank_first():
    n = 4
    assert CharElem.monomial(n, (0,) * (n + 2)) == CharElem.one(n)
    assert CharElem.monomial(n, varpi(n, 1) + (0, 0), affine=False).n == n
    # a finite weight is not a key of rank 4, nor is a key a rank: the
    # (key, coeff) call of old is refused
    with pytest.raises(InputError):
        CharElem.monomial(n, (1, 0, 0, 0), affine=False)
    with pytest.raises(InputError):
        CharElem.monomial((0, 0, 0, 0, 0, 0), 2)


def test_refuses_a_coefficient_that_is_not_an_int():
    key = (1, 0, 0, 0, 0, 0)
    for c in (1.5, 2.0, True):
        with pytest.raises(InputError):
            CharElem(4, {key: c})
        with pytest.raises(InputError):
            CharElem.monomial(4, key, c)


def test_refuses_a_rank_that_is_not_a_positive_int():
    for rank in (True, False, 0, -1, 1.0, "4", None):
        with pytest.raises(InputError):
            CharElem(rank, {})
        with pytest.raises(InputError):
            CharElem.one(rank)
    assert CharElem(1, {(0, 0, 0): 1}).n == 1


def test_finite_tagged_elements_stay_on_the_finite_lattice():
    n = 4
    with pytest.raises(InputError):
        CharElem(n, {varpi(n, 1) + (1, 0): 1}, affine=False)
    fin = mono(varpi(n, 1), affine=False)
    assert fin.twist(tau_fork(n)) == fin
    # the node 0-1 swap and the node-0 reflection move delta off zero
    with pytest.raises(InputError):
        fin.twist(tau_01(n))
    with pytest.raises(InputError):
        fin.relabel_weyl(simple(n, 0))


def test_foreign_operands_raise_type_error():
    f = CharElem.monomial(4, (1, 0, 0, 0, 0, 0))
    for bad in (lambda: f * 1.5, lambda: 1.5 * f, lambda: f + 1, lambda: 1 + f, lambda: f - 1):
        with pytest.raises(TypeError):
            bad()
    assert f * 2 == 2 * f == f + f


@st.composite
def small_char(draw):
    n = 4
    keys = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-1, 1)] * n),
                st.integers(0, 1),
                st.integers(-1, 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(keys), max_size=len(keys)))
    return CharElem(n, {f + (level, 2 * d): c for (f, level, d), c in zip(keys, coeffs)})


@settings(max_examples=60, deadline=None)
@given(small_char(), small_char(), small_char())
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) * h == f * h + g * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40, deadline=None)
@given(small_char(), st.integers(0, 4))
def test_demazure_linear(f, i):
    g = mono((1, 0, -1, 0), level=1, coeff=2)
    assert (f + g).demazure(i) == f.demazure(i) + g.demazure(i)
