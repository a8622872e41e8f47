from collections import deque
from fractions import Fraction
from operator import sub

import pytest

from minaff import InputError, bilinear, weyl
from minaff.cartan import is_dominant_fw, varpi
from minaff.weyl import (
    ExtendedWeylWord,
    act,
    compose,
    _is_dominant,
    from_word,
    inverse,
    is_reduced,
    length,
    longest_word,
    reduce_word,
    root_to_fw,
    same_element,
    sigma_word,
    simple,
    tau_01,
    tau_fork,
)
from _helpers import braid_variant, rand_key, seeded
from _weyl_oracle import (
    AffineWeight,
    act_root,
    affine_simple_root,
    descent_oracle,
    element_images,
    form,
    is_positive_root,
    key_of,
    lambda0,
    pairing,
    positive_roots,
    power,
    tau_on_weight,
    tau_on_weight_oracle,
)
from _ring_oracle import CharElem


def rand_extended(n, rng, L):
    tau = from_word(n, ())
    if rng.random() < 0.5:
        tau = compose(tau, tau_01(n))
    if rng.random() < 0.5:
        tau = compose(tau, tau_fork(n))
    return ExtendedWeylWord(n, tau.tau, tuple(rng.randint(0, n) for _ in range(L)))


def modqd(k):
    """A key's finite part and level: the weight modulo delta."""
    return (k[:-2], k[-2])


def test_simple_reflection_on_fundamental():
    n = 4
    w1 = varpi(n, 1) + (0, 0)
    a1 = root_to_fw(n, (1, 0, 0, 0)) + (0, 0)
    assert act(simple(n, 1), w1) == tuple(map(sub, w1, a1))
    with pytest.raises(InputError):
        act(simple(n, 1), varpi(5, 1) + (0, 0))


def test_rotation_table():
    # the rotation sends the level-one dominant weights around the diagram
    for n in range(4, 8):
        sig = sigma_word(n)
        for j in range(0, n + 1):
            fin = varpi(n, j) if j else (0,) * n
            got = modqd(act(sig, fin + (1, 0)))
            if j <= n - 3:
                expect = (varpi(n, j + 1), 1)
            elif j == n - 2:
                expect = (tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, n))), 1)
            elif j == n - 1:
                expect = (tuple(a + b for a, b in zip(varpi(n, n - 1), varpi(n, 1))), 1)
            else:
                expect = (varpi(n, n - 1), 1)
            assert got == expect, (n, j)
        assert modqd(act(sig, varpi(n, n - 1) + (0, 0))) == (varpi(n, n - 1), 0)


def test_act_root():
    n = 4
    a0 = affine_simple_root(n, 0)
    beta, k = act_root(simple(n, 0), a0)
    assert (beta, k) == (tuple(-v for v in a0[0]), -1)
    assert act_root(simple(n, 2), ((1, 0, 0, 0), 0)) == ((1, 1, 0, 0), 0)
    assert act_root(tau_fork(n), ((0, 0, 1, 0), 0)) == ((0, 0, 0, 1), 0)
    with pytest.raises(InputError):
        act_root(simple(n, 1), ((0, 0, 0, 0), 2))


def test_tau_permutes_simple_roots_exactly():
    for n in (4, 5):
        for t in (tau_01(n), tau_fork(n), compose(tau_01(n), tau_fork(n))):
            for i in range(n + 1):
                img = act_root(t, affine_simple_root(n, i))
                assert img == affine_simple_root(n, t.tau[i])


def test_reduce_basics():
    n = 4
    assert reduce_word(from_word(n, (1, 1))).word == ()
    r = reduce_word(from_word(n, (1, 2, 1)))
    assert len(r.word) == 3
    assert same_element(r, from_word(n, (2, 1, 2)))


def test_reduce_matches_descent_oracle_on_random_words():
    rng = seeded(404)
    for n in (4, 5, 6):
        prefixes = set()
        for _ in range(110):
            w = rand_extended(n, rng, rng.randint(0, 25))
            assert reduce_word(w) == descent_oracle(w), w
            prefixes.add(w.tau)
        assert prefixes == weyl._allowed_taus(n)


def test_reduce_matches_descent_oracle_on_nesting_composite():
    for n in range(4, 8):
        comp = compose(longest_word(n), power(sigma_word(n), n - 1))
        r = reduce_word(comp)
        assert r == descent_oracle(comp)
        assert len(r.word) == n * (n - 1) + (n - 1) ** 2


def test_reduce_refuses_prefix_outside_two_swap_subgroup():
    with pytest.raises(InputError):
        reduce_word(ExtendedWeylWord(4, (0, 2, 1, 3, 4), (1, 2)))
    assert isinstance(weyl._allowed_taus(4), frozenset)
    assert len(weyl._allowed_taus(4)) == 4


def test_word_refuses_prefix_outside_two_swap_subgroup():
    with pytest.raises(InputError):
        from_word(4, (1, 2), tau=(0, 2, 1, 3, 4))
    with pytest.raises(InputError):
        ExtendedWeylWord(4, [1, 0, 2, 3, 4], ())
    for tau in weyl._allowed_taus(4):
        assert from_word(4, (1, 2), tau=tau).tau == tau


def test_a_prefix_equal_to_an_allowed_one_still_needs_int_entries():
    # these equal an allowed prefix and hash like it, so the membership test
    # passes them and the node check refuses them
    for tau in ((0.0, 1, 2, 3, 4), (False, True, 2, 3, 4), (1, 0, 2, 3, 4.0)):
        assert tau in weyl._allowed_taus(4)
        with pytest.raises(InputError, match="node .* outside 0..4"):
            ExtendedWeylWord(4, tau, ())


def test_a_list_word_is_stored_as_a_tuple():
    letters = [1, 2]
    w = ExtendedWeylWord(4, tuple(range(5)), letters)
    assert w == from_word(4, (1, 2)) and hash(w) == hash(from_word(4, (1, 2)))
    letters.append(1.0)
    assert w.word == (1, 2) and length(w) == 2


def test_word_operations_build_only_words_the_checks_accept():
    # compose, inverse, reduce_word and the distinguished words build their
    # results without the checks; each equals its checked construction
    rng = seeded(24)
    for n in range(4, 9):
        made = [longest_word(n), sigma_word(n), tau_01(n), tau_fork(n)]
        for tau in sorted(weyl._allowed_taus(n)):
            for _ in range(6):
                letters = [rng.randint(0, n) for _ in range(rng.randint(0, 10))]
                u = from_word(n, letters, tau=tau)
                v = rand_extended(n, rng, rng.randint(0, 10))
                uv = compose(u, v)
                made += [uv, compose(v, u), inverse(u), inverse(uv), reduce_word(u),
                         reduce_word(uv), reduce_word(compose(u, sigma_word(n)))]
        for w in made:  # the checked constructor refuses a bad entry, and a list word is unequal
            assert type(w) is ExtendedWeylWord and w == ExtendedWeylWord(*w), w


def test_tau_on_weight_refuses_automorphism_outside_two_swap_subgroup():
    n = 4
    bad = (0, 2, 1, 3, 4)
    x = AffineWeight(varpi(n, 1), 1, 0)
    with pytest.raises(InputError):
        tau_on_weight(bad, x)
    with pytest.raises(InputError):
        CharElem.monomial(n, key_of(x)).twist(bad)
    # the four allowed prefixes keep the invariant form
    y = lambda0(n)
    for tau in weyl._allowed_taus(n):
        assert form(tau_on_weight(tau, x), tau_on_weight(tau, y)) == form(x, y)
        twisted = CharElem.monomial(n, key_of(tau_on_weight(tau, x)))
        assert CharElem.monomial(n, key_of(x)).twist(tau) == twisted


def test_tau_on_weight_matches_norm_preserving_expansion():
    rng = seeded(31)
    for n in range(4, 9):
        for tau in sorted(weyl._allowed_taus(n)):
            for _ in range(60):
                x = AffineWeight(
                    tuple(rng.randint(-3, 3) for _ in range(n)),
                    rng.randint(-2, 3),
                    Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                )
                y = tau_on_weight(tau, x)
                assert y == tau_on_weight_oracle(tau, x), (tau, x)
                assert tau_on_weight(list(tau), x) == y
                assert form(y, y) == form(x, x)
                assert [pairing(tau[i], y) for i in range(n + 1)] == [
                    pairing(i, x) for i in range(n + 1)
                ]


def test_reduce_is_canonical_and_idempotent():
    rng = seeded(21)
    for n in (4, 5):
        for _ in range(40):
            w = rand_extended(n, rng, rng.randint(0, 12))
            r = reduce_word(w)
            assert element_images(w) == element_images(r)
            assert reduce_word(r) == r
            # appending any generator moves the length by exactly one
            for i in range(0, n + 1):
                assert abs(length(compose(r, simple(n, i))) - len(r.word)) == 1


def test_same_element_agrees_with_basis_fingerprint():
    rng = seeded(61)
    equal = 0
    for n in range(4, 8):
        prefixes = set()
        for _ in range(150):
            u = rand_extended(n, rng, rng.randint(0, 12))
            if rng.random() < 0.5:
                v = ExtendedWeylWord(n, u.tau, braid_variant(u.word, n, rng))
            else:
                v = rand_extended(n, rng, rng.randint(0, 12))
            expect = element_images(u) == element_images(v)
            assert same_element(u, v) == same_element(v, u) == expect, (u, v)
            equal += expect
            prefixes.add(u.tau)
        assert prefixes == weyl._allowed_taus(n)
        assert not same_element(from_word(n, ()), from_word(n + 1, ()))
    assert 200 <= equal <= 500, equal


def test_length_against_bfs_oracle():
    n = 4
    depth = {element_images(from_word(n, ())): 0}
    queue = deque([from_word(n, ())])
    elems = [from_word(n, ())]
    while queue:
        w = queue.popleft()
        d = depth[element_images(w)]
        if d >= 5:
            continue
        for i in range(0, n + 1):
            v = compose(w, simple(n, i))
            fp = element_images(v)
            if fp not in depth:
                depth[fp] = d + 1
                elems.append(v)
                queue.append(v)
    assert len(elems) > 200
    for v in elems:
        assert length(v) == depth[element_images(v)]


def test_lengths():
    for n in (4, 5):
        assert length(from_word(n, ())) == 0
        assert length(sigma_word(n)) == n - 1
        assert length(longest_word(n)) == n * (n - 1)
        # a pure prefix is free
        w = from_word(n, (1, 2, 0), tau=tau_01(n).tau)
        assert length(w) == length(from_word(n, (1, 2, 0)))


def test_length_additivity():
    # the proof behind the nested formula, for every rank the tests reach
    for n in range(4, 17):
        comp = longest_word(n)
        sig = sigma_word(n)
        for _ in range(n - 1):
            comp = compose(comp, sig)
        assert length(comp) == n * (n - 1) + (n - 1) ** 2


def test_composite_reduction_example():
    n = 4
    comp = compose(power(sigma_word(n), n - 1), longest_word(n))
    assert length(compose(longest_word(n), power(sigma_word(n), n - 1))) == 21
    # the reversed composite has the same length by inverse symmetry
    assert length(comp) == length(inverse(comp))


def test_longest_element():
    w0 = longest_word(4)
    for i in range(1, 5):
        assert act(w0, varpi(4, i) + (0, 0))[:4] == tuple(-v for v in varpi(4, i))
    w0 = longest_word(5)
    assert act(w0, varpi(5, 4) + (0, 0))[:5] == tuple(-v for v in varpi(5, 5))
    for n in (4, 5):
        w0 = longest_word(n)
        for beta in positive_roots(n):
            assert not is_positive_root(n, act_root(w0, (beta, 0)))


def test_sigma_word_structure():
    n = 4
    sig = sigma_word(n)
    assert sig.word == (1, 2, 3)
    assert sig.tau[0] == 1 and sig.tau[1] == 0 and sig.tau[3] == 4 and sig.tau[4] == 3
    assert is_reduced(sig)
    L0 = (0,) * n + (1, 0)
    assert modqd(act(sig, L0)) == (varpi(n, 1), 1)


def test_is_dominant():
    n = 4
    assert _is_dominant(n, (0,) * n + (1, 0))
    w1 = varpi(n, 1) + (0, 0)
    assert is_dominant_fw(w1[:n])
    assert not _is_dominant(n, w1)
    assert not is_dominant_fw(root_to_fw(n, (-1, 0, 0, 0)))


def test_a_float_or_bool_node_is_refused_whatever_the_caches_hold():
    # lru_cache takes 1.0 and True for the node 1, so both orders run from
    # cleared caches: refused calls first, then with the node-1 entries cached
    key = (1, 0, 0, 0, 1, 0)
    reflected = (-1, 1, 0, 0, 1, 0)  # s_1 of the key, which pairs 1 with node 1
    string = {key: 1, reflected: 1}

    def refused(bad):
        for call in (
            lambda: act(from_word(4, (bad,)), key),
            lambda: simple(4, bad),
            lambda: weyl.demazure_terms(4, bad, {key: 1}),
            lambda: varpi(4, bad),
        ):
            with pytest.raises(InputError):
                call()

    cached = (weyl.key_pairing, weyl.alpha_key)
    for bad in (1.0, True):
        for fn in cached:
            fn.cache_clear()
        refused(bad)
        assert all(fn.cache_info().currsize == 0 for fn in cached)  # nothing refused is stored
        assert act(simple(4, 1), key) == reflected
        assert weyl.demazure_terms(4, 1, {key: 1}) == string
        refused(bad)
        assert act(simple(4, 1), key) == reflected


def test_action_preserves_form():
    rng = seeded(31)
    for n in (4, 5):
        for _ in range(30):
            w = rand_extended(n, rng, rng.randint(0, 12))
            x = rand_key(n, rng)
            y = rand_key(n, rng)
            assert bilinear(act(w, x), act(w, y)) == bilinear(x, y)


def test_distinct_reduced_words_act_identically():
    rng = seeded(98)
    n = 4
    distinct = 0
    for _ in range(20):
        w = rand_extended(n, rng, rng.randint(2, 10))
        r = reduce_word(w)
        r2 = ExtendedWeylWord(n, r.tau, braid_variant(r.word, n, rng))
        assert is_reduced(r2)
        distinct += r2.word != r.word
        weights = [rand_key(n, rng) for _ in range(20)]
        for x in weights:
            assert act(r, x) == act(w, x) == act(r2, x)
    assert distinct >= 5


def test_compose_matches_action():
    rng = seeded(55)
    for n in (4, 5):
        for _ in range(50):
            u = rand_extended(n, rng, 4)
            v = rand_extended(n, rng, 4)
            x = rand_key(n, rng)
            assert act(compose(u, v), x) == act(u, act(v, x))
            assert act(compose(u, inverse(u)), x) == x


@pytest.mark.parametrize("n", range(4, 13))
def test_every_prefix_is_its_own_inverse(n):
    # compose, inverse and key_twist read each prefix as its own inverse
    rng = seeded(28 + n)
    for tau in sorted(weyl._allowed_taus(n)):
        assert tuple(tau[j] for j in tau) == tuple(range(n + 1)), tau
        twist = weyl.key_twist(n, tau)
        for _ in range(25):
            k = rand_key(n, rng)
            assert twist(twist(k)) == k, (tau, k)
