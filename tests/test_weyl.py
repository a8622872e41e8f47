from collections import deque
from fractions import Fraction
from operator import sub

import pytest

from minaff import InputError, polyring, verify, weyl
from minaff.cartan import eps2, is_dominant_fw, varpi
from minaff.verify import bilinear
from _helpers import braid_variant, rand_key, seeded, uncalled_code
import _weyl_oracle as oracle
from _weyl_oracle import (
    AffineWeight,
    ExtendedWeylWord,
    act,
    act_root,
    affine_simple_root,
    allowed_taus,
    compose,
    descent_oracle,
    element_images,
    form,
    frame_key,
    from_word,
    fw_key,
    inverse,
    is_dominant,
    is_positive_root,
    is_reduced,
    key_of,
    lambda0,
    length,
    longest_word,
    pairing,
    positive_roots,
    power,
    reduce_word,
    root_to_fw,
    same_element,
    sigma_word,
    simple,
    tau_01,
    tau_fork,
    tau_on_weight,
    tau_on_weight_oracle,
    walk_up,
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
        assert prefixes == allowed_taus(n)


def test_reduce_matches_descent_oracle_on_nesting_composite():
    for n in range(4, 8):
        comp = compose(longest_word(n), power(sigma_word(n), n - 1))
        r = reduce_word(comp)
        assert r == descent_oracle(comp)
        assert len(r.word) == n * (n - 1) + (n - 1) ** 2


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
    for tau in allowed_taus(n):
        assert form(tau_on_weight(tau, x), tau_on_weight(tau, y)) == form(x, y)
        twisted = CharElem.monomial(n, key_of(tau_on_weight(tau, x)))
        assert CharElem.monomial(n, key_of(x)).twist(tau) == twisted


def test_tau_on_weight_matches_norm_preserving_expansion():
    rng = seeded(31)
    for n in range(4, 9):
        for tau in sorted(allowed_taus(n)):
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
        assert prefixes == allowed_taus(n)
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
        assert length(v) == verify._length(n, v[1:]) == depth[element_images(v)]


@pytest.mark.parametrize("n", range(4, 11))
def test_hyperplane_length_matches_the_walk_reduction(n):
    # verify counts separating hyperplanes; the oracle reduces the word
    rng = seeded(505 + n)
    prefixes = set()
    for _ in range(60):
        w = rand_extended(n, rng, rng.randint(0, 25))
        assert verify._length(n, w[1:]) == length(w), w
        assert verify._is_reduced(n, w[1:]) == is_reduced(w), w
        prefixes.add(w.tau)
    assert prefixes == allowed_taus(n)


@pytest.mark.parametrize("n", range(4, 9))
def test_random_reduced_words_are_reduced(n):
    # verify's random words grow only while the hyperplane count grows; the
    # oracle's reduction keeps every letter of them
    rng = seeded(606 + n)
    sizes = set()
    for _ in range(30):
        tau, letters = verify._rand_reduced(rng, n, 12)
        w = ExtendedWeylWord(n, tau, letters)
        assert tau == verify._identity_tau(n)
        assert is_reduced(w) and len(reduce_word(w).word) == len(letters), w
        sizes.add(len(letters))
    assert max(sizes) >= 8, sizes


def test_lengths():
    for n in (4, 5):
        assert length(from_word(n, ())) == 0
        assert length(sigma_word(n)) == n - 1
        assert length(longest_word(n)) == n * (n - 1)
        # a pure prefix is free
        w = from_word(n, (1, 2, 0), tau=tau_01(n).tau)
        assert length(w) == length(from_word(n, (1, 2, 0)))


def test_closed_form_longest_word_is_the_walk_and_reduced():
    # the parabolic factorization w0 = w0^J w0_J, letter for letter the
    # walk from -rho it replaced (so character runs the same steps), and
    # n(n-1) hyperplanes long, as long as its word
    for n in range(4, 41):
        word = polyring._w0_letters(n)
        steps, _ = walk_up((-1,) * n + (0, 0), range(1, n + 1))
        assert word == tuple(reversed(steps)), n
        assert verify._length(n, (verify._identity_tau(n), word)) == n * (n - 1) == len(word)


@pytest.mark.parametrize("n", range(4, 17))
def test_length_additivity(n):
    # the proof behind the nested formula, for every rank the tests reach,
    # by verify's hyperplane count on its pairs; the composite is the
    # oracle's (so w0's letters are the oracle's walk), whose reduction
    # agrees
    sig = weyl.sigma_pair(n)
    comp = (verify._identity_tau(n), polyring._w0_letters(n))
    for _ in range(n - 1):
        comp = verify._compose(comp, sig)
    assert verify._length(n, comp) == n * (n - 1) + (n - 1) ** 2
    assert comp == compose(longest_word(n), power(sigma_word(n), n - 1))[1:]
    if n <= 10:
        assert length(ExtendedWeylWord(n, *comp)) == n * (n - 1) + (n - 1) ** 2


@pytest.mark.parametrize("n", range(4, 13))
def test_dominant_key_is_where_the_chamber_walk_stops(n):
    # the closed form against the walk, at levels 1 to 6 with spin parts
    # (odd doubled coordinates) and any 2 delta
    rng = seeded(19 + n)
    spins = 0
    for _ in range(250):
        k = tuple(rng.randint(-8, 8) for _ in range(n)) + (rng.randint(1, 6), rng.randint(-9, 9))
        top = walk_up(k, range(n + 1))[1]
        assert weyl._dominant_key(n, frame_key(k)) == frame_key(top), k
        assert is_dominant(n, top)
        spins += (k[n - 2] + k[n - 1]) % 2
    assert spins > 90


@pytest.mark.parametrize("level", range(1, 7))
def test_dominant_key_keeps_the_form_and_fixes_dominant_keys(level):
    # the closed form stays in the orbit's norm class, lands in the
    # alcove, and leaves a dominant key (its own output) as it is
    rng = seeded(70 + level)
    for _ in range(200):
        n = rng.randint(4, 12)
        k = frame_key(tuple(rng.randint(-8, 8) for _ in range(n)) + (level, rng.randint(-9, 9)))
        top = weyl._dominant_key(n, k)
        assert top[n] == level and bilinear(top, top) == bilinear(k, k), k
        assert is_dominant(n, fw_key(top)) and weyl._dominant_key(n, top) == top, k


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
    # the prefixes minaff writes as literals are the swaps they name
    for n in range(4, 41):
        swap01, fork = oracle._swap_tau(n, 0, 1), oracle._swap_tau(n, n - 1, n)
        assert weyl.sigma_pair(n)[0] == tuple(swap01[j] for j in fork)
        assert verify._twist01(n) is weyl.key_twist(n, swap01)


def test_is_dominant():
    n = 4
    assert is_dominant(n, (0,) * n + (1, 0))
    w1 = varpi(n, 1) + (0, 0)
    assert is_dominant_fw(w1[:n])
    assert not is_dominant(n, w1)
    assert not is_dominant_fw(root_to_fw(n, (-1, 0, 0, 0)))


def test_a_float_or_bool_node_is_refused():
    # 1.0 and True compare equal to the node 1 and are refused all the same
    key = (2, 0, 0, 0, 1, 0)  # varpi_1 + Lambda_0 in the frame
    reflected = (0, 2, 0, 0, 1, 0)  # s_1 of the key, which pairs 1 with node 1
    assert verify.reflect_key(1, key) == reflected
    for bad in (1.0, True):
        with pytest.raises(InputError):
            varpi(4, bad)


@pytest.mark.parametrize("n", range(4, 13))
def test_alpha_zero_is_delta_minus_the_highest_root(n):
    # verify's node-0 root against the highest root's marks through the
    # Cartan matrix, conjugated by eps2; it pairs 2 with its own coroot, so
    # its reflection negates it
    alpha0 = verify._alpha(n, 0)
    minus_theta = root_to_fw(n, tuple(-v for v in oracle.theta_coeffs(n)))
    assert fw_key(alpha0) == oracle.alpha_key(n, 0) == minus_theta + (0, 2)
    assert verify.reflect_key(0, alpha0) == tuple(-v for v in alpha0)


def test_action_preserves_form():
    rng = seeded(31)
    for n in (4, 5):
        for _ in range(30):
            w = rand_extended(n, rng, rng.randint(0, 12))
            x = rand_key(n, rng)
            y = rand_key(n, rng)
            wx, wy = frame_key(act(w, x)), frame_key(act(w, y))
            assert bilinear(wx, wy) == bilinear(frame_key(x), frame_key(y))


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
    for tau in sorted(allowed_taus(n)):
        assert tuple(tau[j] for j in tau) == tuple(range(n + 1)), tau
        twist = weyl.key_twist(n, tau)
        for _ in range(25):
            k = frame_key(rand_key(n, rng))
            assert twist(twist(k)) == k, (tau, k)


@pytest.mark.parametrize("n", range(4, 9))
def test_finite_twist_is_the_finite_part_of_the_key_twist(n):
    # the table path relabels finite weights at one level; the key twist
    # adds 2 delta = d_1 - level, which moves only when the prefix swaps
    # nodes 0 and 1
    rng = seeded(71 + n)
    for tau in sorted(allowed_taus(n)):
        relabel = weyl.finite_twist(n, tau)
        twist = weyl.key_twist(n, tau)
        moved = False
        for _ in range(40):
            k = frame_key(rand_key(n, rng))
            image = twist(k)
            assert relabel(k[:n], k[n]) == image[:n], (tau, k)
            assert image[n] == k[n], (tau, k)
            moved |= image[n + 1] != k[n + 1]
        assert moved == (tau[0] == 1), tau


@pytest.mark.parametrize("n", range(4, 9))
def test_the_frame_kernel_is_the_oracle_kernel_conjugated_by_eps2(n):
    # every function of the frame against the fundamental-coordinate kernel
    # it replaced: at every node 0..n (the finite ones from weyl, node 0
    # conjugated in verify) the simple root, the reflection and the
    # Demazure step, which reads the pairing; under each of the four
    # prefixes, both twists
    rng = seeded(90 + n)
    keys = [rand_key(n, rng, span=3) for _ in range(40)]
    for i in range(n + 1):
        assert verify._alpha(n, i) == frame_key(oracle.alpha_key(n, i)), i
        for k in keys:
            assert verify.reflect_key(i, frame_key(k)) == frame_key(oracle.reflect_key(i, k))
        terms = {k: rng.choice([-2, -1, 1, 2]) for k in keys}
        step = verify._step(n, i, {frame_key(k): c for k, c in terms.items()})
        assert step == {frame_key(k): c for k, c in oracle.demazure_terms(n, i, terms).items()}
    for tau in sorted(allowed_taus(n)):
        twist, relabel = weyl.key_twist(n, tau), weyl.finite_twist(n, tau)
        for k in keys:
            image = oracle.key_twist(n, tau)(k)
            assert twist(frame_key(k)) == frame_key(image), (tau, k)
            d = relabel(eps2(n, k[:n]), k[n])
            assert d == eps2(n, oracle.finite_twist(n, tau)(k[:n], k[n])), (tau, k)


# weyl holds only the key kernel that the table path runs: a fresh process
# runs char and decomp in every family under a profiler, and every function
# the module defines, nested ones and comprehensions included, must run.
# Code of weyl that a table process never runs, by qualified name.
KERNEL_UNCALLED = set()


def test_a_table_process_runs_every_function_of_the_kernel():
    cases = [
        [command, "--n", "5", "--lambda", "0,1,1,1,1", "--s", s]
        for command in ("char", "decomp")
        for s in ("1", "n-1", "n")
    ]
    assert uncalled_code(weyl, cases) == KERNEL_UNCALLED
