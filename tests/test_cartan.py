from fractions import Fraction

import pytest

from minaff import InputError
from minaff.cartan import (
    AffineWeight,
    affine_edges,
    bilinear,
    check_rank,
    delta_plus_s,
    dominates,
    eps2,
    finite_edges,
    fw_from_eps2,
    fw_to_root,
    in_root_cone,
    lambda0,
    pairing,
    positive_roots,
    root_to_fw,
    support,
    varpi,
)
from _helpers import seeded


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


def test_affine_weight_refuses_inexact_level_and_delta():
    with pytest.raises(InputError):
        AffineWeight((0, 0, 0, 0), 1.7, 0)
    with pytest.raises(InputError):
        AffineWeight((0, 0, 0, 0), 1, 0.1)
    w = AffineWeight((0, 0, 0, 0), 1, Fraction(1, 2))
    assert w.level == 1 and w.delta == Fraction(1, 2)


def test_affine_weight_replace_and_make_run_the_same_checks():
    w = AffineWeight((0, 0, 0, 0))
    with pytest.raises(InputError):
        w._replace(delta=0.5)
    with pytest.raises(InputError):
        w._replace(level=1.5)
    with pytest.raises(InputError):
        AffineWeight._make(((0, 0, 0, 0), 1, 0.25))
    assert w._replace(delta=Fraction(1, 2)) == AffineWeight((0, 0, 0, 0), 0, Fraction(1, 2))
    assert AffineWeight._make(([1, 0, 0, 0], 1, 2)) == AffineWeight((1, 0, 0, 0), 1, 2)


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
        lambda0(3)


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
    from minaff.cartan import branch_set, family_nodes

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
    L0 = lambda0(4)
    assert pairing(2, L0) == 0
    assert pairing(0, L0) == 1
    assert pairing(0, AffineWeight(varpi(4, 2))) == -2


def test_pairing_ignores_delta():
    rng = seeded(4)
    for _ in range(30):
        fin = tuple(rng.randint(-3, 3) for _ in range(5))
        x = AffineWeight(fin, rng.randint(-2, 2), 0)
        y = AffineWeight(fin, x.level, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for i in range(6):
            assert pairing(i, x) == pairing(i, y)


def test_bilinear_normalization():
    n = 4
    d = AffineWeight((0,) * n, 0, 1)
    assert bilinear(d, lambda0(n)) == 1
    assert bilinear(lambda0(n), lambda0(n)) == 0
    a1 = AffineWeight(root_to_fw(n, (1, 0, 0, 0)))
    a2 = AffineWeight(root_to_fw(n, (0, 1, 0, 0)))
    assert bilinear(a1, a1) == 2
    assert bilinear(a1, a2) == -1
    assert bilinear(AffineWeight(varpi(n, 1)), d) == 0


def test_real_roots_have_square_length_two():
    for n in (4, 5):
        for beta in positive_roots(n):
            for k in range(-3, 4):
                x = AffineWeight(root_to_fw(n, beta), 0, k)
                assert bilinear(x, x) == 2


def test_support():
    assert support(tuple(a + b for a, b in zip(varpi(4, 1), varpi(4, 3)))) == {1, 3}
    assert support((0, 0, 0, 0)) == frozenset()
    assert support(alpha_interval(4, 2, 4)) == {2, 4}
    with pytest.raises(InputError):
        support((-1, 0, 0, 0))


def test_coordinate_round_trips():
    rng = seeded(12)
    for n in (4, 5, 7):
        for _ in range(50):
            fw = tuple(rng.randint(-4, 4) for _ in range(n))
            assert fw_from_eps2(n, eps2(n, fw)) == fw
        for c in list(positive_roots(n))[:20]:
            assert fw_to_root(n, root_to_fw(n, c)) == c


def test_dominance_order():
    n = 4
    lam = (1, 1, 0, 0)
    a2 = root_to_fw(n, (0, 1, 0, 0))
    assert dominates(n, lam, tuple(l - a for l, a in zip(lam, a2)))
    assert not dominates(n, (0, 0, 0, 1), (0, 0, 1, 0))  # different coset
    assert not dominates(n, (0, 0, 0, 0), (0, 1, 0, 0))
    assert in_root_cone(n, root_to_fw(n, (1, 2, 1, 1)))
