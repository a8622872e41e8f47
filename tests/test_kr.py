"""Kirillov-Reshetikhin weights: both pipelines against the domino rule of
:mod:`_kr_oracle`, which shares no code with either.

At lambda = m varpi_i the minimal affinization of every family is the
Kirillov-Reshetikhin module, so all three families, s = n included, must
give its closed-form table; the symplectic pipeline covers s = 1.  The
2 delta slot of the nested polynomial carries the grading, which no plain
table reads, so the program does not carry it; the element route of
:func:`_ring_oracle.pre_w0_oracle` does: sliced by it, each constituent
must sit at twice its domino count.
"""

import pytest

from minaff.affinization import multiplicity_table
from minaff.spbranch import sam_table
from _kr_oracle import kr_graded_table, kr_table, kr_weight
from _ring_oracle import pre_w0_oracle, straightened, swap_fork
from _weyl_oracle import tau_fork


@pytest.mark.parametrize("n", range(4, 9))
def test_kr_tables_follow_the_domino_rule(n):
    for i in range(1, n + 1):
        for m in range(1, 4):
            expected = kr_table(n, i, m)
            lam = kr_weight(n, i, m)
            for s in (1, n - 1, n):
                assert multiplicity_table(n, lam, s) == expected, (i, m, s)
            assert sam_table(n, lam) == expected, (i, m)
            # below the spin nodes and past node 1 the module is not irreducible
            assert (len(expected) > 1) == (2 <= i <= n - 2), (i, m)


@pytest.mark.parametrize("n, lam", [(5, (1, 0, 1, 0, 0)), (6, (0, 1, 0, 1, 0, 0))])
def test_a_two_node_weight_matches_no_domino_rule(n, lam):
    rules = [kr_table(n, i, m) for i in range(1, n + 1) for m in range(1, 4)]
    for s in (1, n - 1, n):
        assert multiplicity_table(n, lam, s) not in rules, s


def graded_table(n, lam, s):
    """{(mu, 2 delta): m} of the nested polynomial before the longest-element
    pass by the element route, each 2 delta slice straightened on its own;
    the fork twin is the fork twist of the s = n polynomial of the swapped
    weight."""
    if s == n - 1:
        g = pre_w0_oracle(n, swap_fork(n, lam), n).twist(tau_fork(n))
    else:
        g = pre_w0_oracle(n, lam, s)
    slices = {}
    for k, c in g.items():
        terms = slices.setdefault(k[n + 1], {})
        terms[k[:n]] = terms.get(k[:n], 0) + c
    return {
        (mu, d2): m for d2, terms in slices.items() for mu, m in straightened(n, terms).items()
    }


def test_kr_constituents_sit_at_their_domino_count():
    # nodes below the spin pair, n = 4 to 8, m <= 3, all three families
    seen = 0
    for n in range(4, 9):
        for i in range(1, n - 1):
            for m in range(1, 4):
                expected = {(mu, 2 * d): c for (mu, d), c in kr_graded_table(n, i, m).items()}
                for s in (1, n - 1, n):
                    assert graded_table(n, kr_weight(n, i, m), s) == expected, (n, i, m, s)
                    seen += len(expected)
    # 225 constituents per family: an oracle that yields nothing cannot pass
    assert seen == 675
