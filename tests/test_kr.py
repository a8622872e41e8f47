"""Kirillov-Reshetikhin weights: both pipelines against the domino rule of
:mod:`_kr_oracle`, which shares no code with either.

At lambda = m varpi_i the minimal affinization of every family is the
Kirillov-Reshetikhin module, so all three families, s = n included, must
give its closed-form table; the symplectic pipeline covers s = 1.
"""

import pytest

from minaff.affinization import multiplicity_table
from minaff.spbranch import sam_table
from _kr_oracle import kr_table, kr_weight


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
