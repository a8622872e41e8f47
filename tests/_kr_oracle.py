"""Kirillov-Reshetikhin decompositions in type D_n by the domino rule, from
the standard library alone; nothing here reads minaff.

For lambda = m varpi_i the minimal affinization is the Kirillov-Reshetikhin
module W(m varpi_i), and its decomposition has a closed form (V. Chari, "On
the fermionic formula and the Kirillov-Reshetikhin conjecture", Int. Math.
Res. Notices 2001, no. 12; conjectured by Hatayama, Kuniba, Okado, Takagi
and Yamada, "Remarks on fermionic formula", Contemp. Math. 248, 1999).  For
i <= n-2, W(m varpi_i) is the sum of V(k_i varpi_i + k_{i-2} varpi_{i-2} +
...), once each, over k_i + k_{i-2} + ... = m with varpi_0 = 0: the shapes
left when vertical dominoes are removed from the m x i rectangle.  At a spin
node, W(m varpi_i) = V(m varpi_i).  Weights are tuples of fundamental
coordinates, as in minaff's tables.
"""


def _compositions(total, parts):
    """Every tuple of ``parts`` nonnegative ints that sums to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def kr_weight(n, i, m):
    """m varpi_i in rank n."""
    return tuple(m if j == i else 0 for j in range(1, n + 1))


def kr_table(n, i, m):
    """The multiplicities {mu: 1} of W(m varpi_i) in rank n, node i in 1..n."""
    if i >= n - 1:
        return {kr_weight(n, i, m): 1}
    nodes = range(i, -1, -2)  # i, i-2, ..., ending at 1 or at 0 (varpi_0 = 0)
    table = {}
    for ks in _compositions(m, len(nodes)):
        mu = [0] * n
        for j, k in zip(nodes, ks):
            if j:
                mu[j - 1] = k
        mu = tuple(mu)
        table[mu] = table.get(mu, 0) + 1
    return table
