"""Independent multiplicity pipeline through the rank n-1 symplectic algebra.

The fold ``_fold`` takes the two spin coordinates to the last symplectic
node; the Schur functor of the standard symplectic module with the folded
weight's partition restricts to symplectic irreducibles by Littlewood's
rule (a sum of Littlewood-Richardson coefficients over partitions with
even columns; Koike-Terada 1987); lifting back along the fold gives the
multiplicity table of the s = 1 family.  The table is checked against the
hook-content dimension of the Schur functor.

This path deliberately shares no computation with the Demazure pipeline:
it is integer combinatorics of partitions, with its own root data for the
symplectic dimension formula, in plain orthogonal coordinates (integral
for the symplectic lattice, so nothing is doubled here).
"""

from functools import lru_cache

from .cartan import check_weight, is_regular
from . import CharacterError, InputError


def _fold(n, mu):
    """Fold a checked dominant weight onto the symplectic dominant cone:
    chain coordinates pass through, the spin pair contributes its minimum."""
    return mu[: n - 2] + (min(mu[n - 2], mu[n - 1]),)


def partition_of(nu):
    """Tail sums of the coordinates; for a dominant symplectic weight these
    are its orthogonal coordinates read as a partition.  A coordinate that
    is not an int (a bool or a float) or is negative is refused."""
    check_weight(len(nu), nu)
    if any(v < 0 for v in nu):
        raise InputError(f"{nu} is not dominant")
    r = len(nu)
    return tuple(sum(nu[i:]) for i in range(r))


def _strip(p):
    return tuple(v for v in p if v)


def _sp_fund_from_eps(x):
    r = len(x)
    return tuple(x[i] - x[i + 1] for i in range(r - 1)) + (x[r - 1],)


# ---------------------------------------------------------------------------
# Littlewood-Richardson coefficients


def _skew_contents(p, mu):
    """{content: count} over the LR fillings of the skew shape p/mu, for a
    partition mu inside p.

    Cells are filled in reverse reading order (rows top to bottom, each
    right to left); a filling is kept when its rows weakly increase, its
    columns strictly increase and its reading word is a lattice word.
    """
    mu = mu + (0,) * (len(p) - len(mu))
    cells = [(r, c) for r in range(len(p)) for c in range(p[r] - 1, mu[r] - 1, -1)]
    grid = {}
    counts = [0] * (len(p) + 2)
    out = {}

    def fill(j):
        if j == len(cells):
            key = _strip(tuple(counts[1:]))
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[j]
        lo = grid.get((r - 1, c), 0) + 1
        hi = min(grid.get((r, c + 1), r + 1), r + 1)
        for k in range(lo, hi + 1):
            if k > 1 and counts[k] >= counts[k - 1]:
                continue
            grid[r, c] = k
            counts[k] += 1
            fill(j + 1)
            counts[k] -= 1
        grid.pop((r, c), None)

    fill(0)
    return out


def _even_column_partitions(p):
    """Partitions inside p whose columns all have even length, that is
    (a1, a1, a2, a2, ...) with a_i at most p_{2i}."""
    pairs = p[1::2]

    def rec(i, cap):
        if i == len(pairs):
            yield ()
            return
        for a in range(min(cap, pairs[i]) + 1):
            for rest in rec(i + 1, a):
                yield _strip((a, a) + rest)

    return rec(0, p[0] if p else 0)


# ---------------------------------------------------------------------------
# Symplectic root data and dimensions


def _sp_rho(r):
    return tuple(range(r, 0, -1))


def _sp_root_product(x):
    """The product over the positive roots e_i - e_j, e_i + e_j (i < j) and
    2 e_i of their pairings with ``x``, up to the factor 2^r: the product of
    x_i^2 - x_j^2 over i < j times the product of the x_i."""
    out = 1
    for i, a in enumerate(x):
        out *= a
        for b in x[i + 1 :]:
            out *= a * a - b * b
    return out


@lru_cache(maxsize=None)
def _sp_rho_product(r):
    return _sp_root_product(_sp_rho(r))


def _sp_dim_irr(x):
    """Weyl dimension formula for the symplectic irreducible whose highest
    weight has orthogonal coordinates ``x``, a partition padded to the rank.

    With y = x + rho, the dimension is the product of y_i^2 - y_j^2 over
    i < j times the product of the y_i, divided by the same product at rho.
    """
    rank = len(x)
    num = _sp_root_product(tuple(a + b for a, b in zip(x, _sp_rho(rank))))
    den = _sp_rho_product(rank)
    q, r = divmod(num, den)
    if r:
        raise CharacterError(f"dimension formula not integral at {x}: {num}/{den}")
    return q


def _schur_dim(p, letters):
    """Dimension of the Schur functor S_p of a ``letters``-dimensional
    space, for a partition ``p`` without zero parts: the product over cells
    of (letters + column - row) over hook lengths."""
    num = 1
    den = 1
    for r in range(len(p)):
        for c in range(p[r]):
            num *= letters + c - r
            den *= p[r] - c + sum(1 for rr in range(r + 1, len(p)) if p[rr] > c)
    return num // den


def _sp_branch(p, rank):
    """Restriction of the Schur functor S_p(C^{2 rank}) to the symplectic
    algebra of rank ``rank``, for a partition ``p`` of at most ``rank``
    nonzero parts, keyed by the constituents' partitions padded to ``rank``
    parts (their orthogonal coordinates).

    Littlewood's rule: the multiplicity of the irreducible with partition
    nu is the sum of c^p_{beta,nu} over the partitions beta with even
    columns.  Taller shapes need a modified rule.
    """
    out = {}
    for beta in _even_column_partitions(p):
        for nu, c in _skew_contents(p, beta).items():
            key = nu + (0,) * (rank - len(nu))
            out[key] = out.get(key, 0) + c
    return out


# ---------------------------------------------------------------------------
# The multiplicity formula


def sam_table(n, lam):
    """Multiplicity table of the s = 1 family from the symplectic side.

    Restricts the Schur functor of the folded highest weight's partition
    by :func:`_sp_branch`, checks the total dimension, and lifts each
    symplectic constituent back to the unique dominant weight with the same
    spin difference as ``lam``, which it checks once, by ``is_regular``.
    """
    lam = tuple(lam)
    if not is_regular(n, lam):
        raise InputError(f"weight {lam} is outside the regular classification")
    rank = n - 1
    p = _strip(partition_of(_fold(n, lam)))
    table = _sp_branch(p, rank)
    total = sum(m * _sp_dim_irr(x) for x, m in table.items())
    expected = _schur_dim(p, 2 * rank)
    if total != expected:
        raise CharacterError(
            f"symplectic constituents of {p} have total dimension {total},"
            f" expected {expected}"
        )
    diff = lam[n - 1] - lam[n - 2]
    out = {}
    for x, m in table.items():
        nu = _sp_fund_from_eps(x)
        spin_min = nu[rank - 1]
        if diff >= 0:
            mu = nu[: rank - 1] + (spin_min, spin_min + diff)
        else:
            mu = nu[: rank - 1] + (spin_min - diff, spin_min)
        out[mu] = m
    return out

