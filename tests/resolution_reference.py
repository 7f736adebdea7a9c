"""The exactness check on the bimodule resolution itself, by rank.

The engine checks exactness on the one-sided complex P (x)_A k, the induced
complex with coefficients eps A, whose components are twelve times smaller
in each direction (see the lemma at fk3hh.homology.exactness_defects).
This is the direct check it replaced: the rank of every bimodule
delta-block, and the defect of P^b_n.  Both must vanish at the same
degrees.
"""

from fk3hh.fk3core import DIM, dual_dim


def pb_dim(n):
    """dim P^b_n = 144 * sum_i dual_dim(n - 4i)."""
    return DIM * DIM * sum(dual_dim(n - 4 * i) for i in range(n // 4 + 1))


def intdegs(n):
    """The internal degrees of P^b_n (n >= 0): layer i spans n + 2i to
    n + 2i + 8."""
    return range(n, n + 2 * (n // 4) + 9)


def delta_rank(res, n):
    """Rank of delta^b_n: the sum of its blocks' ranks."""
    return sum(res.delta_block(n, d).rank() for d in intdegs(n))


def bimodule_defect(res, n):
    """dim P^b_n - rank(delta_n) - rank(delta_{n+1}); at n = 0 the
    augmentation P^b_0 = A (x) A -> A, of rank 12, stands for delta_0."""
    below = DIM if n == 0 else delta_rank(res, n)
    return pb_dim(n) - below - delta_rank(res, n + 1)
