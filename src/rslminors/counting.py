"""Counting helpers for rank-metric combinatorics.

All results are exact Python integers.
"""

from __future__ import annotations


def gauss_binom(n: int, k: int, q: int) -> int:
    """Gaussian binomial coefficient: the number of k-dimensional subspaces
    of an n-dimensional vector space over GF(q)."""
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def sphere_size(w: int, r: int, n: int, q: int) -> int:
    """Number of r x n matrices over GF(q) of rank exactly w.

    Such a matrix is fixed by its row space, one of the gauss_binom(n, w, q)
    w-dimensional subspaces of GF(q)^n, and by its coordinates on a basis of
    that space, an r x w matrix of rank w, of which there are
    Prod_{i<w} (q**r - q**i).
    """
    if w < 0 or w > min(r, n):
        raise ValueError(f"rank {w} out of range for {r} x {n} matrices")
    out = gauss_binom(n, w, q)
    for i in range(w):
        out *= q**r - q**i
    return out
