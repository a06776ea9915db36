"""Subspace and rank-sphere counting against brute-force enumeration."""

from itertools import product

from rslminors.counting import gauss_binom, sphere_size
from rslminors.fields import prime_field
from rslminors.matrix import rank_rows, rref_rows


def all_vectors(n, q):
    return list(product(range(q), repeat=n))


def count_subspaces_brute(n, k, q):
    """Distinct row spaces of rank k, enumerated as canonical echelon forms."""
    if k == 0:
        return 1
    field = prime_field(q)
    seen = set()
    for rows in product(all_vectors(n, q), repeat=k):
        if rank_rows([list(r) for r in rows], field) != k:
            continue
        res = rref_rows([list(r) for r in rows], field)
        seen.add(tuple(tuple(row) for row in res.matrix.rows[:k]))
    return len(seen)


def count_rank_matrices_brute(w, r, n, q):
    field = prime_field(q)
    count = 0
    for flat in product(range(q), repeat=r * n):
        rows = [list(flat[i * n : (i + 1) * n]) for i in range(r)]
        if rank_rows(rows, field) == w:
            count += 1
    return count


def test_gauss_binom_frozen():
    assert gauss_binom(2, 1, 2) == 3
    assert gauss_binom(4, 2, 2) == 35
    assert gauss_binom(3, 1, 3) == 13


def test_gauss_binom_matches_enumeration():
    for q in (2, 3):
        for n in range(0, 4):
            for k in range(0, n + 1):
                if q**(n * k) > 100_000:
                    continue
                assert gauss_binom(n, k, q) == count_subspaces_brute(n, k, q)


def test_gauss_binom_identities():
    for q in (2, 3, 4, 5):
        for n in range(0, 8):
            for k in range(0, n + 1):
                assert gauss_binom(n, k, q) == gauss_binom(n, n - k, q)
            assert gauss_binom(n, 0, q) == 1
            assert gauss_binom(n, n, q) == 1
        # Pascal analog: C_q(n, k) = C_q(n-1, k-1) + q^k C_q(n-1, k)
        for n in range(1, 8):
            for k in range(1, n):
                assert gauss_binom(n, k, q) == (
                    gauss_binom(n - 1, k - 1, q) + q**k * gauss_binom(n - 1, k, q)
                )


def test_sphere_size_frozen():
    assert sphere_size(1, 2, 2, 2) == 9
    assert sphere_size(2, 2, 4, 2) == 210


def test_sphere_size_matches_enumeration():
    cases = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 2), (2, 2, 3), (1, 3, 3), (3, 1, 3)]
    for r, n, q in cases:
        for w in range(0, min(r, n) + 1):
            assert sphere_size(w, r, n, q) == count_rank_matrices_brute(w, r, n, q)


def test_sphere_sizes_partition_the_space():
    for q in (2, 3):
        for r in range(1, 5):
            for n in range(1, 5):
                total = sum(sphere_size(w, r, n, q) for w in range(min(r, n) + 1))
                assert total == q ** (r * n)
    assert sphere_size(0, 3, 5, 2) == 1
