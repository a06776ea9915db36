"""Exact linear algebra: the token-array arithmetic and matrix product
against the scalar field operations, every entry of the minor table against
a permutation-sum oracle,
echelon form invariants, kernel and solve round trips, and the numpy
elimination core against the plain ``rref_rows`` oracle."""

import random
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest

from rslminors.fields import TABLE_LIMIT, PrimeField, extension_field, prime_field
from rslminors.instance import RslParams, gen_instance, shorten, strategy_params
from rslminors.matrix import (
    FieldMatrix,
    TokenArrays,
    _echelon,
    _ModP,
    _PackedF3,
    _representation,
    _XorF2m,
    _ZechLog,
    column_space_basis,
    kernel_rows,
    minor_table,
    pivot_columns,
    rank_rows,
    rref_rows,
    solve_rows,
    working_cell_bytes,
)
from rslminors.modeling import build_macaulay, build_system, unfold_system
from rslminors.verification import sample_family


def det_leibniz(rows, field):
    """Signed permutation sum, the textbook determinant definition."""
    n = len(rows)
    acc = field.zero
    for perm in permutations(range(n)):
        inv = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        v = field.one
        for i in range(n):
            v = field.mul(v, rows[i][perm[i]])
            if v == 0:
                break
        if v == 0:
            continue
        acc = field.add(acc, field.neg(v) if inv % 2 else v)
    return acc


FIELDS = [
    prime_field(2),
    prime_field(3),
    prime_field(5),
    extension_field(2, 4),
    extension_field(3, 2),
]
IDS = ["gf2", "gf3", "gf5", "gf16", "gf9"]


# above TABLE_LIMIT: array arithmetic maps the field's scalar operations
BIG = extension_field(2, 21)


def det(m: FieldMatrix) -> int:
    """Determinant of a square matrix through the minor table."""
    return minor_table(m.rows, m.field, m.nrows)[0, 0]


def sparse_random(field, nrows, ncols, rng):
    """A random matrix with about a third of its entries zero, so products
    and sums with zero operands occur over every field."""
    return FieldMatrix(
        field,
        [[field.random_element(rng) if rng.random() < 2 / 3 else 0 for _ in range(ncols)]
         for _ in range(nrows)],
        ncols,
    )


def scalar_product(a, b, field):
    """The product of the token matrices with rows ``a`` and ``b`` by a
    scalar triple loop that skips zero entries: the oracle of
    ``TokenArrays.dot``."""
    out = [[0] * len(b[0]) for _ in a]
    for row, acc in zip(a, out):
        for x, brow in zip(row, b):
            if x == 0:
                continue
            for j, y in enumerate(brow):
                if y:
                    acc[j] = field.add(acc[j], field.mul(x, y))
    return out


def column(v):
    """A vector as the one-column matrix that ``scalar_product`` takes."""
    return [[x] for x in v]


def test_big_field_is_untabulated():
    assert BIG.order > TABLE_LIMIT and BIG.np_tables() is None


@pytest.mark.parametrize("field", FIELDS + [BIG], ids=IDS + ["gf2^21"])
def test_token_arrays_match_scalar_arithmetic(field):
    rng = random.Random(7)
    if field.order <= 16:
        pairs = [(x, y) for x in range(field.order) for y in range(field.order)]
    else:
        pairs = [(field.random_element(rng), field.random_element(rng)) for _ in range(300)]
        pairs += [(0, y) for _, y in pairs[:20]] + [(x, 0) for x, _ in pairs[20:40]]
        pairs += [(x, x) for x, _ in pairs[40:60]] + [(x, field.neg(x)) for x, _ in pairs[60:80]]
    ops = TokenArrays.of(field)
    a = np.array([x for x, _ in pairs], dtype=ops.dtype)
    b = np.array([y for _, y in pairs], dtype=ops.dtype)
    assert ops.add(a, b).tolist() == [field.add(x, y) for x, y in pairs]
    assert ops.mul(a, b).tolist() == [field.mul(x, y) for x, y in pairs]
    assert ops.neg(a).tolist() == [field.neg(x) for x, _ in pairs]


@pytest.mark.parametrize("field", FIELDS + [BIG], ids=IDS + ["gf2^21"])
def test_dot_matches_the_scalar_product(field):
    # rows and columns of one entry among the shapes, zero entries in every
    # matrix, and one all-zero factor
    rng = random.Random(13)
    ops = TokenArrays.of(field)
    for p, t, s in ((1, 5, 4), (4, 5, 1), (1, 1, 1), (1, 6, 1), (3, 1, 4), (5, 3, 6), (6, 7, 2)):
        a, b = sparse_random(field, p, t, rng), sparse_random(field, t, s, rng)
        for left in (a.rows, [[0] * t] * p):
            got = ops.dot(np.array(left, dtype=ops.dtype), np.array(b.rows, dtype=ops.dtype))
            assert got.shape == (p, s)
            assert got.tolist() == scalar_product(left, b.rows, field)


def assert_minor_table_matches_leibniz(m: FieldMatrix, d: int):
    table = minor_table(m.rows, m.field, d)
    row_sets = list(combinations(range(m.nrows), d))
    col_sets = list(combinations(range(m.ncols), d))
    assert table.shape == (len(row_sets), len(col_sets))
    for R, ri in enumerate(row_sets):
        for C, cs in enumerate(col_sets):
            sub = [[m.rows[i][j] for j in cs] for i in ri]
            assert table[R, C] == det_leibniz(sub, m.field), (ri, cs)


@pytest.mark.parametrize("field", FIELDS + [BIG], ids=IDS + ["gf2^21"])
def test_det_matches_leibniz(field):
    # every sorted row subset against every sorted column subset, the empty
    # minor (d = 0) included; the untabulated field runs on smaller matrices
    rng = random.Random(11)
    for n in range(1, 7 if field is not BIG else 5):
        for m in (FieldMatrix.random(field, n, n, rng), sparse_random(field, n, n, rng)):
            for d in range(n + 1):
                assert_minor_table_matches_leibniz(m, d)
    for nr, nc in ((2, 5), (5, 2), (3, 4), (1, 3)):
        m = sparse_random(field, nr, nc, rng)
        for d in range(min(nr, nc) + 2):  # one size past the shorter side: no subsets
            assert_minor_table_matches_leibniz(m, d)


def test_det_multiplicative():
    rng = random.Random(5)
    for field in (prime_field(7), extension_field(2, 4)):
        for _ in range(20):
            a = FieldMatrix.random(field, 3, 3, rng)
            b = FieldMatrix.random(field, 3, 3, rng)
            ab = FieldMatrix(field, scalar_product(a.rows, b.rows, field))
            assert det(ab) == field.mul(det(a), det(b))


def test_det_zero_on_repeated_row():
    rng = random.Random(3)
    field = extension_field(3, 2)
    for _ in range(10):
        m = FieldMatrix.random(field, 3, 3, rng)
        m.rows[2] = list(m.rows[0])
        assert det(m) == 0
        assert rank_rows(m.rows, field) < 3


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_rref_invariants(field):
    rng = random.Random(17)
    for nr, nc in ((3, 5), (5, 3), (4, 4), (1, 6), (6, 1)):
        for _ in range(10):
            m = FieldMatrix.random(field, nr, nc, rng)
            res = rref_rows(m.rows, field)
            r = res.rank
            assert r == len(res.pivots)
            assert res.pivots == sorted(res.pivots)
            for i, pc in enumerate(res.pivots):
                assert res.matrix[i, pc] == 1
                for i2 in range(res.matrix.nrows):
                    if i2 != i:
                        assert res.matrix[i2, pc] == 0
                # nothing to the left of a pivot in its own row
                assert all(res.matrix[i, j] == 0 for j in range(pc))
            for i in range(r, nr):
                assert all(x == 0 for x in res.matrix.rows[i])
            assert rank_rows(m.rows, field) == r


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_kernel_basis(field):
    rng = random.Random(23)
    for nr, nc in ((3, 6), (4, 4), (6, 3), (1, 1), (5, 1), (1, 7)):
        for _ in range(8):
            m = FieldMatrix.random(field, nr, nc, rng)
            basis = kernel_rows(m.rows, field, nc)
            assert len(basis) == nc - rank_rows(m.rows, field)
            for v in basis:
                assert scalar_product(m.rows, column(v), field) == [[0]] * nr
            if basis:
                assert rank_rows(basis, field) == len(basis)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_solve_rows(field):
    rng = random.Random(31)
    for _ in range(10):
        m = FieldMatrix.random(field, 4, 3, rng)
        x0 = [field.random_element(rng) for _ in range(3)]
        rhs = [y for y, in scalar_product(m.rows, column(x0), field)]
        x = solve_rows(m.rows, rhs, field, 3)
        assert x is not None
        assert scalar_product(m.rows, column(x), field) == column(rhs)
    # an inconsistent system: 0 x = 1
    assert solve_rows([[0, 0]], [1], field, 2) is None


def planted_rank(field, nr, nc, rank, rng):
    """A uniform-ish nr x nc matrix of rank at most ``rank``: A B with A of
    shape nr x rank and B of shape rank x nc."""
    if rank == 0:
        return [[0] * nc for _ in range(nr)]
    a = FieldMatrix.random(field, nr, rank, rng)
    b = FieldMatrix.random(field, rank, nc, rng)
    return scalar_product(a.rows, b.rows, field)


# (rows, columns, planted rank); a planted rank of None keeps the matrix random.
# The last four before MINUS_ONES cross the 64-column words that F_2 rows are
# packed into.
SHAPES = [
    (0, 5, None),
    (3, 0, None),
    (1, 1, None),
    (7, 1, None),
    (1, 9, None),
    (6, 60, None),
    (40, 12, None),
    (40, 60, 25),
    (30, 30, 29),
    (12, 40, 0),
    (5, 64, None),
    (70, 65, None),
    (130, 70, None),
    (90, 129, 50),
]
# Entries -1 apart from 1s in column 0 and on the leading diagonal of the
# first `rank` rows, which span the row space.  Over F_p the first update
# forms (p-1) + (p-1)^2, the largest value the residue dtype must hold.
MINUS_ONES = (24, 30, 6)
SHAPES.append(MINUS_ONES)


def minus_ones(field, nr, nc, rank):
    m1 = field.neg(field.one)
    return [
        [1 if j == 0 or i == j < rank else m1 for j in range(nc)] for i in range(nr)
    ]


# The elimination core keeps F_p residues in the narrowest unsigned dtype that
# holds (p-1)^2 + p - 1: 13 is the largest prime in uint8, 17 the smallest in
# uint16 and 257 the smallest in uint32.
ORACLE_FIELDS = FIELDS + [prime_field(13), prime_field(17), prime_field(257)]
ORACLE_IDS = IDS + ["gf13", "gf17", "gf257"]


def oracle_kernel(rows, ncols, field):
    res = rref_rows(rows, field)
    basis = []
    for fc in range(ncols):
        if fc in res.pivots:
            continue
        v = [0] * ncols
        v[fc] = 1
        for i, pc in enumerate(res.pivots):
            v[pc] = field.neg(res.matrix[i, fc])
        basis.append(v)
    return basis


def assert_reads_match_rref_oracle(rows, field, nc, rng):
    """Pivots and the reduced rows ``read`` gives against ``rref_rows``: at
    every column, at the free columns, at the pivot columns and at random
    columns in random order, repeats and pivot columns included."""
    res = rref_rows(rows, field)
    read, pivots = _echelon(rows, field)
    assert pivots == res.pivots
    reduced = res.matrix.rows[: res.rank]
    free = [c for c in range(nc) if c not in pivots]
    picked = [rng.randrange(nc) for _ in range(rng.randrange(1, 2 * nc + 2))] if nc else []
    for cols in (range(nc), free, pivots, picked, []):
        assert read(cols).tolist() == [[row[c] for c in cols] for row in reduced]
    return res


def assert_matches_rref_oracle(rows, field, nc, rng):
    """Pivots, reduced rows, kernel, solve and column space of the
    elimination core against ``rref_rows``."""
    nr = len(rows)
    res = assert_reads_match_rref_oracle(rows, field, nc, rng)
    assert rank_rows(rows, field) == res.rank
    assert kernel_rows(rows, field, nc) == oracle_kernel(rows, nc, field)
    m = FieldMatrix(field, rows, nc)
    # a random right-hand side, inconsistent when the rank is below nr, and
    # one in the column space
    x0 = [field.random_element(rng) for _ in range(nc)]
    in_span = [y for y, in scalar_product(rows, column(x0), field)] if nc else [0] * nr
    for rhs in ([field.random_element(rng) for _ in range(nr)], in_span):
        aug_res = rref_rows([row + [b] for row, b in zip(rows, rhs)], field)
        want = None
        if nc not in aug_res.pivots:
            want = [0] * nc
            for row, pc in zip(aug_res.matrix.rows, aug_res.pivots):
                want[pc] = row[nc]
        assert solve_rows(rows, rhs, field, nc) == want
    want = rref_rows(m.transpose().rows, field)
    basis = column_space_basis(m)
    assert (basis.nrows, basis.ncols) == (nr, want.rank)
    assert basis.transpose().rows == want.matrix.rows[: want.rank]
    return res.rank


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=ORACLE_IDS)
@pytest.mark.parametrize("shape", SHAPES, ids=[f"{r}x{c}" for r, c, _ in SHAPES])
def test_elimination_core_matches_rref_oracle(field, shape):
    nr, nc, rank = shape
    rng = random.Random(61 * nr + nc)
    for _ in range(2):
        if shape == MINUS_ONES:
            rows = minus_ones(field, nr, nc, rank)
        elif rank is None:
            rows = FieldMatrix.random(field, nr, nc, rng).rows
        else:
            rows = planted_rank(field, nr, nc, rank, rng)
        got = assert_matches_rref_oracle(rows, field, nc, rng)
        if rank is not None:
            assert got <= rank


def f2_random(nr, nc, rng, density=0.5):
    return [[int(rng.random() < density) for _ in range(nc)] for _ in range(nr)]


# Widths around the bytes and the 64-bit words that F_2 rows are eliminated
# in, with fewer rows than a byte holds columns and with more.
F2_WIDTHS = (1, 7, 8, 9, 63, 64, 65, 129)


def f2_byte_group_cases():
    """(id, rows) pairs for the byte-at-a-time F_2 elimination."""
    rng = random.Random(97)
    cases = []
    for nc in F2_WIDTHS:
        for nr in (1, 3, 7, 40):
            cases.append((f"random-{nr}x{nc}", f2_random(nr, nc, rng)))
        cases.append((f"sparse-50x{nc}", f2_random(50, nc, rng, 0.1)))
        cases.append((f"rank5-40x{nc}", planted_rank(prime_field(2), 40, nc, 5, rng)))
        cases.append((f"zero-6x{nc}", [[0] * nc for _ in range(6)]))
    # whole bytes of zero columns in the middle (columns 24 to 47), and the
    # rows left zero there after the first bytes' pivots
    rows = f2_random(60, 100, rng)
    for row in rows:
        row[24:48] = [0] * 24
    cases.append(("zero-bytes-60x100", rows))
    rows = f2_random(20, 100, rng)
    cases.append(("zero-bytes-after-rank-60x100", rows + [[0] * 48 + r[48:] for r in rows]))
    # 30 equal or zero rows, then independent ones: the first 24 nonzero
    # byte values span less than the byte where the rows are equal, and
    # only the scan of the distinct values finds the other pivots
    for first in ([1, 0, 1] + [0] * 6, [0] * 9, [1] * 9):
        tail = [[0] * i + [1] + [int(rng.random() < 0.5) for _ in range(8 - i)] for i in range(9)]
        rng.shuffle(tail)
        cases.append((f"head-{''.join(map(str, first))}-39x9", [list(first) for _ in range(30)] + tail))
    # 26 rows of two alternating values, then rows whose bytes repeat a
    # value already seen before the independent one
    rows = [[1, 1, 0, 0, 0, 0, 0, 0, 1, 0] if i % 2 else [0, 1, 0, 0, 0, 0, 0, 0, 0, 1] for i in range(26)]
    rows += [[1, 0, 0, 0, 0, 0, 0, 0, 1, 1]] * 5 + [[0, 0, 0, 1, 0, 0, 0, 0, 1, 0]] + f2_random(4, 10, rng)
    cases.append(("head-alternating-36x10", rows))
    # duplicated rows, in order and shuffled
    for nc in (9, 65):
        rows = f2_random(12, nc, rng)
        twice = [list(r) for r in rows for _ in range(3)]
        cases.append((f"tripled-36x{nc}", twice))
        shuffled = list(twice)
        rng.shuffle(shuffled)
        cases.append((f"tripled-shuffled-36x{nc}", shuffled))
    # more rows than the 256 combinations of one byte's table
    cases.append(("tall-300x20", f2_random(300, 20, rng)))
    return cases


F2_CASES = f2_byte_group_cases()


@pytest.mark.parametrize("rows", [r for _, r in F2_CASES], ids=[i for i, _ in F2_CASES])
def test_f2_byte_groups_match_rref_oracle(rows):
    # pivots, reduced rows, kernel, solve and column space
    field = prime_field(2)
    assert_matches_rref_oracle(rows, field, len(rows[0]), random.Random(len(rows)))


def attack_f2_macaulay(seed, b):
    """The degree-b Macaulay matrix of the first attempt of an attack on
    the q = 2, m = 12, n = 10, k = 5, r = 2, N = 9 shape."""
    params = RslParams(q=2, m=12, n=10, k=5, r=2, N=9)
    strategy = strategy_params(params, 0)
    inst, _ = gen_instance(params, seed)
    sh = shorten(inst, range(strategy.a, params.k), strategy.N_prime)
    return build_macaulay(unfold_system(build_system(sh, strategy.w)), b)


@pytest.mark.parametrize("b", [2, 3])
def test_f2_macaulay_kernels_vanish(b):
    # 1200 x 675 at b = 2 and 5520 x 1935 at b = 3, both too large for the
    # pure Python oracle: every kernel vector must vanish on the matrix, and
    # pivots and free columns must split the columns
    mac = attack_f2_macaulay(4, b)
    ncols = mac.shape[1]
    basis = kernel_rows(mac.dense_rows(), mac.field, ncols)
    pivots = pivot_columns(mac.dense_rows(), mac.field)
    assert _echelon(mac.dense_rows(), mac.field)[1] == pivots
    assert pivots == sorted(set(pivots)) and pivots[-1] < ncols
    assert basis and len(pivots) + len(basis) == ncols
    free = sorted(set(range(ncols)) - set(pivots))
    kernel = np.array(basis, dtype=np.int64)
    assert not np.any(mac.rows.astype(np.int64) @ kernel.T % 2)
    # each kernel vector is 1 at its own free column and 0 at the others
    assert np.array_equal(kernel[:, free], np.eye(len(free), dtype=np.int64))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_echelon_takes_row_arrays_as_nested_lists(field):
    # a Macaulay matrix reaches the core as a list of row views of one
    # array (uint8 digits over F_q, int64 tokens over F_{q^m}); small
    # callers pass nested lists
    rng = random.Random(17)
    dtype = np.uint8 if isinstance(field, PrimeField) else np.int64
    for nr, nc, rank in ((40, 60, 25), (30, 30, 29), (90, 129, 50), (12, 40, 0)):
        rows = planted_rank(field, nr, nc, rank, rng)
        dense = np.array(rows, dtype=dtype)
        res = rref_rows(rows, field)
        assert res.rank <= rank < nr
        read, pivots = _echelon(rows, field)
        aread, apivots = _echelon(list(dense), field)
        assert apivots == pivots == res.pivots
        assert aread(range(nc)).tolist() == read(range(nc)).tolist() == res.matrix.rows[: res.rank]
        assert dense.tolist() == rows  # the core works on a copy


# F_2, whose read unpacks its reduced rows, and fields whose reads
# back-substitute: F_3 in bit-planes, F_5 in residues, F_{2^4} in tokens
# that add by XOR and F_{3^3} in Zech logarithms.
READ_FIELDS = [
    prime_field(2),
    prime_field(3),
    prime_field(5),
    extension_field(2, 4),
    extension_field(3, 3),
]
READ_IDS = ["gf2", "gf3", "gf5", "gf16", "gf27"]


@pytest.mark.parametrize("field", READ_FIELDS, ids=READ_IDS)
@pytest.mark.parametrize("nc", [63, 64, 65, 129])
def test_read_matches_rref_oracle(field, nc):
    # widths either side of the 64-column words that F_2 and F_3 rows are
    # packed into; rank-deficient rows, whose rank passes the 64 pivots
    # that a back-substitution reads at a time at 129 columns; and
    # rows that turn zero early, each followed by a multiple of itself, and
    # five zero columns in front, so no pivot is at its own row's index
    rng = random.Random(f"read/{field.order}/{nc}")
    deficient = planted_rank(field, 72, nc, min(nc - 3, 66), rng)
    repeated = []
    for row in planted_rank(field, 12, nc - 5, 8, rng):
        scalar = rng.randrange(1, field.order)
        repeated += [[0] * 5 + row, [0] * 5 + [field.mul(scalar, x) for x in row]]
    for rows in (deficient, repeated):
        assert_reads_match_rref_oracle(rows, field, nc, rng)


def sparse_rows(field, nr, nc, rank, density, rng):
    """nr x nc rows of rank at most ``rank`` (nr when None), with zeros in
    the rows that pivot: ``rank`` random rows with about ``density`` of
    their entries nonzero, the other rows combinations of two of them, in a
    shuffled order."""

    def sparse_row():
        return [
            field.random_element(rng) if rng.random() < density else 0
            for _ in range(nc)
        ]

    if rank is None:
        return [sparse_row() for _ in range(nr)]
    base = [sparse_row() for _ in range(rank)]
    rows = list(base)
    while len(rows) < nr:
        row = [0] * nc
        for src in rng.sample(base, min(2, rank)):
            c = field.random_element(rng)
            row = [field.add(x, field.mul(c, y)) for x, y in zip(row, src)]
        rows.append(row)
    rng.shuffle(rows)
    return rows


# Extension fields of both kinds, from a few elements to the largest
# extension degree of the Theorem 2 checks; the two kinds eliminate in
# different representations.
EXT_FIELDS = [extension_field(q, m) for q in (2, 3) for m in (4, 7, 12)]
EXT_IDS = [f"gf{f.q}^{f.m}" for f in EXT_FIELDS]
# (rows, columns, planted rank): ranks below the row count, so that rows
# turn zero and the pivot scan stops early, wide shapes, whose pivot rows
# hold many zeros, and the all-zero matrix, which stops at column 0.
SPARSE_SHAPES = [
    (20, 300, 5),
    (30, 90, 12),
    (25, 60, None),
    (40, 25, None),
    (16, 130, 15),
    (8, 30, 0),
]


@pytest.mark.parametrize("field", EXT_FIELDS, ids=EXT_IDS)
@pytest.mark.parametrize("shape", SPARSE_SHAPES, ids=[f"{r}x{c}" for r, c, _ in SPARSE_SHAPES])
def test_sparse_extension_matrices_match_rref_oracle(field, shape):
    nr, nc, rank = shape
    rng = random.Random(f"{field.q}^{field.m}/{nr}x{nc}")
    for density in (0.1, 0.3):
        rows = sparse_rows(field, nr, nc, rank, density, rng)
        got = assert_matches_rref_oracle(rows, field, nc, rng)
        if rank is not None:
            assert got <= rank


@pytest.mark.parametrize("q", [2, 3])
def test_theorem2_macaulay_ranks_match_rref_oracle(q):
    # the matrices `verify thm2` ranks: degree (b, 1) over F_{q^m}
    rng = random.Random(90 + q)
    for _ in range(20):
        params, w = sample_family(rng, q)
        inst, _ = gen_instance(params, rng.randrange(2**30))
        system = build_system(inst, w)
        for b in (2, 3):
            mac = build_macaulay(system, b)
            assert mac.rank() == rref_rows(mac.dense_rows(), inst.field).rank


@pytest.mark.parametrize("p", [4294967291, 4294967311])
def test_large_primes_match_rref_oracle(p):
    # the largest prime below 2^32 eliminates in uint64, the smallest above
    # it goes through rref_rows; int64 residues overflowed on both
    field = prime_field(p)
    rng = random.Random(p)
    for _ in range(20):
        rows = planted_rank(field, 6, 6, 5, rng)
        assert rank_rows(rows, field) == rref_rows(rows, field).rank
        assert kernel_rows(rows, field, 6) == oracle_kernel(rows, 6, field)


@pytest.mark.parametrize(
    "field, dtype",
    [
        (prime_field(2), np.uint8),
        (prime_field(3), np.uint8),
        (prime_field(17), np.uint16),
        (prime_field(257), np.uint32),
        (extension_field(3, 2), np.int64),
        (extension_field(2, 4), np.int64),
        (prime_field(2), np.int64),
        (prime_field(3), np.int64),
    ],
    ids=["gf2", "gf3", "gf17", "gf257", "gf9", "gf16", "gf2-int64", "gf3-int64"],
)
def test_elimination_leaves_the_callers_rows_alone(field, dtype):
    # an ndarray already in the elimination dtype is the case np.asarray
    # would hand to the pivot loop without a copy; an int64 one must give
    # the list's results, not its raw bytes
    rng = random.Random(71)
    rows = planted_rank(field, 10, 12, 6, rng)
    rhs = [field.random_element(rng) for _ in range(10)]
    want = [list(r) for r in rows]
    arr = np.array(rows, dtype=dtype)
    results = []
    for given in (rows, arr):
        read, pivots = _echelon(given, field)
        results.append(
            (
                pivots,
                read(range(12)).tolist(),
                kernel_rows(given, field, 12),
                solve_rows(given, rhs, field, 12),
            )
        )
    assert results[0] == results[1]
    assert rows == want
    assert arr.tolist() == want


@pytest.mark.parametrize(
    "field",
    [prime_field(2), prime_field(3), prime_field(5), extension_field(2, 7), extension_field(3, 7)],
    ids=["gf2", "gf3", "gf5", "gf2^7", "gf3^7"],
)
def test_elimination_peak_stays_within_its_price(field):
    # the memory guard prices an elimination at working_cell_bytes a cell:
    # in an all-ones matrix the first update reaches every row, a random one
    # runs to full rank; rows come as the Macaulay matrix hands them over, a
    # list of row views of its uint8 digits or int64 tokens.  The read of the
    # free columns, a kernel's unpack or back-substitution, is traced too.
    dtype = np.uint8 if isinstance(field, PrimeField) else np.int64
    rng = np.random.default_rng(5)
    for a in (np.ones((300, 600), dtype), rng.integers(0, field.order, (300, 600), dtype)):
        rows = list(a)
        free = np.flatnonzero(~np.isin(np.arange(600), pivot_columns(rows, field)))
        tracemalloc.start()
        try:
            read, _ = _echelon(rows, field)
            read(free)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= a.size * working_cell_bytes(field), peak / a.size


@pytest.mark.parametrize("field", [BIG, prime_field(4294967311)], ids=["gf2^21", "p>2^32"])
def test_untabulated_elimination_peak_stays_within_its_price(field):
    # rref_rows eliminates in plain Python, one list and one integer object
    # per cell, so a random 12 x 40 matrix, whose updates reach every row,
    # keeps it to about a second; its rows come as a Macaulay matrix over
    # such a field hands them over, row views of an object array.  A first,
    # untraced run leaves the tuples of the field arithmetic in the
    # interpreter's free lists, which would otherwise count at this size.
    rng = np.random.default_rng(5)
    rows = list(rng.integers(0, field.order, (12, 40)).astype(object))
    _echelon(rows, field)[0](range(40))
    tracemalloc.start()
    try:
        read, _ = _echelon(rows, field)
        read(range(40))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 40 * working_cell_bytes(field), peak / (12 * 40)


def test_representation_by_field():
    assert isinstance(_representation(prime_field(3)), _PackedF3)
    # F_{2^m} tokens add by XOR; Zech logarithms serve odd characteristic only
    for m in (4, 12):
        assert isinstance(_representation(extension_field(2, m)), _XorF2m)
    assert isinstance(_representation(extension_field(3, 2)), _ZechLog)
    for p in (5, 13):
        rep = _representation(prime_field(p))
        assert isinstance(rep, _ModP) and rep.dtype == np.uint8


def f3_planes_ok(a):
    # plane 1 (entries equal to 2) lies inside plane 0 (nonzero entries)
    return not np.any(a[..., 1] & ~a[..., 0])


# Cells of the F_3 bit-plane tests: in the first and second word and at the
# last bit of a word.
F3_COLS = (1, 63, 64, 129)


@pytest.mark.parametrize("c", [0, 65])
@pytest.mark.parametrize("factor", [1, 2])
def test_f3_update_on_every_pair(c, factor):
    # target row - factor * pivot row, with the pivot 1 at column c and
    # every (x, y) pair of target and pivot entries
    rep = _PackedF3()
    ncols = 130
    for x in range(3):
        for y in range(3):
            pivot = [0] * ncols
            target = [0] * ncols
            pivot[c] = 1
            target[c] = factor
            for j in F3_COLS:
                if j > c:
                    pivot[j], target[j] = y, x
            a = rep.encode([pivot, target])
            assert f3_planes_ok(a)
            rep.update(a, np.array([1]), 0, c)
            assert f3_planes_ok(a)
            got = rep.read(a, np.arange(ncols)).tolist()
            want = [(t - factor * v) % 3 for t, v in zip(target, pivot)]
            assert got == [pivot, want], (x, y)


@pytest.mark.parametrize("c", [0, 65])
@pytest.mark.parametrize("piv", [1, 2])
def test_f3_normalise(c, piv):
    rep = _PackedF3()
    ncols = 130
    row = [0] * ncols
    row[c] = piv
    for v, j in zip((0, 1, 2, 2), F3_COLS):
        if j > c:
            row[j] = v
    a = rep.encode([row])
    rep.normalise(a, 0, c)
    assert f3_planes_ok(a)
    # dividing by the pivot is multiplying by it, as 2 * 2 = 1
    assert rep.read(a, np.arange(ncols)).tolist() == [[v * piv % 3 for v in row]]


def test_maximal_minors_match_oracle():
    rng = random.Random(41)
    field = prime_field(3)
    m = FieldMatrix.random(field, 2, 4, rng)
    minors = m.maximal_minors()
    assert sorted(minors) == [(i, j) for i in range(4) for j in range(i + 1, 4)]
    for (i, j), v in minors.items():
        sub = [[row[i], row[j]] for row in m.rows]
        assert v == det_leibniz(sub, field)
    tall = FieldMatrix.random(field, 3, 2, rng)
    with pytest.raises(ValueError):
        tall.maximal_minors()


def test_column_space_basis_canonical():
    rng = random.Random(47)
    field = prime_field(5)
    for _ in range(10):
        m = FieldMatrix.random(field, 4, 3, rng)
        # column operations preserve the span: scale and swap columns
        shuffled = FieldMatrix(
            field, [[field.mul(2, row[2]), row[0], row[1]] for row in m.rows]
        )
        b1 = column_space_basis(m)
        b2 = column_space_basis(shuffled)
        assert b1.rows == b2.rows
        assert b1.ncols == rank_rows(m.transpose().rows, field)


def test_stack_slice_transpose_roundtrip():
    rng = random.Random(59)
    field = prime_field(3)
    a = FieldMatrix.random(field, 3, 2, rng)
    b = FieldMatrix.random(field, 3, 4, rng)
    h = a.hstack(b)
    assert h.ncols == 6
    assert h.submatrix(range(3), range(2)).rows == a.rows
    assert h.submatrix(range(3), range(2, 6)).rows == b.rows
    assert a.transpose().transpose().rows == a.rows
