"""Field arithmetic: exhaustive axioms on tiny fields, a schoolbook
polynomial oracle for the extension products, a digit-wise oracle for the
extension sums and negations, and encoding round trips."""

import hashlib
import random
import tracemalloc

import numpy as np
import pytest

from rslminors import fields
from rslminors.fields import (
    TABLE_LIMIT,
    ExtensionField,
    default_modulus,
    extension_field,
    is_irreducible,
    prime_field,
)


def poly_mulmod_oracle(a_digits, b_digits, modulus, q):
    """Schoolbook product of two coordinate tuples reduced mod the monic
    modulus, digits least significant first."""
    m = len(modulus) - 1
    prod = [0] * (2 * m)
    for i, ai in enumerate(a_digits):
        for j, bj in enumerate(b_digits):
            prod[i + j] = (prod[i + j] + ai * bj) % q
    for d in range(2 * m - 1, m - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for t in range(m):
                prod[d - m + t] = (prod[d - m + t] - c * modulus[t]) % q
    return tuple(prod[:m])


def test_prime_field_axioms_exhaustive():
    for q in (2, 3, 5):
        f = prime_field(q)
        elems = range(q)
        for a in elems:
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                assert f.sub(a, b) == f.add(a, f.neg(b))
                for c in elems:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_prime_field_rejects_composite():
    for q in (1, 4, 6, 9, 15):
        with pytest.raises(ValueError):
            prime_field(q)


@pytest.mark.parametrize("q,m,trials", [(2, 4, 300), (2, 8, 200), (3, 3, 200), (5, 2, 200)])
def test_extension_mul_matches_polynomial_oracle(q, m, trials):
    ext = extension_field(q, m)
    rng = random.Random(101 * q + m)
    for _ in range(trials):
        a = rng.randrange(ext.order)
        b = rng.randrange(ext.order)
        want = ext.fold(poly_mulmod_oracle(ext.unfold(a), ext.unfold(b), ext.modulus, q))
        assert ext.mul(a, b) == want


def test_extension_mul_matches_oracle_untabled():
    # 2^21 exceeds the lookup-table limit, exercising the polynomial path
    ext = extension_field(2, 21)
    rng = random.Random(7)
    for _ in range(50):
        a = rng.randrange(ext.order)
        b = rng.randrange(ext.order)
        want = ext.fold(poly_mulmod_oracle(ext.unfold(a), ext.unfold(b), ext.modulus, 2))
        assert ext.mul(a, b) == want
        if a:
            assert ext.mul(a, ext.inv(a)) == 1


def digitwise_add(ext, a, b):
    """Oracle: a + b coordinate by coordinate over F_q."""
    return ext.fold(tuple((x + y) % ext.q for x, y in zip(ext.unfold(a), ext.unfold(b))))


def digitwise_neg(ext, a):
    return ext.fold(tuple(-x % ext.q for x in ext.unfold(a)))


def check_add_neg_sub(ext, a, b):
    want = digitwise_add(ext, a, b)
    assert ext.add(a, b) == want
    assert ext.neg(b) == digitwise_neg(ext, b)
    assert ext.sub(a, b) == digitwise_add(ext, a, digitwise_neg(ext, b))
    return want


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (2, 4), (5, 2), (3, 3)])
def test_table_sums_match_digitwise_oracle_on_all_pairs(q, m):
    # every pair, so b = -a, where 1 + b/a is zero, is covered for every a
    ext = extension_field(q, m)
    assert ext.np_tables() is not None
    zeros = 0
    for a in range(ext.order):
        for b in range(ext.order):
            zeros += check_add_neg_sub(ext, a, b) == 0
    assert zeros == ext.order


def test_table_sums_match_digitwise_oracle_on_f3_12():
    ext = extension_field(3, 12)
    assert ext.np_tables() is not None
    rng = random.Random(312)
    for _ in range(10**4):
        a = rng.randrange(ext.order)
        check_add_neg_sub(ext, a, rng.randrange(ext.order))
        check_add_neg_sub(ext, a, digitwise_neg(ext, a))


def test_zech_table_only_over_odd_characteristic():
    # sums over F_{2^m} are XORs, so only odd q reads the Zech logarithms
    for m in (1, 4, 12):
        assert extension_field(2, m).np_tables().zech.size == 0
    ext = extension_field(3, 4)
    t = ext.np_tables()
    want = [ext.add(1, int(x)) for x in t.exp]
    assert t.zech.tolist() == [int(t.log[s]) if s else -1 for s in want]


@pytest.mark.parametrize("chunk", [1, 3, 7])
@pytest.mark.parametrize("q,m", [(2, 1), (2, 8), (3, 1), (3, 5), (5, 3), (7, 3)])
def test_table_build_matches_the_polynomial_oracle_across_chunks(monkeypatch, q, m, chunk):
    # chunks of 1, 3 and 7 tokens end inside every doubling step of the build
    monkeypatch.setattr(fields, "TABLE_CHUNK", chunk)
    ext = ExtensionField(q, m)  # uncached, so its tables are built here
    t = ext.np_tables()
    g = ext._find_generator()
    exp, log = t.exp.tolist(), t.log.tolist()
    assert exp[0] == 1 and len(exp) == ext.order - 1
    for i, x in enumerate(exp):
        assert ext._mul_poly(x, g) == exp[(i + 1) % len(exp)]
    assert log[0] == -1 and [log[x] for x in exp] == list(range(len(exp)))
    if q == 2:
        assert t.zech.size == 0
    else:
        sums = [digitwise_add(ext, 1, x) for x in exp]
        assert t.zech.tolist() == [log[s] if s else -1 for s in sums]


def test_table_build_is_exact_at_the_largest_digit_products():
    # the largest prime below TABLE_LIMIT: the build's digit products reach
    # 2**40, and over F_q itself exp[i + 1] = exp[i] * g mod q
    q = 1048573
    ext = ExtensionField(q, 1)
    exp = ext.np_tables().exp
    g = ext._find_generator()
    assert exp[0] == 1 and exp[-1] * g % q == 1
    assert np.array_equal(exp[1:], exp[:-1] * g % q)


@pytest.mark.parametrize(
    "q,m,digest",
    [
        (3, 12, "44312cc40a46fc8038e9051713dec18063657db5b78742c4ee50f033f1bdddae"),
        (2, 20, "681a2435ee064f81fbf1f3ded70ab81d607bec21d4ab3e3228fc8f50c98ba940"),
    ],
)
def test_table_digests_are_frozen(q, m, digest):
    t = extension_field(q, m).np_tables()
    assert hashlib.sha256(t.exp.tobytes() + t.log.tobytes() + t.zech.tobytes()).hexdigest() == digest


def test_table_build_peak_stays_within_twice_the_tables():
    ext = ExtensionField(3, 12)  # uncached, so the traced call builds
    tracemalloc.start()
    try:
        t = ext.np_tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (t.exp.nbytes + t.log.nbytes + t.zech.nbytes)


def test_untabulated_sums_match_digitwise_oracle():
    # 3^13 exceeds the lookup-table limit, so sums and negations loop over digits
    ext = extension_field(3, 13)
    assert ext.order > TABLE_LIMIT and ext.np_tables() is None
    rng = random.Random(313)
    for _ in range(500):
        a = rng.randrange(ext.order)
        check_add_neg_sub(ext, a, rng.randrange(ext.order))
        assert ext.add(a, digitwise_neg(ext, a)) == 0


def power(ext, a, e):
    """Oracle: a**e as e repeated multiplications."""
    acc = 1
    for _ in range(e):
        acc = ext.mul(acc, a)
    return acc


@pytest.mark.parametrize("q,m", [(2, 6), (3, 4)])
def test_extension_axioms_random(q, m):
    ext = extension_field(q, m)
    rng = random.Random(29)
    for _ in range(300):
        a = rng.randrange(ext.order)
        b = rng.randrange(ext.order)
        c = rng.randrange(ext.order)
        assert ext.add(a, b) == ext.add(b, a)
        assert ext.add(ext.add(a, b), c) == ext.add(a, ext.add(b, c))
        assert ext.mul(ext.mul(a, b), c) == ext.mul(a, ext.mul(b, c))
        assert ext.mul(a, ext.add(b, c)) == ext.add(ext.mul(a, b), ext.mul(a, c))
        assert ext.sub(a, b) == ext.add(a, ext.neg(b))
        assert ext.add(a, ext.neg(a)) == 0
        if a:
            assert ext.mul(a, ext.inv(a)) == 1
    for a in (0, 1, q, ext.order - 1):
        for e in (0, 1, 2, 5, ext.order - 1):
            assert ext._pow_poly(a, e) == power(ext, a, e)


def test_fold_unfold_roundtrip():
    for q, m in ((2, 4), (3, 3)):
        ext = extension_field(q, m)
        for x in range(ext.order):
            digits = ext.unfold(x)
            assert len(digits) == m
            assert all(0 <= d < q for d in digits)
            assert ext.fold(digits) == x
    with pytest.raises(ValueError):
        extension_field(2, 4).fold((1, 0))


@pytest.mark.parametrize("q,m", [(2, 1), (2, 8), (2, 21), (3, 1), (3, 7), (3, 21)])
@pytest.mark.parametrize("dtype", [np.int64, object])
def test_unfold_array_matches_unfold_token_by_token(q, m, dtype):
    ext = extension_field(q, m)
    rng = random.Random(q * 100 + m)
    tokens = [0, 1, ext.order - 1] + [ext.random_element(rng) for _ in range(21)]
    for shape in ((24,), (3, 8), (2, 3, 4)):
        a = np.array(tokens, dtype=dtype).reshape(shape)
        digits = ext.unfold_array(a)
        assert digits.dtype == np.uint8
        assert digits.shape == (shape[0], m) + shape[1:]
        # token a[i, *rest] has its digits at digits[i, :, *rest]
        split = np.moveaxis(digits, 1, -1).reshape(len(tokens), m)
        assert [tuple(d) for d in split.tolist()] == [ext.unfold(x) for x in tokens]


def test_frobenius_fixes_every_element():
    for q, m in ((2, 4), (3, 2)):
        ext = extension_field(q, m)
        for x in range(ext.order):
            assert power(ext, x, ext.order) == x


def test_generator_element_encoding():
    # token q encodes z, and z**l encodes as q**l below the reduction degree
    for q, m in ((2, 5), (3, 3), (5, 2)):
        ext = extension_field(q, m)
        z = q
        digits = ext.unfold(z)
        assert digits[1] == 1 and sum(digits) == 1
        for ell in range(m):
            assert power(ext, z, ell) == q**ell


def test_default_modulus_irreducible():
    for q in (2, 3, 5, 7, 11):
        for m in range(2, 11):
            mod = default_modulus(q, m)
            assert len(mod) == m + 1 and mod[-1] == 1
            assert is_irreducible(mod, q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_degree_one_field_is_the_prime_field(q):
    for c in range(q):
        assert is_irreducible((c, 1), q)
    assert default_modulus(q, 1) == (0, 1)
    f, ff = ExtensionField(q, 1), prime_field(q)  # the sums and products use the tables
    for a in range(q):
        assert f.neg(a) == ff.neg(a)
        if a:
            assert f.inv(a) == ff.inv(a)
        for b in range(q):
            assert f.add(a, b) == (a + b) % q
            assert f.sub(a, b) == (a - b) % q
            assert f.mul(a, b) == (a * b) % q


def test_extension_field_rejects_a_composite_characteristic():
    with pytest.raises(ValueError, match="field characteristic must be prime, got 4"):
        ExtensionField(4, 2)


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        ExtensionField(2, 2, modulus=(1, 0, 1))
    with pytest.raises(ValueError):
        ExtensionField(2, 3, modulus=(1, 1))  # wrong degree

