"""Exact arithmetic over prime fields F_q and extension fields F_{q^m}.

Elements are plain Python integers.  A prime-field element is its value in
[0, q).  An extension-field element is an integer in [0, q**m) whose base-q
digits, least significant first, are its coordinates on the polynomial basis
(1, z, ..., z**(m-1)) where z is a root of the modulus.  This token encoding
is shared by the instance file format and by every matrix routine, so values
can be moved between the two without translation.

The default modulus of an extension field is the lexicographically smallest
monic irreducible polynomial of the requested degree: candidates are swept in
increasing order of the integer whose base-q digits are the non-leading
coefficients, and irreducibility is decided with Rabin's test.  A different
monic irreducible modulus can be supplied explicitly.

Fields with at most 2**20 elements build exponent/logarithm/Zech tables as
int64 arrays on first use; these back the vectorized elimination kernels in
:mod:`rslminors.matrix`, and list copies of the first two, made on the first
scalar call, back scalar arithmetic.  With tables every operation is O(1): a
product adds logarithms, a sum a + b = a * (1 + b/a) adds 1 to the lowest
digit of b/a, and -a multiplies by -1 = g**((Q-1)/2).  Larger fields fall
back to digit-wise sums and polynomial products, which are slower but have no
size limit.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

# Largest field order for which lookup tables are constructed.  Above this
# the memory cost outweighs the benefit for the matrix sizes handled here.
TABLE_LIMIT = 1 << 20

# Tokens the exponent-table build splits into digits at a time: its
# temporaries, and the buffers of their matrix product, stay under 1 MB while
# the tables grow to 8 bytes a token each.
TABLE_CHUNK = 1 << 10


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The field of integers modulo a prime q."""

    __slots__ = ("q", "order")

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"field characteristic must be prime, got {q}")
        self.q = q
        self.order = q

    zero = 0
    one = 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.q - 2, self.q)

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


# -- polynomial helpers on coefficient tuples (ascending degree, over F_q) --


def _poly_trim(p: Sequence[int]) -> tuple[int, ...]:
    i = len(p)
    while i > 0 and p[i - 1] == 0:
        i -= 1
    return tuple(p[:i])


def _poly_mulmod(a, b, modulus, q):
    # modulus is monic of degree m; operands have degree < m
    m = len(modulus) - 1
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % q
    for d in range(len(out) - 1, m - 1, -1):
        c = out[d]
        if c == 0:
            continue
        out[d] = 0
        for j in range(m):
            out[d - m + j] = (out[d - m + j] - c * modulus[j]) % q
    return _poly_trim(out)


def _poly_powq(a, modulus, q):
    # a**q mod modulus by square and multiply on the exponent q
    result = (1,)
    base = a
    e = q
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, q)
        base = _poly_mulmod(base, base, modulus, q)
        e >>= 1
    return result


def _poly_gcd(a, b, q):
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        inv_lead = pow(b[-1], q - 2, q)
        r = list(a)
        db, da = len(b) - 1, len(r) - 1
        while da >= db and any(r):
            lead = r[da]
            if lead:
                f = (lead * inv_lead) % q
                for j in range(db + 1):
                    r[da - db + j] = (r[da - db + j] - f * b[j]) % q
            da -= 1
        a, b = b, _poly_trim(r)
    return a


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, in increasing order, by trial
    division."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def is_irreducible(modulus: Sequence[int], q: int) -> bool:
    """Rabin's irreducibility test for a monic polynomial over GF(q)."""
    modulus = tuple(c % q for c in modulus)
    m = len(modulus) - 1
    if m < 1 or modulus[-1] != 1:
        return False
    if m == 1:
        return True  # every monic linear polynomial is irreducible
    # x**(q**m) == x mod f, and gcd(x**(q**(m/p)) - x, f) == 1 for primes p|m
    x = (0, 1)
    powers = {m // p for p in _prime_factors(m)}
    h = x
    for i in range(1, m + 1):
        h = _poly_powq(h, modulus, q)
        if i in powers:
            diff = list(h) + [0] * (2 - len(h))
            diff[1] = (diff[1] - 1) % q
            if len(_poly_gcd(diff, modulus, q)) != 1:
                return False
    # after the loop h == x**(q**m)
    diff = list(h) + [0] * (2 - len(h))
    diff[1] = (diff[1] - 1) % q
    return not _poly_trim(diff)


def default_modulus(q: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(q).

    Candidates z**m + c_{m-1} z**(m-1) + ... + c_0 are ordered by the integer
    sum(c_i * q**i), i.e. by their non-leading coefficient vector read as a
    base-q number, and the first irreducible one wins.  The sweep is
    deterministic, so two parties always agree on the field.
    """
    for c in range(q**m):
        coeffs = []
        v = c
        for _ in range(m):
            coeffs.append(v % q)
            v //= q
        candidate = tuple(coeffs) + (1,)
        if is_irreducible(candidate, q):
            return candidate
    raise RuntimeError(f"no irreducible polynomial of degree {m} over GF({q})")


class _Tables(NamedTuple):
    """Exponent, logarithm and Zech logarithm tables of a small field, int64
    arrays; the Zech table is empty over q = 2."""

    exp: np.ndarray
    log: np.ndarray
    zech: np.ndarray


class ExtensionField:
    """The field F_{q^m} = GF(q)[z] / (modulus).

    Up to TABLE_LIMIT elements the field keeps exponent, logarithm and Zech
    tables as int64 arrays (``np_tables``), and add, neg, sub, mul and inv
    are a few lookups in list copies of the exponent and logarithm tables,
    made on the first such call (over q = 2, add and sub are XOR and neg is
    the identity); above it, add and neg loop over the base-q digits and mul
    multiplies polynomials.
    """

    def __init__(self, q: int, m: int, modulus: Sequence[int] | None = None):
        if m < 1:
            raise ValueError(f"extension degree must be >= 1, got {m}")
        if not is_prime(q):
            raise ValueError(f"field characteristic must be prime, got {q}")
        self.q = q
        self.m = m
        self.order = q**m
        if modulus is None:
            modulus = default_modulus(q, m)
        else:
            modulus = tuple(c % q for c in modulus)
            if len(modulus) != m + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree m")
            if not is_irreducible(modulus, q):
                raise ValueError(f"modulus {modulus} is reducible over GF({q})")
        self.modulus = tuple(modulus)
        self._qpow = tuple(q**i for i in range(m + 1))
        self._tables: _Tables | None = None
        # list copies of exp and log: a list lookup is a few times faster
        # than an array lookup, but most callers never make a scalar call
        self._lists: tuple[list[int], list[int]] | None = None

    zero = 0
    one = 1

    # -- encoding ----------------------------------------------------------

    def unfold(self, x: int) -> tuple[int, ...]:
        """Base-q digits of x, least significant first: the coordinates of
        the element on the basis (1, z, ..., z**(m-1))."""
        q = self.q
        out = []
        for _ in range(self.m):
            out.append(x % q)
            x //= q
        return tuple(out)

    def unfold_array(self, a: np.ndarray) -> np.ndarray:
        """The array twin of ``unfold``: the base-q digits of every token of
        ``a`` (int64 from a tabulated field, Python integers in an object
        array from an untabulated one) on a new axis after the first, least
        significant first, in the narrowest unsigned dtype that holds q-1."""
        powers = np.array(self._qpow[: self.m], dtype=a.dtype)
        split = a[:, None] // powers.reshape(self.m, *(1,) * (a.ndim - 1)) % self.q
        return split.astype(np.min_scalar_type(self.q - 1))

    def fold(self, coords: Sequence[int]) -> int:
        if len(coords) != self.m:
            raise ValueError(f"expected {self.m} coordinates, got {len(coords)}")
        q = self.q
        x = 0
        for c in reversed(coords):
            x = x * q + (c % q)
        return x

    # -- arithmetic --------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        q = self.q
        lists = self._lists or self._scalar_tables()
        if lists is not None:
            if a == 0 or b == 0:
                return a or b
            # a + b = a * (1 + b/a), and 1 + x adds 1 mod q to the lowest digit of x
            exp, log = lists
            la = log[a]
            x = exp[(log[b] - la) % (self.order - 1)]
            x += 1 - q if x % q == q - 1 else 1
            return exp[(la + log[x]) % (self.order - 1)] if x else 0
        out = 0
        shift = 1
        while a or b:
            out += ((a + b) % q) * shift
            a //= q
            b //= q
            shift *= q
        return out

    def neg(self, a: int) -> int:
        if self.q == 2 or a == 0:
            return a
        lists = self._lists or self._scalar_tables()
        if lists is not None:
            exp, log = lists
            # -1 = g**((Q-1)/2) for odd Q
            return exp[(log[a] + (self.order - 1) // 2) % (self.order - 1)]
        q = self.q
        out = 0
        shift = 1
        while a:
            out += ((q - a % q) % q) * shift
            a //= q
            shift *= q
        return out

    def sub(self, a: int, b: int) -> int:
        if self.q == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        lists = self._lists or self._scalar_tables()
        if lists is not None:
            exp, log = lists
            return exp[(log[a] + log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def _mul_poly(self, a: int, b: int) -> int:
        pa = _poly_trim(self.unfold(a))
        pb = _poly_trim(self.unfold(b))
        if not pa or not pb:
            return 0
        prod = _poly_mulmod(pa, pb, self.modulus, self.q)
        return self.fold(tuple(prod) + (0,) * (self.m - len(prod)))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        lists = self._lists or self._scalar_tables()
        if lists is not None:
            exp, log = lists
            return exp[(self.order - 1 - log[a]) % (self.order - 1)]
        return self._pow_poly(a, self.order - 2)

    def random_element(self, rng) -> int:
        return rng.randrange(self.order)

    # -- lookup tables -----------------------------------------------------

    def _mult_matrix(self, c: int) -> np.ndarray:
        """m x m matrix over GF(q) of multiplication by c on digit vectors."""
        m, q = self.m, self.q
        cols = np.zeros((m, m), dtype=np.int64)
        v = list(self.unfold(c))
        for j in range(m):
            cols[:, j] = v
            # multiply v by z and reduce
            top = v[-1]
            v = [0] + v[:-1]
            if top:
                for i in range(m):
                    v[i] = (v[i] - top * self.modulus[i]) % q
        return cols

    def _pow_poly(self, a: int, e: int) -> int:
        # table-free power, safe to call while the tables are being built
        result = 1
        base = a
        while e:
            if e & 1:
                result = self._mul_poly(result, base)
            base = self._mul_poly(base, base)
            e >>= 1
        return result

    def _find_generator(self) -> int:
        n = self.order - 1
        factors = _prime_factors(n)
        for g in range(1, self.order):  # 1 generates F_2
            if all(self._pow_poly(g, n // p) != 1 for p in factors):
                return g
        raise RuntimeError("no generator found")  # unreachable for a field

    def _ensure_tables(self) -> _Tables:
        if self._tables is not None:
            return self._tables
        if self.order > TABLE_LIMIT:
            raise ValueError(f"field of order {self.order} exceeds table limit")
        q, Q = self.q, self.order
        g = self._find_generator()
        # exponent table by repeated doubling on the tokens themselves:
        # exp[size + i] = exp[i] * g**size, a chunk of digit vectors at a time.
        # The digit products run in float64, where numpy's matrix product is
        # fast, and are exact: each is a sum of m products below q**2, so
        # below 2**41.
        exp = np.empty(Q - 1, dtype=np.int64)
        exp[0] = 1
        qvec = np.array(self._qpow[: self.m], dtype=np.int64)
        size = 1
        while size < Q - 1:
            step = min(size, Q - 1 - size)
            Mt = self._mult_matrix(self._mul_poly(int(exp[size - 1]), g)).T.astype(np.float64)
            for lo in range(0, step, TABLE_CHUNK):
                hi = min(lo + TABLE_CHUNK, step)
                prod = self.unfold_array(exp[lo:hi]) @ Mt
                exp[size + lo : size + hi] = (prod.astype(np.int64) % q) @ qvec
            size += step
        log = np.full(Q, -1, dtype=np.int64)
        log[exp] = np.arange(Q - 1, dtype=np.int64)
        if np.count_nonzero(log >= 0) != Q - 1:
            raise RuntimeError("generator order check failed")
        # Zech table: zech[d] = log(1 + g**d), -1 when 1 + g**d == 0; 1 + x wraps x's low digit
        if q == 2:
            zech = np.zeros(0, dtype=np.int64)  # sums are XORs
        else:
            one_up = exp + 1
            one_up[one_up % q == 0] -= q
            zech = log[one_up]
        self._tables = _Tables(exp, log, zech)
        return self._tables

    def np_tables(self) -> _Tables | None:
        """The int64 exponent, logarithm and Zech tables that the vectorized
        elimination kernels of :mod:`rslminors.matrix` read, built on first
        use, or None when the field is too large to tabulate.  Building them
        peaks at about one and a half times their final size."""
        if self.order > TABLE_LIMIT:
            return None
        return self._ensure_tables()

    def _scalar_tables(self) -> tuple[list[int], list[int]] | None:
        """List copies of the exponent and logarithm tables for the scalar
        methods, made on their first call, or None above TABLE_LIMIT."""
        t = self.np_tables()
        if t is None:
            return None
        self._lists = (t.exp.tolist(), t.log.tolist())
        return self._lists

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExtensionField)
            and other.q == self.q
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtensionField", self.q, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"ExtensionField(q={self.q}, m={self.m}, modulus={list(self.modulus)})"


@functools.lru_cache(maxsize=None)
def prime_field(q: int) -> PrimeField:
    return PrimeField(q)


@functools.lru_cache(maxsize=None)
def extension_field(q: int, m: int, modulus: tuple[int, ...] | None = None) -> ExtensionField:
    """Shared, cached field objects so lookup tables are built once."""
    return ExtensionField(q, m, modulus)
