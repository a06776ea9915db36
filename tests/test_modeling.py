"""Bilinear system construction checked against direct determinant
evaluation and term by term against per-minor determinants (over small,
large Zech-table and untabulated fields), the compact layout on each
equation's minors against a full-width build over all C(n, w) minors, the
monomial order, Macaulay matrices against a dict-of-tuples reference build
and against digests of the attack's matrices, Macaulay shapes and ranks,
Theorem 1's leading monomials against a swap-free echelonization of the
equations, and the structural relations, which a wrong coefficient
breaks."""

import functools
import hashlib
import random
from dataclasses import replace
from itertools import combinations
from math import comb

import numpy as np
import pytest

from rslminors.estimator import count_Mb, count_Nb, make_counts
from rslminors.fields import PrimeField, extension_field, prime_field
from rslminors.instance import (
    RslInstance,
    RslParams,
    check_assumption1,
    gen_instance,
    shorten,
    strategy_params,
)
from rslminors import modeling, verification
from rslminors.matrix import (
    FieldMatrix,
    TokenArrays,
    laplace_index,
    minor_table,
    pivot_columns,
    rank_rows,
)
from rslminors.modeling import (
    MacaulayTooLarge,
    build_macaulay,
    build_system,
    grevlex_subkey,
    lambda_monomials,
    minor_support,
    monomial_vector,
    predicted_leads,
    syzygies,
    unfold_system,
)
from rslminors.verification import sample_family

from oracles import y_vector
from test_matrix import det_leibniz


def minor_direct(inst, J, w, lam_values, R):
    """Oracle: stack the combined word over R, multiply by H^T, take the
    determinant of the rows J directly."""
    p = inst.params
    ext = inst.field
    word = [ext.zero] * p.n
    for i in range(p.N):
        y = y_vector(inst, i)
        for t in range(p.n):
            if lam_values[i] and y[t]:
                word[t] = ext.add(word[t], ext.mul(lam_values[i], y[t]))
    stacked = [word] + [list(row) for row in R.rows]
    prod = []
    for row in stacked:
        out_row = []
        for u in range(p.n - p.k):
            acc = ext.zero
            for t in range(p.n):
                if row[t] and inst.H[u, t]:
                    acc = ext.add(acc, ext.mul(row[t], inst.H[u, t]))
            out_row.append(acc)
        prod.append(out_row)
    return det_leibniz([[prod[v][j - 1] for j in J] for v in range(w + 1)], ext)


def equation_terms(system, e):
    """Equation e of the system as a dict (mu, T) -> coefficient of its
    nonzero terms."""
    Ts = list(combinations(range(1, system.n_cols + 1), system.w))
    c = system.coeffs[e]
    rows, cols = np.nonzero(c)
    return {
        ((i + 1,), Ts[system.minor_cols[e, t]]): int(c[i, t])
        for i, t in zip(rows.tolist(), cols.tolist())
    }


def evaluate(system, e, lam_values, rT_values):
    """Oracle: equation e of the system at a point, summed term by term."""
    f = system.field
    acc = f.zero
    for ((i,), T), c in equation_terms(system, e).items():
        acc = f.add(acc, f.mul(f.mul(c, lam_values[i - 1]), rT_values.get(T, 0)))
    return acc


def macaulay_apply(mac, values):
    """Oracle: the Macaulay matrix times a vector of column values, summed
    over the nonzero cells of its dense rows with the field's scalar
    operations."""
    f = mac.field
    out = [f.zero] * mac.shape[0]
    rs, cs = np.nonzero(mac.rows)
    for r, c, v in zip(rs.tolist(), cs.tolist(), mac.rows[rs, cs].tolist()):
        prod = f.mul(v, values[c])
        if prod:
            out[r] = f.add(out[r], prod)
    return out


def random_point(p, w, rng):
    fq = prime_field(p.q)
    lam = [rng.randrange(p.q) for _ in range(p.N)]
    R = FieldMatrix.random(fq, w, p.n, rng)
    rT = {
        tuple(t + 1 for t in T): det_leibniz([[row[t] for t in T] for row in R.rows], fq)
        for T in combinations(range(p.n), w)
    }
    return lam, R, rT


@pytest.mark.parametrize("q", [2, 3])
def test_minor_equations_match_direct_determinants(q):
    rng = random.Random(q)
    p = RslParams(q=q, m=5, n=8, k=4, r=3, N=4)
    for trial in range(12):
        inst, _ = gen_instance(p, 400 + trial)
        w = rng.choice([1, 2])
        nk = p.n - p.k
        J = tuple(sorted(rng.sample(range(1, nk + 1), w + 1)))
        system = build_system(inst, w)
        e = system.J.index(J)
        for _ in range(3):
            lam, R, rT = random_point(p, w, rng)
            assert evaluate(system, e, lam, rT) == minor_direct(inst, J, w, lam, R)


def minor_terms_reference(inst, J, w):
    """Oracle: Q_J summed term by term over every (w+1)-subset T0 of all n
    columns, each minor |H|_{J,T0} from the Leibniz formula."""
    p, ext = inst.params, inst.field
    ys = [y_vector(inst, i) for i in range(p.N)]
    terms = {}
    for T0 in combinations(range(1, p.n + 1), w + 1):
        minor = det_leibniz([[inst.H[j - 1, t - 1] for t in T0] for j in J], ext)
        for u, t in enumerate(T0):
            coeff = ext.neg(minor) if u % 2 else minor
            for i in range(p.N):
                key = ((i + 1,), T0[:u] + T0[u + 1:])
                terms[key] = ext.add(terms.get(key, ext.zero), ext.mul(ys[i][t - 1], coeff))
    return {key: c for key, c in terms.items() if c}


@pytest.mark.parametrize("q", [2, 3])
def test_minor_equations_match_per_minor_determinants_exactly(q):
    p = RslParams(q=q, m=5, n=8, k=4, r=3, N=4)
    for w in (1, 2, 3):
        inst, _ = gen_instance(p, 50 + w)
        system = build_system(inst, w)
        assert system.J == list(combinations(range(1, 5), w + 1))
        assert system.coeffs.shape == (len(system.J), p.N, comb(p.k + w + 1, w))
        assert system.minor_cols.shape == (len(system.J), comb(p.k + w + 1, w))
        for e, J in enumerate(system.J):
            assert equation_terms(system, e) == minor_terms_reference(inst, J, w)


def test_minor_equations_exact_over_an_untabulated_field():
    # F_{2^21} is above TABLE_LIMIT, so the array arithmetic maps the
    # field's scalar operations, and unfolding splits Python integers
    p = RslParams(q=2, m=21, n=8, k=4, r=3, N=4)
    ext = extension_field(2, 21)
    assert ext.np_tables() is None
    for w in (1, 2, 3):
        inst, _ = gen_instance(p, 70 + w)
        system = build_system(inst, w)
        for e, J in enumerate(system.J):
            assert equation_terms(system, e) == minor_terms_reference(inst, J, w)
        unfolded = unfold_system(system)
        assert unfolded.coeffs.dtype == np.uint8
        for e, row in enumerate(system.coeffs.reshape(len(system.J), -1).tolist()):
            digits = unfolded.coeffs[e * p.m : (e + 1) * p.m].reshape(p.m, -1).T.tolist()
            assert digits == [list(ext.unfold(c)) for c in row]
            # each digit equation keeps the minors of its equation
            assert (unfolded.minor_cols[e * p.m : (e + 1) * p.m] == system.minor_cols[e]).all()


def test_minor_equations_exact_on_large_zech_tables():
    # sample_family shapes with w = 3 over F_{3^12}, the largest tables a
    # Theorem 2 family draws, so every sum goes through the Zech logarithms
    rng = random.Random(12)
    shapes = []
    while len(shapes) < 3:
        params, w = sample_family(rng, 3)
        if w == 3:
            shapes.append(replace(params, m=12))
    for p in shapes:
        inst, _ = gen_instance(p, rng.randrange(2**30))
        system = build_system(inst, 3)
        assert len(system.J) == comb(p.n - p.k, 4)
        for e, J in enumerate(system.J):
            assert equation_terms(system, e) == minor_terms_reference(inst, J, 3)


def full_width_coeffs(inst, w):
    """Oracle: the coefficients c[J, i, T] over every one of the C(n, w)
    minors T, as w+1 products on the whole table of w-minors of H."""
    p = inst.params
    ops = TokenArrays.of(inst.field)
    minors = minor_table(inst.H.rows, inst.field, w)
    S = np.array(inst.S.rows, dtype=ops.dtype)
    signed = (S, ops.neg(S))
    pick, drop = laplace_index(p.n - p.k, w + 1)
    return functools.reduce(ops.add, (
        ops.mul(signed[u % 2][pick[:, u], :, None], minors[drop[:, u], None, :])
        for u in range(w + 1)
    ))


def full_width_system(inst, w):
    """Oracle: the system with every equation on all C(n, w) minors."""
    c = full_width_coeffs(inst, w)
    cols = np.broadcast_to(np.arange(c.shape[2]), (len(c), c.shape[2]))
    return replace(build_system(inst, w), coeffs=c, minor_cols=cols)


def scattered(system):
    """The system's coefficients on every minor: entry [e, i, minor_cols[e,
    t]] holds coeffs[e, i, t], every other entry is 0."""
    full = np.zeros(
        (len(system.J), system.n_lambda, comb(system.n_cols, system.w)), dtype=system.coeffs.dtype
    )
    for e, cols in enumerate(system.minor_cols):
        full[e][:, cols] = system.coeffs[e]
    return full


@pytest.mark.parametrize(
    "n, k, w", [(8, 4, 1), (8, 4, 3), (6, 1, 2), (11, 1, 2), (7, 4, 2), (10, 4, 3)]
)
def test_minor_support_names_the_minors_inside_each_row_set(n, k, w):
    # T = T_A plus (k + T_I) can be nonzero in equation J iff T_I lies in J
    cols = minor_support(n, k, w)
    Ts = list(combinations(range(n), w))
    J_list = list(combinations(range(n - k), w + 1))
    assert cols.shape == (len(J_list), comb(k + w + 1, w)) and not cols.flags.writeable
    for J, row in zip(J_list, cols.tolist()):
        assert row == sorted(row)
        assert row == [t for t, T in enumerate(Ts) if all(c < k or c - k in J for c in T)]


LAYOUT_SHAPES = [
    (RslParams(q=2, m=5, n=8, k=4, r=3, N=4), (1, 2, 3)),
    (RslParams(q=3, m=5, n=8, k=4, r=3, N=4), (1, 2, 3)),
    (RslParams(q=5, m=4, n=8, k=4, r=3, N=4), (1, 2, 3)),
    (RslParams(q=2, m=21, n=8, k=4, r=3, N=4), (1, 2, 3)),  # untabulated
    (RslParams(q=3, m=6, n=7, k=1, r=2, N=5), (1, 2)),  # k = 1, as the attack shortens
    (RslParams(q=2, m=7, n=7, k=4, r=2, N=3), (2,)),  # n-k = w+1: one equation
]


@pytest.mark.parametrize(
    "params, ws", LAYOUT_SHAPES, ids=[f"q{p.q}m{p.m}n{p.n}k{p.k}" for p, _ in LAYOUT_SHAPES]
)
def test_compact_system_matches_the_full_width_oracle(params, ws):
    for w in ws:
        inst, _ = gen_instance(params, 40 + w)
        system, full = build_system(inst, w), full_width_system(inst, w)
        assert np.array_equal(scattered(system), full.coeffs)
        unfolded, full_unfolded = unfold_system(system), unfold_system(full)
        assert np.array_equal(scattered(unfolded), full_unfolded.coeffs)
        for compact, oracle in ((system, full), (unfolded, full_unfolded)):
            for b in (1, 2):
                mac, ref = build_macaulay(compact, b), build_macaulay(oracle, b)
                assert mac.row_labels == ref.row_labels and mac.col_labels == ref.col_labels
                assert mac.rows.dtype == ref.rows.dtype and np.array_equal(mac.rows, ref.rows)
        assert syzygies(inst, system) == syzygies(inst, full)


def test_build_qj_validation():
    inst, _ = gen_instance(RslParams(q=2, m=6, n=8, k=4, r=2, N=3), 0)
    with pytest.raises(ValueError):
        build_system(inst, 3)  # w beyond r
    with pytest.raises(ValueError):
        build_system(inst, 4)  # w must stay below n-k
    with pytest.raises(ValueError):
        build_system(inst, 0)


def test_monomial_order_frozen():
    # ascending within one minor: grevlex on the lambda part, lambda_1 largest
    T = (7, 9)
    monos = [
        ((3, 3), T), ((2, 3), T), ((1, 3), T), ((2, 2), T), ((1, 2), T), ((1, 1), T)
    ]
    keys = [monomial_key(mn, 3) for mn in monos]
    assert keys == sorted(keys)
    # the minor index dominates the equal-degree comparison
    lo = monomial_key(((1, 1), (1, 2)), 3)
    hi = monomial_key(((3, 3), (1, 3)), 3)
    assert lo < hi
    # total lambda-degree dominates everything
    assert monomial_key(((3,), (8, 9)), 3) < monomial_key(((3, 3), (1, 2)), 3)
    assert grevlex_subkey((1, 3), 3) == (-1, 0, -1)


def test_lambda_monomials():
    assert lambda_monomials(3, 2, squarefree=False) == [
        (1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)
    ]
    assert lambda_monomials(3, 2, squarefree=True) == [(1, 2), (1, 3), (2, 3)]
    assert lambda_monomials(4, 0, squarefree=True) == [()]


FROZEN = RslParams(q=2, m=6, n=10, k=6, r=2, N=5)


def frozen_instance():
    inst, wit = gen_instance(FROZEN, 0)
    assert check_assumption1(inst, 2)
    return inst, wit


def test_macaulay_exact_shapes_and_ranks():
    inst, _ = frozen_instance()
    system = build_system(inst, 2)
    assert len(system.J) == comb(4, 3)
    expected_rank = {1: 4, 2: 19, 3: 55}
    for b in (1, 2, 3):
        mac = build_macaulay(system, b)
        n_rows = comb(4, 3) * comb(5 + b - 2, b - 1)
        assert mac.shape == (n_rows, count_Mb(10, 2, 5, b))
        assert mac.rank() == expected_rank[b] == count_Nb(10, 6, 2, 5, b)


def test_macaulay_cumulative_unfolded_ranks():
    inst, _ = frozen_instance()
    unfolded = unfold_system(build_system(inst, 2))
    assert len(unfolded.J) == comb(4, 3) * 6
    expected = {1: 24, 2: 138}
    for b in (1, 2):
        mac = build_macaulay(unfolded, b)
        counts = make_counts(2, 10, 6, 2, 5, b)
        assert mac.shape[1] == counts.M_leq_b
        assert mac.rank() == expected[b] == min(6 * counts.N_leq_b, counts.M_leq_b - 1)


def test_macaulay_apply_matches_equation_evaluation():
    rng = random.Random(61)
    for q in (2, 3):
        p = RslParams(q=q, m=5, n=8, k=4, r=2, N=3)
        inst, _ = gen_instance(p, 21)
        system = build_system(inst, 2)
        # over F_{q^m} and over F_q; over F_2 the matrix is the squarefree one
        for sys_b in (system, unfold_system(system)):
            mac = build_macaulay(sys_b, 2)
            for _ in range(5):
                lam, _, rT = random_point(p, 2, rng)
                vec = monomial_vector(mac.col_labels, lam, rT, mac.field)
                got = macaulay_apply(mac, vec)
                f = mac.field
                per_eq = len(mac.rows) // len(sys_b.J)
                for row, (out, (mu, J)) in enumerate(zip(got, mac.row_labels)):
                    assert J == sys_b.J[row // per_eq]
                    mult = f.one
                    for i in mu:
                        mult = f.mul(mult, lam[i - 1])
                    assert out == f.mul(mult, evaluate(sys_b, row // per_eq, lam, rT))


def test_macaulay_cumulative_q3_degree_bound():
    # the cumulative matrix is F_2-only: above F_2 every degree is exact
    p = RslParams(q=3, m=5, n=8, k=4, r=2, N=3)
    inst, _ = gen_instance(p, 2)
    system = unfold_system(build_system(inst, 2))
    for b in (1, 2, 3):
        assert {len(mu) for mu, _ in build_macaulay(system, b).col_labels} == {b}
    with pytest.raises(ValueError):
        build_macaulay(system, 0)


def test_build_macaulay_refuses_a_matrix_past_physical_memory(monkeypatch):
    p = RslParams(q=3, m=5, n=8, k=4, r=2, N=3)
    inst, _ = gen_instance(p, 2)
    system = unfold_system(build_system(inst, 2))
    shape = build_macaulay(system, 2).shape
    # a cell costs its uint8 digit plus the 1.5 bytes an F_3 elimination
    # allocates at its peak
    needed = shape[0] * shape[1] * (1 + 3 / 2)
    monkeypatch.setattr(modeling, "physical_memory", lambda: needed - 1)
    with pytest.raises(MacaulayTooLarge) as exc:
        build_macaulay(system, 2)
    assert exc.value.shape == shape
    assert build_macaulay(system, 1).shape[0] > 0  # a smaller degree still fits
    monkeypatch.setattr(modeling, "physical_memory", lambda: needed)
    assert build_macaulay(system, 2).shape == shape
    monkeypatch.setattr(modeling, "physical_memory", lambda: None)  # platform silent
    assert build_macaulay(system, 2).shape == shape


@pytest.mark.parametrize("q", [2, 3])
def test_build_macaulay_follows_the_field(q):
    # squarefree lambda-degrees 1..b over F_2; exact degree b over F_3 and
    # over F_{2^m}, whose q is 2 as well
    p = RslParams(q=q, m=5, n=8, k=4, r=2, N=3)
    inst, _ = gen_instance(p, 21)
    system = build_system(inst, 2)
    unfolded = unfold_system(system)
    n_eqs = len(unfolded.J)
    for b in (1, 2, 3):
        mac = build_macaulay(unfolded, b)
        degrees = {len(mu) for mu, _ in mac.col_labels}
        squarefree = all(len(set(mu)) == len(mu) for mu, _ in mac.col_labels)
        if q == 2:
            assert degrees == set(range(1, b + 1)) and squarefree
            assert len(mac.rows) == n_eqs * sum(comb(p.N, d) for d in range(b))
        else:
            assert degrees == {b} and squarefree == (b == 1)
            assert len(mac.rows) == n_eqs * comb(p.N + b - 2, b - 1)
        assert mac.shape[1] == make_counts(q, p.n, p.k, 2, p.N, b).M_leq_b
        if q == 2:
            ext_mac = build_macaulay(system, b)
            assert {len(mu) for mu, _ in ext_mac.col_labels} == {b}
            assert ext_mac.shape == (
                len(system.J) * comb(p.N + b - 2, b - 1),
                count_Mb(p.n, 2, p.N, b),
            )


def monomial_key(mono, n_lambda):
    """Sort key; comparing keys realizes the monomial order (ascending)."""
    mu, T = mono
    return (len(mu), tuple(T), grevlex_subkey(mu, n_lambda))


def macaulay_reference(system, b):
    """Oracle: the Macaulay build with every column label sorted by
    monomial_key and every entry looked up in a dict keyed by (mu, T).
    Returns (col_labels, row_labels, rows)."""
    f = system.field
    squarefree = f == prime_field(2)
    N = system.n_lambda
    col_degs = list(range(1, b + 1)) if squarefree else [b]
    minors = list(combinations(range(1, system.n_cols + 1), system.w))
    col_labels = [
        (mu, T) for d in col_degs for mu in lambda_monomials(N, d, squarefree) for T in minors
    ]
    col_labels.sort(key=lambda mono: monomial_key(mono, N), reverse=True)
    col_idx = {mono: i for i, mono in enumerate(col_labels)}
    mult_degs = list(range(b)) if squarefree else [b - 1]
    multipliers = [mu for d in mult_degs for mu in lambda_monomials(N, d, squarefree)]
    multipliers.sort(key=lambda mu: (len(mu), grevlex_subkey(mu, N)), reverse=True)
    rows, row_labels = [], []
    for e, J in enumerate(system.J):
        terms = equation_terms(system, e)
        for mu in multipliers:
            row = {}
            for (lam, T), c in terms.items():
                prod = tuple(sorted(set(mu) | set(lam))) if squarefree else tuple(sorted(mu + lam))
                idx = col_idx[(prod, T)]
                acc = f.add(row.get(idx, f.zero), c)
                if acc:
                    row[idx] = acc
                else:
                    row.pop(idx, None)
            rows.append(row)
            row_labels.append((mu, J))
    return col_labels, row_labels, rows


def token_dtype(field):
    """The dtype a Macaulay matrix over ``field`` is built in: uint8 digits
    over F_q, int64 tokens over a tabulated F_{q^m}, Python integers over an
    untabulated one."""
    if isinstance(field, PrimeField):
        return np.dtype(np.uint8)
    return np.dtype(np.int64 if field.np_tables() is not None else object)


def assert_macaulay_matches_reference(system, b):
    mac = build_macaulay(system, b)
    col_labels, row_labels, rows = macaulay_reference(system, b)
    assert mac.col_labels == col_labels
    assert mac.row_labels == row_labels
    assert mac.rows.dtype == token_dtype(system.field)
    dense = np.zeros((len(rows), len(col_labels)), dtype=mac.rows.dtype)
    for r, row in enumerate(rows):
        dense[r, list(row)] = list(row.values())
    assert np.array_equal(mac.rows, dense)


@pytest.mark.parametrize("q", [2, 3])
def test_macaulay_matches_reference_over_f_q(q):
    # squarefree degrees 1..b over F_2, where lambda_i * mu = mu for i in mu
    # makes terms collide; exact degree b over F_3
    p = RslParams(q=q, m=5, n=8, k=4, r=3, N=4)
    for w in (1, 2):
        inst, _ = gen_instance(p, 60 + w)
        unfolded = unfold_system(build_system(inst, w))
        for b in (1, 2, 3):
            assert_macaulay_matches_reference(unfolded, b)


@pytest.mark.parametrize("q", [2, 3])
def test_macaulay_matches_reference_over_extension_fields(q):
    rng = random.Random(70 + q)
    for _ in range(4):
        params, w = sample_family(rng, q)
        inst, _ = gen_instance(params, rng.randrange(1000))
        system = build_system(inst, w)
        for b in (2, 3):
            assert_macaulay_matches_reference(system, b)


def test_macaulay_matches_reference_over_an_untabulated_field():
    # F_{2^21} is above TABLE_LIMIT: the matrix holds Python integers
    p = RslParams(q=2, m=21, n=8, k=4, r=3, N=4)
    for w in (1, 2):
        inst, _ = gen_instance(p, 80 + w)
        assert_macaulay_matches_reference(build_system(inst, w), 2)


def test_macaulay_matches_reference_over_f_5():
    # uint8 digits below 5, which eliminate as residues (_ModP)
    p = RslParams(q=5, m=3, n=8, k=4, r=3, N=4)
    for w in (1, 2):
        inst, _ = gen_instance(p, 90 + w)
        unfolded = unfold_system(build_system(inst, w))
        for b in (1, 2, 3):
            assert_macaulay_matches_reference(unfolded, b)


@pytest.mark.parametrize(
    "shape",
    [dict(q=2, m=12, n=10, k=5, r=2, N=9), dict(q=3, m=12, n=17, k=7, r=2, N=13)],
    ids=["attack_f2", "attack_f3"],
)
def test_macaulay_matches_reference_on_attack_shapes(shape):
    # the system the attack builds: shortened, truncated, unfolded
    p = RslParams(**shape)
    strategy = strategy_params(p, 0)
    inst, _ = gen_instance(p, 0)
    sh = shorten(inst, range(strategy.a, p.k), strategy.N_prime)
    unfolded = unfold_system(build_system(sh, strategy.w))
    for b in (1, 2):
        assert_macaulay_matches_reference(unfolded, b)


def macaulay_digest(params, seed, b):
    """The first 16 hex digits of the SHA-256 of the dtype, row labels,
    column labels and cells of the attack's degree-b Macaulay matrix on a
    fresh instance: shortened by the full-weight strategy at offset 0, then
    unfolded."""
    inst, _ = gen_instance(params, seed)
    strategy = strategy_params(params, 0)
    sh = shorten(inst, range(strategy.a, params.k), strategy.N_prime)
    mac = build_macaulay(unfold_system(build_system(sh, strategy.w)), b)
    labels = repr((str(mac.rows.dtype), mac.row_labels, mac.col_labels))
    return hashlib.sha256(labels.encode() + mac.rows.tobytes()).hexdigest()[:16]


ATTACK_F2 = RslParams(q=2, m=12, n=10, k=5, r=2, N=9)
ATTACK_F3 = RslParams(q=3, m=12, n=17, k=7, r=2, N=13)
# The Macaulay stream, frozen: the attack_f2 and attack_f3 shapes of the
# benchmark and the q=5, F_{2^21} and q=3 b=3 attacks of CI, at every degree
# their attacks build.
FROZEN_MACAULAY = [
    (ATTACK_F2, 0, 1, "ef5ef5d9e2f337e1"), (ATTACK_F2, 0, 2, "ea017bf0f0427a49"),
    (ATTACK_F2, 1, 1, "e05994149d2a9af3"), (ATTACK_F2, 1, 2, "7e7090090f3e637a"),
    (ATTACK_F2, 2, 1, "a3655c2360940e40"), (ATTACK_F2, 2, 2, "21df064c46bdc1fb"),
    (ATTACK_F2, 3, 1, "2e7417af8a82330c"), (ATTACK_F2, 3, 2, "d9a3f7b6d8660d0f"),
    (ATTACK_F2, 4, 1, "9264ec417b11ad06"), (ATTACK_F2, 4, 2, "ee01faf2aeee355e"),
    (ATTACK_F2, 5, 1, "67bc842a3ea07b8f"), (ATTACK_F2, 5, 2, "a8e60bc92509c6fa"),
    (ATTACK_F3, 0, 1, "79b8df6c58bb14c4"), (ATTACK_F3, 1, 1, "7b5d3ff48b4c1bcb"),
    (ATTACK_F3, 2, 1, "9807ff6b7281182f"), (ATTACK_F3, 3, 1, "7beaab46f8785e2a"),
    (ATTACK_F3, 4, 1, "45621c89b22151d5"), (ATTACK_F3, 5, 1, "403dd1bdef329320"),
    (ATTACK_F3, 9, 1, "07657cc0eb88bbdf"),
    (RslParams(q=5, m=8, n=9, k=4, r=2, N=7), 0, 1, "9f4cc673406f1c74"),
    (RslParams(q=5, m=8, n=9, k=4, r=2, N=7), 0, 2, "30438a154bb5f9d0"),
    (RslParams(q=2, m=21, n=10, k=5, r=2, N=9), 1, 1, "0af88d9b0a8e1640"),
    (RslParams(q=3, m=7, n=10, k=5, r=2, N=9), 0, 1, "2122109fcb963efb"),
    (RslParams(q=3, m=7, n=10, k=5, r=2, N=9), 0, 2, "fb1052f60cb2f323"),
    (RslParams(q=3, m=7, n=10, k=5, r=2, N=9), 0, 3, "29787e8768998b8b"),
]


@pytest.mark.parametrize(
    "params, seed, b, digest",
    FROZEN_MACAULAY,
    ids=[f"q{p.q}m{p.m}n{p.n}-seed{seed}-b{b}" for p, seed, b, _ in FROZEN_MACAULAY],
)
def test_macaulay_stream_is_frozen(params, seed, b, digest):
    assert macaulay_digest(params, seed, b) == digest


def sequential_elim(rows, field):
    """Oracle helper: reduce each row against the previous ones only, without
    row swaps.

    Returns (E, lead) with E unit lower triangular, row i of E*M zero at every
    lead[j] for j < i, and lead[i] the first nonzero column of that row.
    Needs full row rank.
    """
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    E = [[field.one if i == j else field.zero for j in range(nr)] for i in range(nr)]
    red = [list(r) for r in rows]
    lead = []
    for i in range(nr):
        row = red[i]
        for jprev in range(i):
            c = row[lead[jprev]]
            if c == 0:
                continue
            f = field.neg(field.mul(c, field.inv(red[jprev][lead[jprev]])))
            for t in range(nc):
                if red[jprev][t]:
                    row[t] = field.add(row[t], field.mul(f, red[jprev][t]))
            for t in range(jprev + 1):
                if E[jprev][t]:
                    E[i][t] = field.add(E[i][t], field.mul(f, E[jprev][t]))
        li = next((t for t, x in enumerate(row) if x), None)
        if li is None:
            raise ValueError(f"top {nr} syndrome rows have rank {i}, need {nr}")
        lead.append(li)
    return E, lead


def echelonize_tildeQ(system, inst, w):
    """Oracle: transform the minor equations so their leading monomials are
    pairwise distinct, and predict those leads.

    Every equation J = (j, I) has the top minor r_{I+k}, with the linear form
    Sum_i s_{j,i} lambda_i as its coefficient.  Reducing those forms (rows
    1..n-k-w of S) against each other with the unit lower triangular E of
    ``sequential_elim`` and combining equations with the same coefficients
    gives, for each J, the lead lambda_{lead[j]} r_{I+k}.  Returns the
    transformed equations, as dicts (mu, T) -> coefficient, and the
    predicted leads, both in the order of J.
    """
    p = inst.params
    nk = p.n - p.k
    ext = inst.field
    E, lead = sequential_elim([list(r) for r in inst.S.rows[: nk - w]], ext)
    eq_by_J = {J: equation_terms(system, e) for e, J in enumerate(system.J)}
    out_eqs, leads = [], []
    for J in combinations(range(1, nk + 1), w + 1):
        j1, I = J[0], J[1:]
        terms = {}
        for jp in range(1, j1 + 1):
            c = E[j1 - 1][jp - 1]
            if c == 0:
                continue
            for key, v in eq_by_J[(jp,) + I].items():
                acc = ext.add(terms.get(key, ext.zero), ext.mul(c, v))
                if acc:
                    terms[key] = acc
                else:
                    terms.pop(key, None)
        out_eqs.append(terms)
        leads.append(((lead[j1 - 1] + 1,), tuple(t + p.k for t in I)))
    return out_eqs, leads


def leading_monomial(terms, n_lambda):
    """The largest term of an equation in the monomial order."""
    return max(terms, key=lambda mono: monomial_key(mono, n_lambda))


def pivot_leads(system):
    """Leading monomials of the span of the equations, read off the pivot
    columns of the b=1 Macaulay matrix."""
    mac = build_macaulay(system, 1)
    return {mac.col_labels[c] for c in pivot_columns(mac.dense_rows(), mac.field)}


def test_echelonized_leads_distinct_and_recorded():
    inst, _ = frozen_instance()
    system = build_system(inst, 2)
    transformed, leads = echelonize_tildeQ(system, inst, 2)
    actual = [leading_monomial(eq, system.n_lambda) for eq in transformed]
    assert actual == leads
    assert len(set(leads)) == len(leads) == comb(4, 3)
    # every lead is a single lambda times the minor named by J minus its head
    for J, ((mu, T)) in zip(system.J, leads):
        assert len(mu) == 1
        assert T == tuple(t + FROZEN.k for t in J[1:])


@pytest.mark.parametrize("q", [2, 3])
def test_macaulay_pivots_are_the_echelonized_leads(q):
    # the leading monomials of a span do not depend on its basis, so the
    # pivots of one elimination are the leads the swap-free transform makes
    rng = random.Random(80 + q)
    checked = 0
    while checked < 40:
        params, w = sample_family(rng, q)
        inst, _ = gen_instance(params, rng.randrange(2**30))
        if not check_assumption1(inst, w):
            continue
        system = build_system(inst, w)
        transformed, leads = echelonize_tildeQ(system, inst, w)
        assert [leading_monomial(eq, params.N) for eq in transformed] == leads
        assert pivot_leads(system) == set(leads)
        assert predicted_leads(inst, w) == set(leads)
        checked += 1


def with_repeated_syndrome_row(inst):
    """The instance with every syndrome row replaced by the first one."""
    bad_S = FieldMatrix(inst.field, [inst.S.rows[0]] * inst.S.nrows)
    return RslInstance(params=inst.params, field=inst.field, H=inst.H, S=bad_S)


def test_rank_deficient_syndrome_block_fails_thm1(monkeypatch):
    inst, wit = frozen_instance()
    bad = with_repeated_syndrome_row(inst)
    assert len(predicted_leads(bad, 2)) < comb(4, 3)
    monkeypatch.setattr(verification, "sample_family", lambda rng, q: (FROZEN, 2))
    monkeypatch.setattr(verification, "_gen_passing", lambda params, w, seed: (bad, wit, 0))
    rep = verification.run_thm1(trials=1, qs=(2,))
    assert rep["ok"] is False and rep["passes"] == 0
    # the leads are the predicted ones, but too few: the rank falls short
    [fail] = rep["failures"]
    assert fail["rank"] == len(predicted_leads(bad, 2)) < fail["expected"] == comb(4, 3)


def test_unfold_system_preserves_zero_sets():
    rng = random.Random(71)
    p = RslParams(q=3, m=4, n=8, k=4, r=2, N=3)
    inst, _ = gen_instance(p, 31)
    system = build_system(inst, 2)
    unfolded = unfold_system(system)
    assert len(unfolded.J) == len(system.J) * p.m
    assert unfolded.J == [J for J in system.J for _ in range(p.m)]
    assert unfolded.coeffs.dtype == np.uint8
    ext = inst.field
    for _ in range(10):
        lam, _, rT = random_point(p, 2, rng)
        for e in range(len(system.J)):
            digits = ext.unfold(evaluate(system, e, lam, rT))
            for jd in range(p.m):
                assert evaluate(unfolded, e * p.m + jd, lam, rT) == digits[jd]


def relation_residue(system, row):
    """Oracle: the formal product Sum_J form_J * Q_J of one coefficient row
    of ``syzygies`` (the form of J at columns J * N .. J * N + N - 1), with
    multiset lambda-monomials and no reduction; empty for a true relation."""
    f, N = system.field, system.n_lambda
    acc = {}
    for e in range(len(system.J)):
        for i, ci in enumerate(row[e * N : (e + 1) * N], start=1):
            if not ci:
                continue
            for (lam, T), c in equation_terms(system, e).items():
                key = (tuple(sorted(lam + (i,))), T)
                acc[key] = f.add(acc.get(key, f.zero), f.mul(ci, c))
    return {key: v for key, v in acc.items() if v}


def test_syzygies_annihilate_and_are_independent():
    # w=1 leaves several relations: one per (w+2)-subset of the rows
    for q in (2, 3):
        inst, _ = gen_instance(replace(FROZEN, q=q), 0)
        for w, expect in ((1, comb(4, 3)), (2, comb(4, 4))):
            system = build_system(inst, w)
            residues, stack = syzygies(inst, system)
            assert residues == [0] * expect
            assert len(stack) == expect and len(stack[0]) == comb(4, w + 1) * FROZEN.N
            for K, row in zip(combinations(range(1, 5), w + 2), stack):
                assert relation_residue(system, row) == {}
                # the forms sit on the equations of K's w+1 subsets only
                touched = {system.J[t // FROZEN.N] for t, c in enumerate(row) if c}
                assert touched == set(combinations(K, w + 1))
            assert rank_rows(stack, inst.field) == expect
    # n - k = 3 < w + 2: no relation
    inst, _ = gen_instance(RslParams(q=2, m=6, n=8, k=5, r=2, N=3), 0)
    assert syzygies(inst, build_system(inst, 2)) == ([], [])


@pytest.mark.parametrize("q", [2, 3])
def test_syzygies_catch_a_wrong_coefficient(q):
    rng = random.Random(90 + q)
    params, w = sample_family(rng, q)
    inst, _ = gen_instance(params, rng.randrange(2**30))
    system = build_system(inst, w)
    assert not any(syzygies(inst, system)[0])
    coeffs = system.coeffs.copy()
    e, i, t = (int(x[0]) for x in np.nonzero(coeffs))
    coeffs[e, i, t] = inst.field.add(int(coeffs[e, i, t]), 1)
    residues, _ = syzygies(inst, replace(system, coeffs=coeffs))
    # every relation through J[e], and only those, breaks
    assert [bool(r) for r in residues] == [
        set(system.J[e]) <= set(K) for K in combinations(range(1, params.n - params.k + 1), w + 2)
    ]
