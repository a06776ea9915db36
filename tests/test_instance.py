"""Instance generation, shortening strategies, support verification, and the
instance file format."""

import hashlib
import io
import json
import random

import pytest

from rslminors.fields import extension_field, prime_field
from rslminors.instance import (
    RslInstance,
    RslParams,
    SecretWitness,
    check_assumption1,
    gen_instance,
    shorten,
    strategy_params,
    verify_support,
)
from rslminors.instance_io import (
    InstanceFormatError,
    load_instance,
    read_instance,
    save_instance,
    write_instance,
)
from rslminors.matrix import FieldMatrix, rank_rows
from oracles import y_vector
from test_matrix import column, scalar_product

TOY = RslParams(q=2, m=8, n=8, k=4, r=2, N=5)


def test_params_validation():
    with pytest.raises(ValueError):
        RslParams(q=1, m=8, n=8, k=4, r=2, N=5)
    with pytest.raises(ValueError):
        RslParams(q=2, m=8, n=8, k=8, r=2, N=5)
    with pytest.raises(ValueError):
        RslParams(q=2, m=8, n=8, k=0, r=2, N=5)
    with pytest.raises(ValueError):
        RslParams(q=2, m=2, n=8, k=4, r=3, N=5)  # r > m
    with pytest.raises(ValueError):
        RslParams(q=2, m=8, n=8, k=4, r=2, N=0)


def test_easy_regime_flag():
    assert not RslParams(q=2, m=8, n=8, k=4, r=2, N=7).easy_regime
    assert RslParams(q=2, m=8, n=8, k=4, r=2, N=8).easy_regime


def test_gen_instance_deterministic():
    a1, w1 = gen_instance(TOY, 5)
    a2, w2 = gen_instance(TOY, 5)
    b1, _ = gen_instance(TOY, 6)
    assert a1.H.rows == a2.H.rows and a1.S.rows == a2.S.rows
    assert w1.C.rows == w2.C.rows
    assert b1.S.rows != a1.S.rows


def instance_digest(params, seed):
    """The first 16 hex digits of the SHA-256 of an instance's H, S, C and
    R_list, written as JSON."""
    inst, wit = gen_instance(params, seed)
    blob = json.dumps([inst.H.rows, inst.S.rows, wit.C.rows, [R.rows for R in wit.R_list]])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


ATTACK_F2 = RslParams(q=2, m=12, n=10, k=5, r=2, N=9)
# The instance stream, frozen.  The benchmark's attack workloads run a
# fixed instance with several planted solutions, seed 4 of the attack_f2
# shape and seed 9 of the attack_f3 shape, and stop when it has only one.
FROZEN_STREAM = [
    (ATTACK_F2, seed, digest)
    for seed, digest in enumerate([
        "89616ff0143652cd", "9da45d965e1c98da", "1563f1c73a71299a", "5f248b7bc0828fb2",
        "d45a15deb35a8f3b", "80e21eee1ff115fd", "98005dddfbc52881", "ac27d6b9493f95c6",
        "2447fee9182b267d", "39aca0654797d5e8", "26deb545263eb995", "61155c1639f89633",
    ])
] + [
    (RslParams(q=3, m=12, n=17, k=7, r=2, N=13), 9, "c1c850629cf1e000"),
    (RslParams(q=2, m=21, n=10, k=5, r=2, N=9), 1, "0cd261e474437282"),  # untabulated
    (RslParams(q=5, m=8, n=9, k=4, r=2, N=7), 0, "2ffad58ac89ebe85"),
]


@pytest.mark.parametrize(
    "params, seed, digest",
    FROZEN_STREAM,
    ids=[f"q{p.q}m{p.m}n{p.n}-seed{seed}" for p, seed, _ in FROZEN_STREAM],
)
def test_instance_stream_is_frozen(params, seed, digest):
    assert instance_digest(params, seed) == digest


def test_gen_instance_plants_a_valid_witness():
    inst, witness = gen_instance(TOY, 1)
    p = inst.params
    ext = inst.field
    fq = prime_field(p.q)
    assert inst.is_systematic()
    assert rank_rows(witness.C.rows, fq) == p.r
    for i in range(p.N):
        # e_i = beta C R_i: the columns of C R_i over F_q are its coordinates
        CR = FieldMatrix(fq, scalar_product(witness.C.rows, witness.R_list[i].rows, fq))
        e = [ext.fold(CR.col(j)) for j in range(p.n)]
        assert scalar_product(inst.H.rows, column(e), ext) == column(inst.S.col(i))
        # every coordinate of e lies in the span of C
        for x in e:
            stacked = [list(row) for row in witness.C.rows]
            digits = ext.unfold(x)
            for t, row in enumerate(stacked):
                row.append(digits[t])
            assert rank_rows(stacked, fq) == p.r


def test_y_vector_is_canonical_preimage():
    inst, _ = gen_instance(TOY, 2)
    for i in range(inst.params.N):
        y = y_vector(inst, i)
        assert y[: inst.params.k] == [0] * inst.params.k
        assert scalar_product(inst.H.rows, column(y), inst.field) == column(inst.S.col(i))


def test_verify_support_accepts_plant_rejects_random():
    inst, witness = gen_instance(TOY, 3)
    assert verify_support(inst, witness.support_basis())
    fq = prime_field(2)
    rng = random.Random(99)
    rejected = 0
    for _ in range(5):
        cand = FieldMatrix.random(fq, TOY.m, TOY.r, rng)
        while rank_rows(cand.rows, fq) < TOY.r:
            cand = FieldMatrix.random(fq, TOY.m, TOY.r, rng)
        if not verify_support(inst, cand):
            rejected += 1
    assert rejected >= 4
    with pytest.raises(ValueError):
        verify_support(inst, FieldMatrix(fq, [[0]] * (TOY.m + 1)))


def verify_support_two_ranks(inst, v_basis):
    """Oracle: the syndromes are solvable in span(V) exactly when appending
    them to the unfolded system leaves its rank unchanged."""
    p, ext = inst.params, inst.field
    fq = prime_field(p.q)
    span = [ext.fold(v_basis.col(t)) for t in range(v_basis.ncols)]
    coeffs, aug = [], []
    for u in range(p.n - p.k):
        digits = [ext.unfold(ext.mul(inst.H[u, j], s)) for j in range(p.n) for s in span]
        syndromes = [ext.unfold(x) for x in inst.S.rows[u]]
        for jc in range(p.m):
            row = [dg[jc] for dg in digits]
            coeffs.append(row)
            aug.append(row + [sd[jc] for sd in syndromes])
    return rank_rows(aug, fq) == rank_rows(coeffs, fq)


@pytest.mark.parametrize("params", [
    TOY,
    RslParams(q=3, m=5, n=7, k=3, r=2, N=4),
    RslParams(q=2, m=21, n=7, k=3, r=2, N=4),  # too large to tabulate
])
def test_verify_support_matches_the_two_rank_test(params):
    # planted, planted plus a column, planted minus a column, random,
    # planted against an instance with syndrome i alone redrawn, and the
    # empty basis against the instance and against zero syndromes
    fq = prime_field(params.q)
    rng = random.Random(params.q)
    outcomes = []
    for seed in range(6):
        inst, witness = gen_instance(params, seed)
        C = witness.support_basis()
        i = seed % params.N
        S = [row[:i] + [inst.field.random_element(rng)] + row[i + 1:] for row in inst.S.rows]
        bent = RslInstance(params=params, field=inst.field, H=inst.H, S=FieldMatrix(inst.field, S))
        zero = FieldMatrix(inst.field, [[0] * params.N for _ in inst.S.rows])
        silent = RslInstance(params=params, field=inst.field, H=inst.H, S=zero)
        empty = FieldMatrix(fq, [[] for _ in range(params.m)], 0)
        cases = [
            (inst, C),
            (inst, C.hstack(FieldMatrix.random(fq, params.m, 1, rng))),
            (inst, C.submatrix(range(params.m), range(params.r - 1))),
            (inst, FieldMatrix.random(fq, params.m, params.r, rng)),
            (bent, C),
            (inst, empty),
            (silent, empty),
        ]
        for case in cases:
            got = verify_support(*case)
            assert got == verify_support_two_ranks(*case)
            outcomes.append(got)
        assert outcomes[-7:] == [True, True, False, False, False, False, True]


def test_strategy_params_specialized():
    p = RslParams(q=2, m=277, n=358, k=179, r=7, N=895)
    s = strategy_params(p, 0)
    assert (s.delta, s.w, s.a, s.N_prime) == (0, 7, 127, 890)
    with pytest.raises(ValueError):
        strategy_params(p, 0, a_override=100)


def test_strategy_params_delta0_a_capped_by_k():
    p = RslParams(q=2, m=8, n=8, k=3, r=2, N=40)
    s = strategy_params(p, 0)
    assert s.a == 2 and s.N_prime == 5


def test_strategy_params_leave_a_code_to_shorten():
    # shortening by a leaves a code of dimension k - a, which must stay >= 1
    for n in range(3, 11):
        for k in range(1, n):
            for r in range(1, min(n, 4) + 1):
                for N in range(1, 3 * n):
                    p = RslParams(q=2, m=8, n=n, k=k, r=r, N=N)
                    for delta in range(r):
                        try:
                            s = strategy_params(p, delta)
                        except ValueError:
                            continue
                        assert 0 <= s.a and k - s.a >= 1, (p, s)
                        # a minor system exists, and the view keeps room for r
                        assert s.w < n - k and n - s.a >= r, (p, s)


def test_strategy_params_shortened():
    p = RslParams(q=2, m=307, n=274, k=137, r=9, N=959)
    s = strategy_params(p, 1, a_override=86)
    assert (s.delta, s.w, s.N_prime) == (1, 8, 266 + 86 * 8)
    widest = strategy_params(p, 1)
    assert widest.a == min((959 - 266) // 8, 137 - 1, 274 - 8 - 1)
    with pytest.raises(ValueError):
        strategy_params(p, 1, a_override=widest.a + 1)
    with pytest.raises(ValueError):
        strategy_params(p, 9)  # delta must stay below r
    tight = RslParams(q=2, m=12, n=12, k=6, r=3, N=8)
    with pytest.raises(ValueError):
        strategy_params(tight, 2)  # N < delta*(n-r+delta)


def three_step_cut(inst, offset, a, n_keep):
    """Oracle for ``shorten``: the attack's view built in three steps, each
    its own instance.  Rotate the first k columns of H left by offset, drop
    the first a columns, keep the first n_keep syndromes."""
    p = inst.params
    nk = p.n - p.k
    o = offset % p.k
    perm = list(range(o, p.k)) + list(range(o)) + list(range(p.k, p.n))
    rotated = RslInstance(params=p, field=inst.field, H=inst.H.submatrix(range(nk), perm), S=inst.S)
    p1 = RslParams(q=p.q, m=p.m, n=p.n - a, k=p.k - a, r=p.r, N=p.N)
    short = RslInstance(
        params=p1, field=inst.field, H=rotated.H.submatrix(range(nk), range(a, p.n)), S=inst.S
    )
    p2 = RslParams(q=p.q, m=p.m, n=p1.n, k=p1.k, r=p.r, N=n_keep)
    return RslInstance(
        params=p2, field=inst.field, H=short.H, S=inst.S.submatrix(range(nk), range(n_keep))
    )


def test_shorten():
    inst, _ = gen_instance(TOY, 4)
    sh = shorten(inst, range(2, TOY.k), TOY.N)
    assert sh.params.n == TOY.n - 2 and sh.params.k == TOY.k - 2
    assert sh.S.rows == inst.S.rows
    assert sh.is_systematic()
    for u in range(TOY.n - TOY.k):
        assert sh.H.rows[u] == inst.H.rows[u][2:]
    twice = shorten(shorten(inst, range(1, TOY.k), TOY.N), range(1, TOY.k - 1), TOY.N)
    assert twice.H.rows == sh.H.rows
    whole = shorten(inst, range(TOY.k), TOY.N)
    assert whole.params == inst.params and whole.H == inst.H and whole.S == inst.S
    for keep in ([], [0, 0, 1], [0, TOY.k]):
        with pytest.raises(ValueError):
            shorten(inst, keep, TOY.N)


def test_truncate_syndromes():
    inst, _ = gen_instance(TOY, 4)
    cut = shorten(inst, range(TOY.k), 3)
    assert cut.params.N == 3
    assert cut.S.rows == [row[:3] for row in inst.S.rows]
    assert cut.H == inst.H
    with pytest.raises(ValueError):
        shorten(inst, range(TOY.k), 0)
    with pytest.raises(ValueError):
        shorten(inst, range(TOY.k), TOY.N + 1)


def test_shorten_matches_the_three_step_cut():
    rng = random.Random(8)
    for trial in range(40):
        q = rng.choice([2, 3])
        k = rng.randrange(2, 7)
        n = k + rng.randrange(3, 6)
        p = RslParams(q=q, m=6, n=n, k=k, r=2, N=rng.randrange(1, 8))
        inst, _ = gen_instance(p, trial)
        offset, a, n_keep = rng.randrange(3 * k), rng.randrange(k), rng.randrange(1, p.N + 1)
        view = shorten(inst, [(offset + j) % k for j in range(a, k)], n_keep)
        oracle = three_step_cut(inst, offset, a, n_keep)
        assert view.params == oracle.params
        assert view.H == oracle.H and view.S == oracle.S


def test_check_assumption1():
    inst, _ = gen_instance(TOY, 7)
    assert check_assumption1(inst, 2)
    # duplicate syndrome rows break the pivot block
    bad_S = FieldMatrix(inst.field, [inst.S.rows[0]] * inst.S.nrows)
    bad = RslInstance(params=inst.params, field=inst.field, H=inst.H, S=bad_S)
    assert not check_assumption1(bad, 2)
    with pytest.raises(ValueError):
        check_assumption1(inst, TOY.n - TOY.k)


def test_instance_file_roundtrip(tmp_path):
    inst, witness = gen_instance(TOY, 11)
    path = tmp_path / "toy.rsl"
    save_instance(str(path), inst, witness)
    loaded, wit = load_instance(str(path))
    assert loaded.params == inst.params
    assert loaded.H.rows == inst.H.rows
    assert loaded.S.rows == inst.S.rows
    assert loaded.field.modulus == inst.field.modulus
    assert wit is not None
    assert wit.C.rows == witness.C.rows
    assert [R.rows for R in wit.R_list] == [R.rows for R in witness.R_list]


def test_instance_file_public_only(tmp_path):
    inst, _ = gen_instance(TOY, 12)
    path = tmp_path / "pub.rsl"
    save_instance(str(path), inst, None)
    loaded, wit = load_instance(str(path))
    assert wit is None
    assert loaded.S.rows == inst.S.rows


def test_instance_file_rejects_garbage():
    with pytest.raises(InstanceFormatError):
        read_instance(io.StringIO("not an instance\n"))
    inst, witness = gen_instance(TOY, 13)
    buf = io.StringIO()
    write_instance(buf, inst, witness)
    text = buf.getvalue()
    truncated = "".join(text.splitlines(keepends=True)[:4])
    with pytest.raises(InstanceFormatError):
        read_instance(io.StringIO(truncated))
    # element tokens are range-checked here, where they enter the program
    lines = text.splitlines(keepends=True)
    h_row = lines.index("H:\n") + 1
    tokens = lines[h_row].split()
    lines[h_row] = " ".join([str(TOY.q**TOY.m)] + tokens[1:]) + "\n"
    with pytest.raises(InstanceFormatError, match="outside"):
        read_instance(io.StringIO("".join(lines)))
