"""Text serialization of instances.

Normative format (UTF-8, one token per field element, integer encoding):

    RSL 1
    q=<int> m=<int> n=<int> k=<int> r=<int> N=<int>
    modulus=<m+1 ints ascending degree>
    H:
    <n-k lines, n tokens>
    S:
    <n-k lines, N tokens>
    [SECRET]
    C:
    <m lines, r tokens in [0,q)>
    R:
    <N blocks of r lines, n tokens in [0,q)>

The [SECRET] block is optional; public files simply end after S.  All parse
errors carry the 1-based line number.
"""

from __future__ import annotations

from typing import Optional, TextIO

from .fields import extension_field, prime_field
from .instance import RslInstance, RslParams, SecretWitness
from .matrix import FieldMatrix

MAGIC = "RSL 1"


class InstanceFormatError(ValueError):
    """Malformed instance file; message starts with 'line <n>:'."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


def write_instance(
    fh: TextIO, inst: RslInstance, witness: Optional[SecretWitness] = None
) -> None:
    p = inst.params
    fh.write(MAGIC + "\n")
    fh.write(f"q={p.q} m={p.m} n={p.n} k={p.k} r={p.r} N={p.N}\n")
    fh.write("modulus=" + " ".join(str(c) for c in inst.field.modulus) + "\n")
    fh.write("H:\n")
    for row in inst.H.rows:
        fh.write(" ".join(str(x) for x in row) + "\n")
    fh.write("S:\n")
    for row in inst.S.rows:
        fh.write(" ".join(str(x) for x in row) + "\n")
    if witness is not None:
        fh.write("[SECRET]\n")
        fh.write("C:\n")
        for row in witness.C.rows:
            fh.write(" ".join(str(x) for x in row) + "\n")
        fh.write("R:\n")
        for R in witness.R_list:
            for row in R.rows:
                fh.write(" ".join(str(x) for x in row) + "\n")


class _LineReader:
    def __init__(self, fh: TextIO):
        self.lines = fh.read().splitlines()
        self.pos = 0

    def next(self, what: str) -> tuple[int, str]:
        while self.pos < len(self.lines):
            self.pos += 1
            text = self.lines[self.pos - 1].strip()
            if text:
                return self.pos, text
        raise InstanceFormatError(len(self.lines) + 1, f"unexpected end of file, expected {what}")

    def peek(self) -> Optional[str]:
        pos = self.pos
        while pos < len(self.lines):
            text = self.lines[pos].strip()
            if text:
                return text
            pos += 1
        return None


def _parse_ints(line_no: int, text: str, count: int, what: str, upper: int) -> list[int]:
    toks = text.split()
    if len(toks) != count:
        raise InstanceFormatError(line_no, f"{what}: expected {count} tokens, got {len(toks)}")
    out = []
    for t in toks:
        try:
            v = int(t)
        except ValueError:
            raise InstanceFormatError(line_no, f"{what}: bad integer token {t!r}") from None
        if not 0 <= v < upper:
            raise InstanceFormatError(line_no, f"{what}: token {v} outside [0, {upper})")
        out.append(v)
    return out


def _parse_matrix(rd: _LineReader, nrows: int, ncols: int, what: str, upper: int, field) -> FieldMatrix:
    rows = []
    for i in range(nrows):
        line_no, text = rd.next(f"{what} row {i + 1}")
        rows.append(_parse_ints(line_no, text, ncols, f"{what} row {i + 1}", upper))
    return FieldMatrix(field, rows)


def read_instance(fh: TextIO) -> tuple[RslInstance, Optional[SecretWitness]]:
    rd = _LineReader(fh)
    line_no, text = rd.next("magic header")
    if text != MAGIC:
        raise InstanceFormatError(line_no, f"expected {MAGIC!r}, got {text!r}")

    line_no, text = rd.next("parameter line")
    fields: dict[str, int] = {}
    for tok in text.split():
        if "=" not in tok:
            raise InstanceFormatError(line_no, f"bad parameter token {tok!r}")
        key, _, val = tok.partition("=")
        try:
            fields[key] = int(val)
        except ValueError:
            raise InstanceFormatError(line_no, f"bad integer in {tok!r}") from None
    missing = [k for k in ("q", "m", "n", "k", "r", "N") if k not in fields]
    if missing:
        raise InstanceFormatError(line_no, f"missing parameters: {', '.join(missing)}")
    try:
        params = RslParams(
            q=fields["q"], m=fields["m"], n=fields["n"],
            k=fields["k"], r=fields["r"], N=fields["N"],
        )
    except ValueError as exc:
        raise InstanceFormatError(line_no, str(exc)) from None

    line_no, text = rd.next("modulus line")
    if not text.startswith("modulus="):
        raise InstanceFormatError(line_no, "expected 'modulus=...'")
    modulus = tuple(
        _parse_ints(line_no, text[len("modulus="):], params.m + 1, "modulus", params.q)
    )
    try:
        ext = extension_field(params.q, params.m, modulus)
    except ValueError as exc:
        raise InstanceFormatError(line_no, str(exc)) from None
    fq = prime_field(params.q)

    line_no, text = rd.next("'H:' header")
    if text != "H:":
        raise InstanceFormatError(line_no, f"expected 'H:', got {text!r}")
    nk = params.n - params.k
    H = _parse_matrix(rd, nk, params.n, "H", ext.order, ext)

    line_no, text = rd.next("'S:' header")
    if text != "S:":
        raise InstanceFormatError(line_no, f"expected 'S:', got {text!r}")
    S = _parse_matrix(rd, nk, params.N, "S", ext.order, ext)

    try:
        inst = RslInstance(params=params, field=ext, H=H, S=S)
    except ValueError as exc:
        raise InstanceFormatError(line_no, str(exc)) from None

    witness = None
    if rd.peek() is not None:
        line_no, text = rd.next("'[SECRET]' header")
        if text != "[SECRET]":
            raise InstanceFormatError(line_no, f"expected '[SECRET]', got {text!r}")
        line_no, text = rd.next("'C:' header")
        if text != "C:":
            raise InstanceFormatError(line_no, f"expected 'C:', got {text!r}")
        C = _parse_matrix(rd, params.m, params.r, "C", params.q, fq)
        line_no, text = rd.next("'R:' header")
        if text != "R:":
            raise InstanceFormatError(line_no, f"expected 'R:', got {text!r}")
        R_list = [
            _parse_matrix(rd, params.r, params.n, f"R block {i + 1}", params.q, fq)
            for i in range(params.N)
        ]
        if rd.peek() is not None:
            line_no, text = rd.next("end of file")
            raise InstanceFormatError(line_no, f"trailing content {text!r}")
        witness = SecretWitness(C=C, R_list=R_list)
    return inst, witness


def save_instance(path: str, inst: RslInstance, witness: Optional[SecretWitness] = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_instance(fh, inst, witness)


def load_instance(path: str) -> tuple[RslInstance, Optional[SecretWitness]]:
    with open(path, "r", encoding="utf-8") as fh:
        return read_instance(fh)
