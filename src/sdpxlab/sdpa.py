"""SDPA sparse (".dat-s") text format reader and writer.

The on-disk problem is the maximization form

    max <F_0, Y>  s.t.  <F_k, Y> = c_k,  Y PSD,

so reading negates F_0 to obtain the minimization objective C used
throughout this package, and writing negates it back.  Only blocks of
positive size are supported; multi-block files are flattened into one
block-diagonal instance.  Without constraints the rhs line is empty, so
the reader also accepts it left out.  Values are emitted with 17
significant digits, which round-trips float64 exactly.

The reader parses the entry lines by column: each of the five columns
goes through one ``map(int, ...)`` or ``map(float, ...)``, the range,
finiteness and duplicate checks are array masks, and the entries are
sorted once by (matrix, row, column) into one table whose slices are the
constraint matrices.  A malformed file raises ``SdpaParseError`` for the
first bad line in file order: once a mask or a column parse fails, the
lines up to the first flagged one are checked again one at a time to name
the fault.  Block sizes whose total n would make the n x n objective
larger than the address space are a parse error of their line, raised
before anything is allocated.  An all-zero constraint warns at the
caller of ``read_sdpa``.
"""

from __future__ import annotations

import math
import warnings
from itertools import compress

import numpy as np

from .core import (
    SdpaParseError,
    SdpInstance,
    UnsupportedFormatError,
    entry_table,
    matrices_from_table,
    symmetrize,
)

_HEADER_JUNK = str.maketrans({c: " " for c in "{}(),;"})


def _clean_split(line: str) -> list[str]:
    return line.translate(_HEADER_JUNK).split()


def _parse_int(no, tok, what):
    try:
        return int(tok)
    except ValueError:
        raise SdpaParseError(no, f"bad {what}: {tok!r}") from None


def _parse_float(no, tok, what):
    try:
        v = float(tok)
    except ValueError:
        raise SdpaParseError(no, f"bad {what}: {tok!r}") from None
    if not math.isfinite(v):
        raise SdpaParseError(no, f"non-finite {what}: {tok!r}")
    return v


def _parse_first_int(no, ln, what):
    toks = _clean_split(ln)
    if not toks:
        raise SdpaParseError(no, f"missing {what}")
    return _parse_int(no, toks[0], what)


def _raise_first_bad_entry(nos, body, m: int, sizes: list[int], offsets: np.ndarray):
    """Check the entry lines ``body`` (line numbers ``nos``) one at a time,
    in file order, and raise the ``SdpaParseError`` of the first bad one;
    ``body`` must hold one."""
    seen = set()
    for no, ln in zip(nos, body):
        toks = ln.split()
        if len(toks) != 5:
            raise SdpaParseError(no, f"expected 'k blk i j value', got {ln.strip()!r}")
        k = _parse_int(no, toks[0], "matrix index")
        blk = _parse_int(no, toks[1], "block index")
        i = _parse_int(no, toks[2], "row index")
        j = _parse_int(no, toks[3], "column index")
        _parse_float(no, toks[4], "value")
        if not (0 <= k <= m):
            raise SdpaParseError(no, f"matrix index {k} out of range 0..{m}")
        if not (1 <= blk <= len(sizes)):
            raise SdpaParseError(no, f"block index {blk} out of range 1..{len(sizes)}")
        if not (1 <= i <= sizes[blk - 1] and 1 <= j <= sizes[blk - 1]):
            raise SdpaParseError(no, f"entry ({i},{j}) outside block of size {sizes[blk - 1]}")
        gi = int(offsets[blk - 1]) + i - 1
        gj = int(offsets[blk - 1]) + j - 1
        key = (k, min(gi, gj), max(gi, gj))
        if key in seen:
            raise SdpaParseError(no, f"duplicate entry ({i},{j}) in matrix {k}")
        seen.add(key)
    raise AssertionError("the entry masks flagged a line that the per-line checks accept")


def read_sdpa(text: str) -> SdpInstance:
    """Parse SDPA sparse format text into an instance (min form)."""
    raw = text.splitlines()
    # a blank line's first character is '', which is in any string
    kept = [ln.lstrip()[:1] not in '"*' for ln in raw]
    lines = list(compress(raw, kept))
    nos = list(compress(range(1, len(raw) + 1), kept))
    if len(lines) < 3:
        raise SdpaParseError(nos[-1] if nos else 1, "truncated header")

    m = _parse_first_int(nos[0], lines[0], "constraint count")
    if m < 0:
        raise SdpaParseError(nos[0], f"negative constraint count {m}")
    if m == 0 and (len(lines) == 3 or _clean_split(lines[3])):
        lines.insert(3, "")  # the empty rhs line, dropped as blank
        nos.insert(3, nos[2])
    if len(lines) < 4:
        raise SdpaParseError(nos[-1], "truncated header")

    nblocks = _parse_first_int(nos[1], lines[1], "block count")
    if nblocks < 1:
        raise SdpaParseError(nos[1], f"bad block count {nblocks}")

    toks = _clean_split(lines[2])
    if len(toks) != nblocks:
        raise SdpaParseError(nos[2], f"expected {nblocks} block sizes, got {len(toks)}")
    sizes = [_parse_int(nos[2], t, "block size") for t in toks]
    for s in sizes:
        if s < 0:
            raise UnsupportedFormatError(
                f"line {nos[2]}: diagonal block of size {s} not supported")
        if s == 0:
            raise SdpaParseError(nos[2], "zero block size")
    n = sum(sizes)
    if n * n * 8 > np.iinfo(np.intp).max:
        raise SdpaParseError(nos[2], f"total block size {n} too large for an n x n array")
    offsets = np.concatenate([[0], np.cumsum(sizes)])

    toks = _clean_split(lines[3])
    if len(toks) != m:
        raise SdpaParseError(nos[3], f"expected {m} rhs values, got {len(toks)}")
    try:
        b = np.fromiter(map(float, toks), np.float64, m)
    except ValueError:
        b = None
    if b is None or not np.all(np.isfinite(b)):
        for t in toks:  # raises at the first bad value
            _parse_float(nos[3], t, "rhs value")

    # Lines are split one at a time only to count their tokens, and the
    # columns are read from one split of the whole entry section: a list
    # per line kept alive would cost more in garbage collection than the
    # second split does.
    body, nos = lines[4:], nos[4:]
    L = len(body)
    miscounted = np.flatnonzero(np.fromiter(map(len, map(str.split, body)), np.int64, L) != 5)
    if len(miscounted):
        _raise_first_bad_entry(nos, body[:miscounted[0] + 1], m, sizes, offsets)
    toks = " ".join(body).split()
    cols = [toks[c::5] for c in range(5)]
    del toks
    try:
        k, blk, i, j = (np.fromiter(map(int, c), np.int64, L) for c in cols[:4])
        v = np.fromiter(map(float, cols[4]), np.float64, L)
    except (ValueError, OverflowError):  # a bad token, or an index beyond int64
        k = None
    del cols
    if k is None:
        _raise_first_bad_entry(nos, body, m, sizes, offsets)

    blk0 = np.clip(blk, 1, nblocks) - 1
    size = np.array(sizes)[blk0]
    bad = (~np.isfinite(v) | (k < 0) | (k > m) | (blk < 1) | (blk > nblocks)
           | (i < 1) | (i > size) | (j < 1) | (j > size))
    gi = offsets[blk0] + i - 1
    gj = offsets[blk0] + j - 1
    gi, gj = np.minimum(gi, gj), np.maximum(gi, gj)
    order = np.lexsort((gj, gi, k))  # stable: a repeated entry sorts after the first
    k, gi, gj, v = k[order], gi[order], gj[order], v[order]
    again = (k[1:] == k[:-1]) & (gi[1:] == gi[:-1]) & (gj[1:] == gj[:-1])
    bad[order[1:][again]] = True
    if bad.any():
        _raise_first_bad_entry(nos, body[:int(np.argmax(bad)) + 1], m, sizes, offsets)

    c0 = int(np.searchsorted(k, 1))
    f0 = np.zeros((n, n))
    f0[gi[:c0], gj[:c0]] = v[:c0]
    f0[gj[:c0], gi[:c0]] = v[:c0]
    C = symmetrize(-f0)

    A = matrices_from_table(n, m, k[c0:] - 1, gi[c0:], gj[c0:], v[c0:])
    for kk, ak in enumerate(A, start=1):
        if len(ak.vals) == 0:
            warnings.warn(
                f"linearly dependent constraints: constraint {kk} has no nonzero entries",
                stacklevel=2)
    return SdpInstance(n=n, C=C, A=A, b=b)


def write_sdpa(inst: SdpInstance) -> str:
    """Serialize an instance as single-block SDPA sparse text."""
    out = [str(inst.m), "1", str(inst.n),
           " ".join(f"{v:.17g}" for v in inst.b.tolist())]
    f0 = -inst.C
    rows, cols = np.triu_indices(inst.n)
    vals = f0[rows, cols]
    nz = vals != 0.0
    out += [f"0 1 {i + 1} {j + 1} {v:.17g}"
            for i, j, v in zip(rows[nz].tolist(), cols[nz].tolist(), vals[nz].tolist())]
    out += [f"{k + 1} 1 {i + 1} {j + 1} {v:.17g}"
            for k, i, j, v in zip(*(a.tolist() for a in entry_table(inst.A)))]
    return "\n".join(out) + "\n"
