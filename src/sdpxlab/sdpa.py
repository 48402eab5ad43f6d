"""SDPA sparse (".dat-s") text format reader and writer.

The on-disk problem is the maximization form

    max <F_0, Y>  s.t.  <F_k, Y> = c_k,  Y PSD,

so reading negates F_0 to obtain the minimization objective C used
throughout this package, and writing negates it back.  Only blocks of
positive size are supported; multi-block files are flattened into one
block-diagonal instance.  Without constraints the rhs line is empty, so
the reader also accepts it left out.  Values are emitted with 17
significant digits, which round-trips float64 exactly.

numpy's C text reader parses the entry lines into one record per line;
the range, finiteness and duplicate checks are array masks, and the
entries are sorted once by (matrix, row, column) into the instance's
entry table.  A token numpy rejects but Python's ``int``/``float`` read
(``1_0``, non-ASCII digits) sends the file through a parse of one line
at a time, which accepts what Python accepts.  A malformed file raises
``SdpaParseError`` for the first bad line in file order: once a mask
fails, the lines up to the first flagged one are checked again one at a
time to name the fault.  Block sizes whose n x n objective would not fit
in physical memory are a parse error of their line, raised before
anything is allocated.  An all-zero constraint warns at the caller.
"""

from __future__ import annotations

import math
import os
import warnings
from itertools import compress

import numpy as np

from .core import (
    SdpaParseError,
    SdpInstance,
    UnsupportedFormatError,
    lexsort_repeats,
    quantize_array,
    symmetrize,
)

_ENTRY = np.dtype([("k", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64),
                   ("v", np.float64)])
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


def _parse_entries(nos, body, m: int, sizes: list[int], offsets: np.ndarray):
    """Parse and check the entry lines ``body`` (line numbers ``nos``) one
    at a time, in file order, with Python's ``int`` and ``float``: raise
    the ``SdpaParseError`` of the first bad line, or return the columns
    (k, blk, i, j, value) of a body that has none, as ``_ENTRY`` records."""
    seen, rows = set(), []
    for no, ln in zip(nos, body):
        toks = ln.split()
        if len(toks) != 5:
            raise SdpaParseError(no, f"expected 'k blk i j value', got {ln.strip()!r}")
        k = _parse_int(no, toks[0], "matrix index")
        blk = _parse_int(no, toks[1], "block index")
        i = _parse_int(no, toks[2], "row index")
        j = _parse_int(no, toks[3], "column index")
        v = _parse_float(no, toks[4], "value")
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
        rows.append((k, blk, i, j, v))
    return np.array(rows, dtype=_ENTRY)


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
    if n * n * 8 > os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"):
        raise SdpaParseError(nos[2], f"total block size {n} too large for an n x n array "
                                     "in physical memory")
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

    body, nos = lines[4:], nos[4:]
    try:  # np.loadtxt warns on no lines
        entries = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1) if body else None
    except ValueError:
        entries = None
    if entries is None:
        entries = _parse_entries(nos, body, m, sizes, offsets)
    k, blk, i, j, v = (entries[c] for c in _ENTRY.names)

    blk0 = np.clip(blk, 1, nblocks) - 1
    size = np.array(sizes)[blk0]
    bad = (~np.isfinite(v) | (k < 0) | (k > m) | (blk < 1) | (blk > nblocks)
           | (i < 1) | (i > size) | (j < 1) | (j > size))
    gi = offsets[blk0] + i - 1
    gj = offsets[blk0] + j - 1
    gi, gj = np.minimum(gi, gj), np.maximum(gi, gj)
    order, again = lexsort_repeats(k, gi, gj)
    bad |= again
    k, gi, gj, v = k[order], gi[order], gj[order], v[order]
    if bad.any():
        _parse_entries(nos, body[:int(np.argmax(bad)) + 1], m, sizes, offsets)
        raise AssertionError("the entry masks flagged a line that the per-line checks accept")

    c0 = int(np.searchsorted(k, 1))
    f0 = np.zeros((n, n))
    f0[gi[:c0], gj[:c0]] = v[:c0]
    f0[gj[:c0], gi[:c0]] = v[:c0]
    C = symmetrize(-f0)

    keep = quantize_array(v[c0:]) != 0.0
    table = (k[c0:][keep] - 1, gi[c0:][keep], gj[c0:][keep], v[c0:][keep])
    for kk in np.flatnonzero(np.bincount(table[0], minlength=m) == 0).tolist():
        warnings.warn(
            f"linearly dependent constraints: constraint {kk + 1} has no nonzero entries",
            stacklevel=2)
    return SdpInstance(n=n, C=C, b=b, table=table)


def _formatted(vals: np.ndarray) -> list[str]:
    """``f"{v:.17g}"`` of each of ``vals``, once per distinct bit pattern."""
    uniq, inv = np.unique(vals.view(np.int64), return_inverse=True)
    text = [f"{v:.17g}" for v in uniq.view(np.float64).tolist()]
    return [text[t] for t in inv.tolist()]


def write_sdpa(inst: SdpInstance) -> str:
    """Serialize an instance as single-block SDPA sparse text."""
    out = [str(inst.m), "1", str(inst.n), " ".join(_formatted(inst.b))]
    f0 = -inst.C
    rows, cols = np.triu_indices(inst.n)
    vals = f0[rows, cols]
    nz = vals != 0.0
    out += [f"0 1 {i + 1} {j + 1} {v}"
            for i, j, v in zip(rows[nz].tolist(), cols[nz].tolist(), _formatted(vals[nz]))]
    out += [f"{k + 1} 1 {i + 1} {j + 1} {v}" for k, i, j, v in
            zip(*(a.tolist() for a in inst.table[:3]), _formatted(inst.table[3]))]
    return "\n".join(out) + "\n"
