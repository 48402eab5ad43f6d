"""SDPA sparse (".dat-s") text format reader and writer.

The on-disk problem is the maximization form

    max <F_0, Y>  s.t.  <F_k, Y> = c_k,  Y PSD,

so reading negates F_0 to obtain the minimization objective C used
throughout this package, and writing negates it back.  Only blocks of
positive size are supported; multi-block files are flattened into one
block-diagonal instance.  Without constraints the rhs line is empty, so
the reader also accepts it left out.  Values are emitted with 17
significant digits, which round-trips float64 exactly.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .core import (
    SdpaParseError,
    SdpInstance,
    SparseSymMatrix,
    UnsupportedFormatError,
    symmetrize,
)

_HEADER_JUNK = str.maketrans({c: " " for c in "{}(),;"})


def _clean_split(line: str) -> list[str]:
    return line.translate(_HEADER_JUNK).split()


def read_sdpa(text: str) -> SdpInstance:
    """Parse SDPA sparse format text into an instance (min form)."""
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1)
             if ln.strip() and not ln.lstrip().startswith(('"', "*"))]
    if len(lines) < 3:
        last = lines[-1][0] if lines else 1
        raise SdpaParseError(last, "truncated header")

    def parse_int(no, tok, what):
        try:
            return int(tok)
        except ValueError:
            raise SdpaParseError(no, f"bad {what}: {tok!r}") from None

    def parse_float(no, tok, what):
        try:
            v = float(tok)
        except ValueError:
            raise SdpaParseError(no, f"bad {what}: {tok!r}") from None
        if not math.isfinite(v):
            raise SdpaParseError(no, f"non-finite {what}: {tok!r}")
        return v

    def parse_first_int(no, ln, what):
        toks = _clean_split(ln)
        if not toks:
            raise SdpaParseError(no, f"missing {what}")
        return parse_int(no, toks[0], what)

    no, ln = lines[0]
    m = parse_first_int(no, ln, "constraint count")
    if m < 0:
        raise SdpaParseError(no, f"negative constraint count {m}")
    if m == 0 and (len(lines) == 3 or _clean_split(lines[3][1])):
        lines.insert(3, (lines[2][0], ""))  # the empty rhs line, dropped as blank
    if len(lines) < 4:
        raise SdpaParseError(lines[-1][0], "truncated header")

    no, ln = lines[1]
    nblocks = parse_first_int(no, ln, "block count")
    if nblocks < 1:
        raise SdpaParseError(no, f"bad block count {nblocks}")

    no, ln = lines[2]
    toks = _clean_split(ln)
    if len(toks) != nblocks:
        raise SdpaParseError(no, f"expected {nblocks} block sizes, got {len(toks)}")
    sizes = [parse_int(no, t, "block size") for t in toks]
    for s in sizes:
        if s < 0:
            raise UnsupportedFormatError(
                f"line {no}: diagonal block of size {s} not supported")
        if s == 0:
            raise SdpaParseError(no, "zero block size")
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    n = int(offsets[-1])

    no, ln = lines[3]
    toks = _clean_split(ln)
    if len(toks) != m:
        raise SdpaParseError(no, f"expected {m} rhs values, got {len(toks)}")
    b = np.array([parse_float(no, t, "rhs value") for t in toks])

    entries: list[dict[tuple[int, int], float]] = [dict() for _ in range(m + 1)]
    for no, ln in lines[4:]:
        toks = ln.split()
        if len(toks) != 5:
            raise SdpaParseError(no, f"expected 'k blk i j value', got {ln.strip()!r}")
        k = parse_int(no, toks[0], "matrix index")
        blk = parse_int(no, toks[1], "block index")
        i = parse_int(no, toks[2], "row index")
        j = parse_int(no, toks[3], "column index")
        v = parse_float(no, toks[4], "value")
        if not (0 <= k <= m):
            raise SdpaParseError(no, f"matrix index {k} out of range 0..{m}")
        if not (1 <= blk <= nblocks):
            raise SdpaParseError(no, f"block index {blk} out of range 1..{nblocks}")
        if not (1 <= i <= sizes[blk - 1] and 1 <= j <= sizes[blk - 1]):
            raise SdpaParseError(no, f"entry ({i},{j}) outside block of size {sizes[blk - 1]}")
        gi = int(offsets[blk - 1]) + i - 1
        gj = int(offsets[blk - 1]) + j - 1
        if gi > gj:
            gi, gj = gj, gi
        if (gi, gj) in entries[k]:
            raise SdpaParseError(no, f"duplicate entry ({i},{j}) in matrix {k}")
        entries[k][(gi, gj)] = v

    f0 = np.zeros((n, n))
    for (i, j), v in entries[0].items():
        f0[i, j] = v
        f0[j, i] = v
    C = symmetrize(-f0)

    A = []
    for k in range(1, m + 1):
        ak = SparseSymMatrix.from_coords(n, [(i, j, v) for (i, j), v in entries[k].items()])
        if len(ak.vals) == 0:
            warnings.warn(
                f"linearly dependent constraints: constraint {k} has no nonzero entries",
                stacklevel=2)
        A.append(ak)
    return SdpInstance(n=n, C=C, A=tuple(A), b=b)


def write_sdpa(inst: SdpInstance) -> str:
    """Serialize an instance as single-block SDPA sparse text."""
    out = [str(inst.m), "1", str(inst.n),
           " ".join(f"{v:.17g}" for v in inst.b)]
    f0 = -inst.C
    for i in range(inst.n):
        for j in range(i, inst.n):
            if f0[i, j] != 0.0:
                out.append(f"0 1 {i + 1} {j + 1} {f0[i, j]:.17g}")
    for k, ak in enumerate(inst.A, start=1):
        for i, j, v in ak.coords():
            out.append(f"{k} 1 {i + 1} {j + 1} {v:.17g}")
    return "\n".join(out) + "\n"
