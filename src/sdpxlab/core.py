"""Data model for linear SDP instances and the linear maps acting on them.

An instance is the triple (C, {A_k}, b) of a dense symmetric objective
matrix, m sparse symmetric constraint matrices and a right-hand side,
describing

    minimize    <C, X>
    subject to  <A_k, X> = b_k,  k = 1..m,   X symmetric PSD.

Constraint matrices are stored as one sparse entry table (upper-triangle
coordinates, ``SdpInstance.table``) and read through one cached flat COO
form, ``SdpInstance.coo``; there is no dense (m, n, n) tensor.  Tables are
built from coordinate arrays by ``coords_table``, which checks them;
``SparseSymMatrix.from_coords`` and ``from_dense`` call it for a single
matrix.  The objective is dense.  All values are float64 and immutable
after construction.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

QUANT_DECIMALS = 12


class SdpxlabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SdpxlabError, ValueError):
    """Operands have incompatible or invalid shapes."""


class SdpaParseError(SdpxlabError, ValueError):
    """Malformed SDPA input; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnsupportedFormatError(SdpxlabError, ValueError):
    """Input uses a feature outside the supported SDPA subset."""


class NonFiniteError(SdpxlabError, ValueError):
    """Instance data contains nan or inf."""


class NumericalError(SdpxlabError, RuntimeError):
    """A numerical routine failed to converge or hit invalid values."""


class DivergenceError(NumericalError):
    """Solver iterates became non-finite or residuals blew up."""


class StabilizationError(SdpxlabError, RuntimeError):
    """Refinement failed to stabilize within the round budget (bug signal)."""


class SizeGuardError(SdpxlabError, ValueError):
    """Problem size exceeds a guard limit of a cubic/quadratic routine."""


def quantize_value(x: float) -> float:
    """``x`` rounded to 12 decimal digits with -0.0 normalized to +0.0.

    Coefficients that agree at this precision are treated as equal
    everywhere: color signatures, neighbor membership, sparsity cleanup,
    and the numeric inputs of the embedding networks (so coefficient noise
    below the quantum can never split cells the refinement merges).
    """
    v = round(float(x), QUANT_DECIMALS)
    if v == 0.0:
        v = 0.0
    return v


def quantize_key(x: float) -> int:
    """Canonical 64-bit pattern of the quantized value of ``x``."""
    return struct.unpack("<q", struct.pack("<d", quantize_value(x)))[0]


ZERO_KEY = quantize_key(0.0)


def symmetrize(m) -> np.ndarray:
    """Return (M + M^T)/2 as a float64 array; idempotent on symmetric input."""
    arr = np.asarray(m, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {arr.shape}")
    return (arr + arr.T) / 2.0


@dataclass(frozen=True, eq=False)
class SparseSymMatrix:
    """Symmetric matrix stored as sorted upper-triangle coordinates.

    The implied (j, i) entry equals the stored (i, j) entry.  Entries that
    quantize to zero are dropped at construction.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_coords(cls, n: int, coords) -> "SparseSymMatrix":
        """The matrix of the (i, j, value) triples ``coords`` (``coords_table``)."""
        i, j, v = tuple(zip(*coords)) or ((), (), ())
        _, rows, cols, vals = coords_table(n, np.zeros(len(v), np.int64), i, j, v)
        return cls(n=n, rows=rows, cols=cols, vals=vals)

    @classmethod
    def from_dense(cls, m) -> "SparseSymMatrix":
        arr = symmetrize(m)
        n = arr.shape[0]
        i, j = np.triu_indices(n)
        _, rows, cols, vals = coords_table(n, np.zeros(len(i), np.int64), i, j, arr[i, j])
        return cls(n=n, rows=rows, cols=cols, vals=vals)

    def coords(self):
        return zip(self.rows.tolist(), self.cols.tolist(), self.vals.tolist())

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.vals
        out[self.cols, self.rows] = self.vals
        return out

    @property
    def nnz(self) -> int:
        """Nonzero count of the full matrix (off-diagonals counted twice)."""
        off = int(np.count_nonzero(self.rows != self.cols))
        return len(self.vals) + off

    def __eq__(self, other):
        if not isinstance(other, SparseSymMatrix):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))


def entry_table(A) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Parallel arrays (constraint id, row, column, value) of the stored
    entries of the matrices ``A``, in order: the ``SdpInstance.table`` of
    constraints ``A``."""
    k = np.repeat(np.arange(len(A)), np.array([len(a.vals) for a in A], dtype=np.int64))
    rows = np.concatenate([np.zeros(0, np.int64), *(a.rows for a in A)])
    cols = np.concatenate([np.zeros(0, np.int64), *(a.cols for a in A)])
    vals = np.concatenate([np.zeros(0), *(a.vals for a in A)])
    return k, rows, cols, vals


def lexsort_repeats(*keys) -> tuple[np.ndarray, np.ndarray]:
    """The stable order sorting the rows of the equal-length key columns
    ``keys`` (the first most significant), and the mask of the rows that
    equal an earlier row."""
    order = np.lexsort(keys[::-1])
    first, *rest = (a[order] for a in keys)
    tail = first[1:] == first[:-1]
    for a in rest:
        tail = tail & (a[1:] == a[:-1])
    again = np.zeros(len(order), dtype=bool)
    again[order[1:]] = tail
    return order, again


def coords_table(n: int, k, i, j, v) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The read-only ``SdpInstance.table`` of the entries (k, i, j, v) of
    symmetric matrices of side n, in any order: each (i, j) swapped to
    i <= j, values that quantize to zero dropped, sorted by (k, i, j).  The
    first bad entry raises: a coordinate outside 0..n-1, else an (i, j) its
    matrix already holds (``ShapeError``), else a non-finite value."""
    if n <= 0:
        raise ShapeError(f"side length must be positive, got {n}")
    k, i, j = (np.asarray(a, dtype=np.int64).reshape(-1) for a in (k, i, j))
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    order, again = lexsort_repeats(k, lo, hi)
    outside = (lo < 0) | (hi >= n)
    bad = outside | again | ~np.isfinite(v)
    if bad.any():
        e = int(np.argmax(bad))
        if outside[e]:
            raise ShapeError(f"coordinate ({i[e]},{j[e]}) out of range for n={n}")
        if again[e]:
            raise ShapeError(f"duplicate coordinate ({lo[e]},{hi[e]})")
        raise NonFiniteError(f"non-finite value {float(v[e])} at ({lo[e]},{hi[e]})")
    order = order[quantize_array(v[order]) != 0.0]
    out = (k[order], lo[order], hi[order], v[order])
    for a in out:
        a.flags.writeable = False
    return out


class IntView(NamedTuple):
    """Quantized form of an instance, read by color refinement and by the
    forward passes (``adj``, the quantized values and the entry groups of
    their segment sums).

    ``C`` (n, n), ``A`` (per ``coo`` entry) and ``b`` (m,) hold ids of
    quantized values, equal iff the values quantize equal; ``qC``, ``qA``
    and ``qb`` hold the quantized value of each id, so ``qC[C]`` is
    ``quantize_array(C)``.  ``adj`` marks the C_ij that quantize to
    nonzero.  ``by_cell`` and ``by_con`` group the ``coo`` entries of
    each cell and of each constraint by their count: ``(members,
    entries)``, row r of ``entries`` holding the positions of the entries
    of segment ``members[r]``.
    """

    C: np.ndarray
    adj: np.ndarray
    A: np.ndarray
    b: np.ndarray
    qC: np.ndarray
    qA: np.ndarray
    qb: np.ndarray
    by_cell: tuple
    by_con: tuple


def quantize_array(x) -> np.ndarray:
    """Float64 array of ``quantize_value`` of each element of ``x``;
    ``quantize_value`` runs once per distinct value."""
    arr = np.asarray(x, dtype=np.float64)
    uniq, inv = np.unique(arr.reshape(-1), return_inverse=True)
    q = np.array([quantize_value(v) for v in uniq.tolist()], dtype=np.float64)
    return q[inv.reshape(-1)].reshape(arr.shape)


def _quantized(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quantized value of each id, the ids of the quantized elements
    of ``x`` ordered like their ``quantize_key``, and whether each
    element is nonzero."""
    keys = quantize_array(x).view(np.int64)  # the bit patterns of quantize_key
    uniq, ids = np.unique(keys, return_inverse=True)
    return uniq.view(np.float64), ids.reshape(keys.shape), keys != ZERO_KEY


def _segment_groups(seg: np.ndarray, size: int, order: np.ndarray) -> tuple:
    """``(members, entries)`` per segment length; ``order`` sorts ``seg``."""
    counts = np.bincount(seg, minlength=size)
    starts = np.cumsum(counts) - counts
    groups = []
    for length in np.unique(counts).tolist():
        members = np.flatnonzero(counts == length)
        groups.append((members, order[starts[members, None] + np.arange(length)]))
    return tuple(groups)


_SIGN = np.uint64(1 << 63)


def order_keys(table: np.ndarray) -> np.ndarray:
    """One ``np.void`` key per row of a 2-D int64 or float64 ``table`` of
    width >= 1, comparing as a byte string like the row's values compare
    in lexicographic order: each value is written as a big-endian uint64
    with its sign bit flipped (and, for a negative float, every other bit
    too), -0.0 as +0.0.  So one ``argsort`` of the keys sorts the rows."""
    rows, width = table.shape
    if table.dtype.kind == "f":
        bits = np.add(table, 0.0, order="C").view(np.uint64)
        bits ^= (bits >> np.uint64(63)) * (_SIGN - np.uint64(1)) | _SIGN
    else:
        bits = np.bitwise_xor(table.view(np.uint64), _SIGN, order="C")
    if np.little_endian:
        bits.byteswap(inplace=True)
    return bits.view(np.dtype((np.void, 8 * width))).reshape(rows)


class SdpInstance:
    """One linear SDP: dense symmetric C, sparse constraint matrices, rhs b.

    The constraints are stored once, as the read-only entry table ``table``
    = (k, i, j, v) sorted by (k, i, j), with i <= j, no (k, i, j) twice and
    no value that quantizes to zero, passed in as ``coords_table`` builds it
    (the generators, ``permute_instance``, ``reorder_constraints``) or as
    ``sdpa.read_sdpa`` does.  Only hand-built instances (the ``verify``
    counterexamples and the tests) pass matrices ``A`` on side n instead.
    ``A`` reads back as read-only ``SparseSymMatrix`` views of the table,
    built on first read.  ``metadata`` carries the provenance of generated
    instances (problem family, dropped additive constant and sign so
    objectives map back to the CO-scale value).
    """

    def __init__(self, n: int, C, A=None, *, b, metadata=None, table=None):
        if n < 1:
            raise ShapeError(f"side length must be positive, got {n}")
        self.n = n
        self.C = symmetrize(C)
        if self.C.shape[0] != n:
            raise ShapeError(f"C has side {self.C.shape[0]}, expected {n}")
        self.b = np.asarray(b, dtype=np.float64).reshape(-1)
        if table is None:
            A = tuple(A)
            for k, ak in enumerate(A):
                if ak.n != n:
                    raise ShapeError(f"A[{k}] has side {ak.n}, expected {n}")
            if len(self.b) != len(A):
                raise ShapeError(f"|b|={len(self.b)} but m={len(A)}")
            table = entry_table(A)
        if not (np.all(np.isfinite(self.C)) and np.all(np.isfinite(self.b))):
            raise NonFiniteError("C and b must be finite")
        self.table = tuple(table)
        self.metadata = {} if metadata is None else metadata
        for a in (self.C, self.b, *self.table):
            a.flags.writeable = False

    @property
    def m(self) -> int:
        return len(self.b)

    @cached_property
    def A(self) -> tuple[SparseSymMatrix, ...]:
        """One read-only ``SparseSymMatrix`` view of ``table`` per constraint."""
        k, rows, cols, vals = self.table
        ends = np.searchsorted(k, np.arange(self.m + 1)).tolist()
        return tuple(SparseSymMatrix(n=self.n, rows=rows[s:e], cols=cols[s:e], vals=vals[s:e])
                     for s, e in zip(ends, ends[1:]))

    @cached_property
    def coo(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only parallel arrays (k, cell = i*n + j, val) of every entry,
        both triangles expanded, sorted by constraint id, then by cell."""
        n = self.n
        k, i, j, v = self.table
        off = i != j
        k = np.concatenate([k, k[off]])
        cell = np.concatenate([i * n + j, j[off] * n + i[off]])
        v = np.concatenate([v, v[off]])
        order = np.lexsort((cell, k))
        out = (k[order], cell[order], v[order])
        for a in out:
            a.flags.writeable = False
        return out

    @property
    def nnz(self) -> int:
        return len(self.coo[2])

    @cached_property
    def int_view(self) -> IntView:
        """The quantized values, ids and entry groups of ``IntView``,
        built once per instance."""
        k, cell, val = self.coo
        qC, C, adj = _quantized(self.C)
        qA, A, _ = _quantized(val)
        qb, b, _ = _quantized(self.b)
        out = IntView(
            C=C, adj=adj, A=A, b=b, qC=qC, qA=qA, qb=qb,
            by_cell=_segment_groups(cell, self.n * self.n, np.argsort(cell, kind="stable")),
            by_con=_segment_groups(k, self.m, np.arange(len(k))))
        for a in (C, adj, A, b, qC, qA, qb):
            a.flags.writeable = False
        return out

    @cached_property
    def lambda_max(self) -> float:
        """Largest eigenvalue of X -> A*(A(X)), which sets the PDHG step
        sizes; estimated once per instance by ``pdhg.lambda_max_op``."""
        from . import pdhg  # the solver owns the power iteration
        return pdhg.lambda_max_op(self)

    @cached_property
    def _neighbor_lists(self):
        cell_nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.n * self.n)]
        con_nbrs: list[list[tuple[int, float]]] = [[] for _ in range(self.m)]
        for k, cell, v in zip(*(a.tolist() for a in self.coo)):
            cell_nbrs[cell].append((k, v))
            con_nbrs[k].append((cell, v))
        return (tuple(map(tuple, cell_nbrs)), tuple(map(tuple, con_nbrs)))

    def __eq__(self, other):
        if not isinstance(other, SdpInstance):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and np.array_equal(self.C, other.C)
                and all(np.array_equal(a, b) for a, b in zip(self.table, other.table))
                and np.array_equal(self.b, other.b)
                and self.metadata == other.metadata)


@dataclass
class SolutionTriple:
    """Primal/dual/slack triple (X, y, S); S may be absent."""

    X: np.ndarray
    y: np.ndarray
    S: np.ndarray | None = None


def _check_side(inst: SdpInstance, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.shape != (inst.n, inst.n):
        raise ShapeError(f"X has shape {X.shape}, expected {(inst.n, inst.n)}")
    return X


def apply_A(inst: SdpInstance, X) -> np.ndarray:
    """Evaluate the constraint map: component k is <A_k, X>."""
    X = _check_side(inst, X)
    k, cell, val = inst.coo
    # bincount gives int64 on empty input (m = 0, or all entries zero)
    out = np.bincount(k, val * X.reshape(-1)[cell], minlength=inst.m)
    return out.astype(np.float64, copy=False)


def apply_A_adjoint(inst: SdpInstance, y) -> np.ndarray:
    """Evaluate the adjoint map: sum_k y_k A_k as a dense symmetric matrix."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if len(y) != inst.m:
        raise ShapeError(f"|y|={len(y)} but m={inst.m}")
    k, cell, val = inst.coo
    out = np.bincount(cell, val * y[k], minlength=inst.n * inst.n)
    return out.astype(np.float64, copy=False).reshape(inst.n, inst.n)


def objective(inst: SdpInstance, X) -> float:
    """Objective value <C, X>."""
    X = _check_side(inst, X)
    return float(np.einsum("ij,ij->", inst.C, X))


def relative_obj_gap(pred: float, opt: float) -> float:
    """Percentage gap |(pred - opt)/opt| * 100; rejects opt == 0."""
    if opt == 0:
        raise ValueError("relative gap undefined at opt == 0; use an absolute gap")
    return abs((pred - opt) / opt) * 100.0


def constraint_residual(inst: SdpInstance, X) -> float:
    """Mean absolute constraint violation (1/m) sum_k |<A_k, X> - b_k|."""
    if inst.m == 0:
        return 0.0
    return float(np.mean(np.abs(apply_A(inst, X) - inst.b)))


RANK_GUARD_M = 64


def constraint_rank(inst: SdpInstance) -> int:
    """Rank of the constraint family via the Gram matrix of vectorized A_k:
    the eigenvalues above 1e-9 times the largest (or 1, if that is less).

    Diagnostic only; linear independence is otherwise assumed.  Guarded to
    m <= 64 since the Gram matrix is dense in m.
    """
    if inst.m > RANK_GUARD_M:
        raise SizeGuardError(f"rank diagnostic limited to m <= {RANK_GUARD_M}, got {inst.m}")
    if inst.m == 0:
        return 0
    k, cell, val = inst.coo
    v = np.zeros((inst.m, inst.n * inst.n))
    v[k, cell] = val
    gram = v @ v.T
    w = np.linalg.eigvalsh(gram)
    return int(np.count_nonzero(w > 1e-9 * max(1.0, float(w[-1]))))


def permute_instance(inst: SdpInstance, perm) -> SdpInstance:
    """Apply one permutation to rows and columns of C and every A_k.

    ``perm[i]`` is the new index of old index i; b is unchanged.
    """
    perm = list(perm)
    if sorted(perm) != list(range(inst.n)):
        raise ShapeError("not a permutation of range(n)")
    C = np.zeros_like(inst.C)
    C[np.ix_(perm, perm)] = inst.C
    k, i, j, v = inst.table
    p = np.array(perm, dtype=np.int64)
    return SdpInstance(n=inst.n, C=C, b=inst.b.copy(), metadata=dict(inst.metadata),
                       table=coords_table(inst.n, k, p[i], p[j], v))


def reorder_constraints(inst: SdpInstance, perm) -> SdpInstance:
    """Jointly reorder (A_k, b_k); ``perm[k]`` is the new position of k."""
    perm = list(perm)
    if sorted(perm) != list(range(inst.m)):
        raise ShapeError("not a permutation of range(m)")
    k, i, j, v = inst.table
    return SdpInstance(n=inst.n, C=inst.C.copy(), b=inst.b[np.argsort(perm)],
                       metadata=dict(inst.metadata),
                       table=coords_table(inst.n, np.array(perm, dtype=np.int64)[k], i, j, v))


def neighbor_lists(inst: SdpInstance):
    """Adjacency between variable cells and constraints.

    Returns ``(cell_nbrs, con_nbrs)`` where ``cell_nbrs[i*n+j]`` lists
    ``(k, A_kij)`` over constraints touching cell (i, j), and
    ``con_nbrs[k]`` lists ``(flat_cell, A_kij)`` in row-major cell order.
    Membership follows the quantized nonzero pattern (enforced when the
    entry table is built).  The lists are built once per instance
    and returned as the same read-only tuples on every call.
    """
    return inst._neighbor_lists
