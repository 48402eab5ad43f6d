"""Forward passes of the six embedding architectures, inference only.

Weights come from a seeded xorshift stream, uniform in [-0.5, 0.5]; no
training happens anywhere.  ``build_params(arch, d, n_layers, seed)``
draws them once per distinct argument tuple and keeps the most recent
sets: the returned ``ArchParams`` is shared, so its arrays are read-only
and its per-layer dicts are ``MappingProxyType`` views.
``init_embeddings(inst, params)`` and ``layer(state, inst, params)`` read
the architecture, the width and the weights from ``params``, and
``forward`` chains them.  Each message MLP runs once per layer on all its
rows: one per ``coo`` entry or per cell; per triple (i, j, u) of the
``vc2fmpnn`` and ``vcet`` pair layers, which run in blocks of consecutive
i of about ``_BLOCK_ROWS`` rows; and, for ``delta``, whose row u of
(i, j) carries an adjacency flag that is 0 or 1, on the 2n² candidate
rows (h, 0) and (h, 1) of each cell h.  Every multiset reduction is
canonical per column: ``_column_sums`` sorts each column of each segment
on its own and adds it in a fixed order, over the ``coo`` entries of
each cell and constraint (``_segment_sum``), over the triples of a pair
layer (``_pair_sum``), and over the rows and columns of the cells.  So
equal multisets of rows give bit-equal sums whatever order the rows come
in.  ``delta`` instead adds each segment's rows in the order of the
dense rank of its candidates' ``core.order_keys``, whole rows in
lexicographic order: one rank per row to sort, not d values.  Cells
whose refinement colors agree therefore get bit-identical embeddings,
and permuting the instance permutes the embeddings and the ``decode``
readout exactly.  A sum in another order of the same rows, such as the
row-by-row order these reductions used before, can differ in the last
bits: by at most 2 γ_k Σ|x| per column of k rows, γ_k = k u / (1 - k u)
with u = 2^-53, the bound that the tests check against that row order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType

import numpy as np

from .colors import Algo
from .core import (
    SdpInstance,
    ShapeError,
    order_keys,
    quantize_array,
    symmetrize,
)

_BLOCK_ROWS = 1 << 12  # rows per block of a pair layer
_PARAMS_CACHE_SIZE = 64  # weight sets that build_params keeps


class Arch(str, Enum):
    VCMPNN = "vcmpnn"
    VC2MPNN = "vc2mpnn"
    DELTA_VC2MPNN = "delta"
    VC2IGN = "ign"
    VC2FMPNN = "vc2fmpnn"
    VCET = "vcet"


# refinement algorithm whose colors each architecture cannot out-refine
ARCH_TO_ALGO = {
    Arch.VCMPNN: Algo.VCWL,
    Arch.VC2MPNN: Algo.VC2WL,
    Arch.DELTA_VC2MPNN: Algo.DELTA_VC2WL,
    Arch.VC2IGN: Algo.VC2IGNWL,
    Arch.VC2FMPNN: Algo.VC2FWL,
    Arch.VCET: Algo.VC2FWL,
}

_SYMMETRIZED_ARCHS = frozenset({Arch.VC2MPNN, Arch.DELTA_VC2MPNN})

_MASK = (1 << 64) - 1


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class WeightStream:
    """xorshift64* stream of float64 uniforms in [-0.5, 0.5]."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        s = (int(seed) ^ 0x9E3779B97F4A7C15) & _MASK
        self.state = s if s else 0x106689D45497FDB5
        for _ in range(8):
            self._next()

    def _next(self) -> int:
        x = self.state
        x ^= x >> 12
        x ^= (x << 25) & _MASK
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def uniform(self, *shape) -> np.ndarray:
        size = int(np.prod(shape)) if shape else 1
        vals = [(self._next() >> 11) * 2.0 ** -53 - 0.5 for _ in range(size)]
        return _frozen(np.array(vals).reshape(shape))


@dataclass(frozen=True)
class Mlp:
    """Chain of affine layers with ReLU between (and optionally after) them."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    final_relu: bool = False

    @classmethod
    def draw(cls, stream: WeightStream, sizes, final_relu=False) -> "Mlp":
        ws, bs = [], []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            ws.append(stream.uniform(fan_in, fan_out))
            bs.append(stream.uniform(fan_out))
        return cls(weights=tuple(ws), biases=tuple(bs), final_relu=final_relu)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        last = len(self.weights) - 1
        for idx, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w + b
            if idx < last or self.final_relu:
                x = np.maximum(x, 0.0)
        return x


@dataclass(frozen=True)
class AttentionParams:
    """Projection matrices of the triangular attention head.

    The key and second value projections are tied to the query and first
    value projections; untied matrices would break the h_ij == h_ji
    symmetry of the attention output on symmetric inputs.
    """

    w_q: np.ndarray
    w_k: np.ndarray
    w_v1: np.ndarray
    w_v2: np.ndarray

    @classmethod
    def draw(cls, stream: WeightStream, d: int) -> "AttentionParams":
        wq = stream.uniform(d, d)
        wv = stream.uniform(d, d)
        return cls(w_q=wq, w_k=_frozen(wq.copy()), w_v1=wv, w_v2=_frozen(wv.copy()))


@dataclass(frozen=True)
class IgnParams:
    """Nine weight matrices, one per symmetric equivariant basis op."""

    ws: tuple[np.ndarray, ...]

    @classmethod
    def draw(cls, stream: WeightStream, d: int) -> "IgnParams":
        return cls(ws=tuple(stream.uniform(d, d) for _ in range(9)))


@dataclass(frozen=True)
class ArchParams:
    arch: Arch
    d: int
    init_v: Mlp
    init_c: Mlp
    layers: tuple[MappingProxyType, ...]
    decode_head: Mlp


@dataclass(frozen=True)
class EmbeddingState:
    var: np.ndarray  # (n, n, d)
    con: np.ndarray  # (m, d)
    layer: int


def build_params(arch: Arch, d: int, n_layers: int, seed: int) -> ArchParams:
    """All weights for ``n_layers`` forward layers, drawn in a fixed order;
    equal arguments return the same read-only ``ArchParams``."""
    return _build_params(Arch(arch), int(d), int(n_layers), int(seed))


@functools.lru_cache(maxsize=_PARAMS_CACHE_SIZE)
def _build_params(arch: Arch, d: int, n_layers: int, seed: int) -> ArchParams:
    stream = WeightStream(seed)
    init_v = Mlp.draw(stream, (2, d, d))
    init_c = Mlp.draw(stream, (1, d, d))
    layers = []
    for _ in range(n_layers):
        lp: dict = {
            "msg_cv": Mlp.draw(stream, (1 + d, d), final_relu=True),
            "msg_vc": Mlp.draw(stream, (1 + d, d), final_relu=True),
            "upd_c": Mlp.draw(stream, (2 * d, d), final_relu=True),
        }
        if arch is Arch.VCMPNN:
            lp["upd_v"] = Mlp.draw(stream, (2 * d, d), final_relu=True)
        elif arch is Arch.VC2MPNN:
            lp["msg_row"] = Mlp.draw(stream, (d, d), final_relu=True)
            lp["msg_col"] = Mlp.draw(stream, (d, d), final_relu=True)
            lp["upd_v"] = Mlp.draw(stream, (4 * d, d), final_relu=True)
        elif arch is Arch.DELTA_VC2MPNN:
            lp["msg_row"] = Mlp.draw(stream, (d + 1, d), final_relu=True)
            lp["msg_col"] = Mlp.draw(stream, (d + 1, d), final_relu=True)
            lp["upd_v"] = Mlp.draw(stream, (4 * d, d), final_relu=True)
        elif arch is Arch.VC2IGN:
            lp["ign"] = IgnParams.draw(stream, d)
            lp["upd_v"] = Mlp.draw(stream, (3 * d, d), final_relu=True)
        elif arch is Arch.VC2FMPNN:
            lp["map"] = Mlp.draw(stream, (d, d), final_relu=True)
            lp["msg_vv"] = Mlp.draw(stream, (d, d), final_relu=True)
            lp["upd_v"] = Mlp.draw(stream, (3 * d, d), final_relu=True)
        elif arch is Arch.VCET:
            lp["attn"] = AttentionParams.draw(stream, d)
            lp["ln_gamma"] = _frozen(1.0 + stream.uniform(d))
            lp["ln_beta"] = stream.uniform(d)
            lp["ffn"] = Mlp.draw(stream, (d, d))
            lp["upd_v"] = Mlp.draw(stream, (3 * d, d), final_relu=True)
        layers.append(MappingProxyType(lp))
    decode_head = Mlp.draw(stream, (d, d, d, 1))
    return ArchParams(arch=arch, d=d, init_v=init_v, init_c=init_c,
                      layers=tuple(layers), decode_head=decode_head)


def _column_sums(stack: np.ndarray) -> np.ndarray:
    """(b, d) sums over u of a (b, k, d) stack indexed [segment, u, column]:
    each column of each segment is sorted on its own, then added in an
    order that depends on k alone, so equal multisets of rows give
    bit-equal sums.  A column sums to -0.0 only when every entry is -0.0,
    so where the sort puts zeros of either sign does not change the sum.
    The columns are copied out as contiguous rows, which each sort and
    sum then runs along."""
    cols = np.ascontiguousarray(stack.transpose(0, 2, 1))
    cols.sort(axis=2)
    return cols.sum(axis=2)


def _segment_sum(rows: np.ndarray, groups) -> np.ndarray:
    """Sums of the rows of each segment of ``groups`` (``IntView.by_cell``
    or ``by_con``) by ``_column_sums``, one stack per segment length;
    empty segments sum to 0."""
    out = np.empty((sum(len(members) for members, _ in groups), rows.shape[1]))
    for members, entries in groups:
        out[members] = _column_sums(rows[entries])
    return out


def _pair_sum(n: int, d: int, block_rows) -> np.ndarray:
    """(n, n, d) sums over u of the rows that ``block_rows(ib)`` returns as
    a (len(ib), n, n, d) array indexed [i, j, u], one block of i at a time,
    each (i, j) summed by ``_column_sums``."""
    out = np.empty((n * n, d))
    step = max(1, _BLOCK_ROWS // (n * n))
    for lo in range(0, n, step):
        rows = block_rows(slice(lo, lo + step))
        b = len(rows) * n                   # segments (i, j) of the block
        out[lo * n:lo * n + b] = _column_sums(rows.reshape(b, n, d))
    return out.reshape(n, n, d)


def _flag_pair_sum(mlp, G: np.ndarray, flag: np.ndarray) -> np.ndarray:
    """(n, n, d) sums over u of ``mlp([G[i, u], flag[u, j]])`` for a 0/1
    ``flag``.  ``mlp`` runs on the 2n² candidates [G[i, u], a], laid out
    [i, a, u] as the (n, d + 1) matrices of rows u that a path over all
    n³ rows would multiply, so each candidate takes the same matrix
    product; each segment (i, j) adds its rows in the order of the
    candidates' dense rank by ``order_keys`` (whole rows in lexicographic
    order), ties by u, so equal multisets of rows give bit-equal sums.
    Sorting each column, as ``_pair_sum`` does, would sort d values per
    row of the segment instead of one rank."""
    n, _, d = G.shape
    inp = np.empty((n, 2, n, d + 1))
    inp[..., :d] = G[:, None]
    inp[..., d] = np.array([0.0, 1.0])[:, None]
    cand = mlp(inp).reshape(2 * n * n, d)
    rank = np.unique(order_keys(cand), return_inverse=True)[1]
    # row u of (i, j) is candidate (2 i + flag[u, j]) n + u; [j, u] part here
    cols = n * flag.T.astype(np.intp) + np.arange(n)
    out = np.empty((n * n, d))
    step = max(1, _BLOCK_ROWS // (n * n))
    for lo in range(0, n, step):
        idx = 2 * n * np.arange(lo, min(lo + step, n))[:, None, None] + cols
        idx = np.take_along_axis(idx, np.argsort(rank[idx], axis=2, kind="stable"), axis=2)
        out[lo * n:lo * n + len(idx) * n] = cand[idx].reshape(-1, n, d).sum(axis=1)
    return out.reshape(n, n, d)


def _delta_messages(H: np.ndarray, adj: np.ndarray, lp) -> tuple[np.ndarray, np.ndarray]:
    """Row and column pair messages of the delta layer: row u of (i, j) is
    [h_iu, adj_uj] through ``msg_row`` and [h_uj, adj_iu] through
    ``msg_col``, whose sum at (i, j) is the row form's at (j, i) on the
    transposes."""
    m_row = _flag_pair_sum(lp["msg_row"], H, adj)
    m_col = _flag_pair_sum(lp["msg_col"], H.transpose(1, 0, 2), adj.T)
    return m_row, m_col.transpose(1, 0, 2)


def init_embeddings(inst: SdpInstance, params: ArchParams) -> EmbeddingState:
    """Per-cell embedding of (C_ij, diag flag) and per-constraint
    embedding of b_k through the two-layer encoders of ``params``, which
    are the first draws of every architecture's weight stream."""
    init_v, init_c, d = params.init_v, params.init_c, params.d
    n = inst.n
    feats = np.zeros((n, n, 2))
    feats[:, :, 0] = quantize_array(inst.C)
    feats[:, :, 1] = np.eye(n)
    var = init_v(feats)
    con = init_c(quantize_array(inst.b).reshape(-1, 1)) if inst.m else np.zeros((0, d))
    return EmbeddingState(var=var, con=con, layer=0)


def _neighbor_messages(inst, H, hc, lp, d):
    """Messages along the ``coo`` entries, to cells and to constraints."""
    n = inst.n
    k, cell, val = inst.coo
    q = quantize_array(val)[:, None]
    to_cell = lp["msg_cv"](np.concatenate([q, hc[k]], axis=1))
    to_con = lp["msg_vc"](np.concatenate([q, H.reshape(n * n, d)[cell]], axis=1))
    view = inst.int_view
    return (_segment_sum(to_cell, view.by_cell).reshape(n, n, d),
            _segment_sum(to_con, view.by_con))


def _ign_message(H: np.ndarray, pars: IgnParams, d: int) -> np.ndarray:
    n = H.shape[0]
    flat = H.reshape(n * n, d)
    diag = H[np.arange(n), np.arange(n)]                             # (n, d)
    row_sums = _column_sums(H)                                       # (n, d)
    trace = _column_sums(diag[None])[0]
    total = _column_sums(flat[None])[0]
    eye, ones = np.eye(n)[:, :, None], np.ones((n, n, 1))
    ops = [H, ones * trace, ones * total, eye * diag[:, None, :],
           eye * row_sums[:, None, :], eye * trace, eye * total,
           row_sums[:, None, :] + row_sums[None, :, :], diag[:, None, :] + diag[None, :, :]]
    out = np.zeros((n, n, d))
    for op, w in zip(ops, pars.ws):
        out = out + op @ w
    return out


def _layer_norm(x: np.ndarray, gamma, beta) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-5) * gamma + beta


def triangular_attention(H: np.ndarray, pars: AttentionParams
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Attention output (n,n,d) and scores alpha (n,n,n) indexed [i,j,l]."""
    n, _, d = H.shape
    Q, K, V1, V2 = (H @ w for w in (pars.w_q, pars.w_k, pars.w_v1, pars.w_v2))
    scores = np.einsum("ild,ljd->ilj", Q, K) / math.sqrt(d)
    s = scores.transpose(0, 2, 1)                   # [i, j, l]
    e = np.exp(s - s.max(axis=2, keepdims=True))
    alpha = e / np.sort(e, axis=2).sum(axis=2, keepdims=True)
    # row l of (i, j): alpha_ijl * (V1_il * V2_lj)
    out = _pair_sum(n, d, lambda ib: alpha[ib, :, :, None]
                    * (V1[ib][:, None, :, :] * V2.transpose(1, 0, 2)[None]))
    return out, alpha


def layer(state: EmbeddingState, inst: SdpInstance,
          params: ArchParams) -> EmbeddingState:
    """One forward layer of ``params.arch``; layer index picks the weights."""
    arch = params.arch
    n, d = inst.n, params.d
    if state.var.shape != (n, n, d) or state.con.shape[0] != inst.m:
        raise ShapeError("embedding state does not match the instance")
    if state.layer >= len(params.layers):
        raise ShapeError(f"no weights for layer {state.layer}")
    lp = params.layers[state.layer]
    H, hc = state.var, state.con
    m_cv, m_vc = _neighbor_messages(inst, H, hc, lp, d)

    if arch is Arch.VCMPNN:
        new_var = lp["upd_v"](np.concatenate([H, m_cv], axis=-1))
    elif arch in (Arch.VC2MPNN, Arch.DELTA_VC2MPNN):
        if arch is Arch.VC2MPNN:
            flat = H.reshape(n * n, d)              # row a*n + b is h_ab
            m_row = _column_sums(lp["msg_row"](flat).reshape(n, n, d))
            m_col = _column_sums(lp["msg_col"](flat).reshape(n, n, d).transpose(1, 0, 2))
            m_row_ij = np.broadcast_to(m_row[:, None, :], (n, n, d))
            m_col_ij = np.broadcast_to(m_col[None, :, :], (n, n, d))
        else:
            m_row_ij, m_col_ij = _delta_messages(H, inst.int_view.adj, lp)
        new_var = lp["upd_v"](
            np.concatenate([H, m_col_ij, m_row_ij, m_cv], axis=-1))
    elif arch is Arch.VC2FMPNN:
        mapped = lp["map"](H)
        # row u of (i, j): MAP(h_uj) + MAP(h_iu)
        m_vv = _pair_sum(n, d, lambda ib: lp["msg_vv"](
            mapped.transpose(1, 0, 2)[None] + mapped[ib][:, None]))
        new_var = lp["upd_v"](np.concatenate([H, m_vv, m_cv], axis=-1))
    elif arch is Arch.VC2IGN:
        m_ign = _ign_message(H, lp["ign"], d)
        new_var = lp["upd_v"](np.concatenate([H, m_ign, m_cv], axis=-1))
    elif arch is Arch.VCET:
        normed = _layer_norm(H, lp["ln_gamma"], lp["ln_beta"])
        tri, _ = triangular_attention(normed, lp["attn"])
        m_et = lp["ffn"](H + tri)
        new_var = lp["upd_v"](np.concatenate([H, m_et, m_cv], axis=-1))

    if arch in _SYMMETRIZED_ARCHS:
        # averaged rather than copied: a copy from the upper triangle is
        # frame-dependent and breaks permutation equivariance
        new_var = (new_var + new_var.transpose(1, 0, 2)) / 2.0
    new_con = (lp["upd_c"](np.concatenate([hc, m_vc], axis=-1))
               if inst.m else hc)
    return EmbeddingState(var=new_var, con=new_con, layer=state.layer + 1)


def forward(arch: Arch, inst: SdpInstance, d: int, n_layers: int, seed: int
            ) -> tuple[list[EmbeddingState], ArchParams]:
    """Init plus ``n_layers`` layers; returns every intermediate state."""
    params = build_params(arch, d, n_layers, seed)
    states = [init_embeddings(inst, params)]
    for _ in range(n_layers):
        states.append(layer(states[-1], inst, params))
    return states, params


def decode(state: EmbeddingState, params: ArchParams) -> np.ndarray:
    """Per-cell scalar readout, symmetrized.

    The head's last layer, d -> 1, is an elementwise product summed over
    the last axis: as a matrix-vector product its rounding would depend on
    the cell's row position, and permuting the cells would move the output
    in the last bits.
    """
    head = params.decode_head
    hidden = Mlp(head.weights[:-1], head.biases[:-1], final_relu=True)(state.var)
    out = (hidden * head.weights[-1][:, 0]).sum(axis=-1) + head.biases[-1][0]
    return symmetrize(out)
