"""Forward passes of the six embedding architectures, inference only.

Weights come from a seeded xorshift stream, uniform in [-0.5, 0.5]; no
training happens anywhere.  Each message MLP runs once per layer on all
its rows: one per ``coo`` entry, per cell, or per triple (i, j, u) of the
pair layers, which run in blocks of consecutive i of about ``_BLOCK_ROWS``
rows.  Every multiset reduction is one ``_segment_sum``: rows sorted by
(segment, row values in lexicographic order), each segment added in that
order.  So cells whose refinement colors agree get bit-identical
embeddings, and permuting the instance permutes the embeddings exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .colors import Algo
from .core import SdpInstance, ShapeError, _segment_groups, quantize_value, symmetrize

_BLOCK_ROWS = 1 << 12  # rows per block of a pair layer
_SIGN = np.uint64(1 << 63)


def _quantized(values) -> np.ndarray:
    """Coefficients as the refinement sees them: rounded to the quantum;
    ``quantize_value`` runs once per distinct value."""
    arr = np.asarray(values, dtype=np.float64)
    uniq, inv = np.unique(arr.reshape(-1), return_inverse=True)
    q = np.array([quantize_value(v) for v in uniq.tolist()], dtype=np.float64)
    return q[inv.reshape(-1)].reshape(arr.shape)


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
        return np.array(vals).reshape(shape)


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
        return cls(w_q=wq, w_k=wq.copy(), w_v1=wv, w_v2=wv.copy())


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
    layers: tuple[dict, ...]
    decode_head: Mlp


@dataclass(frozen=True)
class EmbeddingState:
    var: np.ndarray  # (n, n, d)
    con: np.ndarray  # (m, d)
    layer: int


def build_params(arch: Arch, d: int, n_layers: int, seed: int) -> ArchParams:
    """All weights for ``n_layers`` forward layers, drawn in a fixed order."""
    arch = Arch(arch)
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
            lp["ln_gamma"] = 1.0 + stream.uniform(d)
            lp["ln_beta"] = stream.uniform(d)
            lp["ffn"] = Mlp.draw(stream, (d, d))
            lp["upd_v"] = Mlp.draw(stream, (3 * d, d), final_relu=True)
        layers.append(lp)
    decode_head = Mlp.draw(stream, (d, d, d, 1))
    return ArchParams(arch=arch, d=d, init_v=init_v, init_c=init_c,
                      layers=tuple(layers), decode_head=decode_head)


def _segment_sum(rows: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """(n_seg, d) sums of the rows of each segment ``seg == s``, each added
    by position after sorting by (segment, row values in lexicographic
    order), so equal multisets give bit-equal sums; empty segments sum to
    0.  The sort key is the row as big-endian uint64s that order like the
    floats (-0.0 as +0.0), compared as one byte string."""
    n_rows, d = rows.shape
    bits = (rows + 0.0).view(np.uint64)
    keys = np.empty((n_rows, d + 1), dtype=">u8")
    keys[:, 0] = seg
    keys[:, 1:] = bits ^ ((bits >> np.uint64(63)) * (_SIGN - np.uint64(1)) | _SIGN)
    order = np.argsort(keys.view(np.dtype((np.void, 8 * (d + 1)))).reshape(-1),
                       kind="stable")
    out = np.empty((n_seg, d))
    for members, entries in _segment_groups(seg, n_seg, order):
        out[members] = rows[entries].sum(axis=1)
    return out


def _pair_sum(n: int, d: int, block_rows) -> np.ndarray:
    """(n, n, d) sums over u of the rows that ``block_rows(ib)`` returns as
    a (len(ib), n, n, d) array indexed [i, j, u], one block of i at a time."""
    out = np.empty((n * n, d))
    step = max(1, _BLOCK_ROWS // (n * n))
    for lo in range(0, n, step):
        rows = block_rows(slice(lo, lo + step))
        b = len(rows) * n                   # segments (i, j) of the block
        seg = np.repeat(np.arange(b), n)
        out[lo * n:lo * n + b] = _segment_sum(rows.reshape(-1, d), seg, b)
    return out.reshape(n, n, d)


def init_embeddings(inst: SdpInstance, d: int, seed: int,
                    params: ArchParams | None = None) -> EmbeddingState:
    """Per-cell embedding of (C_ij, diag flag) and per-constraint
    embedding of b_k through the seeded two-layer encoders."""
    if params is None:
        # the encoders are the first draws of every architecture's stream
        params = build_params(Arch.VCMPNN, d, 0, seed)
    init_v, init_c, d = params.init_v, params.init_c, params.d
    n = inst.n
    feats = np.zeros((n, n, 2))
    feats[:, :, 0] = _quantized(inst.C)
    feats[:, :, 1] = np.eye(n)
    var = init_v(feats)
    con = init_c(_quantized(inst.b).reshape(-1, 1)) if inst.m else np.zeros((0, d))
    return EmbeddingState(var=var, con=con, layer=0)


def _neighbor_messages(inst, H, hc, lp, d):
    """Messages along the ``coo`` entries, to cells and to constraints."""
    n = inst.n
    k, cell, val = inst.coo
    q = _quantized(val)[:, None]
    to_cell = lp["msg_cv"](np.concatenate([q, hc[k]], axis=1))
    to_con = lp["msg_vc"](np.concatenate([q, H.reshape(n * n, d)[cell]], axis=1))
    return (_segment_sum(to_cell, cell, n * n).reshape(n, n, d),
            _segment_sum(to_con, k, inst.m))


def _ign_message(H: np.ndarray, pars: IgnParams, d: int) -> np.ndarray:
    n = H.shape[0]
    flat = H.reshape(n * n, d)
    diag = H[np.arange(n), np.arange(n)]                             # (n, d)
    row_sums = _segment_sum(flat, np.repeat(np.arange(n), n), n)      # (n, d)
    trace = _segment_sum(diag, np.zeros(n, np.int64), 1)[0]
    total = _segment_sum(flat, np.zeros(n * n, np.int64), 1)[0]
    eye, ones = np.eye(n)[:, :, None], np.ones((n, n, 1))
    ops = [H, ones * trace, ones * total, eye * diag[:, None, :],
           eye * row_sums[:, None, :], eye * trace, eye * total,
           row_sums[:, None, :] + row_sums[None, :, :], diag[:, None, :] + diag[None, :, :]]
    out = np.zeros((n, n, d))
    for op, w in zip(ops, pars.ws):
        out = out + op @ w
    return out


def _layer_norm(x: np.ndarray, gamma, beta, eps: float = 1e-5) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


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


def layer(arch: Arch, state: EmbeddingState, inst: SdpInstance,
          params: ArchParams) -> EmbeddingState:
    """One forward layer of ``arch``; layer index picks the weights."""
    arch = Arch(arch)
    if params.arch is not arch:
        raise ShapeError(f"params built for {params.arch}, not {arch}")
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
            m_row = _segment_sum(lp["msg_row"](flat), np.repeat(np.arange(n), n), n)
            m_col = _segment_sum(lp["msg_col"](flat), np.tile(np.arange(n), n), n)
            m_row_ij = np.broadcast_to(m_row[:, None, :], (n, n, d))
            m_col_ij = np.broadcast_to(m_col[None, :, :], (n, n, d))
        else:
            adj = inst.int_view.adj.astype(np.float64)[..., None]

            def rows(h, a):                         # (b, n, n, d + 1)
                shape = np.broadcast_shapes(h.shape[:3], a.shape[:3])
                return np.concatenate([np.broadcast_to(h, shape + (d,)),
                                       np.broadcast_to(a, shape + (1,))], axis=-1)
            # row u of (i, j): [h_iu, adj_uj] for msg_row, [h_uj, adj_iu] for msg_col
            m_row_ij = _pair_sum(n, d, lambda ib: lp["msg_row"](
                rows(H[ib][:, None], adj.transpose(1, 0, 2)[None])))
            m_col_ij = _pair_sum(n, d, lambda ib: lp["msg_col"](
                rows(H.transpose(1, 0, 2)[None], adj[ib][:, None])))
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
    states = [init_embeddings(inst, d, seed, params=params)]
    for _ in range(n_layers):
        states.append(layer(arch, states[-1], inst, params))
    return states, params


def decode(state: EmbeddingState, params: ArchParams) -> np.ndarray:
    """Per-cell scalar readout, symmetrized."""
    out = params.decode_head(state.var)[..., 0]
    return symmetrize(out)
