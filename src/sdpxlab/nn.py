"""Forward passes of the six embedding architectures, inference only.

Weights come from a seeded xorshift stream, uniform in [-0.5, 0.5]; no
training happens anywhere.  Every multiset reduction (neighbor messages,
row sums, attention) accumulates its summands in a canonical value-sorted
order, so cells whose refinement colors agree produce bit-identical
embeddings and permuting the instance permutes embeddings exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .colors import Algo
from .core import SdpInstance, ShapeError, neighbor_lists, quantize_value, symmetrize


def _quantized(values) -> np.ndarray:
    """Coefficients as the refinement sees them: rounded to the quantum."""
    arr = np.asarray(values, dtype=np.float64)
    return np.array([quantize_value(v) for v in arr.reshape(-1)]).reshape(arr.shape)


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


def _csum(stack: np.ndarray, d: int) -> np.ndarray:
    """Sum of row vectors in canonical (lexicographically sorted) order."""
    if len(stack) == 0:
        return np.zeros(d)
    order = np.lexsort(stack.T[::-1])
    return stack[order].sum(axis=0)


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
    n = inst.n
    cell_nbrs, con_nbrs = neighbor_lists(inst)
    flat_h = H.reshape(n * n, d)
    m_cv = np.zeros((n, n, d))
    msg_cv = lp["msg_cv"]
    for cell, lst in enumerate(cell_nbrs):
        if not lst:
            continue
        inp = np.array([[quantize_value(v)] for _, v in lst])
        kh = np.stack([hc[k] for k, _ in lst])
        out = msg_cv(np.concatenate([inp, kh], axis=1))
        m_cv[cell // n, cell % n] = _csum(out, d)
    msg_vc = lp["msg_vc"]
    m_vc = np.zeros((inst.m, d))
    for k, lst in enumerate(con_nbrs):
        if not lst:
            continue
        inp = np.array([[quantize_value(v)] for _, v in lst])
        ch = np.stack([flat_h[cell] for cell, _ in lst])
        out = msg_vc(np.concatenate([inp, ch], axis=1))
        m_vc[k] = _csum(out, d)
    return m_cv, m_vc


def _ign_message(H: np.ndarray, pars: IgnParams, d: int) -> np.ndarray:
    n = H.shape[0]
    diag = H[np.arange(n), np.arange(n)]                       # (n, d)
    row_sums = np.stack([_csum(H[i], d) for i in range(n)])    # (n, d)
    trace = _csum(diag, d)
    total = _csum(H.reshape(n * n, d), d)
    eye = np.eye(n)
    ones = np.ones((n, n))
    ops = [
        H,
        ones[:, :, None] * trace,
        ones[:, :, None] * total,
        eye[:, :, None] * diag[:, None, :],
        eye[:, :, None] * row_sums[:, None, :],
        eye[:, :, None] * trace,
        eye[:, :, None] * total,
        row_sums[:, None, :] + row_sums[None, :, :],
        diag[:, None, :] + diag[None, :, :],
    ]
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
    Q = H @ pars.w_q
    K = H @ pars.w_k
    V1 = H @ pars.w_v1
    V2 = H @ pars.w_v2
    scores = np.einsum("ild,ljd->ilj", Q, K) / math.sqrt(d)
    out = np.zeros((n, n, d))
    alpha = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            s = scores[i, :, j]
            e = np.exp(s - s.max())
            denom = np.sort(e).sum()
            a = e / denom
            vals = V1[i] * V2[:, j]                  # (n, d), row l
            out[i, j] = _csum(a[:, None] * vals, d)
            alpha[i, j] = a
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
            row_in = lp["msg_row"](H)          # (n, n, d), [i, u]
            col_in = lp["msg_col"](H)          # read as [u, j]
            m_row = np.stack([_csum(row_in[i], d) for i in range(n)])
            m_col = np.stack([_csum(col_in[:, j], d) for j in range(n)])
            m_row_ij = np.broadcast_to(m_row[:, None, :], (n, n, d))
            m_col_ij = np.broadcast_to(m_col[None, :, :], (n, n, d))
        else:
            adj = (_quantized(inst.C) != 0).astype(np.float64)
            m_row_ij = np.zeros((n, n, d))
            m_col_ij = np.zeros((n, n, d))
            for i in range(n):
                for j in range(n):
                    row_inp = np.concatenate([H[i], adj[:, j][:, None]], axis=1)
                    col_inp = np.concatenate([H[:, j], adj[i][:, None]], axis=1)
                    m_row_ij[i, j] = _csum(lp["msg_row"](row_inp), d)
                    m_col_ij[i, j] = _csum(lp["msg_col"](col_inp), d)
        new_var = lp["upd_v"](
            np.concatenate([H, m_col_ij, m_row_ij, m_cv], axis=-1))
    elif arch is Arch.VC2FMPNN:
        mapped = lp["map"](H)
        msg_vv = lp["msg_vv"]
        m_vv = np.zeros((n, n, d))
        for i in range(n):
            for j in range(n):
                pairs = mapped[:, j] + mapped[i]        # row u: MAP(h_uj)+MAP(h_iu)
                m_vv[i, j] = _csum(msg_vv(pairs), d)
        new_var = lp["upd_v"](np.concatenate([H, m_vv, m_cv], axis=-1))
    elif arch is Arch.VC2IGN:
        m_ign = _ign_message(H, lp["ign"], d)
        new_var = lp["upd_v"](np.concatenate([H, m_ign, m_cv], axis=-1))
    elif arch is Arch.VCET:
        normed = _layer_norm(H, lp["ln_gamma"], lp["ln_beta"])
        tri, _ = triangular_attention(normed, lp["attn"])
        m_et = lp["ffn"](H + tri)
        new_var = lp["upd_v"](np.concatenate([H, m_et, m_cv], axis=-1))
    else:  # pragma: no cover
        raise ValueError(f"unknown architecture {arch}")

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
