import dataclasses
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _nn_quantized,
    reference_delta_pair_messages,
    reference_forward,
    reference_triangular_attention,
    row_segment_sum,
)
from sdpxlab.colors import init_colors
from sdpxlab.core import ShapeError, _segment_groups, quantize_array
from sdpxlab.nn import (
    Arch,
    ArchParams,
    Mlp,
    WeightStream,
    _delta_messages,
    _segment_sum,
    build_params,
    decode,
    forward,
    init_embeddings,
    layer,
    triangular_attention,
)
from sdpxlab.relaxations import er_graph, maxcut_sdp, vertexcover_sdp
from sdpxlab.verify import (
    NN_TOLERANCES,
    nn_deviations,
    prop_diag_pair_instance,
    sample_instances,
)
from test_core import operator_instances

D = 8


def small_inst():
    return maxcut_sdp(er_graph(5, 0.6, 2))


def test_weight_stream_is_deterministic_and_bounded():
    a = WeightStream(42).uniform(64)
    b = WeightStream(42).uniform(64)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= 0.5)
    assert not np.array_equal(a, WeightStream(43).uniform(64))


def _weight_arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for x in obj:
            yield from _weight_arrays(x)
    elif isinstance(obj, Mapping):
        yield from _weight_arrays(tuple(obj.values()))
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _weight_arrays(getattr(obj, f.name))


def test_build_params_returns_one_object_per_argument_tuple():
    params = build_params(Arch.VCET, D, 2, 11)
    assert build_params(Arch.VCET, D, 2, 11) is params
    assert build_params("vcet", np.int64(D), 2, 11) is params
    assert build_params(Arch.VCET, D, 2, 12) is not params
    assert build_params(Arch.VC2IGN, D, 2, 11) is not params


@pytest.mark.parametrize("arch", list(Arch))
def test_built_params_are_read_only(arch):
    params = build_params(arch, D, 2, 0)
    arrays = list(_weight_arrays(params))
    # the encoders and the decoder hold 14 weights and biases, each layer more
    assert len(arrays) > 20
    for a in arrays:
        with pytest.raises(ValueError):
            a[...] = 0.0
    for lp in params.layers:
        with pytest.raises(TypeError):
            lp["upd_v"] = lp["upd_v"]


def test_init_identical_inputs_identical_embeddings():
    inst = prop_diag_pair_instance()
    st = init_embeddings(inst, build_params(Arch.VCMPNN, D, 0, 0))
    # cells (0,2) and (1,2) share (C_ij, flag) = (0, off-diagonal)
    np.testing.assert_array_equal(st.var[0, 2], st.var[1, 2])


def test_init_zero_weights_give_zero_embeddings():
    inst = small_inst()
    zero = Mlp(weights=(np.zeros((2, 1)),), biases=(np.zeros(1),))
    zero_c = Mlp(weights=(np.zeros((1, 1)),), biases=(np.zeros(1),))
    params = ArchParams(arch=Arch.VCMPNN, d=1, init_v=zero, init_c=zero_c,
                        layers=(), decode_head=zero_c)
    st = init_embeddings(inst, params)
    assert not np.any(st.var) and not np.any(st.con)


def test_init_embeddings_default_equals_build_params_encoders():
    inst = small_inst()
    # the encoders are the first draws of every architecture's stream
    default = init_embeddings(inst, build_params(Arch.VCMPNN, D, 0, 7))
    for arch in Arch:
        st = init_embeddings(inst, build_params(arch, D, 2, 7))
        np.testing.assert_array_equal(st.var, default.var)
        np.testing.assert_array_equal(st.con, default.con)


def test_delta_layer_reads_nonzero_pattern_of_c():
    # pinned value of the per-entry adjacency loop the delta layer used
    # before it read (quantized C != 0); the invariance properties tested
    # elsewhere hold for the complemented pattern too
    states, _ = forward(Arch.DELTA_VC2MPNN, small_inst(), D, 2, 0)
    assert float(states[-1].var.sum()) == pytest.approx(208.9883851361521, rel=1e-9)


def test_init_equality_classes_match_init_colors():
    inst = prop_diag_pair_instance()
    st = init_embeddings(inst, build_params(Arch.VCMPNN, D, 0, 3))
    colors = init_colors(inst)
    emb_key = {}
    for i in range(3):
        for j in range(3):
            emb_key.setdefault(st.var[i, j].tobytes(), set()).add(
                int(colors.var_colors[i, j]))
    # distinct embeddings never mix distinct colors and vice versa
    assert all(len(v) == 1 for v in emb_key.values())
    assert len(emb_key) == len(set(colors.var_colors.flat))


def test_ign_preserves_symmetry_exactly():
    inst = small_inst()
    assert nn_deviations(Arch.VC2IGN, inst, D, 3, 0)["symmetry"] == 0.0


def test_fmpnn_separates_diagonal_while_vcmpnn_cannot():
    inst = prop_diag_pair_instance()
    states, _ = forward(Arch.VC2FMPNN, inst, D, 2, seed=5)
    assert not np.array_equal(states[1].var[0, 0], states[1].var[2, 2])
    states, _ = forward(Arch.VCMPNN, inst, D, 2, seed=5)
    for st in states:
        np.testing.assert_array_equal(st.var[0, 0], st.var[2, 2])


def test_attention_rows_sum_to_one():
    inst = small_inst()
    states, params = forward(Arch.VCET, inst, D, 1, seed=1)
    _, alpha = triangular_attention(states[0].var, params.layers[0]["attn"])
    np.testing.assert_allclose(alpha.sum(axis=2), np.ones((5, 5)), atol=1e-12)


@pytest.mark.parametrize("arch", list(Arch))
def test_symmetry_equivariance_invariance(arch):
    dev = nn_deviations(arch, small_inst(), D, 3, 0)
    assert dev["symmetry"] <= 1e-12
    assert dev["equivariance"] <= 1e-9
    assert dev["invariance"] <= 1e-12
    assert all(dev[prop] <= tol for prop, tol in NN_TOLERANCES[arch].items())


@pytest.mark.parametrize("arch", list(Arch))
def test_coloring_respect_bit_exact(arch):
    assert nn_deviations(arch, small_inst(), D, 3, 0)["coloring"]
    assert nn_deviations(arch, prop_diag_pair_instance(), D, 3, 1)["coloring"]


@pytest.mark.parametrize("arch", list(Arch))
def test_coloring_respect_on_noisy_coefficients(arch):
    # all direction constraints of this family share one rhs value up to
    # float noise below the quantum; the embeddings must still agree
    from sdpxlab.relaxations import lmi_sdp
    inst = lmi_sdp(4, 5, seed=3)
    assert nn_deviations(arch, inst, D, 2, 0)["coloring"]


def test_layer_shape_checks():
    inst = small_inst()
    params = build_params(Arch.VCMPNN, D, 1, 0)
    st = init_embeddings(inst, params)
    nxt = layer(st, inst, params)
    with pytest.raises(ShapeError):
        layer(nxt, inst, params)  # no weights for layer 1


def test_decode_properties():
    inst = small_inst()
    states, params = forward(Arch.VC2FMPNN, inst, D, 2, seed=7)
    out = decode(states[-1], params)
    np.testing.assert_array_equal(out, out.T)
    zero_head = Mlp(weights=(np.zeros((D, 1)),), biases=(np.zeros(1),))
    zeroed = ArchParams(arch=params.arch, d=D, init_v=params.init_v,
                        init_c=params.init_c, layers=params.layers,
                        decode_head=zero_head)
    assert not np.any(decode(states[-1], zeroed))


_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(min_value=1e-300, max_value=1e300),
    st.floats(min_value=-1e300, max_value=-1e-300))


@st.composite
def segment_layouts(draw):
    """Rows drawn from a small pool of values that holds zeros of both
    signs, so that rows tie in early columns and repeat; segments of length
    0, 1 and more, interleaved in random order."""
    d = draw(st.integers(1, 5))
    lengths = draw(st.lists(st.sampled_from([0, 1, 2, 3, 9, 12]), min_size=1, max_size=6))
    pool = draw(st.lists(_VALUES, min_size=1, max_size=4)) + [0.0, -0.0]
    n_rows = sum(lengths)
    rows = np.array(draw(st.lists(st.sampled_from(pool), min_size=n_rows * d,
                                  max_size=n_rows * d)), dtype=np.float64).reshape(n_rows, d)
    seg = np.repeat(np.arange(len(lengths)), lengths)
    perm = np.array(draw(st.permutations(range(n_rows))), dtype=np.int64)
    return rows[perm], seg[perm], len(lengths)


def _sums(rows, seg, n_seg):
    return _segment_sum(rows, _segment_groups(seg, n_seg, np.argsort(seg, kind="stable")))


@settings(max_examples=100, deadline=None)
@given(segment_layouts(), st.data())
def test_segment_sum_is_bit_identical_under_row_order_and_equal_multisets(layout, data):
    rows, seg, n_seg = layout
    # one more segment holding a segment's rows in another order, then
    # every row moved to a new position
    copied = data.draw(st.integers(0, n_seg - 1))
    members = rows[seg == copied]
    shuffle = np.array(data.draw(st.permutations(range(len(members)))), dtype=np.int64)
    rows = np.concatenate([rows, members[shuffle].reshape(-1, rows.shape[1])])
    seg = np.concatenate([seg, np.full(len(members), n_seg)])
    perm = np.array(data.draw(st.permutations(range(len(rows)))), dtype=np.int64)
    got = _sums(rows, seg, n_seg + 1).view(np.uint64)
    np.testing.assert_array_equal(_sums(rows[perm], seg[perm], n_seg + 1).view(np.uint64), got)
    np.testing.assert_array_equal(got[n_seg], got[copied])


def _row_order_bound(rows, seg, n_seg):
    """Per segment of k rows and per column, 2 gamma_k sum |x|, with
    gamma_k = k u / (1 - k u) and u = 2^-53.  Any order of summing k values
    errs by at most gamma_(k-1) sum |x|, so two orders differ by at most
    twice that; gamma_k for gamma_(k-1) covers the rounding of sum |x|."""
    ku = np.bincount(seg, minlength=n_seg)[:, None] * 2.0 ** -53
    return 2.0 * ku / (1.0 - ku) * row_segment_sum(np.abs(rows), seg, n_seg)


@settings(max_examples=100, deadline=None)
@given(segment_layouts())
def test_segment_sum_is_close_to_the_row_order_sum(layout):
    rows, seg, n_seg = layout
    got = _sums(rows, seg, n_seg)
    want = row_segment_sum(rows, seg, n_seg)
    assert np.all(np.abs(got - want) <= _row_order_bound(rows, seg, n_seg))


@st.composite
def delta_inputs(draw):
    """H, a 0/1 adjacency (all zero, all one or mixed) and a message map
    per direction, all from a small pool of values holding zeros of both
    signs, so candidate rows tie in early columns, and values whose sums
    round, so the order of the additions shows.  A map is a one-layer
    ``Mlp`` or the elementwise h * w - flag * v, which keeps the -0.0 that
    a matrix product turns into +0.0."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    inexact = st.one_of(st.sampled_from([1.0, -1.0, 0.1, 1 / 3, 1e16, -1e16]),
                        st.floats(-10.0, 10.0))
    pool = draw(st.lists(inexact, min_size=1, max_size=3)) + [0.0, -0.0]

    def values(*shape):
        size = int(np.prod(shape))
        return np.array(draw(st.lists(st.sampled_from(pool), min_size=size,
                                      max_size=size))).reshape(shape)

    def message_map():
        if draw(st.booleans()):
            return Mlp(weights=(values(d + 1, d),), biases=(values(d),),
                       final_relu=draw(st.booleans()))
        w, v = values(d), values(1)
        return lambda x: x[..., :d] * w - x[..., d:] * v

    fill = draw(st.sampled_from([0, 1, None]))
    adj = (np.full((n, n), bool(fill)) if fill is not None else
           np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n))
    return values(n, n, d), adj, {"msg_row": message_map(), "msg_col": message_map()}


@settings(max_examples=200, deadline=None)
@given(delta_inputs())
def test_delta_messages_are_bit_identical_to_the_n3_row_path(inputs):
    H, adj, lp = inputs
    for got, want in zip(_delta_messages(H, adj, lp), reference_delta_pair_messages(H, adj, lp)):
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_quantized_equals_per_value_quantization():
    for inst in operator_instances():
        for x in (inst.C, inst.b, inst.coo[2]):
            np.testing.assert_array_equal(quantize_array(x).view(np.uint64),
                                          _nn_quantized(x).view(np.uint64))


def test_forward_passes_quantize_nothing(monkeypatch):
    # int_view quantizes C, the coo values and b once per instance; every
    # forward pass and layer reads those values (building the instance
    # quantizes its entries too, so it is built before the count starts)
    import sdpxlab.core as core_mod

    inst = maxcut_sdp(er_graph(8, 0.5, 1))
    calls = []
    quantize = core_mod.quantize_array
    monkeypatch.setattr(core_mod, "quantize_array", lambda x: calls.append(x) or quantize(x))
    for arch in Arch:
        forward(arch, inst, D, 3, 0)
        forward(arch, inst, D, 3, 1)
    assert len(calls) == 3


@pytest.mark.parametrize("arch", list(Arch))
def test_layers_match_the_per_cell_oracle(arch):
    for inst in (operator_instances() + sample_instances(3, 2)
                 + [maxcut_sdp(er_graph(32, 0.3, 1)), vertexcover_sdp(er_graph(32, 0.3, 2))]):
        states, params = forward(arch, inst, D, 3, 0)
        ref_states, _ = reference_forward(arch, inst, D, 3, 0)
        for got, want in zip(states, ref_states):
            for a, b in ((got.var, want.var), (got.con, want.con)):
                scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
                assert np.max(np.abs(a - b), initial=0.0) <= 1e-12 * scale
        want = decode(ref_states[-1], params)
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(decode(states[-1], params) - want)) <= 1e-12 * scale
        if arch is Arch.VCET:
            pars = params.layers[0]["attn"]
            _, alpha = triangular_attention(states[0].var, pars)
            _, ref_alpha = reference_triangular_attention(states[0].var, pars)
            assert np.max(np.abs(alpha - ref_alpha)) <= 1e-12


def test_layer_calls_each_mlp_a_fixed_number_of_times(monkeypatch):
    calls = {"n": 0}
    mlp_call = Mlp.__call__

    def counted(self, x):
        calls["n"] += 1
        return mlp_call(self, x)

    monkeypatch.setattr(Mlp, "__call__", counted)
    for arch in Arch:
        counts = []
        for n in (8, 16):
            inst = maxcut_sdp(er_graph(n, 0.5, 1))
            params = build_params(arch, D, 1, 0)
            state = init_embeddings(inst, params)
            calls["n"] = 0
            layer(state, inst, params)
            counts.append(calls["n"])
        assert counts[0] == counts[1], (arch, counts)
