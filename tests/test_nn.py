import numpy as np
import pytest

from sdpxlab.colors import init_colors
from sdpxlab.core import ShapeError
from sdpxlab.nn import (
    Arch,
    ArchParams,
    Mlp,
    WeightStream,
    build_params,
    decode,
    forward,
    init_embeddings,
    layer,
    triangular_attention,
)
from sdpxlab.relaxations import er_graph, maxcut_sdp
from sdpxlab.verify import (
    nn_coloring_respect,
    nn_equivariance_deviation,
    nn_invariance_deviation,
    nn_symmetry_deviation,
    prop_diag_pair_instance,
)

D = 8


def small_inst():
    return maxcut_sdp(er_graph(5, 0.6, 2))


def test_weight_stream_is_deterministic_and_bounded():
    a = WeightStream(42).uniform(64)
    b = WeightStream(42).uniform(64)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.abs(a) <= 0.5)
    assert not np.array_equal(a, WeightStream(43).uniform(64))


def test_init_identical_inputs_identical_embeddings():
    inst = prop_diag_pair_instance()
    st = init_embeddings(inst, D, seed=0)
    # cells (0,2) and (1,2) share (C_ij, flag) = (0, off-diagonal)
    np.testing.assert_array_equal(st.var[0, 2], st.var[1, 2])


def test_init_zero_weights_give_zero_embeddings():
    inst = small_inst()
    zero = Mlp(weights=(np.zeros((2, 1)),), biases=(np.zeros(1),))
    zero_c = Mlp(weights=(np.zeros((1, 1)),), biases=(np.zeros(1),))
    params = ArchParams(arch=Arch.VCMPNN, d=1, init_v=zero, init_c=zero_c,
                        layers=(), decode_head=zero_c)
    st = init_embeddings(inst, 1, 0, params=params)
    assert not np.any(st.var) and not np.any(st.con)


def test_init_embeddings_default_equals_build_params_encoders():
    inst = small_inst()
    default = init_embeddings(inst, D, 7)
    for arch in Arch:
        st = init_embeddings(inst, D, 7, params=build_params(arch, D, 2, 7))
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
    st = init_embeddings(inst, D, seed=3)
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
    assert nn_symmetry_deviation(Arch.VC2IGN, inst, D, 3, 0) == 0.0


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
    inst = small_inst()
    assert nn_symmetry_deviation(arch, inst, D, 3, 0) <= 1e-12
    assert nn_equivariance_deviation(arch, inst, D, 3, 0) <= 1e-9
    assert nn_invariance_deviation(arch, inst, D, 3, 0) <= 1e-12


@pytest.mark.parametrize("arch", list(Arch))
def test_coloring_respect_bit_exact(arch):
    inst = small_inst()
    assert nn_coloring_respect(arch, inst, D, 3, 0)
    assert nn_coloring_respect(arch, prop_diag_pair_instance(), D, 3, 1)


@pytest.mark.parametrize("arch", list(Arch))
def test_coloring_respect_on_noisy_coefficients(arch):
    # all direction constraints of this family share one rhs value up to
    # float noise below the quantum; the embeddings must still agree
    from sdpxlab.relaxations import lmi_sdp
    inst = lmi_sdp(4, 5, seed=3)
    assert nn_coloring_respect(arch, inst, D, 2, 0)


def test_layer_shape_checks():
    inst = small_inst()
    params = build_params(Arch.VCMPNN, D, 1, 0)
    st = init_embeddings(inst, D, 0, params=params)
    with pytest.raises(ShapeError):
        layer(Arch.VC2MPNN, st, inst, params)
    nxt = layer(Arch.VCMPNN, st, inst, params)
    with pytest.raises(ShapeError):
        layer(Arch.VCMPNN, nxt, inst, params)  # no weights for layer 1


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
