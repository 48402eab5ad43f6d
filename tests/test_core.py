import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpxlab.core import (
    NonFiniteError,
    SdpInstance,
    ShapeError,
    SizeGuardError,
    ZERO_KEY,
    SparseSymMatrix,
    apply_A,
    apply_A_adjoint,
    constraint_rank,
    constraint_residual,
    coords_table,
    entry_table,
    neighbor_lists,
    objective,
    order_keys,
    permute_instance,
    quantize_key,
    relative_obj_gap,
    reorder_constraints,
    symmetrize,
)
from sdpxlab.relaxations import (
    er_graph,
    lmi_sdp,
    lp_to_sdp,
    max2sat_sdp,
    maxclique_sdp,
    maxcut_sdp,
    mis_sdp,
    random_clauses,
    regular_graph,
    vertexcover_sdp,
)
from sdpxlab.sdpa import read_sdpa, write_sdpa
from sdpxlab.verify import (
    diag_block_instance,
    incomparability_instance,
    latin_square_instance,
    prop_diag_pair_instance,
    regular_adjacency_instance,
    sequential_pipeline_instance,
    tuple_vs_multiset_instance,
)

from oracles import (
    dense_apply_A,
    dense_apply_A_adjoint,
    dense_constraint_rank,
    loop_apply_A,
    loop_constraint_residual,
    loop_neighbor_lists,
    loop_objective,
    loop_permute_instance,
    loop_reorder_constraints,
    matrices_from_table,
    reference_coo,
    reference_from_coords,
    reference_from_dense,
)

prop32 = prop_diag_pair_instance


def operator_instances():
    """Every relaxation generator, every hand-built verify instance, an
    instance with m = 0, one whose constraint entries all quantize to zero,
    and unit diagonal constraints whose rhs tell them apart."""
    rng = np.random.default_rng(5)
    g = er_graph(7, 0.5, 1)
    zero_entries = (SparseSymMatrix.from_coords(3, [(0, 1, 1e-14), (2, 2, -3e-13)]),
                    SparseSymMatrix.from_coords(3, []))
    return [maxcut_sdp(g), maxclique_sdp(g), mis_sdp(g), vertexcover_sdp(g),
            maxcut_sdp(regular_graph(6, 3, 0)), max2sat_sdp(random_clauses(5, 10, 2)),
            lmi_sdp(3, 2, 3),
            lp_to_sdp(rng.standard_normal(4), rng.standard_normal((2, 4)),
                      rng.standard_normal(2)),
            prop_diag_pair_instance(), latin_square_instance(),
            tuple_vs_multiset_instance(), incomparability_instance(),
            regular_adjacency_instance(), sequential_pipeline_instance(),
            diag_block_instance(),
            SdpInstance(n=3, C=np.eye(3), A=(), b=[]),
            SdpInstance(n=3, C=np.eye(3), A=zero_entries, b=[0.0, 1.0]),
            SdpInstance(n=3, C=np.zeros((3, 3)), b=[1.0, 1.0, 2.0],
                        A=tuple(SparseSymMatrix.from_coords(3, [(i, i, 1.0)])
                                for i in range(3)))]


def test_symmetrize_examples():
    np.testing.assert_array_equal(symmetrize([[0, 2], [0, 0]]), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(symmetrize(np.eye(3)), np.eye(3))
    np.testing.assert_array_equal(symmetrize([[1, 4], [2, 3]]), [[1, 3], [3, 3]])


def test_symmetrize_rejects_non_square():
    with pytest.raises(ShapeError):
        symmetrize(np.ones((2, 3)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_symmetrize_idempotent_and_frobenius_minimal(seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((2, 2)) * 10
    S = symmetrize(M)
    np.testing.assert_array_equal(symmetrize(S), S)
    # nearest symmetric matrix: no random symmetric Z is closer to M
    base = np.linalg.norm(S - M)
    for _ in range(25):
        Z = symmetrize(rng.standard_normal((2, 2)) * 10)
        assert base <= np.linalg.norm(Z - M) + 1e-8


def test_quantize_key_normalizes_and_rounds():
    assert quantize_key(-0.0) == quantize_key(0.0)
    assert quantize_key(1.0) == quantize_key(1.0 + 1e-14)
    assert quantize_key(1.0) != quantize_key(1.0 + 1e-11)


def test_int_view_ids_rank_the_quantize_keys():
    # the ids number the distinct quantize_key values in increasing order
    noisy = SdpInstance(n=2, C=[[-0.0, 1.0], [1.0 + 1e-14, 1e-13]],
                        A=(SparseSymMatrix.from_coords(2, [(0, 1, -2.0), (1, 1, -2.0 - 1e-14)]),),
                        b=[-0.0])
    for inst in operator_instances() + [noisy]:
        view = inst.int_view
        for ids, q, x in ((view.C, view.qC, inst.C), (view.A, view.qA, inst.coo[2]),
                          (view.b, view.qb, inst.b)):
            keys = [quantize_key(v) for v in x.reshape(-1).tolist()]
            rank = {k: r for r, k in enumerate(sorted(set(keys)))}
            assert ids.reshape(-1).tolist() == [rank[k] for k in keys]
            # the quantized value of each id, bit for bit
            assert q[ids].shape == x.shape
            assert q[ids].view(np.int64).reshape(-1).tolist() == keys
            assert not (ids.flags.writeable or q.flags.writeable)
        assert view.adj.reshape(-1).tolist() == [
            quantize_key(v) != ZERO_KEY for v in inst.C.reshape(-1).tolist()]


def test_sparse_matrix_cleanup_and_invariants():
    m = SparseSymMatrix.from_coords(3, [(2, 1, 5.0), (0, 0, 1.0), (1, 2, 0.0)][:2])
    assert m.rows.tolist() == [0, 1] and m.cols.tolist() == [0, 2]
    # quantized zeros dropped
    m2 = SparseSymMatrix.from_coords(2, [(0, 1, 1e-14)])
    assert len(m2.vals) == 0
    with pytest.raises(ShapeError):
        SparseSymMatrix.from_coords(2, [(0, 1, 1.0), (1, 0, 2.0)])
    assert SparseSymMatrix.from_coords(2, [(0, 1, 2.0)]).nnz == 2


def test_apply_A_examples():
    inst = maxcut_sdp(er_graph(4, 1.0, 0))
    np.testing.assert_allclose(apply_A(inst, np.eye(4)), np.ones(4))
    np.testing.assert_array_equal(apply_A(inst, np.zeros((4, 4))), np.zeros(4))
    # hand expansion of <A_k, all-ones> on the diagonal-pair instance,
    # cross-checked by the loop oracle
    inst = prop32()
    J = np.ones((3, 3))
    np.testing.assert_allclose(apply_A(inst, J), loop_apply_A(inst, J))
    np.testing.assert_allclose(apply_A(inst, J), [2.0, 2.0])


def test_apply_A_shape_error():
    with pytest.raises(ShapeError):
        apply_A(prop32(), np.zeros((2, 2)))


def test_adjoint_examples():
    inst = prop32()
    np.testing.assert_array_equal(apply_A_adjoint(inst, [0, 0]), np.zeros((3, 3)))
    np.testing.assert_array_equal(apply_A_adjoint(inst, [1, 0]),
                                  inst.A[0].to_dense())
    np.testing.assert_array_equal(
        apply_A_adjoint(inst, [1, 1]),
        np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], dtype=float))
    with pytest.raises(ShapeError):
        apply_A_adjoint(inst, [1.0])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_adjointness(seed):
    rng = np.random.default_rng(seed)
    inst = maxcut_sdp(er_graph(int(rng.integers(2, 8)), 0.6, seed))
    X = symmetrize(rng.standard_normal((inst.n, inst.n)))
    y = rng.standard_normal(inst.m)
    lhs = float(np.sum(apply_A_adjoint(inst, y) * X))
    rhs = float(np.dot(y, apply_A(inst, X)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_objective_examples():
    inst = prop32()
    assert objective(inst, np.zeros((3, 3))) == 0.0
    eye_inst = SdpInstance(n=3, C=np.eye(3), A=prop32().A, b=[1, 1])
    assert objective(eye_inst, np.eye(3)) == 3.0
    rng = np.random.default_rng(0)
    X = symmetrize(rng.standard_normal((3, 3)))
    assert abs(objective(inst, X) - loop_objective(inst, X)) <= 1e-12


def test_relative_obj_gap():
    assert relative_obj_gap(99, 100) == pytest.approx(1.0)
    assert relative_obj_gap(100, 100) == 0.0
    assert relative_obj_gap(-1.01, -1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        relative_obj_gap(1.0, 0.0)


def test_constraint_residual():
    inst = maxcut_sdp(er_graph(5, 0.5, 1))
    assert constraint_residual(inst, np.eye(5)) == 0.0
    assert constraint_residual(inst, np.zeros((5, 5))) == pytest.approx(1.0)
    rng = np.random.default_rng(3)
    X = symmetrize(rng.standard_normal((3, 3)))
    inst = prop32()
    assert abs(constraint_residual(inst, X)
               - loop_constraint_residual(inst, X)) <= 1e-12


def test_constraint_rank():
    assert constraint_rank(prop32()) == 2
    dup = SdpInstance(n=3, C=np.eye(3), A=(prop32().A[0], prop32().A[0]), b=[1, 1])
    assert constraint_rank(dup) == 1
    big = maxcut_sdp(er_graph(65, 0.1, 0))
    with pytest.raises(SizeGuardError):
        constraint_rank(big)


def test_instance_validation():
    with pytest.raises(ShapeError):
        SdpInstance(n=3, C=np.eye(3), A=prop32().A, b=[1.0])
    with pytest.raises(ShapeError):
        SdpInstance(n=2, C=np.eye(2), A=prop32().A, b=[1.0, 1.0])


def test_non_finite_data_rejected():
    with pytest.raises(NonFiniteError):
        SparseSymMatrix.from_coords(2, [(0, 1, np.nan)])
    with pytest.raises(NonFiniteError):
        SparseSymMatrix.from_coords(2, [(0, 0, np.inf)])
    A = prop32().A
    with pytest.raises(NonFiniteError):
        SdpInstance(n=3, C=np.diag([1.0, np.nan, 1.0]), A=A, b=[1.0, 1.0])
    with pytest.raises(NonFiniteError):
        SdpInstance(n=3, C=np.eye(3), A=A, b=[1.0, -np.inf])


def test_package_exports_resolve():
    import sdpxlab

    assert all(hasattr(sdpxlab, name) for name in sdpxlab.__all__)
    namespace: dict = {}
    exec("from sdpxlab import *", namespace)
    assert set(sdpxlab.__all__) <= set(namespace)


def test_permute_instance_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for seed in range(3):
        g = er_graph(7, 0.5, seed)
        instances = [maxcut_sdp(g), maxclique_sdp(g), mis_sdp(g), vertexcover_sdp(g),
                     max2sat_sdp(random_clauses(5, 10, seed)), lmi_sdp(3, 2, seed),
                     lp_to_sdp(rng.standard_normal(4), rng.standard_normal((2, 4)),
                               rng.standard_normal(2)),
                     maxclique_sdp(er_graph(20, 0.5, seed)),  # m close to n^2/4
                     SdpInstance(n=3, C=np.eye(3), b=[0.0, 1.0, 2.0], A=(
                         SparseSymMatrix.from_coords(3, [(0, 1, 2.0), (2, 0, -1.0)]),
                         SparseSymMatrix.from_coords(3, [(1, 2, 1e-14)]),  # no entry left
                         SparseSymMatrix.from_coords(3, [(2, 2, 0.5), (0, 0, 1.5)])))]
        for inst in instances:
            perm = rng.permutation(inst.n).tolist()
            got, ref = permute_instance(inst, perm), loop_permute_instance(inst, perm)
            np.testing.assert_array_equal(got.C, ref.C)
            assert got.A == ref.A
            np.testing.assert_array_equal(got.b, ref.b)
            assert got.metadata == ref.metadata


def test_sparse_operator_matches_dense_oracle():
    rng = np.random.default_rng(17)
    for inst in operator_instances():
        n, m = inst.n, inst.m
        for X in (symmetrize(rng.standard_normal((n, n))), rng.standard_normal((n, n))):
            got = apply_A(inst, X)
            assert got.dtype == np.float64 and got.shape == (m,)
            np.testing.assert_allclose(got, dense_apply_A(inst, X), rtol=1e-12, atol=1e-12)
        y = rng.standard_normal(m)
        got = apply_A_adjoint(inst, y)
        assert got.dtype == np.float64 and got.shape == (n, n)
        np.testing.assert_array_equal(got, got.T)
        np.testing.assert_allclose(got, dense_apply_A_adjoint(inst, y),
                                   rtol=1e-12, atol=1e-12)


def test_neighbor_lists_and_rank_match_oracles():
    for inst in operator_instances():
        assert neighbor_lists(inst) == loop_neighbor_lists(inst)
        assert constraint_rank(inst) == dense_constraint_rank(inst)


def test_neighbor_lists_are_built_once_per_instance():
    for inst in operator_instances():
        first = neighbor_lists(inst)
        assert neighbor_lists(inst) is first
        assert first == loop_neighbor_lists(inst)
        cell_nbrs, con_nbrs = first
        assert type(cell_nbrs) is type(con_nbrs) is tuple
        assert all(type(lst) is tuple for lst in cell_nbrs + con_nbrs)


def test_constraint_operator_is_small_and_read_only():
    # clique at n = 100: m = 2471 constraints, a dense stack would be 198 MB
    inst = maxclique_sdp(er_graph(100, 0.5, 0))
    assert sum(a.nbytes for a in inst.coo) < 1e6
    assert not any(a.flags.writeable for a in inst.coo)
    assert not hasattr(SdpInstance, "dense_A")


_FAMILIES = {"maxcut": maxcut_sdp, "clique": maxclique_sdp, "mis": mis_sdp,
             "vc": vertexcover_sdp}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_FAMILIES)), st.integers(1, 12), st.integers(0, 2 ** 16))
def test_matrix_views_and_coo_match_the_matrix_built_forms(family, n, seed):
    base = _FAMILIES[family](er_graph(n, 0.5, seed))
    perm = np.random.default_rng(seed).permutation(base.n).tolist()
    cons = np.random.default_rng(seed).permutation(base.m).tolist()
    for inst in (base, read_sdpa(write_sdpa(base)), permute_instance(base, perm),
                 reorder_constraints(base, cons)):
        assert not any(a.flags.writeable for a in inst.table)
        assert inst.A == matrices_from_table(inst.n, inst.m, *inst.table)
        for got, want in zip(inst.coo, reference_coo(inst)):
            np.testing.assert_array_equal(got, want)
            assert got.dtype == want.dtype


def test_reorder_constraints_matches_loop_oracle():
    rng = np.random.default_rng(23)
    for inst in operator_instances():
        perm = rng.permutation(inst.m).tolist()
        got, ref = reorder_constraints(inst, perm), loop_reorder_constraints(inst, perm)
        np.testing.assert_array_equal(got.C, ref.C)
        assert got.A == ref.A
        np.testing.assert_array_equal(got.b, ref.b)
        assert got.metadata == ref.metadata


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.data())
def test_order_keys_sort_float_rows_like_lexsort(n_rows, width, data):
    # ties in early columns, zeros of both signs (equal), both infinities
    pool = data.draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=3))
    pool += [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, np.inf, -np.inf]
    table = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=n_rows * width,
                                        max_size=n_rows * width))).reshape(n_rows, width)
    keys = order_keys(table)
    assert keys.shape == (n_rows,)
    np.testing.assert_array_equal(np.argsort(keys, kind="stable"), np.lexsort(table.T[::-1]))


def _matrix_or_error(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


_INDICES = st.integers(-1, 6)
_VALUES = st.one_of(
    st.floats(-10, 10), st.floats(-1e-12, 1e-12),  # many below the quantum
    st.sampled_from([0.0, -0.0, 4.9e-13, -5.1e-13, 1e300, np.nan, np.inf, -np.inf]))


@settings(max_examples=400, deadline=None)
@given(st.integers(-1, 5), st.lists(st.tuples(_INDICES, _INDICES, _VALUES), max_size=10),
       st.data())
def test_coords_table_matches_the_per_triple_loop(n, coords, data):
    # repeat some coordinates as (j, i), with any value, so repeats are common
    for i, j, _ in data.draw(st.lists(st.sampled_from(coords), max_size=3)) if coords else ():
        coords.insert(data.draw(st.integers(0, len(coords))), (j, i, data.draw(_VALUES)))
    got = _matrix_or_error(lambda: SparseSymMatrix.from_coords(n, coords))
    assert got == _matrix_or_error(lambda: reference_from_coords(n, coords))
    if isinstance(got, SparseSymMatrix):
        assert not any(a.flags.writeable for a in (got.rows, got.cols, got.vals))


@pytest.mark.parametrize("coords", [
    [(0, 1, 1.0), (1, 0, np.nan)],                 # a repeat before a non-finite value
    [(2, 2, np.inf), (2, 2, 1.0)],
    [(0, 0, 1.0), (1, 2, -np.inf), (0, 3, 1.0)],   # the first bad entry wins
    [(0, 0, 1.0), (0, 3, 1.0), (1, 2, np.nan)],
    [(1, 0, 1e-13), (0, 1, 2.0)],                  # a dropped value still repeats
    [(3, -1, 1.0), (3, -1, 1.0)],
])
def test_coords_table_reports_the_first_bad_entry_like_the_loop(coords):
    assert (_matrix_or_error(lambda: SparseSymMatrix.from_coords(3, coords))
            == _matrix_or_error(lambda: reference_from_coords(3, coords)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5),
       st.lists(st.lists(st.tuples(_INDICES, _INDICES, _VALUES), max_size=6), max_size=4))
def test_coords_table_of_several_matrices_matches_the_per_matrix_loop(n, groups):
    k = [g for g, coords in enumerate(groups) for _ in coords]
    i, j, v = ([c[f] for coords in groups for c in coords] for f in range(3))

    def table(build):
        out = _matrix_or_error(build)
        return out if isinstance(out, tuple) and isinstance(out[0], type) else [
            (a.dtype, a.tolist()) for a in out]
    assert table(lambda: coords_table(n, k, i, j, v)) == table(
        lambda: entry_table([reference_from_coords(n, coords) for coords in groups]))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6))
def test_from_dense_matches_the_per_entry_loop(seed, n):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n)) * rng.choice([1e-13, 1.0, 1e6], size=(n, n))
    m[rng.random((n, n)) < 0.3] = 0.0
    if n and rng.random() < 0.2:
        m[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf])
    assert (_matrix_or_error(lambda: SparseSymMatrix.from_dense(m))
            == _matrix_or_error(lambda: reference_from_dense(m)))
