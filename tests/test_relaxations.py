import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpxlab.core import (
    SdpInstance,
    SdpxlabError,
    ShapeError,
    SparseSymMatrix,
    constraint_residual,
    objective,
)
from sdpxlab.pdhg import min_norm_solution, solve_continuation
from sdpxlab.relaxations import (
    ClauseMatrix,
    Graph,
    co_value,
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

from oracles import (
    maxcut_triangle_objective,
    penalty_objective,
    reference_check_graph,
    reference_er_graph,
    reference_lmi_sdp,
    reference_lp_to_sdp,
    reference_max2sat_sdp,
    reference_maxclique_sdp,
    reference_maxcut_sdp,
    reference_mis_sdp,
    reference_regular_graph,
    reference_vertexcover_sdp,
)


def triangle():
    return Graph(n_nodes=3, edges=((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def test_graph_validation():
    with pytest.raises(ShapeError):
        Graph(n_nodes=2, edges=((0, 0, 1.0),))
    with pytest.raises(ShapeError):
        Graph(n_nodes=2, edges=((0, 1, 1.0), (0, 1, 2.0)))
    with pytest.raises(ShapeError):
        Graph(n_nodes=2, edges=((1, 0, 1.0),))


def test_er_graph_extremes():
    assert er_graph(4, 0.0, 1).n_edges == 0
    assert er_graph(4, 1.0, 1).n_edges == 6
    with pytest.raises(ValueError):
        er_graph(4, 1.5, 1)


def test_regular_graph_degrees():
    g = regular_graph(6, 2, 0)
    deg = np.zeros(6, dtype=int)
    for u, v, _ in g.edges:
        deg[u] += 1
        deg[v] += 1
    assert np.all(deg == 2)
    with pytest.raises(ValueError):
        regular_graph(5, 3, 0)  # odd stub count


def test_generators_are_deterministic():
    for build in (lambda s: maxcut_sdp(er_graph(7, 0.4, s)),
                  lambda s: max2sat_sdp(random_clauses(4, 6, s)),
                  lambda s: lmi_sdp(3, 4, s)):
        assert build(13) == build(13)


def test_maxcut_single_edge():
    inst = maxcut_sdp(Graph(n_nodes=2, edges=((0, 1, 1.0),)))
    np.testing.assert_array_equal(inst.C, [[0, 0.25], [0.25, 0]])
    assert inst.m == 2
    np.testing.assert_array_equal(inst.b, [1.0, 1.0])


def test_maxcut_empty_graph_optimum_is_identity():
    inst = maxcut_sdp(Graph(n_nodes=3, edges=()))
    X = min_norm_solution(inst)
    np.testing.assert_allclose(X, np.eye(3), atol=1e-4)


def test_maxcut_triangle_value():
    inst = maxcut_sdp(triangle())
    triple, _ = solve_continuation(inst)
    val = objective(inst, triple.X)
    assert val == pytest.approx(maxcut_triangle_objective(), abs=1e-4)
    assert val == pytest.approx(penalty_objective(inst), abs=1e-4)
    assert co_value(inst, val) == pytest.approx(9.0 / 4.0, abs=1e-3)


def test_clique_complete_graph():
    inst = maxclique_sdp(Graph(n_nodes=3, edges=triangle().edges))
    assert inst.m == 1  # only the trace constraint
    triple, _ = solve_continuation(inst)
    assert objective(inst, triple.X) == pytest.approx(-3.0, abs=1e-3)
    np.testing.assert_allclose(triple.X, np.ones((3, 3)) / 3, atol=1e-3)


def test_clique_single_node():
    inst = maxclique_sdp(Graph(n_nodes=1, edges=()))
    X = min_norm_solution(inst)
    assert X[0, 0] == pytest.approx(1.0, abs=1e-5)
    assert objective(inst, X) == pytest.approx(-1.0, abs=1e-4)


def test_mis_empty_two_node_graph():
    inst = mis_sdp(Graph(n_nodes=2, edges=()))
    triple, _ = solve_continuation(inst)
    assert objective(inst, triple.X) == pytest.approx(-2.0, abs=1e-3)


def test_vertexcover_shapes_and_values():
    single = vertexcover_sdp(Graph(n_nodes=2, edges=((0, 1, 1.0),)))
    assert single.n == 3 and single.m == 4
    empty = vertexcover_sdp(Graph(n_nodes=3, edges=()))
    Xe = min_norm_solution(empty)
    assert co_value(empty, objective(empty, Xe)) == pytest.approx(0.0, abs=1e-3)
    k2 = vertexcover_sdp(Graph(n_nodes=2, edges=((0, 1, 1.0),)))
    triple, _ = solve_continuation(k2)
    assert co_value(k2, objective(k2, triple.X)) == pytest.approx(1.0, abs=1e-3)


def test_max2sat_hand_expansion():
    cm = ClauseMatrix(matrix=np.array([[1, 1]]))
    inst = max2sat_sdp(cm)
    expect = np.array([[0, 1, -1], [1, 0, -1], [-1, -1, 0]]) / 8.0
    np.testing.assert_allclose(inst.C, expect)
    assert inst.m == 3
    empty = max2sat_sdp(ClauseMatrix(matrix=np.zeros((0, 2), dtype=int)))
    np.testing.assert_array_equal(empty.C, np.zeros((3, 3)))


def test_max2sat_all_true_lift_matches_quadratic_form():
    cm = random_clauses(4, 6, seed=3)
    inst = max2sat_sdp(cm)
    A = cm.matrix.astype(float)
    x = np.ones(4)
    direct = (x @ A.T @ A @ x - 2 * np.ones(6) @ A @ x) / 8.0
    lifted = objective(inst, np.ones((5, 5)))
    assert co_value(inst, lifted) == pytest.approx(direct, abs=1e-12)


def test_clause_matrix_validation():
    with pytest.raises(ShapeError):
        ClauseMatrix(matrix=np.array([[1, 1, 1]]))
    with pytest.raises(ShapeError):
        ClauseMatrix(matrix=np.array([[0, 0]]))
    with pytest.raises(ShapeError):
        ClauseMatrix(matrix=np.array([[2, 0]]))


def test_lmi_known_point_is_feasible():
    inst = lmi_sdp(4, 6, seed=0)
    assert inst.m == 7  # appended trace constraint
    # recover the certificate: solve for it as the unique PSD trace-one
    # point satisfying the constraints is not needed; feasibility of the
    # generated data is checked through the recorded rhs
    again = read_sdpa(write_sdpa(inst))
    np.testing.assert_array_equal(inst.C, again.C)


def test_lmi_builder_feasibility_by_construction():
    # regenerate with the same seed path to recover P directly
    n, m, seed = 3, 4, 11
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((n, n))
    P = B @ B.T + 0.1 * np.eye(n)
    P /= np.trace(P)
    inst = lmi_sdp(n, m, seed=seed)
    assert constraint_residual(inst, P) <= 1e-10


def test_lp_embedding():
    inst = lp_to_sdp([1.0], [[1.0]], [1.0])
    assert inst.n == 1 and inst.m == 1
    X = min_norm_solution(inst)
    assert X[0, 0] == pytest.approx(1.0, abs=1e-5)

    inst = lp_to_sdp([0.0, 1.0], [[1.0, 1.0]], [1.0])
    assert inst.m == 1 + 1  # one LP row plus one off-diagonal pin
    X = min_norm_solution(inst)
    np.testing.assert_allclose(X, np.diag([1.0, 0.0]), atol=1e-3)

    inst = lp_to_sdp([1.0, 2.0, 3.0], [[1.0, 0, 0]], [1.0])
    assert inst.m == 1 + 3


def test_feasibility_witnesses():
    g = er_graph(5, 0.5, 2)
    assert constraint_residual(maxcut_sdp(g), np.eye(5)) <= 1e-10
    assert constraint_residual(maxclique_sdp(g), np.eye(5) / 5) <= 1e-10
    assert constraint_residual(mis_sdp(g), np.eye(5) / 5) <= 1e-10
    assert constraint_residual(vertexcover_sdp(g), np.ones((6, 6))) <= 1e-10
    cm = random_clauses(4, 5, 1)
    assert constraint_residual(max2sat_sdp(cm), np.ones((5, 5))) <= 1e-10


def test_generated_instances_round_trip():
    g = er_graph(5, 0.6, 4)
    for inst in (maxcut_sdp(g), maxclique_sdp(g), mis_sdp(g),
                 vertexcover_sdp(g), max2sat_sdp(random_clauses(4, 6, 0))):
        again = read_sdpa(write_sdpa(inst))
        np.testing.assert_array_equal(inst.C, again.C)
        assert all(a == b for a, b in zip(inst.A, again.A))
        np.testing.assert_array_equal(inst.b, again.b)


def _outcome(build):
    """The bytes of every array of the instance ``build()`` returns, its
    dtypes and metadata, or the type and message of what it raises."""
    try:
        inst = build()
    except Exception as exc:
        return type(exc), str(exc)
    arrays = (inst.C, inst.b, *inst.table)
    return (inst.n, inst.metadata, [a.dtype for a in arrays],
            [a.tobytes() for a in arrays])


GRID = [(n, p, seed) for n in (1, 2, 5, 12, 30) for p in (0.0, 0.3, 0.5, 1.0)
        for seed in range(3)]
REGULAR = [(6, 2), (10, 3), (9, 4), (8, 0)]


def test_er_graph_draws_like_the_per_pair_loop():
    for n, p, seed in [(0, 0.5, 0), *GRID]:
        assert er_graph(n, p, seed) == reference_er_graph(n, p, seed)


def test_regular_graph_pairs_like_the_per_pair_loop():
    for (n, d), seed in [(nd, seed) for nd in [*REGULAR, (30, 4), (12, 5)] for seed in range(3)]:
        try:
            want = reference_regular_graph(n, d, seed)
        except SdpxlabError as exc:  # (12, 5): no simple graph in 100 tries
            with pytest.raises(SdpxlabError, match=str(exc)):
                regular_graph(n, d, seed)
        else:
            assert regular_graph(n, d, seed) == want


_WEIGHTS = st.sampled_from([1.0, -2.5, np.nan, np.inf])


@settings(max_examples=300, deadline=None)
@given(st.integers(-1, 6),
       st.lists(st.tuples(st.integers(-1, 7), st.integers(-1, 7), _WEIGHTS), max_size=8),
       st.data())
def test_graph_check_matches_the_per_edge_loop(n, edges, data):
    for u, v, _ in data.draw(st.lists(st.sampled_from(edges), max_size=3)) if edges else ():
        edges.insert(data.draw(st.integers(0, len(edges))), (u, v, data.draw(_WEIGHTS)))

    def error(check):
        try:
            check()
        except ShapeError as exc:
            return str(exc)
        return None
    assert (error(lambda: Graph(n_nodes=n, edges=tuple(edges)))
            == error(lambda: reference_check_graph(n, edges)))


@pytest.mark.parametrize("build, oracle", [
    (maxcut_sdp, reference_maxcut_sdp), (maxclique_sdp, reference_maxclique_sdp),
    (mis_sdp, reference_mis_sdp), (vertexcover_sdp, reference_vertexcover_sdp),
], ids=["maxcut", "clique", "mis", "vc"])
def test_graph_generators_match_the_per_constraint_build(build, oracle):
    graphs = [er_graph(n, p, seed) for n, p, seed in GRID]
    graphs += [regular_graph(n, d, seed) for n, d in REGULAR for seed in range(3)]
    graphs.append(Graph(n_nodes=4, edges=((0, 3, 2.5), (1, 2, -1.0))))
    for g in graphs:
        assert _outcome(lambda: build(g)) == _outcome(lambda: oracle(g))


def test_max2sat_matches_the_per_constraint_build():
    for n_vars, seed in [(n_vars, seed) for n_vars in (2, 3, 5, 12) for seed in range(3)]:
        for k in (0, n_vars, 2 * n_vars):
            cm = random_clauses(n_vars, k, seed)
            assert _outcome(lambda: max2sat_sdp(cm)) == _outcome(lambda: reference_max2sat_sdp(cm))


def test_lmi_matches_the_per_constraint_build():
    for n, m, seed in [(n, m, seed) for n in (1, 2, 3, 5) for m in (0, 1, 4, 9)
                       for seed in range(3)]:
        assert _outcome(lambda: lmi_sdp(n, m, seed)) == _outcome(
            lambda: reference_lmi_sdp(n, m, seed))


def test_lp_to_sdp_matches_the_per_constraint_build():
    rng = np.random.default_rng(0)
    cases = [([1.0, 2.0], [[np.nan, 1.0]], [1.0]),             # the oracle's errors
             ([1.0, 2.0], [[1.0, 0.0], [2.0, -np.inf]], [1.0, np.nan]),
             ([np.nan, 2.0], [[1.0, 1.0]], [1.0])]
    for _ in range(40):
        n, rows = int(rng.integers(1, 7)), int(rng.integers(0, 4))
        A = rng.standard_normal((rows, n)) * (rng.random((rows, n)) < 0.5)  # zero coefficients
        A[rng.random((rows, n)) < 0.2] = -3e-13  # quantizes to zero: dropped
        cases.append((rng.standard_normal(n), A, rng.standard_normal(rows)))
    for c, A, b in cases:
        assert _outcome(lambda: lp_to_sdp(c, A, b)) == _outcome(
            lambda: reference_lp_to_sdp(c, A, b))


@pytest.mark.parametrize("build, error, message", [
    (lambda: maxcut_sdp(Graph(n_nodes=0, edges=())), ShapeError,
     "side length must be positive, got 0"),
    (lambda: maxclique_sdp(Graph(n_nodes=0, edges=())), ShapeError,
     "side length must be positive, got 0"),
    (lambda: mis_sdp(er_graph(0, 0.5, 0)), ShapeError, "side length must be positive, got 0"),
    (lambda: vertexcover_sdp(er_graph(-3, 0.5, 0)), ShapeError,
     "node count must be >= 0, got -3"),
    (lambda: max2sat_sdp(random_clauses(-1, 2, 0)), ValueError,
     "need at least 2 variables for 2-literal clauses"),
    (lambda: lmi_sdp(0, 2, 0), ShapeError, "need n >= 1 and m >= 0, got n=0, m=2"),
    (lambda: lmi_sdp(-2, 2, 0), ShapeError, "need n >= 1 and m >= 0, got n=-2, m=2"),
    (lambda: lp_to_sdp([], np.zeros((0, 0)), []), ShapeError,
     "side length must be positive, got 0"),
    (lambda: SdpInstance(n=0, C=np.zeros((0, 0)), A=(), b=[]), ShapeError,
     "side length must be positive, got 0"),
], ids=["maxcut", "clique", "mis", "vc", "max2sat", "lmi-zero", "lmi-negative", "lp",
        "instance"])
def test_zero_and_negative_sizes_raise_typed_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_generators_build_no_matrix_per_constraint(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a generator built a SparseSymMatrix")

    monkeypatch.setattr(SparseSymMatrix, "from_coords", classmethod(refuse))
    monkeypatch.setattr(SparseSymMatrix, "__init__", refuse)
    g = er_graph(100, 0.5, 0)
    assert maxclique_sdp(g).m == 1 + len(g.non_edges())
    assert vertexcover_sdp(g).m == 101 + g.n_edges
    for inst in (maxcut_sdp(g), mis_sdp(g), max2sat_sdp(random_clauses(6, 12, 0)),
                 lmi_sdp(3, 4, 0), lp_to_sdp([1.0, 2.0], [[1.0, 0.0]], [1.0])):
        assert len(inst.table[0]) > 0
