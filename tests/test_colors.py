from functools import cached_property

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdpxlab.colors import (
    Algo,
    Partition,
    RoundBudgetError,
    _intern_rows,
    canonical_labels,
    init_colors,
    joint_encoding_stable,
    refines,
    run_to_stable,
    step,
    vcwl_then_multiset_fwl,
)
from sdpxlab.core import ShapeError, SdpInstance, SparseSymMatrix
from sdpxlab.relaxations import er_graph, maxcut_sdp, maxclique_sdp, vertexcover_sdp
from sdpxlab.verify import (
    latin_square_instance,
    pattern_matches,
    prop_diag_pair_instance,
    sample_instances,
)

from oracles import (
    lexsort_intern_rows,
    reference_init,
    reference_joint_encoding_stable,
    reference_run_to_stable,
    reference_step,
    reference_vcwl_then_multiset_fwl,
    set_refines,
)
from test_core import operator_instances

ALL_ALGOS = (Algo.VCWL, Algo.VC2WL, Algo.VC2FWL, Algo.VC2FWLP,
             Algo.DELTA_VC2WL, Algo.VC2IGNWL)


def prop32():
    return prop_diag_pair_instance()


def _enumerate_init_classes(inst):
    # independent enumeration of distinct (coefficient, diag-flag) pairs
    pairs = {(round(float(inst.C[i, j]), 12), i == j)
             for i in range(inst.n) for j in range(inst.n)}
    return len(pairs)


def test_init_colors_prop32():
    inst = prop32()
    st = init_colors(inst)
    assert len(set(st.var_colors.flat)) == 3 == _enumerate_init_classes(inst)
    # classes: diagonal ones, off-diagonal ones, off-diagonal zeros
    assert st.var_colors[0, 0] == st.var_colors[1, 1] == st.var_colors[2, 2]
    assert st.var_colors[0, 1] != st.var_colors[0, 2]
    assert st.var_colors[0, 2] == st.var_colors[1, 2]
    assert len(set(st.con_colors)) == 1


def test_init_colors_identity_objective():
    inst = SdpInstance(n=3, C=np.eye(3),
                       A=(SparseSymMatrix.from_coords(3, [(0, 0, 1.0)]),),
                       b=[1.0])
    st = init_colors(inst)
    assert len(set(st.var_colors.flat)) == 2
    assert len(set(st.con_colors)) == 1


def test_init_colors_latin_square():
    inst = latin_square_instance()
    st = init_colors(inst)
    # value 1 appears only on the diagonal, so the diagonal flag adds no
    # extra class: 5 off-diagonal values plus the flagged diagonal
    assert len(set(st.var_colors.flat)) == 6 == _enumerate_init_classes(inst)


def test_vcwl_stable_pattern_prop32():
    part, _ = run_to_stable(Algo.VCWL, prop32())
    assert pattern_matches(part.var, "abc/bad/cda")


def test_vc2wl_stable_pattern_prop32():
    part, _ = run_to_stable(Algo.VC2WL, prop32())
    assert pattern_matches(part.var, "abc/bed/cdf")


def test_latin_square_stable_partitions():
    inst = latin_square_instance()
    p2, _ = run_to_stable(Algo.VC2WL, inst)
    assert p2.var[0, 4] == p2.var[1, 3]
    pf, _ = run_to_stable(Algo.VC2FWL, inst)
    assert pf.var[0, 4] != pf.var[1, 3]
    # everything separated except transposed pairs: 6 + 15 classes
    assert pf.n_var_classes == 21


def test_one_by_one_instance():
    inst = SdpInstance(n=1, C=[[1.0]],
                       A=(SparseSymMatrix.from_coords(1, [(0, 0, 1.0)]),),
                       b=[1.0])
    for algo in ALL_ALGOS:
        part, rounds = run_to_stable(algo, inst)
        assert part.n_var_classes == 1
        assert rounds == 1


def test_step_rejects_algo_mismatch():
    inst = prop32()
    st = step(Algo.VCWL, init_colors(inst), inst)
    with pytest.raises(ShapeError):
        step(Algo.VC2FWL, st, inst)


def test_refines_reflexive_and_singleton():
    inst = prop32()
    p, _ = run_to_stable(Algo.VC2FWL, inst)
    assert refines(p, p)
    coarse = Partition(var=np.zeros((3, 3), dtype=np.int64),
                       con=np.ones(2, dtype=np.int64), rounds=0)
    assert refines(p, coarse)
    with pytest.raises(ShapeError):
        refines(p, Partition(var=np.zeros((2, 2), dtype=np.int64),
                             con=np.zeros(2, dtype=np.int64), rounds=0))


def test_fwl_refines_vcwl_on_random_maxcut():
    # the containment is the theorem; this sweep is the check
    for seed in range(20):
        inst = maxcut_sdp(er_graph(5 + seed % 5, 0.5, seed))
        pf, _ = run_to_stable(Algo.VC2FWL, inst)
        pw, _ = run_to_stable(Algo.VCWL, inst)
        assert refines(pf, pw)


def test_stepwise_monotone_and_bounded():
    for seed in range(4):
        inst = maxclique_sdp(er_graph(6, 0.5, seed))
        for algo in ALL_ALGOS:
            part, rounds = run_to_stable(algo, inst)
            assert rounds <= inst.n * inst.n + inst.m


def test_symmetry_of_stable_classes():
    for inst in sample_instances(11, per_generator=1, n_lo=4, n_hi=8):
        for algo in ALL_ALGOS:
            part, _ = run_to_stable(algo, inst)
            np.testing.assert_array_equal(part.var, part.var.T)


def test_determinism():
    inst = maxcut_sdp(er_graph(7, 0.5, 9))
    for algo in ALL_ALGOS:
        a, ra = run_to_stable(algo, inst)
        b, rb = run_to_stable(algo, inst)
        assert a == b and ra == rb


def test_run_to_stable_respects_max_rounds():
    with pytest.raises(ValueError):
        run_to_stable(Algo.VCWL, prop32(), max_rounds=0)
    _, rounds = run_to_stable(Algo.VC2FWL, prop32())
    assert rounds > 1
    assert run_to_stable(Algo.VC2FWL, prop32(), max_rounds=rounds)[1] == rounds
    with pytest.raises(RoundBudgetError, match="vc2fwl did not stabilize"):
        run_to_stable(Algo.VC2FWL, prop32(), max_rounds=rounds - 1)


def test_partition_json_shape():
    part, _ = run_to_stable(Algo.VC2FWL, prop32())
    d = part.to_json_dict()
    assert set(d) == {"var", "con", "rounds"}
    assert len(d["var"]) == 3 and len(d["con"]) == 2


def differential_instances():
    """Every operator instance (the seven hand-built verify instances among
    them), two sampled instances of each generator at n <= 12, and max-cut
    and vertex cover at n = 24."""
    return (operator_instances() + sample_instances(3, per_generator=2)
            + [maxcut_sdp(er_graph(24, 0.3, 1)), vertexcover_sdp(er_graph(23, 0.3, 1))])


def test_joint_encoding_matches_dense_oracle():
    for inst in differential_instances():
        got, ref = joint_encoding_stable(inst), reference_joint_encoding_stable(inst)
        assert got == ref and got.rounds == ref.rounds


def _canon(var, con):
    return canonical_labels(np.reshape(var, -1).tolist(), np.reshape(con, -1).tolist())


def _assert_dense(state):
    for ids in (state.var_colors, state.con_colors):
        assert ids.dtype == np.int64
        assert set(ids.flat) == set(range(len(set(ids.flat))))


def test_refinement_matches_python_oracle():
    # round by round from init_colors, since verify.nn_deviations steps
    # the colors alongside the layers
    for inst in differential_instances():
        for algo in ALL_ALGOS:
            part, rounds = run_to_stable(algo, inst)
            ref, ref_rounds = reference_run_to_stable(algo, inst)
            assert part == ref and rounds == ref_rounds == part.rounds, (inst.n, algo)
            state, (var, con) = init_colors(inst), reference_init(inst)
            for _ in range(rounds + 1):
                _assert_dense(state)
                assert _canon(state.var_colors, state.con_colors) == _canon(var, con)
                state = step(algo, state, inst)
                var, con = reference_step(algo, inst, var, con)
        got, ref = vcwl_then_multiset_fwl(inst), reference_vcwl_then_multiset_fwl(inst)
        assert got == ref and got.rounds == ref.rounds


def test_int_view_is_built_once_per_instance(monkeypatch):
    built = []
    build = SdpInstance.int_view.func

    def counting(inst):
        built.append(inst)
        return build(inst)

    prop = cached_property(counting)
    prop.__set_name__(SdpInstance, "int_view")
    monkeypatch.setattr(SdpInstance, "int_view", prop)
    instances = [prop32(), latin_square_instance(), maxcut_sdp(er_graph(7, 0.5, 9))]
    for inst in instances:
        for algo in ALL_ALGOS:
            run_to_stable(algo, inst)
            state = init_colors(inst)
            for _ in range(3):
                state = step(algo, state, inst)
        joint_encoding_stable(inst)
        vcwl_then_multiset_fwl(inst)
    assert len(built) == len(instances)
    assert all(a is b for a, b in zip(built, instances))


_INT64 = np.iinfo(np.int64)


@st.composite
def int_tables(draw):
    """Tables of 0 to 12 rows and 0 to 6 columns whose entries come from a
    small pool holding both int64 extremes, -1, 0 and 1, so that rows tie
    in early columns and repeat."""
    n_rows, width = draw(st.integers(0, 12)), draw(st.integers(0, 6))
    pool = draw(st.lists(st.integers(_INT64.min, _INT64.max), max_size=3))
    pool += [_INT64.min, _INT64.min + 1, -1, 0, 1, _INT64.max - 1, _INT64.max]
    values = draw(st.lists(st.sampled_from(pool), min_size=n_rows * width,
                           max_size=n_rows * width))
    return np.array(values, dtype=np.int64).reshape(n_rows, width)


@settings(max_examples=200, deadline=None)
@given(int_tables())
@example(np.zeros((0, 0), dtype=np.int64))
@example(np.zeros((0, 3), dtype=np.int64))
@example(np.zeros((2, 0), dtype=np.int64))
@example(np.array([[_INT64.max]], dtype=np.int64))
@example(np.array([[_INT64.max], [_INT64.min], [-1], [0]], dtype=np.int64))
@example(np.array([[-1, _INT64.max], [-1, _INT64.min], [0, 0]], dtype=np.int64))
def test_intern_rows_ids_equal_the_lexsort_oracle(table):
    got = _intern_rows(table)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, lexsort_intern_rows(table))


def test_refines_matches_the_set_oracle():
    seen = set()
    for inst in sample_instances(4, per_generator=1, n_lo=3, n_hi=7):
        state = init_colors(inst)
        parts = [Partition(var=state.var_colors, con=state.con_colors, rounds=0)]
        parts += [run_to_stable(algo, inst)[0] for algo in ALL_ALGOS]
        parts.append(Partition(var=np.zeros((inst.n, inst.n), dtype=np.int64),
                               con=np.zeros(inst.m, dtype=np.int64), rounds=0))
        for p in parts:
            for q in parts:
                got = refines(p, q)
                assert got == set_refines(p, q), (inst.n, inst.m)
                seen.add(got)
    assert seen == {True, False}
