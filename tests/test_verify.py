from dataclasses import replace
from itertools import islice

import numpy as np
import pytest

import oracles
import sdpxlab.colors as colors_mod
import sdpxlab.nn as nn_mod
import sdpxlab.verify as verify_mod
from sdpxlab.colors import Partition
from sdpxlab.nn import Arch, decode, forward
from sdpxlab.pdhg import PdhgConfig, iterates
from sdpxlab.relaxations import er_graph, maxcut_sdp
from sdpxlab.verify import (
    CASE_IDS,
    CASES,
    NN_TOLERANCES,
    case_delta_strict,
    case_fwlplus_strict,
    case_incomparable,
    case_multiset_encoding_fail,
    case_nn_properties,
    case_seq_pipeline_fail,
    case_vc2wl_fail,
    case_vcwl_fail,
    check_aux_graph,
    check_color_equivariance,
    check_hierarchy,
    check_scale_lemma,
    check_trajectory_refinement,
    nn_deviations,
    pattern_matches,
    prop_diag_pair_instance,
    run_all,
    run_case,
    sample_instances,
    trajectory_instances,
)
from test_core import operator_instances


def prop32():
    return prop_diag_pair_instance()


def test_pattern_matcher():
    mat = np.array([[7, 3, 5], [3, 7, 0], [5, 0, 7]])
    assert pattern_matches(mat, "abc/bad/cda")
    assert not pattern_matches(mat, "abc/bed/cdf")
    with pytest.raises(ValueError):
        pattern_matches(mat, "ab/cd")


def test_counterexample_cases_pass():
    for case in (case_vcwl_fail, case_vc2wl_fail, case_fwlplus_strict,
                 case_incomparable, case_delta_strict,
                 case_multiset_encoding_fail):
        report = case()
        assert report.passed, (report.case_id, report.observed)


def test_seq_pipeline_case():
    report = case_seq_pipeline_fail()
    assert report.passed, report.observed
    assert abs(report.observed["x13"] - (-4.889)) < 5e-3
    assert abs(report.observed["x14"]) < 1e-3


def test_trajectory_case_on_prop32():
    report = check_trajectory_refinement(prop32(), iters=200)
    assert report.passed


def test_trajectory_refinement_holds_across_restarts():
    # the trajectory case reads the iterates of pdhg.solve, whose primal
    # weight changes at every restart
    for case_id, inst in trajectory_instances(0):
        report = check_trajectory_refinement(inst, case_id=case_id)
        assert report.passed, (case_id, report.observed)
        *_, last = islice(iterates(inst, PdhgConfig().eps), 500)
        assert last.restarts >= 2 and last.omega != 1.0, case_id


def test_trajectory_spread_zero_on_fully_symmetric_instance():
    from sdpxlab.core import SdpInstance, SparseSymMatrix
    inst = SdpInstance(n=3, C=np.eye(3),
                       A=(SparseSymMatrix.from_coords(3, [(i, i, 1.0) for i in range(3)]),),
                       b=[1.0])
    report = check_trajectory_refinement(inst, iters=100)
    assert report.passed
    assert report.observed["worst_relative_spread"] == 0.0


def differential_instances():
    return operator_instances() + sample_instances(3, 2)


def test_trajectory_check_matches_the_per_class_oracle():
    # the solver cannot step without a constraint operator (m = 0)
    for inst in (inst for inst in differential_instances() if inst.nnz):
        got = check_trajectory_refinement(inst, iters=100).to_json_dict()
        want = oracles.reference_trajectory_refinement(inst, iters=100).to_json_dict()
        assert got["pass"] and got == want, (got, want)


def _one_class(algo, inst, max_rounds=None):
    return Partition(var=np.zeros((inst.n, inst.n), dtype=np.int64),
                     con=np.ones(inst.m, dtype=np.int64), rounds=1), 1


def test_trajectory_check_fails_when_classes_are_too_coarse(monkeypatch):
    # every cell in one class: the first iterate off the diagonal breaks it
    inst = maxcut_sdp(er_graph(6, 0.5, 1))
    monkeypatch.setattr(verify_mod, "run_to_stable", _one_class)
    report = check_trajectory_refinement(inst, iters=50)
    assert not report.passed
    assert report.observed["spread"] > report.observed["bound"] > 0
    assert report.observed["iteration"] >= 1
    # with one class per block the largest spread is the first one
    monkeypatch.setattr(colors_mod, "run_to_stable", _one_class)
    want = oracles.reference_trajectory_refinement(inst, iters=50)
    assert report.to_json_dict() == want.to_json_dict()


def _perturbed_forward(arch, inst, d, n_layers, seed):
    """``forward`` plus a bump that depends on the cell and constraint
    index, which breaks every property that ``nn_deviations`` checks."""
    states, params = forward(arch, inst, d, n_layers, seed)
    n, m = inst.n, inst.m
    var_bump = 1e-6 * np.arange(n * n, dtype=np.float64).reshape(n, n, 1)
    con_bump = 1e-6 * np.arange(m, dtype=np.float64).reshape(m, 1)
    return [replace(st, var=st.var + var_bump, con=st.con + con_bump)
            for st in states], params


def _oracle_deviations(*args) -> dict:
    return {"symmetry": oracles.nn_symmetry_deviation(*args),
            "equivariance": oracles.nn_equivariance_deviation(*args),
            "invariance": oracles.nn_invariance_deviation(*args),
            "coloring": oracles.nn_coloring_respect(*args)}


@pytest.mark.parametrize("arch", list(Arch))
def test_nn_deviations_match_the_per_property_oracles(arch, monkeypatch):
    # the layers keep every property exactly, so the deviations are zero;
    # passes bumped per cell and per constraint compare deviations above
    # the tolerances and failed colorings
    for inst in differential_instances():
        for seed in (0, 1):
            args = (arch, inst, 4, 2, seed)
            dev = nn_deviations(*args)
            assert dev == _oracle_deviations(*args), (inst.n, inst.m, seed)
            assert dev["symmetry"] == dev["equivariance"] == dev["invariance"] == 0.0
            assert dev["coloring"] is True
    monkeypatch.setattr(verify_mod, "forward", _perturbed_forward)
    monkeypatch.setattr(nn_mod, "forward", _perturbed_forward)
    invariance = []
    for inst in differential_instances():
        args = (arch, inst, 4, 1, 0)
        dev = nn_deviations(*args)
        assert dev == _oracle_deviations(*args), (inst.n, inst.m)
        assert dev["symmetry"] > NN_TOLERANCES[arch]["symmetry"]
        assert dev["equivariance"] > NN_TOLERANCES[arch]["equivariance"]
        assert dev["coloring"] is False
        invariance.append(dev["invariance"])
    # zero where the drawn constraint order is the identity
    assert 0 < np.count_nonzero(invariance) < len(invariance)


@pytest.mark.parametrize("arch", list(Arch))
def test_nn_deviations_are_zero_on_the_nn_properties_inputs(arch):
    # d = 8 and 3 layers, where a matrix-vector readout rounded each cell by
    # its row position and moved the decoded output by up to 6e-14
    for inst in sample_instances(4, 1, 4, 7, ("maxcut", "maxclique")):
        for seed in (0, 1):
            dev = nn_deviations(arch, inst, 8, 3, seed)
            assert dev["symmetry"] == dev["equivariance"] == dev["invariance"] == 0.0, (
                inst.n, seed, dev)

def test_nn_deviations_flag_perturbed_constraints_and_readout(monkeypatch):
    # maxcut's diagonal constraints share one color, so a bump on the
    # constraint embeddings alone breaks the coloring
    inst = maxcut_sdp(er_graph(5, 0.6, 2))
    ramp = 1e-6 * np.arange(inst.n * inst.n, dtype=np.float64).reshape(inst.n, inst.n)

    def con_bumped(arch, inst, d, n_layers, seed):
        states, params = forward(arch, inst, d, n_layers, seed)
        return [replace(st, con=st.con + ramp[0, :inst.m, None]) for st in states], params

    def readout_bumped(state, params):
        return decode(state, params) + ramp

    with monkeypatch.context() as patch:
        patch.setattr(verify_mod, "forward", con_bumped)
        dev = nn_deviations(Arch.VCMPNN, inst, 4, 1, 0)
    assert not dev["coloring"] and dev["symmetry"] <= 1e-12
    monkeypatch.setattr(verify_mod, "decode", readout_bumped)
    dev = nn_deviations(Arch.VCMPNN, inst, 4, 1, 0)
    assert dev["coloring"] and dev["equivariance"] > NN_TOLERANCES[Arch.VCMPNN]["equivariance"]


def test_nn_properties_runs_three_forward_passes_per_input(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return forward(*args, **kwargs)

    monkeypatch.setattr(verify_mod, "forward", counted)
    insts = sample_instances(9, per_generator=1, n_lo=4, n_hi=5,
                             generators=("maxcut", "maxclique"))
    report = case_nn_properties(insts, d=4, n_layers=1, seeds=(0, 1))
    assert report.passed, report.observed
    assert len(calls) == 3 * len(insts) * len(Arch) * 2


def test_scale_lemma_case():
    report = check_scale_lemma(prop32())
    assert report.passed, report.observed


def test_hierarchy_and_equivariance_sweeps():
    insts = sample_instances(5, per_generator=2, n_lo=4, n_hi=8)
    assert check_hierarchy(insts).passed
    assert check_aux_graph(insts[:4]).passed
    assert check_color_equivariance(insts[:4]).passed


def test_nn_properties_case():
    insts = sample_instances(9, per_generator=1, n_lo=4, n_hi=6,
                             generators=("maxcut",))
    report = case_nn_properties(insts, seeds=(0,))
    assert report.passed, report.observed


def test_reports_carry_provenance():
    report = case_vcwl_fail()
    assert report.expected
    for item in report.expected.values():
        assert item["provenance"] in ("PAPER", "TRIVIAL", "DERIVED")
    payload = report.to_json_dict()
    assert set(payload) == {"case", "pass", "observed", "expected", "tolerance"}


def test_run_case_unknown_id():
    with pytest.raises(ValueError):
        run_case("nope")


def test_run_all_is_deterministic_on_a_subset():
    subset = ("vcwl_fail", "fwlplus_strict", "hierarchy")
    a, ok_a = run_all(seed=3, case_ids=subset)
    b, ok_b = run_all(seed=3, case_ids=subset)
    assert ok_a and ok_b
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_case_ids_unique():
    assert len(set(CASE_IDS)) == len(CASE_IDS)


def test_case_table_keys_are_case_ids_in_order():
    assert tuple(CASES) == CASE_IDS == (
        "vcwl_fail", "vc2wl_fail", "fwlplus_strict", "incomparable",
        "delta_strict", "seq_pipeline_fail", "multiset_encoding_fail",
        "trajectory", "scale_lemma", "hierarchy", "aux_graph",
        "equivariance", "nn_properties")
