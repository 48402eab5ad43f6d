from itertools import islice

import numpy as np
import pytest

from sdpxlab.pdhg import PdhgConfig, restarted_iterates

from sdpxlab.verify import (
    CASE_IDS,
    CASES,
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
    pattern_matches,
    prop_diag_pair_instance,
    run_all,
    run_case,
    sample_instances,
    trajectory_instances,
)


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


def test_trajectory_refinement_holds_across_restarts(monkeypatch):
    import sdpxlab.verify as verify_mod

    # the spread check of the trajectory case, along the iterates of
    # pdhg.solve, whose primal weight changes at every restart
    monkeypatch.setattr(verify_mod, "iterates", restarted_iterates)
    for case_id, inst in trajectory_instances(0):
        report = check_trajectory_refinement(inst, case_id=case_id)
        assert report.passed, (case_id, report.observed)
        *_, last = islice(restarted_iterates(inst, PdhgConfig().eps), 500)
        assert last.restarts >= 2 and last.omega != 1.0, case_id


def test_trajectory_spread_zero_on_fully_symmetric_instance():
    from sdpxlab.core import SdpInstance, SparseSymMatrix
    inst = SdpInstance(n=3, C=np.eye(3),
                       A=(SparseSymMatrix.from_coords(3, [(i, i, 1.0) for i in range(3)]),),
                       b=[1.0])
    report = check_trajectory_refinement(inst, iters=100)
    assert report.passed
    assert report.observed["worst_relative_spread"] == 0.0


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
