import json

import numpy as np
import pytest

from sdpxlab.cli import main
from sdpxlab.pdhg import PdhgConfig, solve
from sdpxlab.relaxations import random_clauses
from sdpxlab.sdpa import read_sdpa

from oracles import (
    reference_er_graph,
    reference_lmi_sdp,
    reference_max2sat_sdp,
    reference_maxclique_sdp,
    reference_maxcut_sdp,
    reference_mis_sdp,
    reference_regular_graph,
    reference_vertexcover_sdp,
    reference_write_sdpa,
)
from test_sdpa import HUGE_BLOCKS


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_then_solve_end_to_end(tmp_path, capsys):
    path = tmp_path / "t.dat-s"
    code, out, _ = run(["gen", "--problem", "maxcut", "--n", "4", "--p", "1",
                        "--seed", "1", "-o", str(path)], capsys)
    assert code == 0 and path.exists()
    sol = tmp_path / "sol.json"
    code, out, _ = run(["solve", str(path), "--json", str(sol)], capsys)
    assert code == 0
    assert "converged=true reason=converged restarts=" in out and "omega=" in out
    assert "failed_stage" not in out
    payload = json.loads(sol.read_text())
    assert set(payload) >= {"X", "y", "objective", "residuals", "iterations",
                            "converged", "reason"}
    assert payload["reason"] == "converged" and "failed_stage" not in payload
    assert len(payload["X"]) == 4


@pytest.mark.parametrize("extra", [[], ["--eps", "1e-2"]])
def test_solve_not_converged_exits_1_with_output(tmp_path, capsys, extra):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "6", "--p", "0.5",
         "--seed", "1", "-o", str(path)], capsys)
    sol = tmp_path / "sol.json"
    code, out, _ = run(["solve", str(path), "--max-iters", "3", "--json", str(sol)]
                       + extra, capsys)
    assert code == 1
    fields = dict(kv.split("=", 1) for kv in out.split())
    # the continuation stops at its first stage, which hits the cap of 3
    assert fields["iterations"] == "3"
    assert fields.get("failed_stage") == (None if extra else "0")
    assert fields["converged"] == "false"
    assert int(fields["restarts"]) >= 0 and float(fields["omega"]) > 0
    payload = json.loads(sol.read_text())
    assert payload["converged"] is False
    assert fields["reason"] == payload["reason"] == "max_iters"
    assert payload["iterations"] == int(fields["iterations"])
    assert {"restarts", "omega"} <= set(payload) and len(payload["X"]) == 6


def test_solve_names_the_first_stage_that_hit_the_cap(tmp_path, capsys):
    # stage 0 (tol 1e-2) converges in 19 iterations, stage 1 needs 30
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "5", "--p", "0.5",
         "--seed", "3", "-o", str(path)], capsys)
    sol = tmp_path / "sol.json"
    code, out, _ = run(["solve", str(path), "--max-iters", "20", "--json", str(sol)],
                       capsys)
    assert code == 1
    fields = dict(kv.split("=", 1) for kv in out.split())
    assert (fields["reason"], fields["failed_stage"]) == ("max_iters", "1")
    payload = json.loads(sol.read_text())
    assert (payload["reason"], payload["failed_stage"]) == ("max_iters", 1)


def test_solve_warm_start_round_trip(tmp_path, capsys):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "5", "--p", "0.6",
         "--seed", "2", "-o", str(path)], capsys)
    sol = tmp_path / "sol.json"
    run(["solve", str(path), "--json", str(sol)], capsys)
    code, out, _ = run(["solve", str(path), "--warm-start", str(sol)], capsys)
    assert code == 0
    # warm solve regularizes (eps=1e-6) while the saved solution came from
    # the polished continuation, so a short re-converge is expected
    iters = int(out.split("iterations=")[1].split()[0])
    assert iters <= 50


def test_solve_warm_start_uses_saved_weight(tmp_path, capsys):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "30", "--p", "0.3",
         "--seed", "2", "-o", str(path)], capsys)
    sol = tmp_path / "sol.json"
    run(["solve", str(path), "--json", str(sol)], capsys)
    saved = json.loads(sol.read_text())
    code, out, _ = run(["solve", str(path), "--warm-start", str(sol)], capsys)
    assert code == 0
    inst = read_sdpa(path.read_text())
    X0, y0 = np.array(saved["X"]), np.array(saved["y"])
    _, stats = solve(inst, PdhgConfig(), X0=X0, y0=y0, omega=saved["omega"])
    _, cold = solve(inst, PdhgConfig(), X0=X0, y0=y0)
    assert saved["omega"] != 1.0 and stats.iterations != cold.iterations
    assert int(out.split("iterations=")[1].split()[0]) == stats.iterations
    # a file without a weight starts from omega = 1
    del saved["omega"]
    sol.write_text(json.dumps(saved))
    code, out, _ = run(["solve", str(path), "--warm-start", str(sol)], capsys)
    assert int(out.split("iterations=")[1].split()[0]) == cold.iterations


_X5 = [[0.0] * 5] * 5


@pytest.mark.parametrize("content", [
    "not json",
    '{"y": [0, 0, 0, 0, 0]}',
    json.dumps({"X": [[0.0] * 4] * 4}),
    json.dumps({"X": _X5, "y": [0.0] * 4}),
    '{"X": [[NaN, 0, 0, 0, 0]]}',
    "[1, 2]",
    None,
    json.dumps({"X": _X5, "omega": 0}),
    json.dumps({"X": _X5, "omega": -1}),
    json.dumps({"X": _X5, "omega": "x"}),
    json.dumps({"X": _X5, "omega": None}),
    '{"X": %s, "omega": Infinity}' % json.dumps(_X5),
], ids=["not-json", "no-X", "X-wrong-side", "y-wrong-length", "nan-X",
        "not-an-object", "missing-file", "omega-0", "omega-negative",
        "omega-string", "omega-null", "omega-inf"])
def test_solve_bad_warm_start_is_usage_error(tmp_path, capsys, content):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "5", "--p", "0.6",
         "--seed", "2", "-o", str(path)], capsys)
    ws = tmp_path / "ws.json"
    if content is not None:
        ws.write_text(content)
    code, _, err = run(["solve", str(path), "--warm-start", str(ws)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["nan", "1e200"])
def test_solve_non_finite_input_is_error(tmp_path, capsys, value):
    # nan fails in the SDPA reader; 1e200 parses but overflows lambda_max
    path = tmp_path / "bad.dat-s"
    path.write_text(f"1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 {value}\n")
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("text", HUGE_BLOCKS)
def test_solve_block_sizes_too_large_is_error(tmp_path, capsys, text):
    path = tmp_path / "huge.dat-s"
    path.write_text(text)
    code, out, err = run(["solve", str(path)], capsys)
    assert code == 1
    assert err.startswith("error: line 3: ") and "Traceback" not in err
    assert out == ""


def test_color_missing_file_is_usage_error(capsys):
    code, _, err = run(["color", "missing.dat-s"], capsys)
    assert code == 2
    assert "not found" in err


def test_color_round_budget_that_runs_out_is_usage_error(tmp_path, capsys):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "14", "--p", "0.4",
         "--seed", "3", "-o", str(path)], capsys)
    code, out, err = run(["color", str(path), "--algo", "vc2fwl",
                          "--max-rounds", "1"], capsys)
    assert code == 2 and out == ""
    assert "vc2fwl did not stabilize within max_rounds=1" in err
    assert "Algo." not in err and "bug" not in err
    code, out, _ = run(["color", str(path), "--algo", "vc2fwl"], capsys)
    assert code == 0 and "rounds=" in out


def test_color_json_schema(tmp_path, capsys):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "clique", "--n", "5", "--p", "0.5",
         "--seed", "3", "-o", str(path)], capsys)
    out_json = tmp_path / "part.json"
    code, out, _ = run(["color", str(path), "--algo", "vc2fwl",
                        "--json", str(out_json)], capsys)
    assert code == 0
    payload = json.loads(out_json.read_text())
    assert set(payload) == {"var", "con", "rounds"}
    assert len(payload["var"]) == 5


def test_bad_flag_is_usage_error(capsys):
    code, _, _ = run(["gen", "--problem", "nope", "--n", "4", "--seed", "1",
                      "-o", "x"], capsys)
    assert code == 2
    code, _, _ = run(["gen", "--problem", "maxcut", "--n", "4", "--p", "2.0",
                      "--seed", "1", "-o", "x"], capsys)
    assert code == 2
    code, _, _ = run(["solve", "x", "--tol", "-1"], capsys)
    assert code == 2


@pytest.mark.parametrize("args, oracle", [
    (["maxcut", "--n", "9", "--p", "0.4"],
     lambda s: reference_maxcut_sdp(reference_er_graph(9, 0.4, s))),
    (["clique", "--n", "11"], lambda s: reference_maxclique_sdp(reference_er_graph(11, 0.5, s))),
    (["mis", "--n", "10", "--p", "0.3"],
     lambda s: reference_mis_sdp(reference_er_graph(10, 0.3, s))),
    (["vc", "--n", "8", "--p", "0.3"],
     lambda s: reference_vertexcover_sdp(reference_er_graph(8, 0.3, s))),
    (["vc", "--n", "10", "--d", "3"],
     lambda s: reference_vertexcover_sdp(reference_regular_graph(10, 3, s))),
    (["max2sat", "--n", "5"], lambda s: reference_max2sat_sdp(random_clauses(5, 10, s))),
    (["lmi", "--n", "3", "--m", "5"], lambda s: reference_lmi_sdp(3, 5, s)),
], ids=["maxcut", "clique", "mis", "vc-p", "vc-d", "max2sat", "lmi"])
@pytest.mark.parametrize("seed", [0, 7])
def test_gen_writes_the_bytes_of_the_per_constraint_build(tmp_path, capsys, args, oracle, seed):
    path = tmp_path / "t.dat-s"
    code, _, _ = run(["gen", "--problem", *args, "--seed", str(seed), "-o", str(path)], capsys)
    assert code == 0
    assert path.read_bytes() == reference_write_sdpa(oracle(seed)).encode()


@pytest.mark.parametrize("args", [
    ["--problem", "maxcut", "--n", "5", "--d", "3"],
    ["--problem", "maxcut", "--n", "4", "--d", "7"],
    ["--problem", "max2sat", "--n", "1"],
    ["--problem", "max2sat", "--n", "4", "--clauses", "-1"],
    ["--problem", "lmi", "--n", "4", "--m", "-2"],
], ids=["odd-degree-sum", "degree-too-large", "max2sat-one-var",
        "negative-clauses", "negative-m"])
def test_gen_bad_parameters_are_usage_errors(tmp_path, capsys, args):
    path = tmp_path / "t.dat-s"
    code, out, err = run(["gen", *args, "--seed", "0", "-o", str(path)], capsys)
    assert code == 2 and out == "" and not path.exists()
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["--eps", "nan"], ["--eps", "inf"], ["--eps", "-1"],
    ["--tol", "nan"], ["--tol", "inf"], ["--tol", "0"], ["--max-iters", "0"],
], ids=["eps-nan", "eps-inf", "eps-negative", "tol-nan", "tol-inf", "tol-0",
        "max-iters-0"])
def test_solve_bad_config_is_usage_error(tmp_path, capsys, args):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "4", "--p", "0.5",
         "--seed", "1", "-o", str(path)], capsys)
    code, out, err = run(["solve", str(path), *args], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_verify_single_case(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(["verify", "--case", "vcwl_fail",
                        "--json", str(report)], capsys)
    assert code == 0
    assert "case=vcwl_fail pass=true" in out
    payload = json.loads(report.read_text())
    assert payload[0]["case"] == "vcwl_fail"
    assert payload[0]["pass"] is True


def test_verify_unknown_case(capsys):
    code, _, err = run(["verify", "--case", "nope"], capsys)
    assert code == 2


def test_nn_forward_and_checks(tmp_path, capsys):
    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "5", "--p", "0.5",
         "--seed", "4", "-o", str(path)], capsys)
    code, out, _ = run(["nn-forward", str(path), "--arch", "vc2fmpnn",
                        "--layers", "2", "--dim", "6", "--seed", "0"], capsys)
    assert code == 0 and "embedding_norm=" in out
    for check in ("symmetry", "equivariance", "coloring"):
        code, out, _ = run(["nn-forward", str(path), "--arch", "vc2fmpnn",
                            "--layers", "2", "--dim", "6", "--seed", "0",
                            "--check", check], capsys)
        assert code == 0, check
        assert "ok=true" in out


def test_nn_check_tolerances_equal_the_harness(tmp_path, capsys):
    from sdpxlab.nn import Arch
    from sdpxlab.verify import case_nn_properties, prop_diag_pair_instance

    path = tmp_path / "t.dat-s"
    run(["gen", "--problem", "maxcut", "--n", "4", "--p", "0.5",
         "--seed", "4", "-o", str(path)], capsys)
    harness = case_nn_properties([prop_diag_pair_instance()], n_layers=1,
                                 seeds=(0,)).tolerance
    tols = set()
    for arch in Arch:
        for check in ("symmetry", "equivariance"):
            code, out, _ = run(["nn-forward", str(path), "--arch", arch.value,
                                "--layers", "1", "--dim", "4", "--check", check], capsys)
            fields = dict(kv.split("=", 1) for kv in out.split())
            assert code == 0 and fields["ok"] == "true", (arch, check)
            assert float(fields["tolerance"]) == harness[arch.value][check], (arch, check)
            tols.add(float(fields["tolerance"]))
    assert tols == {0.0, 1e-12, 1e-9}


def test_pipeline_is_reproducible(tmp_path, capsys):
    a = tmp_path / "a.dat-s"
    b = tmp_path / "b.dat-s"
    run(["gen", "--problem", "max2sat", "--n", "4", "--clauses", "6",
         "--seed", "9", "-o", str(a)], capsys)
    run(["gen", "--problem", "max2sat", "--n", "4", "--clauses", "6",
         "--seed", "9", "-o", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    sa = tmp_path / "sa.json"
    sb = tmp_path / "sb.json"
    run(["solve", str(a), "--json", str(sa)], capsys)
    run(["solve", str(b), "--json", str(sb)], capsys)
    assert sa.read_bytes() == sb.read_bytes()
