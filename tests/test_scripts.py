import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_expressivity_sweep_smoke(capsys):
    code = _load("expressivity_sweep").main(0, 1)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    rows = [dict(kv.split("=", 1) for kv in line.split()) for line in lines]
    # five generators times six algorithms, one line each
    assert len(rows) == 30
    assert len({(r["generator"], r["algo"]) for r in rows}) == 30
    assert all(0.0 < float(r["mean_class_fraction"]) <= 1.0 for r in rows)


def test_convergence_sweep_n12_slice_converges(capsys):
    code = _load("convergence_sweep").main((12,))
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    rows = [dict(kv.split("=", 1) for kv in line.split()) for line in lines]
    # five families times three graph seeds, then the total line
    assert len(rows) == 16
    assert {(r["family"], r["seed"]) for r in rows[:-1]} == {
        (f, s) for f in ("maxcut", "max2sat", "mis", "clique", "vc") for s in "012"}
    assert [r for r in rows[:-1] if r["reason"] != "converged"] == []
    assert all(len(r["stage_iters"].split(",")) == 4 for r in rows[:-1])
    assert (rows[-1]["instances"], rows[-1]["converged"]) == ("15", "15")
