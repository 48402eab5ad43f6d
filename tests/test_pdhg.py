import math
import warnings
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdpxlab.core import (
    DivergenceError,
    NumericalError,
    SdpInstance,
    ShapeError,
    SparseSymMatrix,
    apply_A_adjoint,
    objective,
    permute_instance,
    symmetrize,
)
from sdpxlab.pdhg import (
    EPS_LADDER,
    RHO,
    PdhgConfig,
    continuation_outcome,
    iterates,
    kkt_residuals,
    lambda_max_op,
    min_norm_solution,
    project_psd,
    solve,
    solve_continuation,
    stage_tol,
)
from sdpxlab.relaxations import er_graph, maxcut_sdp
from sdpxlab.verify import latin_square_instance, prop_diag_pair_instance, sample_instances

from oracles import (
    bisection_eigvals,
    dense_stack,
    penalty_objective,
    reference_eig_sym,
    reference_iterates,
    reference_project_psd,
    reference_restarted_solve,
    reference_solve,
)
from test_verify import prop32


def one_dim(c=1.0, a=1.0, b=1.0):
    return SdpInstance(n=1, C=[[c]],
                       A=(SparseSymMatrix.from_coords(1, [(0, 0, a)]),),
                       b=[b])


def slack_instance(M):
    """Instance whose slack at y = 0 is C = M (one constraint, A = E_00)."""
    n = M.shape[0]
    return SdpInstance(n=n, C=M,
                       A=(SparseSymMatrix.from_coords(n, [(0, 0, 1.0)]),),
                       b=[0.0])


# --- spectral decomposition and projection -------------------------------

def test_project_psd_diagonal_and_zero_are_exact():
    np.testing.assert_array_equal(project_psd(np.diag([3.0, 1.0])),
                                  np.diag([3.0, 1.0]))
    np.testing.assert_array_equal(project_psd(np.zeros((3, 3))), np.zeros((3, 3)))


def test_dual_residual_against_bisection_oracle():
    # at X = 0, y = 0 the slack is C, and its distance from the PSD cone
    # is the 2-norm of the negative eigenvalues
    rng = np.random.default_rng(7)
    M = symmetrize(rng.standard_normal((5, 5)))
    _, dual, _ = kkt_residuals(slack_instance(M), np.zeros((5, 5)), np.zeros(1))
    lam = bisection_eigvals(M)
    assert dual == pytest.approx(float(np.sqrt(np.sum(np.minimum(lam, 0.0) ** 2))),
                                 abs=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_reference_eig_sym_invariants(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    M = symmetrize(rng.standard_normal((n, n)) * 5)
    eigvals, eigvecs = reference_eig_sym(M)
    recon = (eigvecs * eigvals) @ eigvecs.T
    assert np.linalg.norm(recon - M) <= 1e-8 * max(1.0, np.linalg.norm(M))
    assert np.linalg.norm(eigvecs.T @ eigvecs - np.eye(n)) <= 1e-8
    assert np.all(np.diff(eigvals) <= 1e-12)


def _symmetric_case(kind: str, n: int, scale: float, rng) -> np.ndarray:
    G = rng.standard_normal((n, n))
    if kind == "psd":
        M = G @ G.T
    elif kind == "nsd":
        M = -(G @ G.T)
    elif kind == "low_rank":
        r = int(rng.integers(1, min(n, 3) + 1))
        B = G[:, :r]
        M = (B * rng.choice([-1.0, 1.0], size=r)) @ B.T
    elif kind == "diagonal":
        M = np.diag(G[0])
    elif kind == "zero":
        M = np.zeros((n, n))
    else:
        M = G
    return symmetrize(M * scale)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["general", "psd", "nsd", "low_rank", "diagonal", "zero"]),
       st.integers(1, 60), st.integers(-3, 3), st.integers(0, 2 ** 32 - 1))
def test_project_psd_and_dual_residual_match_reference(kind, n, log_scale, seed):
    M = _symmetric_case(kind, n, 10.0 ** log_scale, np.random.default_rng(seed))
    tol = 1e-12 * max(1.0, float(np.linalg.norm(M)))
    R = reference_project_psd(M)
    assert np.linalg.norm(project_psd(M) - R) <= tol
    _, dual, _ = kkt_residuals(slack_instance(M), np.zeros((n, n)), np.zeros(1))
    assert abs(dual - float(np.linalg.norm(M - R))) <= tol


def test_solve_does_one_eigendecomposition_per_step(monkeypatch):
    import sdpxlab.pdhg as pdhg_mod

    calls = {"eigh": 0, "eigvalsh": 0, "eigh_in_stop_test": 0}
    eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
    dual_and_gap = pdhg_mod._dual_and_gap

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def stop_test(X, S):
        before = calls["eigh"]
        out = dual_and_gap(X, S)
        calls["eigh_in_stop_test"] += calls["eigh"] - before
        return out

    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
    monkeypatch.setattr(pdhg_mod, "_dual_and_gap", stop_test)
    _, stats = solve(maxcut_sdp(er_graph(8, 0.5, 3)))
    assert stats.converged and stats.restarts >= 1
    assert calls["eigh"] == stats.iterations
    assert calls["eigvalsh"] >= 1
    assert calls["eigh_in_stop_test"] == 0


def test_solve_computes_adjoint_once_per_step(monkeypatch):
    import sdpxlab.pdhg as pdhg_mod

    calls = {"adjoint": 0, "in_lambda_max": False}
    adjoint, lambda_max = pdhg_mod.apply_A_adjoint, pdhg_mod.lambda_max_op

    def counted_adjoint(inst, y):
        calls["adjoint"] += not calls["in_lambda_max"]
        return adjoint(inst, y)

    def flagged_lambda_max(*args, **kwargs):
        calls["in_lambda_max"] = True
        try:
            return lambda_max(*args, **kwargs)
        finally:
            calls["in_lambda_max"] = False

    monkeypatch.setattr(pdhg_mod, "apply_A_adjoint", counted_adjoint)
    monkeypatch.setattr(pdhg_mod, "lambda_max_op", flagged_lambda_max)
    _, stats = solve(maxcut_sdp(er_graph(8, 0.5, 3)))
    assert stats.converged
    # one A*(y) for the start, then one per step; the stop test reuses it
    assert calls["adjoint"] <= stats.iterations + 1


def test_project_psd_examples():
    Z = np.array([[2.0, -1.0], [-1.0, 3.0]])  # PSD
    assert np.linalg.norm(project_psd(Z) - Z) <= 1e-8
    np.testing.assert_array_equal(project_psd(np.diag([1.0, -2.0])),
                                  np.diag([1.0, 0.0]))
    np.testing.assert_allclose(project_psd([[0.0, 1.0], [1.0, 0.0]]),
                               [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_project_psd_is_frobenius_projection(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    M = symmetrize(rng.standard_normal((n, n)) * 3)
    P = project_psd(M)
    assert np.linalg.eigvalsh(P).min() >= -1e-8
    base = np.linalg.norm(P - M)
    for _ in range(10):
        B = rng.standard_normal((n, n))
        Z = B @ B.T  # random PSD
        assert base <= np.linalg.norm(Z - M) + 1e-8


# --- operator norm --------------------------------------------------------

def test_lambda_max_examples():
    inst = SdpInstance(n=3, C=np.zeros((3, 3)),
                       A=(SparseSymMatrix.from_coords(3, [(i, i, 1.0) for i in range(3)]),),
                       b=[1.0])
    assert lambda_max_op(inst) == pytest.approx(3.0, rel=1e-5)
    assert lambda_max_op(maxcut_sdp(er_graph(2, 1.0, 0))) == pytest.approx(1.0, rel=1e-5)
    zero = SdpInstance(n=2, C=np.eye(2),
                       A=(SparseSymMatrix.from_coords(2, []),), b=[0.0])
    with pytest.raises(NumericalError):
        lambda_max_op(zero)


def test_lambda_max_rejects_overflow():
    # |A|^2 = 1e400 overflows: a typed error, not a bare assert or NaNs
    # and no RuntimeWarning from the overflow on the way
    inst = SdpInstance(n=2, C=np.eye(2),
                       A=(SparseSymMatrix.from_coords(2, [(0, 0, 1e200)]),), b=[1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError):
            lambda_max_op(inst)
        with pytest.raises(NumericalError):
            solve(inst)


def test_lambda_max_against_gram():
    for seed in range(5):
        inst = maxcut_sdp(er_graph(6, 0.6, seed))
        flat = dense_stack(inst).reshape(inst.m, -1)
        lam_gram = float(np.linalg.eigvalsh(flat @ flat.T).max())
        lam = lambda_max_op(inst)
        assert lam >= lam_gram * (1 - 1e-4)
        assert lam <= lam_gram * (1 + 1e-6)


# --- iteration ------------------------------------------------------------

def test_pdhg_step_fixed_point_at_zero_data():
    inst = SdpInstance(n=2, C=np.zeros((2, 2)),
                       A=(SparseSymMatrix.from_coords(2, [(0, 0, 1.0)]),),
                       b=[0.0])
    nxt = next(iterates(inst, 1e-6))
    np.testing.assert_array_equal(nxt.X, np.zeros((2, 2)))
    np.testing.assert_array_equal(nxt.y, np.zeros(1))


def test_pdhg_step_hand_trace():
    # lambda_max = 1, so alpha = 1 and beta = RHO: X stays 0 since C > 0
    nxt = next(iterates(one_dim(), 0.0))
    assert nxt.t == 1
    assert nxt.X[0, 0] == 0.0
    assert nxt.y[0] == pytest.approx(-0.9)


def test_pdhg_step_rejects_nonfinite():
    with pytest.raises(DivergenceError):
        next(iterates(one_dim(), 1e-6, X0=np.array([[np.inf]])))


def test_iterates_rejects_wrong_shapes():
    inst = maxcut_sdp(er_graph(4, 1.0, 0))
    with pytest.raises(ShapeError):
        next(iterates(inst, 1e-6, X0=np.zeros((3, 3))))
    with pytest.raises(ShapeError):
        next(iterates(inst, 1e-6, y0=np.zeros(3)))
    with pytest.raises(ShapeError):
        solve(inst, X0=np.zeros((5, 5)))


@pytest.mark.parametrize("omega", [0.0, -1.0, np.inf, np.nan])
def test_iterates_rejects_bad_weight(omega):
    with pytest.raises(ValueError, match="primal weight"):
        next(iterates(one_dim(), 1e-6, omega=omega))


def _engine_instances():
    return [prop_diag_pair_instance(), latin_square_instance(),
            maxcut_sdp(er_graph(8, 0.5, 3))]


def test_iterates_match_reference_loop():
    for inst in _engine_instances():
        states = list(islice(iterates(inst, 1e-6), 200))
        first = next(s.t for s in states if s.restarts)  # the step after the restart
        assert states[-1].restarts >= 1
        # the fixed-weight loop, bit for bit, up to the first restart
        for state, (X, y, primal, step_res) in zip(states[:first - 1],
                                                   reference_iterates(inst, 1e-6)):
            np.testing.assert_array_equal(state.X, X)
            np.testing.assert_array_equal(state.y, y)
            assert (state.primal_res, state.step_res) == (primal, step_res)
            assert (state.omega, state.restarts) == (1.0, 0)
        # the restarted loop after it; a tolerance below zero never stops early
        for state in states[first - 1::17] + states[-1:]:
            X, y, iters, _, restarts, omega = reference_restarted_solve(
                inst, tol=-1.0, max_iters=state.t)
            np.testing.assert_array_equal(state.X, X)
            np.testing.assert_array_equal(state.y, y)
            assert (state.t, state.restarts, state.omega) == (iters, restarts, omega)


def test_solve_matches_reference_loop():
    for inst in _engine_instances():
        triple, stats = solve(inst)
        X, y, iters, converged, restarts, omega = reference_restarted_solve(inst)
        assert (stats.iterations, stats.converged) == (iters, converged)
        assert (stats.restarts, stats.omega) == (restarts, omega)
        assert restarts >= 1
        np.testing.assert_array_equal(triple.X, X)
        np.testing.assert_array_equal(triple.y, y)


def test_solve_matches_fixed_weight_loop_until_first_restart():
    for inst in _engine_instances():
        first = next(s for s in iterates(inst, 1e-6) if s.restarts)
        last_fixed = first.t - 1  # the restart comes after this step
        triple, stats = solve(inst, PdhgConfig(max_iters=last_fixed))
        X, y, iters, converged = reference_solve(inst, max_iters=last_fixed)
        assert (stats.iterations, stats.restarts, stats.omega) == (iters, 0, 1.0)
        assert not stats.converged and not converged
        np.testing.assert_array_equal(triple.X, X)
        np.testing.assert_array_equal(triple.y, y)
        # the restart changes the next step
        _, fixed = islice(reference_iterates(inst, 1e-6), last_fixed - 1, last_fixed + 1)
        assert first.omega != 1.0
        assert not np.array_equal(first.X, fixed[0])


def test_continuation_matches_reference_loop():
    # every stage, including the warm starts, the weight carried between
    # stages and the unregularized KKT stop
    for inst in (prop_diag_pair_instance(), maxcut_sdp(er_graph(8, 0.5, 3))):
        triple, stages = solve_continuation(inst)
        ladder = [(eps, False) for eps in EPS_LADDER] + [(0.0, True)]
        X = y = None
        omega = 1.0
        for stats, (eps, polish) in zip(stages, ladder):
            X, y, iters, converged, restarts, omega = reference_restarted_solve(
                inst, eps, tol=stage_tol(eps, PdhgConfig.tol), X0=X, y0=y, omega=omega,
                kkt_stop=polish)
            assert (stats.iterations, stats.converged) == (iters, converged)
            assert (stats.restarts, stats.omega) == (restarts, omega)
        assert sum(s.restarts for s in stages) >= 1
        np.testing.assert_array_equal(triple.X, X)
        np.testing.assert_array_equal(triple.y, y)


def test_capped_continuation_stops_at_the_failed_stage():
    # stage 0 (tol 1e-2) converges in 19 iterations, stage 1 stops at the cap
    inst = maxcut_sdp(er_graph(5, 0.5, 3))
    cfg = PdhgConfig(max_iters=20)
    triple, stages = solve_continuation(inst, cfg)
    assert [(s.iterations, s.reason) for s in stages] == [(19, "converged"), (20, "max_iters")]
    assert continuation_outcome(stages) == ("max_iters", 1)
    X = y = None
    omega = 1.0
    for eps in EPS_LADDER[:2]:
        stage_cfg = PdhgConfig(eps=eps, tol=stage_tol(eps, cfg.tol), max_iters=20)
        last, stats = solve(inst, stage_cfg, X0=X, y0=y, omega=omega)
        X, y, omega = last.X, last.y, stats.omega
    np.testing.assert_array_equal(triple.X, last.X)
    np.testing.assert_array_equal(triple.y, last.y)


def test_restart_weight_does_not_depend_on_labels():
    inst = maxcut_sdp(er_graph(10, 0.5, 1))
    perm = np.random.default_rng(0).permutation(10).tolist()
    _, stages = solve_continuation(inst)
    _, relabeled = solve_continuation(permute_instance(inst, perm))
    for a, b in zip(stages, relabeled):
        assert (a.iterations, a.restarts) == (b.iterations, b.restarts)
        assert a.omega == pytest.approx(b.omega, rel=1e-9)


def test_no_restart_at_an_exact_fixed_point():
    # prop_diag_pair reaches fp_res == 0 within 100 steps at eps = 1e-6
    states = list(islice(iterates(prop_diag_pair_instance(), 1e-6), 300))
    assert states[150].fp_res == 0.0
    assert states[-1].restarts == states[150].restarts >= 1


def test_continuation_runs_one_power_iteration(monkeypatch):
    import sdpxlab.pdhg as pdhg_mod

    calls = []
    original = pdhg_mod.lambda_max_op

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return original(inst, *args, **kwargs)

    monkeypatch.setattr(pdhg_mod, "lambda_max_op", counted)
    inst = maxcut_sdp(er_graph(8, 0.5, 3))
    _, stages = solve_continuation(inst)
    assert len(stages) == 4 and sum(s.restarts for s in stages) >= 1
    assert calls == [inst]
    # the cached estimate is the seeded power iteration's, bit for bit
    assert inst.lambda_max == original(inst)


def test_unconverged_solve_reports_the_final_dual_residual():
    # step 48 passes the primal and step tests and fails the dual one, and
    # step 49, the last, fails the primal test: the dual is step 49's
    inst = sample_instances(0, 3)[0]
    cfg = PdhgConfig(eps=1e-2, tol=1e-3, max_iters=49)
    triple, stats = solve(inst, cfg)
    assert (stats.iterations, stats.converged) == (49, False)
    S = inst.C + cfg.eps * triple.X + apply_A_adjoint(inst, triple.y)
    assert stats.dual_res == pytest.approx(
        float(np.linalg.norm(S - project_psd(S))), rel=1e-9)


def test_solve_one_dim():
    triple, stats = solve(one_dim())
    assert stats.converged
    assert triple.X[0, 0] == pytest.approx(1.0, abs=1e-5)
    assert stats.primal_res <= 1e-6


def test_solve_trace_one_identity_objective():
    inst = SdpInstance(n=2, C=np.eye(2),
                       A=(SparseSymMatrix.from_coords(2, [(0, 0, 1.0), (1, 1, 1.0)]),),
                       b=[1.0])
    triple, stats = solve(inst, PdhgConfig(eps=1e-6))
    np.testing.assert_allclose(triple.X, np.eye(2) / 2, atol=1e-4)


def test_solve_matches_penalty_oracle():
    inst = maxcut_sdp(er_graph(10, 0.5, 7))
    triple, _ = solve_continuation(inst)
    assert abs(objective(inst, triple.X) - penalty_objective(inst)) <= 1e-4


def test_unbounded_instance_reports_not_converged():
    # min -(X00 + 2 X01 + X11) with only X00 pinned: X11 escapes to +inf
    inst = SdpInstance(n=2, C=-np.ones((2, 2)),
                       A=(SparseSymMatrix.from_coords(2, [(0, 0, 1.0)]),),
                       b=[1.0])
    triple, stats = solve(inst, PdhgConfig(max_iters=500))
    assert not stats.converged and stats.reason == "max_iters"


def test_config_validation():
    for bad in ({"eps": -1.0}, {"tol": 0.0}, {"max_iters": 0},
                {"eps": math.nan}, {"eps": math.inf},
                {"tol": math.nan}, {"tol": math.inf}):
        with pytest.raises(ValueError):
            PdhgConfig(**bad).validate()
    PdhgConfig(eps=0.0).validate()


# --- minimum-norm continuation -------------------------------------------

def test_min_norm_diag_block():
    inst = SdpInstance(n=3, C=np.eye(3),
                       A=(SparseSymMatrix.from_coords(3, [(0, 0, 1.0), (1, 1, 1.0)]),
                          SparseSymMatrix.from_coords(3, [(2, 2, 1.0)])),
                       b=[1.0, 1.0])
    X = min_norm_solution(inst)
    np.testing.assert_allclose(np.diag(X), [0.5, 0.5, 1.0], atol=1e-3)


def test_min_norm_one_dim():
    X = min_norm_solution(one_dim())
    assert X[0, 0] == pytest.approx(1.0, abs=1e-5)


def test_min_norm_is_smallest_among_independent_runs():
    inst = maxcut_sdp(er_graph(6, 0.6, 2))
    X = min_norm_solution(inst)
    rng = np.random.default_rng(0)
    for _ in range(3):
        Z = symmetrize(rng.standard_normal((6, 6)))
        alt, stats = solve(inst, PdhgConfig(eps=0.0), X0=Z)
        if stats.primal_res <= 1e-5:
            assert np.linalg.norm(X) <= np.linalg.norm(alt.X) + 1e-3


def test_kkt_residuals():
    inst = one_dim()
    triple, _ = solve_continuation(inst)
    primal, dual, gap = kkt_residuals(inst, triple.X, triple.y)
    assert max(primal, dual, gap) <= 1e-6
    inst = maxcut_sdp(er_graph(4, 1.0, 0))
    primal, _, _ = kkt_residuals(inst, np.zeros((4, 4)), np.zeros(4))
    assert primal == pytest.approx(1.0)
    inst = prop32()
    triple, _ = solve_continuation(inst)
    assert max(kkt_residuals(inst, triple.X, triple.y)) <= 1e-4


def test_min_norm_divergence_reports_stage(monkeypatch):
    import sdpxlab.pdhg as pdhg_mod

    def boom(*args, **kwargs):
        raise DivergenceError("boom")

    monkeypatch.setattr(pdhg_mod, "solve", boom)
    with pytest.raises(DivergenceError, match="stage 0"):
        solve_continuation(one_dim())


# --- warm start -----------------------------------------------------------

def test_warm_start_at_solution_is_instant():
    inst = maxcut_sdp(er_graph(8, 0.5, 4))
    triple, _ = solve(inst)
    _, stats = solve(inst, X0=triple.X, y0=triple.y)
    assert stats.iterations <= 5


def test_warm_start_at_zero_equals_cold():
    inst = maxcut_sdp(er_graph(8, 0.5, 4))
    cold_triple, cold = solve(inst)
    triple, stats = solve(inst, X0=np.zeros((8, 8)), y0=np.zeros(8))
    assert stats.iterations == cold.iterations
    np.testing.assert_array_equal(triple.X, cold_triple.X)


def test_warm_start_beats_cold_smoke():
    rng = np.random.default_rng(1)
    for seed in range(3):
        inst = maxcut_sdp(er_graph(8, 0.5, seed))
        triple, cold = solve(inst)
        noise = rng.standard_normal((8, 8))
        X0 = triple.X + 1e-3 * symmetrize(noise)
        _, warm = solve(inst, X0=X0, y0=triple.y)
        assert warm.iterations < cold.iterations


def test_primal_residual_trend_is_monotone_smoke():
    inst = maxcut_sdp(er_graph(8, 0.5, 3))
    k = 20
    hist = [s.primal_res for s in islice(iterates(inst, 1e-6), 10 * k)]
    assert hist[10 * k - 1] <= hist[k - 1]


def test_step_size_relation_holds():
    # A = 2 on n = 1: lambda_max = 4.  From zero with C = 0 the first step
    # gives y = -beta and the second X = 2*alpha*beta, so
    # alpha*beta*lambda_max = 2*X
    inst = SdpInstance(n=1, C=[[0.0]],
                       A=(SparseSymMatrix.from_coords(1, [(0, 0, 2.0)]),), b=[1.0])
    first, second = islice(iterates(inst, 0.0), 2)
    assert first.y[0] == pytest.approx(-RHO / 2)      # beta = RHO/(alpha*lambda)
    assert 2 * second.X[0, 0] == pytest.approx(RHO)
