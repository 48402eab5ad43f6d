"""First-order primal-dual solver for Frobenius-regularized linear SDPs.

The iteration alternates a projected primal step and an extrapolated dual
ascent step,

    X' <- Proj_PSD[ (X - a*(A*(y) + C)) / (1 + a*eps) ]
    y  <- y + b*( A(X' + (X' - X)) - b_rhs ),

with step sizes a = omega/sqrt(lambda_max(A*A)) and a*b = rho/lambda_max,
rho < 1, primal first.  The primal weight omega balances the two steps.
``iterates`` is the one implementation of this update and of its
adaptive restarts: ``solve`` adds stopping rules to it, and the trajectory
check in ``verify`` inspects the same iterates.  A restart (as in PDLP) keeps
the current iterate and moves omega toward the ratio of the distances X
and y travelled since the last restart, once the fixed-point residual has
fallen to a fifth of its value at the start of the restart period.
lambda_max is estimated once per instance, so restarts and continuation
stages share it.  Each step does one eigendecomposition, for the
projection; the dual residual of the stopping test needs only the
eigenvalues of the slack.  ``solve(inst, cfg, X0=, y0=, omega=)``
warm-starts from a given primal/dual pair and primal weight.
Minimum-Frobenius-norm solutions are obtained by warm-started continuation
over the shrinking regularization ladder eps = 1e-2, 1e-4, 1e-6.  Each
ladder stage stops at its own eps (``stage_tol``: tolerances 1e-2, 1e-4
and 1e-6 at the default tol), and an unregularized polish stage then
stops on full KKT residuals at tol (1e-6).  A stage that stops at the
iteration cap ends the continuation.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from .core import (
    DivergenceError,
    NumericalError,
    SdpInstance,
    ShapeError,
    SolutionTriple,
    apply_A,
    apply_A_adjoint,
    objective,
    symmetrize,
)

EPS_LADDER = (1e-2, 1e-4, 1e-6)
RHO = 0.9  # fraction of the step-size stability bound a*b*lambda_max < 1 in use
RESTART_DECAY = 0.2  # restart once the fixed-point residual falls to this fraction
LAMBDA_TOL = 1e-6  # relative change that stops the power iteration for lambda_max
LAMBDA_MAX_ITERS = 5000  # power-iteration steps per random start


def stage_tol(eps: float, tol: float) -> float:
    """Stopping tolerance of the continuation stage at regularization
    ``eps`` when the final tolerance is ``tol``.

    A stage's optimum lies O(eps) from the next stage's, so residuals
    below eps buy nothing the next stage keeps; never below ``tol``.
    """
    return max(tol, eps)


@dataclass(frozen=True)
class PdhgConfig:
    """Regularization weight and stopping parameters."""

    eps: float = 1e-6
    tol: float = 1e-6
    max_iters: int = 20000

    def validate(self):
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_iters < 1:
            raise ValueError(f"tol must be finite and > 0 and max_iters >= 1, "
                             f"got tol={self.tol}, max_iters={self.max_iters}")


@dataclass(frozen=True)
class PdhgState:
    """Iterate after step ``t`` with A*(y), which the next step and the
    stopping test reuse, its primal and relative step residuals, the
    fixed-point residual of the step in the PDHG metric, and the primal
    weight of the step with the number of restarts before it."""

    X: np.ndarray
    y: np.ndarray
    Aty: np.ndarray
    t: int
    primal_res: float
    step_res: float
    fp_res: float
    omega: float
    restarts: int


@dataclass
class PdhgStats:
    """Outcome of one ``solve``.  ``reason`` says why it stopped:
    ``"converged"`` or ``"max_iters"`` (divergence raises instead)."""

    iterations: int
    reason: str
    primal_res: float
    dual_res: float
    step_res: float
    objective: float
    restarts: int
    omega: float

    @property
    def converged(self) -> bool:
        return self.reason == "converged"

    def to_json_dict(self) -> dict:
        return {
            "iterations": self.iterations,
            "converged": self.converged,
            "reason": self.reason,
            "residuals": {"primal": self.primal_res, "dual": self.dual_res,
                          "step": self.step_res},
            "objective": self.objective,
            "restarts": self.restarts,
            "omega": self.omega,
        }


def project_psd(M) -> np.ndarray:
    """Nearest PSD matrix in Frobenius norm: drop negative eigen-pairs."""
    arr = symmetrize(M)
    diag = np.diagonal(arr)
    if np.count_nonzero(arr) == np.count_nonzero(diag):
        # diagonal input: clamp, exactly
        return np.diag(np.maximum(diag, 0.0))
    try:
        w, V = np.linalg.eigh(arr)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    k = np.searchsorted(w, 0.0, side="right")  # w ascends: keep w > 0
    return symmetrize((V[:, k:] * w[k:]) @ V[:, k:].T)


def lambda_max_op(inst: SdpInstance) -> float:
    """Largest eigenvalue of X -> A*(A(X)) by power iteration on S^n."""
    if inst.nnz == 0:
        raise NumericalError("constraint operator is zero")
    rng = np.random.default_rng(0)
    # huge coefficients overflow: a NumericalError below, not a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        for _restart in range(5):
            M = symmetrize(rng.standard_normal((inst.n, inst.n)))
            M /= np.linalg.norm(M)
            lam = 0.0
            for _ in range(LAMBDA_MAX_ITERS):
                T = apply_A_adjoint(inst, apply_A(inst, M))
                nrm = float(np.linalg.norm(T))
                if nrm == 0.0:
                    break  # start was orthogonal to the range; restart
                new_lam = float(np.einsum("ij,ij->", M, T))
                if not math.isfinite(new_lam):
                    raise NumericalError(f"operator norm estimate is {new_lam}; "
                                         "constraint coefficients too large")
                M = T / nrm
                if abs(new_lam - lam) <= LAMBDA_TOL * max(abs(new_lam), 1e-30):
                    return new_lam
                lam = new_lam
            else:
                return lam
    raise NumericalError("power iteration kept collapsing to zero")


def iterates(inst: SdpInstance, eps: float, X0=None, y0=None, omega: float = 1.0
             ) -> Iterator[PdhgState]:
    """Yield the PDHG iterate after each step, without end, from (X0, y0).

    The step sizes are a = omega/sqrt(lambda_max) and b = RHO/(a*lambda_max),
    with the instance's cached lambda_max of A*A.  ``X0`` (default zero) is
    projected onto the PSD cone first and ``y0`` defaults to zero.

    The iteration restarts at the current iterate after the first step
    whose ``fp_res`` is at most RESTART_DECAY times that of the first step
    since the last restart, if that was positive (an exact fixed point
    never restarts).  A restart sets omega <- exp(log(D_X/D_y)/2 +
    log(omega)/2), where D_X and D_y are the distances X and y moved since
    the last restart (the first period measures from X0 and y0 as given,
    zero by default); the weight stays if either distance is at most
    1e-10.  The first ``next`` raises ``ShapeError`` for a start of the
    wrong shape and ``ValueError`` for a weight that is not positive and
    finite; any step raises ``DivergenceError`` on a non-finite iterate.
    """
    n, m = inst.n, inst.m
    X = np.zeros((n, n)) if X0 is None else np.asarray(X0, dtype=np.float64)
    y = np.zeros(m) if y0 is None else np.asarray(y0, dtype=np.float64)
    if X.shape != (n, n) or y.shape != (m,):
        raise ShapeError(f"start (X0, y0) has shapes {X.shape}, {y.shape}; "
                         f"expected {(n, n)}, {(m,)}")
    if not (0.0 < omega < math.inf):
        raise ValueError(f"primal weight must be positive and finite, got {omega}")
    anchor_X, anchor_y = X, y
    if X0 is not None:
        X = project_psd(X)
    lam = inst.lambda_max
    alpha = omega / math.sqrt(lam)
    Aty = apply_A_adjoint(inst, y)
    t = restarts = 0
    r0 = None  # fp_res of the first step since the last restart
    while True:
        t += 1
        beta = RHO / (alpha * lam)
        Z = (X - alpha * (Aty + inst.C)) / (1.0 + alpha * eps)
        if not np.all(np.isfinite(Z)):
            raise DivergenceError(f"non-finite iterate at t={t}")
        Xn = project_psd(Z)
        yn = y + beta * (apply_A(inst, Xn + (Xn - X)) - inst.b)
        if not (np.all(np.isfinite(Xn)) and np.all(np.isfinite(yn))):
            raise DivergenceError(f"non-finite iterate at t={t}")
        dX, dy = Xn - X, yn - y
        dx_norm = float(np.linalg.norm(dX))
        step_res = dx_norm / max(1.0, float(np.linalg.norm(X)))
        primal = float(np.max(np.abs(apply_A(inst, Xn) - inst.b))) if m else 0.0
        Atyn = apply_A_adjoint(inst, yn)
        # |(dX, dy)|^2 in the metric [[I/a, -A*], [-A, I/b]], positive
        # definite since a*b*lambda_max = RHO < 1
        fp2 = (dx_norm * dx_norm / alpha + float(dy @ dy) / beta
               - 2.0 * float(np.einsum("ij,ij->", Atyn - Aty, dX)))
        fp_res = math.sqrt(max(fp2, 0.0))
        X, y, Aty = Xn, yn, Atyn
        yield PdhgState(X=X, y=y, Aty=Aty, t=t, primal_res=primal,
                        step_res=step_res, fp_res=fp_res, omega=omega,
                        restarts=restarts)
        if r0 is None:
            r0 = fp_res
        if 0.0 < r0 and fp_res <= RESTART_DECAY * r0:
            dist_X = float(np.linalg.norm(X - anchor_X))
            dist_y = float(np.linalg.norm(y - anchor_y))
            if dist_X > 1e-10 and dist_y > 1e-10:
                omega = math.exp(0.5 * math.log(dist_X / dist_y) + 0.5 * math.log(omega))
            alpha = omega / math.sqrt(lam)
            anchor_X, anchor_y, restarts, r0 = X, y, restarts + 1, None


def _dual_and_gap(X, S) -> tuple[float, float]:
    """Distance of the slack S from the PSD cone, and the gap |<X, S>|.

    The distance |S - Proj_PSD(S)|_F is the 2-norm of the negative part of
    S's spectrum, so it needs eigenvalues only.
    """
    try:
        w = np.linalg.eigvalsh(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc
    return (float(np.linalg.norm(np.minimum(w, 0.0))),
            abs(float(np.einsum("ij,ij->", X, S))))


def solve(inst: SdpInstance, cfg: PdhgConfig | None = None,
          X0: np.ndarray | None = None, y0: np.ndarray | None = None,
          omega: float = 1.0, kkt_stop: bool = False
          ) -> tuple[SolutionTriple, PdhgStats]:
    """Iterate until primal, dual and step residuals all fall below tol.

    ``X0``, ``y0`` and the primal weight ``omega`` warm-start
    ``iterates``; the stats report its restarts and final weight.  On
    iteration exhaustion the last iterate is returned with reason
    ``"max_iters"`` (no exception).  The dual residual is the distance
    of the slack S = C + eps*X + A*(y) from the PSD cone.  ``kkt_stop``
    additionally requires the complementarity gap |<X, S>| <= tol, used by
    the final, unregularized continuation stage.
    """
    cfg = cfg or PdhgConfig()
    cfg.validate()
    running_min = math.inf
    converged = False
    for state in islice(iterates(inst, cfg.eps, X0, y0, omega), cfg.max_iters):
        running_min = min(running_min, state.primal_res)
        if state.primal_res > 1e6 * max(running_min, cfg.tol):
            raise DivergenceError(
                f"primal residual grew to {state.primal_res:.3e} from running "
                f"minimum {running_min:.3e} at t={state.t}")
        if state.primal_res <= cfg.tol and state.step_res <= cfg.tol:
            S = inst.C + cfg.eps * state.X + state.Aty
            dual, gap = _dual_and_gap(state.X, S)
            if dual <= cfg.tol and (not kkt_stop or gap <= cfg.tol):
                converged = True
                break
    if not converged:  # the final state's, not that of an earlier step
        dual, _ = _dual_and_gap(state.X, inst.C + cfg.eps * state.X + state.Aty)
    stats = PdhgStats(
        iterations=state.t, reason="converged" if converged else "max_iters",
        primal_res=state.primal_res,
        dual_res=dual, step_res=state.step_res,
        objective=objective(inst, state.X), restarts=state.restarts,
        omega=state.omega)
    S = inst.C + state.Aty
    return SolutionTriple(X=state.X, y=state.y, S=S), stats


def solve_continuation(inst: SdpInstance, cfg: PdhgConfig | None = None
                       ) -> tuple[SolutionTriple, list[PdhgStats]]:
    """Warm-started solves over the shrinking regularization ladder
    ``EPS_LADDER``, then a polish stage.

    The ladder stages pull the iterate toward the minimum-Frobenius-norm
    optimum, each solved to ``stage_tol(eps, cfg.tol)``: 1e-2, 1e-4 and
    1e-6 at the default tol of 1e-6.  The final polish stage re-solves
    without regularization and stops on full KKT residuals at ``cfg.tol``
    (1e-6), removing the regularization bias from the dual and the
    complementarity gap.  Each stage starts from the previous stage's
    (X, y) and final primal weight.  The first stage that stops at the
    iteration cap ends the continuation: its iterate and the stats up to
    it are returned.
    """
    cfg = cfg or PdhgConfig()
    X = y = None
    omega = 1.0
    all_stats: list[PdhgStats] = []
    stages = [(e, False) for e in EPS_LADDER] + [(0.0, True)]
    for idx, (eps, is_polish) in enumerate(stages):
        stage_cfg = replace(cfg, eps=eps, tol=stage_tol(eps, cfg.tol))
        try:
            triple, stats = solve(inst, stage_cfg, X0=X, y0=y, omega=omega,
                                  kkt_stop=is_polish)
        except DivergenceError as exc:
            raise DivergenceError(f"continuation stage {idx} (eps={eps}): {exc}") from exc
        X, y, omega = triple.X, triple.y, stats.omega
        all_stats.append(stats)
        if not stats.converged:
            break
    return triple, all_stats


def continuation_outcome(stages: list[PdhgStats]) -> tuple[str, int | None]:
    """Why a continuation stopped: ``("converged", None)``, or the reason
    and index of its first stage that did not converge."""
    for idx, stats in enumerate(stages):
        if not stats.converged:
            return stats.reason, idx
    return "converged", None


def min_norm_solution(inst: SdpInstance) -> np.ndarray:
    """Primal optimum of minimum Frobenius norm, via continuation."""
    triple, _ = solve_continuation(inst)
    return triple.X


def kkt_residuals(inst: SdpInstance, X, y) -> tuple[float, float, float]:
    """(primal infeasibility, slack cone distance, complementarity gap)."""
    X = np.asarray(X, dtype=np.float64)
    primal = float(np.max(np.abs(apply_A(inst, X) - inst.b))) if inst.m else 0.0
    return (primal, *_dual_and_gap(X, inst.C + apply_A_adjoint(inst, y)))
