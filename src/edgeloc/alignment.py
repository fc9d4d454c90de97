"""Semantic edge alignment: residuals against per-label distance fields,
analytic Jacobians, and a damped Gauss-Newton solver on SE(3).

Each frame is aligned once, from its prior. Two recovery mechanisms widen
the basin of that single attempt: a coarse-to-fine stage (``solve_two_scale``
aligns on block-downsampled fields first) and escape probes (``solve`` tries
fixed translation offsets once the damped iteration stalls on a poor fit).
A probe round projects and scores all of its candidate poses in one array
pass; ``_evaluate`` serves the single poses of the damped iteration. Each
pose the iteration visits is projected and read from the fields once: the
evaluation that accepts a pose also finishes its Jacobian rows for the next
step and, at the end, for the gating quantities.

The optimizer's 6-DoF step delta = [d_t, d_theta] perturbs the camera pose
as translation added in the world frame and rotation right-multiplied in
the body frame:

    t <- t + d_t,    R <- R @ exp(skew(d_theta))

The analytic Jacobian is the exact derivative of the residual along this
retraction; its pose block is [-R^T | skew(R^T (p_w - t))].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import PipelineConfig
from .edge_features import COARSE_SCALE, SemanticEdgeField, bilinear_gather
from .geometry import (
    MIN_PROJECTION_DEPTH,
    CameraIntrinsics,
    Pose,
    orthonormalize,
    rotation_angle,
    so3_exp,
)
from .selection import LandmarkSamples

REJECT_NONE = "none"
REJECT_DIVERGED = "diverged"
REJECT_POSE_INCONSISTENT = "pose-inconsistent"
REJECT_HIGH_REPROJ = "high-reproj-error"
REJECT_TOO_FEW_SAMPLES = "too-few-samples"
REJECT_LOW_INFORMATION = "low-information"

_MAX_DAMPING = 1e10
_ENERGY_SLACK = 1e-12

# Trust region: the linearized model is only valid over a fraction of the
# distance-transform truncation radius, so single steps are capped here and
# large corrections spread over a few iterations.
_MAX_STEP_TRANSLATION_M = 0.15
_MAX_STEP_ROTATION_RAD = 0.03

# Escape probes: once the damped iteration cannot lower the energy but the
# fit is still poor, sample camera-frame translation offsets on the 26
# lattice directions; features displaced beyond the distance-transform
# truncation produce zero gradient, so a plateau around a wrong pose is
# invisible to the Jacobian but not to these probes.
_PROBE_MAGNITUDES_NEAR_M = (0.05, 0.1)
_PROBE_MAGNITUDES_FAR_M = (0.05, 0.1, 0.2, 0.3, 0.45)
_MAX_PROBE_ROUNDS = 8
_PROBE_DIRECTIONS = [
    np.array([dx, dy, dz], dtype=float) / math.sqrt(dx * dx + dy * dy + dz * dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


@dataclass(frozen=True, eq=False)
class AlignmentProblem:
    """One frame's alignment inputs. ``initial`` defaults to the prior pose."""

    samples: LandmarkSamples
    fields: dict[str, SemanticEdgeField]
    prior: Pose
    intrinsics: CameraIntrinsics
    initial: Pose | None = None
    config: PipelineConfig = PipelineConfig()

    def __post_init__(self):
        for label in self.samples.labels:
            if label not in self.fields:
                raise ValueError(f"no edge field for sampled label {label!r}")

    @property
    def start_pose(self) -> Pose:
        return self.initial if self.initial is not None else self.prior


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    pose: Pose
    converged: bool
    iterations: int
    mean_reproj_error: float  # final energy / active residual count
    inlier_count: int
    accepted: bool = False
    reject_reason: str = REJECT_NONE
    energy: float = math.inf
    energy_history: tuple[float, ...] = ()
    active_counts: tuple[int, ...] = ()
    info_min_eig: float = 0.0


class _Prepared:
    """World-frame sample points, weights, and stacked distance grids, fixed
    for the whole solve. Samples keep their order, and ``label_index``
    indexes the stack: one grid per sampled label, in ``samples.labels``
    order."""

    def __init__(self, problem: AlignmentProblem):
        samples = problem.samples
        self.intrinsics = problem.intrinsics
        self.world = problem.prior.apply(samples.points)
        self.label_index = samples.label
        weights = np.array([problem.config.weight_for(label) for label in samples.labels], dtype=float)
        self.weight = weights[samples.label]
        self.sqrt_weight = np.sqrt(self.weight)
        grids = [problem.fields[label].distance for label in samples.labels]
        self.distance = np.stack(grids) if grids else np.empty((0, 1, 1))
        self.total_samples = self.world.shape[0]


def _project(k: CameraIntrinsics, cam: np.ndarray):
    """Pixel coordinates (u, v) of camera-frame points (..., 3), and which of
    them are active: in front of the camera and inside the image bounds."""
    z = cam[..., 2]
    valid = z > MIN_PROJECTION_DEPTH
    safe_z = np.where(valid, z, 1.0)
    u = k.fx * cam[..., 0] / safe_z + k.cx
    v = k.fy * cam[..., 1] / safe_z + k.cy
    valid &= (u >= 0.0) & (u <= k.width - 1) & (v >= 0.0) & (v <= k.height - 1)
    return u, v, valid


def _no_samples():
    return 0.0, 0, np.empty(0), lambda: np.empty((0, 6))


def _evaluate(prepared: _Prepared, pose: Pose):
    """Residuals at ``pose``, and the means to finish their Jacobian rows.

    Out-of-bounds or behind-camera samples are dropped for this evaluation.
    Rows are scaled by sqrt(label weight) so J^T J and J^T r realize the
    weighted normal equations. Returns (energy, count, residuals,
    jacobian_rows): ``jacobian_rows()`` builds the (count, 6) rows from this
    evaluation's projection, mask, weights and field reads, adding only the
    slope reads, so a pose the solver keeps is projected once.
    """
    if prepared.total_samples == 0:
        return _no_samples()
    k = prepared.intrinsics
    rotation = pose.rotation
    cam = (prepared.world - pose.translation) @ rotation  # row-wise R^T (p_w - t)
    u, v, valid = _project(k, cam)
    count = int(valid.sum())
    if count == 0:
        return _no_samples()

    values, slope = bilinear_gather(u[valid], v[valid], prepared.distance.shape[1:])(
        prepared.distance, prepared.label_index[valid]
    )
    sqrt_w = prepared.sqrt_weight[valid]
    energy = float(prepared.weight[valid] @ (values * values))

    def jacobian_rows():
        grad_u, grad_v = slope()
        cam_v = cam[valid]
        zv = cam_v[:, 2]
        a = grad_u * k.fx / zv
        b = grad_v * k.fy / zv
        c = -(a * cam_v[:, 0] + b * cam_v[:, 1]) / zv
        g3 = np.stack([a, b, c], axis=1)
        jacobian = np.empty((count, 6))
        jacobian[:, :3] = -(g3 @ rotation.T)
        jacobian[:, 3:] = np.cross(g3, cam_v)
        jacobian *= sqrt_w[:, None]
        return jacobian

    return energy, count, sqrt_w * values, jacobian_rows


def perturb_pose(pose: Pose, xi: np.ndarray) -> Pose:
    """The optimizer's retraction: t += xi[:3] (world), R @= exp(xi[3:])."""
    xi = np.asarray(xi, dtype=float).reshape(6)
    return Pose(pose.rotation @ so3_exp(xi[3:]), pose.translation + xi[:3])


def residual(problem: AlignmentProblem, pose: Pose, point_r: np.ndarray, label: str) -> float | None:
    """Residual of one frame-r sample; None when dropped at this pose."""
    single = _single_prepared(problem, point_r, label)
    _, count, residuals, _ = _evaluate(single, pose)
    if count == 0:
        return None
    return float(residuals[0] / math.sqrt(problem.config.weight_for(label)))


def jacobian_row(problem: AlignmentProblem, pose: Pose, point_r: np.ndarray, label: str) -> np.ndarray | None:
    """Analytic 6-vector Jacobian row of one sample; None when dropped."""
    single = _single_prepared(problem, point_r, label)
    _, count, _, jacobian_rows = _evaluate(single, pose)
    if count == 0:
        return None
    return jacobian_rows()[0] / math.sqrt(problem.config.weight_for(label))


def _single_prepared(problem: AlignmentProblem, point_r: np.ndarray, label: str) -> _Prepared:
    point_r = np.asarray(point_r, dtype=float).reshape(1, 3)
    single = LandmarkSamples((label,), point_r, np.zeros(1, dtype=int), np.array([-1]))
    return _Prepared(replace(problem, samples=single))


def energy(problem: AlignmentProblem, pose: Pose) -> tuple[float, int]:
    """Total weighted squared residual and the active-sample count."""
    prepared = _Prepared(problem)
    value, count, _, _ = _evaluate(prepared, pose)
    return value, count


def _probe_escape(prepared: _Prepared, pose: Pose, energy_now: float, count_now: int, min_samples: int, magnitudes):
    """Best strictly-lower-energy pose among fixed translation probes, or None.

    Candidates are ``pose`` moved by ``magnitude * direction`` in the camera
    frame, direction-major over ``_PROBE_DIRECTIONS``. All of them are
    scored in one array pass: one stacked projection, one validity mask and
    one bilinear gather over every valid sample. Each candidate's energy is
    its own slice's dot product, with the same values in the same order as
    ``_evaluate`` at that pose, so the first strictly lowest candidate in
    loop order wins and only the winner becomes a ``Pose``.

    A candidate must keep nearly all samples active: dumping samples out of
    the image bounds lowers the total energy without improving anything.
    """
    rotation = pose.rotation
    translations = np.array(
        [
            pose.translation + rotation @ (magnitude * direction)
            for direction in _PROBE_DIRECTIONS
            for magnitude in magnitudes
        ]
    )
    # Per candidate R^T (p_w - t). The differences are built as contiguous
    # (C, 3N) rows, the same values as world[None] - translations[:, None]
    # without its length-3 inner axis; neither they nor the camera points are
    # kept, so the gather below can reuse their memory.
    shape = (len(translations), prepared.total_samples, 3)
    differences = prepared.world.reshape(1, -1) - np.tile(translations, (1, shape[1]))
    u, v, valid = _project(prepared.intrinsics, differences.reshape(shape) @ rotation)
    del differences
    counts = valid.sum(axis=1)
    sample = np.nonzero(valid)[1]  # candidate-major, so each candidate's samples are one slice
    values, _ = bilinear_gather(u[valid], v[valid], prepared.distance.shape[1:])(
        prepared.distance, prepared.label_index[sample]
    )
    weights = prepared.weight[sample]
    stops = np.cumsum(counts).tolist()
    # Empty slices stay in: a candidate with no active samples has energy 0.0.
    energies = np.array([weights[s:e] @ (values[s:e] * values[s:e]) for s, e in zip([0] + stops, stops)])
    eligible = np.flatnonzero((counts >= max(min_samples, int(0.95 * count_now))) & (energies < energy_now - 1e-9))
    if eligible.size == 0:
        return None
    best = eligible[np.argmin(energies[eligible])]  # argmin keeps the first of equal energies
    return float(energies[best]), int(counts[best]), Pose(rotation, translations[best])


def solve(problem: AlignmentProblem) -> AlignmentResult:
    """Damped Gauss-Newton minimization of the edge alignment energy.

    Iterates normal equations J^T J d = -J^T r with multiplicative
    Levenberg damping on the diagonal; sample drops are re-evaluated at
    every candidate pose, and a step is only taken if it does not increase
    the energy. Stops on step norm, relative energy decrease, or the
    iteration cap. A converged pose is then checked against the fixed
    escape probes; if one strictly lowers the energy the iteration resumes
    from it, which recovers from truncation plateaus around wrong poses.
    """
    cfg = problem.config
    prepared = _Prepared(problem)
    pose = problem.start_pose

    # The evaluation of ``pose``: every accepted pose keeps the one that tested it.
    current = _evaluate(prepared, pose)
    energy_now, count_now = current[:2]
    if count_now < cfg.min_samples:
        return AlignmentResult(
            pose=pose,
            converged=False,
            iterations=0,
            mean_reproj_error=math.inf,
            inlier_count=count_now,
            reject_reason=REJECT_TOO_FEW_SAMPLES,
            energy=energy_now,
            energy_history=(energy_now,),
            active_counts=(count_now,),
        )

    damping = cfg.lambda_init
    history = [energy_now]
    active_counts = [count_now]
    converged = False
    diverged = False
    iterations = 0
    probe_rounds = 0

    while True:
        while iterations < cfg.max_iterations:
            _, count_now, residuals, jacobian_rows = current
            if count_now < cfg.min_samples:
                diverged = True
                break
            jacobian = jacobian_rows()
            hessian = jacobian.T @ jacobian
            gradient = jacobian.T @ residuals
            diag_floor = 1e-12 * max(float(np.trace(hessian)), 1.0)
            step_taken = False
            any_solvable = False
            step_norm = 0.0
            rel_decrease = math.inf
            while damping <= _MAX_DAMPING:
                damped = hessian + damping * np.diag(np.diag(hessian) + diag_floor)
                try:
                    delta = np.linalg.solve(damped, -gradient)
                except np.linalg.LinAlgError:
                    damping *= 10.0
                    continue
                if not np.all(np.isfinite(delta)):
                    damping *= 10.0
                    continue
                any_solvable = True
                scale = min(
                    1.0,
                    _MAX_STEP_TRANSLATION_M / max(float(np.linalg.norm(delta[:3])), 1e-300),
                    _MAX_STEP_ROTATION_RAD / max(float(np.linalg.norm(delta[3:])), 1e-300),
                )
                delta = delta * scale
                candidate = perturb_pose(pose, delta)
                trial = _evaluate(prepared, candidate)
                energy_new, count_new = trial[:2]
                if energy_new <= energy_now + _ENERGY_SLACK:
                    step_norm = float(np.linalg.norm(delta))
                    rel_decrease = (energy_now - energy_new) / max(energy_now, 1e-300)
                    pose = candidate
                    current = trial
                    energy_now = energy_new
                    count_now = count_new
                    damping = max(damping / 10.0, 1e-12)
                    step_taken = True
                    break
                damping *= 10.0
            if not step_taken:
                # Damping escalation exhausted: with no solvable system this
                # is a genuine failure; otherwise no step can lower the energy
                # anymore, i.e. a local minimum -- converged, gates decide.
                if any_solvable:
                    converged = True
                else:
                    diverged = True
                break
            iterations += 1
            history.append(energy_now)
            active_counts.append(count_now)
            if iterations % 100 == 0:
                pose = orthonormalize(pose)
                current = _evaluate(prepared, pose)
            if step_norm < cfg.step_tol or rel_decrease < cfg.energy_tol:
                converged = True
                break
        else:
            diverged = True  # ran out of iterations

        if diverged or probe_rounds >= _MAX_PROBE_ROUNDS:
            break
        if count_now > 0 and energy_now / count_now <= cfg.max_mean_reproj_px:
            magnitudes = _PROBE_MAGNITUDES_NEAR_M  # plausible fit, scan nearby only
        else:
            magnitudes = _PROBE_MAGNITUDES_FAR_M
        escape = _probe_escape(prepared, pose, energy_now, count_now, cfg.min_samples, magnitudes)
        if escape is None:
            break
        energy_now, count_now, pose = escape
        current = _evaluate(prepared, pose)
        history.append(energy_now)
        active_counts.append(count_now)
        probe_rounds += 1
        converged = False
        damping = cfg.lambda_init

    # Gating quantities from the evaluation of the solution.
    energy_final, count_final, _, jacobian_rows = current
    if count_final > 0:
        jacobian_final = jacobian_rows()
        info_min_eig = float(np.linalg.eigvalsh(jacobian_final.T @ jacobian_final)[0])
        mean_error = energy_final / count_final
    else:
        info_min_eig = 0.0
        mean_error = math.inf

    if not converged and not diverged:
        diverged = True  # defensive; every loop exit sets one of the two

    return AlignmentResult(
        pose=pose,
        converged=converged,
        iterations=iterations,
        mean_reproj_error=mean_error,
        inlier_count=count_final,
        reject_reason=REJECT_NONE,
        energy=energy_final,
        energy_history=tuple(history),
        active_counts=tuple(active_counts),
        info_min_eig=info_min_eig,
    )


def solve_two_scale(problem: AlignmentProblem, coarse_fields: dict[str, SemanticEdgeField]) -> AlignmentResult:
    """Coarse-to-fine solve: align on stride-``COARSE_SCALE`` fields first.

    The coarse fields (built from block-OR downsampled masks) keep their
    truncation radius in coarse pixels, widening the basin of attraction by
    ``COARSE_SCALE``; the full-resolution solve then starts inside it. Falls
    back to the problem's own start pose when the coarse stage fails or
    lands outside the pose-consistency gates.
    """
    k = problem.intrinsics
    coarse_k = CameraIntrinsics(
        fx=k.fx / COARSE_SCALE,
        fy=k.fy / COARSE_SCALE,
        cx=k.cx / COARSE_SCALE,
        cy=k.cy / COARSE_SCALE,
        width=k.width // COARSE_SCALE,
        height=k.height // COARSE_SCALE,
    )
    coarse_problem = replace(problem, fields=coarse_fields, intrinsics=coarse_k)
    coarse = solve(coarse_problem)
    initial = problem.start_pose
    if coarse.converged:
        jump = float(np.linalg.norm(coarse.pose.translation - problem.prior.translation))
        turn = rotation_angle(problem.prior.rotation.T @ coarse.pose.rotation)
        if jump <= problem.config.max_translation_jump_m and turn <= math.radians(
            problem.config.max_rotation_jump_deg
        ):
            initial = coarse.pose
    return solve(replace(problem, initial=initial))


def align_frame(problem: AlignmentProblem, coarse_fields: dict[str, SemanticEdgeField]) -> AlignmentResult:
    """One validated coarse-to-fine attempt from the problem's start pose."""
    return validate(solve_two_scale(problem, coarse_fields), problem.prior, problem.config)


def validate(result: AlignmentResult, prior: Pose, config: PipelineConfig) -> AlignmentResult:
    """Apply the acceptance gates and fill accepted / reject_reason.

    The information gate is checked before the convergence flag: an
    unobservable problem cannot converge, and the eigenvalue floor is the
    more useful diagnosis.
    """
    if result.reject_reason == REJECT_TOO_FEW_SAMPLES:
        return replace(result, accepted=False)
    if result.info_min_eig < config.min_information:
        return replace(result, accepted=False, reject_reason=REJECT_LOW_INFORMATION)
    if not result.converged:
        return replace(result, accepted=False, reject_reason=REJECT_DIVERGED)
    jump = float(np.linalg.norm(result.pose.translation - prior.translation))
    if jump > config.max_translation_jump_m:
        return replace(result, accepted=False, reject_reason=REJECT_POSE_INCONSISTENT)
    turn = rotation_angle(prior.rotation.T @ result.pose.rotation)
    if turn > math.radians(config.max_rotation_jump_deg):
        return replace(result, accepted=False, reject_reason=REJECT_POSE_INCONSISTENT)
    if result.mean_reproj_error > config.max_mean_reproj_px:
        return replace(result, accepted=False, reject_reason=REJECT_HIGH_REPROJ)
    return replace(result, accepted=True, reject_reason=REJECT_NONE)
