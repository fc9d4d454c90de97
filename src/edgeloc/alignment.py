"""Semantic edge alignment: residuals against per-label distance fields,
analytic Jacobians, and a damped Gauss-Newton solver on SE(3).

Each frame is aligned once, from its prior. Two recovery mechanisms widen
the basin of that single attempt: a coarse-to-fine stage (``solve_two_scale``
aligns on block-downsampled fields first, and a coarse reject is the frame's
verdict), which the caller runs only when the prior's predicted error is
large (``align_frame`` without coarse fields is one fine ``solve``), and
escape probes (``solve`` scores fixed camera-frame translation offsets once
the damped iteration stalls: 12 near ones on the 6 axis directions after a
plausible fit, 130 far ones on the 26 lattice directions after a poor fit).
No probe is taken on the truncation plateau, where every active sample with
a positive weight reads the cap ``d_max``: the energy has neither gradient
nor contrast there, and a probe could only lower it by losing samples.
A solve stops at the pose gate: once a step or a probe leaves the jump gate
around the prior (``_within_jump``, the gate ``validate`` applies), it ends
there as ``pose-inconsistent`` instead of iterating on an estimate that
cannot be accepted.
``solve`` is one loop: each pass tries one damped system or, from a
stalled pose, takes one probe round, and an accepted step or a winning
probe adds one history entry and meets the jump gate once.
Each solve has one outcome, its ``reject_reason``; an end that ``solve``
does not reject, a stop at the iteration cap included, goes to the gates.
A probe round projects and scores its candidate poses in array passes over
small blocks of candidates; ``_evaluate`` serves the single poses of the
damped iteration. Each pose the iteration visits is projected and read from
the fields once: the evaluation that accepts a pose also finishes its
Jacobian rows for the next step and, at the end, for the gating quantities.

Evaluation is in structure-of-arrays form: the world points are one (3, N)
array, so a pose's camera points are one (3, 3) @ (3, N) product, and the
projection, the validity mask, the field gather and the Jacobian columns
read contiguous rows. A probe block is the same product per candidate.
Every sample keeps the operands and the order of operations of the
(N, 3) form, so each energy, residual and Jacobian row, and with them
every solve, is the same bit for bit; tests hold ``_evaluate`` to an
array-of-structures reference.

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
from .edge_features import COARSE_SCALE, FieldStack, bilinear_gather
from .geometry import CameraIntrinsics, Pose, orthonormalize, project_points, rotation_angle, so3_exp
from .selection import LandmarkSamples

REJECT_NONE = "none"
REJECT_DIVERGED = "diverged"
REJECT_POSE_INCONSISTENT = "pose-inconsistent"
REJECT_HIGH_REPROJ = "high-reproj-error"
REJECT_TOO_FEW_SAMPLES = "too-few-samples"
REJECT_LOW_INFORMATION = "low-information"

# The coarse stage did not run, set a reject reason (its result is the
# frame's, and no fine solve runs), or handed its pose to the fine solve.
COARSE_SKIPPED = "skipped"
COARSE_UNUSED = "unused"
COARSE_USED = "used"

# Damped Gauss-Newton: the starting damping, its ceiling, and the step norm
# and relative energy decrease below which the iteration stalls.
_LAMBDA_INIT = 1e-4
_MAX_DAMPING = 1e10
_STEP_TOL = 1e-6
_ENERGY_TOL = 1e-9
_ENERGY_SLACK = 1e-12

# Trust region: the linearized model is only valid over a fraction of the
# distance-transform truncation radius, so single steps are capped here and
# large corrections spread over a few iterations.
_MAX_STEP_TRANSLATION_M = 0.15
_MAX_STEP_ROTATION_RAD = 0.03

# Escape probes: once the damped iteration cannot lower the energy, score
# fixed camera-frame translation offsets; features displaced beyond the
# distance-transform truncation produce zero gradient, so a plateau around a
# wrong pose is invisible to the Jacobian but not to these probes. A poor fit
# scans far, on the 26 lattice directions; a plausible fit scans near, on the
# 6 axis directions only, because near scans rarely win.
_PROBE_MAGNITUDES_NEAR_M = (0.05, 0.1)
_PROBE_MAGNITUDES_FAR_M = (0.05, 0.1, 0.2, 0.3, 0.45)
_MAX_PROBE_ROUNDS = 8
# A sample reads the cap when its value is within this relative tolerance of
# d_max: bilinear weights on a constant d_max grid give d_max +- 1 ulp.
_CAP_RTOL = 1e-9
# A probe scan projects and gathers at most this many candidate samples at
# once, so its temporaries stay a few hundred kB however many samples a frame
# has. Per sample, blocks of 4096 scored in half the time of blocks of 32768
# on a 2-core Xeon with 2 MB of L2 per core.
_PROBE_BLOCK_POINTS = 4096
_PROBE_DIRECTIONS = [
    np.array([dx, dy, dz], dtype=float) / math.sqrt(dx * dx + dy * dy + dz * dz)
    for dx in (-1, 0, 1)
    for dy in (-1, 0, 1)
    for dz in (-1, 0, 1)
    if (dx, dy, dz) != (0, 0, 0)
]


def _probe_offsets(directions, magnitudes) -> np.ndarray:
    """(K, 3) table of ``magnitude * direction``, direction-major."""
    return np.array([magnitude * direction for direction in directions for magnitude in magnitudes])


# The axis directions keep their lattice order, so the near candidates are a
# subsequence of the 26 directions' at the same magnitudes.
_PROBE_OFFSETS_NEAR = _probe_offsets(
    [direction for direction in _PROBE_DIRECTIONS if np.count_nonzero(direction) == 1], _PROBE_MAGNITUDES_NEAR_M
)
_PROBE_OFFSETS_FAR = _probe_offsets(_PROBE_DIRECTIONS, _PROBE_MAGNITUDES_FAR_M)


@dataclass(frozen=True, eq=False)
class AlignmentProblem:
    """One frame's alignment inputs. ``initial`` defaults to the prior pose."""

    samples: LandmarkSamples
    fields: FieldStack
    prior: Pose
    intrinsics: CameraIntrinsics
    initial: Pose | None = None
    config: PipelineConfig = PipelineConfig()

    def __post_init__(self):
        if not isinstance(self.fields, FieldStack):
            raise TypeError(f"fields must be a FieldStack, got {type(self.fields).__name__}")
        for label in self.samples.labels:
            if label not in self.fields:
                raise ValueError(f"no edge field for sampled label {label!r}")

    @property
    def start_pose(self) -> Pose:
        return self.initial if self.initial is not None else self.prior


@dataclass(frozen=True, eq=False)
class AlignmentResult:
    pose: Pose
    iterations: int
    mean_reproj_error: float  # final energy / active residual count
    inlier_count: int
    accepted: bool = False
    reject_reason: str = REJECT_NONE
    energy_history: tuple[float, ...] = ()
    active_counts: tuple[int, ...] = ()
    info_min_eig: float = 0.0
    probe_rounds: int = 0  # escape probes taken; each adds one energy_history entry
    coarse: str = COARSE_SKIPPED  # COARSE_SKIPPED, COARSE_UNUSED or COARSE_USED


class _Prepared:
    """World-frame sample points, weights, and the stack of distance grids,
    fixed for the whole solve. Samples keep their order; ``world`` is (3, N),
    one contiguous row per coordinate. ``distance`` is the FieldStack's own
    read-only stack, read in place, and each sample's ``offset`` is where
    its label's layer starts in the flattened stack. A value of at least
    ``cap`` reads the truncation cap."""

    def __init__(self, problem: AlignmentProblem):
        samples = problem.samples
        self.intrinsics = problem.intrinsics
        self.world = problem.prior.apply(samples.points).T.copy()
        self.distance = problem.fields.stack
        layer = np.array([problem.fields.layer[label] for label in samples.labels], dtype=np.intp)
        self.offset = layer[samples.label] * (self.distance.shape[1] * self.distance.shape[2])
        weights = np.array([problem.config.weight_for(label) for label in samples.labels], dtype=float)
        self.weight = weights[samples.label]
        self.sqrt_weight = np.sqrt(self.weight)
        self.total_samples = self.world.shape[1]
        self.cap = problem.fields.d_max * (1.0 - _CAP_RTOL)


def _project(k: CameraIntrinsics, cam: np.ndarray):
    """Pixel coordinates (u, v) of camera-frame points (..., 3), and which of
    them are active: in front of the camera and inside the image bounds."""
    u, v, valid = project_points(cam, k)
    valid &= (u >= 0.0) & (u <= k.width - 1) & (v >= 0.0) & (v <= k.height - 1)
    return u, v, valid


def _evaluate(prepared: _Prepared, pose: Pose):
    """Residuals at ``pose``, and the means to finish their Jacobian rows.

    Out-of-bounds or behind-camera samples are dropped for this evaluation.
    Rows are scaled by sqrt(label weight) so J^T J and J^T r realize the
    weighted normal equations. Returns (energy, count, residuals,
    jacobian_rows, at_cap): ``jacobian_rows()`` builds the (count, 6) rows
    from this evaluation's projection, mask, weights and field reads, adding
    only the slope reads, so a pose the solver keeps is projected once;
    ``at_cap()`` is whether every active sample with a positive weight reads
    the cap. With no active sample: energy 0.0, count 0 and empty arrays.
    """
    k = prepared.intrinsics
    rotation = pose.rotation
    cam = rotation.T @ (prepared.world - pose.translation[:, None])  # (3, N): R^T (p_w - t)
    u, v, valid = _project(k, cam.T)
    active = np.flatnonzero(valid)
    count = active.size
    values, slope = bilinear_gather(prepared.distance, prepared.offset.take(active), u.take(active), v.take(active))
    sqrt_w = prepared.sqrt_weight.take(active)
    weights = prepared.weight.take(active)
    energy = float(weights @ (values * values))

    def jacobian_rows():
        grad_u, grad_v = slope()
        x, y, z = cam.take(active, axis=1)
        a = grad_u * k.fx / z
        b = grad_v * k.fy / z
        c = -(a * x + b * y) / z
        rows = np.empty((6, count))
        rows[:3] = -(rotation @ np.stack((a, b, c)))
        # The rotation block is cross((a, b, c), cam), with np.cross's operations.
        rows[3] = b * z - c * y
        rows[4] = c * x - a * z
        rows[5] = a * y - b * x
        rows *= sqrt_w
        return rows.T.copy()

    def at_cap():
        return bool(np.all((values >= prepared.cap) | (weights == 0.0)))

    return energy, count, sqrt_w * values, jacobian_rows, at_cap


def _norm(vector: np.ndarray) -> float:
    """Euclidean norm, computed as np.linalg.norm computes it."""
    return math.sqrt(vector @ vector)


def perturb_pose(pose: Pose, xi: np.ndarray) -> Pose:
    """The optimizer's retraction: t += xi[:3] (world), R @= exp(xi[3:]).

    ``xi`` must be finite, as solve checks; the pose is built unchecked.
    """
    return Pose._trusted(pose.rotation @ so3_exp(xi[3:]), pose.translation + xi[:3])


def _probe_escape(prepared: _Prepared, pose: Pose, energy_now: float, count_now: int, min_samples: int, offsets):
    """Best strictly-lower-energy pose among fixed translation probes, or None.

    Candidates are ``pose`` moved by each row of ``offsets``, a (K, 3) table
    of camera-frame translations. They are scored in array passes over
    blocks of whole candidates, at most ``_PROBE_BLOCK_POINTS`` candidate
    samples each (one candidate at least): one stacked projection, one
    validity mask and one bilinear gather over the block's valid samples.
    Each candidate's energy is its own slice's dot product, with the same
    values in the same order as ``_evaluate`` at that pose, so the block size
    changes no result; the first strictly lowest candidate in row order wins
    and only the winner becomes a ``Pose``.

    A candidate must keep nearly all samples active: dumping samples out of
    the image bounds lowers the total energy without improving anything.
    The floor is 0.95 of ``count_now``, the count the previous round left,
    so over several rounds the active count can fall further than that.
    """
    rotation = pose.rotation
    translations = np.array([pose.translation + rotation @ offset for offset in offsets])
    block = max(1, _PROBE_BLOCK_POINTS // max(prepared.total_samples, 1))
    scored = [_probe_block(prepared, rotation, translations[i:i + block]) for i in range(0, len(translations), block)]
    counts = np.concatenate([block_counts for block_counts, _ in scored])
    energies = np.concatenate([block_energies for _, block_energies in scored])
    eligible = np.flatnonzero((counts >= max(min_samples, int(0.95 * count_now))) & (energies < energy_now - 1e-9))
    if eligible.size == 0:
        return None
    best = eligible[np.argmin(energies[eligible])]  # argmin keeps the first of equal energies
    return float(energies[best]), int(counts[best]), Pose._trusted(rotation, translations[best])


def _probe_block(prepared: _Prepared, rotation: np.ndarray, translations: np.ndarray):
    """Active-sample counts and energies, (C,) each, of the candidate poses
    (rotation, translations[c]), in one array pass."""
    # Per candidate R^T (p_w - t), (C, 3, N): each candidate's product is
    # _evaluate's (3, 3) @ (3, N).
    cam = rotation.T @ (prepared.world - translations[:, :, None])
    u, v, valid = _project(prepared.intrinsics, cam.transpose(0, 2, 1))
    counts = valid.sum(axis=1)
    sample = np.nonzero(valid)[1]  # candidate-major, so each candidate's samples are one slice
    values, _ = bilinear_gather(prepared.distance, prepared.offset[sample], u[valid], v[valid])
    weights = prepared.weight[sample]
    stops = np.cumsum(counts).tolist()
    # Empty slices stay in: a candidate with no active samples has energy 0.0.
    return counts, np.array([weights[s:e] @ (values[s:e] * values[s:e]) for s, e in zip([0] + stops, stops)])


def solve(problem: AlignmentProblem) -> AlignmentResult:
    """Damped Gauss-Newton minimization of the edge alignment energy.

    One loop: each pass tries one damped system of the normal equations
    J^T J d = -J^T r (built once per pose, multiplicative Levenberg damping on
    the diagonal) or, from a stalled pose, takes one round of escape probes.
    A step that raises the energy, or a system with no finite solution,
    multiplies the damping by 10, and an accepted step divides it by 3: a
    decrease slower than the increase (Madsen, Nielsen & Tingleff, 2004,
    section 3.2) spends fewer rejected trials climbing back. Sample drops
    are re-evaluated at every candidate pose. The iteration stalls on step
    norm, relative energy decrease, or damping past ``_MAX_DAMPING`` once
    some system was solvable. A probe that strictly lowers the energy
    resumes the iteration from it, which recovers from truncation plateaus
    around wrong poses; none is taken when every active sample with a
    positive weight reads the cap, where a probe could only win by losing
    samples. Each accepted step and winning probe adds one
    ``energy_history`` entry.

    The one outcome, ``reject_reason``, is set where the solve learns it:
    ``too-few-samples`` below ``min_samples`` active samples at the start
    (the loop does not run) or after an accepted step, ``pose-inconsistent``
    at the first step or probe outside the jump gate around the prior, and
    ``diverged`` when the damping passes ``_MAX_DAMPING`` with no solvable
    system at the pose. Any other end, the iteration cap included, leaves
    ``none`` for ``validate``'s gates to judge the pose reached.
    """
    cfg = problem.config
    prepared = _Prepared(problem)
    pose = problem.start_pose

    # The evaluation of ``pose``: every accepted pose keeps the one that tested
    # it, and the solve reads energy and count from it alone.
    current = _evaluate(prepared, pose)
    history = [current[0]]
    active_counts = [current[1]]
    damping = _LAMBDA_INIT
    stalled = any_solvable = False  # stalled: take a probe round next
    reject_reason = REJECT_TOO_FEW_SAMPLES if current[1] < cfg.min_samples else REJECT_NONE
    iterations = probe_rounds = 0
    hessian_pose = None  # the pose whose rows gave ``hessian``

    while reject_reason == REJECT_NONE:
        energy_now, count_now, residuals, jacobian_rows, at_cap = current
        if damping > _MAX_DAMPING:
            # Damping escalation exhausted: with no solvable system at this
            # pose the solve failed; otherwise no step can lower the energy
            # anymore, a local minimum.
            if not any_solvable:
                reject_reason = REJECT_DIVERGED
                break
            stalled = True
        if stalled:
            if probe_rounds >= _MAX_PROBE_ROUNDS or at_cap():
                break
            if count_now > 0 and energy_now / count_now <= cfg.max_mean_reproj_px:
                offsets = _PROBE_OFFSETS_NEAR  # plausible fit, scan nearby only
            else:
                offsets = _PROBE_OFFSETS_FAR
            escape = _probe_escape(prepared, pose, energy_now, count_now, cfg.min_samples, offsets)
            if escape is None:
                break
            pose = escape[2]
            current = _evaluate(prepared, pose)  # the probe's energy and count, bit for bit
            probe_rounds += 1
            stalled = False
            damping = _LAMBDA_INIT
        else:
            if iterations >= cfg.max_iterations:
                break
            if hessian_pose is not pose:
                jacobian = jacobian_rows()
                hessian, hessian_pose = jacobian.T @ jacobian, pose
                gradient = jacobian.T @ residuals
                diag_floor = 1e-12 * max(float(np.trace(hessian)), 1.0)
                scaled_diag = np.diag(np.diag(hessian) + diag_floor)
                any_solvable = False
            try:
                delta = np.linalg.solve(hessian + damping * scaled_diag, -gradient)
            except np.linalg.LinAlgError:
                delta = None
            if delta is None or not np.isfinite(delta).all():
                damping *= 10.0
                continue
            any_solvable = True
            scale = min(
                1.0,
                _MAX_STEP_TRANSLATION_M / max(_norm(delta[:3]), 1e-300),
                _MAX_STEP_ROTATION_RAD / max(_norm(delta[3:]), 1e-300),
            )
            delta = delta * scale
            candidate = perturb_pose(pose, delta)
            trial = _evaluate(prepared, candidate)
            if not trial[0] <= energy_now + _ENERGY_SLACK:
                damping *= 10.0
                continue
            pose, current = candidate, trial
            damping = max(damping / 3.0, 1e-12)
            iterations += 1
            rel_decrease = (energy_now - trial[0]) / max(energy_now, 1e-300)
            stalled = _norm(delta) < _STEP_TOL or rel_decrease < _ENERGY_TOL
            if iterations % 100 == 0:
                pose = orthonormalize(pose)
                current = _evaluate(prepared, pose)
        history.append(current[0])
        active_counts.append(current[1])
        if not _within_jump(pose, problem.prior, cfg):
            reject_reason = REJECT_POSE_INCONSISTENT
        elif current[1] < cfg.min_samples:
            reject_reason = REJECT_TOO_FEW_SAMPLES  # a probe keeps min_samples, so a step lost them

    # Gating quantities from the evaluation of the solution; when the solve
    # ended on the pose of the last normal equations, their matrix serves.
    # A solve that ends with too few samples has none.
    energy_final, count_final, _, jacobian_rows, _ = current
    if count_final > 0 and reject_reason != REJECT_TOO_FEW_SAMPLES:
        if hessian_pose is not pose:
            jacobian_final = jacobian_rows()
            hessian = jacobian_final.T @ jacobian_final
        info_min_eig = float(np.linalg.eigvalsh(hessian)[0])
        mean_error = energy_final / count_final
    else:
        info_min_eig = 0.0
        mean_error = math.inf

    return AlignmentResult(
        pose=pose,
        iterations=iterations,
        mean_reproj_error=mean_error,
        inlier_count=count_final,
        reject_reason=reject_reason,
        energy_history=tuple(history),
        active_counts=tuple(active_counts),
        info_min_eig=info_min_eig,
        probe_rounds=probe_rounds,
    )


def solve_two_scale(problem: AlignmentProblem, coarse_fields: FieldStack) -> AlignmentResult:
    """Coarse-to-fine solve: align on stride-``COARSE_SCALE`` fields first.

    The coarse fields (built from block-OR downsampled masks) keep their
    truncation radius in coarse pixels, widening the basin of attraction by
    ``COARSE_SCALE``; the full-resolution solve then starts inside it. A
    coarse reject reason (a stop at the pose gate, too few samples, no
    solvable system) is the frame's verdict: no fine solve runs, and the
    coarse result is returned, ``unused``, with ``mean_reproj_error`` inf
    (logged as null), as a residual in coarse pixels compares with no other
    frame's. Any other end, the cap included, hands its pose over (``used``).
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
    if coarse.reject_reason != REJECT_NONE:
        return replace(coarse, mean_reproj_error=math.inf, coarse=COARSE_UNUSED)
    return replace(solve(replace(problem, initial=coarse.pose)), coarse=COARSE_USED)


def _within_jump(pose: Pose, prior: Pose, config: PipelineConfig) -> bool:
    """Whether ``pose`` is within the translation and rotation jump gates of ``prior``."""
    jump = float(np.linalg.norm(pose.translation - prior.translation))
    turn = rotation_angle(prior.rotation.T @ pose.rotation)
    return jump <= config.max_translation_jump_m and turn <= math.radians(config.max_rotation_jump_deg)


def align_frame(problem: AlignmentProblem, coarse_fields: FieldStack | None) -> AlignmentResult:
    """One validated attempt from the problem's start pose: coarse-to-fine,
    or, with no coarse fields, one fine ``solve``."""
    result = solve(problem) if coarse_fields is None else solve_two_scale(problem, coarse_fields)
    return validate(result, problem.prior, problem.config)


def validate(result: AlignmentResult, prior: Pose, config: PipelineConfig) -> AlignmentResult:
    """Apply the acceptance gates and fill accepted / reject_reason.

    A reason ``solve`` has already set (too few samples, a stop at the pose
    gate, or no solvable system) passes straight through. Any other pose the
    solve reached, a stop at the iteration cap included, is judged by the
    information, jump and residual gates. The jump gate is checked here too,
    for results built elsewhere.
    """
    if result.reject_reason != REJECT_NONE:
        return replace(result, accepted=False)
    if result.info_min_eig < config.min_information:
        return replace(result, accepted=False, reject_reason=REJECT_LOW_INFORMATION)
    if not _within_jump(result.pose, prior, config):
        return replace(result, accepted=False, reject_reason=REJECT_POSE_INCONSISTENT)
    if result.mean_reproj_error > config.max_mean_reproj_px:
        return replace(result, accepted=False, reject_reason=REJECT_HIGH_REPROJ)
    return replace(result, accepted=True, reject_reason=REJECT_NONE)
