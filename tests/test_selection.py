import hashlib
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloc import selection as sel
from edgeloc import synthetic as syn
from edgeloc.compact_map import CompactMap, LineSegmentLandmark, SemanticLabel, WireframeLandmark
from edgeloc.config import PipelineConfig
from edgeloc.geometry import CameraIntrinsics, Pose, project_points, so3_exp

K = CameraIntrinsics(fx=200.0, fy=200.0, cx=159.5, cy=119.5, width=320, height=240)

ROAD = SemanticLabel("lane_line", "road")
SIGN = SemanticLabel("traffic_sign", "nonroad")
POLE = SemanticLabel("lamp_pole", "nonroad")

# Identity pose: camera at origin looking along +z (world == camera frame).
EYE = Pose.identity()


def segment(p0, p1, label=ROAD, lid=0, radius=None):
    return LineSegmentLandmark(label, p0, p1, pole_radius=radius, landmark_id=lid)


def quad(center, half_w, half_h, z, label=SIGN, lid=1):
    cx, cy = center
    pts = [
        [cx - half_w, cy - half_h, z],
        [cx + half_w, cy - half_h, z],
        [cx + half_w, cy + half_h, z],
        [cx - half_w, cy + half_h, z],
    ]
    return WireframeLandmark(label, pts, landmark_id=lid)


def ray_hits_quad(point, corners):
    """Brute-force ray-polygon oracle: does the ray to ``point`` cross the
    planar polygon strictly in front of the point?"""
    corners = np.asarray(corners, dtype=float)
    normal = np.cross(corners[1] - corners[0], corners[2] - corners[0])
    denom = normal @ point
    if abs(denom) < 1e-12:
        return False
    t = (normal @ corners[0]) / denom  # intersection at t * point
    if not (0.0 < t < 1.0):
        return False
    hit = t * point
    # inside test by consistent cross-product sign
    signs = []
    n = corners.shape[0]
    for i in range(n):
        edge = corners[(i + 1) % n] - corners[i]
        to_hit = hit - corners[i]
        signs.append(np.sign(normal @ np.cross(edge, to_hit)))
    signs = [s for s in signs if s != 0]
    return all(s == signs[0] for s in signs)


class TestSampling:
    def test_landmark_behind_camera_gives_no_samples(self):
        lm = segment([0.0, 0.0, -5.0], [1.0, 0.0, -5.0])
        pts, _ = sel.sample_landmark_edges([lm], EYE, K)
        assert pts.shape[0] == 0

    def test_forty_px_projection_with_spacing_four_gives_eleven(self):
        # endpoints at z=2: u spans 200*1.0/2 - (-?) ... choose x0=0, x1=0.4
        lm = segment([0.0, 0.0, 2.0], [0.4, 0.0, 2.0])
        pts, _ = sel.sample_landmark_edges([lm], EYE, K, spacing=4.0)
        uv, _ = project_points(pts, K)
        length = np.hypot(*(uv[-1] - uv[0]))
        assert math.isclose(length, 40.0, abs_tol=1e-9)
        assert pts.shape[0] == 11

    def test_consecutive_samples_within_spacing(self):
        lm = segment([-1.0, 0.3, 1.0], [2.0, -0.5, 14.0])
        pts, _ = sel.sample_landmark_edges([lm], EYE, K, spacing=4.0)
        uv, _ = project_points(pts, K)
        gaps = np.hypot(*np.diff(uv, axis=0).T)
        assert gaps.max() <= 4.0 + 1e-9

    def test_segment_fully_outside_frustum(self):
        lm = segment([100.0, 0.0, 2.0], [101.0, 0.0, 2.0])
        pts, _ = sel.sample_landmark_edges([lm], EYE, K)
        assert pts.shape[0] == 0

    def test_half_clipped_segment_samples_in_bounds(self):
        # crosses the left image border; oracle: every sample projects in-bounds
        lm = segment([-10.0, 0.0, 5.0], [0.0, 0.0, 5.0])
        pts, _ = sel.sample_landmark_edges([lm], EYE, K)
        assert pts.shape[0] > 0
        uv, valid = project_points(pts, K)
        assert valid.all()
        assert (uv[:, 0] >= -1e-9).all() and (uv[:, 0] <= K.width - 1 + 1e-9).all()
        assert (uv[:, 1] >= -1e-9).all() and (uv[:, 1] <= K.height - 1 + 1e-9).all()
        # and the visible half only: all 3D x >= just left of the border ray
        assert pts[:, 0].min() >= -10.0 * (K.cx / K.fx) / 2.0 - 0.1

    def test_wireframe_all_edges_sampled(self):
        wf = quad((0.0, 0.0), 0.5, 0.3, 4.0)
        pts, _ = sel.sample_landmark_edges([wf], EYE, K)
        uv, _ = project_points(pts, K)
        # samples must cover all four sides: spread in both u and v
        assert np.ptp(uv[:, 0]) > 40 and np.ptp(uv[:, 1]) > 20

    def test_pole_has_two_silhouette_edges(self):
        lm = segment([0.0, 1.0, 6.0], [0.0, -1.0, 6.0], label=POLE, radius=0.15)
        pts, _ = sel.sample_landmark_edges([lm], EYE, K)
        uv, _ = project_points(pts, K)
        # two vertical stripes of samples separated by the diameter
        us = np.sort(np.unique(np.round(uv[:, 0], 3)))
        assert us.max() - us.min() > 0.25 * K.fx / 6.0  # > one radius apart


class TestRasterizer:
    def test_empty_landmark_set_gives_infinite_buffer(self):
        buffer = sel.rasterize_occluders([], EYE, K)
        assert np.isinf(buffer.values).all()

    def test_frontoparallel_unit_square_depth(self):
        wf = quad((0.0, 0.0), 0.5, 0.5, 4.0)
        buffer = sel.rasterize_occluders([wf], EYE, K)
        filled = np.isfinite(buffer.values)
        depths = buffer.values[filled]
        assert np.abs(depths - 4.0).max() < 1e-6
        side_px = K.fx * 1.0 / 4.0  # 50 px
        area = side_px**2
        perimeter = 4 * side_px
        assert abs(filled.sum() - area) <= perimeter + 4

    def test_min_depth_wins_on_overlap(self):
        near = quad((0.0, 0.0), 0.4, 0.4, 3.0, lid=1)  # subtends +-26.7 px
        far = quad((0.0, 0.0), 1.5, 1.5, 6.0, lid=2)  # subtends +-50 px
        buffer = sel.rasterize_occluders([far, near], EYE, K)
        assert abs(buffer.values[120, 160] - 3.0) < 1e-6
        u_far_only = int(K.cx + 40)
        assert abs(buffer.values[120, u_far_only] - 6.0) < 1e-6

    def test_plain_segments_do_not_occlude(self):
        lm = segment([-1.0, 0.0, 5.0], [1.0, 0.0, 5.0])
        buffer = sel.rasterize_occluders([lm], EYE, K)
        assert np.isinf(buffer.values).all()

    def test_off_screen_wall_is_culled_before_rasterizing(self, monkeypatch):
        # A wall wholly left of the view, one straddling the near plane off
        # its right edge, and one above the top: no triangle is rasterized.
        walls = [
            quad((-6.0, 0.0), 1.0, 1.0, 4.0, lid=1),
            WireframeLandmark(
                SIGN, [[3.0, -1.0, -2.0], [9.0, -1.0, 6.0], [9.0, 1.0, 6.0], [3.0, 1.0, -2.0]], landmark_id=2
            ),
            quad((0.0, -4.0), 2.0, 0.5, 3.0, lid=3),
        ]
        calls = []
        monkeypatch.setattr(sel, "_rasterize_triangle", lambda *args: calls.append(args))
        buffer = sel.rasterize_occluders(walls, EYE, K)
        assert np.isinf(buffer.values).all()
        assert calls == []

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1))
    def test_culled_fill_equals_fan_of_every_triangle(self, seed):
        # Polygons on and off the image, some across the near plane.
        rng = np.random.default_rng(seed)
        buffer = sel.DepthBuffer(K.width, K.height)
        expected = np.full((K.height, K.width), np.inf)
        for _ in range(6):
            center = rng.uniform([-8.0, -6.0, -1.0], [8.0, 6.0, 8.0])
            polygon = center + rng.normal(scale=rng.choice([0.05, 1.0, 3.0]), size=(rng.integers(3, 6), 3))
            sel.rasterize_polygon(buffer, polygon, K)
            clipped = sel._clip_polygon_near(polygon, sel.NEAR_CLIP_M)
            for i in range(1, clipped.shape[0] - 1):
                sel._rasterize_triangle(expected, clipped[[0, i, i + 1]], K)
        assert buffer.values.tobytes() == expected.tobytes()

    def test_slanted_polygon_depth_is_exact(self):
        # plane z = 4 + x: perspective-correct interpolation is exact
        wf = WireframeLandmark(
            SIGN,
            [[-1.0, -1.0, 3.0], [1.0, -1.0, 5.0], [1.0, 1.0, 5.0], [-1.0, 1.0, 3.0]],
            landmark_id=3,
        )
        buffer = sel.rasterize_occluders([wf], EYE, K)
        vv, uu = np.nonzero(np.isfinite(buffer.values))
        for v, u in list(zip(vv, uu))[:: max(1, len(vv) // 50)]:
            z = buffer.values[v, u]
            x = (u - K.cx) * z / K.fx
            assert abs(z - (4.0 + x)) < 1e-6


def make_map(landmarks, labels=(ROAD, SIGN, POLE)):
    return CompactMap(labels, tuple(landmarks))


def label_points(samples, name):
    """The points of one label's block; (0, 3) when the label has no samples."""
    if name not in samples.labels:
        return np.empty((0, 3))
    return samples.points[samples.label == samples.labels.index(name)]


class TestSelectLandmarks:
    def test_sign_occludes_pole_behind_it(self):
        # A sign quad at 5 m exactly in front of a pole at 10 m: pole samples
        # behind the quad silhouette die, samples outside survive.
        sign = quad((0.0, 0.0), 0.6, 0.6, 5.0, lid=0)
        pole = segment([0.0, -3.0, 10.0], [0.0, 3.0, 10.0], label=POLE, lid=1, radius=0.1)
        cfg = PipelineConfig(occlusion_margin_px=0)
        cmap = make_map([sign, pole])
        samples = sel.select_landmarks(cmap, EYE, K, cfg)
        kept = label_points(samples, "lamp_pole")
        # oracle over the raw (unoccluded) samples; the buffer is pixel
        # quantized, so samples within one pixel of the quad's silhouette
        # can legitimately fall either way
        raw, _ = sel.sample_landmark_edges([pole], EYE, K, config=cfg)
        corners = sign.points
        uv_raw, _ = project_points(raw, K)
        sil_v = K.fy * 0.6 / 5.0
        expected_kept = np.array([not ray_hits_quad(p, corners) for p in raw])
        got_kept = np.array([any(np.allclose(p, q, atol=1e-12) for q in kept) for p in raw])
        # pole samples run vertically through the quad center, so the only
        # boundary crossings are the quad's top and bottom edges
        decisive = np.abs(np.abs(uv_raw[:, 1] - K.cy) - sil_v) > 1.0
        assert (got_kept[decisive] == expected_kept[decisive]).all()
        assert expected_kept.sum() > 0 and (~expected_kept).sum() > 0

    def test_occlusion_margin_is_conservative_near_silhouettes(self):
        sign = quad((0.0, 0.0), 0.6, 0.6, 5.0, lid=0)
        pole = segment([0.0, -3.0, 10.0], [0.0, 3.0, 10.0], label=POLE, lid=1, radius=0.1)
        margin = 8
        cfg = PipelineConfig(occlusion_margin_px=margin)
        cmap = make_map([sign, pole])
        kept = label_points(sel.select_landmarks(cmap, EYE, K, cfg), "lamp_pole")
        raw, _ = sel.sample_landmark_edges([pole], EYE, K, config=cfg)
        corners = sign.points
        uv_raw, _ = project_points(raw, K)
        sil_half_u = K.fx * 0.6 / 5.0
        sil_half_v = K.fy * 0.6 / 5.0
        for p, (u, v) in zip(raw, uv_raw):
            in_kept = any(np.allclose(p, q, atol=1e-12) for q in kept)
            occluded = ray_hits_quad(p, corners)
            du = abs(u - K.cx) - sil_half_u
            dv = abs(v - K.cy) - sil_half_v
            near_silhouette = max(du, dv) <= margin + 1.5 and min(du, dv) <= margin + 1.5
            if occluded:
                assert not in_kept
            elif not near_silhouette:
                assert in_kept

    def test_empty_result_for_map_behind_camera(self):
        lm = segment([0.0, 0.0, -5.0], [1.0, 0.0, -5.0])
        samples = sel.select_landmarks(make_map([lm]), EYE, K)
        assert samples.total_count() == 0

    def test_unoccluded_segment_sample_count(self):
        lm = segment([-0.5, 0.0, 4.0], [0.5, 0.0, 4.0])
        cfg = PipelineConfig()
        samples = sel.select_landmarks(make_map([lm]), EYE, K, cfg)
        uv, _ = project_points(label_points(samples, "lane_line"), K)
        visible_len = np.hypot(*(uv.max(axis=0) - uv.min(axis=0)))
        expected = math.ceil(visible_len / cfg.sample_spacing_px)
        assert abs(samples.total_count() - (expected + 1)) <= 1

    def test_occlusion_consistency_invariant(self):
        rng = np.random.default_rng(0)
        landmarks = [quad((rng.uniform(-1, 1), rng.uniform(-1, 1)), 0.4, 0.4, rng.uniform(3, 9), lid=i) for i in range(6)]
        landmarks.append(segment([-2.0, 0.5, 8.0], [2.0, 0.5, 8.0], lid=6))
        cfg = PipelineConfig()
        cmap = make_map(landmarks)
        samples = sel.select_landmarks(cmap, EYE, K, cfg)
        buffer = sel.rasterize_occluders(cmap.landmarks, EYE, K, cfg)
        pts = samples.points
        uv, _ = project_points(pts, K)
        iu = np.clip(np.rint(uv[:, 0]).astype(int), 0, K.width - 1)
        iv = np.clip(np.rint(uv[:, 1]).astype(int), 0, K.height - 1)
        assert (pts[:, 2] <= buffer.values[iv, iu] + cfg.depth_tolerance_m + 1e-9).all()

    def test_adding_occluder_never_increases_other_samples(self):
        lane = segment([-2.0, 0.8, 6.0], [2.0, 0.8, 6.0], lid=0)
        blocker = quad((0.0, 0.8), 0.8, 0.5, 3.0, lid=1)
        without = sel.select_landmarks(make_map([lane]), EYE, K)
        with_blocker = sel.select_landmarks(make_map([lane, blocker]), EYE, K)
        n_without = label_points(without, "lane_line").shape[0]
        n_with = label_points(with_blocker, "lane_line").shape[0]
        assert n_with <= n_without

    def test_frame_correctness_world_round_trip(self):
        # transforming samples to world and re-projecting under the prior
        # must land on the same pixel within half a pixel
        from edgeloc.geometry import rotation_zyx

        prior = Pose(rotation_zyx(0.4, 0.1, -0.05), np.array([3.0, -2.0, 1.2]))
        lane_world = segment(prior.apply(np.array([-1.0, 0.2, 6.0])), prior.apply(np.array([2.0, 0.3, 7.0])), lid=0)
        cmap = make_map([lane_world])
        samples = sel.select_landmarks(cmap, prior, K)
        pts_r = label_points(samples, "lane_line")
        uv_direct, _ = project_points(pts_r, K)
        world = prior.apply(pts_r)
        back_to_r = prior.inverse().apply(world)
        uv_round, _ = project_points(back_to_r, K)
        assert np.abs(uv_direct - uv_round).max() < 0.5

    def test_wireframe_self_occlusion_exempt(self):
        wf = quad((0.0, 0.0), 0.7, 0.5, 5.0, lid=0)
        samples = sel.select_landmarks(make_map([wf]), EYE, K)
        pts = label_points(samples, "traffic_sign")
        raw, _ = sel.sample_landmark_edges([wf], EYE, K)
        assert pts.shape[0] == raw.shape[0]

    def test_pole_default_radius_from_config(self):
        lm = segment([1.0, 2.0, 8.0], [1.0, -2.0, 8.0], label=POLE, lid=0)
        wide = PipelineConfig(default_pole_radius_m=0.5)
        narrow = PipelineConfig(default_pole_radius_m=0.05)
        pts_wide, _ = sel.sample_landmark_edges([lm], EYE, K, config=wide)
        pts_narrow, _ = sel.sample_landmark_edges([lm], EYE, K, config=narrow)
        spread_wide = np.ptp(pts_wide[:, 0])
        spread_narrow = np.ptp(pts_narrow[:, 0])
        assert spread_wide > spread_narrow


class TestClip:
    def test_clip_keeps_interior(self):
        inside, q0, q1 = sel.clip_segment_to_view(np.array([[0.0, 0.0, 2.0]]), np.array([[0.1, 0.0, 3.0]]), K)
        assert inside.all()
        assert np.allclose(q0[0], [0.0, 0.0, 2.0]) and np.allclose(q1[0], [0.1, 0.0, 3.0])

    def test_clip_against_near_plane(self):
        inside, q0, _ = sel.clip_segment_to_view(np.array([[0.0, 0.0, -1.0]]), np.array([[0.0, 0.0, 4.0]]), K)
        assert inside.all()
        assert q0[0, 2] >= sel.NEAR_CLIP_M - 1e-12

    def test_clip_respects_max_range(self):
        inside, _, q1 = sel.clip_segment_to_view(
            np.array([[0.0, 0.0, 10.0]]), np.array([[0.0, 0.0, 500.0]]), K, far=150.0
        )
        assert inside.all()
        assert q1[0, 2] <= 150.0 + 1e-9

    def test_parallel_to_a_plane(self):
        # Rows 0-2 run parallel to the near plane: inside the view, in front
        # of the plane, and in it (a point on a plane is inside). Rows 3-4
        # run along the left border plane, just inside it and just outside.
        x_left = -K.cx / K.fx * 4.0
        p0 = np.array(
            [
                [-0.2, 0.0, 2.0],
                [-0.2, 0.0, 0.01],
                [-0.01, 0.0, sel.NEAR_CLIP_M],
                [x_left + 0.01, -0.5, 4.0],
                [x_left - 0.01, -0.5, 4.0],
            ]
        )
        p1 = p0 + np.array([[0.4, 0.1, 0.0], [0.4, 0.1, 0.0], [0.02, 0.005, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        inside, q0, q1 = sel.clip_segment_to_view(p0, p1, K)
        assert inside.tolist() == [True, False, True, True, False]
        assert np.array_equal(q0, p0[inside]) and np.array_equal(q1, p1[inside])

    def test_fully_outside(self):
        p0 = np.array([[100.0, 0.0, 2.0], [0.0, 0.0, -3.0], [0.0, 0.0, 200.0]])
        p1 = np.array([[101.0, 0.0, 2.0], [0.5, 0.0, -1.0], [0.0, 0.0, 300.0]])
        inside, q0, q1 = sel.clip_segment_to_view(p0, p1, K, far=150.0)
        assert not inside.any()
        assert q0.shape == q1.shape == (0, 3)

    def test_rows_clip_independently(self):
        p0 = np.array([[0.0, 0.0, 2.0], [100.0, 0.0, 2.0], [0.0, 0.0, -1.0]])
        p1 = np.array([[0.1, 0.0, 3.0], [101.0, 0.0, 2.0], [0.0, 0.0, 4.0]])
        inside, q0, q1 = sel.clip_segment_to_view(p0, p1, K)
        assert inside.tolist() == [True, False, True]
        for row, i in enumerate(np.flatnonzero(inside)):
            _, alone0, alone1 = sel.clip_segment_to_view(p0[i : i + 1], p1[i : i + 1], K)
            assert np.array_equal(alone0[0], q0[row]) and np.array_equal(alone1[0], q1[row])


class TestPoleSilhouette:
    def test_axis_along_the_viewing_ray(self):
        # cross(axis, endpoint) vanishes; the offset falls back to a fixed
        # perpendicular of the axis.
        left, right = sel.pole_silhouette([0.0, 0.0, 2.0], [0.0, 0.0, 6.0], 0.2)
        ends = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 6.0]])
        assert np.array_equal(left, ends - [0.0, 0.2, 0.0])
        assert np.array_equal(right, ends + [0.0, 0.2, 0.0])

    def test_batch_equals_single(self):
        rng = np.random.default_rng(3)
        q0 = rng.uniform(-3.0, 3.0, size=(7, 3))
        q1 = q0 + rng.uniform(-2.0, 2.0, size=(7, 3))
        q0[2], q1[2] = [0.0, 0.0, 2.0], [0.0, 0.0, 5.0]  # along the ray
        radii = rng.uniform(0.05, 0.5, size=7)
        left, right = sel.pole_silhouette(q0, q1, radii)
        assert left.shape == right.shape == (7, 2, 3)
        for i in range(7):
            one_left, one_right = sel.pole_silhouette(q0[i], q1[i], float(radii[i]))
            assert one_left.tobytes() == left[i].tobytes() and one_right.tobytes() == right[i].tobytes()
            # offsets are the radius long and perpendicular to the axis
            offset = (right[i] - left[i]) / 2.0
            assert np.allclose(np.linalg.norm(offset, axis=1), radii[i])
            assert np.allclose(offset @ (q1[i] - q0[i]), 0.0, atol=1e-9)


class TestEmpty:
    def test_no_landmarks_no_samples(self):
        points, owner = sel.sample_landmark_edges([], EYE, K)
        assert points.shape == (0, 3) and owner.shape == (0,)

    def test_empty_map_selects_nothing(self):
        samples = sel.select_landmarks(make_map([]), EYE, K)
        assert samples.total_count() == 0 and samples.labels == ()


@st.composite
def camera_landmarks(draw):
    """Random landmarks around the camera: segments, poles with and without
    an explicit radius, and planar polygons, some outside the view or
    behind the camera."""
    n = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    out = []
    for lid in range(n):
        kind = draw(st.sampled_from(["segment", "pole", "pole_default", "wireframe"]))
        centre = rng.uniform([-6.0, -4.0, -3.0], [6.0, 4.0, 25.0])
        if kind == "wireframe":
            e1, e2 = np.linalg.qr(rng.normal(size=(3, 2)))[0].T
            count = draw(st.integers(3, 6))
            angles = 2.0 * np.pi * np.arange(count) / count
            size = rng.uniform(0.2, 3.0)
            points = centre + size * (np.cos(angles)[:, None] * e1 + np.sin(angles)[:, None] * e2)
            out.append(WireframeLandmark(SIGN, points, landmark_id=lid))
        else:
            direction = rng.normal(size=3)
            other = centre + rng.uniform(0.1, 6.0) * direction / np.linalg.norm(direction)
            label = ROAD if kind == "segment" else POLE
            radius = rng.uniform(0.05, 0.4) if kind == "pole" else None
            out.append(segment(centre, other, label=label, lid=lid, radius=radius))
    return out, seed


class TestBatchedSampler:
    @settings(deadline=None, max_examples=150)
    @given(camera_landmarks(), st.sampled_from([0.45, 4.0]))
    def test_batch_equals_concatenated_single_calls(self, drawn, spacing):
        landmarks, seed = drawn
        rng = np.random.default_rng(seed + 1)
        prior = Pose(so3_exp(rng.normal(scale=0.2, size=3)), rng.normal(scale=1.0, size=3))
        points, owner = sel.sample_landmark_edges(landmarks, prior, K, spacing=spacing)
        singles = [sel.sample_landmark_edges([lm], prior, K, spacing=spacing) for lm in landmarks]
        expected_points = np.concatenate([pts for pts, _ in singles])
        expected_owner = np.concatenate([index + own for index, (_, own) in enumerate(singles)])
        assert points.tobytes() == expected_points.tobytes()
        assert owner.tobytes() == expected_owner.tobytes()


def brute_force_margin(values, margin_px, iv, iu):
    """The silhouette seeds pixel by pixel, then a plain window minimum."""
    height, width = values.shape
    seeds = np.full((height, width), np.inf)
    for v in range(height):
        for u in range(width):
            depth = values[v, u]
            neighbors = [
                values[v + dv, u + du] if 0 <= v + dv < height and 0 <= u + du < width else np.inf
                for dv, du in ((-1, 0), (1, 0), (0, -1), (0, 1))
            ]
            if np.isfinite(depth) and max(neighbors) > depth * 1.5 + 1.0:
                seeds[v, u] = depth
    out = []
    for v, u in zip(iv, iu):
        window = seeds[max(0, v - margin_px) : v + margin_px + 1, max(0, u - margin_px) : u + margin_px + 1]
        out.append(window.min())
    return np.array(out)


class TestSilhouetteMargin:
    @settings(deadline=None, max_examples=150)
    @given(st.integers(1, 14), st.integers(1, 14), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_equals_brute_force_window_minimum(self, height, width, margin_px, seed):
        rng = np.random.default_rng(seed)
        buffer = sel.DepthBuffer(width, height)
        for _ in range(rng.integers(0, 4)):
            v0, u0 = rng.integers(0, height), rng.integers(0, width)
            v1, u1 = rng.integers(v0, height) + 1, rng.integers(u0, width) + 1
            patch = buffer.values[v0:v1, u0:u1]
            np.minimum(patch, rng.uniform(0.5, 30.0, size=patch.shape), out=patch)
        iv = rng.integers(0, height, size=20)
        iu = rng.integers(0, width, size=20)
        got = sel.silhouette_margin_depth(buffer, margin_px, iv, iu)
        assert got.tobytes() == brute_force_margin(buffer.values, margin_px, iv, iu).tobytes()


def samples_digest(samples):
    h = hashlib.sha256()
    for index, name in enumerate(samples.labels):
        mine = samples.label == index
        h.update(name.encode())
        h.update(samples.points[mine].tobytes())
        h.update(samples.landmark_id[mine].astype(np.int64).tobytes())
    return h.hexdigest()


def corner_map_with_wall(scene):
    """The scene's map plus a 4 x 3.2 m wireframe wall 9 m ahead of frame 8."""
    pose = scene.pose_of(8)
    forward = pose.rotation @ np.array([0.0, 0.0, 1.0])
    right = pose.rotation @ np.array([1.0, 0.0, 0.0])
    right = np.array([right[0], right[1], 0.0]) / np.hypot(right[0], right[1])
    foot = pose.translation + 9.0 * forward + 1.5 * right
    foot[2] = 0.0
    up = np.array([0.0, 0.0, 1.0])
    corners = [
        foot - 2.0 * right + 0.3 * up,
        foot + 2.0 * right + 0.3 * up,
        foot + 2.0 * right + 3.5 * up,
        foot - 2.0 * right + 3.5 * up,
    ]
    cmap = scene.compact_map
    sign = next(label for label in cmap.labels if label.name == "traffic_sign")
    wall = WireframeLandmark(sign, corners, landmark_id=len(cmap.landmarks))
    return CompactMap(cmap.labels, cmap.landmarks + (wall,))


class TestPinnedSelection:
    def test_samples_come_in_label_blocks_in_map_order(self):
        scene = syn.generate_scene(5, "urban-corner", n_frames=16)
        cmap = corner_map_with_wall(scene)
        samples = sel.select_landmarks(cmap, scene.pose_of(8), scene.intrinsics)
        assert samples.labels == tuple(name for name in cmap.label_names if name in samples.labels)
        assert np.bincount(samples.label, minlength=len(samples.labels)).min() > 0
        step = np.diff(samples.label)
        assert (step >= 0).all()
        # Within a block, landmark order; this map's ids are its landmark indices.
        assert (np.diff(samples.landmark_id)[step == 0] >= 0).all()
        assert samples.points.shape == (samples.total_count(), 3)

    def test_selected_samples_are_pinned(self):
        # Digest of the points and ids per label over 21 priors (exact, 0.5 m
        # and 2 m off) on a small urban-corner scene with a wall added to
        # its map, as the per-landmark selector produced them.
        scene = syn.generate_scene(5, "urban-corner", n_frames=16)
        cmap = corner_map_with_wall(scene)
        rng = np.random.default_rng(0)
        h = hashlib.sha256()
        for frame_id in (0, 3, 6, 8, 10, 13, 15):
            pose = scene.pose_of(frame_id)
            for offset_m, angle in ((0.0, 0.0), (0.5, 0.01), (2.0, 0.03)):
                prior = syn.perturb_pose_random(pose, offset_m, angle, rng)
                h.update(samples_digest(sel.select_landmarks(cmap, prior, scene.intrinsics)).encode())
        assert h.hexdigest() == "abcfe81ef3e58bf05eed14f951ef08c0a2d614c16fddd45bb16057bb081bd4a5"
