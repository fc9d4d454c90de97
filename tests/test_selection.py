import hashlib
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
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
        pts, _ = sel.sample_landmark_edges(packed([lm]), EYE, K)
        assert pts.shape[0] == 0

    def test_forty_px_projection_with_spacing_four_gives_eleven(self):
        # endpoints at z=2: u spans 200*1.0/2 - (-?) ... choose x0=0, x1=0.4
        lm = segment([0.0, 0.0, 2.0], [0.4, 0.0, 2.0])
        pts, _ = sel.sample_landmark_edges(packed([lm]), EYE, K, spacing=4.0)
        u, v, _ = project_points(pts, K)
        length = np.hypot(u[-1] - u[0], v[-1] - v[0])
        assert math.isclose(length, 40.0, abs_tol=1e-9)
        assert pts.shape[0] == 11

    def test_consecutive_samples_within_spacing(self):
        lm = segment([-1.0, 0.3, 1.0], [2.0, -0.5, 14.0])
        pts, _ = sel.sample_landmark_edges(packed([lm]), EYE, K, spacing=4.0)
        u, v, _ = project_points(pts, K)
        gaps = np.hypot(np.diff(u), np.diff(v))
        assert gaps.max() <= 4.0 + 1e-9

    def test_segment_fully_outside_frustum(self):
        lm = segment([100.0, 0.0, 2.0], [101.0, 0.0, 2.0])
        pts, _ = sel.sample_landmark_edges(packed([lm]), EYE, K)
        assert pts.shape[0] == 0

    def test_half_clipped_segment_samples_in_bounds(self):
        # crosses the left image border; oracle: every sample projects in-bounds
        lm = segment([-10.0, 0.0, 5.0], [0.0, 0.0, 5.0])
        pts, _ = sel.sample_landmark_edges(packed([lm]), EYE, K)
        assert pts.shape[0] > 0
        u, v, in_front = project_points(pts, K)
        assert in_front.all()
        assert (u >= -1e-9).all() and (u <= K.width - 1 + 1e-9).all()
        assert (v >= -1e-9).all() and (v <= K.height - 1 + 1e-9).all()
        # and the visible half only: all 3D x >= just left of the border ray
        assert pts[:, 0].min() >= -10.0 * (K.cx / K.fx) / 2.0 - 0.1

    def test_wireframe_all_edges_sampled(self):
        wf = quad((0.0, 0.0), 0.5, 0.3, 4.0)
        pts, _ = sel.sample_landmark_edges(packed([wf]), EYE, K)
        u, v, _ = project_points(pts, K)
        # samples must cover all four sides: spread in both u and v
        assert np.ptp(u) > 40 and np.ptp(v) > 20

    def test_pole_has_two_silhouette_edges(self):
        lm = segment([0.0, 1.0, 6.0], [0.0, -1.0, 6.0], label=POLE, radius=0.15)
        pts, _ = sel.sample_landmark_edges(packed([lm]), EYE, K)
        u, _, _ = project_points(pts, K)
        # two vertical stripes of samples separated by the diameter
        us = np.sort(np.unique(np.round(u, 3)))
        assert us.max() - us.min() > 0.25 * K.fx / 6.0  # > one radius apart


def clip_polygon_near(points, near):
    """Reference oracle: Sutherland-Hodgman clip of one camera-frame
    polygon against z >= near, vertex by vertex."""
    out = []
    n = points.shape[0]
    for i in range(n):
        current = points[i]
        following = points[(i + 1) % n]
        c_in = current[2] >= near
        f_in = following[2] >= near
        if c_in:
            out.append(current)
        if c_in != f_in:
            t = (near - current[2]) / (following[2] - current[2])
            out.append(current + t * (following - current))
    return np.array(out) if out else np.empty((0, 3))


def rasterize_triangle(values, triangle, intrinsics):
    """Reference oracle: min-depth fill of one near-clipped camera-frame
    triangle over its pixel bounding box."""
    height, width = values.shape
    u, v, in_front = project_points(triangle, intrinsics)
    if not in_front.all():
        return
    inv_z = 1.0 / triangle[:, 2]
    a, b, c = np.column_stack([u, v])
    area2 = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if area2 < 0.0:
        b, c = c, b
        inv_z = inv_z[[0, 2, 1]]
        area2 = -area2
    if area2 < 1e-12:
        return
    u_lo = max(0, int(math.ceil(min(a[0], b[0], c[0]) - 1e-9)))
    u_hi = min(width - 1, int(math.floor(max(a[0], b[0], c[0]) + 1e-9)))
    v_lo = max(0, int(math.ceil(min(a[1], b[1], c[1]) - 1e-9)))
    v_hi = min(height - 1, int(math.floor(max(a[1], b[1], c[1]) + 1e-9)))
    if u_lo > u_hi or v_lo > v_hi:
        return
    uu, vv = np.meshgrid(np.arange(u_lo, u_hi + 1), np.arange(v_lo, v_hi + 1))
    wa = (c[0] - b[0]) * (vv - b[1]) - (c[1] - b[1]) * (uu - b[0])
    wb = (a[0] - c[0]) * (vv - c[1]) - (a[1] - c[1]) * (uu - c[0])
    wc = (b[0] - a[0]) * (vv - a[1]) - (b[1] - a[1]) * (uu - a[0])
    eps = 1e-9 * (area2 + 1.0)
    inside = (wa >= -eps) & (wb >= -eps) & (wc >= -eps)
    interp_inv_z = (wa * inv_z[0] + wb * inv_z[1] + wc * inv_z[2]) / area2
    depth = np.where(interp_inv_z > 1e-12, 1.0 / np.maximum(interp_inv_z, 1e-12), np.inf)
    patch = values[v_lo : v_hi + 1, u_lo : u_hi + 1]
    np.minimum(patch, np.where(inside, depth, np.inf), out=patch)


def pad_polygons(polygons):
    """Stack polygons of mixed vertex counts, repeating each one's last vertex."""
    n = max(len(polygon) for polygon in polygons)
    return np.array([np.concatenate([p, np.repeat(p[-1:], n - len(p), axis=0)]) for p in polygons])


class TestRasterizer:
    def test_empty_landmark_set_gives_infinite_buffer(self):
        depth = sel.rasterize_occluders(packed([]), EYE, K)[0]
        assert depth.shape == (K.height, K.width)
        assert np.isinf(depth).all()

    def test_frontoparallel_unit_square_depth(self):
        wf = quad((0.0, 0.0), 0.5, 0.5, 4.0)
        depth = sel.rasterize_occluders(packed([wf]), EYE, K)[0]
        filled = np.isfinite(depth)
        depths = depth[filled]
        assert np.abs(depths - 4.0).max() < 1e-6
        side_px = K.fx * 1.0 / 4.0  # 50 px
        area = side_px**2
        perimeter = 4 * side_px
        assert abs(filled.sum() - area) <= perimeter + 4

    def test_min_depth_wins_on_overlap(self):
        near = quad((0.0, 0.0), 0.4, 0.4, 3.0, lid=1)  # subtends +-26.7 px
        far = quad((0.0, 0.0), 1.5, 1.5, 6.0, lid=2)  # subtends +-50 px
        depth = sel.rasterize_occluders(packed([far, near]), EYE, K)[0]
        assert abs(depth[120, 160] - 3.0) < 1e-6
        u_far_only = int(K.cx + 40)
        assert abs(depth[120, u_far_only] - 6.0) < 1e-6

    def test_plain_segments_do_not_occlude(self):
        lm = segment([-1.0, 0.0, 5.0], [1.0, 0.0, 5.0])
        depth = sel.rasterize_occluders(packed([lm]), EYE, K)[0]
        assert np.isinf(depth).all()

    def test_off_screen_wall_is_culled_before_rasterizing(self):
        # A wall wholly left of the view, one straddling the near plane off
        # its right edge, and one above the top: no pixel is filled.
        walls = [
            quad((-6.0, 0.0), 1.0, 1.0, 4.0, lid=1),
            WireframeLandmark(
                SIGN, [[3.0, -1.0, -2.0], [9.0, -1.0, 6.0], [9.0, 1.0, 6.0], [3.0, 1.0, -2.0]], landmark_id=2
            ),
            quad((0.0, -4.0), 2.0, 0.5, 3.0, lid=3),
        ]
        depth = sel.rasterize_occluders(packed(walls), EYE, K)[0]
        assert np.isinf(depth).all()

    @settings(deadline=None, max_examples=150)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 8), st.sampled_from([sel._PIXEL_BUDGET, 256]))
    def test_culled_fill_equals_fan_of_every_triangle(self, seed, count, budget):
        # One batch of polygons with 3 to 6 vertices, padded to a common
        # count, on and off the image, some across the near plane: the
        # batched fill equals the oracle's fan of every clipped polygon,
        # also in chunks smaller than an image row.
        rng = np.random.default_rng(seed)
        polygons = []
        for _ in range(count):
            center = rng.uniform([-8.0, -6.0, -1.0], [8.0, 6.0, 8.0])
            polygons.append(center + rng.normal(scale=rng.choice([0.05, 1.0, 3.0]), size=(rng.integers(3, 7), 3)))
        depth = np.full((K.height, K.width), np.inf)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sel, "_PIXEL_BUDGET", budget)
            drawn = sel.rasterize_polygons(depth, pad_polygons(polygons), K)
        assert np.array_equal(np.unique(drawn), np.flatnonzero(np.isfinite(depth)))
        expected = np.full((K.height, K.width), np.inf)
        for polygon in polygons:
            clipped = clip_polygon_near(polygon, sel.NEAR_CLIP_M)
            for i in range(1, clipped.shape[0] - 1):
                rasterize_triangle(expected, clipped[[0, i, i + 1]], K)
        assert depth.tobytes() == expected.tobytes()

    def test_slanted_polygon_depth_is_exact(self):
        # plane z = 4 + x: perspective-correct interpolation is exact
        wf = WireframeLandmark(
            SIGN,
            [[-1.0, -1.0, 3.0], [1.0, -1.0, 5.0], [1.0, 1.0, 5.0], [-1.0, 1.0, 3.0]],
            landmark_id=3,
        )
        depth = sel.rasterize_occluders(packed([wf]), EYE, K)[0]
        vv, uu = np.nonzero(np.isfinite(depth))
        for v, u in list(zip(vv, uu))[:: max(1, len(vv) // 50)]:
            z = depth[v, u]
            x = (u - K.cx) * z / K.fx
            assert abs(z - (4.0 + x)) < 1e-6


def make_map(landmarks, labels=(ROAD, SIGN, POLE)):
    return CompactMap(labels, tuple(landmarks))


def packed(landmarks):
    return make_map(landmarks).packed


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
        raw, _ = sel.sample_landmark_edges(packed([pole]), EYE, K, config=cfg)
        corners = sign.points
        _, v_raw, _ = project_points(raw, K)
        sil_v = K.fy * 0.6 / 5.0
        expected_kept = np.array([not ray_hits_quad(p, corners) for p in raw])
        got_kept = np.array([any(np.allclose(p, q, atol=1e-12) for q in kept) for p in raw])
        # pole samples run vertically through the quad center, so the only
        # boundary crossings are the quad's top and bottom edges
        decisive = np.abs(np.abs(v_raw - K.cy) - sil_v) > 1.0
        assert (got_kept[decisive] == expected_kept[decisive]).all()
        assert expected_kept.sum() > 0 and (~expected_kept).sum() > 0

    def test_occlusion_margin_is_conservative_near_silhouettes(self):
        sign = quad((0.0, 0.0), 0.6, 0.6, 5.0, lid=0)
        pole = segment([0.0, -3.0, 10.0], [0.0, 3.0, 10.0], label=POLE, lid=1, radius=0.1)
        margin = 8
        cfg = PipelineConfig(occlusion_margin_px=margin)
        cmap = make_map([sign, pole])
        kept = label_points(sel.select_landmarks(cmap, EYE, K, cfg), "lamp_pole")
        raw, _ = sel.sample_landmark_edges(packed([pole]), EYE, K, config=cfg)
        corners = sign.points
        u_raw, v_raw, _ = project_points(raw, K)
        sil_half_u = K.fx * 0.6 / 5.0
        sil_half_v = K.fy * 0.6 / 5.0
        for p, u, v in zip(raw, u_raw, v_raw):
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
        u, v, _ = project_points(label_points(samples, "lane_line"), K)
        visible_len = np.hypot(np.ptp(u), np.ptp(v))
        expected = math.ceil(visible_len / cfg.sample_spacing_px)
        assert abs(samples.total_count() - (expected + 1)) <= 1

    def test_occlusion_consistency_invariant(self):
        rng = np.random.default_rng(0)
        landmarks = [quad((rng.uniform(-1, 1), rng.uniform(-1, 1)), 0.4, 0.4, rng.uniform(3, 9), lid=i) for i in range(6)]
        landmarks.append(segment([-2.0, 0.5, 8.0], [2.0, 0.5, 8.0], lid=6))
        cfg = PipelineConfig()
        cmap = make_map(landmarks)
        samples = sel.select_landmarks(cmap, EYE, K, cfg)
        depth = sel.rasterize_occluders(cmap.packed, EYE, K, cfg)[0]
        pts = samples.points
        u, v, _ = project_points(pts, K)
        iu = np.clip(np.rint(u).astype(int), 0, K.width - 1)
        iv = np.clip(np.rint(v).astype(int), 0, K.height - 1)
        assert (pts[:, 2] <= depth[iv, iu] + cfg.depth_tolerance_m + 1e-9).all()

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
        direct = np.stack(project_points(pts_r, K)[:2])
        world = prior.apply(pts_r)
        back_to_r = prior.inverse().apply(world)
        round_trip = np.stack(project_points(back_to_r, K)[:2])
        assert np.abs(direct - round_trip).max() < 0.5

    def test_wireframe_self_occlusion_exempt(self):
        wf = quad((0.0, 0.0), 0.7, 0.5, 5.0, lid=0)
        samples = sel.select_landmarks(make_map([wf]), EYE, K)
        pts = label_points(samples, "traffic_sign")
        raw, _ = sel.sample_landmark_edges(packed([wf]), EYE, K)
        assert pts.shape[0] == raw.shape[0]

    def test_pole_default_radius_from_config(self):
        lm = segment([1.0, 2.0, 8.0], [1.0, -2.0, 8.0], label=POLE, lid=0)
        wide = PipelineConfig(default_pole_radius_m=0.5)
        narrow = PipelineConfig(default_pole_radius_m=0.05)
        pts_wide, _ = sel.sample_landmark_edges(packed([lm]), EYE, K, config=wide)
        pts_narrow, _ = sel.sample_landmark_edges(packed([lm]), EYE, K, config=narrow)
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


class TestPackedMap:
    def test_cached_and_fresh_packs_give_identical_bytes(self):
        scene = syn.generate_scene(5, "urban-corner", n_frames=6)
        cmap = scene.compact_map
        assert "packed" in vars(cmap)  # generate_scene's selection built and kept it
        for frame_id in (0, 3, 5):
            pose = scene.pose_of(frame_id)
            fresh = CompactMap(cmap.labels, cmap.landmarks)
            cached = sel.select_landmarks(cmap, pose, scene.intrinsics)
            renewed = sel.select_landmarks(fresh, pose, scene.intrinsics)
            assert cached.labels == renewed.labels and samples_digest(cached) == samples_digest(renewed)
            fresh = CompactMap(cmap.labels, cmap.landmarks)
            rendered = syn.render_frame(scene, frame_id)
            rerendered = syn.render_frame(replace(scene, compact_map=fresh), frame_id)
            assert [r.tobytes() for r in rendered] == [r.tobytes() for r in rerendered]

    def test_map_without_wireframes_poles_or_landmarks(self):
        lane = segment([-1.0, 0.5, 5.0], [1.0, 0.5, 5.0], lid=0)
        pole = segment([0.5, -1.0, 6.0], [0.5, 1.0, 6.0], label=POLE, lid=1)
        sign = quad((0.0, 0.0), 0.3, 0.3, 4.0)
        for landmarks, occludes in (([], False), ([lane], False), ([lane, pole], True), ([lane, sign], True)):
            cmap = make_map(landmarks)
            packed = cmap.packed
            wireframes = sum(isinstance(lm, WireframeLandmark) for lm in landmarks)
            assert packed.points.shape[1] == 3 and packed.edges.shape[1] == 2
            assert packed.corners.shape == (wireframes, 4)
            assert packed.poles.shape == packed.pole_radius.shape == (int(pole in landmarks),)
            assert packed.label.shape == packed.landmark_id.shape == (len(landmarks),)
            assert not any(array.flags.writeable for array in vars(packed).values())
            depth = sel.rasterize_occluders(packed, EYE, K)[0]
            assert np.isfinite(depth).any() == occludes
            samples = sel.select_landmarks(cmap, EYE, K)
            assert samples.landmark_ids() <= {lm.landmark_id for lm in landmarks}
            assert (0 in samples.landmark_ids()) == bool(landmarks)

    def test_default_pole_radius_is_read_per_call(self):
        # One map, configs alternating between two default radii: each call
        # must match a map packed fresh for it.
        default = segment([0.5, -1.0, 5.0], [0.5, 1.0, 5.0], label=POLE, lid=0)
        own = segment([-0.5, -1.0, 5.0], [-0.5, 1.0, 5.0], label=POLE, lid=1, radius=0.2)
        cmap = make_map([default, own])
        depths = []
        for radius in (0.5, 0.05, 0.5):
            cfg = PipelineConfig(default_pole_radius_m=radius)
            fresh = make_map([default, own]).packed
            depths.append(sel.rasterize_occluders(cmap.packed, EYE, K, cfg)[0].tobytes())
            assert depths[-1] == sel.rasterize_occluders(fresh, EYE, K, cfg)[0].tobytes()
            points, owner = sel.sample_landmark_edges(cmap.packed, EYE, K, config=cfg)
            fresh_points, fresh_owner = sel.sample_landmark_edges(fresh, EYE, K, config=cfg)
            assert points.tobytes() == fresh_points.tobytes() and owner.tobytes() == fresh_owner.tobytes()
        assert depths[0] == depths[2] != depths[1]


class TestEmpty:
    def test_no_landmarks_no_samples(self):
        points, owner = sel.sample_landmark_edges(packed([]), EYE, K)
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
        points, owner = sel.sample_landmark_edges(packed(landmarks), prior, K, spacing=spacing)
        singles = [sel.sample_landmark_edges(packed([lm]), prior, K, spacing=spacing) for lm in landmarks]
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
        depth = np.full((height, width), np.inf)
        for _ in range(rng.integers(0, 4)):
            v0, u0 = rng.integers(0, height), rng.integers(0, width)
            v1, u1 = rng.integers(v0, height) + 1, rng.integers(u0, width) + 1
            patch = depth[v0:v1, u0:u1]
            np.minimum(patch, rng.uniform(0.5, 30.0, size=patch.shape), out=patch)
        iv = rng.integers(0, height, size=20)
        iu = rng.integers(0, width, size=20)
        finite = np.flatnonzero(np.isfinite(depth))
        got = sel.silhouette_margin_depth(depth, finite, margin_px, iv, iu)
        assert got.tobytes() == brute_force_margin(depth, margin_px, iv, iu).tobytes()

    def test_margin_wider_than_the_raster_is_clamped(self):
        # At max(H, W) - 1 = 15 every window covers the raster, so a wider
        # margin gives the same depths; its memory must not grow with its square.
        depth = np.full((12, 16), np.inf)
        depth[0, 0] = 3.0
        depth[9:12, 12:16] = np.random.default_rng(5).uniform(1.0, 20.0, size=(3, 4))
        iv, iu = np.divmod(np.arange(depth.size), 16)
        finite = np.flatnonzero(np.isfinite(depth))
        widest = sel.silhouette_margin_depth(depth, finite, 15, iv, iu)
        assert widest.tobytes() == brute_force_margin(depth, 15, iv, iu).tobytes()
        assert (widest == widest[0]).all() and np.isfinite(widest[0])  # each window holds every seed
        tracemalloc.start()
        try:
            got = sel.silhouette_margin_depth(depth, finite, 600, iv, iu)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == widest.tobytes()
        assert peak < 1_000_000


class TestSilhouetteSeeds:
    """silhouette_margin_depth looks for seeds among the pixels the
    rasterizer drew, not by scanning the raster: those are exactly the
    finite pixels."""

    @pytest.mark.parametrize("preset", ["urban-straight", "urban-corner", "sparse"])
    def test_drawn_pixels_are_the_finite_pixels(self, preset):
        scene = syn.generate_scene(3, preset, n_frames=12)
        drawn_frames = 0
        for frame_id in range(0, 12, 3):
            depth, finite = sel.rasterize_occluders(scene.compact_map.packed, scene.pose_of(frame_id), scene.intrinsics)
            assert finite.dtype == np.intp
            assert np.array_equal(np.unique(finite), np.flatnonzero(np.isfinite(depth)))
            drawn_frames += finite.size > 0
        assert drawn_frames > 0

    def test_a_frame_with_no_occluder(self):
        scene = syn.generate_scene(3, "urban-straight", n_frames=2)
        pose = scene.pose_of(0)
        # Turned to face straight up, the camera sees no wall or pole.
        skyward = Pose(pose.rotation @ so3_exp([math.pi / 2, 0.0, 0.0]), pose.translation)
        for packed_map, at in ((scene.compact_map.packed, skyward), (packed([]), EYE)):
            depth, finite = sel.rasterize_occluders(packed_map, at, scene.intrinsics)
            assert finite.size == 0 and np.isinf(depth).all()
            iv, iu = np.divmod(np.arange(0, depth.size, 97), depth.shape[1])
            assert np.isinf(sel.silhouette_margin_depth(depth, finite, 3, iv, iu)).all()

    def test_repeated_and_shuffled_seeds_change_nothing(self):
        scene = syn.generate_scene(5, "urban-corner", n_frames=16)
        depth, finite = sel.rasterize_occluders(scene.compact_map.packed, scene.pose_of(8), scene.intrinsics)
        assert finite.size > 0
        iv, iu = np.divmod(np.arange(0, depth.size, 13), depth.shape[1])
        expected = sel.silhouette_margin_depth(depth, np.flatnonzero(np.isfinite(depth)), 4, iv, iu)
        assert np.isfinite(expected).any()
        rng = np.random.default_rng(0)
        messy = rng.permutation(np.concatenate([finite, finite[: finite.size // 3]]))
        assert sel.silhouette_margin_depth(depth, messy, 4, iv, iu).tobytes() == expected.tobytes()


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
