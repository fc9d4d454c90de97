from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeloc import edge_features as ef
from edgeloc import synthetic as syn
from edgeloc.geometry import CameraIntrinsics


def brute_force_squared(mask):
    """O(pixels * edges) nearest-edge-pixel search, the exactness oracle."""
    ys, xs = np.nonzero(mask)
    height, width = mask.shape
    if len(ys) == 0:
        return np.full((height, width), np.inf)
    uu = np.arange(width)[:, None]
    rows = [((v - ys) ** 2 + (uu - xs) ** 2).min(axis=1) for v in range(height)]
    return np.array(rows, dtype=float)


def oracle_distance(mask, d_max):
    """The truncated field V = min(sqrt(d^2), d_max) from the oracle."""
    return np.minimum(np.sqrt(brute_force_squared(mask)), float(d_max))


def gradients(distance):
    """Reference G_u, G_v grids: np.gradient, with zeros on a one-pixel axis."""
    height, width = distance.shape[-2:]
    grad_u = np.gradient(distance, axis=-1) if width > 1 else np.zeros_like(distance)
    grad_v = np.gradient(distance, axis=-2) if height > 1 else np.zeros_like(distance)
    return grad_u, grad_v


def centre_slopes(field):
    """G_u, G_v sampled at every pixel centre through bilinear_gather."""
    height, width = field.shape
    vv, uu = np.meshgrid(np.arange(height, dtype=float), np.arange(width, dtype=float), indexing="ij")
    _, slope = ef.bilinear_gather(uu, vv, field.shape)(field.distance)
    return slope()


def three_index_gather(u, v, grids, index):
    """(V, G_u, G_v) read corner by corner with a (layer, row, column) index
    per corner: the oracle of bilinear_gather's flat reads."""
    height, width = grids.shape[1:]
    iu = np.clip(np.floor(u).astype(int), 0, max(width - 2, 0))
    iv = np.clip(np.floor(v).astype(int), 0, max(height - 2, 0))
    iu1, iv1 = np.minimum(iu + 1, width - 1), np.minimum(iv + 1, height - 1)
    iu0, iu2 = np.maximum(iu - 1, 0), np.minimum(iu1 + 1, width - 1)
    iv0, iv2 = np.maximum(iv - 1, 0), np.minimum(iv1 + 1, height - 1)
    su0, su1 = np.maximum(iu1 - iu0, 1), np.maximum(iu2 - iu, 1)
    sv0, sv1 = np.maximum(iv1 - iv0, 1), np.maximum(iv2 - iv, 1)
    fu, fv = u - iu, v - iv
    w00, w10, w01, w11 = (1.0 - fu) * (1.0 - fv), fu * (1.0 - fv), (1.0 - fu) * fv, fu * fv

    def at(row, col):
        return grids[(index, row, col)]

    d00, d10, d01, d11 = at(iv, iu), at(iv, iu1), at(iv1, iu), at(iv1, iu1)
    value = d00 * w00 + d10 * w10 + d01 * w01 + d11 * w11
    grad_u = (
        (d10 - at(iv, iu0)) / su0 * w00
        + (at(iv, iu2) - d00) / su1 * w10
        + (d11 - at(iv1, iu0)) / su0 * w01
        + (at(iv1, iu2) - d01) / su1 * w11
    )
    grad_v = (
        (d01 - at(iv0, iu)) / sv0 * w00
        + (d11 - at(iv0, iu1)) / sv0 * w10
        + (at(iv2, iu) - d00) / sv1 * w01
        + (at(iv2, iu1) - d10) / sv1 * w11
    )
    return value, grad_u, grad_v


def assert_flat_reads_match(grids, u, v, index):
    value, slope = ef.bilinear_gather(u, v, grids.shape[1:])(grids, index)
    got = (value, *slope())
    for flat, reference in zip(got, three_index_gather(u, v, grids, index)):
        assert flat.tobytes() == reference.tobytes()


def random_mask(rng):
    height = int(rng.integers(1, 65))
    width = int(rng.integers(1, 65))
    density = rng.uniform(0.0, 0.2)
    return rng.random((height, width)) < density


class TestDistanceTransform:
    def test_all_ones_mask_is_zero(self):
        field = ef.build_field(ef.SemanticEdgeMask("x", np.ones((8, 9), bool)))
        assert (field.distance == 0.0).all()

    def test_single_pixel_pythagorean(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[0, 0] = True
        field = ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=50.0)
        assert field.distance[4, 3] == 5.0  # (u, v) = (3, 4)

    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(123)
        for _ in range(60):
            mask = random_mask(rng)
            ours = ef.squared_edge_distance(mask)
            oracle = brute_force_squared(mask)
            assert np.array_equal(ours, oracle)

    def test_empty_mask_is_truncation_value(self):
        field = ef.build_field(ef.SemanticEdgeMask("x", np.zeros((6, 6), bool)), d_max=20.0)
        assert (field.distance == 20.0).all()

    def test_truncation_bound(self):
        rng = np.random.default_rng(5)
        for d_max in (3.0, 7.5, 20.0):
            mask = random_mask(rng)
            field = ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=d_max)
            assert field.distance.max() <= d_max

    def test_untruncated_with_large_d_max(self):
        rng = np.random.default_rng(6)
        mask = random_mask(rng)
        while not mask.any():
            mask = random_mask(rng)
        height, width = mask.shape
        field = ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=float(width + height))
        assert np.array_equal(np.square(field.distance).round(6), brute_force_squared(mask).round(6))

    def test_transpose_symmetry(self):
        rng = np.random.default_rng(7)
        mask = rng.random((40, 60)) < 0.05
        a = ef.squared_edge_distance(mask)
        b = ef.squared_edge_distance(mask.T)
        assert np.array_equal(a.T, b)

    def test_label_isolation(self):
        rng = np.random.default_rng(8)
        mask_a = rng.random((32, 32)) < 0.1
        mask_b = rng.random((32, 32)) < 0.1
        field_a = ef.build_field(ef.SemanticEdgeMask("a", mask_a))
        both = ef.build_fields(
            [ef.SemanticEdgeMask("a", mask_a), ef.SemanticEdgeMask("b", mask_b)]
        )
        assert np.array_equal(field_a.distance, both["a"].distance)

    def test_batched_matches_single(self):
        rng = np.random.default_rng(9)
        masks = [ef.SemanticEdgeMask(f"l{i}", rng.random((30, 40)) < 0.08) for i in range(4)]
        batched = ef.build_fields(masks, d_max=15.0)
        for mask in masks:
            single = ef.build_field(mask, d_max=15.0)
            assert batched[mask.label].distance.tobytes() == single.distance.tobytes()


class TestGradients:
    def test_empty_mask_gradients_zero(self):
        grad_u, grad_v = centre_slopes(ef.build_field(ef.SemanticEdgeMask("x", np.zeros((8, 8), bool))))
        assert (grad_u == 0).all() and (grad_v == 0).all()

    def test_unit_slope_along_axis(self):
        mask = np.zeros((21, 21), dtype=bool)
        mask[10, 10] = True
        grad_u, grad_v = centre_slopes(ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=50.0))
        # along +u from the center: V grows one pixel per pixel
        assert np.allclose(grad_u[10, 12:19], 1.0)
        assert np.allclose(grad_v[10, 12:19], 0.0)

    def test_central_difference_definition_interior(self):
        rng = np.random.default_rng(10)
        mask = rng.random((24, 24)) < 0.1
        field = ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=30.0)
        v = field.distance
        expected_u = (v[5, 8 + 1] - v[5, 8 - 1]) / 2.0
        expected_v = (v[5 + 1, 8] - v[5 - 1, 8]) / 2.0
        _, grad_u, grad_v = ef.sample_field(field, 8.0, 5.0)
        assert grad_u == expected_u
        assert grad_v == expected_v

    def test_gradient_lipschitz_bounds(self):
        # The Euclidean distance field is 1-Lipschitz, so each central or
        # one-sided difference is bounded by 1 per axis; the joint norm can
        # reach sqrt(2) where the differences straddle a crease.
        rng = np.random.default_rng(11)
        for _ in range(30):
            mask = random_mask(rng)
            if not mask.any():
                continue
            height, width = mask.shape
            d_max = float(width + height)
            grad_u, grad_v = centre_slopes(ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=d_max))
            assert np.abs(grad_u).max() <= 1.0 + 1e-6
            assert np.abs(grad_v).max() <= 1.0 + 1e-6
            norm = np.hypot(grad_u, grad_v)
            assert norm.max() <= np.sqrt(2.0) + 1e-6


@st.composite
def seeded_masks(draw):
    """A random bool raster up to 64x64; its pixels come from a drawn seed and density."""
    height = draw(st.integers(1, 64))
    width = draw(st.integers(1, 64))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.002, 0.02, 0.1, 0.3, 1.0]))
    return np.random.default_rng(seed).random((height, width)) < density


@st.composite
def masks_and_d_max(draw):
    mask = draw(seeded_masks())
    height, width = mask.shape
    d_max = draw(
        st.one_of(
            st.floats(1.0, 40.0).filter(lambda d: not d.is_integer()),
            st.floats(0.01, 0.99),
            st.just(20.0),
            st.floats(float(height + width), 4.0 * (height + width)),
        )
    )
    return mask, d_max


def assert_field_is_oracle(field, mask, d_max):
    assert field.distance.tobytes() == oracle_distance(mask, d_max).tobytes()


class TestKernelProperties:
    """The capped integer kernel against the brute-force oracle, byte for byte."""

    @settings(deadline=None, max_examples=150)
    @given(masks_and_d_max())
    def test_truncated_field_matches_oracle(self, case):
        mask, d_max = case
        assert_field_is_oracle(ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=d_max), mask, d_max)

    @settings(deadline=None, max_examples=100)
    @given(seeded_masks(), st.integers(1, 130))
    def test_squared_distance_matches_oracle(self, mask, window):
        oracle = brute_force_squared(mask)
        assert ef.squared_edge_distance(mask).tobytes() == oracle.tobytes()
        capped = ef.squared_edge_distance(mask, window=window)
        assert capped.tobytes() == np.minimum(oracle, float(window * window)).tobytes()

    @settings(deadline=None)
    @given(st.integers(1, 64), st.booleans(), st.integers(0, 2**32 - 1), st.floats(0.5, 80.0))
    def test_one_pixel_rasters(self, length, wide, seed, d_max):
        shape = (1, length) if wide else (length, 1)
        mask = np.random.default_rng(seed).random(shape) < 0.1
        assert ef.squared_edge_distance(mask).tobytes() == brute_force_squared(mask).tobytes()
        field = ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=d_max)
        assert_field_is_oracle(field, mask, d_max)
        grad_u, grad_v = centre_slopes(field)
        across = grad_v if wide else grad_u
        assert (across == 0.0).all()

    @settings(deadline=None)
    @given(st.integers(1, 64), st.integers(1, 64), st.floats(0.1, 200.0))
    def test_empty_and_full_masks(self, height, width, d_max):
        empty = np.zeros((height, width), dtype=bool)
        full = np.ones((height, width), dtype=bool)
        assert np.isposinf(ef.squared_edge_distance(empty)).all()
        assert (ef.squared_edge_distance(full) == 0.0).all()
        fields = ef.build_fields([ef.SemanticEdgeMask("e", empty), ef.SemanticEdgeMask("f", full)], d_max=d_max)
        assert (fields["e"].distance == d_max).all()
        assert (fields["f"].distance == 0.0).all()
        for field in fields.values():
            grad_u, grad_v = centre_slopes(field)
            assert (grad_u == 0.0).all() and (grad_v == 0.0).all()

    @pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
    def test_zero_size_rasters(self, shape):
        mask = np.zeros(shape, dtype=bool)
        assert ef.squared_edge_distance(mask).shape == shape
        assert ef.squared_edge_distance(np.stack([mask] * 3)).shape == (3,) + shape
        assert ef.build_field(ef.SemanticEdgeMask("x", mask)).distance.shape == shape

    @settings(deadline=None, max_examples=50)
    @given(
        st.integers(1, 48),
        st.integers(1, 48),
        st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=5),
        st.floats(0.5, 30.0),
    )
    def test_batched_equals_alone(self, height, width, seeds, d_max):
        masks = [
            ef.SemanticEdgeMask(f"l{i}", np.random.default_rng(seed).random((height, width)) < 0.05)
            for i, seed in enumerate(seeds)
        ]
        batched = ef.build_fields(masks, d_max=d_max)
        for mask in masks:
            alone = ef.build_field(mask, d_max=d_max)
            assert batched[mask.label].distance.tobytes() == alone.distance.tobytes()

    @pytest.mark.parametrize("cap, dtype", [(181, np.uint16), (182, np.uint32)])
    def test_integer_width_switch(self, cap, dtype):
        # Columns with no edge hold cap^2, so the pass sums reach nearly
        # 2 * cap^2: past 65535 at cap = 182, which uint16 would wrap.
        mask = np.zeros((2, 400), dtype=bool)
        mask[0, [3, 350]] = True
        mask[1, 180] = True
        assert ef._capped_squared_distance(mask, cap).dtype == dtype
        for d_max in (cap - 0.5, float(cap)):
            assert_field_is_oracle(ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=d_max), mask, d_max)
        oracle = brute_force_squared(mask)
        assert ef.squared_edge_distance(mask, window=cap).tobytes() == np.minimum(oracle, cap * cap).tobytes()

    @settings(deadline=None, max_examples=40)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([180.5, 181.0, 181.5, 182.0]))
    def test_thin_rasters_around_width_switch(self, seed, d_max):
        mask = np.random.default_rng(seed).random((2, 400)) < 0.004
        assert_field_is_oracle(ef.build_field(ef.SemanticEdgeMask("x", mask), d_max=d_max), mask, d_max)


@st.composite
def grids_and_points(draw):
    """A (layers, H, W) float stack and sample points on it.

    The stack is uniform noise, plateaued noise, or truncated distance fields
    of seeded masks; one-pixel axes are drawn often. A third of the points
    sit on integer pixel centres and some on each of the four borders.
    """
    height = draw(st.one_of(st.just(1), st.integers(1, 24)))
    width = draw(st.one_of(st.just(1), st.integers(1, 24)))
    layers = draw(st.integers(1, 3))
    source = draw(st.sampled_from(["noise", "plateau", "field"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if source == "field":
        d_max = draw(st.sampled_from([0.5, 3.0, 7.5, 20.0]))
        masks = [ef.SemanticEdgeMask(f"l{i}", rng.random((height, width)) < 0.05) for i in range(layers)]
        grids = np.stack([field.distance for field in ef.build_fields(masks, d_max=d_max).values()])
    else:
        grids = rng.random((layers, height, width)) * draw(st.sampled_from([1.0, 10.0, 100.0]))
        if source == "plateau":
            grids = np.minimum(grids, np.quantile(grids, 0.3))
    count = 64
    u = rng.uniform(0.0, width - 1, count)
    v = rng.uniform(0.0, height - 1, count)
    centre = rng.random(count) < 0.3
    u[centre] = np.round(u[centre])
    v[centre] = np.round(v[centre])
    u[:4], v[4:8], u[8:12], v[12:16] = 0.0, 0.0, width - 1.0, height - 1.0
    return grids, u, v, rng.integers(0, layers, count)


class TestSampledGradient:
    """G_u, G_v taken at the sample equal a bilinear gather over np.gradient grids."""

    @settings(deadline=None, max_examples=300)
    @given(grids_and_points())
    def test_matches_gather_over_reference_grids(self, case):
        grids, u, v, index = case
        gather = ef.bilinear_gather(u, v, grids.shape[1:])
        value, slope = gather(grids, index)
        grad_u, grad_v = slope()
        ref_u, ref_v = gradients(grids)
        assert grad_u.tobytes() == gather(ref_u, index)[0].tobytes()
        assert grad_v.tobytes() == gather(ref_v, index)[0].tobytes()

    @settings(deadline=None, max_examples=300)
    @given(grids_and_points())
    def test_flat_reads_match_three_index_reads(self, case):
        grids, u, v, index = case
        assert_flat_reads_match(grids, u, v, index)
        # The same values in a non-contiguous stack: every other row and column
        # of a larger array, mirrored left to right.
        layers, height, width = grids.shape
        holder = np.full((layers, 2 * height, 2 * width), np.nan)
        holder[:, ::2, ::-2] = grids
        strided = holder[:, ::2, ::-2]
        assert strided.size == 1 or not strided.flags.c_contiguous
        assert_flat_reads_match(strided, u, v, index)

    @pytest.mark.parametrize("shape", [(1, 7), (6, 1), (1, 1), (2, 2), (5, 9)])
    def test_flat_reads_on_thin_grids_and_every_border(self, shape):
        height, width = shape
        rng = np.random.default_rng(height * 10 + width)
        grids = rng.random((3, height, width)) * 10.0
        inner_u = rng.uniform(0.0, width - 1, 8)
        inner_v = rng.uniform(0.0, height - 1, 8)
        # Points on the left, right, top and bottom borders and at the four corners.
        u = np.concatenate([np.zeros(8), np.full(8, width - 1.0), inner_u, inner_u, [0.0, width - 1.0] * 2])
        v = np.concatenate([inner_v, inner_v, np.zeros(8), np.full(8, height - 1.0), [0.0] * 2 + [height - 1.0] * 2])
        index = np.arange(u.size) % 3
        assert_flat_reads_match(grids, u, v, index)

    @settings(deadline=None, max_examples=50)
    @given(grids_and_points())
    def test_sample_field_matches_reference_grids(self, case):
        grids, u, v, index = case
        field = ef.SemanticEdgeField("x", grids[0], d_max=100.0)
        ref_u, ref_v = gradients(field.distance)
        for point_u, point_v in zip(u[:16], v[:16]):
            gather = ef.bilinear_gather(np.float64(point_u), np.float64(point_v), field.shape)
            expected = (gather(field.distance)[0], gather(ref_u)[0], gather(ref_v)[0])
            assert ef.sample_field(field, point_u, point_v) == tuple(float(x) for x in expected)


class TestFieldRegression:
    """Fields of a small rendered frame pinned to the oracle, and their slopes
    at every pixel centre to np.gradient of the oracle."""

    def test_synthetic_frame_fields_are_oracle_bytes(self):
        scene = syn.generate_scene(3, "urban-straight", n_frames=2)
        small = CameraIntrinsics(fx=130.0, fy=130.0, cx=79.5, cy=49.5, width=160, height=100)
        scene = replace(scene, intrinsics=small)
        label_image, edges, dynamic = syn.render_frame(scene, 1)
        masks = ef.build_edge_masks(label_image, edges, dynamic, scene.compact_map.label_names)
        assert sum(m.pixels.any() for m in masks) >= 2
        d_max = 20.0
        for stack in (masks, [ef.coarsen_mask(m, 4) for m in masks]):
            fields = ef.build_fields(stack, d_max=d_max)
            for mask in stack:
                expected = oracle_distance(mask.pixels, d_max)
                field = fields[mask.label]
                assert field.distance.tobytes() == expected.tobytes()
                grad_u, grad_v = centre_slopes(field)
                assert grad_u.tobytes() == np.gradient(expected, axis=1).tobytes()
                assert grad_v.tobytes() == np.gradient(expected, axis=0).tobytes()


class TestSampleField:
    def make_field(self):
        grid = np.arange(12, dtype=float).reshape(3, 4)
        return ef.SemanticEdgeField("x", grid, d_max=100.0)

    def test_integer_pixel_exact(self):
        field = self.make_field()
        value, _, _ = ef.sample_field(field, 2.0, 1.0)
        assert value == field.distance[1, 2]

    def test_midpoint_average(self):
        grid = np.array([[2.0, 4.0], [2.0, 4.0]])
        field = ef.SemanticEdgeField("x", grid, d_max=10.0)
        value, _, _ = ef.sample_field(field, 0.5, 0.0)
        assert value == 3.0

    def test_out_of_bounds_raises(self):
        with pytest.raises(ef.OutOfBoundsPixel):
            ef.sample_field(self.make_field(), -0.5, 1.0)
        with pytest.raises(ef.OutOfBoundsPixel):
            ef.sample_field(self.make_field(), 1.0, 2.5)

    def test_hand_computed_bilinear(self):
        grid = np.zeros((8, 8))
        grid[3, 4] = 1.0
        grid[4, 4] = 3.0
        grid[3, 5] = 2.0
        grid[4, 5] = 4.0
        field = ef.SemanticEdgeField("x", grid, d_max=10.0)
        # at (u, v) = (4.25, 3.5): weights .75*.5, .25*.5, .75*.5, .25*.5
        expected = 1.0 * 0.375 + 2.0 * 0.125 + 3.0 * 0.375 + 4.0 * 0.125
        value, _, _ = ef.sample_field(field, 4.25, 3.5)
        assert abs(value - expected) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_one_pixel_wide_or_tall_field(self, shape):
        grid = np.arange(5.0)[: shape[0] * shape[1]].reshape(shape) * 2.0
        field = ef.SemanticEdgeField("x", grid, d_max=100.0)
        for i in range(grid.size):
            v, u = np.unravel_index(i, shape)
            assert ef.sample_field(field, float(u), float(v))[0] == grid[v, u]
        if grid.size > 1:
            u, v = (1.5, 0.0) if shape[1] > 1 else (0.0, 1.5)
            assert ef.sample_field(field, u, v)[0] == 3.0


class TestBuildEdgeMasks:
    def setup_method(self):
        self.labels = ["road_mark", "pole"]
        self.label_img = np.zeros((20, 20), dtype=np.uint8)
        self.label_img[5, :] = 1
        self.label_img[:, 3] = 2
        self.edges = np.zeros((20, 20), dtype=np.uint8)
        self.edges[5, :] = 255
        self.edges[:, 3] = 255

    def test_zero_dynamic_mask_splits_by_label(self):
        masks = ef.build_edge_masks(self.label_img, self.edges, np.zeros((20, 20)), self.labels)
        assert masks[0].label == "road_mark"
        assert masks[0].pixels[5, 10]
        assert not masks[0].pixels[10, 3]
        assert masks[1].pixels[10, 3]

    def test_full_dynamic_mask_empties_everything(self):
        masks = ef.build_edge_masks(self.label_img, self.edges, np.ones((20, 20)), self.labels)
        assert not masks[0].pixels.any()
        assert not masks[1].pixels.any()

    def test_dilated_box_removal_matches_set_arithmetic(self):
        dynamic = np.zeros((20, 20), dtype=np.uint8)
        dynamic[8:12, 8:12] = 255
        margin = 2
        masks = ef.build_edge_masks(self.label_img, self.edges, dynamic, self.labels, boundary_margin=margin)
        # oracle: dilate the box by the margin with plain set arithmetic
        dilated = np.zeros((20, 20), dtype=bool)
        for v in range(20):
            for u in range(20):
                if dynamic[
                    max(0, v - margin):v + margin + 1, max(0, u - margin):u + margin + 1
                ].any():
                    dilated[v, u] = True
        expected = (self.edges != 0) & (self.label_img == 1) & ~dilated
        assert np.array_equal(masks[0].pixels, expected)

    def test_dimension_mismatch(self):
        with pytest.raises(ef.DimensionMismatch):
            ef.build_edge_masks(self.label_img, self.edges[:10], np.zeros((20, 20)), self.labels)


class TestCoarsen:
    def test_block_or_pooling(self):
        mask = np.zeros((8, 8), dtype=bool)
        mask[5, 2] = True
        coarse = ef.coarsen_mask(ef.SemanticEdgeMask("x", mask), scale=4)
        assert coarse.pixels.shape == (2, 2)
        assert coarse.pixels[1, 0] and not coarse.pixels[0, 0]

    @settings(deadline=None, max_examples=200)
    @given(st.integers(1, 5), st.integers(1, 23), st.integers(1, 23), st.floats(0.0, 0.3), st.integers(0, 2**32 - 1))
    def test_matches_four_axis_block_or(self, scale, height, width, density, seed):
        # Oracle: OR over both block axes of the 4-D reshape at once. Shapes
        # need not be multiples of the scale; smaller than one block gives
        # an empty coarse mask.
        mask = np.random.default_rng(seed).random((height, width)) < density
        ch, cw = height // scale, width // scale
        expected = mask[: ch * scale, : cw * scale].reshape(ch, scale, cw, scale).any(axis=(1, 3))
        coarse = ef.coarsen_mask(ef.SemanticEdgeMask("x", mask, frame_id=3), scale=scale)
        assert coarse.pixels.shape == (ch, cw)
        assert coarse.pixels.tobytes() == expected.tobytes()
        assert coarse.label == "x" and coarse.frame_id == 3
