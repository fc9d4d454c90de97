import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgeloc import compact_map as cm

MINIMAL = """CMAP 1
LABEL lane_line road
SEG lane_line 0 0 0 4 0 0
"""

WIREFRAME = """CMAP 1
LABEL traffic_sign nonroad
WF traffic_sign 4 10 -0.6 2.8 10 0.6 2.8 10 0.6 3.6 10 -0.6 3.6
"""


def small_map():
    labels = (
        cm.SemanticLabel("lane_line", "road"),
        cm.SemanticLabel("lamp_pole", "nonroad"),
    )
    landmarks = (
        cm.LineSegmentLandmark(labels[0], [0, 0, 0], [4.5, 0.25, 0], landmark_id=0),
        cm.LineSegmentLandmark(labels[1], [2, 6.5, 0], [2, 6.5, 6], pole_radius=0.2, landmark_id=1),
        cm.WireframeLandmark(
            labels[0], [[1, -0.25, 0], [3, -0.25, 0], [3, 0.25, 0], [1, 0.25, 0]], landmark_id=2
        ),
    )
    return cm.CompactMap(labels, landmarks)


class TestParse:
    def test_minimal_segment_file(self):
        parsed = cm.parse_map(MINIMAL)
        assert len(parsed.landmarks) == 1
        assert isinstance(parsed.landmarks[0], cm.LineSegmentLandmark)
        assert parsed.landmarks[0].label.name == "lane_line"

    def test_wireframe_with_four_points(self):
        parsed = cm.parse_map(WIREFRAME)
        wf = parsed.landmarks[0]
        assert isinstance(wf, cm.WireframeLandmark)
        assert wf.points.shape == (4, 3)

    def test_wireframe_with_two_points_is_invariant_violation(self):
        text = "CMAP 1\nLABEL s nonroad\nWF s 2 0 0 0 1 0 0\n"
        with pytest.raises(cm.MapFormatError) as err:
            cm.parse_map(text)
        assert err.value.landmark_id == 0

    def test_syntax_error_reports_line_number(self):
        text = "CMAP 1\nLABEL lane_line road\nSEG lane_line 0 0 zero 1 0 0\n"
        with pytest.raises(cm.MapFormatError) as err:
            cm.parse_map(text)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_coordinate_reports_line_number(self, token):
        text = f"CMAP 1\nLABEL lane_line road\n\nSEG lane_line 0 0 0 1 {token} 0\n"
        with pytest.raises(cm.MapFormatError, match="finite") as err:
            cm.parse_map(text)
        assert err.value.line_number == 4

    def test_non_finite_wireframe_coordinate_reports_line_number(self):
        text = "CMAP 1\nLABEL s nonroad\nWF s 4 10 -0.6 2.8 10 0.6 2.8 10 nan 3.6 10 -0.6 3.6\n"
        with pytest.raises(cm.MapFormatError, match="finite") as err:
            cm.parse_map(text)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_radius_reports_line_number(self, token):
        text = f"CMAP 1\nLABEL lamp_pole nonroad\nSEG lamp_pole 0 0 0 0 0 6 radius={token}\n"
        with pytest.raises(cm.MapFormatError, match="finite") as err:
            cm.parse_map(text)
        assert err.value.line_number == 3

    def test_missing_header(self):
        with pytest.raises(cm.MapFormatError):
            cm.parse_map("LABEL lane_line road\n")

    def test_unknown_label_category(self):
        with pytest.raises(cm.MapFormatError) as err:
            cm.parse_map("CMAP 1\nLABEL lane_line sidewalk\n")
        assert "category" in str(err.value)

    def test_duplicate_label(self):
        with pytest.raises(cm.MapFormatError):
            cm.parse_map("CMAP 1\nLABEL a road\nLABEL a road\n")

    def test_unregistered_label(self):
        with pytest.raises(cm.MapFormatError):
            cm.parse_map("CMAP 1\nLABEL a road\nSEG b 0 0 0 1 0 0\n")

    def test_degenerate_segment(self):
        text = "CMAP 1\nLABEL a road\nSEG a 0 0 0 0.001 0 0\n"
        with pytest.raises(cm.MapFormatError):
            cm.parse_map(text)

    def test_nonplanar_wireframe(self):
        text = "CMAP 1\nLABEL a road\nWF a 4 0 0 0 1 0 0 1 1 0.4 0 1 0\n"
        with pytest.raises(cm.MapFormatError):
            cm.parse_map(text)

    def test_comments_and_blank_lines(self):
        text = "# a map\nCMAP 1\n\nLABEL a road  # registry\nSEG a 0 0 0 1 0 0 # one\n"
        assert len(cm.parse_map(text).landmarks) == 1

    def test_pole_radius_parsed(self):
        text = "CMAP 1\nLABEL lamp_pole nonroad\nSEG lamp_pole 0 0 0 0 0 6 radius=0.2\n"
        seg = cm.parse_map(text).landmarks[0]
        assert seg.pole_radius == 0.2
        assert seg.is_pole


class TestFirstFailingLine:
    # parse_map checks the landmarks only after every line is read, and
    # converts the numbers in one pass; its error must be the first bad line's.
    @pytest.mark.parametrize(
        "lines, message, line_number, landmark_id",
        [
            (
                ["WF a 4 0 0 0 1 0 0 1 1 0.4 0 1 0", "SEG a 0 0 zero 1 0 0"],
                "wireframe is not planar (max deviation 0.103 m)", 3, 0,
            ),
            (["SEG a 0 0 zero 1 0 0", "SEG a 0 0 0 0.001 0 0"], "expected a number, got 'zero'", 3, None),
            (["SEG a 0 0 0 1 0 radius=abc"], "expected a number, got 'abc'", 3, None),
            (["SEG a 0 0 0 1 0 radius=0.2"], "SEG needs a label and 6 coordinates", 3, None),
            (["SEG a 0 0 0 1 0 0", "SEG b 0 0 0 1 0 0 radius=x"], "expected a number, got 'x'", 4, None),
            (["SEG a 0 0 0 0.001 0 0", "FOO 1"], "degenerate segment (shorter than 0.01 m)", 3, 0),
            (
                ["SEG a 0 0 0 1 0 0 radius=nan", "WF a 2 0 0 0 1 0 0"],
                "expected a finite number, got 'nan'", 3, None,
            ),
            (
                ["SEG a 0 0 0 1 0 0 radius=-1", "WF a 2 0 0 0 1 0 0"],
                "pole radius must be finite and > 0, got -1.0", 3, 0,
            ),
            (["WF a 2 0 0 0 1 0 0", "SEG a 0 0 0 0 0 0"], "wireframe needs at least 3 points, got 2", 3, 0),
            (
                ["SEG a 0 0 0 1 0 0", "WF a 4 0 0 0 1 0 0 1 1 0 0 1 0", "SEG a 0 0 0 0 0 0"],
                "degenerate segment (shorter than 0.01 m)", 5, 2,
            ),
        ],
    )
    def test_first_failing_line_wins(self, lines, message, line_number, landmark_id):
        text = "\n".join(["CMAP 1", "LABEL a road", *lines]) + "\n"
        with pytest.raises(cm.MapFormatError) as err:
            cm.parse_map(text)
        assert (err.value.line_number, err.value.landmark_id) == (line_number, landmark_id)
        assert str(err.value) == str(cm.MapFormatError(message, line_number, landmark_id))


class TestSerialize:
    def test_empty_map_is_header_only(self):
        assert cm.serialize_map(cm.CompactMap(())) == b"CMAP 1\n"

    def test_single_segment_round_trip(self):
        parsed = cm.parse_map(MINIMAL)
        again = cm.parse_map(cm.serialize_map(parsed))
        assert cm.maps_equal(parsed, again)

    def test_parse_serialize_parse_is_fixed_point(self):
        first = cm.parse_map(cm.serialize_map(small_map()))
        data = cm.serialize_map(first)
        second = cm.parse_map(data)
        assert cm.maps_equal(first, second)
        assert cm.serialize_map(second) == data

    def test_six_decimal_resolution(self):
        label = cm.SemanticLabel("a", "road")
        seg = cm.LineSegmentLandmark(label, [0.1234565, 0, 0], [5.000001, 0, 0], landmark_id=0)
        data = cm.serialize_map(cm.CompactMap((label,), (seg,)))
        parsed = cm.parse_map(data)
        assert parsed.landmarks[0].p1[0] == 5.000001

    def test_size_grows_linearly_with_landmarks(self):
        label = cm.SemanticLabel("a", "road")

        def sized(n):
            landmarks = tuple(
                cm.LineSegmentLandmark(label, [i, 0, 0], [i + 1.0, 0, 0], landmark_id=i)
                for i in range(n)
            )
            return len(cm.serialize_map(cm.CompactMap((label,), landmarks)))

        s10, s20, s40 = sized(10), sized(20), sized(40)
        per_record = (s20 - s10) / 10.0
        assert abs((s40 - s20) / 20.0 - per_record) < 2.0


class TestStatistics:
    def test_empty_map_counts_zero(self):
        labels = (cm.SemanticLabel("a", "road"),)
        stats = cm.map_statistics(cm.CompactMap(labels), original_size_bytes=1_000_000)
        assert stats.per_label_counts == {"a": 0}
        assert stats.total_landmarks == 0

    def test_urban_scale_compression_factor(self):
        # A 25.2 KB compact map built from a 220 MB dense source compresses
        # by roughly 8.9 thousand.
        factor = cm.compression_factor(220 * 1024 * 1024, int(25.2 * 1024))
        assert abs(factor - 8900) / 8900 < 0.02

    def test_counts_match_construction(self):
        stats = cm.map_statistics(small_map(), original_size_bytes=10_000)
        assert stats.per_label_counts == {"lane_line": 2, "lamp_pole": 1}
        assert stats.n_segments == 2
        assert stats.n_wireframes == 1

    def test_counts_permutation_invariant(self):
        base = small_map()
        reordered = cm.CompactMap(base.labels, tuple(reversed(base.landmarks)))
        a = cm.map_statistics(base, 1000)
        b = cm.map_statistics(reordered, 1000)
        assert a.per_label_counts == b.per_label_counts
        assert a.total_landmarks == b.total_landmarks

    def test_rejects_nonpositive_original_size(self):
        with pytest.raises(ValueError):
            cm.map_statistics(small_map(), 0)


class TestInvariants:
    def test_registry_uniqueness_enforced(self):
        labels = (cm.SemanticLabel("a", "road"), cm.SemanticLabel("a", "road"))
        with pytest.raises(ValueError):
            cm.CompactMap(labels)

    def test_wireframe_edges_close_the_polygon(self):
        compact_map = small_map()
        wf = compact_map.landmarks[2]
        packed = cm.pack_map(compact_map)
        ends = packed.points[packed.edges[packed.owner == 2]]
        assert len(ends) == 4
        assert np.array_equal(ends[:, 0], wf.points)
        assert np.array_equal(ends[:, 1], np.roll(wf.points, -1, axis=0))

    @pytest.mark.parametrize("name", ["a b", "a#b", "\r", "a\u2028"])
    def test_label_name_that_would_not_parse_back_rejected(self, name):
        # Serialized, it would give a LABEL line that parse_map cannot read.
        with pytest.raises(ValueError, match="one token"):
            cm.SemanticLabel(name, "road")

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), 0.0, -0.5])
    def test_pole_radius_must_be_finite_and_positive(self, radius):
        # A NaN radius serialized as "radius=nan", which parse_map rejects.
        label = cm.SemanticLabel("lamp_pole", "nonroad")
        with pytest.raises(ValueError, match="pole radius"):
            cm.LineSegmentLandmark(label, [0, 0, 0], [0, 0, 6], pole_radius=radius)
        text = f"CMAP 1\nLABEL lamp_pole nonroad\nSEG lamp_pole 0 0 0 0 0 6 radius={radius}\n"
        with pytest.raises(cm.MapFormatError, match="line 3"):
            cm.parse_map(text)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_wireframe_with_overflowing_coordinates_rejected(self):
        # Its planarity deviation is NaN, which must fail the check.
        text = "CMAP 1\nLABEL a road\nWF a 4 1e308 0 0 -1e308 0 0 -1e308 1e308 5 1e308 1e308 0\n"
        with pytest.raises(cm.MapFormatError, match="not planar"):
            cm.parse_map(text)

    @pytest.mark.parametrize("p0", [[math.nan, 0, 0], [math.inf, 0, 0], [0, -math.inf, 0]])
    def test_segment_with_non_finite_endpoint_rejected(self, p0):
        # A NaN or infinite length used to pass the minimum-length check.
        label = cm.SemanticLabel("a", "road")
        with pytest.raises(ValueError, match="endpoint p0 is not finite"):
            cm.LineSegmentLandmark(label, p0, [1, 0, 0])
        with pytest.raises(ValueError, match="endpoint p1 is not finite"):
            cm.LineSegmentLandmark(label, [1, 0, 0], p0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_segment_whose_length_overflows_rejected(self):
        text = "CMAP 1\nLABEL a road\nSEG a 1e308 0 0 -1e308 0 0\n"
        with pytest.raises(cm.MapFormatError, match="overflows") as err:
            cm.parse_map(text)
        assert err.value.line_number == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_wireframe_with_non_finite_vertex_names_it(self, bad):
        points = [[0, 0, 0], [1, 0, 0], [bad, 1, 0], [0, 1, 0]]
        with pytest.raises(ValueError, match="wireframe point 2 is not finite"):
            cm.WireframeLandmark(cm.SemanticLabel("a", "road"), points)

    def test_pole_detection_by_label_name(self):
        label = cm.SemanticLabel("lamp_pole", "nonroad")
        seg = cm.LineSegmentLandmark(label, [0, 0, 0], [0, 0, 6], landmark_id=0)
        assert seg.pole_radius is None
        assert seg.is_pole


# Coordinates at the format's 6-decimal resolution, up to 1000 km.
coords = st.integers(-10**12, 10**12).map(lambda micro: micro / 1e6)


@st.composite
def label_registries(draw):
    """One to four labels with any names the model accepts."""
    labels = []
    for name in draw(st.lists(st.text(min_size=1, max_size=8), min_size=1, max_size=4, unique=True)):
        try:
            labels.append(cm.SemanticLabel(name, draw(st.sampled_from(cm.VALID_CATEGORIES))))
        except ValueError:
            pass
    assume(labels)
    return tuple(labels)


@st.composite
def segments(draw, label, landmark_id):
    p0 = [draw(coords) for _ in range(3)]
    p1 = [draw(coords) for _ in range(3)]
    radius = draw(st.none() | st.integers(1, 10**7).map(lambda micro: micro / 1e6))
    try:
        return cm.LineSegmentLandmark(label, p0, p1, pole_radius=radius, landmark_id=landmark_id)
    except ValueError:
        assume(False)


@st.composite
def wireframes(draw, label, landmark_id):
    """A polygon in a plane normal to one axis; vertices anywhere in it."""
    n = draw(st.integers(3, 6))
    normal = draw(st.integers(0, 2))
    points = np.array([[draw(coords) for _ in range(3)] for _ in range(n)])
    points[:, normal] = draw(coords)
    try:
        return cm.WireframeLandmark(label, points, landmark_id=landmark_id)
    except ValueError:
        assume(False)


@st.composite
def compact_maps(draw):
    labels = draw(label_registries())
    landmarks = []
    for landmark_id in range(draw(st.integers(0, 6))):
        label = draw(st.sampled_from(labels))
        kind = draw(st.sampled_from([segments, wireframes]))
        landmarks.append(draw(kind(label, landmark_id)))
    return cm.CompactMap(labels, tuple(landmarks))


class TestRoundTripProperty:
    @settings(deadline=None, max_examples=300)
    @given(compact_maps())
    def test_parse_inverts_serialize(self, compact_map):
        data = cm.serialize_map(compact_map)
        parsed = cm.parse_map(data)
        assert cm.maps_equal(parsed, compact_map)
        assert cm.serialize_map(parsed) == data


micro = st.integers(-(10**9), 10**9)


@st.composite
def faulty_landmarks(draw, label):
    """The map line of a landmark that breaks one invariant, and a call of
    its constructor with the same values."""
    x, y, z = draw(micro), draw(micro), draw(micro)
    kind = draw(st.sampled_from(["short", "radius", "overflow", "few", "close", "bent"]))
    if kind in ("short", "radius", "overflow"):
        if kind == "short":  # at most sqrt(3) * 5 mm long
            step = [draw(st.integers(-5000, 5000)) for _ in range(3)]
        else:
            step = [10**6, 0, 0]
        p0 = [x / 1e6, y / 1e6, z / 1e6]
        p1 = [(x + step[0]) / 1e6, (y + step[1]) / 1e6, (z + step[2]) / 1e6]
        radius = None
        if kind == "overflow":
            p0[0], p1[0] = 1e308, -1e308
        if kind == "radius":
            radius = draw(st.sampled_from([0.0, -0.5, -1e-06, -1000.0]))
        suffix = [] if radius is None else [f"radius={radius!r}"]
        line = " ".join(["SEG", label.name, *map(repr, p0 + p1), *suffix])
        return line, lambda: cm.LineSegmentLandmark(label, p0, p1, pole_radius=radius)
    if kind == "few":
        points = np.array([[x, y, z]] * draw(st.integers(0, 2)), dtype=float).reshape(-1, 3) / 1e6
    else:  # a square in a plane normal to one axis, side 1 to 10 m
        side = draw(st.integers(10**6, 10**7))
        corners = np.array([[0, 0, 0], [side, 0, 0], [side, side, 0], [0, side, 0]])
        if kind == "close":  # its first side at most 7.1 mm long
            corners[1] = [draw(st.integers(-5000, 5000)), draw(st.integers(-5000, 5000)), 0]
        else:  # one corner lifted; the deviation is a quarter of the lift
            corners[2, 2] = draw(st.integers(3 * 10**5, 10**6))
        axes = draw(st.permutations([0, 1, 2]))
        points = (corners[:, axes] + [x, y, z]) / 1e6
    line = " ".join(["WF", label.name, str(len(points)), *map(repr, points.ravel().tolist())])
    return line, lambda: cm.WireframeLandmark(label, points)


class TestInjectedFault:
    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_error_is_the_constructors_message_with_line_and_landmark(self, data):
        compact_map = data.draw(compact_maps())
        line, construct = data.draw(faulty_landmarks(data.draw(st.sampled_from(compact_map.labels))))
        with pytest.raises(ValueError) as expected:
            construct()
        landmark_id = data.draw(st.integers(0, len(compact_map.landmarks)))
        lines = cm.serialize_map(compact_map).decode().splitlines()
        at = 1 + len(compact_map.labels) + landmark_id
        lines.insert(at, line)
        with pytest.raises(cm.MapFormatError) as err:
            cm.parse_map("\n".join(lines))
        assert str(err.value) == f"{expected.value} (line {at + 1}, landmark {landmark_id})"


# Tokens a map line could carry: numbers of every size and spelling, names,
# and record keywords.
numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**400), 10**400).map(str),
    st.sampled_from(["1e400", "-1e400", "1_0", "0x10", "infinity", "-0", "1e-320", "٣"]),
)
tokens = st.one_of(
    numbers,
    st.sampled_from(["a", "pole", "road", "nonroad", "LABEL", "SEG", "WF", "CMAP", "#", "="]),
    numbers.map(lambda number: "radius=" + number),
    st.text(max_size=6),
)


@st.composite
def map_texts(draw):
    """Map text near the grammar: a header and labels, then records whose
    coordinate counts often, but not always, match their keyword."""
    lines = ["CMAP 1", "LABEL a road", "LABEL pole nonroad"]
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["SEG", "WF", "LABEL", "any"]))
        if kind == "SEG":
            body = ["SEG", draw(st.sampled_from(["a", "pole", "b"]))] + draw(st.lists(numbers, min_size=6, max_size=6))
            body += draw(st.lists(numbers.map(lambda number: "radius=" + number), max_size=1))
        elif kind == "WF":
            n = draw(st.integers(-1, 5))
            body = ["WF", draw(st.sampled_from(["a", "pole"])), str(n)] + draw(
                st.lists(numbers, min_size=max(3 * n, 0), max_size=max(3 * n, 0) + 1)
            )
        else:
            body = draw(st.lists(tokens, max_size=10))
            if kind == "LABEL":
                body = ["LABEL"] + body
        lines.append(" ".join(body))
    return "\n".join(lines[draw(st.integers(0, 1)):])


class TestFuzzedText:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # coordinates near 1e308 must not overflow numpy
    @settings(deadline=None, max_examples=500)
    @given(map_texts() | st.text())
    def test_parse_map_raises_only_value_errors(self, text):
        for data in (text, text.encode("utf-8", "surrogatepass")):
            try:
                cm.parse_map(data)
            except ValueError:
                pass
