"""SVG line charts: deterministic text output with no drawing dependency."""

import hashlib
import json
import math
import re
import sys
from pathlib import Path
from unittest import mock
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lexsim import DomainError, charts, line_chart
from lexsim.cli import main


def simple_series(n=2):
    xs = [0.0, 1.0, 2.0, 3.0]
    return [(f"series {i}", xs, [float(i + j) for j in range(4)]) for i in range(n)]


class TestPinnedBytes:
    """Chart layouts the shipped configs' golden SVGs do not reach."""

    @pytest.mark.parametrize("kwargs, digest", [
        ({"series": simple_series(2)},  # no title and no axis labels: top is 24
         "43a726509768610a612ffa2fe94f5039476e6da686e36132635a56447cf6065e"),
        ({"series": simple_series(1), "x_label": "period"},
         "780550b69d394f103032ea5f9744e6f5ead361f66eb4d356bb76062d93f0c743"),
        ({"series": [(f"rule {i}", [0.0, 0.5, 1.0], [i * 0.1, -i * 0.3, i * i * 1.5])
                     for i in range(7)],  # the palette wraps; seven legend rows
          "title": "seven", "x_label": "x", "y_label": "y"},
         "da985c03253dd75610bc6cd532854784c2b769505fc7c78d34818879cd511e42"),
    ])
    def test_digest(self, kwargs, digest):
        assert hashlib.sha256(line_chart(**kwargs).encode()).hexdigest() == digest

    @pytest.mark.parametrize("config", sorted(Path("configs").glob("*.json")), ids=str)
    def test_shipped_config_svg_parses(self, config, tmp_path):
        out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        model = config.stem.split("_")[0]
        assert main([model, "--config", str(config), "--out", str(out), "--svg", str(svg)]) == 0
        ElementTree.fromstring(svg.read_bytes())


class TestOutputShape:
    def test_byte_identical_across_calls(self):
        a = line_chart(simple_series(), title="demo", x_label="x", y_label="y")
        b = line_chart(simple_series(), title="demo", x_label="x", y_label="y")
        assert a == b

    def test_is_a_single_svg_document(self):
        svg = line_chart(simple_series())
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert svg.endswith("\n")
        assert svg.count("<svg ") == 1

    def test_one_polyline_per_series(self):
        assert line_chart(simple_series(1)).count("<polyline") == 1
        assert line_chart(simple_series(4)).count("<polyline") == 4

    def test_legend_only_with_multiple_series(self):
        single = line_chart(simple_series(1))
        multi = line_chart(simple_series(3))
        assert "series 0" not in single
        for label in ("series 0", "series 1", "series 2"):
            assert label in multi

    def test_title_and_axis_labels_rendered(self):
        svg = line_chart(simple_series(), title="flows", x_label="period", y_label="count")
        for text in ("flows", "period", "count"):
            assert text in svg

    def test_markup_in_labels_is_escaped(self):
        # two series so the legend renders the raw labels
        svg = line_chart(
            [("a & b <c>", [0.0, 1.0], [0.0, 1.0]), ("other", [0.0, 1.0], [1.0, 0.0])],
            title="x & y <z> \"q\" 'a'",
        )
        assert "a &amp; b &lt;c&gt;" in svg
        assert ">x &amp; y &lt;z&gt; \"q\" 'a'</text>" in svg  # quotes stay as they are
        assert "<c>" not in svg

    @pytest.mark.parametrize("text, shown", [
        ("a\x01b", "a\ufffdb"), ("nul\x00", "nul\ufffd"), ("\x0b\x0c\x1f", "\ufffd" * 3),
        ("\ud800", "\ufffd"), ("\udfff\ufffe\uffff", "\ufffd" * 3),
    ])
    def test_text_outside_xml_chars_shows_as_replacement(self, text, shown):
        # two series so the legend renders the label; each other text slot in turn
        for kwargs in ({}, {"title": text}, {"x_label": text}, {"y_label": text}):
            series = [(text, [0.0, 1.0], [0.0, 1.0]), ("other", [0.0, 1.0], [1.0, 0.0])]
            svg = line_chart(series, **kwargs)
            ElementTree.fromstring(svg)
            assert svg.count(f">{shown}</text>") == 1 + len(kwargs)

    def test_allowed_text_is_kept(self):
        text = "tab\tnl\ncr\r \ud7ff\ufffd\U00010000 \u03a9"
        svg = line_chart([("s", [0.0, 1.0], [0.0, 1.0])], title=text)
        assert f">{text}</text>" in svg

    def test_no_external_references(self):
        # the xmlns declaration is the only URL allowed in the document
        svg = line_chart(simple_series())
        assert svg.count("http") == 1
        assert 'xmlns="http://www.w3.org/2000/svg"' in svg
        assert "href" not in svg and "<image" not in svg


class TestDegenerateData:
    def test_flat_series_still_renders(self):
        svg = line_chart([("flat", [0.0, 1.0, 2.0], [5.0, 5.0, 5.0])])
        assert "<polyline" in svg
        assert "NaN" not in svg

    def test_single_point_series(self):
        svg = line_chart([("dot", [1.0], [2.0])])
        assert "<polyline" in svg

    def test_all_zero_series(self):
        svg = line_chart([("zero", [0.0, 1.0], [0.0, 0.0])])
        assert "NaN" not in svg and "Infinity" not in svg

    def test_constant_subnormal_series_gets_the_zero_pad(self):
        # 5% of the smallest subnormal rounds to 0, so the pad is 0.5, as around 0
        tiny = line_chart([("tiny", [5e-324], [5e-324])])
        assert tiny == line_chart([("tiny", [0.0], [0.0])])
        assert "nan" not in tiny and "inf" not in tiny
        assert ">-0.5<" in tiny and ">0.5<" in tiny

    def test_a_nonzero_pad_is_five_percent(self):
        ticks = re.findall(r">([^<]+)</text>", line_chart([("dot", [1e-320], [-4.0])]))
        pad = 1e-320 * 0.05  # a subnormal, not 0
        assert ticks[1::2] == ["-4.2", "-4.1", "-4", "-3.9", "-3.8"]
        assert ticks[0::2][0] == format(1e-320 - pad, ".6g") == "9.50088e-321"
        assert ticks[0::2][-1] == format(1e-320 + pad, ".6g") == "1.04989e-320"


class TestValidation:
    def test_rejects_empty_series_list(self):
        with pytest.raises(DomainError):
            line_chart([])

    def test_rejects_empty_series(self):
        with pytest.raises(DomainError):
            line_chart([("empty", [], [])])

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            line_chart([("bad", [0.0, 1.0], [0.0])])

    def test_rejects_non_finite_values(self):
        with pytest.raises(DomainError):
            line_chart([("nan", [0.0, 1.0], [0.0, math.nan])])
        with pytest.raises(DomainError):
            line_chart([("inf", [0.0, math.inf], [0.0, 1.0])])

    @pytest.mark.parametrize("axis, values", [
        ("y", [1.75e308, -1e308]),  # finite values whose difference overflows
        ("y", [-1.75e308, 1e308]),
        ("y", [-1.7e308, 1.7e308]),
        ("x", [1.7e308, -1.7e308]),
    ])
    def test_rejects_a_span_past_float_range(self, axis, values):
        other = [float(i) for i in range(len(values))]
        xs, ys = (values, other) if axis == "x" else (other, values)
        with pytest.raises(DomainError) as exc:
            line_chart([("huge", xs, ys)])
        assert str(exc.value) == f"the {axis} values span more than the float range"

    @pytest.mark.parametrize("value", [1.75e308, -1.75e308, sys.float_info.max])
    def test_a_huge_constant_series_renders(self, value):
        # the 5% pad leaves float range, so the padded end stops at the largest float
        svg = line_chart([("huge", [0.0], [value])])
        assert "nan" not in svg and "inf" not in svg
        ticks = re.findall(r">([^<]+)</text>", svg)[1::2]
        assert format(math.copysign(sys.float_info.max, value), ".6g") in ticks

    def test_a_huge_constant_width_charts_from_the_cli(self, tmp_path, capsys):
        dispute = {"p_q": 0, "p_g": 1, "j": 1.75e308, "c_q": 0, "c_g": 0}  # width 1.75e308
        cfg = tmp_path / "settle.json"
        cfg.write_text(json.dumps({"settle": {"rule": "american", "disputes": [dispute]}}))
        out, svg = tmp_path / "settle.csv", tmp_path / "settle.svg"
        code = main(["settle", "--config", str(cfg), "--out", str(out), "--svg", str(svg)])
        assert (code, capsys.readouterr().err) == (0, "")
        assert out.exists() and "inf" not in svg.read_text()

    def test_the_largest_finite_span_renders(self):
        svg = line_chart([("wide", [0.0, 1.0], [-8.9e307, 8.9e307])])
        assert "nan" not in svg and "inf" not in svg


def percent_2f(xs, ys):
    return " ".join("%.2f,%.2f" % p for p in zip(xs, ys))


# the coordinates an array series' polyline can hold: [0, 999.995), whose cents fit
# "III.FF"; x.xx5 ties, exact and as near as a double gets, and both their neighbours
COORDINATES = st.one_of(
    st.floats(0.0, 999.995, exclude_max=True),
    st.integers(0, 199_998).map(lambda k: k / 200),  # each x.xx0 and x.xx5
    st.integers(0, 7_999).map(lambda k: k / 8),  # k + 0.125, 0.375, ...: exact ties
    st.tuples(st.integers(0, 99_998), st.sampled_from([0.0, math.inf])).map(
        lambda m_to: math.nextafter((2 * m_to[0] + 1) / 200, m_to[1])),
    st.integers(0, 999).map(float),
    st.just(0.0),
)


class TestPointsKernel:
    """`charts._points`, the exact `%.2f` layout of an array series' polyline."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(COORDINATES, COORDINATES), min_size=1, max_size=40))
    @example([(0.0, 0.125), (0.375, 999.985), (2.675, 1.005), (math.nextafter(0.015, 1), 0.0)])
    def test_matches_format(self, points):
        xs, ys = (list(c) for c in zip(*points))
        assert charts._points(np.array(xs), np.array(ys)) == percent_2f(xs, ys)

    def test_every_half_cent_and_its_neighbours(self):
        # every double nearest a multiple of 0.005 in range, and the doubles on each side
        v = np.arange(199_999) / 200
        v = np.concatenate([v, np.nextafter(v, 0.0), np.nextafter(v, math.inf)])
        assert charts._points(v, v[::-1].copy()) == percent_2f(v.tolist(), v[::-1].tolist())


# values a series may hold: any finite float, signed zeros, subnormals and spans
# near the float limit among them
VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 8.9e307, -8.9e307, 1.7e308,
     -1.7e308, sys.float_info.max, -sys.float_info.max]))


@st.composite
def series_lists(draw):
    """One to three labeled series of equal-length lists; some constant, for the pads."""
    out = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 6))
        column = st.one_of(st.lists(VALUES, min_size=n, max_size=n),
                           VALUES.map(lambda v, n=n: [v] * n))
        out.append((f"s{i}", draw(column), draw(column)))
    return out


def rendered(series):
    try:
        return line_chart(series, title="t", x_label="x", y_label="y")
    except DomainError as e:
        return f"DomainError: {e}"


class TestArraySeries:
    """Series of float64 arrays are laid out as arrays, to the bytes of the same lists."""

    @settings(max_examples=300, deadline=None)
    @given(series_lists())
    @example([("one", [3.0], [-0.0])])
    @example([("flat", [0.0, -0.0, 0.0], [5e-324] * 3), ("tiny", [-0.0], [-5e-324])])
    @example([("huge", [0.0, 1.0], [-8.9e307, 8.9e307])])
    @example([("wide", [0.0, 1.0], [-1.7e308, 1.7e308])])
    def test_same_bytes_as_lists(self, series):
        arrays = [(label, np.array(xs), np.array(ys)) for label, xs, ys in series]
        with mock.patch.object(charts, "_points", wraps=charts._points) as kernel:
            text = rendered(arrays)
        assert text == rendered(series)
        assert kernel.call_count == (0 if text.startswith("DomainError") else len(series))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", [1, 2])
    def test_a_non_finite_value_is_refused_as_in_a_list(self, bad, axis):
        series = [("ok", [0.0], [0.0]), ["bad", [0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]]
        series[1][axis][1] = bad
        arrays = [(label, np.array(xs), np.array(ys)) for label, xs, ys in series]
        assert rendered(arrays) == rendered(series) == \
            "DomainError: series 'bad' contains a non-finite value"

    def test_other_arrays_take_the_list_path(self):
        ints = np.arange(4)
        mixed = [("ints", ints, ints.astype(float)), ("floats", ints * 1.0, ints * 1.0)]
        with mock.patch.object(charts, "_points", wraps=charts._points) as kernel:
            assert line_chart(mixed) == line_chart([(s, list(xs), list(ys))
                                                   for s, xs, ys in mixed])
        assert kernel.call_count == 0
