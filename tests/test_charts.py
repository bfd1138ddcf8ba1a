"""SVG line charts: deterministic text output with no drawing dependency."""

import json
import math
import re
import sys

import pytest

from lexsim import DomainError, line_chart
from lexsim.cli import main


def simple_series(n=2):
    xs = [0.0, 1.0, 2.0, 3.0]
    return [(f"series {i}", xs, [float(i + j) for j in range(4)]) for i in range(n)]


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
