"""SVG line charts: deterministic text output with no drawing dependency."""

import hashlib
import json
import math
import re
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

from lexsim import DomainError, line_chart
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
