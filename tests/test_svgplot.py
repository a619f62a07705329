import math
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from deixis import corpus, harness
from deixis.errors import DeixisError
from deixis.harness import Condition, ResponseRecord
from deixis import svgplot
from deixis.svgplot import KINDS, PlotSpec

GOLDEN = Path(__file__).parent / "golden"
MIXED = (Path(__file__).parent / "fixtures"
         / "natural-and-locating-45-n8-seed7.responses.jsonl")


def render(records, spec):
    return "".join(svgplot.render(records, spec))


def scatter_records(seed=7):
    cond = Condition(kind=harness.REF_VS_LOC,
                     cone_vertex_angle=math.radians(67.5))
    return harness.run(harness.generate_trials(cond, 8, seed))


def distance_records(seed=7):
    cond = Condition(kind=harness.CLUTTERED,
                     cone_vertex_angle=math.radians(45.0))
    return harness.run(harness.generate_trials(cond, 8, seed))


class TestPlotSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlotSpec(kind="bar_chart")
        with pytest.raises(ValueError):
            PlotSpec(width=0)

    @pytest.mark.parametrize("size, message", [
        ({"width": 120}, "width must exceed the 120 px"),
        ({"height": 1}, "height must exceed the 120 px"),
        ({"width": 10 ** 400}, "width must exceed the 120 px of padding and fit a float")],
        ids=["width-of-the-padding", "height-one", "huge-width"])
    def test_size_must_leave_a_drawing_area(self, size, message):
        with pytest.raises(ValueError, match=f"^plot {message}"):
            PlotSpec(**size)
        assert PlotSpec(**{next(iter(size)): 121})  # one pixel inside the padding


class TestScatterPies:
    def test_eight_glyphs(self):
        svg = render(scatter_records(), PlotSpec(kind="scatter_pies"))
        glyphs = svg.count("<circle") + svg.count("<path")
        assert glyphs == 8

    def test_all_correct_is_full_grey_circle(self):
        svg = render(scatter_records(), PlotSpec(kind="scatter_pies"))
        assert 'fill="#b0b0b0"' in svg
        assert "<path" not in svg  # single-fraction groups render as circles

    def test_parses_as_xml_with_marker(self):
        svg = render(scatter_records(), PlotSpec(kind="scatter_pies"))
        ET.fromstring(svg)
        assert "&#215;" in svg

    def test_one_mark_per_trial_set(self):
        # a natural set and a locating set, each with its own x*
        records = list(corpus.load_responses(str(MIXED)))
        x_stars = [(0.102, 0.0), (-0.2, -0.15)]
        assert list(dict.fromkeys(r.meta["x_star"] for r in records)) == x_stars
        svg = render(records, PlotSpec(legend=False))
        marks = [(float(t.get("x")), float(t.get("y")))
                 for t in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")
                 if t.text == "\u00d7"]
        # every probe and both x* span the axes: 60 px pad on a 640 x 480 plot
        points = [r.meta["probe"] for r in records] + x_stars
        u0, u1 = min(u for u, _ in points), max(u for u, _ in points)
        v0, v1 = min(v for _, v in points), max(v for _, v in points)
        expected = [(60 + (u - u0) * 520 / (u1 - u0), 420 - (v - v0) * 360 / (v1 - v0) + 5)
                    for u, v in x_stars]
        assert len(marks) == 2
        for got, want in zip(marks, expected):
            assert got == pytest.approx(want, abs=0.006)

    def test_record_without_x_star_gets_no_mark(self):
        records = [ResponseRecord("t0", "correct", meta={"probe": (0.0, 0.0)}),
                   ResponseRecord("t1", "correct", meta={"probe": (0.3, 0.1),
                                                         "x_star": (0.2, 0.0)})]
        assert render(records[:1], PlotSpec()).count("&#215;") == 0
        assert render(records, PlotSpec()).count("&#215;") == 1

    def test_legend_toggle(self):
        with_legend = render(scatter_records(), PlotSpec(legend=True))
        without = render(scatter_records(), PlotSpec(legend=False))
        assert "correct" in with_legend
        assert "correct" not in without

    def test_mixed_labels_render_wedges(self):
        records = [ResponseRecord("t0", "correct", meta={"probe": (0.0, 0.0)}),
                   ResponseRecord("t1", "incorrect", meta={"probe": (0.0, 0.0)}),
                   ResponseRecord("t2", "correct", meta={"probe": (0.3, 0.1)})]
        svg = render(records, PlotSpec(kind="scatter_pies", legend=False))
        assert svg.count("<path") == 2  # one two-wedge pie
        assert svg.count("<circle") == 1


class TestDistancePies:
    def test_one_pie_per_geometry(self):
        records = distance_records()
        keys = {(r.meta["delta"], r.meta["separation"]) for r in records}
        svg = render(records, PlotSpec(kind="distance_pies"))
        glyphs = svg.count("<circle") + svg.count("<path")
        assert glyphs == len(keys)

    def test_color_encoding(self):
        svg = render(distance_records(), PlotSpec(kind="distance_pies"))
        assert 'fill="#2e8b57"' in svg  # nearer


class TestDeterminismAndGoldens:
    def test_byte_stable(self):
        a = render(scatter_records(), PlotSpec())
        b = render(scatter_records(), PlotSpec())
        assert a == b

    def test_scatter_golden(self):
        svg = render(scatter_records(), PlotSpec(kind="scatter_pies"))
        assert svg == (GOLDEN / "scatter_pies.svg").read_text()

    def test_distance_golden(self):
        svg = render(distance_records(), PlotSpec(kind="distance_pies"))
        assert svg == (GOLDEN / "distance_pies.svg").read_text()


class TestErrors:
    def test_empty_records(self):
        with pytest.raises(DeixisError, match="^no responses to plot$"):
            render([], PlotSpec())

    def test_no_usable_records(self):
        with pytest.raises(DeixisError, match=f"^{KINDS['scatter_pies'].empty}$"):
            render([ResponseRecord("t", "correct", meta={})], PlotSpec())
        with pytest.raises(DeixisError, match=f"^{KINDS['distance_pies'].empty}$"):
            render(scatter_records(), PlotSpec(kind="distance_pies"))


class TestOneShotIterators:
    """`render` reads its records once, as they arrive."""

    @pytest.mark.parametrize("kind, records, golden", [
        ("scatter_pies", scatter_records, "scatter_pies.svg"),
        ("distance_pies", distance_records, "distance_pies.svg")])
    def test_an_iterator_renders_like_its_list(self, kind, records, golden):
        listed = records()
        svg = render(iter(listed), PlotSpec(kind=kind))
        assert svg == render(listed, PlotSpec(kind=kind))
        assert svg == (GOLDEN / golden).read_text()

    def test_the_streamed_mixed_file_renders_like_its_list(self):
        spec = PlotSpec(legend=False)
        assert (render(corpus.load_responses(str(MIXED)), spec)
                == render(list(corpus.load_responses(str(MIXED))), spec))

    def test_an_empty_iterator(self):
        with pytest.raises(DeixisError, match="^no responses to plot$"):
            render(iter([]), PlotSpec())

    @pytest.mark.parametrize("kind", ["scatter_pies", "distance_pies"])
    def test_an_iterator_of_unusable_records(self, kind):
        records = [ResponseRecord("t", "correct", meta={}),
                   ResponseRecord("u", "bogus", meta={"probe": (0.0, 0.0),
                                                      "delta": 0.1, "separation": 0.2})]
        with pytest.raises(DeixisError, match=f"^{KINDS[kind].empty}$"):
            render(iter(records), PlotSpec(kind=kind))
