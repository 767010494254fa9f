"""Native SVG rendering: structure, determinism, axis arithmetic."""

import hashlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from gaplab.errors import ArgumentError
from gaplab.svgplot import PALETTE, LinePlot, nice_ticks


def simple_plot():
    plot = LinePlot(title="t", xlabel="x", ylabel="y")
    plot.add_series([0, 1, 2], [0.0, 1.0, 0.5], label="a")
    plot.add_series([0, 1, 2], [1.0, 0.5, 0.0], label="b")
    plot.add_vline(1.0)
    return plot


def test_render_is_valid_xml_with_polylines():
    svg = simple_plot().render()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert (root.get("width"), root.get("height")) == ("720", "440")
    body = ET.tostring(root, encoding="unicode")
    assert body.count("polyline") >= 2
    assert "t" in body and "x" in body and "y" in body


def test_render_deterministic_and_timestamp_free():
    a = simple_plot().render()
    b = simple_plot().render()
    assert a == b
    for needle in ("date", "time", "202"):
        assert needle not in a


LEGEND_BOX = 'fill-opacity="0.85"'


def test_legend_only_for_labeled_series():
    plot = LinePlot(title="", xlabel="", ylabel="")
    plot.add_series([0, 1], [0, 1])
    svg = plot.render()
    # no legend box, and the series colour only on its own polyline
    assert LEGEND_BOX not in svg
    assert svg.count(PALETTE[0]) == 1
    plot.add_series([0, 1], [1, 0], label="b")
    svg = plot.render()
    # one box holding the labeled series' swatch and label
    assert svg.count(LEGEND_BOX) == 1
    assert svg.count(PALETTE[1]) == 2
    assert svg.count(">b</text>") == 1


def test_nonfinite_points_split_polyline():
    plot = LinePlot(title="", xlabel="", ylabel="")
    ys = [0.0, 1.0, float("nan"), 0.5, 0.25]
    plot.add_series(list(range(5)), ys, label="s")
    svg = plot.render()
    # the nan splits one series into two polyline segments
    assert svg.count("<polyline") == 2


def test_single_point_becomes_circle():
    plot = LinePlot(title="", xlabel="", ylabel="")
    plot.add_series([1], [1.0], label="pt")
    svg = plot.render()
    assert "<circle" in svg


def test_every_element_kind_renders_the_pinned_bytes():
    # ticks on both axes, a labelled and an unlabelled vline, title and axis
    # labels, a legend of two labelled series beside an unlabelled one, a
    # NaN that splits a series and a single point drawn as a circle
    plot = LinePlot(title="post-switch dip", xlabel="iteration", ylabel="test accuracy")
    plot.add_series([0, 10, 20, 30, 40], [0.1, 0.6, float("nan"), 0.75, 0.9], label="task 1")
    plot.add_series([0, 10, 20, 30, 40], [0.2, 0.3, 0.35, 0.5, 0.55], label="task 2")
    plot.add_series([25], [0.4])
    plot.add_vline(20, label="switch")
    plot.add_vline(35)
    svg = plot.render()
    kinds = ("<polyline", "<circle", "stroke-dasharray", 'text-anchor="end"', "rotate(-90")
    assert all(kind in svg for kind in kinds)
    assert (hashlib.sha256(svg.encode("utf-8")).hexdigest()
            == "9f64a5e7933be0022c25942acacadcbc76c4e96ab4c3faf5a31b3d2b2a55768c")


def test_text_with_markup_characters_is_escaped():
    # unescaped, `<` and `&` made a document that is not well-formed XML
    texts = ["loss < 1 & acc > 0", "iter <n>", "a & b", "switch <&>", "a<b"]
    plot = LinePlot(title=texts[0], xlabel=texts[1], ylabel=texts[2])
    plot.add_series([0, 1], [0.0, 1.0], label=texts[4])
    plot.add_vline(0.5, label=texts[3])
    root = ET.fromstring(plot.render())
    read = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert all(text in read for text in texts)


def test_save_writes_file(tmp_path):
    out = tmp_path / "plot.svg"
    simple_plot().save(out)
    assert out.read_text().startswith("<svg")


def test_nice_ticks_cover_range():
    ticks = nice_ticks(0.0, 1.0)
    assert ticks[0] <= 0.0 and ticks[-1] >= 1.0
    assert len(ticks) >= 3
    steps = np.diff(ticks)
    np.testing.assert_allclose(steps, steps[0])


def test_nice_ticks_degenerate_range():
    ticks = nice_ticks(0.5, 0.5)
    assert len(ticks) >= 2 and ticks[0] <= 0.5 <= ticks[-1]


@pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.0, float("inf"))])
def test_nice_ticks_reject_a_non_finite_range(lo, hi):
    with pytest.raises(ArgumentError, match="^tick range must be finite$"):
        nice_ticks(lo, hi)


def test_series_and_plots_without_points_are_refused():
    plot = LinePlot()
    with pytest.raises(ArgumentError, match="^series xs and ys must have equal length$"):
        plot.add_series([0, 1], [0.5])
    with pytest.raises(ArgumentError, match="^series must contain at least one point$"):
        plot.add_series([], [])
    with pytest.raises(ArgumentError, match="^plot has no series$"):
        plot.render()
    plot.add_series([0, 1], [float("nan"), float("inf")])
    with pytest.raises(ArgumentError, match="^plot has no finite data$"):
        plot.render()
