"""Native SVG rendering: structure, determinism, axis arithmetic."""

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
