"""Minimal deterministic SVG line plots.

Hand-rolled on purpose: the output must be byte-reproducible across runs
and machines, so no plotting library (and no timestamps, random ids, or
locale-dependent formatting) is involved. Only the primitives the report
figures need are provided: polyline series, axis ticks, vertical
reference lines and a legend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

from .errors import ArgumentError

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
WIDTH = 720
HEIGHT = 440
TICK_TARGET = 6  # about how many ticks an axis gets
SERIES_WIDTH = 1.5
REF_LINE_COLOR = "#555555"
GRID_COLOR = "#e0e0e0"
INK_COLOR = "#333333"  # tick and legend text, plot frame
LABEL_COLOR = "#000000"  # title and axis labels

_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _text(x, y, size, fill, body, anchor=None, extra="") -> str:
    """A text element with its body escaped; `extra` is appended to its attributes as is."""
    if anchor:
        extra = f' text-anchor="{anchor}"{extra}'
    body = str(body).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}" {_FONT} font-size="{size}" fill="{fill}"{extra}>{body}</text>'


def _line(x1, y1, x2, y2, stroke, width=1, dash=None) -> str:
    """A line element, dashed when `dash` is given."""
    dashed = f' stroke-dasharray="{dash}"' if dash else ""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"{dashed}/>')


def _fmt_coord(x: float) -> str:
    """Fixed-notation coordinate with trailing zeros trimmed."""
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _fmt_tick(x: float) -> str:
    return f"{x:.6g}"


def nice_ticks(lo: float, hi: float) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/2.5/5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArgumentError("tick range must be finite")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / TICK_TARGET))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0, 20.0):
        if span / (step * mult) <= TICK_TARGET:
            step *= mult
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [round(i * step, 12) for i in range(first, last + 1)]


@dataclass
class _Series:
    xs: list[float]
    ys: list[float]
    color: str
    label: str | None


@dataclass
class LinePlot:
    """Accumulates series and renders one self-contained SVG document."""

    title: str = ""
    xlabel: str = ""
    ylabel: str = ""
    _series: list[_Series] = field(default_factory=list, init=False)
    _vlines: list[tuple[float, str | None]] = field(default_factory=list, init=False)

    # plot area margins: left, right, top, bottom
    _margins = (64, 18, 34, 48)

    def add_series(self, xs, ys, label: str | None = None) -> None:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ArgumentError("series xs and ys must have equal length")
        if not xs:
            raise ArgumentError("series must contain at least one point")
        color = PALETTE[len(self._series) % len(PALETTE)]
        self._series.append(_Series(xs, ys, color, label))

    def add_vline(self, x: float, label: str | None = None) -> None:
        self._vlines.append((float(x), label))

    def _data_range(self):
        xs = [x for s in self._series for x in s.xs if math.isfinite(x)]
        ys = [y for s in self._series for y in s.ys if math.isfinite(y)]
        xs += [x for x, _ in self._vlines]
        if not xs or not ys:
            raise ArgumentError("plot has no finite data")
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        if x_lo == x_hi:
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
        if y_lo == y_hi:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        y_pad = 0.05 * (y_hi - y_lo)
        return x_lo, x_hi, y_lo - y_pad, y_hi + y_pad

    def render(self) -> str:
        if not self._series:
            raise ArgumentError("plot has no series")
        ml, mr, mt, mb = self._margins
        pw, ph = WIDTH - ml - mr, HEIGHT - mt - mb
        x_lo, x_hi, y_lo, y_hi = self._data_range()

        def px(x: float) -> float:
            return ml + (x - x_lo) / (x_hi - x_lo) * pw

        def py(y: float) -> float:
            return mt + (y_hi - y) / (y_hi - y_lo) * ph

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]

        for tick in nice_ticks(x_lo, x_hi):
            tx = _fmt_coord(px(tick))
            out.append(_line(tx, mt, tx, mt + ph, GRID_COLOR))
            out.append(_text(tx, mt + ph + 16, 11, INK_COLOR, _fmt_tick(tick), "middle"))
        for tick in nice_ticks(y_lo, y_hi):
            ty = py(tick)
            out.append(_line(ml, _fmt_coord(ty), ml + pw, _fmt_coord(ty), GRID_COLOR))
            out.append(_text(ml - 6, _fmt_coord(ty + 4), 11, INK_COLOR, _fmt_tick(tick), "end"))

        for x, label in self._vlines:
            tx = _fmt_coord(px(x))
            out.append(_line(tx, mt, tx, mt + ph, REF_LINE_COLOR, dash="5,4"))
            if label:
                out.append(_text(_fmt_coord(px(x) + 4), mt + 12, 11, REF_LINE_COLOR, label))

        for series in self._series:
            # one element per finite run: a non-finite point splits the series
            runs = groupby(zip(series.xs, series.ys),
                           lambda p: math.isfinite(p[0]) and math.isfinite(p[1]))
            for finite, run in runs:
                if not finite:
                    continue
                points = [f"{_fmt_coord(px(x))},{_fmt_coord(py(y))}" for x, y in run]
                if len(points) == 1:
                    cx, cy = points[0].split(",")
                    out.append(f'<circle cx="{cx}" cy="{cy}" r="2" fill="{series.color}"/>')
                else:
                    out.append(f'<polyline points="{" ".join(points)}" fill="none" '
                               f'stroke="{series.color}" stroke-width="{SERIES_WIDTH}"/>')

        out.append(f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
                   f'fill="none" stroke="{INK_COLOR}" stroke-width="1"/>')

        cx, cy = ml + pw // 2, mt + ph // 2
        for body, x, y, size, extra in (
            (self.title, cx, mt - 12, 14, ""),
            (self.xlabel, cx, HEIGHT - 12, 12, ""),
            (self.ylabel, 16, cy, 12, f' transform="rotate(-90 16 {cy})"'),
        ):
            if body:
                out.append(_text(x, y, size, LABEL_COLOR, body, "middle", extra))

        labeled = [s for s in self._series if s.label]
        if labeled:
            lx, ly = ml + pw - 150, mt + 8
            out.append(f'<rect x="{lx - 8}" y="{ly - 4}" width="154" '
                       f'height="{len(labeled) * 16 + 8}" fill="#ffffff" fill-opacity="0.85" '
                       f'stroke="#cccccc" stroke-width="1"/>')
            for i, series in enumerate(labeled):
                row = ly + 8 + 16 * i
                out.append(_line(lx, row, lx + 20, row, series.color, SERIES_WIDTH))
                out.append(_text(lx + 26, row + 4, 11, INK_COLOR, series.label))

        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
