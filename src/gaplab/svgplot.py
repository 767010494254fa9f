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

from .errors import ArgumentError

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]
SERIES_WIDTH = 1.5
REF_LINE_COLOR = "#555555"

_FONT = "font-family=\"Helvetica,Arial,sans-serif\""


def _fmt_coord(x: float) -> str:
    """Fixed-notation coordinate with trailing zeros trimmed."""
    s = f"{x:.2f}".rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _fmt_tick(x: float) -> str:
    return f"{x:.6g}"


def nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    """Round tick positions covering [lo, hi] at a 1/2/2.5/5 step."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ArgumentError("tick range must be finite")
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    span = hi - lo
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0, 20.0):
        if span / (step * mult) <= target:
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
    width: int = 720
    height: int = 440
    _series: list[_Series] = field(default_factory=list)
    _vlines: list[tuple[float, str | None]] = field(default_factory=list)

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
        pw = self.width - ml - mr
        ph = self.height - mt - mb
        x_lo, x_hi, y_lo, y_hi = self._data_range()

        def px(x: float) -> float:
            return ml + (x - x_lo) / (x_hi - x_lo) * pw

        def py(y: float) -> float:
            return mt + (y_hi - y) / (y_hi - y_lo) * ph

        out = []
        out.append(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">'
        )
        out.append(f'<rect width="{self.width}" height="{self.height}" fill="#ffffff"/>')

        for tick in nice_ticks(x_lo, x_hi):
            tx = px(tick)
            out.append(
                f'<line x1="{_fmt_coord(tx)}" y1="{mt}" x2="{_fmt_coord(tx)}" '
                f'y2="{mt + ph}" stroke="#e0e0e0" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{_fmt_coord(tx)}" y="{mt + ph + 16}" {_FONT} font-size="11" '
                f'fill="#333333" text-anchor="middle">{_fmt_tick(tick)}</text>'
            )
        for tick in nice_ticks(y_lo, y_hi):
            ty = py(tick)
            out.append(
                f'<line x1="{ml}" y1="{_fmt_coord(ty)}" x2="{ml + pw}" '
                f'y2="{_fmt_coord(ty)}" stroke="#e0e0e0" stroke-width="1"/>'
            )
            out.append(
                f'<text x="{ml - 6}" y="{_fmt_coord(ty + 4)}" {_FONT} font-size="11" '
                f'fill="#333333" text-anchor="end">{_fmt_tick(tick)}</text>'
            )

        for x, label in self._vlines:
            tx = _fmt_coord(px(x))
            out.append(
                f'<line x1="{tx}" y1="{mt}" x2="{tx}" y2="{mt + ph}" '
                f'stroke="{REF_LINE_COLOR}" stroke-width="1" stroke-dasharray="5,4"/>'
            )
            if label:
                out.append(
                    f'<text x="{_fmt_coord(px(x) + 4)}" y="{mt + 12}" {_FONT} '
                    f'font-size="11" fill="{REF_LINE_COLOR}">{label}</text>'
                )

        for series in self._series:
            # split the polyline at non-finite points instead of drawing through them
            segment: list[str] = []
            segments: list[list[str]] = []
            for x, y in zip(series.xs, series.ys):
                if math.isfinite(x) and math.isfinite(y):
                    segment.append(f"{_fmt_coord(px(x))},{_fmt_coord(py(y))}")
                elif segment:
                    segments.append(segment)
                    segment = []
            if segment:
                segments.append(segment)
            for seg in segments:
                if len(seg) == 1:
                    cx, cy = seg[0].split(",")
                    out.append(
                        f'<circle cx="{cx}" cy="{cy}" r="2" fill="{series.color}"/>'
                    )
                else:
                    out.append(
                        f'<polyline points="{" ".join(seg)}" fill="none" '
                        f'stroke="{series.color}" stroke-width="{SERIES_WIDTH}"/>'
                    )

        out.append(
            f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
            f'fill="none" stroke="#333333" stroke-width="1"/>'
        )

        if self.title:
            out.append(
                f'<text x="{ml + pw / 2:.0f}" y="{mt - 12}" {_FONT} font-size="14" '
                f'fill="#000000" text-anchor="middle">{self.title}</text>'
            )
        if self.xlabel:
            out.append(
                f'<text x="{ml + pw / 2:.0f}" y="{self.height - 12}" {_FONT} '
                f'font-size="12" fill="#000000" text-anchor="middle">{self.xlabel}</text>'
            )
        if self.ylabel:
            cx, cy = 16, mt + ph / 2
            out.append(
                f'<text x="{cx}" y="{cy:.0f}" {_FONT} font-size="12" fill="#000000" '
                f'text-anchor="middle" transform="rotate(-90 {cx} {cy:.0f})">{self.ylabel}</text>'
            )

        labeled = [s for s in self._series if s.label]
        if labeled:
            lx, ly = ml + pw - 150, mt + 8
            out.append(
                f'<rect x="{lx - 8}" y="{ly - 4}" width="154" '
                f'height="{len(labeled) * 16 + 8}" fill="#ffffff" fill-opacity="0.85" '
                f'stroke="#cccccc" stroke-width="1"/>'
            )
            for i, series in enumerate(labeled):
                row = ly + 8 + 16 * i
                out.append(
                    f'<line x1="{lx}" y1="{row}" x2="{lx + 20}" y2="{row}" '
                    f'stroke="{series.color}" stroke-width="{SERIES_WIDTH}"/>'
                )
                out.append(
                    f'<text x="{lx + 26}" y="{row + 4}" {_FONT} font-size="11" '
                    f'fill="#333333">{series.label}</text>'
                )

        out.append("</svg>")
        return "\n".join(out) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
