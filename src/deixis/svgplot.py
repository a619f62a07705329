"""Deterministic SVG pie-scatter plots of predicted judgments.

Two encodings: `scatter_pies` places one pie per probed position around the
pointing target (marked with an x); `distance_pies` places one pie per
cluttered-pair geometry at (|d1 - d2|, total separation).  Output is plain
SVG 1.1 text, byte-stable for identical inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyInput
from .harness import ResponseRecord

SCATTER = "scatter_pies"
DISTANCE = "distance_pies"

_SCATTER_COLORS = {"correct": "#b0b0b0", "incorrect": "#000000",
                   "ambiguous": "#ffffff"}
_DISTANCE_COLORS = {"nearer": "#2e8b57", "farther": "#b22222",
                    "ambiguous": "#ffffff"}


@dataclass(frozen=True)
class PlotSpec:
    kind: str = SCATTER
    width: int = 640
    height: int = 480
    legend: bool = True

    def __post_init__(self) -> None:
        if self.kind not in (SCATTER, DISTANCE):
            raise ValueError(f"unknown plot kind {self.kind!r}")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("plot dimensions must be positive")


def _escape(text: str) -> str:
    """XML character data: `&`, `<` and `>` as entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _pie(cx: float, cy: float, r: float, parts: list[tuple[float, str]]) -> list[str]:
    """Wedges for label fractions; a single full fraction renders as a circle."""
    out = []
    live = [(frac, color) for frac, color in parts if frac > 0.0]
    if len(live) == 1:
        out.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="{_fmt(r)}" '
                   f'fill="{live[0][1]}" stroke="#404040" stroke-width="1"/>')
        return out
    angle = -math.pi / 2.0
    for frac, color in live:
        span = 2.0 * math.pi * frac
        x0 = cx + r * math.cos(angle)
        y0 = cy + r * math.sin(angle)
        x1 = cx + r * math.cos(angle + span)
        y1 = cy + r * math.sin(angle + span)
        large = 1 if span > math.pi else 0
        out.append(f'<path d="M {_fmt(cx)} {_fmt(cy)} L {_fmt(x0)} {_fmt(y0)} '
                   f'A {_fmt(r)} {_fmt(r)} 0 {large} 1 {_fmt(x1)} {_fmt(y1)} Z" '
                   f'fill="{color}" stroke="#404040" stroke-width="1"/>')
        angle += span
    return out


def _fractions(records: list[ResponseRecord],
               key_fn, labels: tuple[str, ...]) -> list[tuple[tuple, list[float]]]:
    groups: dict[tuple, list[int]] = {}
    for rec in records:
        counts = groups.setdefault(key_fn(rec), [0] * len(labels))
        counts[labels.index(rec.predicted)] += 1
    return [(key, [c / sum(counts) for c in counts])
            for key, counts in groups.items()]


def _frame(spec: PlotSpec, body: list[str], title: str) -> str:
    head = [f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{spec.width}" height="{spec.height}" '
            f'viewBox="0 0 {spec.width} {spec.height}">',
            f'<rect width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
            f'<text x="{spec.width // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>']
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _legend(spec: PlotSpec, colors: dict[str, str]) -> list[str]:
    out = []
    x = 12
    for label, color in colors.items():
        out.append(f'<rect x="{x}" y="{spec.height - 22}" width="10" height="10" '
                   f'fill="{color}" stroke="#404040"/>')
        out.append(f'<text x="{x + 14}" y="{spec.height - 13}" '
                   f'font-family="sans-serif" font-size="11">{_escape(label)}</text>')
        x += 100
    return out


def _axes_map(keys: list[tuple[float, float]], spec: PlotSpec,
              pad: float = 60.0) -> tuple:
    xs = [k[0] for k in keys]
    ys = [k[1] for k in keys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (spec.width - 2 * pad) / ((x1 - x0) or 1.0)
    sy = (spec.height - 2 * pad) / ((y1 - y0) or 1.0)

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (pad + (x - x0) * sx, spec.height - pad - (y - y0) * sy)

    return to_px


def render(records: list[ResponseRecord], spec: PlotSpec) -> str:
    if not records:
        raise EmptyInput("no responses to plot")
    if spec.kind == SCATTER:
        return _render_scatter(records, spec)
    return _render_distance(records, spec)


def _render_scatter(records: list[ResponseRecord], spec: PlotSpec) -> str:
    labels = tuple(_SCATTER_COLORS)
    usable = [r for r in records if r.predicted in labels and "probe" in r.meta]
    if not usable:
        raise EmptyInput("no positional judgment records to plot")
    groups = _fractions(usable, lambda r: tuple(r.meta["probe"]), labels)
    x_star = tuple(usable[0].meta.get("x_star", (0.0, 0.0)))
    to_px = _axes_map([key for key, _ in groups] + [x_star], spec)
    body = []
    for (u, v), fracs in groups:
        cx, cy = to_px(u, v)
        body.extend(_pie(cx, cy, 13.0, list(zip(fracs, _SCATTER_COLORS.values()))))
    mx, my = to_px(*x_star)
    body.append(f'<text x="{_fmt(mx)}" y="{_fmt(my + 5)}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="18" fill="#c02020">'
                f'&#215;</text>')
    if spec.legend:
        body.extend(_legend(spec, _SCATTER_COLORS))
    return _frame(spec, body, "predicted judgments by probed position")


def _render_distance(records: list[ResponseRecord], spec: PlotSpec) -> str:
    labels = tuple(_DISTANCE_COLORS)
    usable = [r for r in records if r.predicted in labels
              and "delta" in r.meta and "separation" in r.meta]
    if not usable:
        raise EmptyInput("no cluttered-pair records to plot")
    groups = _fractions(usable,
                        lambda r: (r.meta["delta"], r.meta["separation"]), labels)
    to_px = _axes_map([key for key, _ in groups], spec)
    body = []
    for (dx, dy), fracs in groups:
        cx, cy = to_px(dx, dy)
        body.extend(_pie(cx, cy, 13.0, list(zip(fracs, _DISTANCE_COLORS.values()))))
    if spec.legend:
        body.extend(_legend(spec, _DISTANCE_COLORS))
    return _frame(spec, body,
                  "predicted choices by distance gap and pair separation")
