"""Deterministic SVG pie-scatter plots of predicted judgments.

Two kinds share one renderer and differ only in their `KINDS` entry:
`scatter_pies` places one pie per probed position and marks with an x each
distinct pointing target x* in the file, so each trial set gets its own mark
and a record without `meta.x_star` adds none; `distance_pies` places one pie
per cluttered-pair geometry at (|d1 - d2|, total separation).  Output is
plain SVG 1.1 text, byte-stable for identical inputs.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, NamedTuple

from .errors import DeixisError

if TYPE_CHECKING:
    from .harness import ResponseRecord


class _Kind(NamedTuple):
    colors: dict[str, str]  # label -> fill, in legend order
    place: tuple[str, ...]  # meta keys of a pie's position: one point or x, y
    mark: str | None  # meta key of the points marked with an x
    title: str
    empty: str  # the error when no record can be drawn


KINDS = {
    "scatter_pies": _Kind(
        {"correct": "#b0b0b0", "incorrect": "#000000", "ambiguous": "#ffffff"},
        ("probe",), "x_star", "predicted judgments by probed position",
        "no positional judgment records to plot"),
    "distance_pies": _Kind(
        {"nearer": "#2e8b57", "farther": "#b22222", "ambiguous": "#ffffff"},
        ("delta", "separation"), None,
        "predicted choices by distance gap and pair separation",
        "no cluttered-pair records to plot"),
}


PAD = 60.0  # px between the plot edge and the outermost pie centers


@dataclass(frozen=True)
class PlotSpec:
    kind: str = "scatter_pies"
    width: int = 640
    height: int = 480
    legend: bool = True

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown plot kind {self.kind!r}")
        for name in ("width", "height"):
            if not 2 * PAD < getattr(self, name) <= sys.float_info.max:
                raise ValueError(f"plot {name} must exceed the {2 * PAD:g} px "
                                 "of padding and fit a float")


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


def _axes_map(keys: list[tuple[float, float]], spec: PlotSpec) -> tuple:
    xs = [k[0] for k in keys]
    ys = [k[1] for k in keys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    sx = (spec.width - 2 * PAD) / ((x1 - x0) or 1.0)
    sy = (spec.height - 2 * PAD) / ((y1 - y0) or 1.0)
    if not all(map(math.isfinite, (x1 - x0, y1 - y0, sx, sy))):
        raise DeixisError(f"cannot scale the plot: x spans {x0:g} to {x1:g} "
                          f"and y {y0:g} to {y1:g}")

    def to_px(x: float, y: float) -> tuple[float, float]:
        return (PAD + (x - x0) * sx, spec.height - PAD - (y - y0) * sy)

    return to_px


def render(records: Iterable[ResponseRecord], spec: PlotSpec) -> str:
    """The SVG of `spec.kind` over `records`, each folded into its pie's
    label counts and the x* marks as it arrives, so a one-shot iterator is
    read once and only the pie table is held."""
    kind = KINDS[spec.kind]
    labels = tuple(kind.colors)
    place = set(kind.place)
    where = itemgetter(*kind.place)  # a point's value, or one value per axis
    counts: dict[tuple, list[int]] = {}
    marks: dict[tuple, None] = {}  # distinct x*, in first-seen order
    seen = False
    for r in records:
        seen = True
        if r.predicted not in kind.colors or not r.meta.keys() >= place:
            continue
        row = counts.setdefault(tuple(where(r.meta)), [0] * len(labels))
        row[labels.index(r.predicted)] += 1
        if kind.mark in r.meta:
            marks.setdefault(tuple(r.meta[kind.mark]))
    if not seen:
        raise DeixisError("no responses to plot")
    if not counts:
        raise DeixisError(kind.empty)
    to_px = _axes_map([*counts, *marks], spec)
    body = []
    for (x, y), row in counts.items():
        cx, cy = to_px(x, y)
        body.extend(_pie(cx, cy, 13.0, [(c / sum(row), color)
                                        for c, color in zip(row, kind.colors.values())]))
    for x, y in marks:
        mx, my = to_px(x, y)
        body.append(f'<text x="{_fmt(mx)}" y="{_fmt(my + 5)}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="18" fill="#c02020">'
                    f'&#215;</text>')
    if spec.legend:
        body.extend(_legend(spec, kind.colors))
    return _frame(spec, body, kind.title)
