"""Line-delimited corpus files, embedded fixtures, and CSV export.

File layout: one JSON header line (schema version, seed, condition
descriptor, record count) followed by one JSON record per line.  Distances
are stored in meters and angles in degrees; every float is written with at
most 9 significant digits, so identical content always produces identical
bytes.
"""
from __future__ import annotations

import csv
import json
import math
from typing import Any

from .errors import SchemaError
from .geometry import Plane, Point3, Ray, SurfacePoint
from .harness import (AggregateTable, Condition, ResponseRecord, ShownConfig,
                      Trial, _q)
from .resolver import PointingAct
from .scene import Pose2D, Scene, SceneObject, Shape, TABLE
from .stats import ContingencyTable

TRIALS_SCHEMA = "deixis-trials-1"
RESPONSES_SCHEMA = "deixis-responses-1"


def _quantize(obj: Any) -> Any:
    if isinstance(obj, float):
        return _q(obj)
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


def _dumps(obj: Any) -> str:
    return json.dumps(_quantize(obj), sort_keys=True, separators=(",", ":"))


def _condition_to_json(c: Condition) -> dict:
    return {"kind": c.kind, "variant": c.variant, "robot": c.robot,
            "speech": c.speech, "reverse": c.reverse,
            "cone_deg": None if c.cone_vertex_angle is None
            else math.degrees(c.cone_vertex_angle),
            "gravity": c.gravity, "verb": c.verb}


def _condition_from_json(d: dict) -> Condition:
    return Condition(kind=d["kind"], variant=d["variant"], robot=d["robot"],
                     speech=d["speech"], reverse=d["reverse"],
                     cone_vertex_angle=None if d["cone_deg"] is None
                     else math.radians(d["cone_deg"]),
                     gravity=d["gravity"], verb=d["verb"])


def _scene_to_json(s: Scene) -> dict:
    p = s.surface
    return {"surface": {"anchor": [p.anchor.x, p.anchor.y, p.anchor.z],
                        "normal": list(p.normal), "axis_u": list(p.axis_u),
                        "axis_v": list(p.axis_v), "extent": list(p.extent)},
            "gravity": s.gravity,
            "objects": [{"id": o.id, "kind": o.shape.kind,
                         "height": o.shape.height, "radius": o.shape.radius,
                         "half_extents": None if o.shape.half_extents is None
                         else list(o.shape.half_extents),
                         "position": [o.pose.position.u, o.pose.position.v],
                         "yaw_deg": math.degrees(o.pose.yaw),
                         "support": o.support}
                        for o in s.objects]}


def _scene_from_json(d: dict) -> Scene:
    sd = d["surface"]
    plane = Plane(anchor=Point3(*sd["anchor"]), normal=tuple(sd["normal"]),
                  axis_u=tuple(sd["axis_u"]), axis_v=tuple(sd["axis_v"]),
                  extent=tuple(sd["extent"]))
    objects = tuple(
        SceneObject(id=od["id"],
                    shape=Shape(kind=od["kind"], height=od["height"],
                                radius=od["radius"],
                                half_extents=None if od["half_extents"] is None
                                else tuple(od["half_extents"])),
                    pose=Pose2D(SurfacePoint(*od["position"]),
                                yaw=math.radians(od["yaw_deg"])),
                    support=od.get("support", TABLE))
        for od in d["objects"])
    return Scene(plane, objects, gravity=d["gravity"])


def _shown_to_json(shown: str | SurfacePoint | ShownConfig) -> dict:
    if isinstance(shown, str):
        return {"type": "object", "id": shown}
    if isinstance(shown, SurfacePoint):
        return {"type": "point", "position": [shown.u, shown.v]}
    return {"type": "config", "label": shown.label,
            "position": [shown.position.u, shown.position.v]}


def _shown_from_json(d: dict) -> str | SurfacePoint | ShownConfig:
    if d["type"] == "object":
        return d["id"]
    if d["type"] == "point":
        return SurfacePoint(*d["position"])
    if d["type"] == "config":
        return ShownConfig(d["label"], SurfacePoint(*d["position"]))
    raise SchemaError(f"unknown shown type {d['type']!r}")


def _trial_to_json(t: Trial) -> dict:
    act = t.point_act
    return {"id": t.id, "condition": _condition_to_json(t.condition),
            "scene": _scene_to_json(t.scene),
            "act": {"origin": [act.ray.origin.x, act.ray.origin.y, act.ray.origin.z],
                    "direction": list(act.ray.direction),
                    "intent": act.intent,
                    "target": [act.target.u, act.target.v]},
            "shown": _shown_to_json(t.shown)}


def _trial_from_json(d: dict) -> Trial:
    act = d["act"]
    # directions are quantized on disk; renormalize exactly as the generator
    # does so loaded trials compare equal to freshly generated ones
    raw = act["direction"]
    norm = math.sqrt(sum(c * c for c in raw))
    ray = Ray(Point3(*act["origin"]), tuple(c / norm for c in raw))
    return Trial(id=d["id"], condition=_condition_from_json(d["condition"]),
                 scene=_scene_from_json(d["scene"]),
                 point_act=PointingAct(ray, act["intent"],
                                       SurfacePoint(*act["target"])),
                 shown=_shown_from_json(d["shown"]))


def _read_lines(path: str, expected_schema: str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty corpus file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:1: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") != expected_schema:
        raise SchemaError(f"{path}:1: unknown schema "
                          f"{header.get('schema') if isinstance(header, dict) else header!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed record: {exc}") from exc
    declared = header.get("count")
    if declared is not None and declared != len(records):
        raise SchemaError(f"{path}: header declares {declared} records, "
                          f"found {len(records)}")
    return header, records


def save_trials(trials: list[Trial], path: str, seed: int | None = None) -> None:
    header = {"schema": TRIALS_SCHEMA, "count": len(trials), "seed": seed,
              "condition": trials[0].condition.descriptor() if trials else None}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for t in trials:
            fh.write(_dumps(_trial_to_json(t)) + "\n")


def load_trials(path: str) -> list[Trial]:
    _, records = _read_lines(path, TRIALS_SCHEMA)
    out = []
    for i, rec in enumerate(records, start=2):
        try:
            out.append(_trial_from_json(rec))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{i}: bad trial record: {exc}") from exc
    return out


def save_responses(records: list[ResponseRecord], path: str) -> None:
    header = {"schema": RESPONSES_SCHEMA, "count": len(records)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for r in records:
            fh.write(_dumps({"trial_id": r.trial_id, "predicted": r.predicted,
                             "human": r.human, "meta": r.meta}) + "\n")


def _point(value: Any) -> tuple[float, float]:
    if (isinstance(value, list) and len(value) == 2
            and all(type(c) in (int, float) and math.isfinite(c) for c in value)):
        return tuple(value)
    raise ValueError(f"expected two finite numbers, got {value!r}")


def load_responses(path: str) -> list[ResponseRecord]:
    _, records = _read_lines(path, RESPONSES_SCHEMA)
    out = []
    for i, rec in enumerate(records, start=2):
        try:
            meta = rec["meta"]
            for key in ("probe", "x_star"):
                if key in meta:
                    meta[key] = _point(meta[key])
            out.append(ResponseRecord(trial_id=rec["trial_id"],
                                      predicted=rec["predicted"],
                                      human=rec["human"], meta=meta))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{i}: bad response record: {exc}") from exc
    return out


# Published natural/unnatural stack judgments; rows are shown configurations,
# columns are response categories, each row out of 30 subjects.
_TABLE1_LABELS = ("correct", "incorrect", "ambiguous")
_TABLE1_ROWS = ("top", "edge", "table")
_TABLE1_NATURAL = ((26, 3, 1), (9, 11, 10), (7, 13, 12))
_TABLE1_UNNATURAL = ((12, 9, 9), (24, 2, 4), (2, 2, 26))


def load_table1_fixture() -> tuple[ContingencyTable, ContingencyTable]:
    """(natural, unnatural) contingency tables of the stack-scene judgments."""
    natural = ContingencyTable(_TABLE1_NATURAL, row_labels=_TABLE1_ROWS,
                               col_labels=_TABLE1_LABELS)
    unnatural = ContingencyTable(_TABLE1_UNNATURAL, row_labels=_TABLE1_ROWS,
                                 col_labels=_TABLE1_LABELS)
    return natural, unnatural


def export_csv(aggregate: AggregateTable, path: str) -> None:
    """One row per group, stable column order, RFC-4180 quoting."""
    if not aggregate.rows:
        raise ValueError("aggregate has no groups")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["group", "n", *aggregate.labels])
        for key, counts in aggregate.rows:
            if isinstance(key, tuple):
                group = ",".join(f"{k:.9g}" if isinstance(k, float) else str(k)
                                 for k in key)
            else:
                group = str(key)
            writer.writerow([group, sum(counts), *counts])
