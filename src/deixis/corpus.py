"""Line-delimited corpus files and the embedded judgment fixture.

File layout: one JSON header line followed by one JSON record per line.
Distances are stored in meters and angles in degrees; every float is written
with at most 9 significant digits, so identical content always produces
identical bytes.

Trials (schema `deixis-trials-2`): the header holds `schema`, `count`,
`seed`, the condition descriptor and a `context` object: the first trial's
`condition`, `act`, `surface`, `gravity` and `objects`.  Each record holds
`id` and `shown` plus only what differs from the context: the differing
fields of `condition`, `act` and `surface`, `gravity`, and `objects`
matched by index, each holding only its differing fields (`{}` when
unchanged; an object past the context's list is written whole).  A locating
record carries no scene; referential and cluttered records carry only the
mug positions.  Files of the earlier `deixis-trials-1` schema, with every
part repeated in every record, still load.
"""
from __future__ import annotations

import json
import math
from typing import Any

from .errors import SchemaError
from .geometry import Plane, Point3, Ray, SurfacePoint
from .harness import Condition, ResponseRecord, ShownConfig, Trial, _q
from .resolver import PointingAct
from .scene import Pose2D, Scene, SceneObject, Shape, TABLE
from .stats import ContingencyTable

TRIALS_SCHEMA = "deixis-trials-2"
TRIALS_SCHEMA_V1 = "deixis-trials-1"
RESPONSES_SCHEMA = "deixis-responses-1"


def _quantize(obj: Any) -> Any:
    if isinstance(obj, float):
        return _q(obj)
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dumps(obj: Any) -> str:
    return _ENCODER.encode(_quantize(obj))


def _bool(value: Any) -> bool:
    if type(value) is bool:
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def _str(value: Any) -> str:
    if type(value) is str:
        return value
    raise TypeError(f"expected a string, got {value!r}")


def _num(value: Any) -> float:
    """A finite JSON number (not a boolean)."""
    if type(value) in (int, float) and math.isfinite(value):
        return value
    raise ValueError(f"expected a finite number, got {value!r}")


def _nums(value: Any, n: int) -> tuple[float, ...]:
    """A list of `n` finite JSON numbers, as a tuple."""
    if (type(value) is list and len(value) == n
            and all(type(c) in (int, float) and math.isfinite(c) for c in value)):
        return tuple(value)
    raise ValueError(f"expected {n} finite numbers, got {value!r}")


def _condition_to_json(c: Condition) -> dict:
    return {"kind": c.kind, "variant": c.variant, "robot": c.robot,
            "speech": c.speech, "reverse": c.reverse,
            "cone_deg": None if c.cone_vertex_angle is None
            else math.degrees(c.cone_vertex_angle),
            "gravity": c.gravity, "verb": c.verb}


def _condition_from_json(d: dict) -> Condition:
    return Condition(kind=_str(d["kind"]), variant=_str(d["variant"]),
                     robot=_str(d["robot"]), speech=_bool(d["speech"]),
                     reverse=_bool(d["reverse"]),
                     cone_vertex_angle=None if d["cone_deg"] is None
                     else math.radians(_num(d["cone_deg"])),
                     gravity=_bool(d["gravity"]), verb=_str(d["verb"]))


def _surface_to_json(p: Plane) -> dict:
    return {"anchor": [p.anchor.x, p.anchor.y, p.anchor.z],
            "normal": list(p.normal), "axis_u": list(p.axis_u),
            "axis_v": list(p.axis_v), "extent": list(p.extent)}


def _surface_from_json(d: dict) -> Plane:
    return Plane(anchor=Point3(*_nums(d["anchor"], 3)),
                 normal=_nums(d["normal"], 3), axis_u=_nums(d["axis_u"], 3),
                 axis_v=_nums(d["axis_v"], 3), extent=_nums(d["extent"], 2))


def _object_to_json(o: SceneObject) -> dict:
    return {"id": o.id, "kind": o.shape.kind, "height": o.shape.height,
            "radius": o.shape.radius,
            "half_extents": None if o.shape.half_extents is None
            else list(o.shape.half_extents),
            "position": [o.pose.position.u, o.pose.position.v],
            "yaw_deg": math.degrees(o.pose.yaw), "support": o.support}


def _object_from_json(d: dict) -> SceneObject:
    radius, half = d["radius"], d["half_extents"]
    return SceneObject(id=_str(d["id"]),
                       shape=Shape(kind=_str(d["kind"]), height=_num(d["height"]),
                                   radius=None if radius is None else _num(radius),
                                   half_extents=None if half is None
                                   else _nums(half, 2)),
                       pose=Pose2D(SurfacePoint(*_nums(d["position"], 2)),
                                   yaw=math.radians(_num(d["yaw_deg"]))),
                       support=_str(d.get("support", TABLE)))


def _act_to_json(act: PointingAct) -> dict:
    return {"origin": [act.ray.origin.x, act.ray.origin.y, act.ray.origin.z],
            "direction": list(act.ray.direction), "intent": act.intent,
            "target": [act.target.u, act.target.v]}


def _act_from_json(d: dict) -> PointingAct:
    # directions are quantized on disk; renormalize exactly as the generator
    # does so loaded trials compare equal to freshly generated ones
    raw = _nums(d["direction"], 3)
    norm = math.sqrt(sum(c * c for c in raw))
    ray = Ray(Point3(*_nums(d["origin"], 3)), tuple(c / norm for c in raw))
    return PointingAct(ray, _str(d["intent"]), SurfacePoint(*_nums(d["target"], 2)))


def _shown_to_json(shown: str | SurfacePoint | ShownConfig) -> dict:
    if isinstance(shown, str):
        return {"type": "object", "id": shown}
    if isinstance(shown, SurfacePoint):
        return {"type": "point", "position": [shown.u, shown.v]}
    return {"type": "config", "label": shown.label,
            "position": [shown.position.u, shown.position.v]}


def _shown_from_json(d: dict) -> str | SurfacePoint | ShownConfig:
    kind = _str(d["type"])
    if kind == "object":
        return _str(d["id"])
    if kind == "point":
        return SurfacePoint(*_nums(d["position"], 2))
    if kind == "config":
        return ShownConfig(_str(d["label"]), SurfacePoint(*_nums(d["position"], 2)))
    raise ValueError(f"unknown shown type {kind!r}")


def _context(t: Trial) -> dict:
    """The quantized JSON of every part of `t` but its id and shown."""
    return _quantize({"condition": _condition_to_json(t.condition),
                      "act": _act_to_json(t.point_act),
                      "surface": _surface_to_json(t.scene.surface),
                      "gravity": t.scene.gravity,
                      "objects": [_object_to_json(o) for o in t.scene.objects]})


def _diff(new: dict, old: dict) -> dict:
    return {k: v for k, v in new.items() if old[k] != v}


def _record(t: Trial, first: Trial, ctx: dict) -> dict:
    """`t` as id, shown and the fields that differ from the context, already
    quantized; a part that is the first trial's own object is skipped
    without a comparison."""
    rec: dict = {"id": t.id, "shown": _quantize(_shown_to_json(t.shown))}
    s, s0 = t.scene, first.scene
    parts = [("condition", t.condition, first.condition, _condition_to_json),
             ("act", t.point_act, first.point_act, _act_to_json)]
    if s is not s0:
        parts.append(("surface", s.surface, s0.surface, _surface_to_json))
    for key, part, part0, to_json in parts:
        if part is not part0:
            diff = _diff(_quantize(to_json(part)), ctx[key])
            if diff:
                rec[key] = diff
    if s is s0:
        return rec
    if s.gravity != s0.gravity:
        rec["gravity"] = s.gravity
    if s.objects is not s0.objects:
        base = ctx["objects"]
        objects = []
        for i, o in enumerate(s.objects):
            if i < len(base) and o is s0.objects[i]:
                objects.append({})
                continue
            od = _quantize(_object_to_json(o))
            objects.append(_diff(od, base[i]) if i < len(base) else od)
        if len(objects) != len(base) or any(objects):
            rec["objects"] = objects
    return rec


def _parts(d: dict) -> tuple[Condition, Scene, PointingAct]:
    """Condition, scene and act of a record holding every part."""
    return (_condition_from_json(d["condition"]),
            Scene(_surface_from_json(d["surface"]),
                  tuple(_object_from_json(od) for od in d["objects"]),
                  gravity=_bool(d["gravity"])),
            _act_from_json(d["act"]))


def _trial_from_record(rec: dict, ctx: dict,
                       shared: tuple[Condition, Scene, PointingAct]) -> Trial:
    """A v2 record applied to the context; a part without overrides is the
    context's own object, shared by every such record."""
    condition, scene, act = shared
    if "condition" in rec:
        condition = _condition_from_json({**ctx["condition"], **rec["condition"]})
    if "act" in rec:
        act = _act_from_json({**ctx["act"], **rec["act"]})
    if "surface" in rec or "gravity" in rec or "objects" in rec:
        surface = scene.surface
        if "surface" in rec:
            surface = _surface_from_json({**ctx["surface"], **rec["surface"]})
        objects = scene.objects
        if "objects" in rec:
            base = ctx["objects"]
            objects = tuple(
                objects[i] if i < len(base) and od == {}
                else _object_from_json({**base[i], **od} if i < len(base) else od)
                for i, od in enumerate(rec["objects"]))
        scene = Scene(surface, objects, gravity=_bool(rec.get("gravity", scene.gravity)))
    return Trial(_str(rec["id"]), condition, scene, act, _shown_from_json(rec["shown"]))


def _read_lines(path: str, *schemas: str) -> tuple[dict, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise SchemaError(f"{path}: empty corpus file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:1: malformed header: {exc}") from exc
    if not isinstance(header, dict) or header.get("schema") not in schemas:
        raise SchemaError(f"{path}:1: unknown schema "
                          f"{header.get('schema') if isinstance(header, dict) else header!r}")
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if not isinstance(record, dict):
            raise SchemaError(f"{path}:{lineno}: record is not an object")
        records.append(record)
    declared = header.get("count")
    if declared is not None and declared != len(records):
        raise SchemaError(f"{path}: header declares {declared} records, "
                          f"found {len(records)}")
    return header, records


def save_trials(trials: list[Trial], path: str, seed: int | None = None) -> None:
    ctx = _context(trials[0]) if trials else {}
    header = {"schema": TRIALS_SCHEMA, "count": len(trials), "seed": seed,
              "condition": trials[0].condition.descriptor() if trials else None,
              "context": ctx}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for t in trials:
            fh.write(_ENCODER.encode(_record(t, trials[0], ctx)) + "\n")


def load_trials(path: str) -> list[Trial]:
    header, records = _read_lines(path, TRIALS_SCHEMA, TRIALS_SCHEMA_V1)
    if header["schema"] == TRIALS_SCHEMA_V1:
        def build(rec: dict) -> Trial:
            return Trial(_str(rec["id"]), *_parts({**rec, **rec["scene"]}),
                         _shown_from_json(rec["shown"]))
    else:
        ctx = header.get("context")
        if not isinstance(ctx, dict):
            raise SchemaError(f"{path}:1: header context must be an object, "
                              f"got {ctx!r}")
        try:
            shared = _parts(ctx) if records else None
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:1: bad context: {exc}") from exc

        def build(rec: dict) -> Trial:
            return _trial_from_record(rec, ctx, shared)
    out = []
    for i, rec in enumerate(records, start=2):
        try:
            out.append(build(rec))
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


def load_responses(path: str) -> list[ResponseRecord]:
    _, records = _read_lines(path, RESPONSES_SCHEMA)
    out = []
    for i, rec in enumerate(records, start=2):
        try:
            meta = rec["meta"]
            for key in ("probe", "x_star"):
                if key in meta:
                    meta[key] = _nums(meta[key], 2)
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
