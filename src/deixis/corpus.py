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
mug positions.  Such a record (no surface or gravity override, the context's
object count, each override holding only `position`) loads as the context
scene with those objects moved (`Scene.moved`): only the moved objects and
the overlap pairs that include one are checked, with the errors a freshly
built scene raises.  Files of the earlier `deixis-trials-1` schema, with
every part repeated in every record, still load.

Responses (schema `deixis-responses-2`) are written the same way: the
header holds `schema`, `count`, an `id_prefix` (the longest common prefix
of the trial ids) and a `context` holding `meta`, the meta entries whose
JSON is the same in every record, plus `predicted` and `human` when those
are the same in every record.  Each record holds `trial_id`, its id without
the prefix, and only the fields and meta entries that are not in the
context (no `meta` when none are left).  On the n=4000 sweeps that is
107-160 B per trial, against 236-267 B for `deixis-responses-1`, which
repeats every field in every record and still loads.  Records are written as `harness.run`
makes them: every float in `meta` is already quantized, so records are
encoded without another pass.  Loaded records share the context's values.

Values count as the same only when they are written as the same JSON text
(`_same`): -0.0 and 0.0, 1 and 1.0, true and 1 all differ.
"""
from __future__ import annotations

import json
import math
import os
from itertools import repeat
from operator import attrgetter, is_, methodcaller
from typing import Any

from .errors import SchemaError
from .geometry import Plane, Point3, Ray, SurfacePoint, unit
from .harness import LABELS, Condition, ResponseRecord, ShownConfig, Trial, _q
from .resolver import PointingAct
from .scene import Pose2D, Scene, SceneObject, Shape, TABLE
from .stats import ContingencyTable

TRIALS_SCHEMA = "deixis-trials-2"
TRIALS_SCHEMA_V1 = "deixis-trials-1"
RESPONSES_SCHEMA = "deixis-responses-2"
RESPONSES_SCHEMA_V1 = "deixis-responses-1"
_MISSING = object()  # a meta key a record lacks


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


def _same(a: Any, b: Any) -> bool:
    """True only when `a` and `b` are written as the same JSON text; `==`
    alone also holds for -0.0 and 0.0, 1 and 1.0, true and 1.  Unequal
    values (NaN included) and a list against a tuple count as different."""
    if a is b:
        return True
    t = type(a)
    if t is not type(b) or a != b:
        return False
    if t is float:  # equal floats are written alike but for the zero's sign
        return a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b)
    if t is list or t is tuple:
        return all(map(_same, a, b))
    if t is dict:
        return all(_same(v, b[k]) for k, v in a.items())
    return True


def _bool(value: Any) -> bool:
    if type(value) is bool:
        return value
    raise TypeError(f"expected true or false, got {value!r}")


def _str(value: Any) -> str:
    if type(value) is str:
        return value
    raise TypeError(f"expected a string, got {value!r}")


def _finite(value: Any) -> bool:
    """A finite JSON number (not a boolean) that a float can hold."""
    try:
        return type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _num(value: Any) -> float:
    """A finite JSON number (not a boolean)."""
    if _finite(value):
        return value
    raise ValueError(f"expected a finite number, got {value!r}")


def _nums(value: Any, n: int) -> tuple[float, ...]:
    """A list of `n` finite JSON numbers, as a tuple."""
    if type(value) is list and len(value) == n and all(map(_finite, value)):
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
    # directions are quantized on disk; `unit` renormalizes them as the
    # generator does, so loaded trials equal freshly generated ones
    ray = Ray(Point3(*_nums(d["origin"], 3)), unit(_nums(d["direction"], 3)))
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
    """The fields of raw `new` whose quantized values are not `_same` as
    the quantized `old`; only fields whose raw values differ are quantized."""
    out = {}
    for k, v in new.items():
        o = old[k]
        if v is not o and (v != o or not _same(v, o)):
            v = _quantize(v)
            if not _same(v, o):
                out[k] = v
    return out


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
            diff = _diff(to_json(part), ctx[key])
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
            od = _object_to_json(o)
            objects.append(_diff(od, base[i]) if i < len(base) else _quantize(od))
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


def _moved_positions(rec: dict, count: int) -> dict[int, SurfacePoint] | None:
    """The new positions, by object index, of a record whose scene differs
    from the context only in object positions (no surface or gravity
    override, `count` objects, each override holding only `position`);
    None for every other record."""
    objects = rec.get("objects")
    if ("surface" in rec or "gravity" in rec or type(objects) is not list
            or len(objects) != count
            or not all(type(od) is dict and od.keys() <= {"position"}
                       for od in objects)):
        return None
    return {i: SurfacePoint(*_nums(od["position"], 2))
            for i, od in enumerate(objects) if od}


def _trial_from_record(rec: dict, ctx: dict,
                       shared: tuple[Condition, Scene, PointingAct]) -> Trial:
    """A v2 record applied to the context; a part without overrides is the
    context's own object, shared by every such record.  A record that only
    moves objects gets the context scene with those objects moved, checked
    only where the move can change the answer."""
    condition, scene, act = shared
    if "condition" in rec:
        condition = _condition_from_json({**ctx["condition"], **rec["condition"]})
    if "act" in rec:
        act = _act_from_json({**ctx["act"], **rec["act"]})
    positions = _moved_positions(rec, len(scene.objects))
    if positions is not None:
        scene = scene.moved(positions)
    elif "surface" in rec or "gravity" in rec or "objects" in rec:
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
    # json.loads raises ValueError for bad JSON or an integer past the digit
    # limit, RecursionError for nesting deeper than the decoder follows
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError) as exc:
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
        except (ValueError, RecursionError) as exc:
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


def _shared(records: list[ResponseRecord]) -> tuple[dict, dict]:
    """The top-level fields and the meta entries that are `_same` in every
    record."""
    if not records:
        return {}, {}
    first, metas = records[0], [r.meta for r in records]

    def everywhere(values, v) -> bool:
        values = list(values)  # identity first: run() shares per-set values
        return (all(map(is_, values, repeat(v)))
                or all(map(_same, values, repeat(v))))

    top = {f: getattr(first, f) for f in ("predicted", "human")
           if everywhere(map(attrgetter(f), records), getattr(first, f))}
    meta = {k: v for k, v in first.meta.items()
            if everywhere(map(methodcaller("get", k, _MISSING), metas), v)}
    return top, meta


def save_responses(records: list[ResponseRecord], path: str) -> None:
    """Write records as given: `harness.run` already quantizes every float
    in `meta` to 9 significant digits."""
    top, shared = _shared(records)
    prefix = os.path.commonprefix([r.trial_id for r in records])
    header = {"schema": RESPONSES_SCHEMA, "count": len(records),
              "id_prefix": prefix, "context": {**top, "meta": shared}}
    own = [f for f in ("predicted", "human") if f not in top]
    cut = len(prefix)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_ENCODER.encode(header) + "\n")
        for r in records:
            rec = {"trial_id": r.trial_id[cut:]}
            for f in own:
                rec[f] = getattr(r, f)
            meta = {k: v for k, v in r.meta.items() if k not in shared}
            if meta:
                rec["meta"] = meta
            fh.write(_ENCODER.encode(rec) + "\n")


def _checked(fields: dict) -> dict:
    """`fields` after checking the response fields it holds: a label the
    model can emit, a string or null `human`, an object `meta` whose points
    become tuples and whose known numbers are finite."""
    if "predicted" in fields and fields["predicted"] not in LABELS:
        raise ValueError(f"unknown label {fields['predicted']!r}")
    human = fields.get("human")
    if human is not None and type(human) is not str:
        raise TypeError(f"human must be a string or null, got {human!r}")
    if "meta" in fields:
        meta = fields["meta"]
        if type(meta) is not dict:
            raise TypeError(f"meta must be an object, got {meta!r}")
        for key in ("probe", "x_star"):
            if key in meta:
                meta[key] = _nums(meta[key], 2)
        for key in ("theta", "distance", "d_near", "d_far", "delta", "separation"):
            if key in meta:
                _num(meta[key])
    return fields


def load_responses(path: str) -> list[ResponseRecord]:
    header, records = _read_lines(path, RESPONSES_SCHEMA, RESPONSES_SCHEMA_V1)
    defaults, shared, prefix = {}, {}, ""
    if header["schema"] == RESPONSES_SCHEMA:
        ctx, prefix = header.get("context"), header.get("id_prefix")
        try:
            if type(ctx) is not dict:
                raise TypeError(f"context must be an object, got {ctx!r}")
            if type(prefix) is not str:
                raise TypeError(f"id_prefix must be a string, got {prefix!r}")
            shared = _checked(ctx)["meta"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:1: bad header: {exc}") from exc
        # a record omits the context's fields, and `meta` when it has none
        defaults = {**ctx, "meta": {}}
    out = []
    for i, rec in enumerate(records, start=2):
        try:
            fields = _checked({**defaults, **rec})
            out.append(ResponseRecord(trial_id=prefix + _str(fields["trial_id"]),
                                      predicted=fields["predicted"],
                                      human=fields["human"],
                                      meta={**shared, **fields["meta"]}))
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
