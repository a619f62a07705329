r"""Line-delimited corpus files and the embedded judgment fixture.

File layout: one JSON header line followed by one JSON record per line; the
header's `count` is a non-negative integer equal to the number of records.
Files are read and checked one line at a time, so no loader holds a whole
file: each record becomes a trial or response as its line is read, and
`count` is checked after the last record.  Lines end at `\n` or `\r\n`;
any other line break inside a line (a bare `\r`, a form feed, U+2028) makes
it malformed.  Blank lines are skipped, but errors name physical lines.
Distances are stored in meters and angles in degrees; every float is written
with at most 9 significant digits, so identical content always produces
identical bytes.

Trials (schema `deixis-trials-2`): a file holds one `harness.TrialSet`, one
condition and pointing act in one scene whose objects a trial may move.
The header holds `schema`, `count`, `seed`, the condition descriptor and a
`context` object: the set's `condition`, `act`, `surface`, `gravity` and
`objects`.  Each record holds `id` and `shown`, plus `objects` when the
trial moves any: one entry per context object, `{}` or `{"position":
[u, v]}`, its position unless that is `_same` as the context's.  The
loader turns each record into a `TrialSet` case, so it gets the context
scene or that scene with its objects moved (`Scene.moved`), checked
exactly as a freshly built scene.  Any other record field, and a file
with no records, is a data error.  Files of the earlier `deixis-trials-1`
schema, with every part repeated in every record, still load: each record
becomes a v2 record against the first one, and a record that differs from
it in anything but object positions is refused.

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
from collections.abc import Iterator
from itertools import chain, repeat
from operator import attrgetter, is_, methodcaller
from typing import Any

from .errors import SchemaError
from .geometry import Plane, Point3, Ray, SurfacePoint, unit
from .harness import LABELS, Condition, ResponseRecord, ShownConfig, TrialSet, _q
from .resolver import PointingAct
from .scene import Pose2D, Scene, SceneObject, Shape, TABLE
from .stats import ContingencyTable

TRIALS_SCHEMA = "deixis-trials-2"
TRIALS_SCHEMA_V1 = "deixis-trials-1"
RESPONSES_SCHEMA = "deixis-responses-2"
RESPONSES_SCHEMA_V1 = "deixis-responses-1"
_MISSING = object()  # a meta key a record lacks
_RECORD_FIELDS = {"id", "shown", "objects"}  # of a deixis-trials-2 record


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


def _context(condition: Condition, act: PointingAct, scene: Scene) -> dict:
    """The quantized JSON of a set's condition, act and scene."""
    return _quantize({"condition": _condition_to_json(condition),
                      "act": _act_to_json(act),
                      "surface": _surface_to_json(scene.surface),
                      "gravity": scene.gravity,
                      "objects": [_object_to_json(o) for o in scene.objects]})


def _position(o: SceneObject, od0: dict) -> dict:
    """`{}` when `o` stands where context object `od0` stands, else its
    quantized position."""
    p = _quantize([o.pose.position.u, o.pose.position.v])
    return {} if _same(p, od0["position"]) else {"position": p}


def _parts(d: dict) -> tuple[Condition, Scene, PointingAct]:
    """Condition, scene and act of a context."""
    return (_condition_from_json(d["condition"]),
            Scene(_surface_from_json(d["surface"]),
                  tuple(_object_from_json(od) for od in d["objects"]),
                  gravity=_bool(d["gravity"])),
            _act_from_json(d["act"]))


def _v2_record(rec: dict, ctx: dict) -> dict:
    """A deixis-trials-1 record as a v2 record against `ctx`, the first
    record's parts: every part but an object position must be `_same`."""
    parts = {**rec, **rec["scene"]}
    objects, ctx_objects = parts["objects"], ctx["objects"]
    differ = [k for k in ("condition", "act", "surface", "gravity")
              if not _same(parts[k], ctx[k])]
    if type(objects) is not list or len(objects) != len(ctx_objects):
        differ.append("object count")
    else:  # an object `_same` as the context's once given its position
        differ += [f"objects[{i}]" for i, (od, od0) in enumerate(zip(objects, ctx_objects))
                   if type(od) is not dict
                   or not _same({**od, "position": od0["position"]}, od0)]
    if differ:
        raise ValueError(f"differs from the first record in {', '.join(differ)}; "
                         "a trials file holds one trial set")
    return {"id": rec["id"], "shown": rec["shown"],
            "objects": [{} if _same(od["position"], od0["position"])
                        else {"position": od["position"]}
                        for od, od0 in zip(objects, ctx_objects)]}


def _case(rec: dict, scene: Scene) -> tuple:
    """A v2 record as a `TrialSet` case: its id, the context objects it
    moves (None when it moves none) and its shown outcome."""
    if not rec.keys() <= _RECORD_FIELDS:
        extra = ", ".join(map(repr, sorted(rec.keys() - _RECORD_FIELDS)))
        raise ValueError(f"unexpected field {extra}; a record holds "
                         "only id, shown and objects")
    positions = {}
    if "objects" in rec:
        objects = rec["objects"]
        if type(objects) is not list or len(objects) != len(scene.objects):
            raise ValueError(f"objects must be a list of {len(scene.objects)} "
                             f"entries, got {objects!r}")
        for i, od in enumerate(objects):
            if type(od) is not dict or od.keys() - {"position"}:
                raise ValueError(f"objects[{i}] must be {{}} or hold only a "
                                 f"position, got {od!r}")
            if od:
                positions[i] = SurfacePoint(*_nums(od["position"], 2))
    return _str(rec["id"]), positions or None, _shown_from_json(rec["shown"])


def _parsed(path: str, lineno: int, raw: bytes, what: str) -> Any:
    """The JSON value of one line, decoded on its own so that bad bytes
    name their line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                          f"0x{exc.object[exc.start]:02x}") from None
    # json.loads raises ValueError for bad JSON or an integer past the digit
    # limit, RecursionError for nesting deeper than the decoder follows
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}:{lineno}: malformed {what}: {exc}") from exc


def _read_lines(path: str, *schemas: str) -> Iterator[tuple[int, dict]]:
    r"""(line number, object) of the header, then of each record, each line
    read and checked as it is reached.  Lines end at `\n`; the `\r` of a
    `\r\n` end is JSON whitespace.  Blank lines are skipped but counted, so
    errors name physical lines.  The header `count` is checked after the
    last record."""
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise SchemaError(f"{path}:1: empty corpus file")
        header = _parsed(path, 1, first, "header")
        if not isinstance(header, dict) or header.get("schema") not in schemas:
            raise SchemaError(f"{path}:1: unknown schema "
                              f"{header.get('schema') if isinstance(header, dict) else header!r}")
        declared = header.get("count")
        if type(declared) is not int or declared < 0:
            raise SchemaError(f"{path}:1: header count must be a non-negative "
                              f"integer, got {declared!r}")
        yield 1, header
        found = 0
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            record = _parsed(path, lineno, raw, "record")
            if not isinstance(record, dict):
                raise SchemaError(f"{path}:{lineno}: record is not an object")
            found += 1
            yield lineno, record
    if declared != found:
        raise SchemaError(f"{path}:1: header declares {declared} records, "
                          f"found {found}")


def save_trials(tset: TrialSet, path: str, seed: int | None = None) -> None:
    ctx = _context(tset.condition, tset.act, tset.scene)
    header = {"schema": TRIALS_SCHEMA, "count": len(tset.trials), "seed": seed,
              "condition": tset.condition.descriptor(), "context": ctx}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_dumps(header) + "\n")
        for t in tset.trials:
            rec: dict = {"id": t.id, "shown": _quantize(_shown_to_json(t.shown))}
            if t.scene is not tset.scene:
                objects = [{} if o is o0 else _position(o, od0) for o, o0, od0
                           in zip(t.scene.objects, tset.scene.objects, ctx["objects"])]
                if any(objects):
                    rec["objects"] = objects
            fh.write(_ENCODER.encode(rec) + "\n")


def load_trials(path: str) -> TrialSet:
    """The trial set of a trials file, each record handed to the `TrialSet`
    constructor as it is read; a deixis-trials-1 file's first record serves
    as its context."""
    lines = _read_lines(path, TRIALS_SCHEMA, TRIALS_SCHEMA_V1)
    _, header = next(lines)
    line, first = next(lines, (1, None))
    if first is None:
        raise SchemaError(f"{path}:1: no trial records; a trials file holds "
                          "one trial set of at least one trial")
    v1 = header["schema"] == TRIALS_SCHEMA_V1
    try:
        ctx = {**first, **first["scene"]} if v1 else header.get("context")
        if not isinstance(ctx, dict):
            raise TypeError(f"context must be an object, got {ctx!r}")
        condition, scene, act = _parts(ctx)
    except (KeyError, TypeError, ValueError) as exc:
        where = f"{line}: bad trial record" if v1 else "1: bad context"
        raise SchemaError(f"{path}:{where}: {exc}") from exc

    def cases():
        # `TrialSet` reads each case before it takes the next, so `line`
        # names the record whose case or moved scene fails
        nonlocal line
        for line, rec in chain([(line, first)], lines):
            yield _case(_v2_record(rec, ctx) if v1 else rec, scene)

    try:
        return TrialSet(condition, act, scene, cases())
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}:{line}: bad trial record: {exc}") from exc


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
    """The records of a responses file, each built as its line is read."""
    lines = _read_lines(path, RESPONSES_SCHEMA, RESPONSES_SCHEMA_V1)
    _, header = next(lines)
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
    for line, rec in lines:
        try:
            fields = _checked({**defaults, **rec})
            out.append(ResponseRecord(trial_id=prefix + _str(fields["trial_id"]),
                                      predicted=fields["predicted"],
                                      human=fields["human"],
                                      meta={**shared, **fields["meta"]}))
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{path}:{line}: bad response record: {exc}") from exc
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
