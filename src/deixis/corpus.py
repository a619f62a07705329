r"""Line-delimited corpus files and the embedded judgment fixture.

File layout: one JSON header line followed by one JSON record per line; the
header's `count` is a non-negative integer equal to the number of records.
Files are read and checked one line at a time: each record becomes a trial
or response as its line is read, and `count` is checked after the last
record.  `load_trials` and `load_responses`, the one reader of each kind,
check the header at once and hand the records on one at a time, so what
they return can be read only once.  Files are written the same way, one
record at a time: `gen` writes each trial as it is made, and `run` spools
each response record beside its output until the last is in, since the
responses header holds what every record shares, so neither holds the set;
`plot` holds only its pie table.  Since `run` predicts each trial before it
reads the next line, a prediction error on an earlier trial is reported
before a malformed later record, and a `count` mismatch after every
prediction; the header, and a trials file's context and first record, are
checked before anything is predicted.  Lines end at `\n` or `\r\n`; any other line break
inside a line (a bare `\r`, a form feed, U+2028) makes it malformed, and so
do arrays and objects nested deeper than `MAX_NESTING` levels.  Blank lines
are skipped, but errors name physical lines.
Distances are stored in meters and angles in degrees; every float is written
with at most 9 significant digits, so identical content always produces
identical bytes.

Trials (schema `deixis-trials-2`): a file holds one `harness.TrialSet`, one
condition and pointing act in one scene whose objects a trial may move.
The header holds `schema`, `count`, `seed`, the condition descriptor and a
`context` object: the set's `condition`, `act`, `surface`, `gravity` and
`objects`.  Each record holds a trial's own parts: `id` and `shown`, plus
`objects` when the trial moves any, one entry per context object, `{}` or
`{"position": [u, v]}`, its position unless that is `_same` as the
context's.  The loader turns each record into a `harness.make_trials`
case, so its trial gets the context scene or that scene with its objects
moved (`Scene.moved`), checked exactly as a freshly built scene.  Any other
record field, and a file with no records, is a data error.

Responses (schema `deixis-responses-2`) are written the same way: the
header holds `schema`, `count`, an `id_prefix` (the longest common prefix
of the trial ids) and a `context` holding `meta`, the meta entries whose
JSON is the same in every record, plus `predicted` and `human` when those
are the same in every record.  Each record holds `trial_id`, its id without
the prefix, and only the fields and meta entries that are not in the
context (no `meta` when none are left).  On the n=4000 sweeps that is
107-160 B per trial.  Records are written as `harness.predict` makes them:
every float in `meta` is already quantized, so records are encoded without
another pass.  Until the last record is in, they wait in a `marshal` spool
that the writer alone reads, once, and then removes.  Loaded records share
the context's values.

Values count as the same only when they are written as the same JSON text
(`_same` asks the encoder that writes them): -0.0 and 0.0, 1 and 1.0, true
and 1 all differ.
"""
from __future__ import annotations

import json
import marshal
import math
import os
import re
import tempfile
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import chain, islice
from typing import Any, TextIO

from .errors import DeixisError
from .geometry import Plane, Point3, Ray, SurfacePoint, unit
from .harness import (LABELS, Condition, ResponseRecord, ShownConfig, Trial,
                      Trials, TrialSet, _q, make_trials)
from .resolver import PointingAct
from .scene import Pose2D, Scene, SceneObject, Shape, TABLE
from .stats import ContingencyTable

TRIALS_SCHEMA = "deixis-trials-2"
RESPONSES_SCHEMA = "deixis-responses-2"
_RECORD_FIELDS = {"id", "shown", "objects"}  # of a deixis-trials-2 record
MAX_NESTING = 32  # levels of arrays and objects in a line; corpus lines use 5
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?')  # a JSON string, or one cut short
_BRACKET = re.compile(r"[][{}]")
SPOOL_BATCH = 256  # response records marshalled to the spool at a time


def _quantize(obj: Any) -> Any:
    if isinstance(obj, float):
        return _q(obj)
    if isinstance(obj, dict):
        return {k: _quantize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_quantize(v) for v in obj]
    return obj


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _same(a: Any, b: Any) -> bool:
    """True only when `a` and `b` are written as the same JSON text; `==`
    alone also holds for -0.0 and 0.0, 1 and 1.0, true and 1.  Unequal
    values (NaN included) and a list against a tuple count as different
    without being encoded."""
    return a is b or (a == b and _ENCODER.encode(a) == _ENCODER.encode(b))


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


def _case(rec: dict, scene: Scene) -> tuple:
    """A trials record as a `TrialSet` case: its id, the context objects it
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


def _nesting(text: str) -> int:
    """How deep the arrays and objects of a JSON text nest; brackets inside
    strings do not count."""
    depth = deepest = 0
    for bracket in _BRACKET.findall(_STRING.sub("", text)):
        depth += 1 if bracket in "[{" else -1
        if depth > deepest:
            deepest = depth
    return deepest


def _parsed(path: str, lineno: int, raw: bytes, what: str) -> Any:
    """The JSON value of one line, decoded on its own so that bad bytes
    name their line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DeixisError(f"{path}:{lineno}: not UTF-8 text: {exc.reason} "
                          f"0x{exc.object[exc.start]:02x}") from None
    # the decoder recurses once per level; refusing a deeper line before it
    # is decoded keeps the stack far from the recursion limit, where any
    # finalizer the garbage collector runs would fail.  The bracket count
    # bounds the depth, so only a line with many brackets is scanned
    if (text.count("[") + text.count("{") > MAX_NESTING
            and _nesting(text) > MAX_NESTING):
        raise DeixisError(f"{path}:{lineno}: malformed {what}: nested deeper "
                          f"than {MAX_NESTING} levels")
    # json.loads raises ValueError for bad JSON or an integer past the digit limit
    try:
        return json.loads(text)
    except ValueError as exc:
        why = str(exc)
        if isinstance(exc, json.JSONDecodeError):
            # `path:lineno` names the line, so give the column alone: the
            # decoder counts the line end it was handed as a line of its
            # own.  A line cut short fails just past its last character.
            column = min(exc.pos, len(text.rstrip("\r\n"))) + 1
            why = f"{exc.msg}: column {column}"
        raise DeixisError(f"{path}:{lineno}: malformed {what}: {why}") from exc


def _read_lines(path: str, schema: str) -> Iterator[tuple[int, dict]]:
    r"""(line number, object) of the header, then of each record, each line
    read and checked as it is reached.  Lines end at `\n`; the `\r` of a
    `\r\n` end is JSON whitespace.  Blank lines are skipped but counted, so
    errors name physical lines.  The header `count` is checked after the
    last record."""
    with open(path, "rb") as fh:
        first = fh.readline()
        if not first:
            raise DeixisError(f"{path}:1: empty corpus file")
        header = _parsed(path, 1, first, "header")
        if not isinstance(header, dict) or header.get("schema") != schema:
            raise DeixisError(f"{path}:1: unknown schema "
                              f"{header.get('schema') if isinstance(header, dict) else header!r}")
        declared = header.get("count")
        if type(declared) is not int or declared < 0:
            raise DeixisError(f"{path}:1: header count must be a non-negative "
                              f"integer, got {declared!r}")
        yield 1, header
        found = 0
        for lineno, raw in enumerate(fh, start=2):
            if not raw.strip():
                continue
            record = _parsed(path, lineno, raw, "record")
            if not isinstance(record, dict):
                raise DeixisError(f"{path}:{lineno}: record is not an object")
            found += 1
            yield lineno, record
    if declared != found:
        raise DeixisError(f"{path}:1: header declares {declared} records, "
                          f"found {found}")


@contextmanager
def _writing(path: str) -> Iterator[TextIO]:
    """`path` open for writing, and removed again if the block raises, so
    an error leaves no partial file."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(path)
        raise


def save_trials(tset: TrialSet, path: str, seed: int | None = None) -> None:
    """Write a trial set of at least one trial, each trial as it is made;
    an empty set is refused before the file is opened.  The header holds
    the count the set carries, `len(tset.trials)`, and any error, such as
    a generation error or a loaded set's count mismatch, removes the file.
    A loaded set's trials are read here, once."""
    count = len(tset.trials)
    if not count:
        raise DeixisError("a trial set holds at least one trial")
    ctx = _context(tset.condition, tset.act, tset.scene)
    header = {"schema": TRIALS_SCHEMA, "count": count, "seed": seed,
              "condition": tset.condition.descriptor(), "context": ctx}
    with _writing(path) as fh:
        fh.write(_ENCODER.encode(header) + "\n")
        written = 0
        for t in tset.trials:
            rec: dict = {"id": t.id, "shown": _quantize(_shown_to_json(t.shown))}
            if t.scene is not tset.scene:
                objects = [{} if o is o0 else _position(o, od0) for o, o0, od0
                           in zip(t.scene.objects, tset.scene.objects, ctx["objects"])]
                if any(objects):
                    rec["objects"] = objects
            fh.write(_ENCODER.encode(rec) + "\n")
            written += 1
        if written != count:
            raise DeixisError(f"a set of {count} trials gave {written}")


def load_trials(path: str) -> TrialSet:
    """The trial set of a trials file.  The header, its context and the
    first record are read and checked now; each record is read and made
    into a trial as the set's `trials` reach it, so they can be read only
    once.  Their `len` is the header `count`, which is checked after the
    last."""
    lines = _read_lines(path, TRIALS_SCHEMA)
    _, header = next(lines)
    line, first = next(lines, (1, None))
    if first is None:
        raise DeixisError(f"{path}:1: no trial records; a trials file holds "
                          "one trial set of at least one trial")
    ctx = header.get("context")
    try:
        if not isinstance(ctx, dict):
            raise TypeError(f"context must be an object, got {ctx!r}")
        condition, scene, act = _parts(ctx)
    except (KeyError, TypeError, ValueError) as exc:
        raise DeixisError(f"{path}:1: bad context: {exc}") from exc

    def cases() -> Iterator[tuple]:
        nonlocal line
        for line, rec in chain([(line, first)], lines):
            yield _case(rec, scene)

    def trials() -> Iterator[Trial]:
        # a record's case and trial are made before the next line is read,
        # so a failure names the line of the record in hand
        try:
            yield from make_trials(scene, cases())
        except (KeyError, TypeError, ValueError) as exc:
            raise DeixisError(f"{path}:{line}: bad trial record: {exc}") from exc

    stream = trials()
    return TrialSet(condition, act, scene, Trials(header["count"], lambda: stream))


def _shared(batch: list[ResponseRecord], top: dict, meta: dict) -> tuple[dict, dict]:
    """The top-level fields of `top` and the entries of `meta` that are
    `_same` in every record of `batch`."""
    return ({f: v for f, v in top.items()
             if all(_same(getattr(r, f), v) for r in batch)},
            {k: v for k, v in meta.items()
             if all(k in r.meta and _same(r.meta[k], v) for r in batch)})


def save_responses(records: Iterable[ResponseRecord], path: str) -> None:
    """Write records as given: `harness.predict` already quantizes every
    float in `meta` to 9 significant digits.  The header holds what every
    record shares, so records are spooled as they arrive, `SPOOL_BATCH` at
    a time, to a temporary file beside `path`, narrowing the id prefix and
    the shared fields from the first record's.  `path` is opened only after
    the last record: the header is written and the spool copied across
    without the shared fields.  The spool is removed on every path, and a
    partial `path` on any error, so an error leaves neither file."""
    try:
        fd, spool = tempfile.mkstemp(prefix=os.path.basename(path) + ".", suffix=".spool",
                                     dir=os.path.dirname(path))
    except OSError as exc:  # name the file the caller asked for, not the spool
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        count, prefix, top, shared = 0, "", {}, {}
        with open(fd, "wb") as fh:
            it = iter(records)
            for batch in iter(lambda: list(islice(it, SPOOL_BATCH)), []):
                if not count:
                    first = batch[0]
                    prefix, top = first.trial_id, {"predicted": first.predicted,
                                                   "human": first.human}
                    shared = first.meta
                prefix = os.path.commonprefix([prefix, *(r.trial_id for r in batch)])
                top, shared = _shared(batch, top, shared)
                data = marshal.dumps([(r.trial_id, r.predicted, r.human, r.meta)
                                      for r in batch])
                fh.write(len(data).to_bytes(8, "little") + data)
                count += len(batch)
        header = {"schema": RESPONSES_SCHEMA, "count": count,
                  "id_prefix": prefix, "context": {**top, "meta": shared}}
        cut = len(prefix)
        with open(spool, "rb") as fh, _writing(path) as out:
            out.write(_ENCODER.encode(header) + "\n")
            while size := int.from_bytes(fh.read(8), "little"):
                for trial_id, predicted, human, meta in marshal.loads(fh.read(size)):
                    rec = {"trial_id": trial_id[cut:], "predicted": predicted,
                           "human": human}
                    for f in top:
                        del rec[f]
                    meta = {k: v for k, v in meta.items() if k not in shared}
                    if meta:
                        rec["meta"] = meta
                    out.write(_ENCODER.encode(rec) + "\n")
    finally:
        os.remove(spool)


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


def load_responses(path: str) -> Iterator[ResponseRecord]:
    """The records of a responses file, each built as its line is read, so
    they can be read only once; the header is read and checked now."""
    lines = _read_lines(path, RESPONSES_SCHEMA)
    _, header = next(lines)
    ctx, prefix = header.get("context"), header.get("id_prefix")
    try:
        if type(ctx) is not dict:
            raise TypeError(f"context must be an object, got {ctx!r}")
        if type(prefix) is not str:
            raise TypeError(f"id_prefix must be a string, got {prefix!r}")
        shared = _checked(ctx)["meta"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DeixisError(f"{path}:1: bad header: {exc}") from exc
    # a record omits the context's fields, and `meta` when it has none
    defaults = {**ctx, "meta": {}}

    def records() -> Iterator[ResponseRecord]:
        for line, rec in lines:
            try:
                fields = _checked({**defaults, **rec})
                record = ResponseRecord(trial_id=prefix + _str(fields["trial_id"]),
                                        predicted=fields["predicted"],
                                        human=fields["human"],
                                        meta={**shared, **fields["meta"]})
            except (KeyError, TypeError, ValueError) as exc:
                raise DeixisError(f"{path}:{line}: bad response record: {exc}") from exc
            yield record

    return records()


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
