r"""Line-delimited corpus files and the embedded judgment fixture.

File layout: one JSON header line followed by one JSON record per line; the
header's `count` is a non-negative integer equal to the number of records.
Files are read and checked one line at a time: each record becomes a trial
or response as its line is read, and `count` is checked after the last
record.  `load_trials` and `load_responses`, the one reader of each kind,
check the header at once and hand the records on one at a time, so what
they return can be read only once.  Files are written the same way, one
record at a time: `gen` and `run` spool each record beside their output as
it is made and open the output only after the last (`_spool`), since each
header holds what every record shares, so neither holds the set; `plot`
holds only its pie table.  Since `run` predicts each trial before it
reads the next line, a prediction error on an earlier trial is reported
before a malformed later record, and a `count` mismatch after every
prediction; the header, and a trials file's context and first record, are
checked before anything is predicted.  Lines end at `\n` or `\r\n`; any other line break
inside a line (a bare `\r`, a form feed, U+2028) makes it malformed, and so
do arrays and objects nested deeper than `MAX_NESTING` levels.  Blank lines
are skipped, but errors name physical lines.
Distances are stored in meters and angles in degrees.  The trials writer
quantizes every float to 9 significant digits; the responses writer writes
`meta` as given, so only `harness.predict`'s records are at 9 digits.
Identical content always produces identical bytes.

Trials (schema `deixis-trials-3`): a file holds one `harness.TrialSet`, one
condition and pointing act in one scene whose objects a trial may move.
The header holds `schema`, `count`, `seed` (null or a non-negative
integer), an `id_prefix` (the longest common prefix of the trial ids), the
descriptor of the context's condition and a `context` object: the set's
`condition`, `act`, `surface`, `gravity` and `objects`.  Each record holds
a trial's own parts: `id`, its id without the prefix, and `shown`, plus `objects`
when the trial moves any, one entry per context object, `{}` or
`{"position": [u, v]}`, its position unless that is `_same` as the
context's; the writer refuses a trial whose scene differs from the set's
in more.  The loader makes each record in turn into a case and hands it
to `harness.make_trial`, an error naming the record's line: the context scene
or that scene with its objects moved (`Scene.moved`), checked exactly as a
freshly built scene.  Any other record field, and a file with no records,
is a data error.

Responses (schema `deixis-responses-2`) are written the same way: the
header holds `schema`, `count`, an `id_prefix` (the longest common prefix
of the trial ids) and a `context` holding `meta`, the meta entries whose
JSON is the same in every record, plus `predicted` and `human` when those
are the same in every record.  Each record holds `trial_id`, its id without
the prefix, and only the fields and meta entries that are not in the
context (no `meta` when none are left).  On the n=4000 sweeps that is
107-160 B per trial.  Records are written as `harness.predict` makes them:
every float in `meta` is already quantized, so records are encoded without
another pass.  Loaded records share the context's values.

Until the last record is in, the records of either kind wait in a
`marshal` spool that the writer alone reads, once; it has no name, so it
is gone once closed, even by a killed process, and an error or a kill
before the last record leaves the output as it was.

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
import stat
import tempfile
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager, suppress
from itertools import chain, islice
from typing import Any, TextIO

from .errors import DeixisError
from .geometry import Plane, Point3, Ray, SurfacePoint, unit
from .harness import (LABELS, Condition, ResponseRecord, ShownConfig, Trial,
                      Trials, TrialSet, _q, make_trial)
from .resolver import PointingAct
from .scene import Pose2D, Scene, SceneObject, Shape, TABLE
from .stats import ContingencyTable

TRIALS_SCHEMA = "deixis-trials-3"
RESPONSES_SCHEMA = "deixis-responses-2"
_RECORD_FIELDS = {"id", "shown", "objects"}  # of a deixis-trials-3 record
MAX_NESTING = 32  # levels of arrays and objects in a line; corpus lines use 5
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?')  # a JSON string, or one cut short
_BRACKET = re.compile(r"[][{}]")
SPOOL_BATCH = 256  # records marshalled to the spool at a time
_TOP = {"predicted": 1, "human": 2}  # fields of a spooled response row, by index


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


def _uv(p: SurfacePoint) -> list:
    """`[u, v]` of `p`: a float quantized, an integer (loaded) kept as read."""
    return [_q(c) if isinstance(c, float) else c for c in (p.u, p.v)]


def _shown_to_json(shown: str | SurfacePoint | ShownConfig) -> dict:
    if isinstance(shown, str):
        return {"type": "object", "id": shown}
    if isinstance(shown, SurfacePoint):
        return {"type": "point", "position": _uv(shown)}
    return {"type": "config", "label": shown.label, "position": _uv(shown.position)}


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
    p = _uv(o.pose.position)
    return {} if _same(p, od0["position"]) else {"position": p}


def _parts(d: dict) -> tuple[Condition, Scene, PointingAct]:
    """Condition, scene and act of a context."""
    return (_condition_from_json(d["condition"]),
            Scene(_surface_from_json(d["surface"]),
                  tuple(_object_from_json(od) for od in d["objects"]),
                  gravity=_bool(d["gravity"])),
            _act_from_json(d["act"]))


def _case(rec: dict, scene: Scene, prefix: str) -> tuple:
    """A trials record as a `TrialSet` case: its id, `prefix` and the
    record's `id`, the context objects it moves (None when it moves none)
    and its shown outcome."""
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
    return prefix + _str(rec["id"]), positions or None, _shown_from_json(rec["shown"])


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


def _records(path: str, lines: Iterator, what: str, make: Callable[[dict], Any]) -> Iterator:
    """`make(record)` of each `(line, record)`, in turn; a bad one names its line."""
    for line, rec in lines:
        try:
            made = make(rec)
        except (KeyError, TypeError, ValueError) as exc:
            raise DeixisError(f"{path}:{line}: bad {what} record: {exc}") from exc
        yield made


@contextmanager
def writing(path: str) -> Iterator[TextIO]:
    """`path` open for writing, the one writer of every output.  If the block
    raises, a regular file is removed, but a symlink, FIFO or device is left."""
    fh = open(path, "w", encoding="utf-8")
    try:
        with fh:
            yield fh
    except BaseException:
        with suppress(OSError):  # the clean-up never hides the error itself
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
        raise


def _spool(path: str, rows: Iterable[tuple], narrow: Callable[[list], None] | None,
           header: Callable[[int, str], dict], line: Callable[[tuple, int], str]) -> None:
    """Write `path` as one header line and one record line per row, the
    one spool of both writers.  Each row is a tuple that `marshal` writes,
    a record's id first.  Rows are spooled as they arrive, `SPOOL_BATCH`
    at a time, to a temporary file beside `path`, each batch handed to
    `narrow` first, while the longest common prefix of the ids narrows
    from the first id.  After the last row, `header(count, prefix)` gives
    the header, and only then is `path` opened (`writing`) and each
    spooled row written as the line `line(row, len(prefix))`.  The spool
    has no name, so not even a killed process leaves it; an error or a
    kill before the last row leaves `path` as it was."""
    try:
        fh = tempfile.TemporaryFile(dir=os.path.dirname(path) or ".")
    except OSError as exc:  # name the file the caller asked for, not the spool
        raise OSError(exc.errno, exc.strerror, path) from None
    with fh:
        count, prefix = 0, ""
        it = iter(rows)
        for batch in iter(lambda: list(islice(it, SPOOL_BATCH)), []):
            if narrow:
                narrow(batch)
            prefix = os.path.commonprefix([prefix if count else batch[0][0],
                                           *(row[0] for row in batch)])
            data = marshal.dumps(batch)
            fh.write(len(data).to_bytes(8, "little") + data)
            count += len(batch)
        head, cut = header(count, prefix), len(prefix)
        fh.seek(0)
        with writing(path) as out:
            out.write(_ENCODER.encode(head) + "\n")
            while size := int.from_bytes(fh.read(8), "little"):
                for row in marshal.loads(fh.read(size)):
                    out.write(line(row, cut) + "\n")


def _differs_past_positions(scene: Scene, base: Scene) -> bool:
    """Whether `scene` differs from `base` in more than its objects'
    positions, all that a trials record holds.  `Scene.moved` keeps every
    other part itself, and a tuple compares its items by `is` first, so a
    generated or loaded set's trials pass on identity checks."""
    return not ((scene.surface is base.surface or scene.surface == base.surface)
                and scene.gravity == base.gravity
                and len(scene.objects) == len(base.objects)
                and all(o is o0 or (o.id, o.shape, o.pose.yaw, o.support)
                        == (o0.id, o0.shape, o0.pose.yaw, o0.support)
                        for o, o0 in zip(scene.objects, base.objects)))


def save_trials(tset: TrialSet, path: str, seed: int | None = None) -> None:
    """Write a trial set of at least one trial; an empty set is refused
    before anything else.  Each trial becomes its record as it is made
    and is spooled as that record's JSON (`_spool`), so `path` is opened only
    after the last trial, and any error before then, such as a generation
    error, a loaded set's count mismatch or a trial whose scene differs
    from the set's in more than its objects' positions, leaves `path` as
    it was.  The header holds the count the set carries,
    `len(tset.trials)`, and the ids' longest common prefix.  A loaded
    set's trials are read here, once."""
    count = len(tset.trials)
    if not count:
        raise DeixisError("a trial set holds at least one trial")
    ctx = _context(tset.condition, tset.act, tset.scene)

    def row(t: Trial) -> tuple[str, str]:
        rec: dict = {"shown": _shown_to_json(t.shown)}
        if t.scene is not tset.scene:
            if _differs_past_positions(t.scene, tset.scene):
                raise DeixisError(f"trial {t.id}: its scene differs from the set's "
                                  "in more than its objects' positions")
            objects = [{} if o is o0 else _position(o, od0) for o, o0, od0
                       in zip(t.scene.objects, tset.scene.objects, ctx["objects"])]
            if any(objects):
                rec["objects"] = objects
        return t.id, _ENCODER.encode(rec)

    def header(written: int, prefix: str) -> dict:
        if written != count:
            raise DeixisError(f"a set of {count} trials gave {written}")
        return {"schema": TRIALS_SCHEMA, "count": count, "seed": seed,
                "id_prefix": prefix, "condition": tset.condition.descriptor(),
                "context": ctx}

    # a record spools as its JSON without the id, which sorts before
    # `objects` and `shown`, so the id is written in front of the rest
    _spool(path, map(row, tset.trials), None, header,
           lambda row, cut: f'{{"id":{_ENCODER.encode(row[0][cut:])},{row[1][1:]}')


def load_trials(path: str) -> TrialSet:
    """The trial set of a trials file, whose header, context and first
    record are read and checked now.  Each record becomes a trial, an
    error naming its line, as the set's `trials` reach it, so they can be
    read once; their `len` is the header `count`, checked after the last."""
    lines = _read_lines(path, TRIALS_SCHEMA)
    _, header = next(lines)
    first = next(lines, None)
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
    descriptor, seed, prefix = (header.get(f) for f in ("condition", "seed", "id_prefix"))
    if descriptor != condition.descriptor():
        why = f"condition {descriptor!r} is not the context's {condition.descriptor()!r}"
    elif "seed" not in header:
        why = "no seed; it must be null or a non-negative integer"
    elif seed is not None and (type(seed) is not int or seed < 0):
        why = f"seed must be null or a non-negative integer, got {seed!r}"
    elif type(prefix) is not str:
        why = f"id_prefix must be a string, got {prefix!r}"
    else:
        why = None
    if why:
        raise DeixisError(f"{path}:1: bad header: {why}")

    stream = _records(path, chain([first], lines), "trial",
                      lambda rec: make_trial(scene, *_case(rec, scene, prefix)))
    return TrialSet(condition, act, scene, Trials(header["count"], lambda: stream))


def save_responses(records: Iterable[ResponseRecord], path: str) -> None:
    """Write records as given: `harness.predict` already quantizes every
    float in `meta` to 9 significant digits.  The header holds what every
    record shares, so records are spooled as they arrive (`_spool`),
    narrowing the shared fields from the first record's, and written
    without them once the last is in."""
    top: dict | None = None  # predicted and human, while every record shares them
    shared: dict = {}  # the meta entries every record shares

    def narrow(batch: list[tuple]) -> None:
        nonlocal top, shared
        if top is None:
            _, predicted, human, shared = batch[0]
            top = {"predicted": predicted, "human": human}
        top = {f: v for f, v in top.items()
               if all(_same(row[_TOP[f]], v) for row in batch)}
        shared = {k: v for k, v in shared.items()
                  if all(k in row[3] and _same(row[3][k], v) for row in batch)}

    def line(row: tuple, cut: int) -> str:
        trial_id, predicted, human, meta = row
        rec = {"trial_id": trial_id[cut:], "predicted": predicted, "human": human}
        for f in top:
            del rec[f]
        meta = {k: v for k, v in meta.items() if k not in shared}
        if meta:
            rec["meta"] = meta
        return _ENCODER.encode(rec)

    _spool(path, ((r.trial_id, r.predicted, r.human, r.meta) for r in records), narrow,
           lambda count, prefix: {"schema": RESPONSES_SCHEMA, "count": count,
                                  "id_prefix": prefix,
                                  "context": {**(top or {}), "meta": shared}},
           line)


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

    def record(rec: dict) -> ResponseRecord:
        fields = _checked({**defaults, **rec})
        return ResponseRecord(trial_id=prefix + _str(fields["trial_id"]),
                              predicted=fields["predicted"], human=fields["human"],
                              meta={**shared, **fields["meta"]})

    return _records(path, lines, "response", record)


# Published natural/unnatural stack judgments; rows are shown configurations,
# columns are response categories.  Every row sums to 30 subjects but natural
# `table`, (7, 13, 12), which sums to 32: it awaits a check against Table 1.
_TABLE1_LABELS = ("correct", "incorrect", "ambiguous")
_TABLE1_ROWS = ("top", "edge", "table")
_TABLE1_NATURAL = ((26, 3, 1), (9, 11, 10), (7, 13, 12))
_TABLE1_UNNATURAL = ((12, 9, 9), (24, 2, 4), (2, 2, 26))


def load_table1_fixture() -> tuple[ContingencyTable, ContingencyTable]:
    """(natural, unnatural) contingency tables of the stack-scene judgments."""
    natural, unnatural = (ContingencyTable(rows, row_labels=_TABLE1_ROWS,
                                           col_labels=_TABLE1_LABELS)
                          for rows in (_TABLE1_NATURAL, _TABLE1_UNNATURAL))
    return natural, unnatural
