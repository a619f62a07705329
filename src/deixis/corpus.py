r"""Line-delimited corpus files and the embedded judgment fixture.

File layout: one JSON header line followed by one JSON record per line; the
header's `count` is a non-negative integer equal to the number of records.
Files are read and checked one line at a time: each record becomes a trial
or response as its line is read, and `count` is checked after the last
record.  `load_trials` and `load_responses`, the one reader of each kind,
check the header at once and hand the records on one at a time, so what
they return can be read only once.  Files are written the same way, one
record at a time: `gen` and `run` spool each record as it is made, in the
default temporary directory, and open the output only after the last
(`_spool`), since each header holds what every record shares, so neither
holds the set; `plot` holds only its pie table.  Since `run` predicts each
trial before it reads the next line, a prediction error on an earlier
trial is reported before a malformed later record, and a `count` mismatch
after every prediction; the header, and a trials file's context and first
record, are checked before anything is predicted.  Lines end at `\n` or
`\r\n`; any other line break inside a line (a bare `\r`, a form feed,
U+2028) makes it malformed, and so do arrays and objects nested deeper
than `MAX_NESTING` levels.  Blank lines are skipped, but errors name
physical lines.
Distances are stored in meters and angles in degrees.  The trials writer
quantizes every float to 9 significant digits; the responses writer writes
`meta` as given, so only `harness.predict`'s records are at 9 digits.
Identical content always produces identical bytes.

One rule says what a record leaves out, for both kinds.  The header's
`id_prefix` is the longest common prefix of the ids, and each record's id
field holds the rest.  A field whose JSON text is the same in every record
is written once, as a whole value, in the header's `shared` object, and
the records leave it out.  Values count as the same only when they are
written as the same JSON text: -0.0 and 0.0, 1 and 1.0, true and 1 all
differ.  The one reader's merge (`_records`) puts them back; a field is in
the header or in the record, never both, so a record that holds a field
the header shares is a data error.  Until the last record is in, the
records of either kind wait, as their values, in a `marshal` spool that
the writer alone reads, once (`_spool`), and each is then written in one
encoder call; the spool has no name, so it is gone once closed, even by a
killed process.  Every output is checked
before its first record (`output_mode`) and written through `writing`, so
a failure at any point, and a kill before the last record, leaves the
output as it was.

Trials (schema `deixis-trials-6`): a file holds one `harness.TrialSet`, one
condition and pointing act in one scene whose objects a trial may move.
The header holds `schema`, `count`, `seed` (null or a non-negative
integer), `id_prefix`, the descriptor of the context's condition, a
`context` object (the set's `condition`, `act`, `surface`, `gravity` and
`objects`) and `shared`, the shared fields.  A record holds a trial's own
parts, each as a bare JSON value: `id`; `shown`, an object's id
(`"mug_object"`), a point (`[u, v]`) or a natural configuration
(`{"label", "position"}`), the JSON type telling them apart; and, when the
trial moves any, `objects`, one entry per context object, null when the
object stands where the context's does (`_same`), else its `[u, v]`.  The
writer refuses a trial whose scene differs from the set's in more.
`shared` may hold `shown` and `objects`, never `id`.  The loader makes
each merged record in turn into a case and hands it to `harness.make_trial`,
an error naming the record's line: the context scene or that scene with its
objects moved (`Scene.moved`), checked exactly as a freshly built scene.
Any other field, a `shown` or `objects` entry of any other form, and a file
with no records, is a data error.  On the n=4000 sweeps a locating,
referential and cluttered record take about 48, 58 and 84 B: every
referential trial shows the same mug, so its `shown`, `"mug"`, is shared
as a whole value, and a locating or cluttered record keeps its own point
or object id.

Responses (schema `deixis-responses-3`): the header holds `schema`,
`count`, `id_prefix` and `shared`, the shared fields, never `trial_id`.  A
record holds `trial_id`, `predicted`, `human` and each `meta` entry as a
field of its own, so the writer refuses a `meta` entry of one of those
three names; the reader makes every other field an entry of `meta`.  In
the paper's sets the condition, `x_star` and `path` are shared.  On the
n=4000 sweeps that is 98-151 B per trial.  Records are written as
`harness.predict` makes them: every float in `meta` is already quantized,
so records are encoded without another pass.  Loaded records share the
header's values.
"""
from __future__ import annotations

import errno
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

TRIALS_SCHEMA = "deixis-trials-6"
RESPONSES_SCHEMA = "deixis-responses-3"
_RECORD_FIELDS = {"id", "shown", "objects"}  # of a deixis-trials-6 record
_RESPONSE_FIELDS = frozenset({"trial_id", "predicted", "human"})  # the rest is `meta`
MAX_NESTING = 32  # levels of arrays and objects in a line; corpus lines use 5
_STRING = re.compile(r'"(?:[^"\\]|\\.)*"?')  # a JSON string, or one cut short
_BRACKET = re.compile(r"[][{}]")
SPOOL_BATCH = 256  # records marshalled to the spool at a time


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


def _is_nums(value: Any, n: int) -> bool:
    """Whether `value` is a list of `n` finite JSON numbers."""
    return type(value) is list and len(value) == n and all(map(_finite, value))


def _nums(value: Any, n: int) -> tuple[float, ...]:
    """A list of `n` finite JSON numbers, as a tuple."""
    if _is_nums(value, n):
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


def _shown_to_json(shown: str | SurfacePoint | ShownConfig) -> str | list | dict:
    """A shown object as its id, a point as `[u, v]`, a configuration as
    `{"label", "position"}`: the JSON type tells them apart."""
    if isinstance(shown, str):
        return shown
    if isinstance(shown, SurfacePoint):
        return _uv(shown)
    return {"label": shown.label, "position": _uv(shown.position)}


def _shown_from_json(value: Any) -> str | SurfacePoint | ShownConfig:
    if type(value) is str:
        return value
    if _is_nums(value, 2):
        return SurfacePoint(*value)
    if type(value) is dict and value.keys() == {"label", "position"}:
        return ShownConfig(_str(value["label"]), SurfacePoint(*_nums(value["position"], 2)))
    raise ValueError("shown must be an object id, 2 finite numbers or an object "
                     f"holding only label and position, got {value!r}")


def _context(condition: Condition, act: PointingAct, scene: Scene) -> dict:
    """The quantized JSON of a set's condition, act and scene."""
    return _quantize({"condition": _condition_to_json(condition),
                      "act": _act_to_json(act),
                      "surface": _surface_to_json(scene.surface),
                      "gravity": scene.gravity,
                      "objects": [_object_to_json(o) for o in scene.objects]})


def _position(o: SceneObject, od0: dict) -> list | None:
    """None when `o` stands where context object `od0` stands, else its
    quantized `[u, v]`."""
    p = _uv(o.pose.position)
    return None if _same(p, od0["position"]) else p


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
        for i, p in enumerate(objects):
            if p is not None:
                if not _is_nums(p, 2):
                    raise ValueError(f"objects[{i}] must be null or 2 finite "
                                     f"numbers, got {p!r}")
                positions[i] = SurfacePoint(*p)
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


def _records(path: str, lines: Iterator, what: str, shared: dict,
             make: Callable[[dict], Any],
             check: Callable[[dict], dict] = lambda rec: rec) -> Iterator:
    """`make(record)` of each `(line, record)`, in turn: the record's own
    fields are checked (`check`), then merged with `shared`, the fields its
    header holds for every record, checked once.  A field is in the header
    or in the record, never both.  A bad record names its line."""
    for line, rec in lines:
        try:
            fields = {**shared, **check(rec)}
            if len(fields) < len(shared) + len(rec):
                both = ", ".join(map(repr, sorted(shared.keys() & rec.keys())))
                raise ValueError(f"a record may not hold {both}, which the header shares")
            made = make(fields)
        except (KeyError, TypeError, ValueError) as exc:
            raise DeixisError(f"{path}:{line}: bad {what} record: {exc}") from exc
        yield made


def output_mode(path: str) -> int | None:
    """The mode of the file at `path`, or None when there is none yet,
    once `path` is checked as `writing` would find it: a regular file the
    user may not write to, or one whose resolved directory is missing or
    may not be written, is refused, the error naming `path`.  It makes no
    file and opens none, a FIFO included, so a command refused here or
    killed after it leaves nothing.  `_spool` calls it before its first
    row, and `plot` before it reads its input."""
    try:
        mode = os.stat(path).st_mode
    except OSError:  # no file yet; a fault in the path is found below
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        return mode
    try:
        if mode is not None and not os.access(path, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
        folder = os.path.dirname(os.path.realpath(path))
        if not stat.S_ISDIR(os.stat(folder).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(folder, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    return mode


@contextmanager
def writing(path: str) -> Iterator[TextIO]:
    """`path` open for writing, the one writer of every output, once
    `output_mode` has checked it.  A regular file, or none, is written to
    a new file `.deixis-*` beside the file that `path` resolves to, synced,
    and renamed over it once the block ends, so a block that raises leaves
    it as it was; a replaced file keeps its permission bits, and a new one
    takes them from the umask.  A FIFO or device, a pipe reached through
    `/dev/fd` included, is written in place."""
    mode = output_mode(path)
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".deixis-{os.urandom(6).hex()}")
    try:
        fh = open(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666),
                  "w", encoding="utf-8")
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    except BaseException:
        with suppress(OSError):  # the clean-up never hides the error itself
            os.remove(tmp)
        raise


def _narrowed(shared: dict, dicts: list[dict]) -> dict:
    """The entries of `shared` that each of `dicts` holds with the same
    JSON text: the very same value, or values that the encoder writes as
    it writes the shared value repeated."""
    kept = {}
    for k, v in shared.items():
        values = [d[k] for d in dicts if k in d]
        if len(values) == len(dicts) and (
                all(x is v for x in values)
                or _ENCODER.encode(values) == _ENCODER.encode([v] * len(values))):
            kept[k] = v
    return kept


def _spool(path: str, rows: Iterable[tuple[str, dict]], id_field: str,
           header: Callable[[int, str, dict], dict]) -> None:
    """Write `path` as one header line and one record line per row, the
    one writer of both file kinds.  `path` is checked first
    (`output_mode`), so an output that cannot be written is refused before
    the first row is made.  A row is a record's id and its other
    fields.  Rows are spooled as they arrive, `SPOOL_BATCH` at a time, to
    a temporary file in the default temporary directory, while the
    longest common prefix of the ids and the shared fields narrow from the
    first row's (`_narrowed`): a field stays shared only while every row
    holds it with the same JSON text.  After the last row,
    `header(count, prefix, shared)` gives the header, and only then is
    `path` opened (`writing`) and each row written as its id without the
    prefix, under `id_field`, and the fields it does not share.  The
    spool has no name, so not even a killed process leaves it; an error or
    a kill before the last row leaves `path` as it was, and so does a
    failure after it (`writing`)."""
    output_mode(path)
    with tempfile.TemporaryFile() as fh:
        count, prefix, shared = 0, "", {}
        it = iter(rows)
        for batch in iter(lambda: list(islice(it, SPOOL_BATCH)), []):
            shared = _narrowed(shared if count else batch[0][1], [row[1] for row in batch])
            prefix = os.path.commonprefix([prefix if count else batch[0][0],
                                           *(row[0] for row in batch)])
            data = marshal.dumps(batch)
            fh.write(len(data).to_bytes(8, "little") + data)
            count += len(batch)
        head, cut = header(count, prefix, shared), len(prefix)
        fh.seek(0)
        with writing(path) as out:
            out.write(_ENCODER.encode(head) + "\n")
            while size := int.from_bytes(fh.read(8), "little"):
                for rid, fields in marshal.loads(fh.read(size)):
                    rec = {k: v for k, v in fields.items() if k not in shared}
                    rec[id_field] = rid[cut:]
                    out.write(_ENCODER.encode(rec) + "\n")


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
    and is spooled as its fields' values (`_spool`), so `path` is opened only
    after the last trial, and any error before then, such as a generation
    error, a loaded set's count mismatch or a trial whose scene differs
    from the set's in more than its objects' positions, leaves `path` as
    it was.  The header holds the count the set carries,
    `len(tset.trials)`, the ids' longest common prefix and the fields
    every record shares.  A loaded set's trials are read here, once."""
    count = len(tset.trials)
    if not count:
        raise DeixisError("a trial set holds at least one trial")
    ctx = _context(tset.condition, tset.act, tset.scene)

    def row(t: Trial) -> tuple[str, dict]:
        rec: dict = {"shown": _shown_to_json(t.shown)}
        if t.scene is not tset.scene:
            if _differs_past_positions(t.scene, tset.scene):
                raise DeixisError(f"trial {t.id}: its scene differs from the set's "
                                  "in more than its objects' positions")
            objects = [None if o is o0 else _position(o, od0) for o, o0, od0
                       in zip(t.scene.objects, tset.scene.objects, ctx["objects"])]
            if any(objects):
                rec["objects"] = objects
        return t.id, rec

    def header(written: int, prefix: str, shared: dict) -> dict:
        if written != count:
            raise DeixisError(f"a set of {count} trials gave {written}")
        return {"schema": TRIALS_SCHEMA, "count": count, "seed": seed,
                "id_prefix": prefix, "condition": tset.condition.descriptor(),
                "context": ctx, "shared": shared}

    _spool(path, map(row, tset.trials), "id", header)


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
    descriptor, seed, prefix, shared = map(header.get,
                                           ("condition", "seed", "id_prefix", "shared"))
    if descriptor != condition.descriptor():
        why = f"condition {descriptor!r} is not the context's {condition.descriptor()!r}"
    elif "seed" not in header:
        why = "no seed; it must be null or a non-negative integer"
    elif seed is not None and (type(seed) is not int or seed < 0):
        why = f"seed must be null or a non-negative integer, got {seed!r}"
    elif type(prefix) is not str:
        why = f"id_prefix must be a string, got {prefix!r}"
    elif type(shared) is not dict or not shared.keys() <= {"shown", "objects"}:
        why = f"shared must be an object holding only shown and objects, got {shared!r}"
    else:
        why = None
    if why:
        raise DeixisError(f"{path}:1: bad header: {why}")

    stream = _records(path, chain([first], lines), "trial", shared,
                      lambda rec: make_trial(scene, *_case(rec, scene, prefix)))
    return TrialSet(condition, act, scene, Trials(header["count"], lambda: stream))


def save_responses(records: Iterable[ResponseRecord], path: str) -> None:
    """Write records as given, each `meta` entry as a field of its own:
    `harness.predict` already quantizes every float in `meta` to 9
    significant digits.  Records are spooled as they arrive (`_spool`), and
    the header's `shared` holds what every record shares.  A `meta` entry
    named as a record's own field is refused before anything is written."""
    def row(r: ResponseRecord) -> tuple[str, dict]:
        if not _RESPONSE_FIELDS.isdisjoint(r.meta):
            clash = ", ".join(map(repr, sorted(_RESPONSE_FIELDS & r.meta.keys())))
            raise ValueError(f"trial {r.trial_id}: meta entry {clash} has the name "
                             "of a record field")
        return r.trial_id, {"predicted": r.predicted, "human": r.human, **r.meta}

    _spool(path, map(row, records), "trial_id", lambda count, prefix, shared: {
        "schema": RESPONSES_SCHEMA, "count": count, "id_prefix": prefix, "shared": shared})


def _checked(fields: dict) -> dict:
    """`fields` after checking the response fields it holds: a label the
    model can emit, a string or null `human`, points that become tuples and
    known numbers that are finite."""
    if "predicted" in fields and fields["predicted"] not in LABELS:
        raise ValueError(f"unknown label {fields['predicted']!r}")
    human = fields.get("human")
    if human is not None and type(human) is not str:
        raise TypeError(f"human must be a string or null, got {human!r}")
    for key in ("probe", "x_star"):
        if key in fields:
            fields[key] = _nums(fields[key], 2)
    for key in ("theta", "distance", "d_near", "d_far", "delta", "separation"):
        if key in fields:
            _num(fields[key])
    return fields


def load_responses(path: str) -> Iterator[ResponseRecord]:
    """The records of a responses file, each built as its line is read, so
    they can be read only once; the header is read and checked now.  A
    record's `meta` is every field but `trial_id`, `predicted` and `human`."""
    lines = _read_lines(path, RESPONSES_SCHEMA)
    _, header = next(lines)
    shared, prefix = header.get("shared"), header.get("id_prefix")
    try:
        if type(shared) is not dict:
            raise TypeError(f"shared must be an object, got {shared!r}")
        if type(prefix) is not str:
            raise TypeError(f"id_prefix must be a string, got {prefix!r}")
        if "trial_id" in shared:
            raise ValueError("shared holds trial_id; each record holds its own")
        _checked(shared)
    except (KeyError, TypeError, ValueError) as exc:
        raise DeixisError(f"{path}:1: bad header: {exc}") from exc

    def record(fields: dict) -> ResponseRecord:
        return ResponseRecord(trial_id=prefix + _str(fields.pop("trial_id")),
                              predicted=fields.pop("predicted"),
                              human=fields.pop("human"), meta=fields)

    return _records(path, lines, "response", shared, record, _checked)


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
