"""Seeded regeneration of the experimental conditions and model predictions.

Scene constants (table size, object sizes, pointer geometry, fixed task
positions) are simulation defaults, not published values; they are chosen so
every generated trial satisfies the scene invariants and the documented
qualitative contrasts.  Tables auto-grow to contain large tilted sections.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from .errors import DeixisError
from .geometry import (Ellipse, Plane, Point3, Ray, SurfacePoint,
                       cone_plane_section, from_surface_frame, surface_distance,
                       unit)
from .resolver import (AMBIGUOUS, CORRECT, INCORRECT, LOCATING, NEARER,
                       REFERENTIAL, PointingAct, ResolverConfig, candidates,
                       classify_outcome, predict_cluttered, resolve)
from .sampling import PCG64, cluttered_pair, sample_positions, substreams
from .scene import Scene, SceneObject, Shape, Pose2D

REF_VS_LOC = "ref_vs_loc"
CLUTTERED = "cluttered"
NATURAL = "natural_vs_unnatural"
KINDS = (REF_VS_LOC, CLUTTERED, NATURAL)

LABELS = (CORRECT, INCORRECT, AMBIGUOUS, NEARER)

CONE_ANGLES_DEG = (45.0, 67.5, 90.0)
VERBS = ("put", "place", "move", "push")

# Default table: 1.2 m x 0.8 m desk, centered on the plane anchor.
TABLE_EXTENT = (1.2, 0.8)

MUG = Shape.mug(radius=0.04, height=0.10)
RED_CUBE = Shape.cube(half=0.08, height=0.16)  # visual guide, ~2x the mug

# Fixed pick/place positions for the referential-vs-locating task.
X_INIT = SurfacePoint(-0.2, 0.15)
X_FINAL = SurfacePoint(-0.2, -0.15)


# Natural-vs-unnatural stack: two stacked cuboids; the gesture aims just
# inside the top face's footprint but outside its 5 mm support margin, so the
# target placement is unstable under gravity.  A natural trial shows the
# point its configuration places the cuboid at; the label ends its id.
STACK_CUBOID = Shape.cuboid(half_extents=(0.1045, 0.1045), height=0.10)
STACK_POSITION = SurfacePoint(0.0, 0.0)
NATURAL_X_STAR = SurfacePoint(0.102, 0.0)
NATURAL_CONFIGS = {"top": SurfacePoint(0.0, 0.0),
                   "edge": SurfacePoint(0.102, 0.0),
                   "table": SurfacePoint(0.45, 0.0)}


@dataclass(frozen=True)
class PointerConfig:
    """End-effector tip pose relative to the aimed surface point."""

    height: float
    standoff: float


ROBOTS = {"baxter": PointerConfig(height=0.45, standoff=0.35),
          "kuka": PointerConfig(height=0.55, standoff=0.25)}


def _q(x: float) -> float:
    """Quantize to 9 significant digits (the corpus float precision).  A
    float already at 9 digits is returned itself, so a quantized copy stays
    `is`-identical to its source."""
    q = float(f"{x:.9g}")
    return x if type(x) is float and q == x else q


def _qp(p: SurfacePoint) -> SurfacePoint:
    return SurfacePoint(_q(p.u), _q(p.v))


@dataclass(frozen=True)
class Condition:
    kind: str
    variant: str = REFERENTIAL  # probed pointing act for sampled kinds
    robot: str = "baxter"
    speech: bool = True
    reverse: bool = False
    cone_vertex_angle: float | None = None  # radians
    gravity: bool = True
    verb: str = "put"

    def __post_init__(self) -> None:
        for name, value, known in (("condition kind", self.kind, KINDS),
                                   ("robot", self.robot, ROBOTS), ("verb", self.verb, VERBS),
                                   ("variant", self.variant, (REFERENTIAL, LOCATING))):
            if value not in known:
                raise ValueError(f"unknown {name} {value!r}")
        if self.kind == NATURAL:
            if self.cone_vertex_angle is not None:
                raise ValueError(f"{self.kind} takes no cone vertex angle")
        elif self.cone_vertex_angle is None:
            raise ValueError(f"{self.kind} requires a cone vertex angle")
        else:  # held as the allowed angle it matches
            angles = [d for d in CONE_ANGLES_DEG
                      if abs(math.degrees(self.cone_vertex_angle) - d) < 1e-9]
            if not angles:
                raise ValueError("cone vertex angle must be 45, 67.5 or 90 degrees")
            object.__setattr__(self, "cone_vertex_angle", math.radians(angles[0]))
        # fields the kind never reads must keep their defaults: the
        # descriptor and trial ids omit them.  The verb and speech are
        # ref-vs-loc tags: they label a set and change no prediction
        if self.kind != REF_VS_LOC:
            for name, default in (("variant", REFERENTIAL), ("reverse", False),
                                  ("verb", "put"), ("speech", True)):
                if getattr(self, name) != default:
                    raise ValueError(f"{self.kind} takes no {name}: only "
                                     f"{REF_VS_LOC} reads it")
        if self.kind != NATURAL and not self.gravity:
            raise ValueError(f"{self.kind} takes no gravity off")

    def descriptor(self) -> str:
        parts = [self.kind, self.variant] if self.kind == REF_VS_LOC else [self.kind]
        if self.cone_vertex_angle is not None:
            parts.append(f"{math.degrees(self.cone_vertex_angle):g}deg")
        parts.append(self.robot)
        if not self.speech:
            parts.append("nospeech")
        if self.reverse:
            parts.append("reverse")
        if self.kind == NATURAL:
            parts.append("gravity-on" if self.gravity else "gravity-off")
        if self.verb != "put":
            parts.append(self.verb)
        return "/".join(parts)


@dataclass(frozen=True, slots=True)
class Trial:
    """One trial: its scene and shown outcome; the condition and act are its set's."""

    id: str
    scene: Scene
    shown: str | SurfacePoint


def make_trial(scene: Scene, tid: str, moves: dict | None,
               shown: str | SurfacePoint) -> Trial:
    """The one place a `Trial` is made, from one case: `scene` or, when the
    case moves objects, `scene.moved(moves)`, with the case's id and shown."""
    return Trial(tid, scene if moves is None else scene.moved(moves), shown)


class Trials:
    """A set's trials, counted before any is made: `len` is `count`, and
    each pass over them is a fresh `make()`.  A generated set's `make`
    draws its cases again, so every pass gives the same trials and none is
    held; a loaded set's hands on its one reader, so it is read once and
    a second pass raises."""

    __slots__ = ("count", "make")

    def __init__(self, count: int, make: Callable[[], Iterator[Trial]]) -> None:
        self.count = count
        self.make = make

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[Trial]:
        return self.make()


@dataclass(frozen=True, slots=True)
class TrialSet:
    """One condition's trials: one pointing act into one scene, in order.
    Sets compare on condition, act and scene; `trials`, a `Trials` or any
    sized iterable, is left out, since a loaded set's can be read once."""

    condition: Condition
    act: PointingAct
    scene: Scene
    trials: Iterable[Trial] = field(compare=False)


@dataclass(frozen=True, slots=True)
class ResponseRecord:
    trial_id: str
    predicted: str
    human: str | None = None
    meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class AggregateTable:
    labels: tuple[str, ...]
    rows: tuple[tuple[object, tuple[int, ...]], ...]


def pointer_ray(target: SurfacePoint, plane: Plane, robot: str) -> Ray:
    """Ray from the robot's tool tip through the aimed surface point."""
    cfg = ROBOTS[robot]
    t3 = from_surface_frame(target, plane)
    eu, n = plane.axis_u, plane.normal
    origin = Point3(_q(t3.x - cfg.standoff * eu[0] + cfg.height * n[0]),
                    _q(t3.y - cfg.standoff * eu[1] + cfg.height * n[1]),
                    _q(t3.z - cfg.standoff * eu[2] + cfg.height * n[2]))
    direction = unit((t3.x - origin.x, t3.y - origin.y, t3.z - origin.z))
    # re-normalize after quantization so the Ray invariant holds exactly
    return Ray(origin, unit(tuple(_q(c) for c in direction)))


def _fit_extent(points: list[SurfacePoint], margin: float = 0.1) -> tuple[float, float]:
    hu = max(TABLE_EXTENT[0] / 2.0, max(abs(p.u) for p in points) + margin)
    hv = max(TABLE_EXTENT[1] / 2.0, max(abs(p.v) for p in points) + margin)
    return (_q(2.0 * hu), _q(2.0 * hv))


def _ellipse_bbox(e: Ellipse) -> list[SurfacePoint]:
    du = math.hypot(e.semi_major * math.cos(e.orientation),
                    e.semi_minor * math.sin(e.orientation))
    dv = math.hypot(e.semi_major * math.sin(e.orientation),
                    e.semi_minor * math.cos(e.orientation))
    return [SurfacePoint(e.center.u - du, e.center.v - dv),
            SurfacePoint(e.center.u + du, e.center.v + dv)]


def _aim(cond: Condition, target: SurfacePoint, intent: str,
         plane: Plane) -> PointingAct:
    """The set's one act: the robot's ray through `target` and its quantized hit x*."""
    ray = pointer_ray(target, plane, cond.robot)
    return PointingAct(ray, intent, _qp(PointingAct.aim(ray, plane, intent).target))


def generate_trials(cond: Condition, n: int, seed: int) -> TrialSet:
    """Deterministic trial set for a condition.

    n must be positive; sampled kinds also require n divisible by 4, and
    the natural condition always yields its three fixed configurations.
    Each kind's generator returns the pointing act and scene its trials
    share and a function giving one (id suffix, moves or None, shown) case
    per trial, drawn afresh on each call.  The set holds none of its
    trials: each pass over them makes them again, as they are read.
    """
    if cond.kind == NATURAL:
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        (act, scene, cases), n = _natural_trials(cond), len(NATURAL_CONFIGS)
    elif n <= 0 or n % 4 != 0:
        raise ValueError(f"n must be a positive multiple of 4, got {n}")
    elif cond.kind == CLUTTERED:
        act, scene, cases = _cluttered_trials(cond, n, seed)
    else:
        act, scene, cases = _ref_vs_loc_trials(cond, n, seed)
    slug = cond.descriptor().replace("/", "-")

    def make() -> Iterator[Trial]:
        return (make_trial(scene, f"{slug}-{suffix}", moves, shown)
                for suffix, moves, shown in cases())

    return TrialSet(cond, act, scene, Trials(n, make))


def _ref_vs_loc_trials(cond: Condition, n: int, seed: int) -> tuple:
    x_init, x_final = (X_FINAL, X_INIT) if cond.reverse else (X_INIT, X_FINAL)
    intent = cond.variant
    probe_plane = Plane.horizontal(TABLE_EXTENT)
    act = _aim(cond, x_init if intent == REFERENTIAL else x_final, intent, probe_plane)
    x_star = act.target
    ellipse = cone_plane_section(act.ray, cond.cone_vertex_angle, probe_plane)
    # x* is on the major axis, so its far end is the farthest boundary point
    reach = ellipse.semi_major + surface_distance(ellipse.center, x_star)
    cube_pos = _qp(SurfacePoint(x_star.u, x_star.v + reach + 0.25))
    # the extent reads the largest |u| and |v| of the quantized positions;
    # `_q` is odd and monotone, so they are the largest drawn, quantized.
    # The stream is drawn once for them here, and again on each pass over
    # the trials, rather than held
    drawn = sample_positions(ellipse, n, seed)
    first = next(drawn)
    mu, mv = abs(first.u), abs(first.v)
    for p in drawn:
        mu, mv = max(mu, abs(p.u)), max(mv, abs(p.v))
    farthest = _qp(SurfacePoint(mu, mv))
    extent = _fit_extent(_ellipse_bbox(ellipse)
                         + [farthest, x_init, x_final, cube_pos, x_star])
    mug = _qp(first) if intent == REFERENTIAL else x_init
    scene = Scene(Plane.horizontal(extent),
                  (SceneObject("mug", MUG, Pose2D(mug)),
                   SceneObject("red_cube", RED_CUBE, Pose2D(cube_pos))))

    def cases() -> Iterator[tuple]:
        for i, pos in enumerate(map(_qp, sample_positions(ellipse, n, seed))):
            # a referential trial moves the mug to its probe; a locating
            # trial shows its probe as a point and keeps the scene
            yield ((f"{i:03d}", {0: pos}, "mug") if intent == REFERENTIAL
                   else (f"{i:03d}", None, pos))

    return act, scene, cases


def _cluttered_trials(cond: Condition, n: int, seed: int) -> tuple:
    probe_plane = Plane.horizontal(TABLE_EXTENT)
    act = _aim(cond, SurfacePoint(0.0, 0.0), REFERENTIAL, probe_plane)
    x_star = act.target
    ellipse = cone_plane_section(act.ray, cond.cone_vertex_angle, probe_plane)
    # a pair point sits on the major axis at most D from the center (offset
    # +- D/2), so the points 1.5 D out bound the extent of every pair
    d_full = 2.0 * ellipse.semi_major
    far = [ellipse.from_local(s * 1.5 * d_full, 0.0) for s in (-1.0, 1.0)]
    extent = _fit_extent(_ellipse_bbox(ellipse) + far + [x_star])

    def pair(rng: PCG64) -> tuple[SurfacePoint, SurfacePoint]:
        drawn = cluttered_pair(ellipse, rng)
        return _qp(drawn.x_object), _qp(drawn.x_distractor)

    first = pair(next(substreams(seed, n)))
    scene = Scene(Plane.horizontal(extent),
                  (SceneObject("mug_object", MUG, Pose2D(first[0])),
                   SceneObject("mug_distractor", MUG, Pose2D(first[1]))))

    def cases() -> Iterator[tuple]:
        # each trial moves both mugs, trial 0 to where the scene has them
        for i, (obj, dis) in enumerate(map(pair, substreams(seed, n))):
            nearer = surface_distance(obj, x_star) <= surface_distance(dis, x_star)
            yield (f"{i:03d}", {0: obj, 1: dis},
                   "mug_object" if nearer else "mug_distractor")

    return act, scene, cases


def _natural_trials(cond: Condition) -> tuple:
    plane = Plane.horizontal(TABLE_EXTENT)
    stack = (SceneObject("stack_base", STACK_CUBOID, Pose2D(STACK_POSITION)),
             SceneObject("stack_top", STACK_CUBOID, Pose2D(STACK_POSITION),
                         support="stack_base"))

    def cases() -> Iterator[tuple]:
        return ((label, None, point) for label, point in NATURAL_CONFIGS.items())

    return (_aim(cond, NATURAL_X_STAR, LOCATING, plane),
            Scene(plane, stack), cases)


def _predict(trial: Trial, cond: Condition, act: PointingAct, descriptor: str,
             x_star_q: tuple[float, float], cfg: ResolverConfig) -> tuple[str, dict]:
    x_star = act.target
    meta: dict = {"condition": descriptor, "x_star": x_star_q}
    if cond.kind == CLUTTERED:
        obj = trial.scene.object_by_id("mug_object").pose.position
        dis = trial.scene.object_by_id("mug_distractor").pose.position
        predicted = predict_cluttered(x_star, obj, dis, cfg)
        d1, d2 = surface_distance(obj, x_star), surface_distance(dis, x_star)
        meta.update(d_near=_q(min(d1, d2)), d_far=_q(max(d1, d2)),
                    delta=_q(abs(d1 - d2)),
                    separation=_q(surface_distance(obj, dis)))
        meta.update(probe=(_q(obj.u), _q(obj.v)), path=CLUTTERED)
        return predicted, meta
    # referential, locating and natural trials
    shown = trial.shown
    cands = candidates(trial.scene, act.intent,
                       STACK_CUBOID if cond.kind == NATURAL else MUG, cond.gravity)
    res = resolve(cands, x_star, cfg)
    predicted = classify_outcome(res, shown, x_star, cfg)
    probe = (trial.scene.object_by_id(shown).pose.position
             if isinstance(shown, str) else shown)
    meta.update(probe=(_q(probe.u), _q(probe.v)), theta=_q(res.theta), path=res.path,
                distance=_q(surface_distance(probe, x_star)))
    return predicted, meta


def predict(tset: TrialSet, cfg: ResolverConfig = ResolverConfig()) -> Iterator[ResponseRecord]:
    """One predicted judgment per trial, in order, each made as its trial
    arrives, so of a loaded set nothing is held.  Every float in `meta` is
    quantized to 9 significant digits, as the corpus writes it.
    `meta.path` names the branch that answered: `stable` or `enumerated`
    for locating and natural trials (x* in the stable region, or the
    nearest stable point found by enumeration), `discrete` for referential
    trials and `cluttered` for cluttered ones."""
    cond, act = tset.condition, tset.act
    descriptor = cond.descriptor()
    x_star_q = (_q(act.target.u), _q(act.target.v))
    for trial in tset.trials:
        try:
            predicted, meta = _predict(trial, cond, act, descriptor, x_star_q, cfg)
        except DeixisError as exc:
            raise DeixisError(f"trial {trial.id}: {exc}") from exc
        yield ResponseRecord(trial_id=trial.id, predicted=predicted, meta=meta)


def run(tset: TrialSet, cfg: ResolverConfig = ResolverConfig()) -> list[ResponseRecord]:
    """Every record `predict` makes, in a list."""
    return list(predict(tset, cfg))


def aggregate(records: Iterable[ResponseRecord], group_by: str = "condition") -> AggregateTable:
    """Label counts per condition descriptor (`meta.condition`); conditions
    appear in first-seen order.  `"condition"` is the only grouping."""
    if group_by != "condition":
        raise ValueError(f"unknown grouping {group_by!r}")
    groups: dict[object, Counter] = {}
    for rec in records:
        groups.setdefault(rec.meta.get("condition"), Counter())[rec.predicted] += 1
    if not groups:
        raise DeixisError("no records to aggregate")
    rows = tuple((key, tuple(counter.get(lbl, 0) for lbl in LABELS))
                 for key, counter in groups.items())
    return AggregateTable(labels=LABELS, rows=rows)
