"""Seeded regeneration of the experimental conditions and model predictions.

Scene constants (table size, object sizes, pointer geometry, fixed task
positions) are simulation defaults, not published values; they are chosen so
every generated trial satisfies the scene invariants and the documented
qualitative contrasts.  Tables auto-grow to contain large tilted sections.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace

from .errors import DeixisError, EmptyInput, InvalidCount
from .geometry import (Ellipse, Plane, Point3, Ray, SurfacePoint,
                       cone_plane_section, from_surface_frame, surface_distance)
from .resolver import (AMBIGUOUS, CORRECT, INCORRECT, LOCATING, NEARER,
                       REFERENTIAL, PointingAct, ResolverConfig, candidates,
                       classify_outcome, predict_cluttered, resolve)
from .sampling import SampleConfig, cluttered_pair, sample_positions, substream_seed
from .scene import Scene, SceneObject, Shape, Pose2D

REF_VS_LOC = "ref_vs_loc"
CLUTTERED = "cluttered"
NATURAL = "natural_vs_unnatural"
VERB_VARIANT = "verb_variant"

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
# target placement is unstable under gravity.
STACK_CUBOID = Shape.cuboid(half_extents=(0.1045, 0.1045), height=0.10)
STACK_POSITION = SurfacePoint(0.0, 0.0)
NATURAL_X_STAR = SurfacePoint(0.102, 0.0)
NATURAL_CONFIGS = (("top", SurfacePoint(0.0, 0.0)),
                   ("edge", SurfacePoint(0.102, 0.0)),
                   ("table", SurfacePoint(0.45, 0.0)))


@dataclass(frozen=True)
class PointerConfig:
    """End-effector tip pose relative to the aimed surface point."""

    height: float
    standoff: float


ROBOTS = {"baxter": PointerConfig(height=0.45, standoff=0.35),
          "kuka": PointerConfig(height=0.55, standoff=0.25)}


def _q(x: float) -> float:
    """Quantize to 9 significant digits (the corpus float precision)."""
    return float(f"{x:.9g}")


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
        if self.kind not in (REF_VS_LOC, CLUTTERED, NATURAL, VERB_VARIANT):
            raise ValueError(f"unknown condition kind {self.kind!r}")
        if self.robot not in ROBOTS:
            raise ValueError(f"unknown robot {self.robot!r}")
        if self.verb not in VERBS:
            raise ValueError(f"unknown verb {self.verb!r}")
        if self.variant not in (REFERENTIAL, LOCATING):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.kind == NATURAL:
            if self.cone_vertex_angle is not None:
                raise ValueError(f"{self.kind} takes no cone vertex angle")
        elif self.cone_vertex_angle is None:
            raise ValueError(f"{self.kind} requires a cone vertex angle")
        elif not any(abs(math.degrees(self.cone_vertex_angle) - d) < 1e-9
                     for d in CONE_ANGLES_DEG):
            raise ValueError("cone vertex angle must be 45, 67.5 or 90 degrees")

    def descriptor(self) -> str:
        parts = [self.kind]
        if self.kind in (REF_VS_LOC, VERB_VARIANT):
            parts.append(self.variant)
        if self.cone_vertex_angle is not None:
            parts.append(f"{math.degrees(self.cone_vertex_angle):g}deg")
        parts.append(self.robot)
        if not self.speech:
            parts.append("nospeech")
        if self.reverse:
            parts.append("reverse")
        if self.kind == NATURAL:
            parts.append("gravity-on" if self.gravity else "gravity-off")
        if self.kind == VERB_VARIANT:
            parts.append(self.verb)
        return "/".join(parts)


@dataclass(frozen=True)
class ShownConfig:
    """A named stack configuration shown as the trial outcome."""

    label: str
    position: SurfacePoint


@dataclass(frozen=True)
class Trial:
    id: str
    condition: Condition
    scene: Scene
    point_act: PointingAct
    shown: str | SurfacePoint | ShownConfig


@dataclass(frozen=True)
class ResponseRecord:
    trial_id: str
    predicted: str
    human: str | None = None
    meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class AggregateTable:
    group_by: str
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
    direction = ((t3.x - origin.x), (t3.y - origin.y), (t3.z - origin.z))
    norm = math.sqrt(sum(c * c for c in direction))
    direction = tuple(_q(c / norm) for c in direction)
    # re-normalize after quantization so the Ray invariant holds exactly
    norm = math.sqrt(sum(c * c for c in direction))
    return Ray(origin, tuple(c / norm for c in direction))


def _ellipse_reach(ellipse: Ellipse, x_star: SurfacePoint, samples: int = 1024) -> float:
    """Max distance from x* to the section boundary."""
    return max(surface_distance(ellipse.boundary_point(2 * math.pi * i / samples), x_star)
               for i in range(samples))


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


def _normalize_condition(cond: Condition) -> Condition:
    if cond.cone_vertex_angle is None:
        return cond
    return replace(cond,
                   cone_vertex_angle=math.radians(_q(math.degrees(cond.cone_vertex_angle))))


def generate_trials(cond: Condition, n: int, seed: int) -> list[Trial]:
    """Deterministic trial set for a condition.

    Sampled kinds require n divisible by 4; the natural condition always
    yields its three fixed configurations.
    """
    cond = _normalize_condition(cond)
    if cond.kind == NATURAL:
        return _natural_trials(cond, seed)
    if n <= 0 or n % 4 != 0:
        raise InvalidCount(f"n must be a positive multiple of 4, got {n}")
    if cond.kind in (REF_VS_LOC, VERB_VARIANT):
        return _ref_vs_loc_trials(cond, n, seed)
    return _cluttered_trials(cond, n, seed)


def _ref_vs_loc_trials(cond: Condition, n: int, seed: int) -> list[Trial]:
    x_init, x_final = (X_FINAL, X_INIT) if cond.reverse else (X_INIT, X_FINAL)
    intent = cond.variant
    target = x_init if intent == REFERENTIAL else x_final
    probe_plane = Plane.horizontal(TABLE_EXTENT)
    ray = pointer_ray(target, probe_plane, cond.robot)
    angle = cond.cone_vertex_angle
    assert angle is not None
    ellipse = cone_plane_section(ray, angle, probe_plane)
    positions = [_qp(p) for p in
                 sample_positions(ellipse, SampleConfig(n, seed, angle))]
    act = PointingAct.aim(ray, probe_plane, intent)
    x_star = _qp(act.target)
    cube_pos = _qp(SurfacePoint(x_star.u,
                                x_star.v + _ellipse_reach(ellipse, x_star) + 0.25))
    extent = _fit_extent(_ellipse_bbox(ellipse)
                         + positions + [x_init, x_final, cube_pos, x_star])
    plane = Plane.horizontal(extent)
    act = PointingAct(ray, intent, x_star)
    cube = SceneObject("red_cube", RED_CUBE, Pose2D(cube_pos))
    slug = cond.descriptor().replace("/", "-")
    if intent == REFERENTIAL:
        return [Trial(id=f"{slug}-{i:03d}", condition=cond,
                      scene=Scene(plane, (SceneObject("mug", MUG, Pose2D(pos)), cube)),
                      point_act=act, shown="mug")
                for i, pos in enumerate(positions)]
    # the locating scene is the same for every trial: build it once
    scene = Scene(plane, (SceneObject("mug", MUG, Pose2D(x_init)), cube))
    return [Trial(id=f"{slug}-{i:03d}", condition=cond, scene=scene,
                  point_act=act, shown=pos)
            for i, pos in enumerate(positions)]


def _cluttered_trials(cond: Condition, n: int, seed: int) -> list[Trial]:
    probe_plane = Plane.horizontal(TABLE_EXTENT)
    ray = pointer_ray(SurfacePoint(0.0, 0.0), probe_plane, cond.robot)
    angle = cond.cone_vertex_angle
    assert angle is not None
    ellipse = cone_plane_section(ray, angle, probe_plane)
    act = PointingAct.aim(ray, probe_plane, REFERENTIAL)
    x_star = _qp(act.target)
    # bound the extent by the farthest possible pair point (offset +- D/2)
    d_full = 2.0 * ellipse.semi_major
    far = [ellipse.from_local(s * 1.5 * d_full, 0.0) for s in (-1.0, 1.0)]
    pairs = [cluttered_pair(ellipse, substream_seed(seed, i)) for i in range(n)]
    points = [p for pair in pairs for p in (pair.x_object, pair.x_distractor)]
    extent = _fit_extent(_ellipse_bbox(ellipse) + far + points + [x_star])
    plane = Plane.horizontal(extent)
    act = PointingAct(ray, REFERENTIAL, x_star)
    slug = cond.descriptor().replace("/", "-")
    trials = []
    for i, pair in enumerate(pairs):
        obj = SceneObject("mug_object", MUG, Pose2D(_qp(pair.x_object)))
        distractor = SceneObject("mug_distractor", MUG, Pose2D(_qp(pair.x_distractor)))
        scene = Scene(plane, (obj, distractor))
        d_obj = surface_distance(obj.pose.position, x_star)
        d_dis = surface_distance(distractor.pose.position, x_star)
        shown = obj.id if d_obj <= d_dis else distractor.id
        trials.append(Trial(id=f"{slug}-{i:03d}", condition=cond, scene=scene,
                            point_act=act, shown=shown))
    return trials


def _natural_trials(cond: Condition, seed: int) -> list[Trial]:
    plane = Plane.horizontal(TABLE_EXTENT)
    stack = (SceneObject("stack_base", STACK_CUBOID, Pose2D(STACK_POSITION)),
             SceneObject("stack_top", STACK_CUBOID, Pose2D(STACK_POSITION),
                         support="stack_base"))
    scene = Scene(plane, stack, gravity=cond.gravity)
    ray = pointer_ray(NATURAL_X_STAR, plane, cond.robot)
    act = PointingAct.aim(ray, plane, LOCATING)
    act = PointingAct(ray, LOCATING, _qp(act.target))
    slug = cond.descriptor().replace("/", "-")
    return [Trial(id=f"{slug}-{label}", condition=cond, scene=scene,
                  point_act=act, shown=ShownConfig(label, position))
            for label, position in NATURAL_CONFIGS]


def _predict(trial: Trial, descriptor: str,
             cfg: ResolverConfig) -> tuple[str, dict]:
    cond = trial.condition
    x_star = trial.point_act.target
    meta: dict = {"condition": descriptor,
                  "x_star": (x_star.u, x_star.v)}
    if cond.kind == CLUTTERED:
        obj = trial.scene.object_by_id("mug_object").pose.position
        dis = trial.scene.object_by_id("mug_distractor").pose.position
        predicted = predict_cluttered(x_star, obj, dis, cfg)
        d1, d2 = surface_distance(obj, x_star), surface_distance(dis, x_star)
        meta.update(d_near=_q(min(d1, d2)), d_far=_q(max(d1, d2)),
                    delta=_q(abs(d1 - d2)),
                    separation=_q(surface_distance(obj, dis)))
        meta["probe"] = (obj.u, obj.v)
        return predicted, meta
    if cond.kind == NATURAL:
        assert isinstance(trial.shown, ShownConfig)
        cands = candidates(trial.scene, LOCATING, shape_for_placement=STACK_CUBOID)
        res = resolve(cands, x_star, cfg)
        predicted = classify_outcome(res, trial.shown.position, x_star, cfg)
        meta.update(config=trial.shown.label,
                    probe=(trial.shown.position.u, trial.shown.position.v),
                    theta=_q(res.theta))
        return predicted, meta
    # referential-vs-locating (and verb variants)
    if cond.variant == REFERENTIAL:
        assert isinstance(trial.shown, str)
        cands = candidates(trial.scene, REFERENTIAL)
        res = resolve(cands, x_star, cfg)
        predicted = classify_outcome(res, trial.shown, x_star, cfg)
        probe = trial.scene.object_by_id(trial.shown).pose.position
    else:
        assert isinstance(trial.shown, SurfacePoint)
        cands = candidates(trial.scene, LOCATING, shape_for_placement=MUG)
        res = resolve(cands, x_star, cfg)
        predicted = classify_outcome(res, trial.shown, x_star, cfg)
        probe = trial.shown
    meta.update(probe=(probe.u, probe.v), theta=_q(res.theta),
                distance=_q(surface_distance(probe, x_star)))
    return predicted, meta


def run(trials: list[Trial],
        cfg: ResolverConfig = ResolverConfig()) -> list[ResponseRecord]:
    """One predicted judgment per trial, preserving order."""
    descriptors: dict[Condition, str] = {}
    records = []
    for trial in trials:
        descriptor = descriptors.get(trial.condition)
        if descriptor is None:
            descriptor = descriptors[trial.condition] = trial.condition.descriptor()
        try:
            predicted, meta = _predict(trial, descriptor, cfg)
        except DeixisError as exc:
            raise type(exc)(f"trial {trial.id}: {exc}") from exc
        records.append(ResponseRecord(trial_id=trial.id, predicted=predicted,
                                      meta=meta))
    return records


def _group_key(record: ResponseRecord, group_by: str) -> object:
    if group_by == "position":
        return tuple(record.meta.get("probe", ()))
    if group_by == "config":
        return record.meta.get("config")
    if group_by == "condition":
        return record.meta.get("condition")
    raise ValueError(f"unknown grouping {group_by!r}")


def aggregate(records: list[ResponseRecord], group_by: str = "condition") -> AggregateTable:
    """Label counts per group; groups appear in first-seen order."""
    if not records:
        raise EmptyInput("no records to aggregate")
    groups: dict[object, Counter] = {}
    for rec in records:
        key = _group_key(rec, group_by)
        groups.setdefault(key, Counter())[rec.predicted] += 1
    rows = tuple((key, tuple(counter.get(lbl, 0) for lbl in LABELS))
                 for key, counter in groups.items())
    return AggregateTable(group_by=group_by, labels=LABELS, rows=rows)
