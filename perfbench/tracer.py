"""Traced entry point: one `deixis` command with a span around each call into
a layer, written to a JSON file when the command ends.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json gen --condition ...

The spans wrap the program's functions where their callers look them up
(`harness.resolve`, `corpus.Scene`, `resolver.stable_region`, ...), so no
file of the program changes.  The arguments after SPANS.json are exactly the
`deixis` argv of the untraced run.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from deixis import cli, corpus, harness, resolver, scene, stats, svgplot

_BOX_KINDS = ("cube", "cuboid")


class Tracer:
    """Spans kept in memory as [name index, start, end, parent span index]."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.scenes_seen: set = set()
        self._stack = [-1]

    def span(self, name: str, fn, after=None):
        """`fn` wrapped in a span; `after(result, *args)` then updates counters."""
        if name not in self.names:
            self.names.append(name)
        index = self.names.index(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [index, 0.0, 0.0, self._stack[-1]]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
            if after is not None:
                after(result, *args)
            return result
        return wrapper

    def count(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counters[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id, "names": self.names,
                       "spans": self.spans, "counters": dict(self.counters)}, fh)


def install(t: Tracer) -> None:
    """Replace each layer entry point at its call site with a traced one."""
    def add(name, value=1):
        t.counters[name] += value

    def wrote(_result, _items, path, *_):
        add("corpus.bytes_written", os.path.getsize(path))

    def read(_result, path, *_):
        add("corpus.bytes_read", os.path.getsize(path))

    def outcome(label, *_):
        add(f"resolver.outcome.{label}")

    def built_scene(_scene, _surface, objects=(), *_):
        add("scene.Scene.yawed_boxes", sum(
            1 for o in objects if o.shape.kind in _BOX_KINDS and o.pose.yaw != 0.0))

    def region_built(_region, scene_arg, *_):
        t.scenes_seen.add(scene_arg)
        t.counters["scene.stable_region.distinct_scenes"] = len(t.scenes_seen)

    traced_scene = t.span("scene.Scene", scene.Scene, built_scene)
    for module, attr, name, after in (
            (harness, "generate_trials", "harness.generate_trials", None),
            (harness, "run", "harness.run", None),
            (harness, "aggregate", "harness.aggregate", None),
            (corpus, "save_trials", "corpus.save_trials", wrote),
            (corpus, "load_trials", "corpus.load_trials", read),
            (corpus, "save_responses", "corpus.save_responses", wrote),
            (corpus, "load_responses", "corpus.load_responses", read),
            (harness, "sample_positions", "sampling.sample_positions", None),
            (harness, "cluttered_pair", "sampling.cluttered_pair", None),
            (harness, "cone_plane_section", "geometry.cone_plane_section", None),
            (resolver, "stable_region", "scene.stable_region", region_built),
            (scene.StableRegion, "contains", "scene.StableRegion.contains", None),
            (scene.StableRegion, "nearest", "scene.StableRegion.nearest", None),
            (harness, "candidates", "resolver.candidates", None),
            (harness, "resolve", "resolver.resolve", None),
            (harness, "classify_outcome", "resolver.classify_outcome", outcome),
            (harness, "predict_cluttered", "resolver.predict_cluttered", outcome),
            (stats, "chi_squared_test", "stats.chi_squared_test", None),
            (stats, "fisher_exact_2x2", "stats.fisher_exact_2x2", None),
            (stats, "tost_equivalence", "stats.tost_equivalence", None),
            (svgplot, "render", "svgplot.render", None)):
        setattr(module, attr, t.span(name, getattr(module, attr), after))
    harness.Scene = corpus.Scene = traced_scene
    svgplot._pie = t.count("svgplot.render.pies", svgplot._pie)


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    tracer = Tracer(Path(out).stem)
    install(tracer)
    code: int | str | None = 0
    try:
        tracer.span("cli.main", cli.main)(args=args, prog_name="deixis")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.dump(out)
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
