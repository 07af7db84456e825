"""Spans around the public entry points of macstag, recorded from outside.

Each entry point is rebound at the place it is looked up from (a module
attribute or a class attribute), so the package itself is untouched. A span
records its name, start, end and parent; counts (solver iterations, forcing
points, bytes) are attached to the span in which they were taken. Spans stay
in memory and are written out once, when the run ends.

An entry point that no longer exists is reported as absent instead of
failing, so the benchmark survives refactors that remove it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "child", "step", "phase", "episode", "ok", "counts")

    def __init__(self, sid, name, parent, phase, episode):
        self.id = sid
        self.name = name
        self.parent = parent
        self.phase = phase
        self.episode = episode
        self.child = 0.0  # time covered by direct children
        self.counts = {}
        self.ok = False
        self.end = None
        # the step this span runs in, if any
        if name == "scheme.step":
            self.step = self
        else:
            self.step = parent.step if parent is not None else None
        self.start = time.perf_counter()

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_time(self):
        return self.duration - self.child


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self.episode = None
        self.absent = []
        self.enabled = True  # off: wrappers call straight through and record nothing

    def open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent, self.phase, self.episode)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span, ok):
        span.end = time.perf_counter()
        span.ok = ok
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")
        if span.parent is not None:
            span.parent.child += span.duration

    @contextlib.contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        if not self.enabled:
            yield None
            return
        span = self.open(name)
        ok = False
        try:
            yield span
            ok = True
        finally:
            self.close(span, ok)

    def count(self, key, value):
        """Add to a count on the innermost open span."""
        if self.stack:
            counts = self.stack[-1].counts
            counts[key] = counts.get(key, 0) + value

    def wrap(self, owner, attr, name, on_result=None):
        """Rebind owner.attr to a traced version; record it as absent if missing."""
        orig = getattr(owner, attr, None)
        if orig is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            with tracer.span(name) as span:
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, out)
            return out

        setattr(owner, attr, traced)

    def dump(self, path, extra):
        rows = [
            {
                "id": s.id,
                "name": s.name,
                "parent": s.parent.id if s.parent is not None else None,
                "start": s.start,
                "end": s.end,
                "phase": s.phase,
                "episode": s.episode,
                "ok": s.ok,
                "counts": s.counts,
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({**extra, "absent": self.absent, "spans": rows}, fh)


def _iterations(span, args, out):
    span.counts["iters"] = out.iterations


def _poisson_iterations(span, args, out):
    span.counts["iters"] = out[1]


def _trajectory_bytes(span, args, traj):
    fields = list(traj.velocities) + list(traj.predicted)
    nbytes = sum(c.nbytes for f in fields for c in f.components)
    nbytes += sum(p.data.nbytes for p in traj.pressures)
    span.counts["trajectory_bytes"] = nbytes


def _written_bytes(span, args, out):
    span.counts["bytes"] = len(args[1].encode())


def install(tracer, macstag):
    """Wrap every traced entry point of an imported macstag package."""
    from macstag import cli, output, projection, scheme

    wrap = tracer.wrap
    wrap(scheme, "face_average", "fields.face_average")
    wrap(scheme, "solve_nonsymmetric", "linalg.bicgstab", _iterations)
    wrap(scheme, "solve_gmres", "linalg.gmres", _iterations)
    wrap(projection, "solve_spd", "linalg.cg", _iterations)
    wrap(macstag.Operators, "__init__", "operators.init")
    wrap(macstag.Operators, "convection_blocks", "operators.convection_blocks")
    wrap(macstag.Projector, "__init__", "projection.init")
    wrap(macstag.Projector, "poisson_solve", "projection.poisson_solve", _poisson_iterations)
    cls = macstag.ProjectionScheme
    wrap(cls, "__init__", "scheme.init")
    wrap(cls, "initialize", "scheme.initialize")
    wrap(cls, "prediction", "scheme.prediction")
    wrap(cls, "correction", "scheme.correction")
    wrap(cls, "step", "scheme.step")
    wrap(cls, "run", "scheme.run", _trajectory_bytes)
    wrap(cli, "convergence_study", "verify.convergence_study")
    for writer in ("write_diagnostics_csv", "write_fields_csv", "write_vtk", "write_study_csv"):
        wrap(output, writer, "output." + writer)
    wrap(output, "write_text", "output.write_text", _written_bytes)


def _per_step(spans, name, n_steps, attr="duration", scale=1e3):
    total = sum(getattr(s, attr) for s in spans if s.name == name)
    return scale * total / n_steps


def _count_per_step(spans, name, key, n_steps):
    return sum(s.counts.get(key, 0) for s in spans if s.name == name) / n_steps


def summarize(tracer):
    """Per-layer numbers of the run phase, and the counts of each episode."""
    spans = [s for s in tracer.spans if s.phase == "run"]
    setup = [s for s in tracer.spans if s.phase == "setup"]
    steps = [s for s in spans if s.name == "scheme.step"]
    n_steps = max(len(steps), 1)
    in_step = [s for s in spans if s.step is not None]
    episodes = sorted({s.episode for s in spans})
    n_episodes = max(len(episodes), 1)

    def setup_s(name):
        return sum(s.duration for s in setup if s.name == name)

    bicg = [s for s in spans if s.name == "linalg.bicgstab"]
    step_total = sum(s.duration for s in steps) or float("nan")
    face = sum(s.duration for s in in_step if s.name == "fields.face_average")
    solvers = ("linalg.bicgstab", "linalg.gmres", "projection.poisson_solve")
    krylov = sum(s.duration for s in in_step if s.name in solvers)
    writes = [s for s in spans if s.name.startswith("output.")]
    outer_writes = [s for s in writes if not (s.parent and s.parent.name.startswith("output."))]
    error_eval = [s for s in spans if s.name in ("verify.convergence_study", "verify.error_eval")]
    trajectories = [s.counts.get("trajectory_bytes", 0) for s in spans if s.name == "scheme.run"]

    self_sums = {}  # step span id -> sum of the self times of every span in that step
    for s in in_step:
        self_sums[s.step.id] = self_sums.get(s.step.id, 0.0) + s.self_time

    layer = {
        "mms.build_s": setup_s("mms.build"),
        "mms.forcing_points_per_step": sum(s.counts.get("forcing_points", 0) for s in in_step) / n_steps,
        "fields.face_average_ms_per_step": _per_step(in_step, "fields.face_average", n_steps),
        "grid.build_s": setup_s("grid.build"),
        "operators.init_s": setup_s("operators.init"),
        "projection.init_s": setup_s("projection.init"),
        "scheme.initialize_s": setup_s("scheme.initialize"),
        "operators.convection_blocks_ms_per_step": _per_step(in_step, "operators.convection_blocks", n_steps),
        "operators.convection_blocks_calls_per_step": sum(
            1 for s in in_step if s.name == "operators.convection_blocks"
        )
        / n_steps,
        "linalg.bicgstab_ms_per_step": _per_step(in_step, "linalg.bicgstab", n_steps),
        "linalg.bicgstab_iters_per_step": _count_per_step(in_step, "linalg.bicgstab", "iters", n_steps),
        "linalg.cg_ms_per_step": _per_step(in_step, "linalg.cg", n_steps),
        "linalg.cg_iters_per_step": _count_per_step(in_step, "linalg.cg", "iters", n_steps),
        "linalg.gmres_fallbacks": sum(1 for s in spans if s.name == "linalg.gmres"),
        "linalg.bicgstab_success_ratio": sum(s.ok for s in bicg) / len(bicg) if bicg else 1.0,
        "projection.poisson_solve_ms_per_step": _per_step(in_step, "projection.poisson_solve", n_steps),
        "projection.poisson_solve_iters_per_step": _count_per_step(
            in_step, "projection.poisson_solve", "iters", n_steps
        ),
        "scheme.prediction_self_ms_per_step": _per_step(in_step, "scheme.prediction", n_steps, "self_time"),
        "scheme.correction_self_ms_per_step": _per_step(in_step, "scheme.correction", n_steps, "self_time"),
        "scheme.step_self_ms_per_step": _per_step(in_step, "scheme.step", n_steps, "self_time"),
        "scheme.trajectory_mb": max(trajectories, default=0) / 2**20,
        "verify.error_eval_s": sum(s.self_time for s in error_eval) / n_episodes,
        "output.write_s": sum(s.duration for s in outer_writes) / n_episodes,
        "output.bytes": sum(s.counts.get("bytes", 0) for s in writes) / n_episodes,
        "share.krylov": krylov / step_total,
        "share.face_average": face / step_total,
        "trace.self_sum_ms_per_step": 1e3 * statistics.median(self_sums.values()) if self_sums else 0.0,
    }

    # counts that must repeat exactly from one episode to the next
    per_episode = []
    for ep in episodes:
        mine = [s for s in in_step if s.episode == ep]
        per_episode.append(
            {
                "steps": sum(1 for s in mine if s.name == "scheme.step"),
                "bicgstab_iters": sum(s.counts.get("iters", 0) for s in mine if s.name == "linalg.bicgstab"),
                "cg_iters": sum(s.counts.get("iters", 0) for s in mine if s.name == "linalg.cg"),
                "convection_builds": sum(1 for s in mine if s.name == "operators.convection_blocks"),
                "forcing_points": sum(s.counts.get("forcing_points", 0) for s in mine),
            }
        )
    return layer, per_episode
