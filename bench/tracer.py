"""Spans and counters recorded from outside the program.

The benchmark never edits ``gaussfilt``: it replaces public functions in the
module namespaces where callers look them up, and puts every original back
afterwards.  ``from ... import name`` copies a binding, so a function is
replaced in every ``gaussfilt`` module that binds it (``time_update_points``
in ``gaussfilt.filters`` as well as ``gaussfilt.updates``).

``TrajectoryLog`` hooks only ``run_filter``, once per trajectory, and is all
an untraced run installs besides the calibration clock: it yields the
completed-step and abort counts.
``Tracer`` adds a span around every layer boundary listed in ``LAYERS``.
"""

import dataclasses
import sys
import time
from collections import Counter, defaultdict
from typing import NamedTuple

# (defining module, attribute, span name).  A dotted attribute names a method
# looked up on a class; a plain one a function bound in module namespaces.
LAYERS = (
    ("gaussfilt.updates", "time_update_linear", "updates.time_update_linear"),
    ("gaussfilt.updates", "time_update_points", "updates.time_update_points"),
    ("gaussfilt.updates", "measurement_update_linear", "updates.measurement_update_linear"),
    ("gaussfilt.updates", "measurement_update_points", "updates.measurement_update_points"),
    ("gaussfilt.updates", "measurement_update_variational", "updates.measurement_update_variational"),
    ("gaussfilt.updates", "bfgs_minimize", "updates.bfgs_minimize"),
    ("gaussfilt.models", "augment", "models.augment"),
    ("gaussfilt.models", "ProcessModel.full_jacobian", "models.full_jacobian"),
    ("gaussfilt.cubature", "standard_rule", "cubature.standard_rule"),
    ("gaussfilt.cubature", "transform", "cubature.transform"),
    ("gaussfilt.gaussian", "Gaussian.__post_init__", "gaussian.Gaussian"),
    ("gaussfilt.gaussian", "cholesky_factor", "gaussian.cholesky_factor"),
    ("gaussfilt.gaussian", "repair_covariance", "gaussian.repair_covariance"),
    ("gaussfilt.testbeds", "simulate_truth", "testbeds.simulate_truth"),
)


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return shape[0] if len(shape) == 2 else 1


class Patcher:
    """Replaces attributes and restores the originals on ``restore``."""

    def __init__(self):
        self.patched = []  # (owner, attribute, original)

    def patch(self, owner, attr, replacement):
        self.patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, module_name, attr, make):
        """Replace the function ``module_name.attr`` (or ``Class.method``) in
        every loaded gaussfilt namespace that binds it; ``make(original)``
        builds the replacement."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[module_name], cls_name)
            self.patch(owner, meth, make(vars(owner)[meth]))
            return
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        for name, mod in sorted(sys.modules.items()):
            if (name == "gaussfilt" or name.startswith("gaussfilt.")) and vars(mod).get(attr) is original:
                self.patch(mod, attr, replacement)

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


class Trajectory(NamedTuple):
    label: str
    steps: int  # completed steps
    error: str | None  # message of the error that aborted it
    seconds: float  # wall time of the run_filter call


class TrajectoryLog(Patcher):
    """Records a Trajectory per run_filter call."""

    def __init__(self):
        super().__init__()
        self.trajectories = []

    def install(self):
        self.patch_everywhere("gaussfilt.filters", "run_filter", self._wrap_run_filter)
        return self

    def _run_filter_body(self, original, kind, args, kwargs):
        return original(kind, *args, **kwargs)

    def _wrap_run_filter(self, original):
        log = self

        def run_filter(kind, *args, **kwargs):
            start = time.perf_counter()
            traj = log._run_filter_body(original, kind, args, kwargs)
            seconds = time.perf_counter() - start
            error = None if traj.error is None else str(traj.error)
            log.trajectories.append(Trajectory(kind.label(), len(traj.records) - 1, error, seconds))
            return traj

        return run_filter


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    trajectory: int  # run_filter call index, -1 outside a trajectory


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(
            (max(spans[c].start, s.start), min(spans[c].end, s.end)) for c in children[i]
        ):
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


class Tracer(TrajectoryLog):
    """Spans at every layer boundary in LAYERS plus machine-independent counts.

    Spans stay in memory (``spans``) until ``write_spans``; ``counts`` holds
    model rows, cubature points and BFGS iterations.
    """

    def __init__(self):
        super().__init__()
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._trajectory = -1

    def install(self):
        super().install()
        for module_name, attr, name in LAYERS:
            self.patch_everywhere(module_name, attr, lambda fn, n=name: self.wrap(n, fn))
        self.patch_everywhere("gaussfilt.harness", "ExperimentConfig.build_models", self._wrap_build_models)
        return self

    def wrap(self, name, fn):
        """``fn`` with a span named ``name`` around each call."""
        tracer = self

        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else -1, tracer._trajectory)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            tracer._count(name, args, out)
            return out

        return traced

    def _count(self, name, args, out):
        if name in ("models.propagate", "models.observe"):
            self.counts[name + ".rows"] += _rows(args[1])
        elif name == "cubature.standard_rule":
            self.counts["cubature.standard_rule.points"] += out.size
        elif name == "updates.bfgs_minimize":
            self.counts["updates.bfgs_minimize.iterations"] += out[1]

    def _run_filter_body(self, original, kind, args, kwargs):
        self._trajectory = len(self.trajectories)
        try:
            return self.wrap("filters.run_filter", original)(kind, *args, **kwargs)
        finally:
            self._trajectory = -1

    def _wrap_build_models(self, original):
        traced = self.wrap("harness.build_models", original)
        tracer = self

        def build_models(config):
            # Model evaluations are counted on the models the harness gets.
            process, obs, prior, dt_obs = traced(config)
            process = dataclasses.replace(
                process, propagate=tracer.wrap("models.propagate", process.propagate)
            )
            obs = dataclasses.replace(obs, observe=tracer.wrap("models.observe", obs.observe))
            return process, obs, prior, dt_obs

        return build_models

    def layer_stats(self) -> dict:
        """Per span name: calls, total ms and self ms."""
        stats = defaultdict(lambda: {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        for span, own in zip(self.spans, self_times(self.spans)):
            entry = stats[span.name]
            entry["calls"] += 1
            entry["ms"] += 1e3 * (span.end - span.start)
            entry["self_ms"] += 1e3 * own
        return stats

    def write_spans(self, path):
        """One CSV row per span; times in microseconds from the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,name,start_us,end_us,parent,trajectory\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s.name},{1e6 * (s.start - t0):.3f},{1e6 * (s.end - t0):.3f},"
                    f"{s.parent},{s.trajectory}\n"
                )


def _gaussfilt_namespaces():
    for name, mod in list(sys.modules.items()):
        if name == "gaussfilt" or name.startswith("gaussfilt."):
            yield name, vars(mod)
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == name:
                    yield f"{name}.{value.__name__}", vars(value)


def namespace_snapshot() -> dict:
    """Every attribute of the loaded gaussfilt modules and their classes."""
    return {(owner, k): v for owner, ns in _gaussfilt_namespaces() for k, v in list(ns.items())}


def restored(snapshot: dict) -> bool:
    """True when every attribute in ``snapshot`` is bound to the same object again."""
    now = namespace_snapshot()
    return all(now.get(key) is value for key, value in snapshot.items())
