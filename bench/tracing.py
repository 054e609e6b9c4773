"""Span recorder for the benchmark, and the layer wrappers of the traced run.

A repetition records one *phase span* around every call the workload makes
into the library (``setup``, ``solve``, ``reserve``, ``evaluate``).  That is
all the untraced run records.  The traced run additionally replaces the
module attributes listed in ``TARGETS`` by wrappers that record a child span
per call, then restores the original objects.  Wrapping the attribute the
calling code looks up (``optimizer.solve_lp``, not ``lp.solve_lp``) is what
makes the spans land under the layer that caused them.

Every span has a name, a start, an end, the index of its parent span and the
phase of its top-level ancestor; self time is the span's duration minus the
durations of its direct children (spans nest, they never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass

PHASES = ("setup", "solve", "reserve", "evaluate")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 for a phase span
    phase: str
    extra: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory spans of one repetition."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        phase = self.spans[parent].phase if parent >= 0 else name
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, phase))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """Time one library call of the workload; yields the span."""
        if self._stack:
            raise RuntimeError(f"phase {name!r} opened inside another span")
        idx = self._open(name)
        try:
            yield self.spans[idx]
        finally:
            self._close(idx)

    def phase_seconds(self) -> dict[str, float]:
        """Summed duration of the phase spans, per phase."""
        out = dict.fromkeys(PHASES, 0.0)
        for s in self.spans:
            if s.parent < 0:
                out[s.name] += s.duration
        return out

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def dump(self) -> list[list]:
        """Spans as ``[name, phase, parent, start, end, self_s]`` rows."""
        return [[s.name, s.phase, s.parent, s.start, s.end, own]
                for s, own in zip(self.spans, self.self_times())]

    def self_seconds(self) -> dict[str, float]:
        """Summed self time per ``phase/span name``."""
        out: dict[str, float] = {}
        for s, own in zip(self.spans, self.self_times()):
            key = f"{s.phase}/{s.name}"
            out[key] = out.get(key, 0.0) + own
        return out


# ---------------------------------------------------------------------------
# Wrap targets


def _units(args, kwargs, result):
    return {"units": len(result.units)}


def _samples(fn):
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"samples": int(bound.arguments["n"])}
    return extra


def _draws(fn):
    sig = inspect.signature(fn)

    def extra(args, kwargs, result):
        return {"draws": int(sig.bind(*args, **kwargs).arguments["m"])}
    return extra


def _lp_shape(args, kwargs, result):
    c = args[0] if args else kwargs["c"]
    rows = nnz = 0
    for key in ("A_ub", "A_eq"):
        mat = kwargs.get(key)
        if mat is not None:
            rows += mat.shape[0]
            nnz += mat.nnz
    return {"rows": rows, "cols": len(c), "nnz": nnz,
            "nit": int(getattr(result, "nit", 0)), "nonoptimal": int(result.status != 0)}


#: (span name, module, attribute, factory of the per-call extra recorder)
TARGETS = (
    ("scenario_io.load", "scenario_io", "load_scenario", lambda fn: _units),
    ("diu.propagate", "scenario_io", "propagate_diu", _samples),
    ("diu.fast_path", "diu", "tcl_baseline_bound_samples", None),
    ("diu.fast_path", "reliability", "tcl_baseline_bound_samples", None),
    ("ges.map", "scenario_io", "map_device_to_ges", None),
    ("ges.map", "diu", "map_device_to_ges", None),
    ("ges.map", "reliability", "map_device_to_ges", None),
    ("optimizer.build", "optimizer", "build_cco_ddu", None),
    ("optimizer.build", "optimizer", "build_cco_diu", None),
    ("optimizer.build", "reserve", "build_cco_ddu", None),
    ("ddu.h_quantile", "optimizer", "standardized_h_quantile", None),
    ("ddu.contraction", "reliability", "contraction_quantile_vec", None),
    ("lp.solve", "optimizer", "solve_lp", None),
    ("lp.highs", "lp", "linprog", lambda fn: _lp_shape),
    ("reliability.realize", "reliability", "realize_unit", _draws),
)


def _wrap(rec: Recorder, name: str, fn, extra):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec._close(idx)
        if extra is not None:
            rec.spans[idx].extra = extra(args, kwargs, result)
        return result
    return wrapper


@contextmanager
def traced(rec: Recorder, targets=TARGETS):
    """Install the layer wrappers for the duration of the block.

    Yields ``(present, missing)``: the span names that have at least one
    installed target, and the ``module.attribute`` targets that no longer
    exist.  A missing target is skipped; a metric that reads a span with no
    installed target is reported as absent.
    """
    installed: list[tuple[object, str, object]] = []
    present: set[str] = set()
    missing: list[str] = []
    try:
        for name, mod_name, attr, factory in targets:
            module = importlib.import_module(f"gesdispatch.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            installed.append((module, attr, fn))
            setattr(module, attr, _wrap(rec, name, fn, factory(fn) if factory else None))
            present.add(name)
        yield present, missing
    finally:
        for module, attr, fn in reversed(installed):
            setattr(module, attr, fn)


# ---------------------------------------------------------------------------
# Per-layer metrics


def _minus(value, *parts):
    """``value - sum(parts)``, or None when any operand is absent."""
    if value is None or None in parts:
        return None
    return value - sum(parts)


def layer_metrics(rec: Recorder, present: set[str]) -> dict[str, float | None]:
    """Every `<phase>.<layer>.<metric>`; None where a span it reads has no
    installed wrap target."""
    known = present | set(PHASES)
    calls: dict[tuple[str, str], int] = {}
    secs: dict[tuple[str, str], float] = {}
    extras: dict[tuple[str, str], list[dict]] = {}
    for s in rec.spans:
        key = (s.phase, s.name)
        calls[key] = calls.get(key, 0) + 1
        secs[key] = secs.get(key, 0.0) + s.duration
        if s.extra:
            extras.setdefault(key, []).append(s.extra)

    out: dict[str, float | None] = {}
    for phase in PHASES:
        # each helper reads the spans of one name in this phase
        def n(name):
            return calls.get((phase, name), 0) if name in known else None

        def t(name):
            return secs.get((phase, name), 0.0) if name in known else None

        def total(name, field):
            if name not in known:
                return None
            return sum(e.get(field, 0) for e in extras.get((phase, name), []))

        def largest(name, field):
            if name not in known:
                return None
            return max((e[field] for e in extras.get((phase, name), [])), default=0)

        builds = n("optimizer.build")
        values = {
            "scenario_io.load_s": t("scenario_io.load"),
            "scenario_io.parse_s": _minus(t("scenario_io.load"), t("diu.propagate")),
            "scenario_io.units": total("scenario_io.load", "units"),
            "diu.propagate_s": t("diu.propagate"),
            "diu.propagate_calls": n("diu.propagate"),
            "diu.samples": total("diu.propagate", "samples"),
            "diu.fast_path_calls": n("diu.fast_path"),
            "ges.map_calls": n("ges.map"),
            "ges.map_s": t("ges.map"),
            "optimizer.build_calls": builds,
            "optimizer.build_s": t("optimizer.build"),
            "optimizer.builds_per_solve": None if builds is None else builds / max(n(phase), 1),
            "optimizer.other_s": _minus(t(phase), t("optimizer.build"), t("lp.solve")),
            "optimizer.r2_iterations": total(phase, "r2_iterations"),
            "ddu.h_quantile_calls": n("ddu.h_quantile"),
            "ddu.h_quantile_s": t("ddu.h_quantile"),
            "ddu.contraction_calls": n("ddu.contraction"),
            "ddu.contraction_s": t("ddu.contraction"),
            "lp.calls": n("lp.solve"),
            "lp.solve_s": t("lp.solve"),
            "lp.highs_s": t("lp.highs"),
            "lp.stack_s": _minus(t("lp.solve"), t("lp.highs")),
            "lp.rows": largest("lp.highs", "rows"),
            "lp.cols": largest("lp.highs", "cols"),
            "lp.nnz": largest("lp.highs", "nnz"),
            "lp.highs_iters": total("lp.highs", "nit"),
            "lp.nonoptimal": total("lp.highs", "nonoptimal"),
            "reliability.realize_calls": n("reliability.realize"),
            "reliability.realize_s": t("reliability.realize"),
            "reliability.score_s": _minus(t(phase), t("reliability.realize")),
            "reliability.unit_draws": total("reliability.realize", "draws"),
            "reliability.crossings": total(phase, "crossings"),
        }
        out.update((f"{phase}.{metric}", value) for metric, value in values.items())
    return out
