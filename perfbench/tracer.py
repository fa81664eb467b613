"""Per-layer tracing from outside the program.

The tracer wraps oplab's public functions in every oplab module namespace
that binds them (several modules import graph and quantale functions by
name), and counts constructions through ``__post_init__``. Nothing in
``src/`` changes. Suite calls and cases become spans; the hot primitives are
only aggregated per (parent, name), because one record per call would dwarf
the program's own memory.
"""
from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# module -> [(public name, stats)]; each becomes "<module>.<name>.<stat>".
#   calls        exact call count
#   s            inclusive seconds (outermost activation of the name only)
#   self_s       seconds minus the time spent in wrapped children
#   failed       validator reported not-ok, or the call raised
#   returned     total length of the returned lists
#   constructed  times the class's __post_init__ ran
LAYERS = {
    "graphs": [
        ("check_operad_axioms", ("s", "self_s")),
        ("enumerate_graph_morphisms", ("calls", "s", "returned")),
        ("validate_morphism", ("calls", "s", "failed")),
        ("compose_graph_morphisms", ("calls", "s")),
        ("GraphMorphism", ("constructed",)),
        ("Graph", ("constructed",)),
        ("pairing_inert", ("calls", "s")),
        ("enumerate_inert_from", ("calls", "s", "returned")),
    ],
    "simplex": [
        ("check_approximation", ("s", "self_s")),
        ("cut_morphism", ("calls", "s")),
        ("compose_delta", ("calls", "s")),
        ("DeltaOpMorphism", ("constructed",)),
        ("enumerate_delta_morphisms", ("calls", "s")),
        ("cartesian_lift", ("calls", "s", "failed")),
        ("lcut_morphism", ("calls", "s")),
    ],
    "quantale": [
        ("join", ("calls", "s")),
        ("module_join", ("calls", "s")),
        ("module_meet", ("calls", "s")),
    ],
    "presheaf": [
        ("check_duality_bijection", ("s", "self_s")),
        ("presheaf_lattice", ("calls", "s")),
        ("enumerate_modulemaps", ("calls", "s", "returned")),
        ("validate_modulemap", ("calls", "s", "failed")),
        ("enumerate_presheaves", ("calls", "s", "returned")),
        ("validate_presheaf", ("calls", "s", "failed")),
        ("join_presheaves", ("calls", "s")),
    ],
    "enriched": [
        ("enumerate_categories", ("calls", "s")),
        ("is_enriched_functor", ("calls", "s")),
    ],
    "pointed": [
        ("PointedMap", ("constructed",)),
    ],
    "io": [
        ("load", ("calls", "s")),
    ],
    "cli": [
        ("parse_and_dispatch", ("calls", "s", "self_s")),
        ("emit_report", ("calls", "s")),
    ],
}

# "io.load" sums over every loader.
IO_LOADERS = (
    "load_graph",
    "load_morphism",
    "load_simplex",
    "load_quantale",
    "load_module",
    "load_category",
    "load_presheaf",
    "load_copresheaf",
)

# Suite entry points: each call is recorded as a span.
SUITES = {
    "graphs.check_operad_axioms",
    "simplex.check_approximation",
    "presheaf.check_duality_bijection",
    "cli.parse_and_dispatch",
}

# Validators whose (calls - failed) / calls is reported as ok_ratio (0 when not called).
VALIDATORS = ("graphs.validate_morphism", "presheaf.validate_presheaf", "presheaf.validate_modulemap")

# The primitives whose mean microseconds per call is reported (0 when not
# called); the quantale one pools join and module_join.
PRIMITIVES = {
    "graphs.validate_morphism": ("graphs.validate_morphism",),
    "graphs.compose_graph_morphisms": ("graphs.compose_graph_morphisms",),
    "simplex.cut_morphism": ("simplex.cut_morphism",),
    "quantale.joins": ("quantale.join", "quantale.module_join"),
}

UNITS = {
    "calls": "count",
    "s": "s",
    "self_s": "s",
    "failed": "count",
    "returned": "count",
    "constructed": "count",
}


class MetricLost(Exception):
    """A public name the benchmark measures no longer exists."""


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit, in order."""
    out = {}
    for module, entries in LAYERS.items():
        for name, stats in entries:
            for stat in stats:
                out[f"{module}.{name}.{stat}"] = UNITS[stat]
    for key in VALIDATORS:
        out[f"{key}.ok_ratio"] = "ratio"
    for key in PRIMITIVES:
        out[f"{key}.us_per_call"] = "us"
    out["trace.decide_s"] = "s"
    out["trace.untraced_decide_s"] = "s"
    out["trace.overhead_s"] = "s"
    return out


def oplab_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n == "oplab" or n.startswith("oplab.")]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every oplab binding of ``original`` at ``replacement``; return the undo list."""
    undo = []
    for module in oplab_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


class Stats:
    __slots__ = ("calls", "s", "self_s", "failed", "returned", "constructed", "depth")

    def __init__(self):
        self.calls = self.failed = self.returned = self.constructed = self.depth = 0
        self.s = self.self_s = 0.0


class Tracer:
    """Counters, aggregates and spans for one traced stretch of work, kept in memory."""

    def __init__(self):
        self.stats: dict[str, Stats] = {}
        self.aggregate: dict[tuple[str, str], list] = {}  # (parent, name) -> [calls, s, self_s]
        self.spans: list[dict] = []
        self._stack: list[list] = []  # one [name, seconds in wrapped children] per active call
        self._case: str | None = None
        self._span_parent: int | None = None

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, case: str | None = None):
        outer_case, outer_parent = self._case, self._span_parent
        index = len(self.spans)
        record = {
            "name": name, "start": time.perf_counter(), "end": None, "parent": outer_parent, "case": case,
        }
        self.spans.append(record)
        self._case, self._span_parent = case, index
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._case, self._span_parent = outer_case, outer_parent

    # -- wrappers -----------------------------------------------------------

    def _timed(self, key: str, fn, check_ok: bool, count_len: bool, suite: bool):
        st = self.stats.setdefault(key, Stats())
        stack = self._stack
        aggregate = self.aggregate
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            st.depth += 1
            span = None
            if suite:
                span = {
                    "name": key, "start": 0.0, "end": None, "parent": self._span_parent, "case": self._case,
                }
                self._span_parent = len(self.spans)
                self.spans.append(span)
            failed = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = check_ok and not out.ok
                if count_len:
                    st.returned += len(out)
                return out
            finally:
                dt = clock() - t0
                stack.pop()
                st.depth -= 1
                st.calls += 1
                st.failed += failed
                own = dt - frame[1]
                st.self_s += own
                if not st.depth:
                    st.s += dt
                if parent is not None:
                    parent[1] += dt
                row = aggregate.setdefault((parent[0] if parent else "<case>", key), [0, 0.0, 0.0])
                row[0] += 1
                row[1] += dt
                row[2] += own
                if span is not None:
                    span["start"], span["end"] = t0, t0 + dt
                    self._span_parent = span["parent"]

        return wrapper

    def _counted(self, key: str, post_init):
        st = self.stats.setdefault(key, Stats())

        def wrapper(obj):
            st.constructed += 1
            return post_init(obj)

        return wrapper

    @contextmanager
    def installed(self, api):
        """Wrap every measured name of ``api`` for the duration of the block."""
        undo: list[tuple[object, str, object]] = []
        try:
            for module_name, entries in LAYERS.items():
                module = getattr(api, module_name)
                for name, stats in entries:
                    key = f"{module_name}.{name}"
                    for target in IO_LOADERS if key == "io.load" else (name,):
                        try:
                            obj = getattr(module, target)
                        except AttributeError:
                            raise MetricLost(f"oplab.{module_name}.{target} no longer exists") from None
                        if "constructed" in stats:
                            post_init = obj.__dict__.get("__post_init__")
                            if post_init is None:
                                raise MetricLost(f"oplab.{module_name}.{target} has no __post_init__")
                            setattr(obj, "__post_init__", self._counted(key, post_init))
                            undo.append((obj, "__post_init__", post_init))
                        else:
                            check_ok = "failed" in stats and name.startswith("validate_")
                            wrapper = self._timed(key, obj, check_ok, "returned" in stats, key in SUITES)
                            undo.extend(rebind(obj, wrapper))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


def raw_stats(tracer: Tracer) -> dict[str, float]:
    """The measured stats of one traced stretch, by metric name."""
    out = {}
    for module, entries in LAYERS.items():
        for name, stats in entries:
            key = f"{module}.{name}"
            st = tracer.stats.get(key, Stats())
            for stat in stats:
                out[f"{key}.{stat}"] = getattr(st, stat)
    return out


def derived(values: dict[str, float]) -> dict[str, float]:
    """ok_ratio of each validator and mean microseconds per call of each primitive."""
    out = {}
    for key in VALIDATORS:
        calls, failed = values[f"{key}.calls"], values[f"{key}.failed"]
        out[f"{key}.ok_ratio"] = (calls - failed) / calls if calls else 0.0
    for label, keys in PRIMITIVES.items():
        calls = sum(values[f"{k}.calls"] for k in keys)
        seconds = sum(values[f"{k}.s"] for k in keys)
        out[f"{label}.us_per_call"] = 1e6 * seconds / calls if calls else 0.0
    return out
