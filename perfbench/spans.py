"""Spans around the calls into each wrkit layer, and per-layer sums.

The traced run replaces the layer entry points where the drivers look
them up (the names imported into ``wrkit.methods.workspace``,
``wrkit.methods.dnwr`` and ``wrkit.harness.run``) with wrappers that record
a span per call: name, start, end, parent span and replay id. Spans stay
in memory until the benchmark writes them out at the end. Nothing in
the program itself changes.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext

import wrkit.harness.run
import wrkit.methods.dnwr
import wrkit.methods.workspace

_NAME, _START, _END, _PARENT, _REPLAY, _SHAPE = range(6)


def _flux_name(args) -> str:
    return "strip.flux" if args[0].is_2d else "wave.flux"


# (module, attribute, span name or a function of the call's arguments);
# spans named "<kernel>.solve" also keep the shape of the returned field
_ENTRY_POINTS = (
    (wrkit.methods.workspace, "solve_heat_subdomain", "heat.solve"),
    (wrkit.methods.workspace, "solve_wave_subdomain", "wave.solve"),
    (wrkit.methods.workspace, "solve_wave_strip_2d", "strip.solve"),
    (wrkit.methods.workspace, "heat_interface_flux", "heat.flux"),
    (wrkit.methods.workspace, "wave_interface_flux", _flux_name),
    (wrkit.methods.workspace, "build_plan", "proj.plan"),
    (wrkit.methods.workspace, "project_trace", "proj.apply"),
    (wrkit.methods.workspace, "solve_monodomain", "mono"),
    (wrkit.methods.dnwr, "relax_update", "relax"),
    (wrkit.harness.run, "heat_bound_equal", "bounds"),
)


class Tracer:
    """Collects spans; ``replay`` tags the spans of the current replay."""

    def __init__(self):
        self.spans: list[list] = []
        self.replay = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.replay, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[_END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def wrap(self, fn, name):
        def traced(*args, **kwargs):
            record = self._open(name if isinstance(name, str) else name(args))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if record[_NAME].endswith(".solve"):
                record[_SHAPE] = result.values.shape
            return result

        return traced

    @contextmanager
    def installed(self):
        """Route the layer entry points through spans while inside."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in _ENTRY_POINTS]
        try:
            for (module, attr, name), (_, _, fn) in zip(_ENTRY_POINTS, saved):
                setattr(module, attr, self.wrap(fn, name))
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


def no_span(name: str):
    """Stand-in for :meth:`Tracer.span` in untraced replays."""
    return nullcontext()


def replay_layers(spans: list[list], replay: int) -> dict[str, float]:
    """Counts, self times and work of one replay's spans, by span name.

    A span's self time is its duration minus the durations of its direct
    children. Keys: ``<name>.calls``, ``<name>.self_s``, and for solves
    ``<name>.steps`` and ``<name>.node_steps`` (time steps marched, and
    grid nodes times steps). ``layers_in_solve_s`` sums the self times of
    the wrapped layer calls inside the driver spans, leaving out the
    drivers' own time.
    """
    mine = [(i, s) for i, s in enumerate(spans) if s[_REPLAY] == replay]
    child_time: dict[int, float] = {}
    in_driver: set[int] = set()
    for i, s in mine:
        parent = s[_PARENT]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + s[_END] - s[_START]
            # a parent is opened, so recorded, before its children
            if parent in in_driver or spans[parent][_NAME].startswith("driver."):
                in_driver.add(i)
    out: dict[str, float] = {"layers_in_solve_s": 0.0}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for i, s in mine:
        name = s[_NAME]
        add(f"{name}.calls", 1)
        self_s = s[_END] - s[_START] - child_time.get(i, 0.0)
        add(f"{name}.self_s", self_s)
        if i in in_driver:
            add("layers_in_solve_s", self_s)
        shape = s[_SHAPE]
        if shape is not None:
            nodes = 1
            for n in shape[1:]:
                nodes *= n
            add(f"{name}.steps", shape[0] - 1)
            add(f"{name}.node_steps", (shape[0] - 1) * nodes)
    return out


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _replay_metrics(r: dict[str, float], sweeps: dict[str, int]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced replay, from its :func:`replay_layers`."""

    def get(key):
        return r.get(key, 0.0)

    out = {}
    for layer in ("heat", "wave", "strip"):
        solve_s = get(f"{layer}.solve.self_s")
        out[f"{layer}.solve_calls"] = (get(f"{layer}.solve.calls"), "count")
        out[f"{layer}.solve_s"] = (solve_s, "s")
        out[f"{layer}.step_us"] = (1e6 * _ratio(solve_s, get(f"{layer}.solve.steps")), "us")
        if layer == "strip":
            out["strip.node_updates_per_s"] = (_ratio(get("strip.solve.node_steps"), solve_s), "1/s")
        out[f"{layer}.flux_calls"] = (get(f"{layer}.flux.calls"), "count")
        out[f"{layer}.flux_s"] = (get(f"{layer}.flux.self_s"), "s")
    out["mono.calls"] = (get("mono.calls"), "count")
    out["mono.s"] = (get("mono.self_s"), "s")
    plans, applies = get("proj.plan.calls"), get("proj.apply.calls")
    out["proj.plan_calls"] = (plans, "count")
    out["proj.plan_s"] = (get("proj.plan.self_s"), "s")
    out["proj.apply_calls"] = (applies, "count")
    out["proj.apply_s"] = (get("proj.apply.self_s"), "s")
    out["proj.plan_reuse"] = (1.0 - plans / applies if applies else 0.0, "ratio")
    out["relax.calls"] = (get("relax.calls"), "count")
    out["relax.s"] = (get("relax.self_s"), "s")
    methods = ("dnwr", "nnwr", "swr_classical")
    out["driver.self_s"] = (sum(get(f"driver.{m}.self_s") for m in methods), "s")
    solves = sum(get(f"{layer}.solve.calls") for layer in ("heat", "wave", "strip"))
    out["driver.solves_per_sweep"] = (_ratio(solves, sum(sweeps.values())), "solves/sweep")
    for m in methods:
        out[f"sweeps.{m}"] = (sweeps.get(m, 0), "count")
    out["bounds.calls"] = (get("bounds.calls"), "count")
    out["bounds.s"] = (get("bounds.self_s"), "s")
    out["harness.setup_s"] = (get("harness.setup.self_s"), "s")
    return out


def layer_metrics(per_replay: list[dict], sweeps: list[dict], traced_wall: list[float],
                  untraced_wall: list[float], untraced_solve: list[float]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics: medians over traced replays, with units.

    ``per_replay`` holds :func:`replay_layers` of each traced replay and
    ``sweeps`` its sweep count per method. The wall and solve lists come
    from the interleaved traced and untraced replays; they give the
    tracing overhead and by how much the layers' self times inside the
    drivers miss the untraced solve time. That gap is the drivers' own
    time plus the tracing overhead; a layer entry point the tracer
    misses would widen it.
    """
    med = statistics.median
    rows = [_replay_metrics(r, w) for r, w in zip(per_replay, sweeps)]
    out = {key: (med(row[key][0] for row in rows), unit) for key, (_, unit) in rows[0].items()}
    out["trace.overhead"] = (med(traced_wall) / med(untraced_wall), "ratio")
    # How far the layer self times miss the untraced solve time, either way
    out["trace.unaccounted_frac"] = (
        abs(1.0 - med(r["layers_in_solve_s"] for r in per_replay) / med(untraced_solve)),
        "ratio",
    )
    return out
