"""In-memory spans around gifsdim's public functions, and the layer metrics
computed from them.

Functions are wrapped where their caller looks them up, because gifsdim
imports names by value: `truncation_ladder` is patched inside
`gifsdim.dimension`, `build_weighted_matrix` inside `gifsdim.pressure`, and
so on.  Every span keeps its parent's index, so a layer's self time is its
duration minus the durations of its direct children.  `subsystem` and the
two hottest geometry helpers in `gifsdim.maps` are counted, not timed.  The
maps counters cost about 15% of a geometry-bound solve, so they are installed
on their own, in a repetition that has no timed spans.
"""

import statistics
import time
from collections import Counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Records spans and counts while installed; restore() puts every
    patched name back."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []
        self._patched = []

    def wrap(self, name, fn, describe=None):
        """fn wrapped in a span; describe(args, kwargs, result) -> attrs."""
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def patch(self, module, attr, make):
        """Replace module.attr by make(original); a name the package no
        longer has is left alone and its layer reads zero."""
        original = getattr(module, attr, None)
        if original is None:
            return None
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))
        return getattr(module, attr)

    def restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        own = [span.duration for span in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _describe_geometry(args, kwargs, wm):
    system, potential, k = args[0], args[1], args[2]
    m = _arg(args, kwargs, 3, "m", 1)
    key = (system.name, tuple(system.letters(k)), m, potential.selector)
    return {"states": len(wm.states), "nnz": int(wm.sup_weights.nnz), "key": key}


def _describe_scc(args, kwargs, dec):
    return {"nodes": dec.horizon}


def _describe_spectral(args, kwargs, est):
    return {"stalled": bool(est.stalled)}


def _describe_ladder(args, kwargs, ests):
    return {"horizon": list(args[2])[-1], "depth": _arg(args, kwargs, 3, "depth", 1)}


def _describe_dimension(args, kwargs, res):
    return {"width": res.s_upper - res.s_lower, "evals": res.evals,
            "s_tol": kwargs.get("s_tol")}


def _describe_sweep(args, kwargs, records):
    return {"rows": len(records)}


CONDITION_CHECKS = ("validate_conditions", "check_separation", "summability_interval")


def install(tracer, gifsdim):
    """Patch the package's layer boundaries; returns the traced entry points
    the benchmark calls directly (bowen_dimension, truncation_ladder,
    dimension_sweep)."""
    dimension, pressure, perturb = gifsdim.dimension, gifsdim.pressure, gifsdim.perturb

    def timed(name, describe=None):
        return lambda fn: tracer.wrap(name, fn, describe)

    ladder = timed("truncation_ladder", _describe_ladder)
    ladder = (tracer.patch(dimension, "truncation_ladder", ladder)
              or ladder(gifsdim.truncation_ladder))
    for name in CONDITION_CHECKS:
        tracer.patch(dimension, name, timed(name))
    for name, describe in (
        ("build_weighted_matrix", _describe_geometry),
        ("pressure_spectral", _describe_spectral),
        ("pressure_scc_max", None),
        ("strongly_connected_components", _describe_scc),
    ):
        tracer.patch(pressure, name, timed(name, describe))
    # counted only: its time stays in pressure_scc_max's self time
    tracer.patch(pressure, "subsystem", lambda fn: tracer.count("subsystem", fn))
    solve = timed("bowen_dimension", _describe_dimension)
    solve = (tracer.patch(perturb, "bowen_dimension", solve)
             or solve(gifsdim.bowen_dimension))
    sweep = tracer.wrap("dimension_sweep", perturb.dimension_sweep, _describe_sweep)
    return {"bowen_dimension": solve, "truncation_ladder": ladder,
            "dimension_sweep": sweep}


MAPS_COUNTED = ("derivative_range_over_set", "image_enclosure")


def install_counters(tracer, gifsdim):
    """Count the maps helpers, and time nothing."""
    for name in MAPS_COUNTED:
        tracer.patch(gifsdim.maps, name, lambda fn, name=name: tracer.count(name, fn))


def count_metrics(tracer):
    """Exact maps call counts of one repetition under install_counters."""
    return {"maps.derivative_range_calls": tracer.counts["derivative_range_over_set"],
            "maps.image_enclosure_calls": tracer.counts["image_enclosure"]}


def layer_metrics(tracer, speed=1.0):
    """Per-layer numbers of one traced repetition, keyed by metric name.
    Times are multiplied by speed, the repetition's host-speed factor."""
    spans = tracer.spans
    own = [t * speed for t in tracer.self_times()]
    durations = [span.duration * speed for span in spans]
    by_name = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def total(name, values=None):
        src = values if values is not None else durations
        return sum(src[i] for i in by_name.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    def described(name):
        # a call that raised has no attributes; its time still counts
        return [i for i in by_name.get(name, ()) if spans[i].attrs is not None]

    out = {}

    solves = described("bowen_dimension")
    out["dimension.self_s"] = total("bowen_dimension", own)
    widest = None
    for i in solves:
        attrs = spans[i].attrs
        score = attrs["width"] / attrs["s_tol"]
        if widest is None or score > widest[0]:
            widest = (score, i)
    if widest is None:
        out.update({"dimension.evals": 0, "dimension.final_depth": 0,
                    "dimension.final_horizon": 0, "dimension.width_over_tol": 0.0})
    else:
        score, root = widest
        last = None
        for i in by_name.get("truncation_ladder", ()):
            if _descends(spans, i, root):
                last = spans[i].attrs
        out["dimension.evals"] = spans[root].attrs["evals"]
        out["dimension.final_depth"] = last["depth"] if last else 0
        out["dimension.final_horizon"] = last["horizon"] if last else 0
        out["dimension.width_over_tol"] = score

    geometry = [spans[i].attrs for i in described("build_weighted_matrix")]
    geometry_s = total("build_weighted_matrix")
    nnz_total = sum(a["nnz"] for a in geometry)
    out["pressure.geometry_s"] = geometry_s
    out["pressure.geometry_calls"] = len(geometry)
    out["pressure.states"] = max((a["states"] for a in geometry), default=0)
    out["pressure.nnz"] = max((a["nnz"] for a in geometry), default=0)
    out["pressure.geometry_us_per_nnz"] = ratio(1e6 * geometry_s, nnz_total)
    out["pressure.geometry_repeat_frac"] = (
        1.0 - ratio(len({a["key"] for a in geometry}), len(geometry))
        if geometry else 0.0
    )
    spectral = described("pressure_spectral")
    out["pressure.spectral_self_s"] = total("pressure_spectral", own)
    out["pressure.stalled_frac"] = ratio(
        sum(spans[i].attrs["stalled"] for i in spectral), len(spectral))
    out["pressure.scc_max_self_s"] = total("pressure_scc_max", own)
    out["pressure.tail_s"] = total("truncation_ladder", own)

    scc = described("strongly_connected_components")
    out["graphs.scc_s"] = total("strongly_connected_components")
    out["graphs.scc_calls"] = len(by_name.get("strongly_connected_components", ()))
    out["graphs.scc_nodes"] = sum(spans[i].attrs["nodes"] for i in scc)
    for level, parent_name in (("state", "pressure_spectral"),
                               ("letter", "pressure_scc_max")):
        mine = [i for i in scc if spans[i].parent is not None
                and spans[spans[i].parent].name == parent_name]
        out[f"graphs.scc_{level}_s"] = sum(durations[i] for i in mine)
        out[f"graphs.scc_{level}_calls"] = len(mine)
        out[f"graphs.scc_{level}_nodes"] = sum(spans[i].attrs["nodes"] for i in mine)

    out["systems.conditions_s"] = sum(total(name) for name in CONDITION_CHECKS)
    out["systems.subsystem_calls"] = tracer.counts["subsystem"]

    sweeps = described("dimension_sweep")
    out["perturb.rows"] = sum(spans[i].attrs["rows"] for i in sweeps)
    out["perturb.row_s_max"] = max(
        (durations[i] for i in solves
         if spans[i].parent is not None and spans[spans[i].parent].name == "dimension_sweep"),
        default=0.0,
    )
    out["perturb.overhead_s"] = total("dimension_sweep", own)
    return out


def _descends(spans, i, root):
    while i is not None:
        if i == root:
            return True
        i = spans[i].parent
    return False


def median_metrics(samples):
    """Metric-wise median over the traced repetitions."""
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}
