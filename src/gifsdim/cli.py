"""Config-driven command line front end.

One JSON config drives every subcommand; flags only override config fields.
Outputs are JSON-lines records on stdout, or artifact files (CSV for sweeps,
PGM for renders) at the configured output path with a provenance record on
stdout.  Identical configs produce byte-identical outputs, and every JSON
record embeds the sha256 digest of the canonicalized config next to the
knobs that shaped the run.

A config names a scenario of the registry _SCENARIOS, or gives an inline
similarity system.  A scenario's one entry there is all that parse_config
and _build read of it: its kind, its options and its builder.

Exit codes: 0 means the command ran and certified nothing wrong, 2 means it
ran and produced certified findings against the system (overlap witnesses,
violated validity checks, certified irregularity), 1 means a fault (bad
config, missing parameters, solver budget errors, I/O problems).
"""

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field

from .dimension import bowen_dimension, default_horizon, dimension_per_component
from .errors import (
    ConditionViolation,
    GifsError,
    IrregularSystem,
    SchemaViolation,
)
from .maps import (
    ConformalAffine,
    Constant,
    MoebiusCF,
    PerturbedAffine,
    PerturbedMoebiusCF,
    Similarity,
)
from .perturb import (
    affine_family,
    cf_family,
    degeneracy_divergence_probe,
    dimension_sweep,
    sweep_csv,
)
from .pressure import PotentialSpec, _letter_classes, truncation_ladder
from .render import generate_point_cloud, rasterize
from .scenarios import (
    affine_demo,
    cf_system,
    ladder_system,
    ladder_truncation,
    moran_system,
    perturbed_affine,
    perturbed_cf,
)
from .shapes import Box
from .systems import reduce_to_simple, validate_conditions

# ---------------------------------------------------------------------------
# scenario registry


@dataclass(frozen=True)
class _Scenario:
    """A named scenario: build(**options) makes its system, or its
    perturbation family when family is set.  It must be given each option
    in requires and may be given each in accepts, which maps it to its
    default; any other option is a config violation."""

    build: object
    family: bool = False
    requires: tuple = ()
    accepts: dict = field(default_factory=dict)


_SCENARIOS = {
    "ladder_6_1": _Scenario(
        lambda truncate_vertices: ladder_system() if truncate_vertices is None
        else ladder_truncation(truncate_vertices),
        accepts={"truncate_vertices": None}),
    "cantor": _Scenario(lambda: moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3], name="cantor")),
    "golden": _Scenario(lambda: moran_system([0.5, 0.25], name="golden")),
    "affine_demo": _Scenario(affine_demo),
    "affine_perturbed": _Scenario(perturbed_affine, accepts={"epsilon": 0.1}),
    "cf": _Scenario(cf_system, accepts={"letters": None}),
    "cf_perturbed": _Scenario(perturbed_cf, requires=("sub_letters",),
                              accepts={"full_letters": None, "epsilon": 0.5}),
    "cf_family": _Scenario(cf_family, family=True, requires=("sub_letters",),
                           accepts={"full_letters": None}),
    "affine_family": _Scenario(affine_family, family=True),
}
# options whose values are letter lists, each letter an int or an [m, n] pair
_LETTER_OPTIONS = ("letters", "sub_letters", "full_letters")


def _build(config, family=False):
    """The system the config's scenario names, or with family its
    perturbation family; a scenario of the other kind is a fault."""
    sc = config.scenario
    entry = _SCENARIOS.get(sc) if isinstance(sc, str) else None
    if (entry is not None and entry.family) != family:
        kind = "perturbation family" if family else "single system"
        raise SchemaViolation([f"scenario: {sc!r} does not name a {kind}"])
    if entry is None:
        return moran_system(
            [float(r) for r in sc["ratios"]],
            offsets=sc.get("offsets"),
            name="inline-similarity",
        )
    return entry.build(**{**entry.accepts, **config.scenario_options})


@dataclass(frozen=True)
class RunConfig:
    """Validated knobs for one command invocation.

    Unset fields stay None and each command applies its own defaults, so a
    minimal config is just a scenario name.
    """

    scenario: object
    scenario_options: dict
    s: object = None
    s_tol: object = None
    s_max: object = None
    depth: object = None
    horizon: object = None
    horizon_cap: object = None
    state_cap: object = None
    max_evals: object = None
    epsilon: object = None
    epsilons: object = None
    horizons: object = None
    resolution: object = None
    bounds: object = None
    render_depth: object = None
    cap: object = None
    binary: bool = False
    output: object = None
    digest: str = ""


def _is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _check_letters(value, path, problems):
    if not isinstance(value, list) or not value:
        problems.append(f"{path}: expected a nonempty list of letters")
        return
    for i, item in enumerate(value):
        if _is_int(item):
            continue
        if (
            isinstance(item, list)
            and len(item) == 2
            and all(_is_int(c) for c in item)
        ):
            continue
        problems.append(f"{path}[{i}]: letter must be an int or an [m, n] pair")


def _check_inline(sc, problems):
    if sc.get("kind") != "similarity":
        problems.append("scenario.kind: inline systems must declare kind 'similarity'")
    for key in sc:
        if key not in ("kind", "ratios", "offsets"):
            problems.append(f"scenario.{key}: unknown field")
    ratios = sc.get("ratios")
    if not isinstance(ratios, list) or not ratios:
        problems.append("scenario.ratios: expected a nonempty list")
        return
    for i, r in enumerate(ratios):
        if not _is_num(r) or not (0.0 < r < 1.0):
            problems.append(f"scenario.ratios[{i}]: ratio must sit inside (0,1)")
    offsets = sc.get("offsets")
    if offsets is not None:
        if not isinstance(offsets, list) or len(offsets) != len(ratios):
            problems.append("scenario.offsets: must match ratios in length")
        else:
            for i, t in enumerate(offsets):
                if not _is_num(t):
                    problems.append(f"scenario.offsets[{i}]: not a finite number")


def _check_options(label, opts, problems):
    if not isinstance(opts, dict):
        problems.append("scenario_options: expected an object")
        return
    # inline systems, and names the registry lacks, read no option
    entry = _SCENARIOS.get(label, _Scenario(None))
    for key, value in opts.items():
        if key not in entry.requires and key not in entry.accepts:
            problems.append(f"scenario_options.{key}: not read by scenario '{label}'")
        elif key in _LETTER_OPTIONS:
            _check_letters(value, f"scenario_options.{key}", problems)
        elif key == "epsilon":
            if not _is_num(value) or not (0.0 <= value <= 1.0):
                problems.append("scenario_options.epsilon: outside [0,1]")
        elif key == "truncate_vertices":
            if not _is_int(value) or value < 1:
                problems.append("scenario_options.truncate_vertices: expected an int >= 1")
    for key in entry.requires:
        if key not in opts:
            problems.append(f"scenario_options.{key}: required for this scenario")


def parse_config(text):
    """JSON text -> RunConfig; collects every violation before failing."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise SchemaViolation([f"config: not valid JSON ({err})"])
    if not isinstance(obj, dict):
        raise SchemaViolation(["config: top level must be an object"])

    problems = []
    known = set(RunConfig.__dataclass_fields__) - {"digest"}
    for key in obj:
        if key not in known:
            problems.append(f"{key}: unknown field")

    scenario = obj.get("scenario")
    if scenario is None:
        problems.append("scenario: required")
    elif isinstance(scenario, str):
        if scenario not in _SCENARIOS:
            problems.append(f"scenario: unknown name {scenario!r}")
    elif isinstance(scenario, dict):
        _check_inline(scenario, problems)
    else:
        problems.append("scenario: expected a name or an inline object")

    if isinstance(scenario, (str, dict)):
        _check_options(_scenario_label(scenario), obj.get("scenario_options", {}), problems)

    def check(key, ok, message):
        # an unset (or null) field takes the command's default
        if obj.get(key) is not None and not ok(obj[key]):
            problems.append(f"{key}: {message}")

    check("s", lambda v: _is_num(v) and v >= 0.0, "expected a finite number >= 0")
    for key in ("s_tol", "s_max"):
        check(key, lambda v: _is_num(v) and v > 0.0, "expected a positive number")
    for key in (
        "depth", "horizon", "horizon_cap", "state_cap", "max_evals",
        "resolution", "render_depth", "cap",
    ):
        check(key, lambda v: _is_int(v) and v >= 1, "expected an int >= 1")
    check("epsilon", lambda v: _is_num(v) and 0.0 < v < 1.0, "outside (0,1)")
    epsilons = obj.get("epsilons")
    if epsilons is not None:
        if not isinstance(epsilons, list) or not epsilons:
            problems.append("epsilons: expected a nonempty list")
        else:
            for i, e in enumerate(epsilons):
                if not _is_num(e) or not (0.0 < e < 1.0):
                    problems.append(f"epsilons[{i}]: outside (0,1)")
    check("horizons", lambda v: isinstance(v, list) and v
          and all(_is_int(h) and h >= 1 for h in v)
          and all(a < b for a, b in zip(v, v[1:])), "expected increasing ints >= 1")

    bounds = obj.get("bounds")
    if bounds is not None:
        ok = (
            isinstance(bounds, list)
            and len(bounds) == 2
            and all(isinstance(side, list) for side in bounds)
            and len(bounds[0]) == len(bounds[1])
            and len(bounds[0]) in (1, 2)
            and all(_is_num(c) for side in bounds for c in side)
        )
        if not ok:
            problems.append("bounds: expected [[lo...], [hi...]] with 1 or 2 coordinates")
        elif any(hi <= lo for lo, hi in zip(bounds[0], bounds[1])):
            problems.append("bounds: upper must exceed lower in every coordinate")

    binary = obj.get("binary", False)
    if not isinstance(binary, bool):
        problems.append("binary: expected true or false")
    check("output", lambda v: isinstance(v, str), "expected a path string")

    if problems:
        raise SchemaViolation(problems)

    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    fields = {k: obj[k] for k in known if k in obj}
    # the builders take the letter m + ni of an [m, n] pair as a complex
    opts = dict(obj.get("scenario_options", {}))
    for key in _LETTER_OPTIONS:
        if key in opts:
            opts[key] = tuple(complex(*e) if isinstance(e, list) else e for e in opts[key])
    fields["scenario_options"] = opts
    if "epsilons" in fields:
        fields["epsilons"] = tuple(fields["epsilons"])
    if "horizons" in fields:
        fields["horizons"] = tuple(fields["horizons"])
    return RunConfig(digest=digest, **fields)


# ---------------------------------------------------------------------------
# emission


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, complex):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _scenario_label(sc):
    return sc if isinstance(sc, str) else "inline-similarity"


def _record(config, command, payload, **knobs):
    rec = {
        "command": command,
        "config_digest": config.digest,
        "scenario": _scenario_label(config.scenario),
    }
    rec.update({k: v for k, v in knobs.items() if v is not None})
    rec.update(payload)
    return _jsonable(rec)


def _emit(stream, records, path=None):
    """Write records as JSON lines to the file at path, or to stream."""
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        stream.write(text)


def _require(config, *names):
    missing = [n for n in names if getattr(config, n) is None]
    if missing:
        raise SchemaViolation([f"{n}: required for this command" for n in missing])


def _solver_kwargs(config):
    keys = (
        "s_tol", "horizon", "depth", "s_max", "horizon_cap", "state_cap",
        "max_evals",
    )
    return {k: getattr(config, k) for k in keys if getattr(config, k) is not None}


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(config, stream):
    system = _build(config)
    kwargs = {}
    if config.horizon is not None:
        kwargs["horizon_edges"] = config.horizon
    report = validate_conditions(system, **kwargs)
    sep = report.separation
    horizon = default_horizon(system, config.horizon)
    sizes = [len(cls) for cls, _, _ in _letter_classes(system, horizon)]

    findings = [
        {"check": name, "status": entry.status, "detail": entry.detail}
        for name, entry in sorted(report.checks.items())
        if entry.status == "violated"
    ]
    if sep.verdict == "overlap-witness":
        findings.append(
            {
                "check": "separation",
                "status": sep.verdict,
                "detail": f"witness pair {sep.witness[:2]}, gap {sep.min_gap:.6g}",
            }
        )
    payload = {
        "checks": {
            name: {"status": e.status, "detail": e.detail}
            for name, e in sorted(report.checks.items())
        },
        "separation": {
            "mode": sep.mode,
            "verdict": sep.verdict,
            "pairs_checked": sep.pairs_checked,
            "min_gap": sep.min_gap,
        },
        "scc": {"nontrivial": len(sizes), "sizes": sizes, "letters": len(system.letters(horizon))},
        "findings": findings,
    }
    _emit(stream, [_record(config, "analyze", payload, horizon=config.horizon)], config.output)
    return 2 if findings else 0


def _cmd_pressure(config, stream):
    _require(config, "s")
    system = _build(config)
    depth = config.depth or 1
    horizon = default_horizon(system, config.horizon)
    est = truncation_ladder(system, PotentialSpec(config.s), [horizon], depth=depth)[-1]
    payload = {
        "estimate": {
            "lower": est.lower,
            "upper": est.upper,
            "s": est.s,
            "horizon": est.horizon,
            "depth": est.depth,
            "scope": est.scope,
            "divergence": est.divergence,
            "stalled": est.stalled,
            "tail_term": est.tail_term,
        }
    }
    _emit(
        stream, [_record(config, "pressure", payload, horizon=est.horizon, depth=depth)],
        config.output,
    )
    return 0


def _cmd_dimension(config, stream):
    system = _build(config)
    result = bowen_dimension(system, **_solver_kwargs(config))
    payload = {"result": result.record()}
    _emit(
        stream,
        [
            _record(
                config, "dimension", payload,
                s_tol=config.s_tol, horizon=config.horizon,
                max_evals=config.max_evals,
            )
        ],
        config.output,
    )
    return 0


def _cmd_components(config, stream):
    system = _build(config)
    results = dimension_per_component(system, **_solver_kwargs(config))
    records = [
        _record(
            config, "components",
            {"component": [str(e) for e in cls], "result": res.record()},
            horizon=config.horizon,
        )
        for cls, res in results.items()
    ]
    if not records:
        records = [
            _record(config, "components", {"component": [], "result": None})
        ]
    _emit(stream, records, config.output)
    return 0


def _cmd_sweep(config, stream):
    _require(config, "output")
    family = _build(config, family=True)
    epsilons = config.epsilons or tuple(2.0 ** -j for j in range(2, 8))
    records = dimension_sweep(family, epsilons, **_solver_kwargs(config))
    text = sweep_csv(records)
    with open(config.output, "w", newline="") as fh:
        fh.write(text)
    meta = _record(
        config, "sweep",
        {
            "path": config.output,
            "rows": len(records),
            "statuses": [r.status for r in records],
        },
        s_tol=config.s_tol,
    )
    _emit(stream, [meta])
    return 0


def _cmd_probe_divergence(config, stream):
    _require(config, "s")
    family = _build(config, family=True)
    horizons = config.horizons or (5, 10, 20)
    epsilons = config.epsilons or ((config.epsilon,) if config.epsilon else (None,))
    records = [
        _record(
            config, "probe-divergence",
            {"report": degeneracy_divergence_probe(family, config.s, horizons, eps).record()},
            horizons=list(horizons),
        )
        for eps in epsilons
    ]
    _emit(stream, records, config.output)
    return 0


def _default_bounds(system):
    """The box around the seed balls of the first 64 vertices."""
    balls = [system.seed(v).seed for v in system.vertices_prefix(64)]
    axes = range(balls[0].dim)
    return Box(tuple(min(b.center[k] - b.radius for b in balls) for k in axes),
               tuple(max(b.center[k] + b.radius for b in balls) for k in axes))


def _cmd_render(config, stream):
    _require(config, "output")
    system = _build(config)
    horizon = default_horizon(system, config.horizon)
    cloud = generate_point_cloud(
        system, config.render_depth or 6, horizon, cap=config.cap or 100000
    )
    if config.bounds is not None:
        box = Box(tuple(config.bounds[0]), tuple(config.bounds[1]))
    else:
        box = _default_bounds(system)
    image = rasterize(cloud, box, config.resolution or 256)
    data = image.to_pgm(binary=config.binary)
    with open(config.output, "wb") as fh:
        fh.write(data)
    meta = _record(
        config, "render",
        {
            "path": config.output,
            "width": image.width,
            "height": image.height,
            "points": len(cloud),
            "occupied": int(image.occupancy().sum()),
            "format": "P5" if config.binary else "P2",
        },
        render_depth=config.render_depth or 6, horizon=horizon,
        resolution=config.resolution or 256,
    )
    _emit(stream, [meta])
    return 0


def _map_description(spec):
    if isinstance(spec, Similarity):
        return {
            "kind": "similarity",
            "ratio": spec.ratio,
            "translation": list(spec.translation),
            "rotation": getattr(spec, "rotation", 0.0),
            "reflect": spec.reflect,
        }
    if isinstance(spec, ConformalAffine):
        lin = complex(spec.linear)
        return {
            "kind": "conformal_affine",
            "linear": [lin.real, lin.imag],
            "translation": list(spec.translation),
            "reflect": spec.reflect,
        }
    if isinstance(spec, Constant):
        return {"kind": "constant", "target": list(spec.target)}
    if isinstance(spec, MoebiusCF):
        return {"kind": "moebius_cf", "letter": str(spec.e)}
    if isinstance(spec, PerturbedMoebiusCF):
        return {"kind": "perturbed_moebius_cf", "letter": str(spec.e), "epsilon": spec.epsilon}
    if isinstance(spec, PerturbedAffine):
        return {"kind": "perturbed_affine", "repr": repr(spec)}
    return {"kind": type(spec).__name__, "repr": repr(spec)}


def _cmd_reduce(config, stream):
    system = _build(config)
    reduced = reduce_to_simple(system)
    edges = list(reduced.letters(1 << 20))
    notes = reduced.reduction
    payload = {
        "name": reduced.name,
        "ambient_dim": reduced.ambient_dim,
        "vertices": [str(v) for v in reduced.vertices_prefix(1 << 20)],
        "edges": [
            {
                "label": str(e),
                "initial": str(reduced.graph.initial(e)),
                "terminal": str(reduced.graph.terminal(e)),
                "map": _map_description(reduced.map_of(e)),
            }
            for e in edges
        ],
        "dead_ends": [str(e) for e in (notes.dead_ends if notes else ())],
        "reduced_from": notes.base_name if notes else system.name,
    }
    _emit(stream, [_record(config, "reduce", payload)], config.output)
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "pressure": _cmd_pressure,
    "dimension": _cmd_dimension,
    "components": _cmd_components,
    "sweep": _cmd_sweep,
    "probe-divergence": _cmd_probe_divergence,
    "render": _cmd_render,
    "reduce": _cmd_reduce,
}


def _fault(config, stream, command, err):
    _emit(stream, [_jsonable({
        "command": command,
        "config_digest": getattr(config, "digest", ""),
        "error": type(err).__name__,
        "message": str(err),
    })])


def run(command, config, stream=None):
    """Dispatch one subcommand; returns the process exit code."""
    stream = sys.stdout if stream is None else stream
    handler = _HANDLERS.get(command)
    if handler is None:
        _fault(
            config, stream, command,
            SchemaViolation([f"unknown command {command!r}"]),
        )
        return 1
    try:
        return handler(config, stream)
    except (ConditionViolation, IrregularSystem) as err:
        # the run certified that the system breaks a stated assumption
        _fault(config, stream, command, err)
        return 2
    except (GifsError, ValueError, OSError) as err:
        _fault(config, stream, command, err)
        return 1


def _assign(obj, dotted, value):
    parts = dotted.split(".")
    here = obj
    for part in parts[:-1]:
        here = here.setdefault(part, {})
        if not isinstance(here, dict):
            raise SchemaViolation([f"{dotted}: cannot override a non-object field"])
    here[parts[-1]] = value


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="gifsdim",
        description="Certified dimension and pressure brackets for "
        "graph-directed function systems.",
    )
    parser.add_argument("command", choices=sorted(_HANDLERS))
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config field (dotted paths reach into objects; "
        "values parse as JSON, falling back to plain strings)",
    )
    parser.add_argument("--output", help="shortcut for --set output=PATH")
    args = parser.parse_args(argv)

    obj = {}
    try:
        if args.config:
            try:
                with open(args.config) as fh:
                    obj = json.load(fh)
            except (OSError, ValueError) as err:  # ValueError: not JSON, or not UTF-8
                raise SchemaViolation([f"config: {err}"])
            if not isinstance(obj, dict):
                raise SchemaViolation(["config: top level must be an object"])
        for item in args.set:
            key, sep, raw = item.partition("=")
            if not sep:
                raise SchemaViolation([f"--set {item!r}: expected KEY=VALUE"])
            try:
                value = json.loads(raw)
            except json.JSONDecodeError:
                value = raw
            _assign(obj, key, value)
        if args.output is not None:
            obj["output"] = args.output
        config = parse_config(json.dumps(obj))
    except SchemaViolation as err:
        _fault(None, sys.stdout, args.command, err)
        return 1
    return run(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
