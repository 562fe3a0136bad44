"""Config-driven command line front end.

One JSON config drives every subcommand; flags only override config fields.
Outputs are JSON-lines records on stdout, or artifact files (CSV for sweeps,
PGM for renders) at the configured output path with a provenance record on
stdout.  Identical configs produce byte-identical outputs, and every JSON
record embeds the sha256 digest of the canonicalized config next to the
knobs that shaped the run.

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
from dataclasses import dataclass

from .dimension import bowen_dimension, default_horizon, dimension_per_component
from .errors import (
    ConditionViolation,
    GifsError,
    IrregularSystem,
    SchemaViolation,
)
from .graphs import strongly_connected_components
from .maps import (
    ConformalAffine,
    Constant,
    MoebiusCF,
    PerturbedAffine,
    PerturbedMoebiusCF,
    Similarity,
)
from .perturb import (
    _full_entry,
    affine_family,
    cf_family,
    degeneracy_divergence_probe,
    dimension_sweep,
    sweep_csv,
)
from .pressure import PotentialSpec, _letter_transition
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
from .shapes import Ball, Box
from .systems import check_separation, reduce_to_simple, validate_conditions

_SYSTEM_SCENARIOS = (
    "ladder_6_1",
    "cantor",
    "golden",
    "affine_demo",
    "affine_perturbed",
    "cf",
    "cf_perturbed",
)
_FAMILY_SCENARIOS = ("cf_family", "affine_family")

_OPTION_KEYS = (
    "letters",
    "sub_letters",
    "full_letters",
    "epsilon",
    "truncate_vertices",
)


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
    seed: int = 0
    threads: int = 1
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


def _check_options(scenario, opts, problems):
    if not isinstance(opts, dict):
        problems.append("scenario_options: expected an object")
        return
    for key, value in opts.items():
        if key not in _OPTION_KEYS:
            problems.append(f"scenario_options.{key}: unknown field")
        elif key in ("letters", "sub_letters", "full_letters"):
            _check_letters(value, f"scenario_options.{key}", problems)
        elif key == "epsilon":
            if not _is_num(value) or not (0.0 <= value <= 1.0):
                problems.append("scenario_options.epsilon: outside [0,1]")
        elif key == "truncate_vertices":
            if not _is_int(value) or value < 1:
                problems.append("scenario_options.truncate_vertices: expected an int >= 1")
    if scenario in ("cf_perturbed", "cf_family") and "sub_letters" not in opts:
        problems.append("scenario_options.sub_letters: required for this scenario")


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
        if scenario not in _SYSTEM_SCENARIOS + _FAMILY_SCENARIOS:
            problems.append(f"scenario: unknown name {scenario!r}")
    elif isinstance(scenario, dict):
        _check_inline(scenario, problems)
    else:
        problems.append("scenario: expected a name or an inline object")

    opts = obj.get("scenario_options", {})
    if isinstance(scenario, str):
        _check_options(scenario, opts, problems)
    elif not isinstance(opts, dict):
        problems.append("scenario_options: expected an object")

    def positive_num(key):
        v = obj.get(key)
        if v is not None and (not _is_num(v) or v <= 0.0):
            problems.append(f"{key}: expected a positive number")

    def positive_int(key):
        v = obj.get(key)
        if v is not None and (not _is_int(v) or v < 1):
            problems.append(f"{key}: expected an int >= 1")

    s = obj.get("s")
    if s is not None and (not _is_num(s) or s < 0.0):
        problems.append("s: expected a finite number >= 0")
    for key in ("s_tol", "s_max"):
        positive_num(key)
    for key in (
        "depth", "horizon", "horizon_cap", "state_cap", "max_evals",
        "resolution", "render_depth", "cap", "threads",
    ):
        positive_int(key)

    epsilon = obj.get("epsilon")
    if epsilon is not None and (not _is_num(epsilon) or not (0.0 < epsilon < 1.0)):
        problems.append("epsilon: outside (0,1)")
    epsilons = obj.get("epsilons")
    if epsilons is not None:
        if not isinstance(epsilons, list) or not epsilons:
            problems.append("epsilons: expected a nonempty list")
        else:
            for i, e in enumerate(epsilons):
                if not _is_num(e) or not (0.0 < e < 1.0):
                    problems.append(f"epsilons[{i}]: outside (0,1)")
    horizons = obj.get("horizons")
    if horizons is not None:
        if (
            not isinstance(horizons, list)
            or not horizons
            or not all(_is_int(h) and h >= 1 for h in horizons)
            or any(b <= a for a, b in zip(horizons, horizons[1:]))
        ):
            problems.append("horizons: expected increasing ints >= 1")

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

    seed = obj.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        problems.append("seed: expected an int >= 0")
    binary = obj.get("binary", False)
    if not isinstance(binary, bool):
        problems.append("binary: expected true or false")
    output = obj.get("output")
    if output is not None and not isinstance(output, str):
        problems.append("output: expected a path string")

    if problems:
        raise SchemaViolation(problems)

    digest = hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    fields = {k: obj[k] for k in known if k in obj}
    fields.setdefault("scenario_options", {})
    fields.setdefault("seed", 0)
    fields.setdefault("threads", 1)
    fields.setdefault("binary", False)
    if "epsilons" in fields:
        fields["epsilons"] = tuple(fields["epsilons"])
    if "horizons" in fields:
        fields["horizons"] = tuple(fields["horizons"])
    return RunConfig(digest=digest, **fields)


# ---------------------------------------------------------------------------
# scenario registry


def _as_letters(raw):
    return tuple(
        complex(item[0], item[1]) if isinstance(item, list) else complex(item)
        for item in raw
    )


def _build_system(config):
    sc = config.scenario
    opts = config.scenario_options
    if isinstance(sc, dict):
        return moran_system(
            [float(r) for r in sc["ratios"]],
            offsets=sc.get("offsets"),
            name="inline-similarity",
        )
    if sc == "ladder_6_1":
        k = opts.get("truncate_vertices")
        return ladder_truncation(k) if k is not None else ladder_system()
    if sc == "cantor":
        return moran_system([1 / 3, 1 / 3], offsets=[0.0, 2 / 3], name="cantor")
    if sc == "golden":
        return moran_system([0.5, 0.25], name="golden")
    if sc == "affine_demo":
        return affine_demo()
    if sc == "affine_perturbed":
        return perturbed_affine(opts.get("epsilon", 0.1))
    if sc == "cf":
        letters = opts.get("letters")
        return cf_system(letters=_as_letters(letters) if letters is not None else None)
    if sc == "cf_perturbed":
        full = opts.get("full_letters")
        return perturbed_cf(
            _as_letters(opts["sub_letters"]),
            _as_letters(full) if full is not None else None,
            opts.get("epsilon", 0.5),
        )
    raise SchemaViolation([f"scenario: {sc!r} does not name a single system"])


def _build_family(config):
    sc = config.scenario
    opts = config.scenario_options
    if sc == "cf_family":
        full = opts.get("full_letters")
        return cf_family(
            _as_letters(opts["sub_letters"]),
            _as_letters(full) if full is not None else None,
        )
    if sc == "affine_family":
        return affine_family()
    raise SchemaViolation([f"scenario: {sc!r} does not name a perturbation family"])


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


def _scenario_label(config):
    sc = config.scenario
    return sc if isinstance(sc, str) else "inline-similarity"


def _record(config, command, payload, **knobs):
    rec = {
        "command": command,
        "config_digest": config.digest,
        "scenario": _scenario_label(config),
        "seed": config.seed,
    }
    rec.update({k: v for k, v in knobs.items() if v is not None})
    rec.update(payload)
    return _jsonable(rec)


def _emit(config, stream, records):
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    if config.output:
        with open(config.output, "w") as fh:
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
    system = _build_system(config)
    kwargs = {}
    if config.horizon is not None:
        kwargs["horizon_edges"] = config.horizon
    report = validate_conditions(system, **kwargs)
    sep = check_separation(system, mode="SSC", **kwargs)
    letters = system.letters(config.horizon or 64)
    fin = _letter_transition(system, letters)
    classes = strongly_connected_components(fin).nontrivial_classes()
    sizes = [len(cls) for cls in classes]

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
        "scc": {"nontrivial": len(sizes), "sizes": sizes, "letters": len(letters)},
        "findings": findings,
    }
    _emit(config, stream, [_record(config, "analyze", payload, horizon=config.horizon)])
    return 2 if findings else 0


def _cmd_pressure(config, stream):
    _require(config, "s")
    system = _build_system(config)
    depth = config.depth or 1
    est = _full_entry(system, PotentialSpec(config.s), depth, config.horizon)
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
        config, stream,
        [_record(config, "pressure", payload, horizon=est.horizon, depth=depth)],
    )
    return 0


def _cmd_dimension(config, stream):
    system = _build_system(config)
    result = bowen_dimension(system, **_solver_kwargs(config))
    payload = {"result": result.record()}
    _emit(
        config, stream,
        [
            _record(
                config, "dimension", payload,
                s_tol=config.s_tol, horizon=config.horizon,
                max_evals=config.max_evals,
            )
        ],
    )
    return 0


def _cmd_components(config, stream):
    system = _build_system(config)
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
    _emit(config, stream, records)
    return 0


def _cmd_sweep(config, stream):
    _require(config, "output")
    family = _build_family(config)
    epsilons = config.epsilons or tuple(2.0 ** -j for j in range(2, 8))
    records = dimension_sweep(
        family, epsilons, workers=config.threads, **_solver_kwargs(config)
    )
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
        s_tol=config.s_tol, threads=config.threads,
    )
    stream.write(json.dumps(meta, sort_keys=True) + "\n")
    return 0


def _cmd_probe_divergence(config, stream):
    _require(config, "s")
    family = _build_family(config)
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
    _emit(config, stream, records)
    return 0


def _default_bounds(system):
    los, his = None, None
    for v in system.vertices_prefix(64):
        shape = system.seed(v).seed
        if isinstance(shape, Ball):
            lo = [c - shape.radius for c in shape.center]
            hi = [c + shape.radius for c in shape.center]
        else:
            lo, hi = list(shape.lo), list(shape.hi)
        los = lo if los is None else [min(a, b) for a, b in zip(los, lo)]
        his = hi if his is None else [max(a, b) for a, b in zip(his, hi)]
    return Box(tuple(los), tuple(his))


def _cmd_render(config, stream):
    _require(config, "output")
    system = _build_system(config)
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
    stream.write(json.dumps(meta, sort_keys=True) + "\n")
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
    system = _build_system(config)
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
    _emit(config, stream, [_record(config, "reduce", payload)])
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
    stream.write(
        json.dumps(
            _jsonable(
                {
                    "command": command,
                    "config_digest": getattr(config, "digest", ""),
                    "error": type(err).__name__,
                    "message": str(err),
                }
            ),
            sort_keys=True,
        )
        + "\n"
    )


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
    except GifsError as err:
        _fault(config, stream, command, err)
        return 1
    except (ValueError, OSError) as err:
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
    parser.add_argument("--threads", type=int, help="worker cap; never changes results")
    args = parser.parse_args(argv)

    obj = {}
    if args.config:
        try:
            with open(args.config) as fh:
                obj = json.load(fh)
        except (OSError, json.JSONDecodeError) as err:
            _fault(None, sys.stdout, args.command, SchemaViolation([f"config: {err}"]))
            return 1
        if not isinstance(obj, dict):
            _fault(
                None, sys.stdout, args.command,
                SchemaViolation(["config: top level must be an object"]),
            )
            return 1
    try:
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
        if args.threads is not None:
            obj["threads"] = args.threads
        config = parse_config(json.dumps(obj))
    except SchemaViolation as err:
        _fault(None, sys.stdout, args.command, err)
        return 1
    return run(args.command, config)


if __name__ == "__main__":
    sys.exit(main())
