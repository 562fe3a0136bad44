"""Config parsing, subcommand dispatch, and output reproducibility.

Frozen values used here:
  two-loop ladder subsystem dimension  0.5514630897455955
  golden pair {1/2, 1/4} dimension     0.6942419136306174
"""

import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gifsdim import pressure
from gifsdim.cli import _SCENARIOS, RunConfig, _build, main, parse_config, run
from gifsdim.errors import SchemaViolation
from gifsdim.perturb import PerturbationFamily
from gifsdim.scenarios import gaussian_alphabet
from gifsdim.systems import GifsSystem

README = Path(__file__).resolve().parent.parent / "README.md"
TWO_LOOP = 0.5514630897455955
GOLDEN = 0.6942419136306174


def capture(command, config):
    stream = io.StringIO()
    code = run(command, config, stream=stream)
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    return code, lines


def test_minimal_config_defaults():
    cfg = parse_config('{"scenario": "ladder_6_1"}')
    assert cfg.scenario == "ladder_6_1"
    assert cfg.scenario_options == {}
    assert cfg.s is None and cfg.output is None
    assert cfg.binary is False
    assert len(cfg.digest) == 64
    assert set(cfg.digest) <= set("0123456789abcdef")


def test_seed_and_threads_are_not_config_fields():
    # neither changed any result: no command draws a random number, and
    # sweeps run on one worker
    with pytest.raises(SchemaViolation) as exc:
        parse_config('{"scenario": "golden", "seed": 0, "threads": 2}')
    assert exc.value.violations == ["seed: unknown field", "threads: unknown field"]
    with pytest.raises(SystemExit):
        main(["analyze", "--threads", "2", "--set", "scenario=golden"])


def test_digest_ignores_key_order_but_not_values():
    a = parse_config('{"scenario": "cantor", "s_tol": 0.001}')
    b = parse_config('{"s_tol": 0.001, "scenario": "cantor"}')
    c = parse_config('{"scenario": "cantor", "s_tol": 0.002}')
    assert a.digest == b.digest
    assert a.digest != c.digest


def test_schema_violations_are_collected():
    bad = json.dumps(
        {
            "scenario": "cf_perturbed",
            "wat": 1,
            "epsilon": 1.5,
            "epsilons": [0.5, 2.0],
            "horizons": [10, 5],
            "s": -0.25,
        }
    )
    with pytest.raises(SchemaViolation) as exc:
        parse_config(bad)
    paths = [v.split(":")[0] for v in exc.value.violations]
    assert "wat" in paths
    assert "epsilon" in paths
    assert "epsilons[1]" in paths
    assert "horizons" in paths
    assert "s" in paths
    assert "scenario_options.sub_letters" in paths
    assert "epsilons[0]" not in paths


def test_options_a_scenario_never_reads_are_violations():
    with pytest.raises(SchemaViolation) as exc:
        parse_config(json.dumps({"scenario": "cf", "s": -1, "scenario_options": {
            "truncate_vertices": 3, "epsilon": 0.2, "sub_letters": [1], "letters": [1]}}))
    assert sorted(exc.value.violations) == [
        "s: expected a finite number >= 0",
        "scenario_options.epsilon: not read by scenario 'cf'",
        "scenario_options.sub_letters: not read by scenario 'cf'",
        "scenario_options.truncate_vertices: not read by scenario 'cf'",
    ]
    with pytest.raises(SchemaViolation) as exc:
        parse_config('{"scenario": {"kind": "similarity", "ratios": [0.5]},'
                     ' "scenario_options": {"epsilon": 0.2}}')
    assert exc.value.violations == [
        "scenario_options.epsilon: not read by scenario 'inline-similarity'"]
    for name, opts in (("cf_perturbed", {"sub_letters": [1], "full_letters": [1, 2],
                                         "epsilon": 0.5}),
                       ("cf_family", {"sub_letters": [1], "full_letters": [1, 2]}),
                       ("affine_perturbed", {"epsilon": 0.5})):
        parse_config(json.dumps({"scenario": name, "scenario_options": opts}))


def test_inline_scenario_checked_fieldwise():
    with pytest.raises(SchemaViolation) as exc:
        parse_config('{"scenario": {"kind": "box", "ratios": [0.5, 1.2]}}')
    joined = " ".join(exc.value.violations)
    assert "scenario.kind" in joined
    assert "scenario.ratios[1]" in joined


def test_analyze_inline_similarity_passes():
    cfg = parse_config(
        '{"scenario": {"kind": "similarity", "ratios": [0.3, 0.3],'
        ' "offsets": [0.0, 0.7]}}'
    )
    code, lines = capture("analyze", cfg)
    assert code == 0
    rec = lines[0]
    assert rec["command"] == "analyze"
    assert rec["config_digest"] == cfg.digest
    assert rec["findings"] == []
    assert rec["separation"]["verdict"] == "certified-separated"
    assert rec["checks"]["uniform-contraction"]["status"] == "satisfied"
    assert rec["scc"]["nontrivial"] == 1


def test_analyze_reports_overlap_with_exit_2():
    cfg = parse_config(
        '{"scenario": {"kind": "similarity", "ratios": [0.6, 0.6],'
        ' "offsets": [0.0, 0.1]}}'
    )
    code, lines = capture("analyze", cfg)
    assert code == 2
    findings = lines[0]["findings"]
    assert any(f["status"] == "overlap-witness" for f in findings)


def test_analyze_classes_cover_every_letter_of_a_finite_system():
    # the scc block reads the alphabet horizon a solve would use, every
    # letter of a finite system, as the condition checks do; it once read
    # only the first 64 of these 78
    letters = [[int(e.real), int(e.imag)] for e in gaussian_alphabet(6)]
    cfg = parse_config(json.dumps(
        {"scenario": "cf", "scenario_options": {"letters": letters}}))
    code, (rec,) = capture("analyze", cfg)
    assert code == 0
    assert rec["separation"]["pairs_checked"] == 78 * 77 // 2
    assert rec["scc"] == {"letters": 78, "nontrivial": 1, "sizes": [78]}


def test_dimension_two_loop_subsystem():
    cfg = parse_config(
        '{"scenario": "ladder_6_1",'
        ' "scenario_options": {"truncate_vertices": 2}, "s_tol": 1e-05}'
    )
    code, lines = capture("dimension", cfg)
    assert code == 0
    rec = lines[0]
    assert rec["command"] == "dimension"
    assert rec["s_tol"] == 1e-5
    res = rec["result"]
    assert res["s_lower"] <= TWO_LOOP <= res["s_upper"]
    assert res["s_upper"] - res["s_lower"] <= 1e-4


def test_pressure_vanishes_at_golden_dimension():
    cfg = parse_config(json.dumps({"scenario": "golden", "s": GOLDEN}))
    code, lines = capture("pressure", cfg)
    assert code == 0
    est = lines[0]["estimate"]
    assert est["scope"] == "full"
    assert abs(est["lower"]) <= 1e-9
    assert abs(est["upper"]) <= 1e-9


def test_pressure_without_s_faults():
    cfg = parse_config('{"scenario": "golden"}')
    code, lines = capture("pressure", cfg)
    assert code == 1
    assert lines[0]["error"] == "SchemaViolation"
    assert "s:" in lines[0]["message"]


def test_pressure_reports_a_stalled_power_iteration(monkeypatch):
    # two steps leave the CF {1, 2} class at depth 3 short of its
    # tolerance; the printed full entry must say so
    monkeypatch.setattr(pressure, "CW_MAX_ITER", 2)
    cfg = parse_config(json.dumps({"scenario": "cf", "scenario_options": {"letters": [1, 2]},
                                   "s": 0.5, "depth": 3}))
    code, lines = capture("pressure", cfg)
    assert code == 0
    est = lines[0]["estimate"]
    assert est["scope"] == "full" and est["stalled"] is True


def test_unknown_command_faults():
    cfg = parse_config('{"scenario": "golden"}')
    code, lines = capture("frobnicate", cfg)
    assert code == 1
    assert lines[0]["error"] == "SchemaViolation"


def test_components_splits_affine_demo():
    cfg = parse_config('{"scenario": "affine_demo", "s_tol": 0.001}')
    code, lines = capture("components", cfg)
    assert code == 0
    assert len(lines) == 1
    rec = lines[0]
    assert sorted(rec["component"]) == ["(1, 1)", "(1, 2)", "(2, 1)"]
    assert rec["result"]["s_lower"] <= rec["result"]["s_upper"]


def test_render_is_reproducible(tmp_path):
    out1 = tmp_path / "a.pgm"
    out2 = tmp_path / "b.pgm"
    base = {
        "scenario": "cf",
        "scenario_options": {"letters": [1, 2]},
        "render_depth": 5,
        "resolution": 64,
    }
    meta = None
    for out in (out1, out2):
        cfg = parse_config(json.dumps(dict(base, output=str(out))))
        stream = io.StringIO()
        assert run("render", cfg, stream=stream) == 0
        meta = json.loads(stream.getvalue())
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes().startswith(b"P2\n64 64\n")
    assert meta["width"] == 64 and meta["height"] == 64
    assert meta["occupied"] > 0
    assert meta["config_digest"] == cfg.digest


def test_sweep_writes_reproducible_csv(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = {
        "scenario": "affine_family",
        "epsilons": [0.25, 0.125],
        "s_tol": 0.001,
    }
    for out in (out1, out2):
        cfg = parse_config(json.dumps(dict(base, output=str(out))))
        stream = io.StringIO()
        assert run("sweep", cfg, stream=stream) == 0
        meta = json.loads(stream.getvalue())
        assert meta["rows"] == 3
        assert meta["statuses"] == ["ok", "ok", "ok"]
    data = out1.read_bytes()
    assert data == out2.read_bytes()
    assert data.startswith(b"epsilon,s_lower,s_upper,base_lower,base_upper,status\r\n")


def test_sweep_faults_once_on_a_kept_letter_outside_the_full_alphabet(tmp_path, capsys):
    # the family refuses the split as its builder would, before any row
    out = tmp_path / "x.csv"
    code = main(["sweep", "--set", "scenario=cf_family",
                 "--set", "scenario_options.sub_letters=[3]",
                 "--set", "scenario_options.full_letters=[1,2]",
                 "--set", "epsilons=[0.5,0.25]", "--output", str(out)])
    assert code == 1
    (line,) = capsys.readouterr().out.splitlines()
    rec = json.loads(line)
    assert rec["error"] == "InvalidAlphabet"
    assert rec["message"] == "kept alphabet is not inside the full one"
    assert not out.exists()


def test_sweep_requires_output():
    cfg = parse_config('{"scenario": "affine_family"}')
    code, lines = capture("sweep", cfg)
    assert code == 1
    assert "output" in lines[0]["message"]


def test_probe_divergence_certifies_cf_degeneracy():
    cfg = parse_config(
        '{"scenario": "cf_family",'
        ' "scenario_options": {"sub_letters": [1, 2]},'
        ' "s": 0.99, "epsilons": [0.25, 0.0625]}'
    )
    code, lines = capture("probe-divergence", cfg)
    assert code == 0
    assert len(lines) == 2
    for rec, eps in zip(lines, (0.25, 0.0625)):
        assert rec["report"]["verdict"] == "diverges"
        assert rec["report"]["epsilon"] == eps
        assert rec["report"]["implied_lower_bound"] == 0.99
        assert rec["horizons"] == [5, 10, 20]


def test_reduce_golden_yields_simple_graph():
    cfg = parse_config('{"scenario": "golden"}')
    code, lines = capture("reduce", cfg)
    assert code == 0
    rec = lines[0]
    assert rec["reduced_from"] == "golden"
    assert len(rec["vertices"]) >= 2
    pairs = [(e["initial"], e["terminal"]) for e in rec["edges"]]
    assert len(pairs) == len(set(pairs))
    for e in rec["edges"]:
        assert "kind" in e["map"]


def test_main_reads_config_file_and_applies_overrides(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(
        json.dumps(
            {
                "scenario": "ladder_6_1",
                "scenario_options": {"truncate_vertices": 2},
                "s_tol": 0.01,
            }
        )
    )
    code = main(["dimension", "--config", str(path), "--set", "s_tol=0.001"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out)
    assert rec["s_tol"] == 0.001
    res = rec["result"]
    assert res["s_lower"] <= TWO_LOOP <= res["s_upper"]


def test_main_rejects_bad_epsilon(capsys):
    code = main(["sweep", "--set", "scenario=affine_family", "--set", "epsilon=1.5"])
    assert code == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["error"] == "SchemaViolation"
    assert "epsilon" in rec["message"]


def test_main_missing_config_file(tmp_path, capsys):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    for path in ("/nonexistent/nope.json", str(binary)):
        code = main(["analyze", "--config", path])
        assert code == 1
        rec = json.loads(capsys.readouterr().out)
        assert rec["error"] == "SchemaViolation"


def test_output_redirects_records(tmp_path):
    out = tmp_path / "dim.jsonl"
    cfg = parse_config(
        json.dumps(
            {
                "scenario": "cantor",
                "s_tol": 0.001,
                "output": str(out),
            }
        )
    )
    stream = io.StringIO()
    assert run("dimension", cfg, stream=stream) == 0
    assert stream.getvalue() == ""
    rec = json.loads(out.read_text())
    assert rec["result"]["s_lower"] <= 0.6309297535714574 <= rec["result"]["s_upper"]


def test_runconfig_is_frozen():
    cfg = parse_config('{"scenario": "cantor"}')
    with pytest.raises(Exception):
        cfg.digest = "nope"
    assert isinstance(cfg, RunConfig)


# stdout of main(), byte for byte.  The cf run ends at depth 7, and its
# component still names the letters of its class, not 7-letter word states.
# The affine_demo and ladder brackets moved when their classes began
# starting from the chain elimination; INSIDE holds the brackets pinned
# before that, which the moved ones must lie in.  The affine_demo and cf
# brackets moved again when primitive classes began iterating without the
# shift; EARLIER holds the brackets pinned before that, with the reference
# value each must hold (E12 for the cf digits {1, 2}).  Reweighting in the
# log domain then moved affine_demo's ends out by 1 ulp each and cf's upper
# end up by 1 ulp.  Running complete classes without scales, at the tighter
# CW_TOL, then moved both of cf's ends in, by 5.8e-12 and 1.3e-11; the cf
# bracket pinned before that joined its EARLIER, so each golden must meet
# every earlier pin and be no wider than any, up to WIDTH_NOISE.
GOLDEN_STDOUT = (
    (["dimension", "--set", "scenario=affine_demo"],
     '{"command": "dimension", '
     '"config_digest": "39de30c407bdb7c47177f4f9478ab3808872763fda94f0c55ce327ac081598cb", '
     '"result": {"component": ["(1, 1)", "(1, 2)", "(2, 1)"], '
     '"conditions": {"conformal-family": "certified", '
     '"separation": "certified-separated", "summability": "finite-alphabet", '
     '"validation": "passed"}, "evals": 5, "s_lower": 0.43181116278649795, '
     '"s_upper": 0.43181118117734735, "scope": "truncated", "theta": [0.0, '
     '0.0]}, "scenario": "affine_demo"}\n'),
    (["dimension", "--set", "scenario=cf", "--set", 'scenario_options={"letters": [1, 2]}',
      "--set", "s_tol=1e-3"],
     '{"command": "dimension", '
     '"config_digest": "b611339f82ffe0f44cb5df88dcad67a6624d289d633d1401caccdbd45ceb1f41", '
     '"result": {"component": ["(1+0j)", "(2+0j)"], '
     '"conditions": {"conformal-family": "certified", '
     '"separation": "inconclusive", "summability": "finite-alphabet", '
     '"validation": "passed"}, "evals": 12, "s_lower": 0.5310907111483115, '
     '"s_upper": 0.5313638327365373, "scope": "truncated", "theta": [0.0, '
     '0.0]}, "s_tol": 0.001, "scenario": "cf"}\n'),
    (["components", "--set", "scenario=affine_demo"],
     '{"command": "components", "component": ["(1, 1)", "(1, 2)", "(2, 1)"], '
     '"config_digest": "39de30c407bdb7c47177f4f9478ab3808872763fda94f0c55ce327ac081598cb", '
     '"result": {"component": ["(1, 1)", "(1, 2)", "(2, 1)"], "evals": 5, '
     '"s_lower": 0.43181116278649795, "s_upper": 0.43181118117734735, '
     '"scope": "truncated", "theta": [0.0, 0.0]}, "scenario": "affine_demo"}\n'),
    (["pressure", "--set", "scenario=ladder_6_1", "--set", "s=0.55"],
     '{"command": "pressure", '
     '"config_digest": "20cfb04fd7e98b255cdd2f7098f9720e04c7c7000a60e1e1f1c5a0aaa965bd97", '
     '"depth": 1, "estimate": {"depth": 1, "divergence": false, "horizon": 64, '
     '"lower": 0.08024816795537507, "s": 0.55, "scope": "full", '
     '"stalled": false, "tail_term": 0.0, "upper": 0.13935892564926286}, '
     '"horizon": 64, "scenario": "ladder_6_1"}\n'),
    (["analyze", "--set", "scenario=cf", "--set", 'scenario_options={"letters": [1, 2]}'],
     '{"checks": {"maps-into-seeds": {"detail": "2 edges, min containment margin 0", '
     '"status": "satisfied"}, "neighborhood-domain": {"detail": "all derivative ranges '
     'over neighborhoods finite", "status": "satisfied"}, "seed-contractibility": '
     '{"detail": "c_CJ = 1 over 1 vertices (0 without materialized out-edges)", '
     '"status": "satisfied"}, "seed-geometry": {"detail": "1 vertices, sup seed '
     'diameter 1", "status": "satisfied"}, "seed-inside-neighborhood": {"detail": '
     '"min margin 0.25", "status": "satisfied"}, "separation-open": {"detail": "1 '
     'sibling pairs, min gap 0", "status": "satisfied"}, "separation-strong": '
     '{"detail": "1 sibling pairs, min gap 0", "status": "inconclusive"}, '
     '"uniform-contraction": {"detail": "depth-2 rate 0.852071 (effective '
     '0.923077)", "status": "satisfied"}}, "command": "analyze", "config_digest": '
     '"d4cdaa7bd79047c6f3f715f0c00e15fc2b85bb937824004a14bce6c167fe392d", '
     '"findings": [], "scc": {"letters": 2, "nontrivial": 1, "sizes": [2]}, '
     '"scenario": "cf", "separation": {"min_gap": 0.0, "mode": "SSC", '
     '"pairs_checked": 1, "verdict": "inconclusive"}}\n'),
    (["analyze", "--set",
      'scenario={"kind": "similarity", "ratios": [0.6, 0.6], "offsets": [0.0, 0.1]}'],
     '{"checks": {"maps-into-seeds": {"detail": "2 edges, min containment margin 0", '
     '"status": "satisfied"}, "neighborhood-domain": {"detail": "all derivative ranges '
     'over neighborhoods finite", "status": "satisfied"}, "seed-contractibility": '
     '{"detail": "c_CJ = 1.66667 over 1 vertices (0 without materialized '
     'out-edges)", "status": "satisfied"}, "seed-geometry": {"detail": "1 vertices, '
     'sup seed diameter 1", "status": "satisfied"}, "seed-inside-neighborhood": '
     '{"detail": "min margin 0.25", "status": "satisfied"}, "separation-open": '
     '{"detail": "1 sibling pairs, min gap -0.5", "status": "violated"}, '
     '"separation-strong": {"detail": "1 sibling pairs, min gap -0.5", "status": '
     '"violated"}, "uniform-contraction": {"detail": "declared depth-1 rate 0.6", '
     '"status": "satisfied"}}, "command": "analyze", "config_digest": '
     '"aae9f702254f7b88b51ee6333357ab7256fc5831f0ed0b28865f39ff7ee280b1", '
     '"findings": [{"check": "separation-open", "detail": "1 sibling pairs, min gap '
     '-0.5", "status": "violated"}, {"check": "separation-strong", "detail": "1 '
     'sibling pairs, min gap -0.5", "status": "violated"}, {"check": "separation", '
     '"detail": "witness pair (0, 1), gap -0.5", "status": "overlap-witness"}], '
     '"scc": {"letters": 2, "nontrivial": 1, "sizes": [2]}, "scenario": '
     '"inline-similarity", "separation": {"min_gap": -0.49999999999999994, '
     '"mode": "SSC", "pairs_checked": 1, "verdict": "overlap-witness"}}\n'),
)


def test_analyze_sweeps_every_sibling_pair_of_the_countable_cf(capsys):
    # the default 4,096 letters on one vertex: 4096 * 4095 / 2 pairs, the
    # first touching pair leaving SSC inconclusive
    assert main(["analyze", "--set", "scenario=cf"]) == 0
    sep = json.loads(capsys.readouterr().out)["separation"]
    assert sep["pairs_checked"] == 8386560
    assert sep["verdict"] == "inconclusive"
    assert sep["min_gap"].hex() == "-0x1.4000000000000p-54"


CF_DIGITS_12 = 0.5312805062772051
EARLIER = {"dimension-affine_demo": (((0.431811162786498, 0.43181118117734735),), None),
           "components-affine_demo": (((0.431811162786498, 0.43181118117734735),), None),
           "dimension-cf12": (((0.5310907111384666, 0.5313638327449132),
                               (0.5310907111424975, 0.5313638327491755)), CF_DIGITS_12)}
# where the Collatz-Wielandt iteration stops inside CW_TOL moves a probe's
# pressure bracket by a few 1e-11, either way, so a moved bracket's width
# may also grow by that noise's share: by 2.3e-13 for cf, 2e-16 for
# affine_demo
WIDTH_NOISE = 1e-12
INSIDE = {"dimension-affine_demo": (0.43181116276980025, 0.43181118118191275),
          "components-affine_demo": (0.43181116276980025, 0.43181118118191275),
          "pressure-ladder_6_1": (0.0802481679134941, 0.13935892564926286)}
GOLDEN_IDS = ("dimension-affine_demo", "dimension-cf12", "components-affine_demo",
              "pressure-ladder_6_1", "analyze-cf12", "analyze-overlap")
# analyze exits 2 when it reports a finding
EXIT_CODE = {"analyze-overlap": 2}


@pytest.mark.parametrize("argv, want, inside, earlier, code", [
    (argv, want, INSIDE.get(name), EARLIER.get(name), EXIT_CODE.get(name, 0))
    for (argv, want), name in zip(GOLDEN_STDOUT, GOLDEN_IDS)],
    ids=GOLDEN_IDS)
def test_records_match_golden_stdout(argv, want, inside, earlier, code, capsys):
    assert main(argv) == code
    out = capsys.readouterr().out
    assert out == want
    if earlier is not None:
        olds, value = earlier
        result = json.loads(out)["result"]
        lo, hi = result["s_lower"], result["s_upper"]
        for old_lo, old_hi in olds:
            assert lo <= old_hi and old_lo <= hi
            assert hi - lo <= old_hi - old_lo + WIDTH_NOISE
        if value is not None:
            assert lo <= value <= hi
    if inside is not None:
        rec = json.loads(out)
        if "estimate" in rec:
            # the ladder's upper end is the declared full-system bound
            lo, hi = rec["estimate"]["lower"], rec["estimate"]["upper"]
            assert hi == inside[1]
        else:
            lo, hi = rec["result"]["s_lower"], rec["result"]["s_upper"]
        assert inside[0] <= lo <= hi <= inside[1]


# ---------------------------------------------------------------------------
# the scenario registry against the README


def readme_scenarios():
    """{name: (kind, required options, {optional option: default text})}
    from the README's table of built-in scenarios."""
    text = README.read_text()
    table = text[text.index("| scenario | kind |"):].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        name, kind, requires, accepts = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = (kind, set(re.findall(r"`(\w+)`", requires)),
                                 dict(re.findall(r"`(\w+)` \(([^)]*)\)", accepts)))
    return rows


def test_the_readme_names_each_scenario_with_its_options():
    rows = readme_scenarios()
    assert rows.keys() == _SCENARIOS.keys()
    for name, entry in _SCENARIOS.items():
        kind, requires, accepts = rows[name]
        assert kind == ("family" if entry.family else "system"), name
        assert requires == set(entry.requires), name
        assert accepts.keys() == entry.accepts.keys(), name
        for key, default in entry.accepts.items():
            if default is not None:
                assert accepts[key] == str(default), (name, key)


# a value for each option some scenario requires
REQUIRED_VALUES = {"sub_letters": [1, [2, 1]]}


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_every_scenario_builds_from_its_required_options_alone(name):
    entry = _SCENARIOS[name]
    cfg = parse_config(json.dumps({"scenario": name, "scenario_options": {
        key: REQUIRED_VALUES[key] for key in entry.requires}}))
    built = _build(cfg, family=entry.family)
    assert isinstance(built, PerturbationFamily if entry.family else GifsSystem)
    with pytest.raises(SchemaViolation, match="does not name a"):
        _build(cfg, family=not entry.family)


# ---------------------------------------------------------------------------
# inline configs never escape as untyped exceptions


@st.composite
def inline_configs(draw):
    """An inline similarity config: 1-4 ratios in (0, 1), down to the least
    subnormal, with offsets absent, all at 0 (overlapping), packed end to
    end (touching), or far outside the seed [0, 1]."""
    ratios = draw(st.lists(st.one_of(
        st.floats(5e-324, 1.0, exclude_max=True),
        st.sampled_from([5e-324, 1e-300, 1e-9, 0.5, 1.0 - 2.0 ** -53])), min_size=1, max_size=4))
    scenario = {"kind": "similarity", "ratios": ratios}
    placement = draw(st.sampled_from(["absent", "overlapping", "touching", "far"]))
    if placement == "overlapping":
        scenario["offsets"] = [0.0] * len(ratios)
    elif placement == "touching":
        scenario["offsets"] = [math.fsum(ratios[:i]) for i in range(len(ratios))]
    elif placement == "far":
        far = st.floats(2.0, 1e300) | st.floats(-1e300, -2.0)
        scenario["offsets"] = draw(st.lists(far, min_size=len(ratios), max_size=len(ratios)))
    return {"scenario": scenario, "s": draw(st.floats(0.0, 2.0)), "s_tol": 1e-3}


# one record per run, and one per component for components (at least one)
ONE_RECORD = ("analyze", "pressure", "dimension", "reduce")


@settings(max_examples=100, deadline=None)
@given(obj=inline_configs())
def test_inline_configs_exit_with_a_code_and_json_lines(obj):
    cfg = parse_config(json.dumps(obj))
    for command in ONE_RECORD + ("components",):
        stream = io.StringIO()
        code = run(command, cfg, stream=stream)
        assert code in (0, 1, 2), command
        text = stream.getvalue()
        assert text.endswith("\n"), command
        lines = [json.loads(line) for line in text.splitlines()]
        assert all(isinstance(rec, dict) for rec in lines), command
        assert len(lines) == 1 if command in ONE_RECORD or code == 1 else len(lines) >= 1
