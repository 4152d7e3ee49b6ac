import argparse
import contextlib
import csv
import inspect
import io
import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symperc import graphs, groups, mc, scenarios
from symperc.cli import main, to_stable_json
from symperc.scenarios import builtin_scenarios

from _oracles import json_values, stable_json


def test_hypercube_exact_exit_zero(tmp_path):
    out = tmp_path / "hc.json"
    code = main(["hypercube", "--d", "3", "--p", "1/2", "--mode", "exact",
                 "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["schema"] == "symperc-report/5"


@pytest.mark.parametrize("law", ["site", "rc:2", "rc:1/2"])
def test_hypercube_document_exits_zero_under_every_law(law, tmp_path):
    # c_0 is 1 and every instance gap is its c-value prediction
    doc, out = tmp_path / "hc.json", tmp_path / "report.json"
    doc.write_text(json.dumps({
        "report": "hypercube", "graph": {"builder": "hypercube", "d": 3},
        "origin": 0, "law": law, "p_grid": ["1/2", "30/83", "2/89", "88/89"]}))
    assert main(["enumerate", "--scenario", str(doc), "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass" and report["invariance"] is True
    for entry in report["results"]:
        assert entry["c_values"][0] == "1"
        assert all(inst["expectation_gap"] == inst["predicted_gap"]
                   for inst in entry["instances"])


def test_json_reports_round_trip_byte_identically(tmp_path):
    out = tmp_path / "report.json"
    main(["bunkbed", "--base", "cycle:3", "--p", "1/2,2/3",
          "--json", str(out)])
    raw = out.read_text()
    assert to_stable_json(json.loads(raw)) == raw


@settings(max_examples=300, deadline=None, derandomize=True)
@given(json_values())
def test_report_writer_equals_the_stdlib_encoder(value):
    assert to_stable_json(value) == stable_json(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_report_writer_refuses_non_finite_floats(bad):
    for value in (bad, [1, bad], {"a": {"b": (True, bad)}}):
        with pytest.raises(ValueError):
            stable_json(value)
        with pytest.raises(ValueError):
            to_stable_json(value)


def test_report_writer_takes_string_keys_only():
    with pytest.raises(TypeError, match="report keys must be str"):
        to_stable_json({"a": {1: "b"}})


def _strict_json(text: str):
    """Parse RFC 8259 JSON: ``Infinity``, ``-Infinity`` and ``NaN`` fail."""
    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in a report")
    return json.loads(text, parse_constant=reject)


_VERDICTS = {"pass", "violation", "inconclusive"}
_VALUE_KEYS = {"expected_plus", "expected_minus", "margin", "c_values",
               "double_sum", "abs_derivative_at_0", "abs_derivative_at_l"}


def _walk(node, key=None):
    """Every (key, value) pair in a report, nested ones included."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield k, v
            yield from _walk(v, k)
    elif isinstance(node, list):
        for v in node:
            yield key, v
            yield from _walk(v, key)


def _shape_reports() -> dict:
    bunkbed = scenarios.load_scenario("builtin:bunkbed-path2")
    return {
        "exact": scenarios.run_scenario(bunkbed),
        **{f"mc-n{n}": scenarios.run_scenario(
            bunkbed._replace(mode="mc", mc_n=n)) for n in (1, 300)},
        "z2": scenarios.run_scenario(scenarios.z2_scenario(3, ["1/2"]),
                                     require_conditions=True),
        "verify-identity": scenarios.verify_identity_report(bunkbed),
        "hypercube": scenarios.hypercube_inequality_report(
            scenarios.hypercube_scenario(2, ["1/3", "1/2"])),
        **{f"hypercube-mc-n{n}": scenarios.hypercube_inequality_report(
            scenarios.hypercube_scenario(2, ["1/2"], mode="mc", mc_n=n))
           for n in (1, 300)},
        "group-battery": scenarios.group_theorem_battery("d4-on-c4", 20, 3),
        "check-symmetry": scenarios.check_symmetry_report(bunkbed),
    }


def test_reports_have_one_result_shape():
    reports = _shape_reports()
    for name, report in reports.items():
        pairs = list(_walk(_strict_json(to_stable_json(report))))
        for key, value in pairs:
            if key == "verdict":
                assert value in _VERDICTS | {"precondition_failed"}, name
            elif key.endswith("_verdict"):
                assert value in _VERDICTS, (name, key)
            if isinstance(value, dict) and {"estimate", "stderr",
                                            "ci"} & set(value):
                assert set(value) == {"estimate", "stderr", "ci"}, name
                assert len(value["ci"]) == 2, name
            if key in _VALUE_KEYS and not isinstance(value, list):
                # exact values are "num/den" strings, sampled ones records
                assert isinstance(value, str if report["mode"] == "exact"
                                  else dict), (name, key)
    exact_dom = reports["exact"]["results"][0]["domination"]
    for mc_name in ("mc-n1", "mc-n300"):
        mc_dom = reports[mc_name]["results"][0]["domination"]
        assert set(mc_dom) == set(exact_dom) == {"verdict", "thresholds"}
        assert {frozenset(row) for row in mc_dom["thresholds"]} == {
            frozenset(row) for row in exact_dom["thresholds"]} == {
            frozenset({"t", "margin", "verdict"})}
        mc_rows = reports[mc_name.replace("mc", "hypercube-mc")]["results"]
        assert {frozenset(row) for entry in mc_rows for row in entry["rows"]} \
            == {frozenset(row) for entry in reports["hypercube"]["results"]
                for row in entry["rows"]}


def test_check_symmetry_failure_exit_three():
    assert main(["check-symmetry", "--scenario", "builtin:bunkbed-path3"]) == 3


def test_check_symmetry_pass_exit_zero():
    assert main(["check-symmetry", "--scenario", "builtin:bunkbed-cycle3"]) == 0


def test_verify_group_theorem_exit_zero():
    assert main(["verify-group-theorem", "--group", "d4-on-c4",
                 "--trials", "100", "--seed", "7"]) == 0


def test_verify_identity_builtin_scenarios():
    assert main(["verify-identity", "--scenario",
                 "builtin:bunkbed-cycle3-site"]) == 0
    assert main(["verify-identity", "--scenario",
                 "builtin:bunkbed-path2-rc2"]) == 0
    # no symmetry, no identity claim
    assert main(["verify-identity", "--scenario", "builtin:asym-path4"]) == 3


def test_enumerate_violation_exit_one():
    assert main(["enumerate", "--scenario", "builtin:asym-path4"]) == 1


def test_mc_exit_codes():
    assert main(["mc", "--scenario", "builtin:bunkbed-path2",
                 "--n", "20000", "--seed", "5"]) == 0
    # ten samples cannot resolve anything
    assert main(["mc", "--scenario", "builtin:bunkbed-path2",
                 "--n", "10", "--seed", "5"]) == 2
    assert main(["mc", "--scenario", "builtin:asym-path4",
                 "--n", "50000", "--seed", "5"]) == 1


def test_layered_cli_and_preconditions():
    assert main(["layered", "--base", "path:1", "--m", "8", "--choice", "b",
                 "--k", "1", "--period", "2", "--p", "1/2"]) == 0
    assert main(["layered", "--base", "path:1", "--m", "8", "--choice", "b",
                 "--k", "1", "--period", "3"]) == 3


def test_bunkbed_cli_precondition():
    assert main(["bunkbed", "--base", "path:3", "--p", "1/2"]) == 3


def test_z2_cli(tmp_path):
    out = tmp_path / "z2.csv"
    code = main(["z2", "--size", "3", "--p", "1/2", "--csv", str(out)])
    assert code == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["scenario", "p", "quantity", "value", "lo", "hi",
                       "mode", "verdict"]
    assert any("relation-1" in row[2] for row in rows[1:])


def test_cap_flag_exit_three():
    assert main(["hypercube", "--d", "4", "--p", "1/2"]) == 3


def _cycle28_file(tmp_path) -> str:
    # 28 edges, past the default cap of 2^26; the reflection through the
    # edge 01 swaps the two sets
    path = tmp_path / "cycle28.json"
    path.write_text(json.dumps({
        "name": "cycle28", "graph": {"builder": "cycle", "n": 28},
        "origin": 0, "v_plus": [0], "v_minus": [1],
        "generators": [{"perm": [(1 - i) % 28 for i in range(28)]}],
        "cap_bits": 28}))
    return str(path)


@pytest.mark.parametrize("command", ["enumerate", "verify-identity"])
def test_scenario_file_cap_holds_unless_cap_is_given(command, tmp_path,
                                                     capsys):
    doc = _cycle28_file(tmp_path)
    out = tmp_path / "report.json"
    assert main([command, "--scenario", doc, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["config_count"] == 2**28
    capsys.readouterr()
    assert main([command, "--scenario", doc, "--cap", "26"]) == 3
    assert "cap is 2^26" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# a report's scenario block is the document that replays it

_BUILTINS = sorted(scenarios.BUILTINS)
_REPLAYED = [
    *[["enumerate", "--scenario", f"builtin:{name}"] for name in _BUILTINS],
    # every builtin that Monte Carlo mode takes: those of the bond law
    *[["mc", "--scenario", f"builtin:{name}", "--n", "2000", "--level",
       "0.99"] for name in _BUILTINS
      if builtin_scenarios()[name]["law"] == {"kind": "bond"}],
    ["mc", "--scenario", "builtin:mc-bunkbed-path2"],
    ["bunkbed", "--base", "cycle:12", "--law", "site", "--p", "1/2"],
    ["bunkbed", "--base", "cycle:8", "--law", "rc:2", "--p", "1/2"],
    ["bunkbed", "--base", "cycle:4", "--law", "rc:2"],
    ["bunkbed", "--base", "cycle:5", "--mode", "mc", "--n", "2000", "--seed",
     "42"],
    ["bunkbed", "--base", "path:3"],
    ["layered", "--base", "path:1", "--m", "8", "--choice", "b", "--k", "1",
     "--period", "2"],
    ["layered", "--base", "path:2", "--m", "6", "--choice", "c", "--k", "1",
     "--period", "3", "--mode", "mc", "--n", "2000", "--level", "0.99"],
    ["z2", "--size", "3"],
    ["z2", "--size", "5", "--mode", "mc", "--n", "1000", "--p", "1/2"],
    ["hypercube", "--d", "3"],
    ["hypercube", "--d", "2", "--mode", "mc", "--n", "1"],
    ["hypercube", "--d", "3", "--mode", "mc", "--n", "2000", "--level",
     "0.99"],
]


def _replay(report: dict, tmp_path) -> tuple[int, dict]:
    """Run a report's scenario block as a document, under ``mc`` with the
    report's level or under ``enumerate``."""
    doc, out = tmp_path / "replay-doc.json", tmp_path / "replay.json"
    doc.write_text(json.dumps(report["scenario"]))
    argv = (["mc", "--scenario", str(doc), "--level",
             str(report["mc"]["level"])] if report["mode"] == "mc"
            else ["enumerate", "--scenario", str(doc)])
    code = main([*argv, "--json", str(out)])
    return code, json.loads(out.read_text())


@pytest.mark.parametrize("argv", _REPLAYED, ids=" ".join)
def test_reports_replay_from_their_scenario_block(argv, tmp_path):
    out = tmp_path / "report.json"
    code = main([*argv, "--json", str(out)])
    report = json.loads(out.read_text())
    again_code, again = _replay(report, tmp_path)
    assert again_code == code
    for rep in (report, again):
        rep.pop("elapsed_seconds")
    assert to_stable_json(again) == to_stable_json(report)


def test_flags_override_a_hypercube_document_before_its_cap(tmp_path,
                                                            capsys):
    # the 3-cube has 12 edges: a document capped at 11 is refused unless
    # --cap lifts it, and then it runs as the hypercube report
    doc = tmp_path / "cube.json"
    doc.write_text(json.dumps({**scenarios.scenario_echo(
        scenarios.hypercube_scenario(3)), "cap_bits": 11}))
    assert main(["enumerate", "--scenario", str(doc)]) == 3
    assert capsys.readouterr().err == (
        "precondition failure: enumeration needs 2^12 configurations, cap is "
        "2^11\n")
    out = tmp_path / "report.json"
    assert main(["enumerate", "--scenario", str(doc), "--cap", "12",
                 "--json", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["kind"] == "hypercube" and report["invariance"] is True
    assert report["scenario"]["cap_bits"] == 12


@pytest.mark.parametrize("command", ["check-symmetry", "verify-identity"])
@pytest.mark.parametrize("argv", [["z2", "--size", "3"],
                                  ["hypercube", "--d", "2"]])
def test_one_pair_commands_refuse_other_documents(command, argv, tmp_path,
                                                  capsys):
    # a document of several relations, or of the cube, is one line on
    # stderr and exit 4
    out, doc = tmp_path / "report.json", tmp_path / "doc.json"
    assert main([*argv, "--json", str(out)]) == 0
    doc.write_text(json.dumps(json.loads(out.read_text())["scenario"]))
    capsys.readouterr()
    assert main([command, "--scenario", str(doc)]) == 4
    assert capsys.readouterr().err == (
        f"scenario error: {command} takes a scenario with one unnamed "
        "relation\n")


@pytest.mark.parametrize("ref, flags, n, seed", [
    (None, [], 50, 42),
    (None, ["--seed", "5"], 50, 5),
    (None, ["--n", "30"], 30, 42),
    (None, ["--n", "30", "--seed", "0"], 30, 0),
    ("builtin:mc-bunkbed-path2", ["--n", "10"], 10, 42),
    ("builtin:mc-bunkbed-path2", ["--n", "10", "--seed", "5"], 10, 5),
])
def test_scenario_n_and_seed_hold_unless_given(ref, flags, n, seed,
                                               tmp_path):
    doc = ref or _scenario_file(tmp_path, mode="mc", mc={"n": 50, "seed": 42})
    out = tmp_path / "report.json"
    assert main(["mc", "--scenario", doc, *flags, "--json", str(out)]) in (0, 2)
    assert json.loads(out.read_text())["mc"] == {"n": n, "seed": seed,
                                                 "level": 0.95}


# Each entry is one Monte Carlo run (its argv and exit code) with the
# results blocks it wrote: every estimate, stderr, interval and verdict.
# A change to the interval method updates this file on purpose.
_MC_INTERVALS = json.loads(
    Path(__file__).with_name("mc_interval_reference.json").read_text())


@pytest.mark.parametrize("run", _MC_INTERVALS,
                         ids=lambda run: " ".join(run["argv"]))
def test_mc_interval_records_match_the_reference(run, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([*run["argv"], "--json", str(out)])
    report = json.loads(out.read_text())
    results = (report["results"] if "results" in report else
               {rel["name"]: rel["results"] for rel in report["relations"]})
    assert (code, results) == (run["exit"], run["results"])


@pytest.mark.parametrize("argv, units", [
    (["hypercube", "--d", "11"], 11 * 2**10),
    (["z2", "--size", "40"], 2 * 40 * 40),
    # the bunkbed and the cylinder of Q30: the base alone has 2^30 vertices
    (["bunkbed", "--base", "hypercube:30", "--p", "1/2"],
     2 * (30 << 29) + (1 << 30)),
    (["layered", "--base", "hypercube:30", "--m", "4", "--choice", "a",
      "--k", "1"], 4 * (30 << 29) + 4 * (1 << 30)),
])
def test_cap_checked_before_the_graph_is_built(argv, units, monkeypatch,
                                               capsys):
    built = []
    for name in ("hypercube_graph", "torus_graph"):
        monkeypatch.setattr(graphs, name,
                            lambda *args, name=name: built.append(name))
    monkeypatch.setattr(scenarios, "build_graph",
                        lambda *args: built.append("build_graph"))
    assert main(argv) == 3
    assert built == []
    assert capsys.readouterr().err == (
        f"precondition failure: enumeration needs 2^{units} "
        "configurations, cap is 2^26\n")


_BAD_P = "bad p '0': probability must lie strictly between 0 and 1, got 0"
_BAD_N = "need n >= 1 Monte Carlo samples, got 0"


@pytest.mark.parametrize("argv, message", [
    pytest.param(["bunkbed", "--base", "cycle:200", "--p", "0"], _BAD_P,
                 id="bunkbed-p"),
    pytest.param(["layered", "--base", "cycle:20", "--m", "40", "--choice",
                  "b", "--k", "1", "--period", "2", "--p", "0"], _BAD_P,
                 id="layered-p"),
    pytest.param(["bunkbed", "--base", "hypercube:40", "--mode", "mc", "--n",
                  "0"], _BAD_N, id="bunkbed-n"),
    pytest.param(["z2", "--size", "40", "--p", "0"], _BAD_P, id="z2-p"),
    pytest.param(["hypercube", "--d", "40", "--mode", "mc", "--n", "0"],
                 _BAD_N, id="hypercube-n"),
])
def test_bad_flag_reported_before_the_graph_size(argv, message, monkeypatch,
                                                 capsys):
    # every instance subcommand checks its flags before the size of its
    # graph, and builds no graph for a run it refuses
    built = []
    for name in ("hypercube_graph", "torus_graph"):
        monkeypatch.setattr(graphs, name,
                            lambda *args, name=name: built.append(name))
    monkeypatch.setattr(scenarios, "build_graph",
                        lambda *args: built.append("build_graph"))
    assert main(argv) == 4
    assert built == []
    assert capsys.readouterr().err == f"scenario error: {message}\n"


# The flags of each subcommand; a change to the shared option list must not
# add or lose one.
_FLAGS = {"--csv", "--json", "--p", "--threads"}
_INSTANCE_FLAGS = _FLAGS | {"--cap", "--level", "--mode", "--n", "--seed"}


@pytest.mark.parametrize("name, flags", [
    ("bunkbed", _INSTANCE_FLAGS | {"--base", "--law"}),
    ("check-symmetry", {"--json", "--scenario"}),
    ("enumerate", _FLAGS | {"--cap", "--scenario"}),
    ("hypercube", _INSTANCE_FLAGS | {"--d"}),
    ("layered", _INSTANCE_FLAGS | {"--base", "--choice", "--k", "--m",
                                   "--period"}),
    ("mc", _FLAGS | {"--level", "--n", "--scenario", "--seed"}),
    ("verify-group-theorem", {"--csv", "--group", "--json", "--seed",
                              "--trials"}),
    ("verify-identity", _FLAGS | {"--cap", "--scenario"}),
    ("z2", _INSTANCE_FLAGS | {"--size"}),
])
def test_subcommand_flags(name, flags):
    from symperc.cli import _parser

    commands, = (action for action in _parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    actions = commands.choices[name]._actions
    assert sorted(opt for action in actions for opt in action.option_strings
                  if not isinstance(action, argparse._HelpAction)) == sorted(
        flags)


@pytest.mark.parametrize("argv, units", [
    (["bunkbed", "--base", "cycle:200"], 3 * 200),
    (["bunkbed", "--base", "cycle:200", "--law", "site"], 2 * 200),
    (["layered", "--base", "cycle:20", "--m", "40", "--choice", "b", "--k",
      "1", "--period", "2"], 2 * 20 * 40),
    (["enumerate", "--scenario", {"graph": {"builder": "cycle", "n": 40},
                                  "v_plus": [0], "v_minus": [20],
                                  "origin": 0,
                                  "generators": [[*range(1, 40), 0]]}], 40),
])
def test_cap_checked_before_the_groups_are_closed(argv, units, tmp_path,
                                                  monkeypatch, capsys):
    # neither a stabilizer chain nor a symmetry check before the cap check
    closed = []
    for name in ("_schreier_sims", "check_symmetry_conditions"):
        monkeypatch.setattr(groups, name, lambda *args, name=name, **kwargs:
                            closed.append(name))
    argv = [_scenario_file(tmp_path, **a) if isinstance(a, dict) else a
            for a in argv]
    assert main(argv) == 3
    assert closed == []
    assert capsys.readouterr().err == (
        f"precondition failure: enumeration needs 2^{units} "
        "configurations, cap is 2^26\n")


def _spy(monkeypatch, module, name) -> list:
    """Record the arguments of every call to ``module.name``, which still
    runs."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("argv, code", [
    (["enumerate", "--scenario", "builtin:bunkbed-cycle3"], 0),
    (["enumerate", "--scenario", "builtin:asym-path4"], 1),
    (["mc", "--scenario", "builtin:bunkbed-path2", "--n", "2000"], 0),
    (["mc", "--scenario", "builtin:asym-path4", "--n", "500"], 1),
    (["verify-identity", "--scenario", "builtin:bunkbed-cycle3"], 0),
    (["verify-identity", "--scenario", "builtin:bunkbed-path3"], 3),
    (["bunkbed", "--base", "cycle:5"], 0),
    (["bunkbed", "--base", "cycle:5", "--mode", "mc", "--n", "500"], 0),
    (["layered", "--base", "path:1", "--m", "8", "--choice", "c", "--k", "3",
      "--period", "2"], 0),
    (["layered", "--base", "cycle:3", "--m", "8", "--choice", "b", "--k", "1",
      "--period", "4", "--mode", "mc", "--n", "500"], 0),
    (["z2", "--size", "3"], 0),
    (["z2", "--size", "5", "--mode", "mc", "--n", "500"], 0),
    (["hypercube", "--d", "3"], 0),
])
def test_report_pipeline_builds_no_stabilizer_chain(argv, code, monkeypatch,
                                                    capsys):
    # the conditions come from generator images and orbits alone
    chains = _spy(monkeypatch, groups, "_schreier_sims")
    assert main(argv) == code
    assert chains == []


@pytest.mark.parametrize("argv, code, built", [
    (["check-symmetry", "--scenario", "builtin:bunkbed-cycle3"], 0, 1),
    # one chain per orbit of the union: the ends and the middle of the path
    (["check-symmetry", "--scenario", "builtin:bunkbed-path3"], 3, 2),
    (["verify-group-theorem", "--group", "bunkbed-c3"], 0, 1),
    # a generator that is no automorphism is refused before the chain
    (["check-symmetry", "--scenario", {"generators": [[1, 0, 2, 3]]}], 3, 0),
    # 100 orbits in the union, but swap transitivity fails at the first
    # cross pair, whose two orbits are the only ones read
    (["check-symmetry", "--scenario", {
        "graph": {"builder": "path", "n": 200}, "origin": 0,
        "v_plus": [*range(100)], "v_minus": [*range(100, 200)],
        "generators": [{"name": "axis_reflection", "axis": 0,
                        "center2": 199}]}], 3, 2),
])
def test_group_reports_build_one_stabilizer_chain(argv, code, built, tmp_path,
                                                  monkeypatch, capsys):
    # swap transitivity, the group order and the lemmas need one stabilizer
    # chain for each orbit they read
    chains = _spy(monkeypatch, groups, "_schreier_sims")
    argv = [_scenario_file(tmp_path, **a) if isinstance(a, dict) else a
            for a in argv]
    assert main(argv) == code
    assert len(chains) == built


def test_monte_carlo_report_sizes_its_graph_spec_only_to_check_it(
        monkeypatch, capsys):
    # the constructor and the run check the size from one sizing, which a
    # bunkbed spec recurses into its base for
    calls = _spy(monkeypatch, graphs, "spec_size")
    assert main(["bunkbed", "--base", "cycle:5", "--mode", "mc", "--n",
                 "100"]) == 0
    assert len(calls) == 2


@pytest.mark.parametrize("argv, sizings", [
    (["enumerate", "--scenario", "builtin:bunkbed-cycle5"], 2),
    (["bunkbed", "--base", "cycle:6", "--law", "rc:2"], 2),
    (["verify-identity", "--scenario", "builtin:bunkbed-path2"], 2),
    (["layered", "--base", "path:1", "--m", "6", "--choice", "a", "--k", "3"],
     2),
    (["z2", "--size", "3"], 1),
])
def test_an_exact_command_sizes_its_graph_once(argv, sizings, monkeypatch,
                                               capsys):
    # the digit check of every Scenario copy, the constructor's size check
    # and the report's share one sizing (and a product spec's recursion
    # into its base): each copy sized the spec again, 12 calls for the
    # first command here
    calls = _spy(monkeypatch, graphs, "spec_size")
    assert main(argv) == 0
    assert len(calls) == sizings


@pytest.mark.parametrize("argv, vertices, edges", [
    (["hypercube", "--d", "40", "--mode", "mc", "--n", "1"],
     1 << 40, 40 << 39),
    (["z2", "--size", "600", "--mode", "mc", "--n", "1"],
     600 * 600, 2 * 600 * 600),
    (["bunkbed", "--base", "hypercube:40", "--mode", "mc", "--n", "1"],
     1 << 41, 2 * (40 << 39) + (1 << 40)),
    (["layered", "--base", "cycle:1000", "--m", "1000", "--choice", "a",
      "--k", "1", "--mode", "mc", "--n", "1"], 10**6, 2 * 10**6),
    (["mc", "--scenario", {"graph": {"builder": "torus", "n": 600, "m": 600},
                           "v_plus": [0], "v_minus": [1], "origin": 0},
      "--n", "1"], 600 * 600, 2 * 600 * 600),
    (["check-symmetry", "--scenario", {
        "graph": {"builder": "torus", "n": 600, "m": 600}, "mode": "mc",
        "v_plus": [0], "v_minus": [1], "origin": 0}],
     600 * 600, 2 * 600 * 600),
])
def test_mc_graph_size_checked_before_the_graph_is_built(
        argv, vertices, edges, tmp_path, monkeypatch, capsys):
    # past 2^20 vertices + edges even the smallest chunk overfills the
    # sampler's state, so the graph is refused before it is built
    argv = [_scenario_file(tmp_path, **a) if isinstance(a, dict) else a
            for a in argv]
    built = []
    monkeypatch.setattr(scenarios, "build_graph",
                        lambda *args: built.append("build_graph"))
    monkeypatch.setattr(graphs, "hypercube_graph",
                        lambda *args: built.append("hypercube_graph"))
    assert main(argv) == 3
    assert built == []
    assert capsys.readouterr().err == (
        f"precondition failure: Monte Carlo graph has {vertices} vertices "
        f"and {edges} edges; the sampler takes at most 1048576 vertices + "
        "edges\n")


@pytest.mark.parametrize("argv, events", [
    (["bunkbed", "--base", "cycle:3", "--mode", "mc", "--n", "50"],
     ["check", "build", "check", "build"]),
    (["layered", "--base", "path:1", "--m", "6", "--choice", "a", "--k", "3",
      "--mode", "mc", "--n", "50"], ["check", "build", "check", "build"]),
    (["z2", "--size", "3", "--mode", "mc", "--n", "50"],
     ["check", "check", "build"]),
    (["hypercube", "--d", "2", "--mode", "mc", "--n", "50"],
     ["check", "build"]),
    (["mc", "--scenario", "builtin:bunkbed-path2", "--n", "50"],
     ["check", "build", "check", "build"]),
    (["check-symmetry", "--scenario", "builtin:mc-bunkbed-path2"],
     ["check", "build", "check", "build"]),
])
def test_one_size_check_before_each_graph_build(argv, events, monkeypatch,
                                                capsys):
    # each constructor checks the size (before it builds a base graph) and
    # each report before it builds the graph; a Scenario and its _replace
    # copies check none
    seen = []
    check, build = scenarios._check_size, scenarios.build_graph
    monkeypatch.setattr(scenarios, "_check_size",
                        lambda sc: (seen.append("check"), check(sc))[1])
    monkeypatch.setattr(scenarios, "build_graph",
                        lambda spec: (seen.append("build"), build(spec))[1])
    assert main(argv) in (0, 2)
    assert seen == events


@pytest.mark.parametrize("generator, code, err", [
    ({"name": "axis_rotation"}, 4, "scenario error: bad generator"),
    ({"name": "compose", "of": 5}, 4, "scenario error: bad generator"),
    ({"name": "no-such"}, 4, "scenario error: unknown generator"),
])
def test_generator_errors_exit_four_under_the_cap(generator, code, err,
                                                  tmp_path, capsys):
    path = _scenario_file(tmp_path, graph={"builder": "cycle", "n": 20},
                          v_plus=[0], v_minus=[10], origin=0,
                          generators=[generator])
    assert main(["enumerate", "--scenario", path]) == code
    assert capsys.readouterr().err.startswith(err)


@pytest.mark.parametrize("generator, axis", [
    ({"name": "axis_reflection", "axis": 5}, 5),
    ({"name": "axis_reflection", "axis": 2}, 2),
    ({"name": "axis_rotation", "axis": -3}, -3),
    ({"name": "swap_axes", "a": 0, "b": 7}, 7)])
def test_an_axis_past_the_labels_is_named(generator, axis, tmp_path, capsys):
    path = _scenario_file(tmp_path, graph={"builder": "torus", "n": 3, "m": 3},
                          v_plus=[[0, 0], [1, 1]], v_minus=[[1, 0], [0, 1]],
                          origin=[0, 0], generators=[generator])
    assert main(["enumerate", "--scenario", path]) == 4
    assert capsys.readouterr().err == (
        f"scenario error: {generator['name']} axis {axis} is outside the 2 "
        "label axes\n")


@pytest.mark.parametrize("generator", [
    {"name": "axis_rotation"}, {"name": "compose", "of": 5},
    {"name": "no-such"}])
def test_cap_refuses_a_document_before_its_generators(generator, tmp_path,
                                                      monkeypatch, capsys):
    # the size comes from the spec, so a document both over the cap and
    # with a bad generator exits 3 without building its graph
    path = _scenario_file(tmp_path, graph={"builder": "cycle", "n": 40},
                          v_plus=[0], v_minus=[20], origin=0,
                          generators=[generator])
    built = []
    monkeypatch.setattr(scenarios, "build_graph",
                        lambda *args: built.append("build_graph"))
    assert main(["enumerate", "--scenario", path]) == 3
    assert built == []
    assert capsys.readouterr().err == (
        "precondition failure: enumeration needs 2^40 configurations, "
        "cap is 2^26\n")


def test_usage_errors_exit_four():
    assert main(["enumerate", "--scenario", "builtin:no-such"]) == 4
    assert main(["enumerate"]) == 4  # missing required option
    assert main(["no-such-command"]) == 4
    assert main(["bunkbed", "--base", "mystery", "--p", "1/2"]) == 4
    assert main(["enumerate", "--scenario", "/does/not/exist.json"]) == 4


@pytest.mark.parametrize("argv, prefix", [
    ([], "usage error: "),
    (["enumerate"], "usage error: "),
    (["no-such-command"], "usage error: "),
    (["check-symmetry", "--scenario", "builtin:bunkbed-path2", "--no-such"],
     "usage error: "),
    # no option is taken from a prefix of its name
    (["check-symmetry", "--scen", "builtin:bunkbed-path2"], "usage error: "),
    (["hypercube", "--d", "x"], "usage error: "),
    (["hypercube", "--d", "2", "--mode", "z"], "usage error: "),
    (["mc", "--scenario", "builtin:bunkbed-path2", "--level", "0.5"],
     "usage error: "),
    (["layered", "--base", "path:1", "--m", "6", "--choice", "z", "--k", "1"],
     "usage error: "),
    (["verify-group-theorem", "--group", "d4-on-c4", "--trials", "-1"],
     "usage error: "),
    (["mc", "--scenario", "builtin:bunkbed-path2", "--threads", "-3"],
     "scenario error: "),
])
def test_command_line_refusals_are_one_line(argv, prefix, capsys):
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(prefix) and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["--help"], ["enumerate", "--help"], ["layered", "--help"]])
def test_help_exits_zero(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: symperc") and err == ""


def test_option_equals_value(tmp_path):
    out = tmp_path / "r.json"
    assert main(["check-symmetry", "--scenario=builtin:bunkbed-cycle3",
                 f"--json={out}"]) == 0
    assert json.loads(out.read_text())["verdict"] == "pass"


def test_csv_exact_columns(tmp_path):
    out = tmp_path / "r.csv"
    main(["enumerate", "--scenario", "builtin:bunkbed-path2",
          "--csv", str(out)])
    with open(out) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    assert header == ["scenario", "p", "quantity", "value", "lo", "hi",
                      "mode", "verdict"]
    quantities = {row[2] for row in body}
    assert {"expected_plus", "expected_minus", "margin_t1"} <= quantities
    lookup = {row[2]: row[3] for row in body}
    assert lookup["expected_plus"] == "25/16"
    assert lookup["expected_minus"] == "1"


def _scenario_file(tmp_path, **changes):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**builtin_scenarios()["bunkbed-path2"],
                                **changes}))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["bunkbed", "--base", "cycle:3", "--p", "0"],
    ["z2", "--size", "3", "--p", "2"],
    ["bunkbed", "--base", "cycle:3", "--law", "percolation"],
    ["mc", "--scenario", "builtin:bunkbed-path2", "--n", "0"],
    ["enumerate", "--scenario", {"p_grid": ["2"]}],
    ["mc", "--scenario", {"mc": {"n": "many"}}],
    ["enumerate", "--scenario", {"p_grid": 0.5}],
    ["enumerate", "--scenario", {"p_grid": "1/3"}],
    ["verify-group-theorem", "--group", "d4-on-c4", "--trials", "-3"],
    ["enumerate", "--scenario", {"generators": [{"name": "axis_rotation"}]}],
    ["enumerate", "--scenario", {"graph": {"builder": "cycle", "n": "x"}}],
    ["bunkbed", "--base", '{"builder": "cycle", "n": "x"}'],
    ["enumerate", "--scenario", {"generators": [{"name": "compose",
                                                 "of": 5}]}],
    ["check-symmetry", "--scenario", {"generators": 5}],
    ["enumerate", "--scenario", {"graph": {"builder": "cycle"}}],
    ["enumerate", "--scenario", {"graph": {"n": 3}}],
    ["check-symmetry", "--scenario", {"graph": {"builder": "mystery"}}],
    ["bunkbed", "--base", '{"builder": "mystery"}'],
    ["layered", "--base", '{"builder": "bunkbed", "base": {"builder": "x"}}',
     "--m", "6", "--choice", "a", "--k", "1"],
    ["enumerate", "--scenario", {"generators": [{"name": "no-such"}]}],
    ["check-symmetry", "--scenario", {"generators": [5]}],
    ["hypercube", "--d", "2", "--p", ","],
    ["hypercube", "--d", "2", "--p", ",", "--mode", "mc", "--n", "10"],
    ["check-symmetry", "--scenario", "builtin:bunkbed-path2", "--json",
     "/nonexistent/dir/x.json"],
    ["enumerate", "--scenario", "builtin:bunkbed-path2", "--csv", "."],
    ["hypercube", "--d", "2", "--p", ""],
    ["hypercube", "--d", "2", "--p", "", "--mode", "mc", "--n", "10"],
    ["z2", "--p", ""],
    ["enumerate", "--scenario", "builtin:bunkbed-path2", "--p", ""],
    ["mc", "--scenario", "builtin:bunkbed-path2", "--threads", "0"],
    ["mc", "--scenario", "builtin:bunkbed-path2", "--threads", "-3"],
    ["hypercube", "--d", "2", "--mode", "mc", "--n", "10", "--threads", "0"],
    ["enumerate", "--scenario", "builtin:bunkbed-path2", "--threads", "0"],
])
def test_bad_numbers_exit_four_without_traceback(argv, tmp_path, capsys):
    doc = next((a for a in argv if isinstance(a, dict)), {})
    argv = [_scenario_file(tmp_path, **a) if isinstance(a, dict) else a
            for a in argv]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1  # one "usage error:" or "scenario error:"
    if not isinstance(doc.get("p_grid", []), list):
        assert "p_grid must be a list" in err
    if "--p" in argv and argv[argv.index("--p") + 1] in ("", ","):
        assert err == "scenario error: p_grid must not be empty\n"


@pytest.mark.parametrize("argv", [
    ["bunkbed", "--base", "cycle:4", "--p", "1e-5000"],
    ["bunkbed", "--base", "cycle:4", "--p", "1e-5000", "--mode", "mc"],
    # p itself fits, but d^units at p = 1/d has 4800 digits
    ["bunkbed", "--base", "cycle:4", "--p", "1e-400"],
    ["bunkbed", "--base", "cycle:4", "--law", "rc:1e5000"],
    ["enumerate", "--scenario", "builtin:bunkbed-path2-rc2", "--p",
     "1/2,1e-5000"],
    ["mc", "--scenario", "builtin:bunkbed-path2", "--p", "1e-5000"],
])
def test_parameters_too_long_to_write_exit_four(argv, capsys):
    # by default Python writes no int of more than 4300 digits as text, so
    # the report of such a p or q could not be written: it is refused up
    # front
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("scenario error: p or q too long to report exactly")


@pytest.mark.parametrize("argv, zeros", [
    (["bunkbed", "--base", "cycle:4", "--p", "1e-300", "--law", "rc:2"], 300),
    (["bunkbed", "--base", "cycle:4", "--p", "1e-4000", "--mode", "mc",
      "--n", "10"], 4000),
])
def test_long_parameters_that_fit_are_written(argv, zeros, tmp_path):
    out = tmp_path / "report.json"
    assert main([*argv, "--json", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["p_grid"] == [
        "1/1" + "0" * zeros]


_PATH20000_ROTATION = {
    "graph": {"builder": "path", "n": 20_000}, "origin": 0,
    "v_plus": [0], "v_minus": [19_999],
    "generators": [{"name": "axis_rotation", "axis": 0}]}
_PATH20000_REPEAT = {**_PATH20000_ROTATION,
                     "generators": [[0, *range(19_999)]]}
_BUNKBED_C3 = {"graph": {"builder": "bunkbed",
                         "base": {"builder": "cycle", "n": 3}},
               "origin": 0, "v_plus": [0, 2, 4], "v_minus": [1, 3, 5]}


@pytest.mark.parametrize("argv, err", [
    (["enumerate", "--scenario", {"graph": {"builder": "cycle", "n": 2}}],
     "cycle needs n >= 3"),
    (["bunkbed", "--base", '{"builder": "cycle", "n": 2}'],
     "cycle needs n >= 3"),
    (["enumerate", "--scenario", {"generators": [[0, 0, 1, 2]]}],
     "not a permutation"),
    (["enumerate", "--scenario", {"generators": [[1, 0, 2, 3]]}],
     "not an automorphism"),
    (["enumerate", "--scenario", {"graph": {"builder": "cycle", "n": 4},
                                  "v_plus": [0], "v_minus": [2],
                                  "origin": 0,
                                  "generators": [{"name": "layer_swap"}]}],
     "layer swap needs a binary last coordinate"),
    # a large generator is named by its position and one edge
    (["check-symmetry", "--scenario", _PATH20000_ROTATION],
     "generator 0 is not an automorphism: it maps the edge (19998, 19999)"),
    (["mc", "--scenario", _PATH20000_ROTATION],
     "generator 0 is not an automorphism: it maps the edge (19998, 19999)"),
    # a large non-permutation is named by its first fault
    (["check-symmetry", "--scenario", _PATH20000_REPEAT],
     "not a permutation of 0..19999: entry 1 is 0, repeated"),
    # a base_perm is named in its own terms, before it is lifted
    (["check-symmetry", "--scenario", {**_BUNKBED_C3,
                                       "generators": [{"name": "base_perm",
                                                       "perm": [0, 0, 1]}]}],
     "not a permutation of 0..2: entry 1 is 0, repeated"),
    (["check-symmetry", "--scenario", {**_BUNKBED_C3,
                                       "generators": [{"name": "base_perm",
                                                       "perm": [0, 1, -1]}]}],
     "not a permutation of 0..2: entry 2 is -1, out of range"),
])
def test_well_formed_spec_faults_exit_three(argv, err, tmp_path, capsys):
    argv = [_scenario_file(tmp_path, **a) if isinstance(a, dict) else a
            for a in argv]
    assert main(argv) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and len(lines[0].encode()) < 300
    assert lines[0].startswith("precondition failure: ") and err in lines[0]


@pytest.mark.parametrize("target", ["c_far", "c_near"])
def test_a_lone_connection_target_exits_four(target, tmp_path, capsys):
    # c_far and c_near are both given or both null
    relation = {"name": "diagonal", "v_plus": [[0, 0], [1, 1]],
                "v_minus": [[1, 0], [0, 1]],
                "generators": [{"name": "swap_axes", "a": 0, "b": 1}],
                target: [1, 0]}
    path = tmp_path / "lone.json"
    path.write_text(json.dumps({
        "graph": {"builder": "torus", "n": 3, "m": 3}, "origin": [0, 0],
        "relations": [relation]}))
    assert main(["enumerate", "--scenario", str(path)]) == 4
    # the relation's own message, with no "bad or missing field" prefix
    assert capsys.readouterr().err == (
        f"scenario error: relation 'diagonal' gives {target} alone: c_far "
        "and c_near are both given or both null\n")


def test_unreachable_vertices_note_lists_ten(tmp_path, capsys):
    doc = _scenario_file(tmp_path, graph={"builder": "path", "n": 20_000},
                         origin=0, v_plus=[*range(0, 20_000, 2)],
                         v_minus=[*range(1, 20_000, 2)], generators=[])
    assert main(["check-symmetry", "--scenario", doc]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert max(len(line.encode()) for line in lines) < 300
    assert "    note: vertices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 19989 " \
        "more unreachable from vertex 0" in lines


def test_main_keeps_no_redirected_stream_alive():
    import contextlib
    import gc
    import io
    import weakref

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["check-symmetry", "--scenario",
                     "builtin:bunkbed-cycle3"]) == 0
        assert main(["bunkbed", "--base", "cycle:3", "--p", "0"]) == 4
    assert out.getvalue() and err.getvalue()
    refs = [weakref.ref(out), weakref.ref(err)]
    del out, err
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def _count_sampler_passes(monkeypatch) -> list:
    """Record the arguments, by name, of every mc.estimate_joint call."""
    passes = []
    estimate_joint = mc.estimate_joint
    signature = inspect.signature(estimate_joint)

    def counting(*args, **kwargs):
        passes.append(signature.bind(*args, **kwargs).arguments)
        return estimate_joint(*args, **kwargs)

    monkeypatch.setattr(mc, "estimate_joint", counting)
    return passes


def test_hypercube_mc_one_pass_per_p_with_the_real_seed(tmp_path,
                                                         monkeypatch):
    passes = _count_sampler_passes(monkeypatch)
    out = tmp_path / "hc.json"
    assert main(["hypercube", "--d", "2", "--mode", "mc", "--n", "2000",
                 "--seed", "17", "--p", "1/3,1/2", "--json", str(out)]) in (0, 2)
    assert [kw["seed"] for kw in passes] == [17, 17]
    assert json.loads(out.read_text())["mc"]["seed"] == 17


def test_hypercube_mc_threads_reach_the_sampler(tmp_path, monkeypatch):
    passes = _count_sampler_passes(monkeypatch)
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"hc{threads}.json"
        assert main(["hypercube", "--d", "3", "--mode", "mc", "--n", "20000",
                     "--threads", threads, "--json", str(out)]) in (0, 2)
        report = json.loads(out.read_text())
        del report["elapsed_seconds"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert [kw["threads"] for kw in passes] == [1, 2]


def test_z2_mc_one_sampler_pass_per_p(monkeypatch):
    passes = _count_sampler_passes(monkeypatch)
    assert main(["z2", "--size", "3", "--mode", "mc", "--n", "2000",
                 "--p", "1/4,1/2"]) in (0, 2)
    assert len(passes) == 2


def test_mc_one_sample_has_unbounded_intervals(tmp_path):
    # one sample says nothing about the spread: every interval is
    # unbounded, the expected sizes' as well as the domination rows', and
    # strict JSON writes each unbounded end and infinite stderr as null
    out = tmp_path / "mc1.json"
    assert main(["mc", "--scenario", "builtin:bunkbed-path2", "--n", "1",
                 "--json", str(out)]) == 2
    result = _strict_json(out.read_text())["results"][0]
    records = [result["expected_plus"], result["expected_minus"]] + [
        row["margin"] for row in result["domination"]["thresholds"]]
    assert len(records) > 2
    for record in records:
        assert record["stderr"] is None
        assert record["ci"] == [None, None]


# ---------------------------------------------------------------------------
# fuzzed scenario documents keep the exit-code contract

_FUZZ_KEYS = ["name", "builder", "n", "m", "d", "base", "axis", "step",
              "center2", "a", "b", "perm", "of", "kind", "q", "seed",
              "v_plus", "v_minus", "generators", "c_far", "c_near"]
_fuzz_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.text(max_size=3)
    | st.sampled_from(["1/2", "2", "bond", "site", "random_cluster", "cycle",
                       "path", "compose", "axis_rotation", "base_perm",
                       "scenario", "bunkbed", "z2", "hypercube"]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(_FUZZ_KEYS), inner,
                                     max_size=3)),
    max_leaves=6)


def _mutated(data, node):
    """``node`` with one value somewhere inside it replaced or dropped."""
    if not isinstance(node, (dict, list)) or not node or data.draw(
            st.booleans()):
        return data.draw(_fuzz_values)
    out = node.copy()
    key = data.draw(st.sampled_from(
        sorted(out) if isinstance(out, dict) else range(len(out))))
    if data.draw(st.integers(0, 3)) == 0:
        del out[key]
    else:
        out[key] = _mutated(data, node[key])
    return out


def _negative(value) -> bool:
    """An exact value below zero, or a Monte Carlo interval wholly below."""
    if isinstance(value, dict):
        return value["ci"][1] is not None and value["ci"][1] < 0
    return F(value) < 0


def _found_violation(report: dict) -> bool:
    """A negative margin or a nonzero identity residual in the results."""
    results = report.get("results", []) + [
        res for rel in report.get("relations", []) for res in rel["results"]]
    for row in results:
        dom = row.get("domination", {})
        if any(_negative(t["margin"]) for t in dom.get("thresholds", [])):
            return True
        if any(F(r) != 0 for r in row.get("identity_residuals", {}).values()):
            return True
        if row.get("ratio_lhs") != row.get("ratio_rhs"):
            return True
    return False


@pytest.mark.parametrize("argv", [
    ["enumerate"], ["mc", "--n", "50000", "--seed", "5"]])
def test_exit_one_reports_a_violation(argv, tmp_path):
    out = tmp_path / "report.json"
    assert main([*argv, "--scenario", "builtin:asym-path4",
                 "--json", str(out)]) == 1
    assert _found_violation(json.loads(out.read_text()))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["bunkbed-path2", "bunkbed-path2-rc2", "z2-n3-rel2",
                        "layered-m6-a", "asym-path4", "z2"]),
       st.sampled_from([["enumerate"], ["check-symmetry"],
                        ["verify-identity"], ["mc", "--n", "300"]]),
       st.data())
def test_fuzzed_scenarios_keep_the_exit_code_contract(name, command, data):
    # a builtin's document, or the echo of `z2 --size 3` with its two
    # relations
    doc = builtin_scenarios().get(name) or scenarios.scenario_echo(
        scenarios.z2_scenario(3))
    top = data.draw(st.sampled_from(
        sorted({*doc, "cap_bits", "mc", "relations", "report"})))
    doc = {**doc, top: _mutated(data, doc.get(top))}
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp, "doc.json"), Path(tmp, "report.json")
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*command, "--scenario", str(path),
                         "--json", str(out)])
        assert code in range(5)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert _found_violation(json.loads(out.read_text()))


_bases = st.one_of(
    st.tuples(st.sampled_from(["path", "cycle"]), st.integers(-2, 400)),
    st.tuples(st.just("complete"), st.integers(-2, 20)),
    st.tuples(st.just("hypercube"), st.integers(-2, 8)),
).map(lambda bn: f"{bn[0]}:{bn[1]}")

_flag_commands = st.one_of(
    st.integers(-2, 12).map(lambda d: ["hypercube", "--d", d]),
    st.integers(-2, 40).map(lambda size: ["z2", "--size", size]),
    st.tuples(_bases, st.sampled_from(["bond", "site", "rc:2"])).map(
        lambda t: ["bunkbed", "--base", t[0], "--law", t[1]]),
    st.tuples(st.sampled_from(["path:1", "path:2", "cycle:3", "cycle:4"]),
              st.integers(-2, 8) | st.integers(-2, 30), st.sampled_from("abc"),
              st.integers(-1, 4), st.none() | st.integers(-1, 4)).map(
        lambda t: ["layered", "--base", t[0], "--m", t[1], "--choice", t[2],
                   "--k", t[3]] + ([] if t[4] is None else ["--period", t[4]])),
)


# now and then one flag value that is not an integer
_not_an_integer = st.integers(0, 7).flatmap(lambda r: st.none() if r else (
    st.tuples(st.integers(0, 6), st.sampled_from(["", "x", "1.5", "2/3"]))))


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_flag_commands, st.none() | st.integers(-2, 20), _not_an_integer)
@example(["layered", "--base", "path:1", "--m", 6, "--choice", "a", "--k", 2],
         None, None)
@example(["layered", "--base", "path:1", "--m", 8, "--choice", "b", "--k", 1,
          "--period", 2], 20, None)
@example(["layered", "--base", "path:1", "--m", 8, "--choice", "c", "--k", 1,
          "--period", 2], None, None)
def test_fuzzed_flags_keep_the_exit_code_contract(argv, cap, bad):
    # exact mode only, so nothing samples and no worker starts; the cap is
    # at most 2^20 or the default, so no run that passes it takes long
    if cap is not None:
        argv = [*argv, "--cap", cap]
    argv = [str(arg) for arg in argv]
    if bad is not None:
        i, text = bad
        argv[2 + 2 * (i % (len(argv) // 2))] = text
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "report.json")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--json", str(out)])
        err = err.getvalue()
        assert code in range(5)
        assert "Traceback" not in err
        if out.exists():  # a report: its verdict is the exit code
            assert err == ""
            if code == 1:
                assert _found_violation(json.loads(out.read_text()))
        else:  # refused: one line on stderr
            assert code in (3, 4)
            assert err.count("\n") == 1
            assert err.startswith("precondition failure: " if code == 3
                                  else ("usage error: ", "scenario error: "))
