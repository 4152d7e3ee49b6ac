"""Command-line front door.

Every subcommand prints a human-readable summary to stdout, optionally
writes the full JSON report and a flat CSV, and exits with a stable code:

    0  all checks pass / consistent
    1  a violation was found
    2  Monte Carlo verdict inconclusive
    3  precondition or symmetry failure (including enumeration caps)
    4  usage error (bad flags, unreadable or malformed scenario files)
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import exact, scenarios
from .exact import CapExceeded
from .graphs import GraphError, GraphSpecError
from .groups import GeneratorSpecError, GroupError
from .scenarios import (
    INCONCLUSIVE,
    PASS,
    PRECONDITION_FAILED,
    VIOLATION,
    ScenarioError,
    ScenarioFormatError,
)

EXIT_CODES = {PASS: 0, VIOLATION: 1, INCONCLUSIVE: 2, PRECONDITION_FAILED: 3}
USAGE_ERROR = 4


class UsageError(Exception):
    """A bad command line or an output path that cannot be written."""


def to_stable_json(report: dict) -> str:
    """Canonical strict JSON; parsing and re-serializing is a no-op.  A
    non-finite float raises ValueError instead of becoming ``Infinity`` or
    ``NaN``.

    The text is that of ``json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False)`` plus a newline; keys must be strings.  The stdlib
    writes indented JSON in pure Python, one generator step per token; this
    writer builds each container's text with one join, and a flat list of
    ints or of strings is joined in C.
    """
    return _json_text(report, "\n") + "\n"


# The JSON text of a str or an int (not a bool, whose type is not int).
_SCALARS = {str: _quote, int: int.__repr__}


def _json_text(value, newline: str) -> str:
    """``value`` as indented JSON; ``newline`` is a line break followed by
    the indent of the line that ``value`` starts on."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            (_quote(key) if type(key) is str else _json_key(key)) + ": "
            + (_SCALARS[type(item)](item) if type(item) in _SCALARS
               else _json_text(item, inner))
            for key, item in sorted(value.items())]) + newline + "}"
    if type(value) in (list, tuple):  # not a record, a tuple subclass
        if not value:
            return "[]"
        inner = newline + "  "
        kinds = set(map(type, value))
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = (map(write, value) if write else
                 [_json_text(item, inner) for item in value])
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _json_float(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable")


def _json_float(value: float) -> str:
    if value != value or value in (math.inf, -math.inf):
        raise ValueError(
            f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _json_key(key) -> str:
    if not isinstance(key, str):
        raise TypeError(f"report keys must be str, not {type(key).__name__}")
    return _quote(key)


def write_outputs(report: dict, json_path: str | None,
                  csv_path: str | None) -> None:
    try:
        if json_path:
            Path(json_path).write_text(to_stable_json(report))
        if csv_path:
            import csv

            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["scenario", "p", "quantity", "value", "lo", "hi", "mode",
                     "verdict"])
                writer.writerows(csv_rows(report))
    except OSError as exc:
        raise UsageError(f"cannot write output: {exc}") from None


def _cells(value, unbounded=("", "")) -> tuple:
    """A result value as (value, lo, hi): an exact "num/den" string has no
    interval, and a Monte Carlo record's null end becomes ``unbounded``."""
    if not isinstance(value, dict):
        return value, "", ""
    lo, hi = value["ci"]
    return (value["estimate"], unbounded[0] if lo is None else lo,
            unbounded[1] if hi is None else hi)


def csv_rows(report: dict) -> list[list]:
    """Flatten a report into the stable CSV columns."""
    name = report["scenario"]["name"]
    mode = report.get("mode", "")
    rows: list[list] = []

    def emit(p, quantity, value, verdict=""):
        rows.append([name, p, quantity, *_cells(value), mode, verdict])

    def emit_result(res: dict, prefix: str = ""):
        p = res.get("p", "")
        for key in ("expected_plus", "expected_minus", "expectation_gap"):
            if key in res:
                emit(p, prefix + key, res[key], res["verdict"])
        for row in res.get("domination", {}).get("thresholds", []):
            emit(p, f"{prefix}margin_t{row['t']}", row["margin"],
                 row["verdict"])
        for key, val in res.get("identity_residuals", {}).items():
            emit(p, f"{prefix}residual_{key}", val,
                 PASS if res["identity_zero"] else VIOLATION)
        for key in ("ratio_lhs", "ratio_rhs", "relation_slack", "c_far",
                    "c_near"):
            if key in res:
                emit(p, prefix + key, res[key])
        for i, val in enumerate(res.get("c_values", [])):
            emit(p, f"{prefix}c_{i}", val)
        for row in res.get("rows", []):
            emit(p, f"{prefix}double_sum_k{row['k']}_l{row['l']}",
                 row["double_sum"], row["double_sum_verdict"])
        for row in res.get("derivatives", []):
            emit(p, f"{prefix}derivative_k{row['k']}", row["value"],
                 row["verdict"])

    for res in report.get("results", []):
        emit_result(res)
    for rel in report.get("relations", []):
        for res in rel.get("results", []):
            emit_result(res, prefix=rel["name"] + "_")
    if "all_exact" in report:
        emit("", "all_exact", str(report["all_exact"]).lower(),
             report["verdict"])
    return rows


def _human_lines(report: dict) -> list[str]:
    name = report["scenario"]["name"]
    lines = [f"{report.get('kind', 'report')}: {name}  "
             f"mode={report.get('mode', '?')}  verdict={report['verdict']}"]
    cond = report.get("conditions")
    if cond:
        lines.append("  conditions: " + " ".join(
            f"{key.replace('_', '-')}={cond[key]}" for key in (
                "set_preserving", "transitive", "stabilizer_symmetric",
                "swap_transitive", "group_order") if key in cond))
        for note in cond.get("notes", []):
            lines.append(f"    note: {note}")
    if "config_count" in report:
        lines.append(f"  configurations: {report['config_count']}")
    if "mc" in report:
        lines.append("  mc: n={n} seed={seed} level={level}".format(
            **report["mc"]))
    for res in report.get("results", []):
        lines.append(_result_line(res, indent="  "))
    for rel in report.get("relations", []):
        lines.append(f"  {rel['name']}: {rel['statement']}  "
                     f"verdict={rel['verdict']}")
        for res in rel.get("results", []):
            lines.append(_result_line(res, indent="    "))
    if "double_counting_trials" in report:
        lines.append(
            "  orbit-product pairs checked: {}  failures: {}".format(
                report["orbit_product_pairs"],
                report["orbit_product_failures"]))
        lines.append(
            "  double-counting trials: {}  failures: {}".format(
                report["double_counting_trials"],
                report["double_counting_failures"]))
    lines.append(f"  elapsed: {report.get('elapsed_seconds', 0):.3f}s")
    return lines


def _result_line(res: dict, indent: str) -> str:
    p = res.get("p", "?")
    bits = [f"p={p}"]
    for key in ("expected_plus", "expected_minus"):
        if key in res:
            value, lo, hi = _cells(res[key], (-math.inf, math.inf))
            bits.append(f"{key}={value}" if lo == "" else
                        f"{key}={value:.6g}[{lo:.6g},{hi:.6g}]")
    if "domination" in res:
        bits.append(f"domination={res['domination']['verdict']}")
    for key, label in (("identity_zero", "identity-zero"),
                       ("ratio_equal", "ratio-equal"),
                       ("relation_slack", "slack"), ("verdict", "verdict")):
        if key in res:
            bits.append(f"{label}={res[key]}")
    return indent + "  ".join(bits)


def finish(report: dict, json_path: str | None, csv_path: str | None) -> int:
    """Print the summary, write the outputs asked for and return the exit
    code of the verdict."""
    print("\n".join(_human_lines(report)), flush=True)
    write_outputs(report, json_path, csv_path)
    return EXIT_CODES[report["verdict"]]


def _parse_p_list(text: str | None, default=("1/2",)) -> list[str]:
    """The --p grid; only an absent flag means the default."""
    if text is None:
        return list(default)
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_base(text: str):
    """Accept "cycle:5"-style shorthand or an inline JSON graph spec."""
    text = text.strip()
    if text.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"bad base spec JSON: {exc}") from None
    if ":" in text:
        builder, _, arg = text.partition(":")
        builder = builder.strip()
        try:
            if builder in ("path", "cycle", "complete"):
                return {"builder": builder, "n": int(arg)}
            if builder == "hypercube":
                return {"builder": builder, "d": int(arg)}
        except ValueError:
            pass
    raise ScenarioFormatError(
        f"bad base spec {text!r}; use e.g. 'cycle:5' or a JSON object")


def cmd_check_symmetry(scenario_ref):
    """Run only the symmetry-condition check for a scenario."""
    return scenarios.check_symmetry_report(_override(scenario_ref))


def cmd_enumerate(scenario_ref, p_list, cap_bits, threads):
    """Exact pipeline: count the origin's clusters by a subset DP over
    connected sets and run every check."""
    sc = _override(scenario_ref, p_list, cap_bits=cap_bits, mode="exact")
    return scenarios.run_scenario(sc, threads=threads)


def cmd_mc(scenario_ref, p_list, mc_n, seed, level, threads):
    """Monte Carlo pipeline with reproducible seeding."""
    sc = _override(scenario_ref, p_list, mode="mc", mc_n=mc_n, mc_seed=seed)
    return scenarios.run_scenario(sc, threads=threads, level=float(level))


def cmd_verify_identity(scenario_ref, p_list, cap_bits, threads):
    """Check the reweighting identity and the ratio identity exactly."""
    sc = _override(scenario_ref, p_list, cap_bits=cap_bits, mode="exact")
    return scenarios.verify_identity_report(sc)


def cmd_verify_group_theorem(group_name, trials, seed):
    """Exhaustive orbit/stabilizer identities plus sampled set-pair
    double counting."""
    if trials < 0:
        raise UsageError(f"need --trials >= 0, got {trials}")
    return scenarios.group_theorem_battery(group_name, trials, seed)


def cmd_hypercube(d, **flags):
    """Connection-probability inequalities on the d-dimensional hypercube."""
    return _constructed(scenarios.hypercube_scenario, (d,), **flags)


def cmd_z2(size, **flags):
    """Square-lattice connection relations realized on a torus."""
    return _constructed(scenarios.z2_scenario, (size,), **flags)


def cmd_bunkbed(base, law_text, **flags):
    """Compare the two layers of base x edge."""
    return _constructed(scenarios.bunkbed_scenario, (_parse_base(base),),
                        law=law_text, **flags)


def cmd_layered(base, m, choice, k, period, **flags):
    """Residue-class layer comparison on the cylinder base x cycle(m)."""
    return _constructed(scenarios.layered_scenario,
                        (_parse_base(base), m, choice, k, period), **flags)


def _constructed(build, args, p_list, mode, cap_bits, mc_n, seed, level,
                 threads, **options) -> dict:
    """The report of the scenario that ``build`` makes from ``args``, the
    --p grid and the given flags."""
    sc = build(*args, _parse_p_list(p_list), mode=mode, **options,
               **_given(cap_bits=cap_bits, mc_n=mc_n, mc_seed=seed))
    return scenarios.run_scenario(sc, threads, float(level))


def _given(**flags) -> dict:
    """The flags actually given; an absent one (None) keeps the scenario's
    own value."""
    return {key: value for key, value in flags.items() if value is not None}


def _override(scenario_ref: str, p_list=None, **flags) -> scenarios.Scenario:
    """The scenario that ``scenario_ref`` names, loaded before any flag is
    parsed, with the given flags in place of its own fields."""
    sc = scenarios.load_scenario(scenario_ref)
    changes = _given(**flags)
    if p_list is not None:
        changes["p_grid"] = scenarios.parse_p_grid(_parse_p_list(p_list))
    return sc._replace(**changes)


class _Parser(argparse.ArgumentParser):
    """Raises :class:`UsageError` where argparse would print its usage and
    exit 2."""

    def error(self, message):
        raise UsageError(message)


# Flags as (name, add_argument keywords).  An absent --n, --seed or --cap
# (None) keeps the scenario's own value.
_SCENARIO = ("--scenario", dict(dest="scenario_ref", metavar="REF",
                                required=True,
                                help="scenario file path or builtin:NAME"))
_P = ("--p", dict(dest="p_list", metavar="LIST",
                  help="comma-separated rationals, e.g. 1/4,1/2,3/4"))
_MODE = ("--mode", dict(choices=("exact", "mc"), default="exact"))
_CAP = ("--cap", dict(dest="cap_bits", type=int, metavar="BITS",
                      help="enumeration cap in bits (2^cap configurations)"
                           f"  [default: {exact.DEFAULT_CAP_BITS}]"))
_N = ("--n", dict(dest="mc_n", type=int, metavar="N",
                  help="Monte Carlo sample count  [default: 100000]"))
_SEED = ("--seed", dict(type=int, metavar="SEED",
                        help="Monte Carlo seed  [default: 0]"))
_LEVEL = ("--level", dict(choices=("0.95", "0.99"), default="0.95",
                          help="confidence level"))
_THREADS = ("--threads", dict(type=int, default=1, metavar="N",
                              help="worker cap for Monte Carlo sampling "
                                   "(exact mode ignores it)"))
_JSON = ("--json", dict(dest="json_path", metavar="PATH"))
_CSV = ("--csv", dict(dest="csv_path", metavar="PATH"))
# The flags of the subcommands that construct their scenario.
_INSTANCE = (_P, _MODE, _CAP, _N, _SEED, _LEVEL, _THREADS, _JSON, _CSV)


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on the first call."""
    parser = _Parser(
        prog="symperc", allow_abbrev=False,
        description="Verification lab for cluster-size comparison under "
                    "symmetry.  Scenario-driven subcommands accept "
                    "--scenario builtin:NAME; run `symperc enumerate "
                    "--help` for the builtin corpus.")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, run, flags in (
        ("check-symmetry", cmd_check_symmetry, (_SCENARIO, _JSON)),
        ("enumerate", cmd_enumerate,
         (_SCENARIO, _P, _CAP, _THREADS, _JSON, _CSV)),
        ("mc", cmd_mc,
         (_SCENARIO, _P, _N, _SEED, _LEVEL, _THREADS, _JSON, _CSV)),
        ("verify-identity", cmd_verify_identity,
         (_SCENARIO, _P, _CAP, _THREADS, _JSON, _CSV)),
        ("verify-group-theorem", cmd_verify_group_theorem, (
            ("--group", dict(dest="group_name", metavar="NAME",
                             required=True,
                             help="named action: d4-on-c4 or bunkbed-c3")),
            ("--trials", dict(type=int, default=100, metavar="N")),
            ("--seed", dict(type=int, default=0)),
            _JSON, _CSV)),
        ("hypercube", cmd_hypercube,
         (("--d", dict(type=int, required=True)), *_INSTANCE)),
        ("z2", cmd_z2, (("--size", dict(
            type=int, default=3, help="torus side length (>= 3)")),
            *_INSTANCE)),
        ("bunkbed", cmd_bunkbed, (
            ("--base", dict(required=True,
                            help="base graph, e.g. cycle:5 or a JSON spec")),
            ("--law", dict(dest="law_text", default="bond",
                           help="bond | site | rc:Q")),
            *_INSTANCE)),
        ("layered", cmd_layered, (
            ("--base", dict(required=True,
                            help="base graph, e.g. path:1 for a bare "
                                 "cycle")),
            ("--m", dict(type=int, required=True, help="cycle length")),
            ("--choice", dict(choices=("a", "b", "c"), required=True)),
            ("--k", dict(type=int, required=True)),
            ("--period", dict(type=int,
                              help="residue period n (choices b and c)")),
            *_INSTANCE)),
    ):
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(name, help=doc, description=doc,
                                  allow_abbrev=False)
        sub.set_defaults(run=run)
        for flag, options in flags:
            sub.add_argument(flag, **options)
    commands.choices["enumerate"].epilog = (
        "Builtin scenarios: " + ", ".join(sorted(scenarios.BUILTINS)))
    return parser


def main(argv=None) -> int:
    """Dispatch and map every failure class to its stable exit code."""
    try:
        args = vars(_parser().parse_args(argv))
        run = args.pop("run")
        json_path, csv_path = args.pop("json_path"), args.pop("csv_path", None)
        if args.get("threads", 1) < 1:
            raise ScenarioFormatError(
                f"need --threads >= 1, got {args['threads']}")
        return finish(run(**args), json_path, csv_path)
    except SystemExit as exc:  # --help, once printed
        return exc.code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ScenarioFormatError, GraphSpecError, GeneratorSpecError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ScenarioError, CapExceeded, GraphError, GroupError) as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_CODES[PRECONDITION_FAILED]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
