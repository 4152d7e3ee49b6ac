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

import csv
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import click

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
    if isinstance(value, (list, tuple)):
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
            with open(csv_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["scenario", "p", "quantity", "value", "lo", "hi", "mode",
                     "verdict"])
                writer.writerows(csv_rows(report))
    except OSError as exc:
        raise click.UsageError(f"cannot write output: {exc}") from None


def _scenario_name(report: dict) -> str:
    sc = report.get("scenario", {})
    return str(sc.get("name", report.get("kind", "scenario")))


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
    name = _scenario_name(report)
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


def print_human(report: dict) -> None:
    # Pass the current sys.stdout: click.echo's default stream cache would
    # keep every redirected stdout, and all its text, alive.
    click.echo("\n".join(_human_lines(report)), file=sys.stdout)


def _human_lines(report: dict) -> list[str]:
    name = _scenario_name(report)
    lines = [f"{report.get('kind', 'report')}: {name}  "
             f"mode={report.get('mode', '?')}  verdict={report['verdict']}"]
    cond = report.get("conditions")
    if cond:
        lines.append(
            "  conditions: set-preserving={set_preserving} "
            "transitive={transitive} "
            "stabilizer-symmetric={stabilizer_symmetric} "
            "swap-transitive={swap_transitive} "
            "group-order={group_order}".format(**cond))
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
    print_human(report)
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


scenario_opt = click.option("--scenario", "scenario_ref", required=True,
                            help="scenario file path or builtin:NAME")
p_opt = click.option("--p", "p_list", default=None,
                     help="comma-separated rationals, e.g. 1/4,1/2,3/4")
mode_opt = click.option("--mode", type=click.Choice(["exact", "mc"]),
                        default="exact")
# An absent --n, --seed or --cap (None) keeps the scenario's own value.
n_opt = click.option("--n", "mc_n", type=int, default=None,
                     help="Monte Carlo sample count  [default: 100000]")
seed_opt = click.option("--seed", type=int, default=None,
                        help="Monte Carlo seed  [default: 0]")


def _check_threads(ctx, param, value):
    if value < 1:
        raise ScenarioFormatError(f"need --threads >= 1, got {value}")
    return value


threads_opt = click.option("--threads", type=int, default=1,
                           callback=_check_threads,
                           help="worker cap for Monte Carlo sampling "
                                "(exact mode ignores it)")
json_opt = click.option("--json", "json_path", type=click.Path(), default=None)
csv_opt = click.option("--csv", "csv_path", type=click.Path(), default=None)
cap_opt = click.option("--cap", "cap_bits", type=int, default=None,
                       help="enumeration cap in bits (2^cap configurations)"
                            f"  [default: {exact.DEFAULT_CAP_BITS}]")
level_opt = click.option("--level", type=click.Choice(["0.95", "0.99"]),
                         default="0.95", help="confidence level")


def _instance_options(fn):
    """The options shared by the subcommands that construct their
    scenario, in the order listed."""
    for option in reversed((p_opt, mode_opt, cap_opt, n_opt, seed_opt,
                            level_opt, threads_opt, json_opt, csv_opt)):
        fn = option(fn)
    return fn


@click.group()
def cli():
    """Verification lab for cluster-size comparison under symmetry.

    Scenario-driven subcommands accept --scenario builtin:NAME; run
    `symperc enumerate --help` for the builtin corpus.
    """


def _builtin_help() -> str:
    return ", ".join(sorted(scenarios.BUILTINS))


@cli.command("check-symmetry")
@scenario_opt
@json_opt
def cmd_check_symmetry(scenario_ref, json_path):
    """Run only the symmetry-condition check for a scenario."""
    sc = scenarios.load_scenario(scenario_ref)
    report = scenarios.check_symmetry_report(sc)
    return finish(report, json_path, None)


@cli.command("enumerate", epilog="Builtin scenarios: " + _builtin_help())
@scenario_opt
@p_opt
@cap_opt
@threads_opt
@json_opt
@csv_opt
def cmd_enumerate(scenario_ref, p_list, cap_bits, threads, json_path,
                  csv_path):
    """Exact pipeline: count the origin's clusters by a subset DP over
    connected sets and run every check."""
    sc = scenarios.load_scenario(scenario_ref)
    sc = _override(sc, p_list=p_list, cap_bits=cap_bits, mode="exact")
    report = scenarios.run_scenario(sc, threads=threads)
    return finish(report, json_path, csv_path)


@cli.command("mc")
@scenario_opt
@p_opt
@n_opt
@seed_opt
@level_opt
@threads_opt
@json_opt
@csv_opt
def cmd_mc(scenario_ref, p_list, mc_n, seed, level, threads, json_path,
           csv_path):
    """Monte Carlo pipeline with reproducible seeding."""
    sc = scenarios.load_scenario(scenario_ref)
    sc = _override(sc, p_list=p_list, mode="mc", mc_n=mc_n, mc_seed=seed)
    report = scenarios.run_scenario(sc, threads=threads, level=float(level))
    return finish(report, json_path, csv_path)


@cli.command("verify-identity")
@scenario_opt
@p_opt
@cap_opt
@threads_opt
@json_opt
@csv_opt
def cmd_verify_identity(scenario_ref, p_list, cap_bits, threads, json_path,
                        csv_path):
    """Check the reweighting identity and the ratio identity exactly."""
    sc = scenarios.load_scenario(scenario_ref)
    sc = _override(sc, p_list=p_list, cap_bits=cap_bits, mode="exact")
    report = scenarios.verify_identity_report(sc)
    return finish(report, json_path, csv_path)


@cli.command("verify-group-theorem")
@click.option("--group", "group_name", required=True,
              help="named action: d4-on-c4 or bunkbed-c3")
@click.option("--trials", type=click.IntRange(min=0), default=100)
@click.option("--seed", type=int, default=0)
@json_opt
@csv_opt
def cmd_verify_group_theorem(group_name, trials, seed, json_path, csv_path):
    """Exhaustive orbit/stabilizer identities plus sampled set-pair
    double counting."""
    report = scenarios.group_theorem_battery(group_name, trials, seed)
    return finish(report, json_path, csv_path)


@cli.command("hypercube")
@click.option("--d", "d", type=int, required=True)
@_instance_options
def cmd_hypercube(d, p_list, mode, cap_bits, mc_n, seed, level, threads,
                  json_path, csv_path):
    """Connection-probability inequalities on the d-dimensional hypercube."""
    sc = scenarios.hypercube_scenario(
        d, _parse_p_list(p_list), mode=mode,
        **_given(cap_bits=cap_bits, mc_n=mc_n, mc_seed=seed))
    report = scenarios.hypercube_inequality_report(sc, threads, float(level))
    return finish(report, json_path, csv_path)


@cli.command("z2")
@click.option("--size", type=int, default=3,
              help="torus side length (>= 3)")
@_instance_options
def cmd_z2(size, p_list, mode, cap_bits, mc_n, seed, level, threads,
           json_path, csv_path):
    """Square-lattice connection relations realized on a torus."""
    sc = scenarios.z2_scenario(
        size, _parse_p_list(p_list), mode=mode,
        **_given(cap_bits=cap_bits, mc_n=mc_n, mc_seed=seed))
    return _finish_instance(sc, threads, level, json_path, csv_path)


@cli.command("bunkbed")
@click.option("--base", required=True,
              help="base graph, e.g. cycle:5 or a JSON spec")
@click.option("--law", "law_text", default="bond",
              help="bond | site | rc:Q")
@_instance_options
def cmd_bunkbed(base, p_list, mode, law_text, cap_bits, mc_n, seed, level,
                threads, json_path, csv_path):
    """Compare the two layers of base x edge."""
    sc = scenarios.bunkbed_scenario(
        _parse_base(base), _parse_p_list(p_list), law_text, mode=mode,
        **_given(cap_bits=cap_bits, mc_n=mc_n, mc_seed=seed))
    return _finish_instance(sc, threads, level, json_path, csv_path)


@cli.command("layered")
@click.option("--base", required=True,
              help="base graph, e.g. path:1 for a bare cycle")
@click.option("--m", "m", type=int, required=True, help="cycle length")
@click.option("--choice", type=click.Choice(["a", "b", "c"]), required=True)
@click.option("--k", "k", type=int, required=True)
@click.option("--period", type=int, default=None,
              help="residue period n (choices b and c)")
@_instance_options
def cmd_layered(base, m, choice, k, period, p_list, mode, cap_bits, mc_n,
                seed, level, threads, json_path, csv_path):
    """Residue-class layer comparison on the cylinder base x cycle(m)."""
    sc = scenarios.layered_scenario(
        _parse_base(base), m, choice, k, period, _parse_p_list(p_list),
        mode=mode, **_given(cap_bits=cap_bits, mc_n=mc_n, mc_seed=seed))
    return _finish_instance(sc, threads, level, json_path, csv_path)


def _finish_instance(sc: scenarios.Scenario, threads, level, json_path,
                     csv_path) -> int:
    """Run a constructed scenario, which claims theorem instances, so a pair
    failing its symmetry check is a precondition failure."""
    report = scenarios.run_scenario(sc, threads=threads, level=float(level),
                                    require_conditions=True)
    return finish(report, json_path, csv_path)


def _given(**flags) -> dict:
    """The flags actually given; an absent one (None) keeps the scenario's
    own value."""
    return {key: value for key, value in flags.items() if value is not None}


def _override(sc: scenarios.Scenario, p_list=None,
              **flags) -> scenarios.Scenario:
    """``sc`` with the given flags in place of its own fields."""
    from dataclasses import replace

    changes = _given(**flags)
    if p_list is not None:
        changes["p_grid"] = scenarios.parse_p_grid(_parse_p_list(p_list))
    return replace(sc, **changes)


def main(argv=None) -> int:
    """Dispatch and map every failure class to its stable exit code."""
    try:
        result = cli.main(args=argv, standalone_mode=False)
        return int(result) if result is not None else 0
    except click.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", file=sys.stderr)
        return USAGE_ERROR
    except click.ClickException as exc:
        exc.show()
        return USAGE_ERROR
    except (ScenarioFormatError, GraphSpecError, GeneratorSpecError) as exc:
        click.echo(f"scenario error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ScenarioError, CapExceeded, GraphError, GroupError) as exc:
        click.echo(f"precondition failure: {exc}", file=sys.stderr)
        return EXIT_CODES[PRECONDITION_FAILED]


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
