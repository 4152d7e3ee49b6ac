"""Scenario pipeline: a scenario names a graph, an origin and its
relations, each a pair of vertex sets compared under its own symmetry
generators.  ``bunkbed_scenario``, ``layered_scenario``, ``z2_scenario``
and ``hypercube_scenario`` construct scenarios, and ``parse_scenario``
reads the document that ``scenario_echo`` writes.  ``run_scenario`` checks
the symmetry conditions of each compared pair, makes one exact run that
observes all of them (or one Monte Carlo pass per p) and evaluates their
checks on it: the pair comparisons, or the cube's inequalities.

Reports are plain JSON-ready dicts sharing one envelope.  A result has one
shape in both modes: every exact quantity is a "num/den" string and every
Monte Carlo quantity an ``{estimate, stderr, ci}`` record, and every verdict
is ``pass``, ``violation`` or ``inconclusive`` (``precondition_failed`` for a
whole block).
"""

from __future__ import annotations

import importlib.util
import sys
import time
from collections import namedtuple
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import cached_property
from math import comb, log10

from . import exact, graphs, groups
from .exact import (
    BOND,
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    parse_law,
)
from .graphs import Graph, GraphError, build_graph
from .rationals import format_fraction, format_ratio, parse_probability


def _lazy_module(name: str):
    """The module ``name``, executed on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    spec.loader.exec_module(module)
    return module


# The sampler, loaded by the first Monte Carlo run: an exact run, most
# reports, would otherwise pay for it (and for ``statistics``) at start-up.
mc = _lazy_module(f"{__package__}.mc")

SCHEMA = "symperc-report/5"

PRECONDITION_FAILED = "precondition_failed"

_SEVERITY = {PASS: 0, INCONCLUSIVE: 1, VIOLATION: 2, PRECONDITION_FAILED: 3}


class ScenarioError(ValueError):
    """Unsatisfied scenario precondition (divisibility, unknown relation)."""


class ScenarioFormatError(ScenarioError):
    """Unreadable or malformed scenario input (a usage error at the CLI)."""


def worst_verdict(verdicts) -> str:
    return max(verdicts, key=_SEVERITY.__getitem__, default=PASS)


def _sign_verdict(value) -> str:
    """An exact verdict on "the quantity is >= 0"."""
    return PASS if value >= 0 else VIOLATION


# ---------------------------------------------------------------------------
# scenarios


class Relation(namedtuple("Relation", (
        "name", "statement", "v_plus", "v_minus", "generators", "c_far",
        "c_near"), defaults=(None, None))):
    """A pair compared on a scenario's graph under its own generators.

    ``v_plus`` and ``v_minus`` are tuples of vertex references (indices or
    labels), ``generators`` a tuple of generator specs or permutations.
    Exact result rows also report the connection probabilities of the
    targets ``c_far`` and ``c_near``, if given, and 1 + c_far - 2 c_near.
    """

    __slots__ = ()


class Scenario(namedtuple("Scenario", (
        "name", "graph_spec", "origin", "law", "p_grid", "mode", "mc_n",
        "mc_seed", "cap_bits", "report", "relations"), defaults=(
        0, BOND, (Fraction(1, 2),), "exact", 100_000, 0,
        exact.DEFAULT_CAP_BITS, "scenario", ()))):
    """One graph and origin, the relations compared on it and the settings
    of the run: the document that ``scenario_echo`` writes.  ``report``
    names the report, ``scenario`` or a constructor's; a ``hypercube``
    scenario is the cube with origin 0, and its report derives the relations.

    ``graph_spec`` is a graph spec dict, ``law`` a :class:`PartitionLaw`,
    ``p_grid`` a tuple of Fractions and ``relations`` a tuple of
    :class:`Relation`.  The graph's size is not checked here: the
    constructors and the reports check it once, before they build a graph.

    Like a graph, a scenario declares no ``__slots__``: its
    instance dict holds the size of the spec's graph, sized on first use
    and kept by each :meth:`_replace` copy with the same spec, so that a
    command sizes its graph once.
    """

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *args, **kwargs)._checked()

    def _checked(self) -> Scenario:
        if self.report not in ("scenario", "bunkbed", "layered", "z2",
                               "hypercube"):
            raise ScenarioFormatError(
                "report must be one of scenario, bunkbed, layered, z2, "
                f"hypercube; got {self.report!r}")
        if self.report == "hypercube" and (
                self.graph_spec.get("builder") != "hypercube"
                or self.origin != 0 or self.relations):
            raise ScenarioFormatError(
                "a hypercube report takes a hypercube graph with origin 0 "
                "and lists no relations")
        if self.mode not in ("exact", "mc"):
            raise ScenarioFormatError(
                f"mode must be 'exact' or 'mc', got {self.mode!r}")
        if self.mode == "mc" and self.law.kind != "bond":
            raise ScenarioFormatError(
                "mc mode samples bond percolation only; this scenario uses "
                f"the {self.law.kind} law")
        if self.mc_n < 1:
            raise ScenarioFormatError(
                f"need n >= 1 Monte Carlo samples, got {self.mc_n}")
        _check_digits(self)
        return self

    def _replace(self, **changes):
        """A copy with ``changes``, checked as the constructor checks."""
        new = super()._replace(**changes)
        if new.graph_spec is self.graph_spec and "_graph_size" in vars(self):
            vars(new)["_graph_size"] = self._graph_size
        return new._checked()

    @cached_property
    def _graph_size(self) -> tuple[int, int]:
        """(vertices, edges) of the spec's graph, from the spec."""
        return graphs.spec_size(self.graph_spec)


def _check_digits(sc: Scenario) -> None:
    """Refuse a p or q whose report could not be written: Python turns an
    int into text only up to ``sys.get_int_max_str_digits()`` digits (4300
    by default).

    A report writes p and q themselves.  An exact run that the cap admits
    also writes reduced fractions over d^units at p = n/d, or under the
    random-cluster law over a sum of at most 2^units weights
    n^k·(d−n)^(units−k)·qn^c·qd^(cells−c), with at most one cell per
    vertex.  The checks scale these by an lcm of pair sizes up to
    2·vertices, which is below 2^(3·vertices), and a value's numerator is
    at most vertices^3 times its denominator.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit:  # no limit, or a Python without one
        return
    p_bits = max(p.denominator.bit_length() for p in sc.p_grid)
    q = sc.law.q or 1
    q_bits = max(q.numerator, q.denominator).bit_length()
    bits = max(p_bits, q_bits)
    if sc.mode == "exact":
        vertices, edges = sc._graph_size
        units = vertices if sc.law.kind == "site" else edges
        if units <= sc.cap_bits:  # else the cap refuses
            bits = max(bits, units * (p_bits + 1) + vertices * (q_bits + 3)
                       + 3 * vertices.bit_length())
    if (digits := int(bits * log10(2)) + 1) > limit:
        raise ScenarioFormatError(
            f"p or q too long to report exactly: its values need up to "
            f"{digits} digits, and at most {limit} can be written")


def _check_size(sc: Scenario) -> None:
    """Refuse, before it is built, a graph too large for the run: past the
    sampler's limit in Monte Carlo mode, past the enumeration cap in exact
    mode, where the units are the vertices under the site law and the
    edges otherwise."""
    vertices, edges = sc._graph_size
    if sc.mode != "mc":
        exact.check_cap(vertices if sc.law.kind == "site" else edges,
                        sc.cap_bits)
    elif vertices + edges > (limit := mc.max_graph_size()):
        raise ScenarioError(
            f"Monte Carlo graph has {vertices} vertices and {edges} edges; "
            f"the sampler takes at most {limit} vertices + edges")


def _parsed(what: str, parse, value):
    """``parse(value)``, with a failure reported as malformed input; the
    graph, group and scenario errors keep their own exit code."""
    try:
        return parse(value)
    except (ScenarioError, GraphError, groups.GroupError):
        raise
    except (LookupError, OverflowError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad {what} {value!r}: {exc}") from None


def _integer(value) -> int:
    """``int(value)``, refusing a bool: JSON's true and false are no
    integers, though Python counts a bool as one."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not an integer")
    return int(value)


def parse_p_grid(values) -> tuple[Fraction, ...]:
    """Parse percolation parameters; each must lie strictly inside (0, 1)."""
    if not isinstance(values, (list, tuple)):
        raise ScenarioFormatError(f"p_grid must be a list, got {values!r}")
    if not values:
        raise ScenarioFormatError("p_grid must not be empty")
    return tuple(_parsed("p", parse_probability, p) for p in values)


def parse_scenario(doc: Mapping, name: str = "scenario") -> Scenario:
    """The scenario of a document, the inverse of :func:`scenario_echo`."""
    try:
        graph_spec = dict(doc["graph"])
        relations = _parsed_relations(doc)
        origin = doc["origin"]
    except ScenarioFormatError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioFormatError(f"bad or missing scenario field: {exc}") from None
    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, Mapping):
        raise ScenarioFormatError(f"mc must be an object, got {mc_doc!r}")
    return Scenario(
        name=str(doc.get("name", name)),
        graph_spec=graph_spec,
        origin=origin,
        law=_parsed("law", parse_law, doc.get("law", "bond")),
        p_grid=parse_p_grid(doc.get("p_grid", ["1/2"])),
        mode=doc.get("mode", "exact"),
        mc_n=_parsed("mc n", _integer, mc_doc.get("n", 100_000)),
        mc_seed=_parsed("mc seed", _integer, mc_doc.get("seed", 0)),
        cap_bits=_parsed("cap_bits", _integer,
                         doc.get("cap_bits", exact.DEFAULT_CAP_BITS)),
        report=doc.get("report", "scenario"),
        relations=relations,
    )


def _parsed_relations(doc: Mapping) -> tuple[Relation, ...]:
    """One unnamed relation from the top level, or the ``relations`` list;
    a hypercube document gives neither."""
    top_level = {key: doc[key] for key in ("v_plus", "v_minus", "generators")
                 if key in doc}
    if "relations" in doc and top_level:
        raise ScenarioFormatError(
            "relations are listed at the top level or under 'relations', "
            "not both")
    if "relations" not in doc and not top_level and (
            doc.get("report") == "hypercube"):
        return ()
    entries = doc.get("relations", [top_level])
    if not (isinstance(entries, list) and entries
            and all(isinstance(entry, Mapping) for entry in entries)):
        raise ScenarioFormatError(
            f"relations must be a nonempty list of objects, got {entries!r}")
    for entry in entries:
        given = [key for key in ("c_far", "c_near")
                 if entry.get(key) is not None]
        if len(given) == 1:
            raise ScenarioFormatError(
                f"relation {entry.get('name', '')!r} gives {given[0]} "
                "alone: c_far and c_near are both given or both null")
    return tuple(
        Relation(str(entry.get("name", "")), str(entry.get("statement", "")),
                 tuple(entry["v_plus"]), tuple(entry["v_minus"]),
                 _parsed("generators", tuple, entry.get("generators", [])),
                 entry.get("c_far"), entry.get("c_near"))
        for entry in entries)


def resolve_vertex(g: Graph, item) -> int:
    """A scenario may reference vertices by index or by coordinate label."""
    if isinstance(item, int):
        index = _parsed("vertex index", _integer, item)
        if not 0 <= index < g.n_vertices:
            raise ScenarioFormatError(f"vertex index {item} out of range")
        return index
    if isinstance(item, (list, tuple)):
        return g.index_of(tuple(_parsed("vertex label", _integer, x)
                                for x in item))
    raise ScenarioFormatError(f"bad vertex reference: {item!r}")


def _parsed_pairs(sc: Scenario, g: Graph, relations=None):
    """(relation, pair, generators) for each of ``relations`` or else ``sc``'s."""
    origin = resolve_vertex(g, sc.origin)
    parsed = []
    for rel in sc.relations if relations is None else relations:
        pair = groups.make_pair(
            g,
            [resolve_vertex(g, v) for v in rel.v_plus],
            [resolve_vertex(g, v) for v in rel.v_minus],
            origin,
        )
        gens = [_parsed("generator", lambda s: groups.build_generator(g, s),
                        spec) for spec in rel.generators]
        parsed.append((rel, pair, gens))
    return parsed


def _compared_pairs(sc: Scenario, g: Graph, relations=None):
    """(relation, pair, symmetry report) for each pair of _parsed_pairs:
    every pair and generator is parsed before any condition is checked."""
    parsed = _parsed_pairs(sc, g, relations)
    return [(rel, pair, groups.check_symmetry_conditions(g, gens, pair))
            for rel, pair, gens in parsed]


# ---------------------------------------------------------------------------
# the pipeline


def exact_p_results(
    poly: exact.JointOutcomePolynomial,
    p_grid: Sequence[Fraction],
    theorem_instance: bool,
) -> tuple[list[dict], str]:
    """Evaluate the polynomial on the grid and run the exact checks.

    Each p makes one integer pmf, and every check returns numerators over
    one denominator, so each value is reduced once, as it is formatted.
    When the symmetry conditions hold the verdict folds in the identity
    residuals and the expectation ordering; otherwise those fields are
    informational and only a negative margin counts as a violation.
    """
    results = []
    for p in p_grid:
        pmf = exact.joint_numerators(poly, p)
        e_plus, e_minus = exact.expected_numerators(pmf)
        margins = exact.margin_numerators(pmf)
        res_den, residuals = exact.residual_numerators(pmf)
        ratio_den, ratio_lhs, ratio_rhs = exact.ratio_numerators(pmf)
        passes = all(m >= 0 for m in margins)
        identity_zero = not any(residuals.values())
        ratio_equal = ratio_lhs == ratio_rhs
        if theorem_instance:
            ok = passes and identity_zero and ratio_equal and e_plus >= e_minus
        else:
            ok = passes
        results.append({
            "p": format_fraction(p),
            "expected_plus": format_ratio(e_plus, pmf.den),
            "expected_minus": format_ratio(e_minus, pmf.den),
            "expectation_gap": format_ratio(e_plus - e_minus, pmf.den),
            "domination": _domination_block(
                (format_ratio(m, pmf.den), _sign_verdict(m)) for m in margins),
            "identity_residuals": {k: format_ratio(v, res_den)
                                   for k, v in residuals.items()},
            "identity_zero": identity_zero,
            "ratio_lhs": format_ratio(ratio_lhs, ratio_den),
            "ratio_rhs": format_ratio(ratio_rhs, ratio_den),
            "ratio_equal": ratio_equal,
            "verdict": PASS if ok else VIOLATION,
        })
    return results, worst_verdict(row["verdict"] for row in results)


def _domination_block(rows) -> dict:
    """The domination block of one p in either mode, from each threshold's
    (margin, verdict), t = 1, 2, ...: an exact margin is judged by its
    sign, a Monte Carlo one by its interval."""
    thresholds = [{"t": t, "margin": margin, "verdict": verdict}
                  for t, (margin, verdict) in enumerate(rows, 1)]
    return {"verdict": worst_verdict(row["verdict"] for row in thresholds),
            "thresholds": thresholds}


def mc_p_results(
    joints: Sequence[mc.EmpiricalJoint],
    p_grid: Sequence[Fraction],
    level: float = 0.95,
) -> tuple[list[dict], str]:
    """Summaries and verdicts of one pair's binned samples at each p."""
    results = []
    for p, emp in zip(p_grid, joints):
        est_plus, est_minus = mc.empirical_expected_sizes(emp, level)
        dom = _domination_block(mc.mc_domination_verdict(emp, level))
        results.append({
            "p": format_fraction(p),
            "expected_plus": est_plus,
            "expected_minus": est_minus,
            "domination": dom,
            "verdict": dom["verdict"],
        })
    return results, worst_verdict(row["verdict"] for row in results)


def _envelope(kind: str, scenario_echo: dict, mode: str, verdict: str,
              started: float, **extra) -> dict:
    report = {
        "schema": SCHEMA,
        "kind": kind,
        "scenario": scenario_echo,
        "mode": mode,
        "verdict": verdict,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
    }
    report.update(extra)
    return report


def run_scenario(sc: Scenario, threads: int = 1, level: float = 0.95,
                 require_conditions: bool = False) -> dict:
    """Full pipeline for one scenario: the report it names.

    A ``hypercube`` scenario goes to :func:`hypercube_inequality_report`.
    Otherwise exact mode makes one exact run that observes every compared
    pair and every connection target; each pair's joint law and each
    target's connection law are projections of it; Monte Carlo mode
    makes one sampler pass per p that observes the same sets.  Every report
    but ``scenario``, and any one ``require_conditions``, claims theorem
    instances: it skips a pair whose symmetry check fails.  Otherwise the
    pair is evaluated and its report records that no instance is claimed.
    The graph's size is checked from its spec first, so a run over the cap
    or the sampler's limit is refused before the graph is built or a pair
    or generator is parsed on it.
    """
    if sc.report == "hypercube":
        return hypercube_inequality_report(sc, threads, level)
    require_conditions = require_conditions or sc.report != "scenario"
    started = time.perf_counter()
    _check_size(sc)
    g = _parsed("graph", build_graph, sc.graph_spec)
    compared = _compared_pairs(sc, g)
    live = [(rel, pair) for rel, pair, conditions in compared
            if conditions.ok or not require_conditions]
    if live:
        observed = _observe(
            sc, g, [pair for _, pair in live],
            [resolve_vertex(g, t) for rel, _ in live
             for t in (rel.c_far, rel.c_near) if t is not None], threads)
    blocks = []
    for rel, pair, conditions in compared:
        block = {"conditions": conditions.to_json_dict()}
        if require_conditions and not conditions.ok:
            block.update(results=[], verdict=PRECONDITION_FAILED)
        elif sc.mode == "exact":
            poly = observed.joint(pair)
            results, verdict = exact_p_results(poly, sc.p_grid, conditions.ok)
            if rel.c_far is not None:
                _add_relation_slack(results, sc.p_grid, observed, g, rel)
            block.update(theorem_instance=conditions.ok, results=results,
                         verdict=verdict, config_count=poly.total_configs(),
                         polynomial=poly.to_json_dict())
        else:
            results, verdict = mc_p_results(
                [sweep.joint(pair) for sweep in observed], sc.p_grid, level)
            block.update(theorem_instance=conditions.ok, results=results,
                         verdict=verdict)
        blocks.append(block)

    verdict = worst_verdict(block["verdict"] for block in blocks)
    extra = {"law": sc.law.to_json_dict()}
    if sc.mode == "mc":
        extra["mc"] = {"n": sc.mc_n, "seed": sc.mc_seed, "level": level}
    if _flat(sc):
        del blocks[0]["verdict"]
        extra.update(blocks[0])
    else:
        extra["relations"] = [
            {"name": rel.name, "statement": rel.statement,
             "v_plus": list(rel.v_plus), "v_minus": list(rel.v_minus),
             **block}
            for (rel, _, _), block in zip(compared, blocks)]
    return _envelope(sc.report, scenario_echo(sc), sc.mode, verdict, started,
                     **extra)


def _flat(sc: Scenario) -> bool:
    """Whether the report's top level holds its only, unnamed, relation."""
    return len(sc.relations) == 1 and not sc.relations[0].name


def _check_flat(sc: Scenario, command: str) -> None:
    if not _flat(sc):
        raise ScenarioFormatError(
            f"{command} takes a scenario with one unnamed relation")


def _observe(sc: Scenario, g: Graph, pairs, targets, threads: int):
    """What one exact run (a ``ClusterSweep``), or one sampler pass per p (a
    list of ``EmpiricalSweep``), observes of the origin's cluster: the sets
    of ``pairs`` and the connection to each of ``targets``."""
    observed = exact.Observables(resolve_vertex(g, sc.origin), tuple(pairs),
                                 tuple(targets))
    if sc.mode == "exact":
        return exact.enumerate_joint(g, observed, sc.law, cap_bits=sc.cap_bits)
    return [mc.estimate_joint(g, observed, p, sc.mc_n, sc.mc_seed,
                              threads=threads)
            for p in sc.p_grid]


def _connected(marginal, p) -> tuple[int, int]:
    """A target's connection probability at p as (numerator, denominator),
    read off its marginal; every projection of one sweep at one p has the
    same denominator."""
    pmf = exact.joint_numerators(marginal, p)
    return pmf.nums.get((1, 0), 0), pmf.den


def _add_relation_slack(results, p_grid, sweep, g, rel) -> None:
    """c_far, c_near and 1 + c_far − 2·c_near, under the sweep's law."""
    far = sweep.connection(resolve_vertex(g, rel.c_far))
    near = sweep.connection(resolve_vertex(g, rel.c_near))
    for row, p in zip(results, p_grid):
        c_far, den = _connected(far, p)
        c_near, _ = _connected(near, p)
        row["c_far"] = format_ratio(c_far, den)
        row["c_near"] = format_ratio(c_near, den)
        row["relation_slack"] = format_ratio(den + c_far - 2 * c_near, den)


def scenario_echo(sc: Scenario) -> dict:
    """The document that :func:`parse_scenario` turns back into ``sc``, and
    every report's scenario block.  A lone relation with no name, statement
    or targets sits at its top level; other relations are listed."""
    doc = {
        "name": sc.name,
        "report": sc.report,
        "graph": sc.graph_spec,
        "origin": sc.origin,
        "law": sc.law.to_json_dict(),
        "p_grid": [format_fraction(p) for p in sc.p_grid],
        "mode": sc.mode,
        "cap_bits": sc.cap_bits,
        "mc": {"n": sc.mc_n, "seed": sc.mc_seed},
    }
    rels = sc.relations
    if len(rels) == 1 and (rels[0].name, rels[0].statement, rels[0].c_far,
                           rels[0].c_near) == ("", "", None, None):
        doc.update(v_plus=list(rels[0].v_plus), v_minus=list(rels[0].v_minus),
                   generators=list(rels[0].generators))
    elif rels:
        doc["relations"] = [
            dict(rel._asdict(), v_plus=list(rel.v_plus),
                 v_minus=list(rel.v_minus), generators=list(rel.generators))
            for rel in rels]
    return doc


def check_symmetry_report(sc: Scenario) -> dict:
    started = time.perf_counter()
    if sc.mode == "mc":  # refused past the sampler's limit, as its run is
        _check_size(sc)
    _check_flat(sc, "check-symmetry")
    g = _parsed("graph", build_graph, sc.graph_spec)
    _, pair, gens = _parsed_pairs(sc, g)[0]
    conditions = groups.chain_conditions(g, gens, pair)
    verdict = PASS if conditions["ok"] else PRECONDITION_FAILED
    return _envelope("check-symmetry", scenario_echo(sc), sc.mode, verdict,
                     started, conditions=conditions)


_IDENTITY_FIELDS = ("p", "identity_residuals", "identity_zero", "ratio_lhs",
                    "ratio_rhs", "ratio_equal")


def verify_identity_report(sc: Scenario) -> dict:
    """Exact identity residuals and the ratio identity; the symmetry
    conditions are a precondition here, not an optional extra."""
    _check_flat(sc, "verify-identity")
    report = run_scenario(sc._replace(mode="exact"), require_conditions=True)
    results = []
    for row in report["results"]:
        ok = row["identity_zero"] and row["ratio_equal"]
        results.append({**{key: row[key] for key in _IDENTITY_FIELDS},
                        "verdict": PASS if ok else VIOLATION})
    report["kind"] = "verify-identity"
    report["results"] = results
    if report["verdict"] != PRECONDITION_FAILED:
        report["verdict"] = worst_verdict(row["verdict"] for row in results)
    return report


# ---------------------------------------------------------------------------
# built-in base symmetries


def _base_symmetries(base_spec: Mapping) -> tuple[list[dict], int]:
    """Vertex-transitive generator specs for the named builders, on a
    product with the base as its leading factor, and the width of the
    base's labels.  No graph is built: an axis spec names the base's own
    coordinates, and ``base_perm`` lifts over the factors after it.

    For bases that are not vertex-transitive (paths beyond two vertices,
    explicit graphs without supplied generators) the specs are the best
    available; the condition check downstream reports the failure.
    """
    builder = base_spec.get("builder")
    if builder in ("bunkbed", "cylinder"):
        specs, width = _base_symmetries(base_spec["base"])
        if builder == "bunkbed":  # the layer swap
            specs.append(
                {"name": "axis_reflection", "axis": width, "center2": 1})
        else:
            specs += [{"name": "axis_rotation", "axis": width},
                      {"name": "axis_reflection", "axis": width}]
        return specs, width + 1
    if builder == "hypercube":
        d = int(base_spec["d"])
        return ([{"name": "axis_reflection", "axis": i, "center2": 1}
                 for i in range(d)]
                + [{"name": "swap_axes", "a": i, "b": i + 1}
                   for i in range(d - 1)]), d
    if builder == "torus":
        specs = [{"name": "axis_rotation", "axis": 0},
                 {"name": "axis_rotation", "axis": 1},
                 {"name": "axis_reflection", "axis": 0},
                 {"name": "axis_reflection", "axis": 1}]
        if int(base_spec["n"]) == int(base_spec["m"]):
            specs.append({"name": "swap_axes", "a": 0, "b": 1})
        return specs, 2
    if builder == "cycle":
        return [{"name": "axis_rotation", "axis": 0},
                {"name": "axis_reflection", "axis": 0}], 1
    n = int(base_spec["n"]) if builder in ("path", "complete") else 1
    if n == 1:  # a single vertex, or an explicit base
        return [], 1
    if builder == "path":
        return [{"name": "axis_reflection", "axis": 0, "center2": n - 1}], 1
    return [{"name": "base_perm", "perm": [1, 0, *range(2, n)]},
            {"name": "axis_rotation", "axis": 0}], 1


# ---------------------------------------------------------------------------
# scenario constructors: bunkbed, layered, z2, hypercube


# Each constructor builds its Scenario from the p-grid and ``settings``
# (mode, mc_n, mc_seed, cap_bits) first, so that the Scenario checks them.
# Then it checks the graph's size from its spec, and only then builds the
# base and fills in the origin and the relations.


def bunkbed_scenario(base_spec: Mapping, p_grid: Sequence = ("1/2",),
                     law="bond", **settings) -> Scenario:
    """Two stacked copies of the base: compare the origin's layer with the
    other layer under the lifted base symmetries and the layer swap."""
    sc = Scenario(
        name="bunkbed",
        graph_spec={"builder": "bunkbed", "base": base_spec},
        law=_parsed("law", parse_law, law),
        p_grid=parse_p_grid(p_grid),
        report="bunkbed",
        **settings,
    )
    _check_size(sc)
    base = _parsed("base graph", build_graph, base_spec)
    gens, _ = _base_symmetries(base_spec)
    gens.append({"name": "layer_swap"})
    return sc._replace(origin=[*base.labels[0], 0], relations=(Relation(
        "", "", _layer_labels(base, [0]), _layer_labels(base, [1]),
        tuple(gens)),))


def _layer_labels(base: Graph, layers: Sequence[int]) -> tuple:
    """The coordinate labels of a product with the base as its first factor
    and ``layers`` on its last coordinate."""
    return tuple([*label, layer] for label in base.labels for layer in layers)


def _layer_classes(m: int, choice: str, k: int, period: int | None,
                   ) -> tuple[list[int], list[int]]:
    if choice == "a":
        if not 0 < k <= m // 2:
            raise ScenarioError(f"choice a needs 0 < k <= m/2, got k={k}, m={m}")
        return [0], [k]
    if choice == "b":
        if period is None or period < 2:
            raise ScenarioError("choice b needs a period n >= 2")
        if m % period != 0:
            raise ScenarioError(f"choice b needs n | m, got n={period}, m={m}")
        if not 1 <= k < period:
            raise ScenarioError(f"choice b needs 1 <= k < n, got k={k}")
        return ([l for l in range(m) if l % period == 0],
                [l for l in range(m) if l % period == k])
    if choice == "c":
        if period is None or period < 1:
            raise ScenarioError("choice c needs a period n >= 1")
        if m % (2 * period) != 0:
            raise ScenarioError(
                f"choice c needs 2n | m, got n={period}, m={m}")
        if not 0 < k < 2 * period or k == period:
            raise ScenarioError(
                f"choice c needs 0 < k < 2n with k != n, got k={k}")
        plus = {0, k}
        minus = {period % (2 * period), (period + k) % (2 * period)}
        return ([l for l in range(m) if l % (2 * period) in plus],
                [l for l in range(m) if l % (2 * period) in minus])
    raise ScenarioError(f"choice must be one of a, b, c; got {choice!r}")


def layered_scenario(base_spec: Mapping, m: int, choice: str, k: int,
                     period: int | None = None, p_grid: Sequence = ("1/2",),
                     **settings) -> Scenario:
    """Residue-class layer comparison on the cylinder base x cycle(m).

    choice a compares layer 0 with layer k, choice b compares the residue
    classes 0 and k mod n, choice c compares {0, k} with {n, n+k} mod 2n.
    Rotations by the pattern period and the reflection through k/2 provide
    the symmetries on the cycle coordinate.
    """
    sc = Scenario(
        name="layered",
        graph_spec={"builder": "cylinder", "base": base_spec, "m": m},
        p_grid=parse_p_grid(p_grid),
        report="layered",
        **settings,
    )
    _check_size(sc)
    base = _parsed("base graph", build_graph, base_spec)
    plus_layers, minus_layers = _layer_classes(m, choice, k, period)
    gens, axis = _base_symmetries(base_spec)  # the cylinder's cycle axis
    if choice in ("b", "c"):
        gens.append({"name": "axis_rotation", "axis": axis, "step": period})
    gens.append({"name": "axis_reflection", "axis": axis, "center2": k})
    return sc._replace(
        origin=[*base.labels[0], 0],
        relations=(Relation("", "", _layer_labels(base, plus_layers),
                            _layer_labels(base, minus_layers), tuple(gens)),))


def z2_scenario(size: int, p_grid: Sequence = ("1/2",),
                **settings) -> Scenario:
    """Connection-probability relations of the square lattice, realized on
    the size x size torus.  Results are torus statements; growing the torus
    provides evidence toward, not proof of, the planar statement."""
    sc = Scenario(
        name="z2-on-torus",
        graph_spec={"builder": "torus", "n": size, "m": size},
        origin=[0, 0],
        p_grid=parse_p_grid(p_grid),
        report="z2",
        **settings,
    )
    if size < 3:
        raise ScenarioError(f"torus size must be >= 3, got {size}")
    _check_size(sc)
    diag = {"name": "swap_axes", "a": 0, "b": 1}
    # reflection across the diagonal through (1, 0): (x, y) -> (y + 1, x - 1)
    diag_shifted = {"name": "compose", "of": [
        {"name": "axis_rotation", "axis": 0, "step": 1},
        {"name": "axis_rotation", "axis": 1, "step": -1},
        diag,
    ]}
    return sc._replace(relations=(
        Relation("relation-1", "1 + c(1,1) >= 2 c(1,0)",
                 v_plus=([0, 0], [1, 1]), v_minus=([1, 0], [0, 1]),
                 generators=(diag, {"name": "axis_reflection", "axis": 0,
                                    "center2": 1}),
                 c_far=[1, 1], c_near=[1, 0]),
        Relation("relation-2", "1 + c(2,0) >= 2 c(1,1)",
                 v_plus=([0, 0], [2, 0]), v_minus=([1, 1], [1, size - 1]),
                 generators=({"name": "axis_reflection", "axis": 0,
                              "center2": 2}, diag_shifted),
                 c_far=[2, 0], c_near=[1, 1]),
    ))


def hypercube_scenario(d: int, p_grid: Sequence = ("1/2",),
                       **settings) -> Scenario:
    """The d-cube, with the origin at vertex 0 and no relations listed: in
    exact mode its report derives them from ``_hypercube_walk``."""
    return Scenario(
        name="hypercube",
        graph_spec={"builder": "hypercube", "d": d},
        p_grid=parse_p_grid(p_grid),
        report="hypercube",
        **settings,
    )


# ---------------------------------------------------------------------------
# scenario harness: hypercube connection-probability inequalities


def _c_value_gap(construction: str, k: int, l: int, c: Sequence):
    """The c-value combination that a construction's expectation gap equals:
    sum (-1)^i C(k,i) C(l,j) c_{i+j} for ``double_sum``, sum (-1)^i C(k,i)
    (c_i -/+ c_{i+l}) for ``alternating_block``/``aligned_block``.  ``c``
    holds probabilities, estimates or one sample's connection indicators."""
    if construction == "double_sum":
        return sum((-1) ** i * comb(k, i) * comb(l, j) * c[i + j]
                   for i in range(k + 1) for j in range(l + 1))
    sign = {"alternating_block": -1, "aligned_block": 1}[construction]
    return sum((-1) ** i * comb(k, i) * (c[i] + sign * c[i + l])
               for i in range(k + 1))


def discrete_derivative(values: Sequence, k: int, l: int):
    """k-th finite difference of the sequence at offset l."""
    if k < 0 or l < 0 or k + l > len(values) - 1:
        raise IndexError(
            f"derivative needs 0 <= k + l <= {len(values) - 1}, "
            f"got k={k}, l={l}")
    total = 0
    for i in range(k + 1):
        sign = 1 if (k - i) % 2 == 0 else -1
        total += sign * comb(k, i) * values[l + i]
    return total


_CONSTRUCTIONS = ("double_sum", "alternating_block", "aligned_block")


def _hypercube_walk(d: int) -> list[tuple[int, int, str]]:
    """(k, l, construction) of every instance on the d-cube, in the order of
    the scenario's relations and of the report; the two block constructions
    need l >= 1."""
    return [(k, l, name) for k in range(1, d + 1) for l in range(d - k + 1)
            for name in _CONSTRUCTIONS[:3 if l else 1]]


def _hypercube_relation(g: Graph, k: int, l: int,
                        construction: str) -> Relation:
    """The set pair behind one inequality at (k, l): its expectation gap
    equals ``_c_value_gap(construction, k, l, c)``, which the report
    cross-checks exactly."""
    def by_parity(vertices):
        """(even, odd) by the parity of the first k coordinates."""
        return tuple([v for v in vertices if sum(g.labels[v][:k]) % 2 == odd]
                     for odd in (0, 1))

    def flip(axis):
        return {"name": "axis_reflection", "axis": axis, "center2": 1}

    # the vertices that are 0 past coordinate k + l
    sub = [v for v, lab in enumerate(g.labels) if not any(lab[k + l:])]
    if construction == "double_sum":
        v_plus, v_minus = by_parity(sub)
        return Relation(construction, "", tuple(v_plus), tuple(v_minus),
                        tuple(flip(i) for i in range(k + l)))

    even0, odd0 = by_parity([v for v in sub if not any(g.labels[v][k:])])
    even1, odd1 = by_parity([v for v in sub if all(g.labels[v][k:k + l])])
    if construction == "alternating_block":
        v_plus, v_minus = even0 + odd1, odd0 + even1
    else:
        v_plus, v_minus = even0 + even1, odd0 + odd1

    block_flip = {"name": "compose",
                  "of": [flip(i) for i in range(k, k + l)]}
    return Relation(construction, "", tuple(v_plus), tuple(v_minus),
                    (*(flip(i) for i in range(k)), block_flip))


def hypercube_inequality_report(sc: Scenario, threads: int = 1,
                                level: float = 0.95) -> dict:
    """All inequality families on the d-cube of a ``hypercube`` scenario,
    for every k + l <= d, with the cube's size checked before it is built.

    Exact mode also checks each inequality as the expectation gap of its
    instance pair: the gap must equal the c-value combination exactly, and
    the pair must meet the symmetry conditions.  The c-values and every
    instance pair come from one exact run; in Monte Carlo mode every c-value
    at one p comes from one sampler pass.
    """
    started = time.perf_counter()
    _check_size(sc)
    g = _parsed("graph", build_graph, sc.graph_spec)
    d = len(g.labels[0])
    verdicts = []
    extra = {}
    if sc.mode == "exact":
        compared = _compared_pairs(sc, g, relations=[
            _hypercube_relation(g, *entry) for entry in _hypercube_walk(d)])
        sweep = _observe(sc, g, [pair for _, pair, _ in compared],
                         range(g.n_vertices), threads)
        # coordinate permutations fix the origin, so every vertex at one
        # distance must have the same connection marginal
        by_distance: dict[int, list] = {}
        for v, dist in enumerate(graphs.distances_from(g, 0)):
            by_distance.setdefault(dist, []).append(sweep.connection(v))
        invariance = all(vec == vecs[0] for vecs in by_distance.values()
                         for vec in vecs)
        extra["invariance"] = invariance
        if not invariance:
            verdicts.append(VIOLATION)
        polys = [(k, l, name, conditions, sweep.joint(pair))
                 for (k, l, name), (_, pair, conditions)
                 in zip(_hypercube_walk(d), compared, strict=True)]
        results = []
        for p in sc.p_grid:
            c, dens = zip(*(_connected(by_distance[i][0], p)
                            for i in range(d + 1)))
            results.append(_exact_hypercube_entry(d, p, c, dens[0], polys))
    else:
        extra["mc"] = {"n": sc.mc_n, "seed": sc.mc_seed, "level": level}
        reps = tuple(g.index_of((1,) * i + (0,) * (d - i))
                     for i in range(d + 1))
        results = [_mc_hypercube_entry(d, p, sweep, reps, level)
                   for p, sweep in zip(sc.p_grid,
                                       _observe(sc, g, (), reps, threads))]
    verdicts += [entry["verdict"] for entry in results]
    return _envelope(sc.report, scenario_echo(sc), sc.mode,
                     worst_verdict(verdicts), started, results=results, **extra)


def _hypercube_rows(d: int, c: Sequence, measure) -> list[dict]:
    """The inequality rows for every k + l <= d, in one shape for both modes.

    Each quantity is ``stat(c)`` for a linear combination ``stat`` of the
    c-values, and ``measure(stat)`` returns how the report shows it and the
    verdict on "it is >= 0".  The abs-compare row combines the two point
    derivatives with the signs they take at ``c``.
    """
    rows = []
    for k in range(d + 1):
        for l in range(d - k + 1):
            s0 = -1 if discrete_derivative(c, k, 0) < 0 else 1
            s1 = -1 if discrete_derivative(c, k, l) < 0 else 1
            double_sum, sum_verdict = measure(
                lambda x: _c_value_gap("double_sum", k, l, x))
            at_0, _ = measure(lambda x: s0 * discrete_derivative(x, k, 0))
            at_l, _ = measure(lambda x: s1 * discrete_derivative(x, k, l))
            _, compare_verdict = measure(
                lambda x: s0 * discrete_derivative(x, k, 0)
                - s1 * discrete_derivative(x, k, l))
            rows.append({"k": k, "l": l, "double_sum": double_sum,
                         "abs_derivative_at_0": at_0,
                         "abs_derivative_at_l": at_l,
                         "double_sum_verdict": sum_verdict,
                         "abs_compare_verdict": compare_verdict})
    return rows


def _hypercube_entry(p, c_values: list, rows: list[dict], **checks) -> dict:
    """One p's hypercube result; ``checks`` are further lists of items that
    each carry a verdict."""
    verdicts = [row[key] for row in rows
                for key in ("double_sum_verdict", "abs_compare_verdict")]
    verdicts += [item["verdict"] for items in checks.values() for item in items]
    return {"p": format_fraction(p), "c_values": c_values, "rows": rows,
            **checks, "verdict": worst_verdict(verdicts)}


def _exact_hypercube_entry(d, p, c, den, polys) -> dict:
    """One p's exact result from the c-values ``c[i] / den``: every row,
    derivative and predicted gap is an integer combination of them over
    ``den``."""
    def measure(stat):
        value = stat(c)
        return format_ratio(value, den), _sign_verdict(value)

    rows = _hypercube_rows(d, c, measure)
    derivatives = []
    for k in range(d + 1):
        val = discrete_derivative(c, k, 0)
        derivatives.append({"k": k, "value": format_ratio(val, den),
                            "verdict": _sign_verdict((-1) ** k * val)})
    return _hypercube_entry(
        p, [format_ratio(x, den) for x in c], rows, derivatives=derivatives,
        instances=_check_hypercube_instances(p, c, den, polys))


def _check_hypercube_instances(p, c, den, polys) -> list[dict]:
    """Check each inequality as a genuine symmetric-set expectation gap.
    The instances and the c-values are projections of one sweep, so the
    gap's pmf and the c-values share the denominator ``den`` and the
    numerators compare directly."""
    instances = []
    for k, l, name, conditions, poly in polys:
        pmf = exact.joint_numerators(poly, p)
        e_plus, e_minus = exact.expected_numerators(pmf)
        gap = e_plus - e_minus
        passes = all(m >= 0 for m in exact.margin_numerators(pmf))
        predicted = _c_value_gap(name, k, l, c)
        inst_ok = conditions.ok and gap == predicted and gap >= 0 and passes
        instances.append({
            "k": k, "l": l, "construction": name,
            "conditions_ok": conditions.ok,
            "expectation_gap": format_ratio(gap, pmf.den),
            "predicted_gap": format_ratio(predicted, den),
            "margins_pass": passes,
            "verdict": PASS if inst_ok else VIOLATION,
        })
    return instances


def _mc_hypercube_entry(d, p, sweep, reps, level) -> dict:
    """Monte Carlo inequality rows read off one sampler pass.

    Every c_i comes from the same samples, so the estimates are coupled.
    Each row quantity is the mean of one linear combination of a sample's
    connection indicators, and its standard error is that combination's
    empirical standard error over the samples.  A record's interval is the
    union-bound interval its verdict is judged on.
    """
    estimates = [sweep.connection(v, level) for v in reps]
    # two verdicts per (k, l), the union bound's count of tests
    z = mc.z_value(level, (d + 1) * (d + 2))
    c = [e["estimate"] for e in estimates]
    indicators = {key: [key >> v & 1 for v in reps] for key in sweep.bins}

    def measure(stat):
        _, err = sweep.mean_stderr(lambda key: stat(indicators[key]))
        return mc.interval(stat(c), err, z)

    rows = _hypercube_rows(d, c, measure)
    return _hypercube_entry(p, estimates, rows)


# ---------------------------------------------------------------------------
# group identity battery


# The named groups of the battery, as the scenarios whose pair and
# generators it reads.
_NAMED_GROUPS = {
    "d4-on-c4": lambda: parse_scenario({
        "graph": {"builder": "cycle", "n": 4},
        "v_plus": [0, 2], "v_minus": [1, 3], "origin": 0,
        "generators": [[1, 2, 3, 0], [0, 3, 2, 1]],
    }),
    "bunkbed-c3": lambda: bunkbed_scenario(_CYCLE3),
}


def _named_group(name: str):
    """(graph, generators, pair) of a named group's scenario."""
    if name not in _NAMED_GROUPS:
        raise ScenarioFormatError(f"unknown named group {name!r}; available: "
                                  + ", ".join(_NAMED_GROUPS))
    sc = _NAMED_GROUPS[name]()
    g = build_graph(sc.graph_spec)
    _, pair, gens = _parsed_pairs(sc, g)[0]
    return g, gens, pair


def group_theorem_battery(name: str, trials: int = 100, seed: int = 0) -> dict:
    """Exhaustive and sampled checks of the counting identities for one of
    the named group actions."""
    started = time.perf_counter()
    fields = _group_battery(*_named_group(name), trials, seed)
    return _envelope(
        "verify-group-theorem",
        {"name": name, "trials": trials, "seed": seed},
        "exact",
        PASS if fields["all_exact"] else VIOLATION,
        started,
        **fields,
    )


def _group_battery(g: Graph, gens: Sequence, pair: groups.VertexSetPair,
                   trials: int, seed: int) -> dict:
    """The battery's report fields: the symmetry conditions, the group
    order, the failures of each counting lemma and whether there were
    none."""
    conditions, (product, stab, swap, double) = groups.lemma_failures(
        g, gens, pair, trials, seed)
    return {
        "conditions": conditions,
        "group_order": conditions["group_order"],
        "orbit_product_pairs": g.n_vertices ** 2,
        "orbit_product_failures": product,
        "stabilizer_symmetry_failures": stab,
        "swap_symmetry_failures": swap,
        "double_counting_trials": trials,
        "double_counting_failures": double,
        "all_exact": not (product or stab or swap or double),
    }


# ---------------------------------------------------------------------------
# built-in scenario corpus


def _relation_scenario(sc: Scenario, index: int) -> Scenario:
    """One relation of a constructed scenario as a single-pair scenario."""
    rel = sc.relations[index]
    return sc._replace(relations=(
        Relation("", "", rel.v_plus, rel.v_minus, rel.generators),))


_THIRDS = ("1/3", "1/2")
_QUARTERS = ("1/4", "1/2", "3/4")
_PATH2 = {"builder": "path", "n": 2}
_CYCLE3 = {"builder": "cycle", "n": 3}
_POINT = {"builder": "path", "n": 1}

# Each builtin is one constructor call, except the two that no constructor
# makes, which are parsed from their documents.
BUILTINS = {
    "bunkbed-path2": lambda: bunkbed_scenario(_PATH2),
    "bunkbed-cycle3": lambda: bunkbed_scenario(_CYCLE3),
    "bunkbed-cycle5": lambda: bunkbed_scenario({"builder": "cycle", "n": 5}),
    "bunkbed-path3": lambda: bunkbed_scenario({"builder": "path", "n": 3}),
    "bunkbed-cycle3-site": lambda: bunkbed_scenario(_CYCLE3, _THIRDS, "site"),
    "bunkbed-path2-rc2": lambda: bunkbed_scenario(_PATH2, _THIRDS, "rc:2"),
    "bunkbed-path2-rchalf": lambda: bunkbed_scenario(_PATH2, _THIRDS,
                                                     "rc:1/2"),
    "z2-n3-rel1": lambda: _relation_scenario(z2_scenario(3, _QUARTERS), 0),
    "z2-n3-rel2": lambda: _relation_scenario(z2_scenario(3, _QUARTERS), 1),
    # axis-aligned parallel-lines pattern (the one line-class pattern
    # that transfers verbatim to the torus quotient)
    "z2-n3-lines": lambda: parse_scenario({
        "graph": {"builder": "torus", "n": 3, "m": 3},
        "v_plus": [[0, 0], [0, 1], [0, 2]],
        "v_minus": [[1, 0], [1, 1], [1, 2]],
        "origin": [0, 0],
        "generators": [
            {"name": "axis_rotation", "axis": 1, "step": 1},
            {"name": "axis_reflection", "axis": 1, "center2": 0},
            {"name": "axis_reflection", "axis": 0, "center2": 1},
        ],
    }),
    "layered-m8-b": lambda: layered_scenario(_POINT, 8, "b", 1, 2, _QUARTERS),
    "layered-m6-a": lambda: layered_scenario(_POINT, 6, "a", 3,
                                             p_grid=_QUARTERS),
    "asym-path4": lambda: parse_scenario({
        "graph": {"builder": "path", "n": 4},
        "v_plus": [0, 3], "v_minus": [1, 2], "origin": 0,
    }),
    "mc-bunkbed-path2": lambda: bunkbed_scenario(
        _PATH2, mode="mc", mc_n=100_000, mc_seed=42),
}


def _builtin(name: str) -> Scenario:
    """One builtin, as the scenario that its document parses to."""
    if name not in BUILTINS:
        raise ScenarioFormatError(
            f"unknown builtin scenario {name!r}; available: "
            + ", ".join(sorted(BUILTINS)))
    return BUILTINS[name]()._replace(name=name, report="scenario")


def builtin_scenarios() -> dict[str, dict]:
    """Named scenario documents covering the acceptance corpus, so CI runs
    need no hand-written files.  A document is its scenario's echo."""
    return {name: scenario_echo(_builtin(name)) for name in BUILTINS}


def load_scenario(ref: str) -> Scenario:
    """Load a scenario from "builtin:NAME" or from a JSON file path."""
    import json
    from pathlib import Path

    if ref.startswith("builtin:"):
        return _builtin(ref.split(":", 1)[1])
    path = Path(ref)
    try:
        doc = json.loads(path.read_text())
    except OSError as exc:
        raise ScenarioFormatError(f"cannot read scenario file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"scenario file is not valid JSON: {exc}") from None
    return parse_scenario(doc, path.stem)
