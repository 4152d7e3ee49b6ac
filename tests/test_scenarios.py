import math
import statistics
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symperc import exact, graphs, groups, mc, scenarios
from symperc.exact import BOND, SITE, parse_law
from symperc.graphs import hypercube_graph, torus_graph
from symperc.rationals import format_fraction
from symperc.scenarios import (
    PASS,
    PRECONDITION_FAILED,
    BUILTINS,
    VIOLATION,
    ScenarioError,
    ScenarioFormatError,
    builtin_scenarios,
    bunkbed_scenario,
    discrete_derivative,
    group_theorem_battery,
    hypercube_inequality_report,
    hypercube_scenario,
    layered_scenario,
    load_scenario,
    parse_scenario,
    run_scenario,
    scenario_echo,
    z2_scenario,
)

import _oracles as oracle
from test_groups import constructor_scenarios
from _oracles import (
    bond_connection,
    expected,
    observed_graphs,
    pair_joint,
    sample_cluster,
)

HALF = F(1, 2)


def instance_report(sc):
    """Run a constructed scenario as its CLI subcommand does."""
    return run_scenario(sc, require_conditions=True)


def layers(report, side):
    """The layers of a set of a layered report: the last coordinate of the
    labels its scenario block lists."""
    return sorted({label[-1] for label in report["scenario"][side]})


# ---------------------------------------------------------------------------
# hypercube


def hypercube_c_values(d, p):
    """c_0..c_d as the exact hypercube report gives them."""
    rep = hypercube_inequality_report(hypercube_scenario(d, [p]))
    assert rep["invariance"] is True
    return tuple(F(c) for c in rep["results"][0]["c_values"])


def test_hypercube_c_values_d2():
    c = hypercube_c_values(2, HALF)
    assert c == (F(1), F(9, 16), F(7, 16))
    assert c[0] == 1


def test_hypercube_c_values_d3_strict_ordering_and_oracle():
    c = hypercube_c_values(3, HALF)
    g = hypercube_graph(3)
    for i in (1, 2, 3):
        rep = g.index_of((1,) * i + (0,) * (3 - i))
        assert c[i] == bond_connection(8, g.edges, 0, rep, HALF)
    assert c[1] > c[2] > c[3]


def test_hypercube_c_values_any_p_starts_at_one():
    for p in ("1/4", "3/4"):
        assert hypercube_c_values(3, p)[0] == 1


def test_discrete_derivative_examples():
    c = hypercube_c_values(2, HALF)
    assert discrete_derivative(c, 0, 1) == c[1]  # zeroth derivative
    assert discrete_derivative(c, 1, 0) == F(-7, 16)
    assert discrete_derivative(c, 2, 0) == F(7, 16) - F(18, 16) + F(16, 16)
    assert discrete_derivative(c, 2, 0) == F(5, 16)
    assert abs(discrete_derivative(c, 1, 0)) >= abs(
        discrete_derivative(c, 1, 1)) == F(2, 16)
    with pytest.raises(IndexError):
        discrete_derivative(c, 2, 1)


def test_hypercube_report_d3_exact():
    rep = hypercube_inequality_report(
        hypercube_scenario(3, ["1/4", "1/2", "3/4"]))
    assert rep["verdict"] == PASS
    assert rep["invariance"] is True
    for entry in rep["results"]:
        assert all(row["double_sum_verdict"] == PASS
                   and row["abs_compare_verdict"] == PASS
                   for row in entry["rows"])
        assert all(d["verdict"] == PASS for d in entry["derivatives"])
        # every inequality is also realized as a symmetric-pair instance
        # whose expectation gap matches the c-value combination exactly
        assert all(inst["verdict"] == PASS for inst in entry["instances"])
        assert all(inst["expectation_gap"] == inst["predicted_gap"]
                   for inst in entry["instances"])
    # the trivial row (0, 0) is the constant 1
    first = rep["results"][0]["rows"][0]
    assert (first["k"], first["l"], first["double_sum"]) == (0, 0, "1")


def test_hypercube_report_monotone_c_values():
    rep = hypercube_inequality_report(
        hypercube_scenario(3, ["1/10", "1/2", "9/10"]))
    grids = [[F(x) for x in entry["c_values"]] for entry in rep["results"]]
    for i in range(4):
        series = [row[i] for row in grids]
        assert all(x <= y for x, y in zip(series, series[1:]))


def test_hypercube_mc_mode_consistent():
    rep = hypercube_inequality_report(
        hypercube_scenario(2, ["1/2"], mode="mc", mc_n=20_000, mc_seed=3))
    assert rep["verdict"] in (PASS,)
    entry = rep["results"][0]
    exact_c = hypercube_c_values(2, HALF)
    for est, true in zip(entry["c_values"], exact_c):
        if est["estimate"] not in (1.0,):
            assert est["ci"][0] <= float(true) <= est["ci"][1]


def test_hypercube_mc_stderr_accounts_for_coupling():
    # every c_i comes from the same samples, so a row's standard error is
    # that of its combination of one sample's connection indicators
    d, n, seed = 3, 2000, 5
    rep = hypercube_inequality_report(
        hypercube_scenario(d, ["1/2"], mode="mc", mc_n=n, mc_seed=seed))
    g = hypercube_graph(d)
    reps = [g.index_of((1,) * i + (0,) * (d - i)) for i in range(d + 1)]
    hits = []
    for i in range(n):
        cluster = set(sample_cluster(g, 0, HALF, seed, i))
        hits.append([v in cluster for v in reps])
    for row in rep["results"][0]["rows"]:
        k, l = row["k"], row["l"]
        xs = [sum((-1) ** i * comb(k, i) * comb(l, j) * h[i + j]
                  for i in range(k + 1) for j in range(l + 1)) for h in hits]
        assert row["double_sum"]["stderr"] == pytest.approx(
            statistics.stdev(xs) / math.sqrt(n), rel=1e-9, abs=1e-15)
        for key, offset in (("abs_derivative_at_0", 0),
                            ("abs_derivative_at_l", l)):
            ys = [discrete_derivative(h, k, offset) for h in hits]
            assert row[key]["estimate"] == pytest.approx(
                abs(statistics.mean(ys)), rel=1e-9, abs=1e-15)
            assert row[key]["stderr"] == pytest.approx(
                statistics.stdev(ys) / math.sqrt(n), rel=1e-9, abs=1e-15)


def test_hypercube_mc_rows_cover_the_exact_values():
    # each row's 95% interval estimate +/- z stderr must cover the exact
    # d=3 value in at least 85% of 40 independent seeds
    exact_rows = hypercube_inequality_report(
        hypercube_scenario(3, ["1/2"]))["results"][0]["rows"]
    truth = [float(F(row["double_sum"])) for row in exact_rows]
    z = statistics.NormalDist().inv_cdf(0.975)
    covered = [0] * len(truth)
    seeds = range(40)
    for seed in seeds:
        rep = hypercube_inequality_report(hypercube_scenario(
            3, ["1/2"], mode="mc", mc_n=2000, mc_seed=seed))
        rows = rep["results"][0]["rows"]
        assert [(r["k"], r["l"]) for r in rows] == [
            (r["k"], r["l"]) for r in exact_rows]
        for i, (row, value) in enumerate(zip(rows, truth)):
            half = z * row["double_sum"]["stderr"]
            covered[i] += abs(row["double_sum"]["estimate"] - value) <= half
    assert all(c >= 0.85 * len(seeds) for c in covered), covered


def test_hypercube_cap():
    with pytest.raises(exact.CapExceeded):
        # 32 edges over default cap
        hypercube_inequality_report(hypercube_scenario(4, ["1/2"]))


def test_hypercube_refuses_an_unknown_mode_before_building(monkeypatch):
    def unbuilt(d):
        raise AssertionError("the cube was built before the mode was checked")

    monkeypatch.setattr(graphs, "hypercube_graph", unbuilt)
    with pytest.raises(ScenarioFormatError,
                       match="mode must be 'exact' or 'mc', got 'bogus'"):
        hypercube_inequality_report(
            hypercube_scenario(2, ["1/2"], mode="bogus", mc_n=100))


def test_hypercube_report_equals_the_fraction_oracle():
    # under every law the c-values are the brute-force sweep's, weighed one
    # configuration at a time, and every instance gap is its prediction
    d, g = 3, hypercube_graph(3)
    walk = scenarios._hypercube_walk(d)
    relations = [scenarios._hypercube_relation(g, *entry) for entry in walk]
    reps = [g.index_of((1,) * i + (0,) * (d - i)) for i in range(d + 1)]
    tails = (F(30, 83), F(2, 89), F(88, 89))
    for law, grid in ((BOND, (HALF, F(61, 89), F(2, 97), F(88, 89))),
                      (SITE, (HALF, *tails)),
                      (parse_law("rc:2"), (HALF, *tails)),
                      (parse_law("rc:1/2"), (HALF, *tails))):
        sc = hypercube_scenario(d, grid, law=law)
        report = hypercube_inequality_report(sc)
        assert report["verdict"] == PASS
        polys = []
        for (k, l, name), (_, pair, gens) in zip(
                walk, scenarios._parsed_pairs(sc, g, relations), strict=True):
            polys.append((k, l, name,
                          groups.check_symmetry_conditions(g, gens, pair),
                          pair_joint(exact.enumerate_joint, g, pair, law)))
        bins = oracle.brute_force_bins(
            g, exact.Observables(0, targets=tuple(reps)), law)
        for p, entry in zip(grid, report["results"], strict=True):
            pmf = oracle.bins_pmf(bins, law.units(g), law, p)
            c = [sum(w for sizes, w in pmf.items() if sizes[i])
                 for i in range(d + 1)]
            assert c[0] == 1
            assert entry == oracle.hypercube_entry(d, p, c, polys)
            assert all(inst["expectation_gap"] == inst["predicted_gap"]
                       for inst in entry["instances"])


# ---------------------------------------------------------------------------
# z2 on the torus


def test_z2_relations_exact_n3():
    rep = instance_report(z2_scenario(3, ["1/4", "1/2", "3/4"]))
    assert rep["verdict"] == PASS
    assert len(rep["relations"]) == 2
    for rel in rep["relations"]:
        assert rel["conditions"]["ok"]
        for row in rel["results"]:
            assert row["domination"]["verdict"] == PASS
            assert row["identity_zero"] and row["ratio_equal"]
            # expectation gap equals the c-value slack: two independent
            # computation routes must agree exactly
            assert row["expectation_gap"] == row["relation_slack"]
            assert F(row["relation_slack"]) >= 0


def test_z2_relation_slack_equals_the_fraction_api():
    grid = (F(1, 3), F(61, 89), F(2, 97))
    g = torus_graph(3, 3)
    for law in (BOND, SITE, parse_law("rc:2")):
        report = instance_report(z2_scenario(3, grid, law=law))
        for rel, block in zip(z2_scenario(3).relations, report["relations"],
                              strict=True):
            far, near = g.index_of(rel.c_far), g.index_of(rel.c_near)
            sweep = exact.enumerate_joint(g, exact.Observables(
                g.index_of((0, 0)), targets=(far, near)), law)
            for p, row in zip(grid, block["results"], strict=True):
                c_far = oracle.eval_joint(sweep.connection(far), p)[(1, 0)]
                c_near = oracle.eval_joint(sweep.connection(near), p)[(1, 0)]
                assert row["c_far"] == format_fraction(c_far)
                assert row["c_near"] == format_fraction(c_near)
                assert row["relation_slack"] == format_fraction(
                    1 + c_far - 2 * c_near)
                # v_plus holds the origin and c_far's target, and a torus
                # symmetry fixing the origin swaps v_minus: so under any
                # invariant law
                assert c_far == F(row["expected_plus"]) - 1
                assert c_near == F(row["expected_minus"]) / 2


def test_mc_size_limit_is_inclusive(monkeypatch):
    # the 3x3 torus has 9 vertices and 18 edges
    monkeypatch.setattr(mc, "_CHUNK_STATE_BITS", 27 * mc._MIN_CHUNK_SIZE)
    assert z2_scenario(3, mode="mc").mode == "mc"
    monkeypatch.setattr(mc, "_CHUNK_STATE_BITS", 26 * mc._MIN_CHUNK_SIZE)
    with pytest.raises(ScenarioError, match="9 vertices and 18 edges"):
        z2_scenario(3, mode="mc")
    with pytest.raises(ScenarioError, match="18 vertices and 27 edges"):
        bunkbed_scenario({"builder": "cycle", "n": 9}, mode="mc")
    assert z2_scenario(3).mode == "exact"  # the limit is the sampler's


def test_z2_size_validation():
    with pytest.raises(ScenarioError):
        z2_scenario(2, ["1/2"])


def test_z2_parallel_lines_scenario():
    # parallel axis-aligned lines on the torus; also reachable through the
    # layered harness with a cyclic base (cycle(3) x cycle(3) is the torus)
    rep = run_scenario(load_scenario("builtin:z2-n3-lines"))
    assert rep["theorem_instance"] and rep["verdict"] == PASS
    layered = instance_report(layered_scenario(
        {"builder": "cycle", "n": 3}, m=3, choice="a", k=1, p_grid=["1/2"]))
    assert layered["verdict"] == PASS
    assert layered["results"][0]["expected_plus"] == \
        rep["results"][0]["expected_plus"]


# ---------------------------------------------------------------------------
# exact report values against the Fraction oracles


PROBABILITIES = st.integers(2, 120).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda n: F(n, d)))


def _fraction_result(poly, p, theorem_instance):
    """One ``exact_p_results`` row from the term-by-term Fraction oracles."""
    pmf = oracle.eval_joint(poly, p)
    e_plus, e_minus = oracle.expectations(pmf)
    dom = oracle.check_domination(pmf)
    residuals = oracle.check_partition_identity(pmf)
    ratio_lhs, ratio_rhs = oracle.check_ratio_identity(pmf)
    identity_zero = all(r == 0 for r in residuals.values())
    ok = dom.passes and (not theorem_instance or (
        identity_zero and ratio_lhs == ratio_rhs and e_plus >= e_minus))
    thresholds = [{"t": t, "margin": format_fraction(m),
                   "verdict": PASS if m >= 0 else VIOLATION}
                  for t, m in enumerate(dom.margins, 1)]
    return {
        "p": format_fraction(p),
        "expected_plus": format_fraction(e_plus),
        "expected_minus": format_fraction(e_minus),
        "expectation_gap": format_fraction(e_plus - e_minus),
        "domination": {"verdict": PASS if dom.passes else VIOLATION,
                       "thresholds": thresholds},
        "identity_residuals": {k: format_fraction(v)
                               for k, v in residuals.items()},
        "identity_zero": identity_zero,
        "ratio_lhs": format_fraction(ratio_lhs),
        "ratio_rhs": format_fraction(ratio_rhs),
        "ratio_equal": ratio_lhs == ratio_rhs,
        "verdict": PASS if ok else VIOLATION,
    }


@settings(max_examples=40, deadline=None, derandomize=True)
@given(observed_graphs(), st.lists(PROBABILITIES, min_size=1, max_size=3),
       st.booleans())
def test_report_values_equal_the_fraction_api(case, grid, theorem_instance):
    g, o, pairs, _ = case
    for law in (BOND, SITE, parse_law("rc:2"), parse_law("rc:1/2")):
        sweep = exact.enumerate_joint(g, exact.Observables(o, tuple(pairs)),
                                      law)
        for pair in pairs:
            poly = sweep.joint(pair)
            results, verdict = scenarios.exact_p_results(poly, grid,
                                                         theorem_instance)
            want = [_fraction_result(poly, p, theorem_instance) for p in grid]
            assert results == want
            # the CSV lists the residuals in the report's own order
            assert [list(row["identity_residuals"]) for row in results] == [
                list(row["identity_residuals"]) for row in want]
            assert verdict == scenarios.worst_verdict(
                row["verdict"] for row in want)


# ---------------------------------------------------------------------------
# bunkbed


def test_bunkbed_path2_report():
    rep = instance_report(bunkbed_scenario({"builder": "path", "n": 2},
                                           ["1/2"]))
    assert rep["verdict"] == PASS
    row = rep["results"][0]
    assert row["expected_plus"] == "25/16"
    assert row["expected_minus"] == "1"


def test_bunkbed_cycle5_full_pipeline():
    rep = instance_report(bunkbed_scenario({"builder": "cycle", "n": 5},
                                           ["1/2"]))
    assert rep["verdict"] == PASS
    assert rep["config_count"] == 2 ** 15
    row = rep["results"][0]
    assert row["domination"]["verdict"] == PASS
    assert row["identity_zero"] and row["ratio_equal"]


def test_bunkbed_path3_halts_on_symmetry_failure():
    rep = instance_report(bunkbed_scenario({"builder": "path", "n": 3},
                                           ["1/2"]))
    assert rep["verdict"] == PRECONDITION_FAILED
    assert not rep["conditions"]["transitive"]
    assert rep["results"] == []


# ---------------------------------------------------------------------------
# layered


def test_layered_single_vertex_m8_choice_b():
    rep = instance_report(layered_scenario(
        {"builder": "path", "n": 1}, m=8, choice="b", k=1, period=2,
        p_grid=["1/4", "1/2", "3/4"]))
    assert rep["verdict"] == PASS
    assert rep["config_count"] == 2 ** 8
    assert layers(rep, "v_plus") == [0, 2, 4, 6]
    assert layers(rep, "v_minus") == [1, 3, 5, 7]
    for row in rep["results"]:
        assert row["domination"]["verdict"] == PASS and row["identity_zero"]


def test_layered_single_vertex_m6_choice_a():
    rep = instance_report(layered_scenario(
        {"builder": "path", "n": 1}, m=6, choice="a", k=3, p_grid=["1/2"]))
    assert rep["verdict"] == PASS
    assert layers(rep, "v_plus") == [0]
    assert layers(rep, "v_minus") == [3]


def test_layered_choice_c():
    rep = instance_report(layered_scenario(
        {"builder": "path", "n": 1}, m=8, choice="c", k=1, period=2,
        p_grid=["1/2"]))
    assert rep["verdict"] == PASS
    assert layers(rep, "v_plus") == [0, 1, 4, 5]
    assert layers(rep, "v_minus") == [2, 3, 6, 7]


def test_layered_vertex_transitive_base():
    # two-vertex base: the cylinder is a prism over the 4-cycle (12 edges)
    rep = instance_report(layered_scenario(
        {"builder": "path", "n": 2}, m=4, choice="b", k=1, period=2,
        p_grid=["1/2"]))
    assert rep["verdict"] == PASS
    assert rep["config_count"] == 2 ** 12


def test_layered_precondition_errors():
    base = {"builder": "path", "n": 1}
    with pytest.raises(ScenarioError):
        layered_scenario(base, m=8, choice="b", k=1, period=3)  # 3 does not divide 8
    with pytest.raises(ScenarioError):
        layered_scenario(base, m=8, choice="b", k=2, period=2)  # k >= n
    with pytest.raises(ScenarioError):
        layered_scenario(base, m=6, choice="a", k=4)  # k > m/2
    with pytest.raises(ScenarioError):
        layered_scenario(base, m=8, choice="c", k=2, period=2)  # k == n
    with pytest.raises(ScenarioError):
        layered_scenario(base, m=6, choice="c", k=1, period=2)  # 2n does not divide m


def _symmetry_bases():
    """Every builder as a base, each also under a bunkbed and a cylinder,
    and a bunkbed of a bunkbed."""
    simple = ([{"builder": "path", "n": n} for n in range(1, 5)]
              + [{"builder": "cycle", "n": n} for n in range(3, 7)]
              + [{"builder": "complete", "n": n} for n in range(1, 6)]
              + [{"builder": "hypercube", "d": d} for d in range(1, 4)]
              + [{"builder": "torus", "n": 3, "m": m} for m in (3, 4)]
              + [{"builder": "explicit", "vertices": 4,
                  "edges": [[0, 1], [1, 2], [0, 2], [2, 3]]}])
    k4 = {"builder": "complete", "n": 4}
    return (simple + [{"builder": "bunkbed", "base": b} for b in simple]
            + [{"builder": "cylinder", "base": b, "m": 3} for b in simple]
            + [{"builder": "bunkbed", "base": {"builder": "bunkbed",
                                               "base": k4}}])


@pytest.mark.parametrize("base_spec", _symmetry_bases(), ids=str)
def test_constructor_generators_equal_the_lifted_base_perms(base_spec):
    # the named specs resolve on the product to the base's permutations
    # lifted over the factors after it, in the same order
    base = graphs.build_graph(base_spec)
    reference = oracle.base_generator_perms(base_spec, base)
    width = len(base.labels[0])
    for sc, n_rest, tail in [
            (bunkbed_scenario(base_spec, mode="mc"), 2,
             [{"name": "layer_swap"}]),
            (layered_scenario(base_spec, 4, "b", 1, 2, mode="mc"), 4,
             [{"name": "axis_rotation", "axis": width, "step": 2},
              {"name": "axis_reflection", "axis": width, "center2": 1}])]:
        g = graphs.build_graph(sc.graph_spec)
        specs = sc.relations[0].generators
        assert list(specs[len(reference):]) == tail
        assert [groups.build_generator(g, spec)
                for spec in specs[:len(reference)]] == [
            oracle.lift_first_factor(p, n_rest) for p in reference]


@pytest.mark.parametrize("d", range(1, 6))
def test_hypercube_relation_generators_equal_the_label_maps(d):
    g = hypercube_graph(d)
    for k, l, name in scenarios._hypercube_walk(d):
        specs = scenarios._hypercube_relation(g, k, l, name).generators
        assert [groups.build_generator(g, spec) for spec in specs] == (
            oracle.hypercube_relation_perms(g, k, l, name))


# ---------------------------------------------------------------------------
# scenario documents and the builtin corpus


def test_parse_scenario_errors():
    with pytest.raises(ScenarioFormatError):
        parse_scenario({"graph": {"builder": "path", "n": 2}})
    with pytest.raises(ScenarioFormatError):
        parse_scenario({
            "graph": {"builder": "path", "n": 2}, "v_plus": [0],
            "v_minus": [1], "origin": 0, "mode": "wrong"})
    with pytest.raises(ScenarioFormatError):
        parse_scenario({
            "graph": {"builder": "path", "n": 2}, "v_plus": [0],
            "v_minus": [1], "origin": 0, "mode": "mc", "law": "site"})
    with pytest.raises(ScenarioFormatError):
        load_scenario("builtin:does-not-exist")
    with pytest.raises(ScenarioFormatError):
        load_scenario("/nonexistent/path.json")


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_builtin_document_and_loader_agree(name):
    doc = builtin_scenarios()[name]
    sc = parse_scenario(doc, name)
    assert load_scenario(f"builtin:{name}") == sc
    # document -> Scenario -> document is a fixed point
    assert scenario_echo(sc) == doc


@pytest.mark.parametrize("sc", constructor_scenarios().values(),
                         ids=constructor_scenarios())
def test_echo_parses_back_to_its_scenario(sc):
    # Scenario -> document -> Scenario is a fixed point, also through JSON
    import json

    doc = scenario_echo(sc)
    assert parse_scenario(doc) == sc
    assert parse_scenario(json.loads(json.dumps(doc))) == sc


_DOC = {"graph": {"builder": "path", "n": 2}, "v_plus": [0], "v_minus": [1],
        "origin": 0}
_REL = {"name": "r", "statement": "", "v_plus": [0], "v_minus": [1],
        "generators": [[1, 0]], "c_far": None, "c_near": None}


@pytest.mark.parametrize("changes, message", [
    ({"report": "cube"}, "report must be one of"),
    ({"report": ["z2"]}, "report must be one of"),
    ({"relations": [_REL]}, "not both"),
    ({"relations": []}, "nonempty list of objects"),
    ({"relations": [5]}, "nonempty list of objects"),
    ({"relations": {"r": _REL}}, "nonempty list of objects"),
    ({"relations": [{**_REL, "v_plus": 0}]}, "bad or missing scenario field"),
    # the two connection targets come together or not at all
    ({"relations": [{**_REL, "c_near": 1}]}, "'r' gives c_near alone"),
    ({"relations": [{**_REL, "c_far": 0}]}, "'r' gives c_far alone"),
    ({"report": "hypercube"}, "lists no relations"),
    ({"report": "hypercube", "graph": {"builder": "hypercube", "d": 2},
      "origin": 1}, "origin 0"),
    ({"relations": [{key: value for key, value in _REL.items()
                     if key != "v_minus"}]},
     "^bad or missing scenario field: 'v_minus'$"),
])
def test_bad_relations_and_reports_are_format_errors(changes, message):
    doc = {**_DOC, **changes}
    if "relations" in changes and changes["relations"] != [_REL]:
        for key in ("v_plus", "v_minus"):
            del doc[key]
    with pytest.raises(ScenarioFormatError, match=message) as caught:
        parse_scenario(doc)
    # a relation's own error keeps its text, with no field prefix
    assert str(caught.value).startswith("bad or missing") == (
        message.lstrip("^").startswith("bad or missing"))


def test_scenario_names_are_text():
    # a report writes the name, so a name that is not a string reads as text
    assert parse_scenario({**_DOC, "name": float("inf")}).name == "inf"


def test_listed_relations_and_the_top_level_form_agree():
    # one listed relation without name, statement or targets is the one
    # relation of the top-level form, and is echoed in that form
    listed = parse_scenario({"graph": _DOC["graph"], "origin": 0,
                             "relations": [{"v_plus": [0], "v_minus": [1]}]})
    assert listed == parse_scenario(_DOC)
    assert scenario_echo(listed)["v_plus"] == [0]
    assert "relations" not in scenario_echo(listed)


def test_scenario_file_round_trip(tmp_path):
    import json

    doc = builtin_scenarios()["bunkbed-path2"]
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(str(path))
    rep = run_scenario(sc)
    assert rep["verdict"] == PASS


def test_builtin_corpus_theorem_instances():
    # wherever the symmetry conditions hold, domination margins and the
    # expectation ordering must come out nonnegative and the identity
    # residuals exactly zero
    for name, doc in builtin_scenarios().items():
        sc = parse_scenario(doc, name)
        rep = run_scenario(sc)
        if rep.get("theorem_instance"):
            assert rep["verdict"] == PASS, name
            for row in rep["results"]:
                if sc.mode == "exact":
                    assert row["domination"]["verdict"] == PASS, name
                    assert F(row["expectation_gap"]) >= 0, name
                    assert row["identity_zero"] and row["ratio_equal"], name


def test_asym_builtin_reports_violation():
    rep = run_scenario(load_scenario("builtin:asym-path4"))
    assert rep["verdict"] == VIOLATION
    assert not rep["theorem_instance"]
    dom = rep["results"][0]["domination"]
    assert dom["verdict"] == VIOLATION
    row = next(row for row in dom["thresholds"] if row["t"] == 2)
    assert F(row["margin"]) == F(-1, 8) and row["verdict"] == VIOLATION


def test_run_scenario_require_conditions():
    rep = run_scenario(load_scenario("builtin:bunkbed-path3"),
                       require_conditions=True)
    assert rep["verdict"] == PRECONDITION_FAILED
    assert rep["results"] == []


def test_cross_mode_agreement():
    # Monte Carlo estimates on an exact-feasible scenario stay inside the
    # 99% interval around the exact values
    from symperc import groups, mc
    from symperc.graphs import build_graph

    doc = builtin_scenarios()["bunkbed-cycle3"]
    sc = parse_scenario(doc)
    g = build_graph(sc.graph_spec)
    pair = groups.make_pair(g, [0, 2, 4], [1, 3, 5], 0)
    poly = pair_joint(exact.enumerate_joint, g, pair)
    e_plus, e_minus = expected(exact.joint_numerators(poly, HALF))
    emp = pair_joint(mc.estimate_joint, g, pair, HALF, 50_000, seed=12)
    est_plus, est_minus = mc.empirical_expected_sizes(emp, level=0.99)
    assert est_plus["ci"][0] <= float(e_plus) <= est_plus["ci"][1]
    assert est_minus["ci"][0] <= float(e_minus) <= est_minus["ci"][1]


# ---------------------------------------------------------------------------
# group identity battery


@pytest.mark.parametrize("name,order", [("d4-on-c4", 8), ("bunkbed-c3", 12)])
def test_group_theorem_battery(name, order):
    rep = group_theorem_battery(name, trials=100, seed=7)
    assert rep["group_order"] == order
    assert rep["all_exact"] is True
    assert rep["verdict"] == PASS
    assert rep["double_counting_trials"] == 100
    assert rep["orbit_product_failures"] == 0


@pytest.mark.parametrize("name", ["d4-on-c4", "bunkbed-c3"])
def test_group_battery_conditions_equal_the_exhaustive_oracle(name):
    # the battery decides the conditions from its generators; the oracle
    # scans every element of the closed group
    g, gens, pair = scenarios._named_group(name)
    grp = oracle.generate_group(gens, n_points=g.n_vertices)
    assert group_theorem_battery(name)["conditions"] == (
        oracle.exhaustive_symmetry_report(g, grp, pair))


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("trials", [0, 1, 100])
@pytest.mark.parametrize("name", ["d4-on-c4", "bunkbed-c3"])
def test_group_battery_equals_the_element_oracle(name, trials, seed):
    # the battery works from generator orbits and stabilizer chains; the
    # oracle sums over every element of the closed group
    rep = group_theorem_battery(name, trials, seed)
    want = oracle.element_battery(*scenarios._named_group(name), trials, seed)
    assert {key: rep[key] for key in want} == want


def test_group_battery_unknown_name():
    with pytest.raises(ScenarioFormatError):
        group_theorem_battery("mystery-group")


# ---------------------------------------------------------------------------
# one sweep per report, deterministic reports


@pytest.mark.parametrize("argv", [
    ["z2", "--size", "3", "--p", "1/4,1/2"],
    ["hypercube", "--d", "3", "--p", "1/4,1/2"],
])
def test_report_makes_one_sweep(argv, monkeypatch):
    from symperc.cli import main

    calls = []

    def counting(*args):
        calls.append(args)
        return cluster_rows(*args)

    cluster_rows = exact._origin_cluster_rows
    monkeypatch.setattr(exact, "_origin_cluster_rows", counting)
    assert main(argv) == 0
    assert len(calls) == 1


def _without_elapsed(report):
    import json

    report.pop("elapsed_seconds")
    return json.dumps(report, sort_keys=True)


@pytest.mark.parametrize("make", [
    *[lambda name=name: run_scenario(load_scenario(f"builtin:{name}"))
      for name in builtin_scenarios()],
    lambda: instance_report(bunkbed_scenario({"builder": "cycle", "n": 3},
                                             ["1/3", "1/2"], law="site")),
    lambda: instance_report(layered_scenario(
        {"builder": "path", "n": 1}, m=8, choice="b", k=1, period=2)),
    lambda: instance_report(z2_scenario(3, ["1/2"])),
    lambda: hypercube_inequality_report(hypercube_scenario(3, ["1/3", "1/2"])),
], ids=[*builtin_scenarios(), "bunkbed", "layered", "z2", "hypercube"])
def test_reports_are_deterministic(make):
    assert _without_elapsed(make()) == _without_elapsed(make())
