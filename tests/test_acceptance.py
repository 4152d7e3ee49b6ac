"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under `pytest -v -s`) and
enforces the stated runtime budget.  Exact criteria use zero tolerance:
Fractions compared for equality, identities required to be exactly zero.
"""

import time
from fractions import Fraction as F

from symperc import exact, groups, mc, scenarios
from symperc.exact import (
    BOND,
    SITE,
    enumerate_joint,
    joint_numerators,
    random_cluster_law,
)
from symperc.graphs import (
    bunkbed_graph,
    cycle_graph,
    path_graph,
)
from symperc.groups import make_pair

from _oracles import (
    bond_joint_pmf,
    eager_cluster_mask,
    expected,
    lazy_incidence,
    margins,
    pair_joint,
    probabilities,
    ratio,
    relabel_graph,
    residuals,
    sample_cluster_mask,
)

HALF = F(1, 2)
GRID3 = (F(1, 4), HALF, F(3, 4))


def _verdict_line(number: int, ok: bool, label: str, elapsed: float) -> bool:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status} - {label} ({elapsed:.2f}s)")
    return ok


def test_criterion_1_bunkbed_exactness():
    started = time.perf_counter()
    g = bunkbed_graph(path_graph(2))
    pair = make_pair(g, [0, 2], [1, 3], origin=0)
    poly = pair_joint(enumerate_joint, g, pair)
    pmf = joint_numerators(poly, HALF)
    oracle = bond_joint_pmf(4, g.edges, [0, 2], [1, 3], 0, HALF)
    e_plus, e_minus = expected(pmf)
    elapsed = time.perf_counter() - started
    ok = (
        probabilities(pmf) == oracle
        and e_plus == F(25, 16)
        and e_minus == F(1)
        and all(m >= 0 for m in margins(pmf))
        and not any(residuals(pmf).values())
        and elapsed < 1.0
    )
    assert _verdict_line(1, ok, "bunkbed(path(2)) exact joint law", elapsed)


def test_criterion_2_hypercube_inequalities():
    started = time.perf_counter()
    report = scenarios.hypercube_inequality_report(
        scenarios.hypercube_scenario(3, GRID3, mode="exact"))
    elapsed = time.perf_counter() - started
    ok = report["verdict"] == "pass" and report["invariance"] is True
    for entry in report["results"]:
        ok = ok and all(row["double_sum_verdict"] == "pass"
                        and row["abs_compare_verdict"] == "pass"
                        for row in entry["rows"])
        ok = ok and all(d["verdict"] == "pass" for d in entry["derivatives"])
        ok = ok and all(inst["verdict"] == "pass"
                        for inst in entry["instances"])
    ok = ok and elapsed < 5.0
    assert _verdict_line(2, ok, "hypercube d=3 inequality families", elapsed)


def test_criterion_3_z2_relation_on_torus():
    started = time.perf_counter()
    report = scenarios.run_scenario(
        scenarios.z2_scenario(3, GRID3, mode="exact"), require_conditions=True)
    elapsed = time.perf_counter() - started
    rel1 = report["relations"][0]
    ok = report["verdict"] == "pass" and rel1["conditions"]["ok"]
    for row in rel1["results"]:
        # 1 + c(1,1) >= 2 c(1,0) in its expectation form, margins included
        ok = ok and F(row["relation_slack"]) >= 0
        ok = ok and row["expectation_gap"] == row["relation_slack"]
        ok = ok and row["domination"]["verdict"] == "pass"
    for rel in report["relations"]:
        ok = ok and rel["conditions"]["ok"]
        ok = ok and all(r["domination"]["verdict"] == "pass"
                        for r in rel["results"])
    ok = ok and elapsed < 30.0
    assert _verdict_line(3, ok, "torus n=3 square-lattice relations", elapsed)


def test_criterion_4_group_identities():
    started = time.perf_counter()
    ok = True
    for name, order in (("d4-on-c4", 8), ("bunkbed-c3", 12)):
        report = scenarios.group_theorem_battery(name, trials=100, seed=7)
        ok = ok and report["group_order"] == order
        ok = ok and report["all_exact"]
        ok = ok and report["double_counting_trials"] >= 100
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 1.0
    assert _verdict_line(4, ok, "orbit/stabilizer counting identities",
                         elapsed)


def test_criterion_5_partition_identity_generality():
    started = time.perf_counter()
    ok = True
    g_site = bunkbed_graph(cycle_graph(3))
    pair_site = make_pair(g_site, [0, 2, 4], [1, 3, 5], origin=0)
    poly_site = pair_joint(enumerate_joint, g_site, pair_site, SITE)
    g_rc = bunkbed_graph(path_graph(2))
    pair_rc = make_pair(g_rc, [0, 2], [1, 3], origin=0)
    polys = [poly_site] + [
        pair_joint(enumerate_joint, g_rc, pair_rc, random_cluster_law(q))
        for q in (F(1, 2), F(2))
    ]
    for poly in polys:
        for p in (F(1, 3), HALF):
            pmf = joint_numerators(poly, p)
            lhs, rhs = ratio(pmf)
            ok = ok and not any(residuals(pmf).values())
            ok = ok and lhs == rhs
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 5.0
    assert _verdict_line(
        5, ok, "identity under site and random-cluster laws", elapsed)


def test_criterion_6_mc_exact_consistency():
    started = time.perf_counter()
    g = bunkbed_graph(path_graph(2))
    pair = make_pair(g, [0, 2], [1, 3], origin=0)
    seed, n = 42, 100_000

    conn = mc.estimate_joint(g, exact.Observables(0, targets=(3,)), HALF, n,
                             seed).connection(3, level=0.99)
    ok = conn["ci"][0] <= 7 / 16 <= conn["ci"][1]

    emp = pair_joint(mc.estimate_joint, g, pair, HALF, n, seed)
    est_plus, _ = mc.empirical_expected_sizes(emp)
    ok = ok and (abs(est_plus["estimate"] - 25 / 16)
                 <= 3 * est_plus["stderr"])

    rerun = pair_joint(mc.estimate_joint, g, pair, HALF, n, seed)
    relaid = pair_joint(mc.estimate_joint, g, pair, HALF, n, seed,
                        chunk_size=997)
    ok = ok and emp == rerun and emp == relaid
    elapsed = time.perf_counter() - started
    assert _verdict_line(6, ok, "Monte Carlo matches exact law", elapsed)


def test_criterion_7_layered_cycle():
    started = time.perf_counter()
    report = scenarios.run_scenario(scenarios.layered_scenario(
        {"builder": "path", "n": 1}, m=8, choice="b", k=1, period=2,
        p_grid=GRID3, mode="exact"), require_conditions=True)
    elapsed = time.perf_counter() - started
    ok = report["verdict"] == "pass" and report["conditions"]["ok"]
    for row in report["results"]:
        ok = ok and row["domination"]["verdict"] == "pass"
        ok = ok and row["identity_zero"] and row["ratio_equal"]
    ok = ok and elapsed < 1.0
    assert _verdict_line(7, ok, "layered residue classes on cycle(8)",
                         elapsed)


def test_criterion_8_property_suites():
    from math import comb

    started = time.perf_counter()
    ok = True

    # count conservation and exact normalization across the exact corpus
    for name, doc in scenarios.builtin_scenarios().items():
        sc = scenarios.parse_scenario(doc, name)
        if sc.mode != "exact":
            continue
        from symperc.graphs import build_graph

        g = build_graph(sc.graph_spec)
        rel = sc.relations[0]
        pair = make_pair(g,
                         [scenarios.resolve_vertex(g, v) for v in rel.v_plus],
                         [scenarios.resolve_vertex(g, v) for v in rel.v_minus],
                         scenarios.resolve_vertex(g, sc.origin))
        poly = pair_joint(enumerate_joint, g, pair, sc.law,
                          cap_bits=sc.cap_bits)
        for kk in range(poly.units + 1):
            total = sum(vec[kk] for vec in poly.counts.values())
            ok = ok and total == comb(poly.units, kk)
        for p in sc.p_grid:
            ok = ok and sum(probabilities(
                joint_numerators(poly, p)).values()) == 1

    # automorphism-permuted enumeration equality, all three laws
    g = bunkbed_graph(cycle_graph(3))
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    phi = groups.build_generator(g, {"name": "base_perm", "perm": [0, 2, 1]})
    g2 = relabel_graph(g, phi)
    pair2 = make_pair(g2, [phi[v] for v in pair.v_plus],
                      [phi[v] for v in pair.v_minus], phi[pair.origin])
    for law in (BOND, SITE, random_cluster_law(F(2))):
        ok = ok and pair_joint(enumerate_joint, g, pair, law) == pair_joint(
            enumerate_joint, g2, pair2, law)

    # lazy sampling equals eager sampling on a graph within 20 edges
    g5 = bunkbed_graph(cycle_graph(5))
    inc = lazy_incidence(g5)
    thr = mc.open_threshold(HALF)
    for i in range(300):
        ok = ok and sample_cluster_mask(inc, 13, i, thr, 0) == \
            eager_cluster_mask(g5, 0, HALF, 13, i)

    # monotonicity of increasing events on the p grid
    gq = bunkbed_graph(path_graph(2))
    pairq = make_pair(gq, [0, 2], [1, 3], origin=0)
    polyq = pair_joint(enumerate_joint, gq, pairq)
    grid = [F(k, 10) for k in range(1, 10)]
    pmfs = [joint_numerators(polyq, p) for p in grid]
    for t in (1, 2):
        tails = [sum(pr for (a, _), pr in probabilities(pmf).items()
                     if a >= t) for pmf in pmfs]
        ok = ok and all(x <= y for x, y in zip(tails, tails[1:]))
    means = [expected(pmf)[0] for pmf in pmfs]
    ok = ok and all(x <= y for x, y in zip(means, means[1:]))

    elapsed = time.perf_counter() - started
    assert _verdict_line(8, ok, "conservation/invariance/monotonicity suites",
                         elapsed)
