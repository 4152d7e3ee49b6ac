"""Wider sweeps of the stated invariants on larger instances and the
remaining report paths."""

import contextlib
import io
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import pytest

from symperc import exact, groups, scenarios
from symperc.cli import main
from symperc.exact import enumerate_joint, joint_numerators
from symperc.graphs import (
    bunkbed_graph,
    complete_graph,
    cycle_graph,
    distances_from,
    hypercube_graph,
    path_graph,
    torus_graph,
)
from symperc.groups import make_pair

from _oracles import (
    generate_group,
    pair_joint,
    probabilities,
    verify_orbit_product,
)

HALF = F(1, 2)


def hypercube_symmetry_group(d):
    g = hypercube_graph(d)
    gens = [groups.axis_reflection(g, axis=i, center2=1) for i in range(d)]
    gens += [groups.swap_axes(g, i, i + 1) for i in range(d - 1)]
    return g, generate_group(gens)


def test_orbit_product_identity_on_larger_groups():
    g, grp = hypercube_symmetry_group(3)
    assert grp.order == 48  # 2^3 reflections x 3! coordinate permutations
    for x in range(g.n_vertices):
        for y in range(g.n_vertices):
            lhs, rhs = verify_orbit_product(grp, x, y)
            assert lhs == rhs

    t = torus_graph(4, 4)
    tgens = [groups.axis_rotation(t, 0), groups.axis_rotation(t, 1),
             groups.axis_reflection(t, 0), groups.swap_axes(t, 0, 1)]
    tgrp = generate_group(tgens)
    assert tgrp.order == 128
    for x in (0, 5):
        for y in range(t.n_vertices):
            lhs, rhs = verify_orbit_product(tgrp, x, y)
            assert lhs == rhs


def test_distance_metric_on_mid_size_graphs():
    for g in (torus_graph(5, 5), bunkbed_graph(hypercube_graph(3))):
        assert g.n_vertices <= 64
        dist = [distances_from(g, v) for v in range(g.n_vertices)]
        for u, v in combinations(range(g.n_vertices), 2):
            assert dist[u][v] == dist[v][u] > 0
        for u in range(g.n_vertices):
            for v in range(g.n_vertices):
                for w in range(g.n_vertices):
                    assert dist[u][w] <= dist[u][v] + dist[v][w]


def test_single_vertex_graph_degenerate_enumeration():
    g = path_graph(1)
    pair = make_pair(g, [0], [], origin=0)
    poly = pair_joint(enumerate_joint, g, pair)
    assert poly.counts == {(1, 0): (1,)}
    assert probabilities(joint_numerators(poly, HALF)) == {(1, 0): F(1)}


def test_hypercube_report_d1():
    rep = scenarios.hypercube_inequality_report(
        scenarios.hypercube_scenario(1, ["1/3"], mode="exact"))
    assert rep["verdict"] == "pass"
    entry = rep["results"][0]
    assert entry["c_values"] == ["1", "1/3"]
    # the one nontrivial instance realizes c0 - c1 = 2/3
    inst = entry["instances"][0]
    assert inst["expectation_gap"] == "2/3" == inst["predicted_gap"]


def test_bunkbed_over_swap_transitive_bases():
    # complete graphs and hypercubes both carry swapping automorphisms
    rep = scenarios.run_scenario(scenarios.bunkbed_scenario(
        {"builder": "complete", "n": 4}, ["1/2"]), require_conditions=True)
    assert rep["verdict"] == "pass"
    sc = scenarios.bunkbed_scenario({"builder": "hypercube", "d": 2}, ["1/2"])
    rep = scenarios.run_scenario(sc, require_conditions=True)
    assert rep["verdict"] == "pass"
    assert scenarios.check_symmetry_report(sc)["conditions"]["swap_transitive"]


def test_layered_choice_c_with_k_above_period():
    rep = scenarios.run_scenario(scenarios.layered_scenario(
        {"builder": "path", "n": 1}, m=8, choice="c", k=3, period=2,
        p_grid=["1/2"]), require_conditions=True)
    assert rep["verdict"] == "pass"
    # the layers are the last coordinate of the echoed labels
    assert sorted({lab[-1] for lab in rep["scenario"]["v_plus"]}) == [
        0, 3, 4, 7]
    assert sorted({lab[-1] for lab in rep["scenario"]["v_minus"]}) == [
        1, 2, 5, 6]


def test_z2_mc_mode_runs_consistent():
    rep = scenarios.run_scenario(scenarios.z2_scenario(
        5, ["1/2"], mode="mc", mc_n=20_000, mc_seed=9), require_conditions=True)
    assert rep["verdict"] in ("pass", "inconclusive")
    for rel in rep["relations"]:
        assert rel["conditions"]["ok"]
        assert rel["results"][0]["domination"]["verdict"] in (
            "pass", "inconclusive")


def test_cli_z2_mc_exit_code():
    assert main(["z2", "--size", "5", "--mode", "mc", "--n", "20000",
                 "--seed", "9", "--p", "1/2"]) in (0, 2)


def test_rc_polynomial_also_evaluates_as_bond():
    # the random-cluster sweep keeps raw counts, so its count vectors are
    # those of a plain bond enumeration
    g = bunkbed_graph(path_graph(2))
    pair = make_pair(g, [0, 2], [1, 3], origin=0)
    rc_poly = pair_joint(enumerate_joint, g, pair,
                         exact.random_cluster_law(3))
    bond_poly = pair_joint(enumerate_joint, g, pair)
    assert rc_poly.counts == bond_poly.counts
    # the q-weighting needs the cell counts a bond polynomial lacks
    with pytest.raises(ValueError):
        joint_numerators(bond_poly._replace(law=exact.random_cluster_law(2)),
                         HALF)


def test_enumerate_p_override_keeps_law():
    code = main(["enumerate", "--scenario", "builtin:bunkbed-cycle3-site",
                 "--p", "1/4"])
    assert code == 0


def test_mc_override_of_nonbond_scenario_is_usage_error():
    assert main(["mc", "--scenario", "builtin:bunkbed-cycle3-site",
                 "--n", "100"]) == 4


def test_complete_graph_bunkbed_group_is_large_enough():
    g = bunkbed_graph(complete_graph(4))
    sc = scenarios.bunkbed_scenario({"builder": "complete", "n": 4})
    gens = [groups.build_generator(g, spec)
            for spec in sc.relations[0].generators]
    grp = generate_group(gens)
    assert grp.order == 48  # S4 lifted times the layer swap
    pair = make_pair(g, [0, 2, 4, 6], [1, 3, 5, 7], origin=0)
    assert groups.check_symmetry_conditions(g, gens, pair).ok
    block = groups.chain_conditions(g, gens, pair)
    assert block["swap_transitive"] and block["group_order"] == 48


def test_readme_library_example_runs():
    # the documented library surface, run as written
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code.split("```", 1)[0], {})
    lines = out.getvalue().splitlines()
    assert lines[:6] == ["25/16 1", "True", "False", "True",
                         "(0, 0, 2, 4, 1)", "7/16"]
