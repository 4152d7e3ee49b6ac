from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symperc import exact, groups
from symperc.exact import (
    BOND,
    SITE,
    CapExceeded,
    Observables,
    enumerate_joint,
    joint_numerators,
    random_cluster_law,
)
from symperc.graphs import (
    build_graph,
    bunkbed_graph,
    complete_graph,
    cycle_graph,
    explicit_graph,
    hypercube_graph,
    path_graph,
    torus_graph,
)
from symperc.groups import make_pair

import _oracles as oracle
from _oracles import (
    bond_connection,
    brute_force_bins,
    bond_joint_pmf,
    connected,
    cyclic_site_cases,
    expected,
    integer_pmf,
    observed_graphs,
    pair_joint,
    per_root_rc_rows,
    per_set_site_rows,
    probabilities,
    ratio,
    rc_joint_pmf,
    relabel_graph,
    residuals,
    site_joint_pmf,
    unpacked_bins,
)

HALF = F(1, 2)


def c4_bunkbed():
    g = bunkbed_graph(path_graph(2))
    return g, make_pair(g, [0, 2], [1, 3], origin=0)


def test_single_edge_enumeration():
    g = path_graph(2)
    pair = make_pair(g, [0], [1], origin=0)
    poly = pair_joint(enumerate_joint, g, pair)
    assert poly.counts == {(1, 0): (1, 0), (1, 1): (0, 1)}
    pmf = joint_numerators(poly, HALF)
    assert probabilities(pmf) == {(1, 0): HALF, (1, 1): HALF}
    assert expected(pmf) == (F(1), HALF)
    p = F(2, 7)
    pmf = joint_numerators(poly, p)
    assert expected(pmf) == (F(1), p)
    lhs, rhs = ratio(pmf)
    assert lhs == rhs == p


def test_c4_bunkbed_against_oracle_and_frozen_values():
    g, pair = c4_bunkbed()
    poly = pair_joint(enumerate_joint, g, pair)
    # all 16 configurations land somewhere
    assert sum(sum(vec) for vec in poly.counts.values()) == 16
    for p in (F(1, 4), HALF, F(2, 3)):
        pmf = probabilities(joint_numerators(poly, p))
        assert pmf == bond_joint_pmf(4, g.edges, [0, 2], [1, 3], 0, p)
    e_plus, e_minus = expected(joint_numerators(poly, HALF))
    assert (e_plus, e_minus) == (F(25, 16), F(1))
    # E|C+| = 1 + c_adjacent, E|C-| = c_adjacent + c_opposite
    assert e_plus == 1 + F(9, 16)
    assert e_minus == F(9, 16) + F(7, 16)


def test_c4_bunkbed_domination_margins():
    g, pair = c4_bunkbed()
    pmf = joint_numerators(pair_joint(enumerate_joint, g, pair), HALF)
    assert max(b for _, b in pmf.nums) > 0
    margins = oracle.margins(pmf)
    assert margins[0] == 1 - sum(
        prob for (_, b), prob in probabilities(pmf).items() if b >= 1)
    assert margins[0] > 0
    assert margins[1] >= 0
    assert margins == (F(3, 8), F(3, 16))


def test_partition_identity_residuals_zero():
    g, pair = c4_bunkbed()
    poly = pair_joint(enumerate_joint, g, pair)
    for p in (F(1, 3), HALF, F(7, 10)):
        assert not any(residuals(joint_numerators(poly, p)).values())


def test_ratio_identity():
    g, pair = c4_bunkbed()
    lhs, rhs = ratio(joint_numerators(pair_joint(enumerate_joint, g, pair),
                                      HALF))
    assert lhs == rhs
    # empty far side: both sides zero
    g2 = path_graph(2)
    pair2 = make_pair(g2, [0, 1], [], origin=0)
    pmf2 = joint_numerators(pair_joint(enumerate_joint, g2, pair2), HALF)
    assert ratio(pmf2) == (F(0), F(0))
    assert max(b for _, b in pmf2.nums) == 0
    assert all(m >= 0 for m in oracle.margins(pmf2))


def connection_probability(g, o, v, p, cap_bits=exact.DEFAULT_CAP_BITS):
    """Exact P(o <-> v), read off one run that observes the target."""
    sweep = enumerate_joint(g, Observables(o, targets=(v,)), cap_bits=cap_bits)
    return connected(sweep.connection(v), p)


def test_connection_probability_closed_forms():
    g = cycle_graph(4)
    p = HALF
    # adjacent: direct edge or the three-edge detour
    assert connection_probability(g, 0, 1, p) == p + (1 - p) * p**3 == F(9, 16)
    # opposite: complement of both two-edge arcs failing
    assert connection_probability(g, 0, 2, p) == 1 - (1 - p**2) ** 2 == F(7, 16)
    assert connection_probability(g, 0, 0, p) == 1
    q = F(3, 10)
    assert connection_probability(g, 0, 1, q) == bond_connection(
        4, g.edges, 0, 1, q)


def test_site_law_against_oracle():
    g = bunkbed_graph(cycle_graph(3))
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    poly = pair_joint(enumerate_joint, g, pair, SITE)
    assert poly.units == g.n_vertices
    for p in (F(1, 3), HALF):
        pmf = joint_numerators(poly, p)
        assert probabilities(pmf) == site_joint_pmf(
            6, g.edges, [0, 2, 4], [1, 3, 5], 0, p)
        assert not any(residuals(pmf).values())
        lhs, rhs = ratio(pmf)
        assert lhs == rhs


def test_site_law_closed_origin_is_singleton():
    g = path_graph(2)
    pair = make_pair(g, [0], [1], origin=0)
    pmf = probabilities(joint_numerators(
        pair_joint(enumerate_joint, g, pair, SITE), F(1, 3)))
    # o closed -> cluster {o} -> outcome (1, 0) regardless of the other site
    assert pmf[(1, 0)] == F(2, 3) + F(1, 3) * F(2, 3)
    assert pmf[(1, 1)] == F(1, 3) * F(1, 3)


def test_random_cluster_q1_equals_bond():
    g, pair = c4_bunkbed()
    bond = pair_joint(enumerate_joint, g, pair, BOND)
    rc = pair_joint(enumerate_joint, g, pair, random_cluster_law(1))
    for p in (F(1, 3), HALF):
        assert probabilities(joint_numerators(rc, p)) == probabilities(
            joint_numerators(bond, p))


@pytest.mark.parametrize("q", [F(1, 2), F(2)])
def test_random_cluster_against_oracle(q):
    g, pair = c4_bunkbed()
    poly = pair_joint(enumerate_joint, g, pair, random_cluster_law(q))
    for p in (F(1, 3), HALF):
        pmf = joint_numerators(poly, p)
        assert probabilities(pmf) == rc_joint_pmf(4, g.edges, [0, 2], [1, 3],
                                                  0, p, q)
        assert not any(residuals(pmf).values())
        lhs, rhs = ratio(pmf)
        assert lhs == rhs


def test_count_conservation():
    cases = [
        (bunkbed_graph(cycle_graph(3)), [0, 2, 4], [1, 3, 5], BOND),
        (hypercube_graph(3), [0], [7], BOND),
        (bunkbed_graph(cycle_graph(3)), [0, 2, 4], [1, 3, 5], SITE),
        (bunkbed_graph(path_graph(2)), [0, 2], [1, 3],
         random_cluster_law(2)),
    ]
    for g, plus, minus, law in cases:
        pair = make_pair(g, plus, minus, origin=plus[0])
        poly = pair_joint(enumerate_joint, g, pair, law)
        for k in range(poly.units + 1):
            assert sum(vec[k] for vec in poly.counts.values()) == comb(
                poly.units, k)
        assert all(a >= 1 for (a, _b) in poly.counts)
        assert all(a <= poly.n_plus and b <= poly.n_minus
                   for (a, b) in poly.counts)


def _top_coefficient(poly, bits):
    return 1 << bits * ((poly.bit_length() - 1) // bits)


TAMPERS = {
    "coefficient-plus-one": lambda sizes, poly, bits, width: (
        sizes, poly + _top_coefficient(poly, bits)),
    "coefficient-minus-one": lambda sizes, poly, bits, width: (
        sizes, poly - _top_coefficient(poly, bits)),
    # field 0 observes v_plus, which holds the origin
    "empty-origin-field": lambda sizes, poly, bits, width: (
        sizes >> width << width, poly),
}


@pytest.mark.parametrize("tamper", TAMPERS)
@pytest.mark.parametrize("law", [BOND, SITE, random_cluster_law(2)],
                         ids=["bond", "site", "rc2"])
def test_count_conservation_fires(law, tamper, monkeypatch):
    # the random-cluster rows start at one cell, so their top coefficient
    # is changed in a cells field that the check folds onto k
    g = bunkbed_graph(cycle_graph(3))
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    observed = Observables(0, (pair,))
    enumerate_joint(g, observed, law)  # the untouched rows pass both checks
    cluster_rows = exact._origin_cluster_rows

    def tampered(g, law, origin, weights, bits):
        rows = cluster_rows(g, law, origin, weights, bits)
        sizes = max(rows)
        new_sizes, poly = TAMPERS[tamper](sizes, rows.pop(sizes), bits,
                                          g.n_vertices.bit_length())
        rows[new_sizes] = rows.get(new_sizes, 0) + poly
        return rows

    monkeypatch.setattr(exact, "_origin_cluster_rows", tampered)
    fault = "empty origin" if tamper == "empty-origin-field" else "conservation"
    with pytest.raises(RuntimeError, match=fault):
        enumerate_joint(g, observed, law)


def test_pmf_normalization_exact():
    g = torus_graph(3, 3)
    pair = make_pair(g, [g.index_of((0, 0)), g.index_of((1, 1))],
                     [g.index_of((1, 0)), g.index_of((0, 1))], origin=0)
    poly = pair_joint(enumerate_joint, g, pair)
    for p in (F(1, 10), F(9, 10), F(123, 1000)):
        assert sum(probabilities(joint_numerators(poly, p)).values()) == 1


@pytest.mark.parametrize("law", [BOND, SITE, random_cluster_law(F(3, 2))])
def test_automorphism_invariance_of_enumeration(law):
    g = bunkbed_graph(cycle_graph(3))
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    # base reflection fixing the origin, lifted to the product
    phi = groups.build_generator(g, {"name": "base_perm", "perm": [0, 2, 1]})
    assert groups.is_automorphism(g, phi)
    assert phi[pair.origin] == pair.origin
    g2 = relabel_graph(g, phi)
    pair2 = make_pair(g2, [phi[v] for v in pair.v_plus],
                      [phi[v] for v in pair.v_minus], phi[pair.origin])
    assert (pair_joint(enumerate_joint, g, pair, law)
            == pair_joint(enumerate_joint, g2, pair2, law))


def test_monotone_in_p():
    g, pair = c4_bunkbed()
    poly = pair_joint(enumerate_joint, g, pair)
    grid = [F(k, 10) for k in range(1, 10)]
    pmfs = [joint_numerators(poly, p) for p in grid]
    for t in (1, 2):
        tails = [sum(prob for (a, _), prob in probabilities(pmf).items()
                     if a >= t) for pmf in pmfs]
        assert all(x <= y for x, y in zip(tails, tails[1:]))
    means = [expected(pmf)[0] for pmf in pmfs]
    assert all(x <= y for x, y in zip(means, means[1:]))


def test_chunked_and_parallel_sweeps_identical():
    # the brute-force oracle's chunk-merge, which the engine is checked by
    g = bunkbed_graph(cycle_graph(3))
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    observed = Observables(0, (pair,))
    single = brute_force_bins(g, observed, BOND)
    assert brute_force_bins(g, observed, BOND, chunks=5) == single
    assert brute_force_bins(g, observed, BOND, chunks=4, threads=2) == single
    assert unpacked_bins(enumerate_joint(g, observed)) == single


def test_cap_exceeded():
    g = hypercube_graph(3)
    pair = make_pair(g, [0], [7], origin=0)
    with pytest.raises(CapExceeded) as err:
        pair_joint(enumerate_joint, g, pair, cap_bits=10)
    assert err.value.required_bits == 12
    assert err.value.required_configs == 4096
    with pytest.raises(CapExceeded):
        connection_probability(g, 0, 7, HALF, cap_bits=10)


def test_eval_rejects_bad_p():
    # a pair's law and a target's go through the one evaluation
    g, pair = c4_bunkbed()
    sweep = enumerate_joint(g, Observables(0, (pair,), (3,)))
    for poly in (sweep.joint(pair), sweep.connection(3)):
        for bad in (F(0), F(1), F(-1, 2), F(3, 2), 2, 0, 1, "3/2"):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                joint_numerators(poly, bad)


def test_negative_margin_is_surfaced_not_masked():
    # far pair {0, 3} versus near pair {1, 2} on a path: the tail margin at
    # threshold 2 is p^3 - p^2 < 0 and must be reported as such
    g = path_graph(4)
    pair = make_pair(g, [0, 3], [1, 2], origin=0)
    margins = oracle.margins(joint_numerators(
        pair_joint(enumerate_joint, g, pair), HALF))
    assert not all(m >= 0 for m in margins)
    assert margins[1] == F(1, 8) - F(1, 4) == F(-1, 8)


def test_polynomial_json_round_trip():
    # the report's polynomial block lists every count and, for the
    # random-cluster law, every (k, cells) count
    g, pair = c4_bunkbed()
    for law in (BOND, SITE, random_cluster_law(F(1, 2))):
        poly = pair_joint(enumerate_joint, g, pair, law)
        doc = poly.to_json_dict()
        assert (doc["edges"], doc["n_plus"], doc["n_minus"]) == (
            poly.units, poly.n_plus, poly.n_minus)
        assert doc["law"] == law.to_json_dict()
        assert {(o["a"], o["b"]): tuple(o["counts"])
                for o in doc["outcomes"]} == poly.counts
        if poly.component_counts is None:
            assert "component_counts" not in doc
            continue
        listed = {}
        for row in doc["component_counts"]:
            listed.setdefault((row["a"], row["b"]), {})[
                (row["k"], row["components"])] = row["count"]
        assert listed == poly.component_counts


@settings(max_examples=30, deadline=None, derandomize=True)
@given(observed_graphs(), st.sampled_from([F(1, 3), HALF, F(3, 5)]))
def test_one_sweep_projects_every_pair_and_target(case, p):
    g, o, pairs, targets = case
    n, edges = g.n_vertices, g.edges
    q = F(3, 2)
    oracles = {
        BOND: lambda plus, minus: bond_joint_pmf(n, edges, plus, minus, o, p),
        SITE: lambda plus, minus: site_joint_pmf(n, edges, plus, minus, o, p),
        random_cluster_law(q): lambda plus, minus: rc_joint_pmf(
            n, edges, plus, minus, o, p, q),
    }
    for law, oracle in oracles.items():
        observed = Observables(o, tuple(pairs), tuple(targets))
        sweep = enumerate_joint(g, observed, law)
        # the projection onto every size at once, cells and k summed
        by_sizes = {}
        for (sizes, k, *_), cnt in brute_force_bins(g, observed, law).items():
            by_sizes.setdefault(sizes, [0] * (sweep.units + 1))[k] += cnt
        assert sweep.counts == {sizes: tuple(vec)
                                for sizes, vec in by_sizes.items()}
        for pair in pairs:
            assert probabilities(joint_numerators(sweep.joint(pair), p)) == (
                oracle(pair.v_plus, pair.v_minus))
        for t in targets:
            # a target's law is that of the pair ({t}, ∅) under the law
            assert probabilities(joint_numerators(sweep.connection(t), p)) == (
                oracle([t], []))


# ---------------------------------------------------------------------------
# integer evaluation against the Fraction-loop oracle


def _rationals(low, high):
    return st.builds(F, st.integers(low, high), st.integers(1, 120))


PROBABILITIES = st.integers(2, 120).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda n: F(n, d)))


def _checks_equal_oracle(ipmf):
    pmf = probabilities(ipmf)
    assert expected(ipmf) == oracle.expectations(pmf)
    assert oracle.margins(ipmf) == oracle.check_domination(pmf).margins
    assert list(residuals(ipmf).items()) == list(
        oracle.check_partition_identity(pmf).items())
    # the oracle divides by a even where the probability is 0
    assert ratio(ipmf) == oracle.check_ratio_identity(
        {key: prob for key, prob in pmf.items() if prob})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(observed_graphs(), PROBABILITIES, _rationals(1, 300))
def test_integer_evaluation_equals_the_fraction_oracle(case, p, q):
    g, o, pairs, targets = case
    for law in (BOND, SITE, random_cluster_law(q)):
        sweep = enumerate_joint(g, Observables(o, tuple(pairs), tuple(targets)),
                                law)
        for pair in pairs:
            poly = sweep.joint(pair)
            ipmf = joint_numerators(poly, p)
            assert list(probabilities(ipmf).items()) == list(
                oracle.eval_joint(poly, p).items())
            _checks_equal_oracle(ipmf)
        dens = set()
        for t in targets:
            marginal = sweep.connection(t)
            ipmf = joint_numerators(marginal, p)
            assert probabilities(ipmf) == oracle.eval_joint(marginal, p)
            dens.add(ipmf.den)
        # every projection of one sweep at one p shares its denominator
        dens.update(joint_numerators(sweep.joint(pair), p).den
                    for pair in pairs)
        assert len(dens) <= 1


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.dictionaries(
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.just(F(0)) | _rationals(0, 130), max_size=12))
@example({})
@example({(1, 0): F(1, 3), (2, 0): F(2, 3)})  # b = 0 everywhere
@example({(0, 0): F(0), (1, 0): F(1, 2), (1, 1): F(0), (2, 1): F(1, 2)})
@example({(1, 2): F(1, 6), (3, 1): F(5, 14), (2, 2): F(10, 21)})
def test_checks_equal_the_fraction_oracle_on_hand_built_pmfs(pmf):
    # the origin's cluster always meets v_plus, so an outcome with a = 0,
    # a + b = 0 included, has probability 0
    pmf = {(a, b): prob if a else F(0) for (a, b), prob in pmf.items()}
    _checks_equal_oracle(integer_pmf(pmf))


# ---------------------------------------------------------------------------
# the subset DP against the brute-force sweep

LAWS = (BOND, SITE, random_cluster_law(F(3, 2)))


@st.composite
def small_graphs(draw):
    """A connected graph of at most 12 edges (a tree, a star or a drawn
    graph), an origin, a pair holding it and connection targets."""
    shape = draw(st.sampled_from(["tree", "star", "graph"]))
    n = draw(st.integers(1, 13 if shape != "graph" else 8))
    if shape == "star":
        edges = {(0, v) for v in range(1, n)}
    else:
        edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    if shape == "graph":
        for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                            st.integers(0, n - 1)))):
            if u != v and len(edges) < 12:
                edges.add((min(u, v), max(u, v)))
    g = explicit_graph(n, sorted(edges))
    o = draw(st.integers(0, n - 1))
    side = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pair = make_pair(g, [v for v in range(n) if side[v] == 1 or v == o],
                     [v for v in range(n) if side[v] == 2 and v != o], o)
    targets = draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
    return g, Observables(o, (pair,), tuple(targets))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(small_graphs())
def test_subset_dp_bins_equal_brute_force(case):
    g, observed = case
    for law in LAWS:
        assert (unpacked_bins(enumerate_joint(g, observed, law))
                == brute_force_bins(g, observed, law))


def _builtin_cases():
    from symperc import scenarios

    for name, doc in sorted(scenarios.builtin_scenarios().items()):
        sc = scenarios.parse_scenario(doc, name)
        g = build_graph(sc.graph_spec)
        rel = sc.relations[0]
        pair = make_pair(
            g, [scenarios.resolve_vertex(g, v) for v in rel.v_plus],
            [scenarios.resolve_vertex(g, v) for v in rel.v_minus],
            scenarios.resolve_vertex(g, sc.origin))
        # the 2^18-configuration tori are swept under their own law only
        for law in LAWS if g.n_edges <= 12 else (sc.law,):
            yield pytest.param(g, pair, law, id=f"{name}-{law.kind}")
        if name == "bunkbed-cycle5":
            # 15 edges, past the union-find oracles: the memo of Z_T over
            # every T against the bitmask sweep
            for q, tag in (("2", "rc2"), ("1/2", "rchalf")):
                yield pytest.param(g, pair, random_cluster_law(q),
                                   id=f"{name}-{tag}")
    for d in (1, 2, 3):
        g = hypercube_graph(d)
        for law in LAWS:
            yield pytest.param(g, make_pair(g, [0], [], 0), law,
                               id=f"hypercube{d}-{law.kind}")
    # triangles {0, 1, 2} and {4, 5, 6} joined through the origin 3: for
    # the cluster {3}, T = V∖{3} has two components and no vertex with
    # fewer than two neighbours in T, so Z_T is the product over them
    g = explicit_graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5),
                           (4, 6), (5, 6)])
    for q, tag in (("2", "rc2"), ("1/2", "rchalf")):
        yield pytest.param(g, make_pair(g, [3], [0, 6], 3),
                           random_cluster_law(q), id=f"two-triangles-{tag}")


@pytest.mark.parametrize("g, pair, law", _builtin_cases())
def test_subset_dp_bins_equal_brute_force_on_builtins(g, pair, law):
    observed = Observables(pair.origin, (pair,), tuple(range(g.n_vertices)))
    assert (unpacked_bins(enumerate_joint(g, observed, law, cap_bits=32))
            == brute_force_bins(g, observed, law))


def test_star_counts_follow_the_closed_form():
    # K_{1,16} from its centre: j open edges <-> the cluster is the centre
    # and j leaves, in C(16, j) configurations, with the other 16 - j
    # leaves isolated cells (the empty v_minus reads 0).  Every cluster is
    # a tree, so the pendant rule decides every C_S.
    leaves = 16
    g = explicit_graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    observed = Observables(0, (make_pair(g, range(leaves + 1), [], 0),))
    bond = enumerate_joint(g, observed, BOND)
    assert unpacked_bins(bond) == {((1 + j, 0), j): comb(leaves, j)
                                   for j in range(leaves + 1)}
    rc = enumerate_joint(g, observed, random_cluster_law(3))
    assert unpacked_bins(rc) == {
        ((1 + j, 0), j, 1 + leaves - j): comb(leaves, j)
        for j in range(leaves + 1)}


@pytest.mark.parametrize("g", [
    bunkbed_graph(cycle_graph(9)),
    bunkbed_graph(cycle_graph(10)),
    torus_graph(4, 4),
], ids=["bunkbed-c9", "bunkbed-c10", "torus4x4"])
def test_site_rows_equal_the_per_set_loop(g):
    # the two layers as a pair and the far end as a target
    half = g.n_vertices // 2
    observed = Observables(
        0, (make_pair(g, range(half), range(half, 2 * half), 0),),
        (g.n_vertices - 1,))
    sweep = enumerate_joint(g, observed, SITE)
    assert sweep.rows == per_set_site_rows(g, 0, sweep.masks)


def test_site_tally_fields_hold_clusters_of_more_than_255_vertices():
    # |S| and |S ∪ ∂S| reach 300, so a tally field of one byte would carry
    g = path_graph(300)
    observed = Observables(
        0, (make_pair(g, range(0, 300, 2), range(1, 300, 2), 0),), (299,))
    sweep = enumerate_joint(g, observed, SITE, cap_bits=400)
    assert sweep.rows == per_set_site_rows(g, 0, sweep.masks)


@pytest.mark.parametrize("g, bunkbed", [
    (bunkbed_graph(cycle_graph(6)), True),
    (bunkbed_graph(cycle_graph(7)), True),
    (torus_graph(3, 3), False),
    (complete_graph(5), False),
    (hypercube_graph(3), False),
    # every connected set is a run of the path, cut at its lowest vertex,
    # which the per-root pass never cuts; no set is walked
    (path_graph(12), False),
    # a cut vertex between cyclic blocks leaves Z_T a disconnected T with
    # no pendant vertex, which the per-root pass takes as a product over
    # its components and the package splits off the cell of min T
    (explicit_graph(7, [(0, 1), (0, 4), (1, 2), (2, 3), (1, 3), (4, 5),
                        (5, 6), (4, 6)]), False),
    (explicit_graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (0, 5),
                        (5, 6), (6, 7), (7, 8), (8, 5)]), False),
], ids=["bunkbed-c6", "bunkbed-c7", "torus3x3", "k5", "q3", "path12",
        "two-triangles-via-origin", "two-hung-4-cycles"])
def test_rc_rows_equal_the_per_root_pass(g, bunkbed):
    # every vertex as a target, and a bunkbed's two layers as the pair
    layers = [[v for v, lab in enumerate(g.labels) if lab[-1] == layer]
              for layer in (0, 1)]
    observed = Observables(0, (make_pair(g, *layers, 0),) if bunkbed else (),
                           tuple(range(g.n_vertices)))
    sweep = enumerate_joint(g, observed, random_cluster_law(2))
    assert sweep.rows == per_root_rc_rows(g, 0, sweep.masks)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(cyclic_site_cases())
def test_site_rows_equal_the_per_set_loop_on_cyclic_graphs(case):
    g, origin, masks = case
    n = g.n_vertices
    width = n.bit_length()
    weights = [sum(1 << (i * width) for i, m in enumerate(masks) if m >> v & 1)
               for v in range(n)]
    assert (exact._origin_cluster_rows(g, SITE, origin, weights, n + 2)
            == per_set_site_rows(g, origin, masks))
