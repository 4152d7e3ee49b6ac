from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symperc import mc
from symperc.exact import Observables, enumerate_joint, eval_counts, eval_joint
from symperc.graphs import bunkbed_graph, cycle_graph, path_graph, torus_graph
from symperc.groups import make_pair
from symperc.mc import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    EmpiricalJoint,
    estimate_joint,
    mc_domination_verdict,
    open_threshold,
    sample_cluster,
    unit_word,
    wilson_interval,
)

from _oracles import eager_cluster_mask, observed_graphs

HALF = F(1, 2)


def c4_bunkbed():
    g = bunkbed_graph(path_graph(2))
    return g, make_pair(g, [0, 2], [1, 3], origin=0)


def test_unit_word_is_pure_and_64_bit():
    a = unit_word(42, 17, 3)
    assert a == unit_word(42, 17, 3)
    assert 0 <= a < 1 << 64
    words = {unit_word(42, i, e) for i in range(50) for e in range(8)}
    assert len(words) == 400  # no collisions in a tiny window


def test_open_threshold_exact_at_half():
    assert open_threshold(HALF) == 1 << 63
    assert open_threshold(F(1, 4)) == 1 << 62
    with pytest.raises(ValueError):
        open_threshold(F(1))


def test_sample_cluster_limits_and_determinism():
    g = cycle_graph(4)
    tiny = F(1, 10**6)
    assert all(sample_cluster(g, 0, tiny, seed=1, sample_index=i) == (0,)
               for i in range(50))
    huge = F(10**6 - 1, 10**6)
    assert all(sample_cluster(g, 0, huge, seed=1, sample_index=i)
               == (0, 1, 2, 3) for i in range(50))
    for i in range(20):
        assert sample_cluster(g, 0, HALF, 9, i) == sample_cluster(
            g, 0, HALF, 9, i)


def test_estimate_joint_reproducible_across_layouts():
    g, pair = c4_bunkbed()
    base = estimate_joint(g, pair, HALF, 20_000, seed=42)
    assert estimate_joint(g, pair, HALF, 20_000, seed=42) == base
    assert estimate_joint(g, pair, HALF, 20_000, seed=42,
                          chunk_size=123) == base
    assert estimate_joint(g, pair, HALF, 20_000, seed=42, chunk_size=4096,
                          threads=2) == base
    assert estimate_joint(g, pair, HALF, 20_000, seed=43) != base
    assert base.n_samples == sum(base.counts.values()) == 20_000
    assert all(a >= 1 for (a, _b) in base.counts)


def test_single_sample_single_bin():
    g, pair = c4_bunkbed()
    emp = estimate_joint(g, pair, HALF, 1, seed=0)
    assert emp.n_samples == 1 and len(emp.counts) == 1


@settings(max_examples=30, deadline=None, derandomize=True)
@given(observed_graphs(), st.sampled_from([F(1, 3), HALF, F(3, 5)]))
def test_one_pass_projects_every_pair_and_target(case, p):
    g, o, pairs, targets = case
    n, seed = 300, 11
    clusters = [set(sample_cluster(g, o, p, seed, i)) for i in range(n)]
    observed = Observables(o, tuple(pairs), tuple(targets))
    for chunk_size in (None, 37):
        sweep = estimate_joint(g, observed, p, n, seed, chunk_size=chunk_size)
        for pair in pairs:
            joint = sweep.joint(pair)
            assert joint == estimate_joint(g, pair, p, n, seed)
            assert joint.counts == Counter(
                (len(c & set(pair.v_plus)), len(c & set(pair.v_minus)))
                for c in clusters)
        for t in targets:
            assert sweep.hits(t) == sum(t in c for c in clusters)


def test_sweep_rejects_unobserved_sets():
    g, pair = c4_bunkbed()
    sweep = estimate_joint(g, Observables(0, targets=(3,)), HALF, 10, seed=0)
    with pytest.raises(ValueError):
        sweep.joint(pair)
    with pytest.raises(ValueError):
        sweep.hits(1)


def test_lazy_equals_eager():
    g = bunkbed_graph(cycle_graph(5))  # 15 edges, under the 20-edge bound
    assert g.n_edges <= 20
    inc = mc._incidence_indexed(g)
    for p in (F(3, 10), HALF):
        thr = open_threshold(p)
        for i in range(500):
            lazy = mc._sample_cluster_mask(inc, 77, i, thr, 0)
            assert lazy == eager_cluster_mask(g, 0, p, 77, i)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(observed_graphs(), st.sampled_from([-1, 0, 2**64 + 5, 2**70]),
       st.sampled_from([F(1, 10**6), F(3, 7), F(10**6 - 1, 10**6)]))
def test_sampler_stream_is_pinned(case, seed, p):
    # the sampler's inlined hash must reveal the same edges as unit_word,
    # which the eager oracle draws for every edge up front
    g, o, _pairs, _targets = case
    n = 60
    eager = [eager_cluster_mask(g, o, p, seed, i) for i in range(n)]
    inc, thr = mc._incidence_indexed(g), open_threshold(p)
    assert [mc._sample_cluster_mask(inc, seed, i, thr, o)
            for i in range(n)] == eager
    everything = Observables(o, targets=tuple(range(g.n_vertices)))
    for chunk_size in (1, 37, None):
        sweep = estimate_joint(g, everything, p, n, seed,
                               chunk_size=chunk_size)
        assert sweep.bins == Counter(eager)


def test_sampler_stream_is_pinned_across_workers():
    g = torus_graph(5, 5)
    everything = Observables(0, targets=tuple(range(g.n_vertices)))
    n, seed, p = 300, 2**70, F(3, 7)
    sweep = estimate_joint(g, everything, p, n, seed, chunk_size=37,
                           threads=2)
    assert sweep.bins == Counter(eager_cluster_mask(g, 0, p, seed, i)
                                 for i in range(n))


def estimate_connection(g, o, v, p, n, seed, level=0.95):
    """Wilson-interval estimate of P(o <-> v) from one sampler pass."""
    sweep = estimate_joint(g, Observables(o, targets=(v,)), p, n, seed)
    return sweep.connection(v, level)


def test_connection_estimate_within_99_ci_of_exact():
    g, pair = c4_bunkbed()
    est = estimate_connection(g, 0, 3, HALF, 100_000, seed=42, level=0.99)
    assert est.lo <= 7 / 16 <= est.hi
    est_adj = estimate_connection(g, 0, 2, HALF, 100_000, seed=42, level=0.99)
    assert est_adj.lo <= 9 / 16 <= est_adj.hi


def test_empirical_mean_close_to_exact():
    g, pair = c4_bunkbed()
    emp = estimate_joint(g, pair, HALF, 100_000, seed=42)
    est_plus, est_minus = mc.empirical_expected_sizes(emp)
    assert abs(est_plus.estimate - 25 / 16) <= 3 * est_plus.stderr
    assert abs(est_minus.estimate - 1.0) <= 3 * est_minus.stderr


def test_degenerate_self_connection():
    g = cycle_graph(4)
    est = estimate_connection(g, 2, 2, HALF, 10, seed=0)
    assert est.estimate == 1.0 and (est.lo, est.hi) == (1.0, 1.0)


def test_wilson_interval_reference_value():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    with pytest.raises(ValueError):
        wilson_interval(5, 10, 0.90)


def test_domination_verdicts():
    g, pair = c4_bunkbed()
    emp = estimate_joint(g, pair, HALF, 50_000, seed=8)
    verdict = mc_domination_verdict(emp)
    assert verdict.overall == PASS
    assert all(r.verdict == PASS for r in verdict.rows)

    tiny = estimate_joint(g, pair, HALF, 10, seed=8)
    assert mc_domination_verdict(tiny).overall == INCONCLUSIVE


def test_domination_violation_detected():
    # origin placed with the far vertex: true margin at threshold 2 is -1/8
    g = path_graph(4)
    pair = make_pair(g, [0, 3], [1, 2], origin=0)
    pmf = eval_joint(enumerate_joint(g, pair), HALF)
    true_margin = (
        sum(prob for (a, _), prob in pmf.items() if a >= 2)
        - sum(prob for (_, b), prob in pmf.items() if b >= 2))
    assert true_margin == F(-1, 8)
    emp = estimate_joint(g, pair, HALF, 100_000, seed=7)
    verdict = mc_domination_verdict(emp)
    assert verdict.overall == VIOLATION
    row = next(r for r in verdict.rows if r.threshold == 2)
    assert row.verdict == VIOLATION and row.hi < 0


def test_small_p_connection_ordering_on_torus():
    # at small p the one-step connection clearly beats the two-step one
    g = torus_graph(7, 7)
    near = g.index_of((1, 0))
    far = g.index_of((2, 0))
    est_near = estimate_connection(g, 0, near, F(1, 10), 30_000, seed=5)
    est_far = estimate_connection(g, 0, far, F(1, 10), 30_000, seed=5)
    assert est_near.estimate > est_far.estimate
    assert est_near.lo > est_far.hi  # non-overlapping intervals


def test_calibration_coverage():
    # across independent seeds the 95% interval for P(o <-> opposite)
    # must cover the exact value 7/16 in at least 90% of runs (the 5%
    # nominal miss rate leaves ample slack at 200 runs)
    g, pair = c4_bunkbed()
    sweep = enumerate_joint(g, Observables(0, targets=(3,)))
    exact_value = eval_counts(sweep.connection(3), sweep.units, HALF)
    assert exact_value == F(7, 16)
    covered = 0
    runs = 200
    for seed in range(runs):
        est = estimate_connection(g, 0, 3, HALF, 1000, seed=seed, level=0.95)
        if est.lo <= float(exact_value) <= est.hi:
            covered += 1
    assert covered >= 0.90 * runs


def test_empirical_joint_validation():
    with pytest.raises(ValueError):
        EmpiricalJoint(n_samples=3, counts={(1, 0): 1})
