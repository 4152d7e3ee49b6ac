import concurrent.futures
import os
import random
import subprocess
import sys
from collections import Counter, deque
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symperc import mc
from symperc.exact import Observables, enumerate_joint, joint_numerators
from symperc.graphs import (bunkbed_graph, cycle_graph, explicit_graph,
                             path_graph, torus_graph)
from symperc.groups import make_pair
from symperc.mc import (
    INCONCLUSIVE,
    PASS,
    VIOLATION,
    EmpiricalJoint,
    estimate_joint,
    mc_domination_verdict,
    open_threshold,
    unit_word,
    wilson_interval,
)
from symperc.scenarios import worst_verdict

from _oracles import (
    connected,
    eager_cluster_mask,
    lazy_incidence,
    observed_graphs,
    pair_joint,
    probabilities,
    reach_cases,
    sample_cluster,
    sample_cluster_mask,
    transpose_bins,
)

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
    base = pair_joint(estimate_joint, g, pair, HALF, 20_000, seed=42)
    assert pair_joint(estimate_joint, g, pair, HALF, 20_000, seed=42) == base
    assert pair_joint(estimate_joint, g, pair, HALF, 20_000, seed=42,
                      chunk_size=123) == base
    assert pair_joint(estimate_joint, g, pair, HALF, 20_000, seed=42,
                      chunk_size=4096, threads=2) == base
    assert pair_joint(estimate_joint, g, pair, HALF, 20_000, seed=43) != base
    assert base.n_samples == sum(base.counts.values()) == 20_000
    assert all(a >= 1 for (a, _b) in base.counts)


def test_single_sample_single_bin():
    g, pair = c4_bunkbed()
    emp = pair_joint(estimate_joint, g, pair, HALF, 1, seed=0)
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
            assert joint == pair_joint(estimate_joint, g, pair, p, n, seed)
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
    inc = lazy_incidence(g)
    for p in (F(3, 10), HALF):
        thr = open_threshold(p)
        for i in range(500):
            lazy = sample_cluster_mask(inc, 77, i, thr, 0)
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
    inc, thr = lazy_incidence(g), open_threshold(p)
    assert [sample_cluster_mask(inc, seed, i, thr, o)
            for i in range(n)] == eager
    everything = Observables(o, targets=tuple(range(g.n_vertices)))
    for chunk_size in (1, 37, None):
        sweep = estimate_joint(g, everything, p, n, seed,
                               chunk_size=chunk_size)
        assert sweep.bins == Counter(eager)


_TORUS5 = torus_graph(5, 5)
_P_MIXED = F(1, 5)  # edges of the 5x5 torus meet small and large waves


@pytest.fixture(scope="module")
def torus5_oracle():
    return [eager_cluster_mask(_TORUS5, 0, _P_MIXED, 2**70, i)
            for i in range(4400)]


@pytest.mark.parametrize("chunk_size, n", [
    (1, 130), (63, 200), (64, 200), (65, 200), (4097, 4100),
    (4400, 4400),  # one chunk wider than int's 4300-digit base-10 limit
])
def test_chunk_growth_equals_the_oracle(torus5_oracle, chunk_size, n):
    everything = Observables(0, targets=tuple(range(_TORUS5.n_vertices)))
    sweep = estimate_joint(_TORUS5, everything, _P_MIXED, n, 2**70,
                           chunk_size=chunk_size)
    assert sweep.bins == Counter(torus5_oracle[:n])


def test_chunk_shrinks_on_large_graphs(monkeypatch, torus5_oracle):
    # the 5x5 torus holds 25 + 50 = 75 chunk-wide sets at most
    assert mc._chunk_size_for(_TORUS5) == mc.DEFAULT_CHUNK_SIZE
    sizes = []
    grow = mc._sample_chunk
    monkeypatch.setattr(mc, "_sample_chunk",
                        lambda job: sizes.append(job[-1] - job[-2]) or grow(job))
    everything = Observables(0, targets=tuple(range(_TORUS5.n_vertices)))
    for bits, size in ((75 * 100, 100), (75 * 100 + 74, 100),
                       (75, mc._MIN_CHUNK_SIZE)):
        monkeypatch.setattr(mc, "_CHUNK_STATE_BITS", bits)
        assert mc._chunk_size_for(_TORUS5) == size
        sizes.clear()
        sweep = estimate_joint(_TORUS5, everything, _P_MIXED, 250, 2**70)
        assert sizes == [size] * (250 // size) + [250 % size]
        assert sweep.bins == Counter(torus5_oracle[:250])


@pytest.mark.parametrize("p", [F(1, 10**6), HALF, F(10**6 - 1, 10**6)])
def test_keys_wider_than_a_word_equal_the_oracle(p):
    g = torus_graph(9, 9)
    everything = Observables(0, targets=tuple(range(g.n_vertices)))
    n, seed = 150, 3
    sweep = estimate_joint(g, everything, p, n, seed)
    assert sweep.bins == Counter(eager_cluster_mask(g, 0, p, seed, i)
                                 for i in range(n))
    if p > HALF:
        assert max(sweep.bins) == (1 << 81) - 1


_LANE_PS = (HALF, F(1, 4), F(3, 7), F(61, 89))


@pytest.mark.parametrize("size", [1, 2, 3, 63, 65, 300])
@pytest.mark.parametrize("seed", [-1, 2**70])
def test_both_hashing_paths_decide_one_edge_alike(seed, size):
    # the last lane is even or odd; at p = 1/2 and 1/4 the threshold's low
    # 56 bits are 0, at 3/7 and 61/89 a lane whose top byte is the
    # threshold's is decided by its word, and the last threshold puts the
    # last lane's word just below it
    lo, hi = 5, 5 + size
    everyone, some = (1 << size) - 1, sum(1 << j for j in range(0, size, 7))
    # from 2**30 on, e + 1 is more than one digit of a Python int
    for e in (0, 7, 10**6, 2**30, 2**40):
        w = unit_word(seed, hi - 1, e)
        tie = (w >> 56 << 56) + (w & (1 << 56) - 1) + 1
        assert tie >> 56 == w >> 56
        for threshold in (*map(open_threshold, _LANE_PS), tie):
            stream = mc._ChunkStream(seed, threshold, lo, hi)
            want = sum(1 << j for j in range(size)
                       if unit_word(seed, lo + j, e) < threshold)
            assert stream.open_lanes(e) == want
            assert stream.open_each(e, everyone) == want
            assert stream.open_each(e, some) == want & some
        assert want >> size - 1 == 1


@pytest.mark.parametrize("order", [1, -1])
def test_streams_share_only_their_lane_constants(order):
    # full and tail chunks of two seeds and four thresholds, with an even
    # and an odd lane last, built in either order and used after one
    # another, each still draws unit_word
    cases = [(-1, F(3, 7), 0, 64), (2**70, F(1, 4), 64, 64 + 37),
             (9, F(61, 89), 128, 128 + 37), (9, HALF, 0, 64),
             (-1, F(61, 89), 0, 65), (2**70, HALF, 65, 65 + 2)][::order]
    streams = [mc._ChunkStream(seed, open_threshold(p), lo, hi)
               for seed, p, lo, hi in cases]
    for (seed, p, lo, hi), stream in zip(cases, streams):
        threshold = open_threshold(p)
        for e in (0, 3, 7, 2**30, 2**40):
            want = sum(1 << j for j in range(hi - lo)
                       if unit_word(seed, lo + j, e) < threshold)
            assert stream.open_lanes(e) == want
            assert stream.open_each(e, (1 << (hi - lo)) - 1) == want


@settings(max_examples=100, deadline=None, derandomize=True)
@given(reach_cases())
def test_byte_plane_bins_equal_the_transpose(case):
    reach, observed, size = case
    bins = mc._bins(reach, observed, size)
    assert bins == transpose_bins(reach, observed, size)
    assert sum(bins.values()) == size


@pytest.mark.parametrize("groups", range(1, 5))
def test_bins_by_group_count_equal_the_transpose(groups):
    # one group of up to eight vertices is counted by bytes, two groups by
    # 2-byte words, and more by tuples of bytes
    rng = random.Random(groups)
    size, n = 300, 8 * groups - groups % 3  # some groups hold fewer
    reach = [rng.getrandbits(size) | 1 for _ in range(n)]
    observed = (1 << n) - 1
    bins = mc._bins(reach, observed, size)
    assert bins == transpose_bins(reach, observed, size)
    assert sum(bins.values()) == size


def test_growth_mixes_hashing_paths_on_one_edge(monkeypatch, torus5_oracle):
    # an edge first asked about by a few samples is hashed one sample at a
    # time, and when more samples reach it, for the whole chunk at once
    calls = []

    def spy(name):
        method = getattr(mc._ChunkStream, name)

        def recorded(self, step, *args):
            calls.append((step, name))
            return method(self, step, *args)
        monkeypatch.setattr(mc._ChunkStream, name, recorded)

    spy("open_each")
    spy("open_lanes")
    everything = Observables(0, targets=tuple(range(_TORUS5.n_vertices)))
    sweep = estimate_joint(_TORUS5, everything, _P_MIXED, 1000, 2**70)
    assert sweep.bins == Counter(torus5_oracle[:1000])
    paths: dict[int, list[str]] = {}
    for step, path in calls:
        paths.setdefault(step, []).append(path)
    assert any(seq[0] == "open_each" and seq[-1] == "open_lanes"
               for seq in paths.values())


@st.composite
def growth_cases(draw):
    """A connected graph of 2-24 vertices (a random tree plus chords), an
    origin and the observed vertices, each drawn with even odds."""
    n = draw(st.integers(2, 24))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=2 * n)):
        if u != v:
            edges.add((min(u, v), max(u, v)))
    seen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return explicit_graph(n, sorted(edges)), draw(st.integers(0, n - 1)), (
        tuple(v for v in range(n) if seen[v]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(growth_cases(),
       st.sampled_from([F(1, 20), F(1, 6), F(1, 3), HALF, F(4, 5)]))
def test_waiting_edges_grow_the_oracle_clusters(case, p):
    # chunks of 64 and 100 samples decide an edge for everyone once 4 or 6
    # samples need it, so the small waves of these graphs leave edges
    # waiting for the growth to stall
    g, o, targets = case
    n, seed = 250, 5
    inc, threshold = lazy_incidence(g), open_threshold(p)
    union = sum(1 << v for v in targets)
    want = Counter(sample_cluster_mask(inc, seed, i, threshold, o) & union
                   for i in range(n))
    observed = Observables(o, targets=targets)
    for chunk_size, threads in ((64, 1), (100, 1), (100, 2)):
        sweep = estimate_joint(g, observed, p, n, seed,
                               chunk_size=chunk_size, threads=threads)
        assert sweep.bins == want


@pytest.mark.parametrize("chunk_size", [64, 100])
def test_waits_end_in_words_and_in_lane_passes(chunk_size, monkeypatch,
                                               torus5_oracle):
    # a stall is an empty FIFO: words are paid only there, some waits end
    # in a lane pass, and some edges wait at several stalls
    stalled = [False]

    class Fifo(deque):
        def __len__(self):
            size = super().__len__()
            stalled[0] = not size
            return size

    calls = []

    def spy(name):
        method = getattr(mc._ChunkStream, name)

        def recorded(self, e, *args):
            calls.append((e, name, stalled[0]))
            return method(self, e, *args)
        monkeypatch.setattr(mc._ChunkStream, name, recorded)

    monkeypatch.setattr(mc, "deque", Fifo)
    spy("open_each")
    spy("open_lanes")
    everything = Observables(0, targets=tuple(range(_TORUS5.n_vertices)))
    sweep = estimate_joint(_TORUS5, everything, _P_MIXED, 1000, 2**70,
                           chunk_size=chunk_size)
    assert sweep.bins == Counter(torus5_oracle[:1000])
    words = [e for e, name, _ in calls if name == "open_each"]
    assert words and all(at_stall for _, name, at_stall in calls
                         if name == "open_each")
    assert any(at_stall for _, name, at_stall in calls
               if name == "open_lanes")
    assert max(Counter(words).values()) > 1


@pytest.mark.parametrize("p", [HALF, F(61, 89)])
def test_no_word_is_paid_for_an_edge_that_gets_a_lane_pass(p, monkeypatch):
    # one 2,000-sample chunk of the 20x20 torus: at the critical p = 1/2, a
    # sampler that decided each edge on first contact paid 47,852 single
    # words here for edges that a lane pass decided again later; at 61/89 a
    # lane pass decides its ties by word, which no open_each call pays
    words, laned = Counter(), set()
    each, lanes = mc._ChunkStream.open_each, mc._ChunkStream.open_lanes

    def counted_each(self, e, samples):
        words[e] += samples.bit_count()
        return each(self, e, samples)

    def counted_lanes(self, e):
        laned.add(e)
        return lanes(self, e)

    monkeypatch.setattr(mc._ChunkStream, "open_each", counted_each)
    monkeypatch.setattr(mc._ChunkStream, "open_lanes", counted_lanes)
    g = torus_graph(20, 20)
    estimate_joint(g, Observables(0, targets=(1,)), p, 2000, 78289)
    assert laned
    assert sum(words[e] for e in laned) == 0


def test_pool_is_clamped_to_jobs_and_cores(monkeypatch):
    started, batches = [], []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs, chunksize):
            batches.append(chunksize)
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
    g, pair = c4_bunkbed()
    base = pair_joint(estimate_joint, g, pair, HALF, 100, seed=4)
    for threads, chunk_size, workers, batch in (
            (8, 10, 3, 4), (8, 50, 2, 1), (2, 10, 2, 5), (8, 100, None, None),
            (1, 10, None, None)):
        started.clear()
        batches.clear()
        assert pair_joint(estimate_joint, g, pair, HALF, 100, seed=4,
                          threads=threads, chunk_size=chunk_size) == base
        assert started == ([] if workers is None else [workers])
        assert batches == ([] if batch is None else [batch])
    with pytest.raises(ValueError):
        pair_joint(estimate_joint, g, pair, HALF, 100, seed=4, threads=0)


# Runs in a fresh interpreter in which ``import click`` fails, and prints
# what has been loaded after an exact run and after a Monte Carlo run.
_LOADED_PROBE = """
import contextlib, io, sys
sys.modules["click"] = None
from symperc.cli import main

def loaded():
    names = [name for name in ("click", "csv", "statistics",
                               "multiprocessing") if sys.modules.get(name)]
    sampler = sys.modules.get("symperc.mc")
    # the module's own namespace, read without triggering a lazy load
    if sampler is not None and "estimate_joint" in object.__getattribute__(
            sampler, "__dict__"):
        names.append("symperc.mc")
    return names

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check-symmetry", "--scenario",
                 "builtin:bunkbed-path2"]) == 0
    exact = loaded()
    assert main(["bunkbed", "--base", "path:2", "--mode", "mc",
                 "--n", "50"]) in (0, 2)
print(exact, loaded())
"""


def test_cli_import_leaves_multiprocessing_unloaded():
    # A one-process run never starts a pool, and an exact run never
    # samples, so neither pays at start-up for multiprocessing, the sampler
    # or statistics; no run needs click, nor one without --csv the csv module.
    src = os.path.dirname(os.path.dirname(mc.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _LOADED_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[] ['statistics', 'symperc.mc']"


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
    lo, hi = est["ci"]
    assert lo <= 7 / 16 <= hi
    est_adj = estimate_connection(g, 0, 2, HALF, 100_000, seed=42, level=0.99)
    lo, hi = est_adj["ci"]
    assert lo <= 9 / 16 <= hi


def test_empirical_mean_close_to_exact():
    g, pair = c4_bunkbed()
    emp = pair_joint(estimate_joint, g, pair, HALF, 100_000, seed=42)
    est_plus, est_minus = mc.empirical_expected_sizes(emp)
    assert abs(est_plus["estimate"] - 25 / 16) <= 3 * est_plus["stderr"]
    assert abs(est_minus["estimate"] - 1.0) <= 3 * est_minus["stderr"]


def test_degenerate_self_connection():
    g = cycle_graph(4)
    est = estimate_connection(g, 2, 2, HALF, 10, seed=0)
    assert est["estimate"] == 1.0 and est["ci"] == [1.0, 1.0]


def test_wilson_interval_reference_value():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert lo == pytest.approx(0.40383, abs=1e-4)
    assert hi == pytest.approx(0.59617, abs=1e-4)
    with pytest.raises(ValueError):
        wilson_interval(5, 10, 0.90)


def test_domination_verdicts():
    g, pair = c4_bunkbed()
    emp = pair_joint(estimate_joint, g, pair, HALF, 50_000, seed=8)
    rows = mc_domination_verdict(emp)
    assert worst_verdict(v for _, v in rows) == PASS
    assert all(v == PASS for _, v in rows)

    tiny = pair_joint(estimate_joint, g, pair, HALF, 10, seed=8)
    assert worst_verdict(
        v for _, v in mc_domination_verdict(tiny)) == INCONCLUSIVE


def test_domination_violation_detected():
    # origin placed with the far vertex: true margin at threshold 2 is -1/8
    g = path_graph(4)
    pair = make_pair(g, [0, 3], [1, 2], origin=0)
    pmf = probabilities(joint_numerators(
        pair_joint(enumerate_joint, g, pair), HALF))
    true_margin = (
        sum(prob for (a, _), prob in pmf.items() if a >= 2)
        - sum(prob for (_, b), prob in pmf.items() if b >= 2))
    assert true_margin == F(-1, 8)
    emp = pair_joint(estimate_joint, g, pair, HALF, 100_000, seed=7)
    rows = mc_domination_verdict(emp)
    assert worst_verdict(v for _, v in rows) == VIOLATION
    margin, verdict = rows[2 - 1]  # threshold t = 2
    assert verdict == VIOLATION and margin["ci"][1] < 0


def test_small_p_connection_ordering_on_torus():
    # at small p the one-step connection clearly beats the two-step one
    g = torus_graph(7, 7)
    near = g.index_of((1, 0))
    far = g.index_of((2, 0))
    est_near = estimate_connection(g, 0, near, F(1, 10), 30_000, seed=5)
    est_far = estimate_connection(g, 0, far, F(1, 10), 30_000, seed=5)
    assert est_near["estimate"] > est_far["estimate"]
    assert est_near["ci"][0] > est_far["ci"][1]  # non-overlapping intervals


def test_calibration_coverage():
    # across independent seeds the 95% interval for P(o <-> opposite)
    # must cover the exact value 7/16 in at least 90% of runs (the 5%
    # nominal miss rate leaves ample slack at 200 runs)
    g, pair = c4_bunkbed()
    sweep = enumerate_joint(g, Observables(0, targets=(3,)))
    exact_value = connected(sweep.connection(3), HALF)
    assert exact_value == F(7, 16)
    covered = 0
    runs = 200
    for seed in range(runs):
        est = estimate_connection(g, 0, 3, HALF, 1000, seed=seed, level=0.95)
        lo, hi = est["ci"]
        if lo <= float(exact_value) <= hi:
            covered += 1
    assert covered >= 0.90 * runs


def test_empirical_joint_validation():
    with pytest.raises(ValueError):
        EmpiricalJoint(n_samples=3, counts={(1, 0): 1})
