"""Monte Carlo estimation for graphs beyond the enumeration cap.

Randomness is counter-based: the open/closed state of edge e in sample i is
a pure function of (master seed, i, e), computed by two rounds of the
splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014).  That makes every
estimate bit-reproducible from the seed alone, independent of chunking,
scheduling, and of the order in which edges are revealed.
:func:`unit_word` is the stream's definition, and the tests' per-sample
oracles draw from it.

The sampler grows every sample of a chunk at once, one bit per sample
(multi-spin coding; Jacobs & Rebbi, J. Comput. Phys. 41, 1981): the set of
samples whose cluster holds a vertex is one integer, and a FIFO of
vertices carries across each edge only the samples that newly reached it.
An edge's state is decided on first contact, and only for the samples
that reached it: one word at a time, from each sample's first round
hashed once per chunk, while the edge has been asked about for fewer than
1/16 of the chunk's samples; after that for the whole chunk in one pass
over 128-bit lanes of a big integer.  The first path keeps small clusters
cheap, where most edges are never reached, and the second makes large
ones cheap, where every edge is.  Every reached vertex and decided edge
holds one chunk-wide set, so large graphs get smaller chunks.  On a 2-core
x86-64 box with Python 3.11, at p = 1/2, this raised the sampling rate
from about 3,700 to 11,900 samples/s on the 20x20 torus, from 153,000 to
765,000 on the bunkbed of C5, and from 12,600 to 72,000 on Q6, as
``perfbench/run.py --workload mc-sample --trace 1`` counts them.

There is one sampling loop, :func:`estimate_joint`, and like the exact
engine it makes one pass per (graph, origin, p) for every observed pair and
connection target.  Each sample is keyed by its origin cluster restricted
to the union of the observed sets; every outcome (a, b) and every
connection event is a function of that restriction.  Because sample i is
the same cluster whichever sets are observed, a projection of the shared
pass gives exactly the counts a separate pass per pair or target would.
It is also the only way in: a connection estimate is the projection
``connection(v, level)`` of a pass that observes the target.

Every sampled mean other than a proportion takes its standard error from
one formula, :func:`_mean_stderr`, its normal quantile from
:func:`z_value` (Bonferroni over the tests judged together) and its
report record and verdict from one interval function, :func:`interval`.
Verdicts are deliberately three-valued: sampling cannot prove an
inequality, so a verdict is ``pass`` (consistent with it at the stated
level), ``violation`` or ``inconclusive``.
"""

from __future__ import annotations

import math
import os
import struct
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist

from .exact import Observables
from .graphs import Graph
from .groups import VertexSetPair
from .rationals import parse_fraction

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

PASS = "pass"
VIOLATION = "violation"
INCONCLUSIVE = "inconclusive"

# A margin lives in [-1, 1]; intervals wider than this resolve nothing.
MAX_INFORMATIVE_HALF_WIDTH = 0.25

_ALLOWED_LEVELS = (0.95, 0.99)

# Samples per scheduled chunk, grown together.  The layout only affects
# batching; results are a function of the seed and the sample count alone.
# Every reached vertex and edge holds one bit per sample of the chunk and a
# lane pass 16 bytes per sample: at 1 << 14, perfbench's mc-sample workload
# peaked at 30.6 MB against 29.0 MB here, and ran no faster (2-core x86-64,
# Python 3.11).
DEFAULT_CHUNK_SIZE = 1 << 12
# On a large graph the chunk shrinks so that (vertices + edges) x chunk
# stays under this many bits, about 8 MB of per-chunk state, but not below
# one 64-bit word of samples.
_CHUNK_STATE_BITS = 1 << 26
_MIN_CHUNK_SIZE = 64


def _chunk_size_for(g: Graph) -> int:
    """Samples per chunk on g: :data:`DEFAULT_CHUNK_SIZE`, or fewer when
    the graph is so large that the chunk's state would pass
    :data:`_CHUNK_STATE_BITS`."""
    fit = _CHUNK_STATE_BITS // (g.n_vertices + len(g.edges))
    return max(_MIN_CHUNK_SIZE, min(DEFAULT_CHUNK_SIZE, fit))


def max_graph_size() -> int:
    """The most vertices + edges a sampled graph may have: past it, even a
    chunk of :data:`_MIN_CHUNK_SIZE` samples holds more than
    :data:`_CHUNK_STATE_BITS` bits of state."""
    return _CHUNK_STATE_BITS // _MIN_CHUNK_SIZE


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def unit_word(seed: int, sample_index: int, unit_index: int) -> int:
    """64-bit word for one (sample, unit) cell of one seed's stream."""
    h = _mix64((seed + (sample_index + 1) * _GOLDEN) & _MASK64)
    return _mix64((h + (unit_index + 1) * _GOLDEN) & _MASK64)


def open_threshold(p: Fraction) -> int:
    """Units are open iff their word falls below this 64-bit threshold."""
    p = parse_fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly between 0 and 1, got {p}")
    return (p.numerator << 64) // p.denominator


@dataclass(frozen=True)
class EmpiricalJoint:
    """Sampled counterpart of the exact joint law: outcome -> sample count."""

    n_samples: int
    counts: dict[tuple[int, int], int]

    def __post_init__(self):
        if sum(self.counts.values()) != self.n_samples:
            raise ValueError("empirical counts do not sum to n_samples")
        if any(a < 1 for (a, _b) in self.counts):
            raise ValueError("the origin's cluster always meets v_plus")


def z_value(level: float, tests: int = 1) -> float:
    """The two-sided normal quantile at ``level``, Bonferroni-corrected for
    ``tests`` intervals judged together."""
    if level not in _ALLOWED_LEVELS:
        raise ValueError(f"interval level must be one of {_ALLOWED_LEVELS}")
    return NormalDist().inv_cdf(1 - (1 - level) / (2 * tests))


def interval(value: float, stderr: float, z: float) -> tuple[dict, str]:
    """A report's Monte Carlo value, ``value +/- z * stderr``, and the
    verdict on "the quantity is >= 0".

    The record is the estimate, its standard error and its confidence
    interval, with an infinite stderr or end as null.  The verdict is a
    violation when the interval lies entirely below zero; otherwise a pass
    (consistent with the inequality) when it is narrow enough to be
    informative and inconclusive when it is not.
    """
    half = z * stderr
    lo, hi = value - half, value + half
    if hi < 0:
        verdict = VIOLATION
    else:
        verdict = PASS if half <= MAX_INFORMATIVE_HALF_WIDTH else INCONCLUSIVE
    stderr, lo, hi = (x if math.isfinite(x) else None for x in (stderr, lo, hi))
    return {"estimate": value, "stderr": stderr, "ci": [lo, hi]}, verdict


def wilson_interval(hits: int, n: int, level: float) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion."""
    z = z_value(level)
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


# ---------------------------------------------------------------------------
# cluster sampling

# A lane is 16 bytes: a 64-bit word with room above it for the full
# 128-bit product of a multiply, so no carry reaches the next lane.
_LANE_BYTES = 16
_LANE_ONE = b"\x01" + b"\x00" * (_LANE_BYTES - 1)
# Byte 7 of a big-endian lane holds bit 64, the carry of word + 2^64 - t,
# which is 0 exactly when the word is below the threshold t.
_CARRY_TO_OPEN = bytes.maketrans(b"\x00\x01", b"10")


def _incidence_indexed(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """Per vertex x, one (w, e) entry for each edge e = xw: the neighbour
    and the edge's index, the key of its words in :func:`unit_word`."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        inc[u].append((v, idx))
        inc[v].append((u, idx))
    return [tuple(x) for x in inc]


def _mix_lanes(z: int, low: int) -> int:
    """:func:`_mix64` in every 128-bit lane of z at once; ``low`` masks
    each lane to its low 64 bits.  The mask goes on before every multiply,
    because each xor-shift pulls the next lane's low bits into the top of
    this one.  The last xor-shift is left unmasked: each lane holds its
    word in bits 0-63, zeros in bits 64-96 and the next lane's low bits
    above.  A caller that needs clean lanes masks with ``low``; the
    carry that :meth:`_ChunkStream.open_lanes` reads in bit 64 needs
    only the zeros."""
    z &= low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return z ^ (z >> 31)


@lru_cache(maxsize=2)
def _lane_constants(size: int) -> tuple[int, int, int, int, struct.Struct]:
    """What the lanes of a ``size``-sample chunk share whatever the seed
    and threshold: 1, 2^64 - 1, GOLDEN and j * GOLDEN in lane j, and the
    ``Struct`` that unpacks the low word of every lane.  A run has at most
    two chunk sizes, the full one and the tail."""
    ones = int.from_bytes(_LANE_ONE * size, "little")
    lanes = struct.Struct("<" + "Q8x" * size)
    ramp = int.from_bytes(lanes.pack(*range(size)), "little")
    return ones, ones * _MASK64, ones * _GOLDEN, ramp * _GOLDEN, lanes


class _ChunkStream:
    """The stream of one seed for the samples lo..hi-1, sample lo + j in
    lane j: :meth:`open_lanes` decides edge e for every sample with a few
    big-integer operations, and :meth:`open_each` decides it for a few
    samples with :func:`_mix64` written out inline.  Both take the edge's
    index e.  A lane's second-round input is its first-round word plus
    (e + 1) * GOLDEN, built with one multiply by the small int e + 1: at
    4,096 lanes that multiply takes about 32 µs, against 80 µs for one by
    the 64-bit (e + 1) * GOLDEN mod 2^64, and a whole lane pass about
    310 µs.  With the lane constants cached per size, a 4,096-sample
    stream is set up in about 0.3 ms instead of 1.1 ms (2-core x86-64,
    Python 3.11)."""

    def __init__(self, seed: int, threshold: int, lo: int, hi: int):
        self.size = size = hi - lo
        self.threshold = threshold
        ones, self.low, self.goldens, ramp_golden, self._lanes = (
            _lane_constants(size))
        self.firsts = _mix_lanes(
            ((seed + (lo + 1) * _GOLDEN) & _MASK64) * ones + ramp_golden,
            self.low) & self.low
        self.carry = ones * ((1 << 64) - threshold)
        self._words: tuple[int, ...] | None = None

    def open_lanes(self, e: int) -> int:
        """The samples in which edge e is open."""
        z = _mix_lanes(self.firsts + (e + 1) * self.goldens,
                       self.low) + self.carry
        flags = z.to_bytes(_LANE_BYTES * self.size, "big")[7::_LANE_BYTES]
        return int(flags.translate(_CARRY_TO_OPEN), 2)

    def open_each(self, e: int, samples: int) -> int:
        """The members of ``samples`` in which edge e is open, highest
        sample first, so that no step builds a negative chunk-wide int."""
        words = self._words
        if words is None:
            words = self._words = self._lanes.unpack(
                self.firsts.to_bytes(_LANE_BYTES * self.size, "little"))
        mask, threshold = _MASK64, self.threshold
        step = ((e + 1) * _GOLDEN) & mask
        opened = 0
        while samples:
            i = samples.bit_length() - 1
            bit = 1 << i
            samples ^= bit
            z = (words[i] + step) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            if z ^ (z >> 31) < threshold:
                opened |= bit
        return opened


def _sample_chunk(args) -> Counter:
    """Bin the samples lo..hi-1 by their origin cluster restricted to
    ``observed``, grown for all of them at once.

    Bit j of every set stands for sample lo + j: ``reach[x]`` holds the
    samples whose cluster contains x.  A FIFO of vertices, each with the
    samples that newly reached it, carries only those across each edge.
    An edge's state is decided on first contact, for the samples that need
    it: one at a time while it has been asked about for fewer than 1/16 of
    the chunk, then for the whole chunk in lanes, which costs about as much
    as a few hundred one-at-a-time words.  Either way edge e is open in
    sample i iff ``unit_word(seed, i, e) < threshold``.  Set differences
    are written ``a & b ^ a``, not ``a & ~b``: on ints of thousands of bits
    the complement is a negative int and costs about twice as much.
    """
    inc, seed, threshold, o, observed, lo, hi = args
    stream = _ChunkStream(seed, threshold, lo, hi)
    size = stream.size
    everyone = (1 << size) - 1
    cutoff = size >> 4
    n_edges = sum(map(len, inc)) // 2
    known, opened = [0] * n_edges, [0] * n_edges
    reach, fresh = [0] * len(inc), [0] * len(inc)
    reach[o] = fresh[o] = everyone
    queue = deque([o])
    pop, push = queue.popleft, queue.append
    while queue:
        x = pop()
        delta, fresh[x] = fresh[x], 0
        for w, e in inc[x]:
            need = delta & reach[w] ^ delta
            if not need:
                continue
            unknown = need & known[e] ^ need
            if unknown:
                if (known[e] | unknown).bit_count() < cutoff:
                    known[e] |= unknown
                    opened[e] |= stream.open_each(e, unknown)
                else:
                    known[e] = everyone
                    opened[e] = stream.open_lanes(e)
            new = need & opened[e]
            if new:
                reach[w] |= new
                if not fresh[w]:
                    push(w)
                fresh[w] |= new
    return _bins(reach, observed, size)


# Bit k of a byte plane: a base-2 digit of one sample, as 0 or 1 << k.
_DIGIT_TO_BIT = tuple(bytes.maketrans(b"01", bytes((0, 1 << k)))
                      for k in range(8))


def _bins(reach: list[int], observed: int, size: int) -> Counter:
    """Count the samples by their set of reached observed vertices.

    Only the observed vertices that some sample reached count; the others
    are absent from every key.  They go in groups of up to eight, and each
    group becomes one byte per sample, bit k for its k-th vertex: each
    vertex's ``reach`` set is written in base 2, its digits translated to
    0 or 1 << k, and the group's vertices ORed together.  ``Counter``
    counts the bytes, or the tuples of bytes across groups, in C, and a
    table of 2^8 vertex masks per group decodes each distinct one.  At
    p = 1/2 (2-core x86-64, Python 3.11) this takes 0.75 ms on a
    4,096-sample chunk of the bunkbed of C5 and 3.4 ms on one of C200,
    against 1.1 and 10 ms for the transpose of the ``reach`` sets into
    one string per sample that it replaced; on 2,000 samples of the
    20x20 torus with all 400 vertices observed and reached, about 12 ms
    against 14 ms.
    """
    verts = [v for v in range(len(reach)) if reach[v] and observed >> v & 1]
    if not verts:
        return Counter({0: size})
    width = f"0{size}b"
    planes, tables = [], []
    for a in range(0, len(verts), 8):
        plane, table = 0, [0]
        for k, v in enumerate(verts[a:a + 8]):
            digits = format(reach[v], width).encode()
            plane |= int.from_bytes(digits.translate(_DIGIT_TO_BIT[k]), "big")
            bit = 1 << v
            table += [key | bit for key in table]
        planes.append(plane.to_bytes(size, "big"))
        tables.append(table)
    # Every vertex owns one bit of one group, so distinct rows are
    # distinct keys.
    if len(planes) == 1:
        table = tables[0]
        return Counter({table[b]: cnt for b, cnt in Counter(planes[0]).items()})
    return Counter({sum(map(list.__getitem__, tables, row)): cnt
                    for row, cnt in Counter(zip(*planes)).items()})


@dataclass(frozen=True)
class EmpiricalSweep:
    """Sampled counterpart of :class:`exact.ClusterSweep`.

    ``bins[key]`` counts the samples whose origin cluster, restricted to the
    union ``observed`` of the observed sets, is the vertex mask ``key``.
    Every pair's outcome and every target's connection event is a function
    of that restriction, so each is a projection of the bins.
    """

    n_samples: int
    origin: int
    observed: int
    bins: dict[int, int]

    def _check_observed(self, mask: int) -> None:
        if mask & ~self.observed:
            raise ValueError("vertex set was not observed by this sweep")

    def joint(self, pair: VertexSetPair) -> EmpiricalJoint:
        """The binned outcomes (a, b) of an observed pair."""
        plus = sum(1 << v for v in pair.v_plus)
        minus = sum(1 << v for v in pair.v_minus)
        self._check_observed(plus | minus)
        counts: Counter = Counter()
        for key, cnt in self.bins.items():
            counts[(key & plus).bit_count(), (key & minus).bit_count()] += cnt
        return EmpiricalJoint(n_samples=self.n_samples, counts=dict(counts))

    def hits(self, v: int) -> int:
        """Samples whose origin cluster contains the observed target v."""
        self._check_observed(1 << v)
        return sum(cnt for key, cnt in self.bins.items() if key >> v & 1)

    def connection(self, v: int, level: float = 0.95) -> dict:
        """The report record of the probability that v joins the origin's
        cluster, with its Wilson interval (certain at the origin itself)."""
        if v == self.origin:
            return {"estimate": 1.0, "stderr": 0.0, "ci": [1.0, 1.0]}
        hits, n = self.hits(v), self.n_samples
        lo, hi = wilson_interval(hits, n, level)
        phat = hits / n
        return {"estimate": phat, "stderr": math.sqrt(phat * (1 - phat) / n),
                "ci": [lo, hi]}

    def mean_stderr(self, statistic) -> tuple[float, float]:
        """Mean and standard error of ``statistic(key)``, a function of one
        sample's restricted cluster, over the samples."""
        return _mean_stderr(self.n_samples, (
            (statistic(key), cnt) for key, cnt in self.bins.items()))


def estimate_joint(g: Graph, observed: Observables, p, n: int,
                   seed: int, chunk_size: int | None = None,
                   threads: int = 1) -> EmpiricalSweep:
    """Bin n independent cluster samples by what the observed sets see.

    Returns the :class:`EmpiricalSweep` that every observed pair and target
    of the :class:`exact.Observables` projects from.  Chunk layout and
    threading only batch the work; sample i's cluster depends on (seed, i)
    alone, so any layout merges to the same counts.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    if threads < 1:
        raise ValueError(f"need threads >= 1, got {threads}")
    threshold = open_threshold(p)
    inc = _incidence_indexed(g)
    union = 0
    for mask in observed.masks():
        union |= mask
    size = chunk_size or _chunk_size_for(g)
    jobs = [(inc, seed, threshold, observed.origin, union,
             lo, min(lo + size, n)) for lo in range(0, n, size)]
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    bins: Counter = Counter()
    if workers > 1:
        # Imported here, as it pulls in multiprocessing, which a
        # one-process run would otherwise load at every start.
        from concurrent.futures import ProcessPoolExecutor

        # One batch of jobs per worker, so the incidence lists they share
        # are pickled once per worker and not once per chunk.
        batch = -(-len(jobs) // workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_sample_chunk, jobs, chunksize=batch):
                bins.update(part)
    else:
        for part in map(_sample_chunk, jobs):
            bins.update(part)
    return EmpiricalSweep(n_samples=n, origin=observed.origin,
                          observed=union, bins=dict(bins))


def _mean_stderr(n: int, weighted) -> tuple[float, float]:
    """Mean and standard error of an integer per-sample statistic given as
    (value, sample count) pairs."""
    total = total_sq = 0
    for x, cnt in weighted:
        total += x * cnt
        total_sq += x * x * cnt
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / (n - 1)) if n > 1 else float("inf")


# ---------------------------------------------------------------------------
# summaries of an empirical joint


def empirical_expected_sizes(emp: EmpiricalJoint,
                             level: float = 0.95) -> tuple[dict, dict]:
    """Normal-approximation records of the two expected sizes."""
    z = z_value(level)
    out = []
    for coord in (0, 1):
        mean, stderr = _mean_stderr(emp.n_samples, (
            (key[coord], cnt) for key, cnt in emp.counts.items()))
        out.append(interval(mean, stderr, z)[0])
    return out[0], out[1]


def mc_domination_verdict(emp: EmpiricalJoint,
                          level: float = 0.95) -> list[tuple[dict, str]]:
    """The (margin record, verdict) of each threshold t = 1, 2, ...

    Margins are paired differences (both indicators from the same sample),
    with a Bonferroni union bound across thresholds so the stated level
    covers all of them jointly.
    """
    max_a = max((a for (a, _) in emp.counts), default=0)
    max_b = max((b for (_, b) in emp.counts), default=0)
    t_max = max(max_a, max_b, 1)
    z = z_value(level, t_max)
    rows = []
    for t in range(1, t_max + 1):
        mean, stderr = _mean_stderr(emp.n_samples, (
            ((a >= t) - (b >= t), cnt) for (a, b), cnt in emp.counts.items()))
        rows.append(interval(mean, stderr, z))
    return rows
