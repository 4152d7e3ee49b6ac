"""Monte Carlo estimation for graphs beyond the enumeration cap.

Randomness is counter-based: the open/closed state of edge e in sample i is
a pure function of (master seed, i, e), computed by two rounds of the
splitmix64 finalizer.  That makes every estimate bit-reproducible from the
seed alone, independent of chunking, scheduling, and of whether edges are
revealed lazily during cluster growth or drawn eagerly up front.
:func:`unit_word` is the stream's definition, and the tests' eager oracle
draws from it.  The sampler computes the same words more cheaply: it hashes
the first round once per sample, keeps each edge's second-round offset in
the incidence table, and writes the second round out inline.  On a 2-core
x86-64 box with Python 3.11, at p = 1/2, that raised the sampling rate
from about 850 to 1,950 samples/s on the 20x20 torus, from 84,000 to
151,000 on the bunkbed of C5, and from 5,700 to 12,300 on Q6.

The sampler stays lazy.  Hashing every edge of a sample up front in one
big integer is faster again when clusters are large, but it pays for every
edge, so it is much slower at small p, where clusters are small.

There is one sampling loop, :func:`estimate_joint`, and like the exact
engine it makes one pass per (graph, origin, p) for every observed pair and
connection target.  Each sample is keyed by its origin cluster restricted
to the union of the observed sets; every outcome (a, b) and every
connection event is a function of that restriction.  Because sample i is
the same cluster whichever sets are observed, a projection of the shared
pass gives exactly the counts a separate pass per pair or target would.
It is also the only way in: a connection estimate is the projection
``connection(v, level)`` of a pass that observes the target, and every
sampled mean other than a proportion takes its standard error from one
formula, :func:`_mean_stderr`.

Verdicts about the domination margins are deliberately three-valued:
sampling cannot prove the inequality, so the vocabulary is CONSISTENT,
VIOLATION, or INCONCLUSIVE rather than a boolean.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist

from .exact import Observables
from .graphs import Graph
from .groups import VertexSetPair
from .rationals import parse_fraction

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
INCONCLUSIVE = "INCONCLUSIVE"
_SEVERITY = {CONSISTENT: 0, INCONCLUSIVE: 1, VIOLATION: 2}

# A margin lives in [-1, 1]; intervals wider than this resolve nothing.
MAX_INFORMATIVE_HALF_WIDTH = 0.25

_ALLOWED_LEVELS = (0.95, 0.99)

# Samples per scheduled chunk.  The layout only affects batching; results
# are a function of the seed and the sample count alone.
DEFAULT_CHUNK_SIZE = 1 << 14


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
class McEstimate:
    n_samples: int
    estimate: float
    stderr: float
    level: float
    lo: float
    hi: float

    def to_json_dict(self, quantity: str, seed: int) -> dict:
        return {
            "quantity": quantity,
            "n": self.n_samples,
            "estimate": self.estimate,
            "stderr": self.stderr,
            "ci": [self.lo, self.hi],
            "level": self.level,
            "seed": seed,
        }


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


def _z_value(level: float) -> float:
    if level not in _ALLOWED_LEVELS:
        raise ValueError(f"interval level must be one of {_ALLOWED_LEVELS}")
    return NormalDist().inv_cdf((1 + level) / 2)


def wilson_interval(hits: int, n: int, level: float) -> tuple[float, float]:
    """Wilson score interval for a Bernoulli proportion."""
    z = _z_value(level)
    phat = hits / n
    denom = 1 + z * z / n
    center = (phat + z * z / (2 * n)) / denom
    half = z * math.sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


# ---------------------------------------------------------------------------
# cluster sampling


def _incidence_indexed(g: Graph) -> list[tuple[tuple[int, int, int], ...]]:
    """Per vertex x, one (w, 1 << w, (e + 1) * GOLDEN mod 2^64) entry for
    each edge e = xw: the neighbour, its bit, and the edge's offset in
    :func:`unit_word`'s second round."""
    inc: list[list[tuple[int, int, int]]] = [[] for _ in range(g.n_vertices)]
    for idx, (u, v) in enumerate(g.edges):
        step = ((idx + 1) * _GOLDEN) & _MASK64
        inc[u].append((v, 1 << v, step))
        inc[v].append((u, 1 << u, step))
    return [tuple(x) for x in inc]


def _sample_cluster_mask(inc, seed: int, sample_index: int, threshold: int,
                         o: int) -> int:
    """Grow the origin's cluster, revealing each edge's state on first
    contact only (the state is a pure function of the counter, so revealing
    order cannot matter).

    Edge e is open iff ``unit_word(seed, sample_index, e) < threshold``.
    The sample's first round ``h`` is hashed once, and the edge's round is
    :func:`_mix64` written out inline: this loop is the sampler's cost.
    """
    mask = _MASK64
    h = _mix64(seed + (sample_index + 1) * _GOLDEN)
    seen = 1 << o
    stack = [o]
    pop, push = stack.pop, stack.append
    while stack:
        for w, wbit, step in inc[pop()]:
            if seen & wbit:
                continue
            z = (h + step) & mask
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            if z ^ (z >> 31) < threshold:
                seen |= wbit
                push(w)
    return seen


def sample_cluster(g: Graph, o: int, p, seed: int,
                   sample_index: int = 0) -> tuple[int, ...]:
    """The origin's cluster for one sample of the edge process."""
    threshold = open_threshold(p)
    inc = _incidence_indexed(g)
    mask = _sample_cluster_mask(inc, seed, sample_index, threshold, o)
    return tuple(v for v in range(g.n_vertices) if mask >> v & 1)


def _sample_chunk(args) -> Counter:
    inc, seed, threshold, o, observed, lo, hi = args
    return Counter(_sample_cluster_mask(inc, seed, i, threshold, o) & observed
                   for i in range(lo, hi))


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

    def connection(self, v: int, level: float = 0.95) -> McEstimate:
        """Wilson-interval estimate of the probability that v joins the
        origin's cluster (certain at the origin itself)."""
        if v == self.origin:
            return McEstimate(self.n_samples, 1.0, 0.0, level, 1.0, 1.0)
        return _proportion(self.hits(v), self.n_samples, level)

    def mean_stderr(self, statistic) -> tuple[float, float]:
        """Mean and standard error of ``statistic(key)``, a function of one
        sample's restricted cluster, over the samples."""
        return _mean_stderr(self.n_samples, (
            (statistic(key), cnt) for key, cnt in self.bins.items()))


def estimate_joint(g: Graph, pair: VertexSetPair | Observables, p, n: int,
                   seed: int, chunk_size: int | None = None,
                   threads: int = 1) -> EmpiricalJoint | EmpiricalSweep:
    """Bin n independent cluster samples by what the observed sets see.

    Given a pair, returns its :class:`EmpiricalJoint`; given
    :class:`exact.Observables`, returns the :class:`EmpiricalSweep` that
    every observed pair and target projects from.  Chunk layout and
    threading only batch the work; sample i's cluster depends on (seed, i)
    alone, so any layout merges to the same counts.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 samples, got {n}")
    observed = pair if isinstance(pair, Observables) else Observables(
        pair.origin, (pair,))
    threshold = open_threshold(p)
    inc = _incidence_indexed(g)
    union = 0
    for mask in observed.masks():
        union |= mask
    size = chunk_size or DEFAULT_CHUNK_SIZE
    jobs = [(inc, seed, threshold, observed.origin, union,
             lo, min(lo + size, n)) for lo in range(0, n, size)]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(_sample_chunk, jobs))
    else:
        parts = [_sample_chunk(job) for job in jobs]
    sweep = EmpiricalSweep(n_samples=n, origin=observed.origin,
                           observed=union, bins=dict(sum(parts, Counter())))
    return sweep if observed is pair else sweep.joint(pair)


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


def interval_verdict(mean: float, half: float) -> str:
    """Verdict on "the quantity is >= 0" from an interval mean +/- half: a
    VIOLATION when it lies entirely below zero; otherwise CONSISTENT when it
    is narrow enough to be informative and INCONCLUSIVE when it is not."""
    if mean + half < 0:
        return VIOLATION
    return CONSISTENT if half <= MAX_INFORMATIVE_HALF_WIDTH else INCONCLUSIVE


def _proportion(hits: int, n: int, level: float) -> McEstimate:
    """Wilson-interval estimate of a Bernoulli proportion."""
    lo, hi = wilson_interval(hits, n, level)
    phat = hits / n
    return McEstimate(n, phat, math.sqrt(phat * (1 - phat) / n), level, lo, hi)


# ---------------------------------------------------------------------------
# summaries of an empirical joint


def empirical_expected_sizes(emp: EmpiricalJoint,
                             level: float = 0.95) -> tuple[McEstimate, McEstimate]:
    """Normal-approximation estimates of the two expected sizes."""
    z = _z_value(level)
    out = []
    for coord in (0, 1):
        mean, stderr = _mean_stderr(emp.n_samples, (
            (key[coord], cnt) for key, cnt in emp.counts.items()))
        out.append(McEstimate(emp.n_samples, mean, stderr, level,
                              mean - z * stderr, mean + z * stderr))
    return out[0], out[1]


@dataclass(frozen=True)
class ThresholdVerdict:
    threshold: int
    margin: float
    lo: float
    hi: float
    verdict: str


@dataclass(frozen=True)
class DominationVerdict:
    rows: tuple[ThresholdVerdict, ...]
    level: float
    overall: str

    def to_json_dict(self) -> dict:
        return {
            "level": self.level,
            "overall": self.overall,
            "thresholds": [
                {"t": r.threshold, "margin": r.margin, "ci": [r.lo, r.hi],
                 "verdict": r.verdict}
                for r in self.rows
            ],
        }


def mc_domination_verdict(emp: EmpiricalJoint,
                          level: float = 0.95) -> DominationVerdict:
    """Per-threshold :func:`interval_verdict` on the tail margins.

    Margins are paired differences (both indicators from the same sample),
    with a Bonferroni union bound across thresholds so the stated level
    covers all of them jointly.
    """
    _z_value(level)
    n = emp.n_samples
    max_a = max((a for (a, _) in emp.counts), default=0)
    max_b = max((b for (_, b) in emp.counts), default=0)
    t_max = max(max_a, max_b, 1)
    alpha = (1 - level) / t_max
    z = NormalDist().inv_cdf(1 - alpha / 2)

    rows = []
    for t in range(1, t_max + 1):
        mean, stderr = _mean_stderr(n, (
            ((a >= t) - (b >= t), cnt) for (a, b), cnt in emp.counts.items()))
        half = z * stderr
        rows.append(ThresholdVerdict(t, mean, mean - half, mean + half,
                                     interval_verdict(mean, half)))
    overall = max((r.verdict for r in rows), key=_SEVERITY.__getitem__)
    return DominationVerdict(rows=tuple(rows), level=level, overall=overall)
