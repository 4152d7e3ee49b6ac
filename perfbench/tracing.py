"""Span tracing from outside the program.

The tracer wraps public functions at the name each caller looks up, so no
file under ``src/`` changes:

* ``symperc.scenarios`` reaches ``exact``, ``graphs``, ``groups`` and ``mc``
  through module attributes; each is swapped for a proxy module whose
  public functions are wrapped.  Calls the layers make among themselves stay
  unwrapped, so a layer's span covers everything it does for its caller.
* ``scenarios`` imports ``build_graph`` by name; that name is wrapped too.
* ``symperc.cli`` reaches the reports through ``scenarios.<fn>`` (proxied)
  and calls ``write_outputs`` and ``to_stable_json`` by global name.

A span records name, start, end and parent.  Self time is a span's duration
minus that of its children, so the self times of all spans add up to the
duration of the root spans, one ``cli.main`` per op.
"""

from __future__ import annotations

import contextlib
import inspect
import time
import types
from collections import defaultdict

# Function-name buckets of the per-layer metrics.
SWEEPS = ("exact.enumerate_joint", "exact.connection_counts")
EVALS = ("exact.eval_joint", "exact.eval_counts")
CHECKS = ("exact.expected_sizes", "exact.check_domination",
          "exact.check_partition_identity", "exact.check_ratio_identity")
SAMPLERS = ("mc.estimate_joint", "mc.estimate_connection")
SUMMARIES = ("mc.empirical_expected_sizes", "mc.mc_domination_verdict")
REPORTS = ("scenarios.run_scenario", "scenarios.check_symmetry_report",
           "scenarios.verify_identity_report",
           "scenarios.group_theorem_battery",
           "scenarios.hypercube_inequality_report",
           "scenarios.z2_relation_report", "scenarios.bunkbed_report",
           "scenarios.layered_report")
OUTPUT = ("cli.write_outputs", "cli.to_stable_json")
LAYERS = ("graphs", "groups", "exact", "mc", "scenarios", "cli")
_LAW_TAG = {"bond": "bond", "site": "site", "random_cluster": "rc"}


class Tracer:
    """In-memory spans plus counters taken from arguments and returns."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)  # by span name
        self.slice_s: dict[str, float] = defaultdict(float)  # by law, by op
        self.counts: dict[str, float] = defaultdict(float)
        self.label = ""  # the current op's name in per-op MC rates
        self._stack: list[list] = []  # [span index, children's duration]
        self._signatures: dict = {}

    def call(self, name, fn, args, kwargs):
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)
            own = end - start - frame[1]
            self.self_s[name] += own
            if self._stack:
                self._stack[-1][1] += end - start
        hook = _HOOKS.get(name)
        if hook is not None:
            sig = self._signatures.get(fn)
            if sig is None:
                sig = self._signatures[fn] = inspect.signature(fn)
            hook(self, sig.bind(*args, **kwargs).arguments, result, own)
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _proxy(self, module, layer):
        proxy = types.ModuleType(module.__name__)
        proxy.__dict__.update(vars(module))
        for attr, obj in vars(module).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == module.__name__):
                setattr(proxy, attr, self.wrap(f"{layer}.{attr}", obj))
        return proxy

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced names in, and restore the originals on exit."""
        from symperc import cli, exact, graphs, groups, mc, scenarios

        patches = [
            (scenarios, "exact", self._proxy(exact, "exact")),
            (scenarios, "graphs", self._proxy(graphs, "graphs")),
            (scenarios, "groups", self._proxy(groups, "groups")),
            (scenarios, "mc", self._proxy(mc, "mc")),
            (scenarios, "build_graph",
             self.wrap("graphs.build_graph", graphs.build_graph)),
            (cli, "scenarios", self._proxy(scenarios, "scenarios")),
            (cli, "write_outputs",
             self.wrap("cli.write_outputs", cli.write_outputs)),
            (cli, "to_stable_json",
             self.wrap("cli.to_stable_json", cli.to_stable_json)),
        ]
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            out[name.split(".", 1)[0]] += secs
        return out

    def root_s(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent < 0)


# Counters: each hook sees the bound arguments, the return value and the
# span's self time.

def _enumerate(tr, args, poly, own):
    tag = _LAW_TAG[poly.law.kind]
    tr.counts["exact.sweeps"] += 1
    tr.counts["exact.configs"] += poly.total_configs()
    tr.counts["exact.outcomes"] += len(poly.counts)
    tr.counts[f"exact.{tag}.configs"] += poly.total_configs()
    tr.slice_s[f"law.{tag}"] += own


def _connection(tr, args, counts, own):
    configs = 1 << args["g"].n_edges
    tr.counts["exact.sweeps"] += 1
    tr.counts["exact.configs"] += configs
    tr.counts["exact.connection.configs"] += configs
    tr.slice_s["law.connection"] += own


def _sampler(tr, args, result, own):
    tr.counts["mc.passes"] += 1
    tr.counts["mc.cluster_growths"] += args["n"]
    if tr.label:
        tr.counts[f"mc.{tr.label}.samples"] += args["n"]
        tr.slice_s[f"op.{tr.label}"] += own


def _counter(key):
    def hook(tr, args, result, own):
        tr.counts[key] += 1
    return hook


def _closure(tr, args, grp, own):
    tr.counts["groups.closure_elements"] += grp.order


def _json_bytes(tr, args, text, own):
    tr.counts["cli.json_bytes"] += len(text.encode())


_HOOKS = {
    "exact.enumerate_joint": _enumerate,
    "exact.connection_counts": _connection,
    "mc.estimate_joint": _sampler,
    "mc.estimate_connection": _sampler,
    "groups.generate_group": _closure,
    "groups.check_symmetry_conditions": _counter("groups.symmetry_checks"),
    "cli.to_stable_json": _json_bytes,
    **{name: _counter("exact.evals") for name in EVALS},
    **{name: _counter("exact.checks") for name in CHECKS},
    **{name: _counter("scenarios.reports") for name in REPORTS},
}
