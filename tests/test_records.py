"""The package's records: ``collections.namedtuple`` subclasses that check
their fields in ``__new__`` and again in ``_replace``, and a start-up that
loads no ``dataclasses``."""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from symperc import exact, mc, scenarios
from symperc.cli import to_stable_json
from symperc.exact import (BOND, Observables, enumerate_joint,
                           joint_numerators, random_cluster_law)
from symperc.graphs import GraphError, bunkbed_graph, path_graph
from symperc.groups import (FamilyPair, VertexSetPair, build_generator,
                            check_symmetry_conditions, make_pair)
from symperc.mc import EmpiricalJoint
from symperc.scenarios import ScenarioFormatError


def _records() -> dict:
    """One instance of every record, from one small bunkbed."""
    g = bunkbed_graph(path_graph(2))
    pair = make_pair(g, [0, 2], [1, 3], origin=0)
    observed = Observables(0, (pair,))
    sweep = enumerate_joint(g, observed, BOND)
    poly = sweep.joint(pair)
    sampled = mc.estimate_joint(g, observed, F(1, 2), 10, seed=0)
    sc = scenarios.load_scenario("builtin:bunkbed-path2")
    return {
        "PartitionLaw": random_cluster_law(2),
        "JointOutcomePolynomial": poly,
        "Observables": observed,
        "ClusterSweep": sweep,
        "IntegerPmf": joint_numerators(poly, F(1, 2)),
        "Graph": g,
        "VertexSetPair": pair,
        "SymmetryReport": check_symmetry_conditions(
            g, [build_generator(g, {"name": "layer_swap"})], pair),
        "FamilyPair": FamilyPair(frozenset({0}), frozenset({1})),
        "EmpiricalJoint": sampled.joint(pair),
        "EmpiricalSweep": sampled,
        "Relation": sc.relations[0],
        "Scenario": sc,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_fields_cannot_be_assigned(name):
    rec = RECORDS[name]
    for field in rec._fields:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))


def test_graph_label_index_stays_out_of_equality_hash_and_repr():
    g, fresh = bunkbed_graph(path_graph(2)), bunkbed_graph(path_graph(2))
    assert g.index_of((1, 1)) == 3 and g._axis_sizes == (2, 2)
    assert g == fresh and hash(g) == hash(fresh) and repr(g) == repr(fresh)
    assert g._replace(labels=g.labels[::-1]).index_of((1, 1)) == 0
    assert g._replace(labels=g.labels[::-1])._axis_sizes is None


_PAIR = VertexSetPair((0, 2), (1, 3), 0)
_SC = RECORDS["Scenario"]

# (a valid record, changes that break one of its checks, the error raised)
_BROKEN = [
    (BOND, dict(kind="mystery"), ValueError, "unknown law kind 'mystery'"),
    (BOND, dict(kind="random_cluster"), ValueError,
     "random_cluster law needs q > 0"),
    (random_cluster_law(2), dict(q=F(0)), ValueError,
     "random_cluster law needs q > 0"),
    (BOND, dict(q=F(2)), ValueError, "bond law takes no q"),
    (Observables(0, (_PAIR,)), dict(origin=2), ValueError,
     "every observed pair must share the origin"),
    (_PAIR, dict(v_minus=(2, 3)), GraphError,
     "v_plus and v_minus must be disjoint"),
    (_PAIR, dict(origin=1), GraphError, "origin 1 must belong to v_plus"),
    (EmpiricalJoint(3, {(1, 0): 3}), dict(n_samples=4), ValueError,
     "empirical counts do not sum to n_samples"),
    (EmpiricalJoint(3, {(1, 0): 3}), dict(counts={(0, 1): 3}), ValueError,
     "the origin's cluster always meets v_plus"),
    (_SC, dict(report="mystery"), ScenarioFormatError,
     "report must be one of scenario, bunkbed, layered, z2, hypercube; "
     "got 'mystery'"),
    (_SC, dict(report="hypercube"), ScenarioFormatError,
     "a hypercube report takes a hypercube graph with origin 0 and lists "
     "no relations"),
    (_SC, dict(mode="bogus"), ScenarioFormatError,
     "mode must be 'exact' or 'mc', got 'bogus'"),
    (_SC, dict(mode="mc", law=exact.SITE), ScenarioFormatError,
     "mc mode samples bond percolation only; this scenario uses the site "
     "law"),
    (_SC, dict(mc_n=0), ScenarioFormatError,
     "need n >= 1 Monte Carlo samples, got 0"),
    (_SC, dict(p_grid=(F(1, 3**9000),)), ScenarioFormatError,
     "p or q too long to report exactly"),
]


@pytest.mark.parametrize("record, changes, error, message", _BROKEN)
def test_replace_checks_as_the_constructor_does(record, changes, error,
                                                message):
    # the stdlib ``_replace`` builds its copy without calling ``__new__``
    with pytest.raises(error) as built:
        type(record)(**{**record._asdict(), **changes})
    with pytest.raises(error) as replaced:
        record._replace(**changes)
    assert type(built.value) is type(replaced.value) is error
    assert str(built.value) == str(replaced.value)
    assert str(built.value).startswith(message)


@pytest.mark.parametrize("report", [
    {"law": BOND},
    {"rows": [RECORDS["VertexSetPair"]]},
])
def test_a_record_in_a_report_is_not_json(report):
    # a record is a tuple, but it is no JSON array
    with pytest.raises(TypeError, match="is not JSON serializable"):
        to_stable_json(report)


# Runs in a fresh interpreter: the modules that two runs of the command
# line add to those the interpreter starts with.
_START_PROBE = """
import contextlib, io, sys
bare = set(sys.modules)
from symperc.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["check-symmetry", "--scenario",
                 "builtin:bunkbed-path2"]) == 0
    assert main(["enumerate", "--scenario", "builtin:bunkbed-cycle3"]) == 0
sampler = sys.modules["symperc.mc"]
executed = "estimate_joint" in object.__getattribute__(sampler, "__dict__")
print(sorted(set(sys.modules) - bare), executed)
"""


def test_start_up_loads_no_dataclasses_and_no_sampler():
    # dataclasses pulls in inspect, and inspect ast, dis and tokenize; the
    # site hooks of the interpreter may load some of them for everyone
    src = os.path.dirname(os.path.dirname(exact.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", _START_PROBE], env=env,
                         capture_output=True, text=True, check=True)
    added, executed = out.stdout.rsplit(" ", 1)
    assert executed.strip() == "False"
    assert "'symperc.mc'" in added
    for name in ("dataclasses", "inspect", "ast", "dis", "tokenize"):
        assert f"'{name}'" not in added, name
