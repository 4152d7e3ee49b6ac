import random

import pytest
from _oracles import (
    DEFAULT_CLOSURE_CAP,
    ClosureCapExceeded,
    PermGroup,
    element_battery,
    exhaustive_symmetry_report,
    generate_group,
    orbit,
    pair_orbit,
    split_cases,
    split_group,
    stabilizer_orbit,
    symmetry_cases,
    verify_double_counting,
    verify_orbit_product,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from symperc import groups, scenarios
from symperc.graphs import (
    bunkbed_graph,
    complete_graph,
    cycle_graph,
    hypercube_graph,
    path_graph,
)
from symperc.groups import (
    FamilyPair,
    GroupError,
    NonAutomorphismElement,
    NoSwapper,
    check_symmetry_conditions,
    compose,
    identity_perm,
    invert,
    is_automorphism,
    make_pair,
)

ROT4 = (1, 2, 3, 0)        # i -> i+1 mod 4
REFL4 = (0, 3, 2, 1)       # i -> -i mod 4


def d4():
    return generate_group([ROT4, REFL4])


def bunkbed_c3_group():
    g = bunkbed_graph(cycle_graph(3))
    gens = [
        groups.lift_first_factor((1, 2, 0), 2),
        groups.lift_first_factor((0, 2, 1), 2),
        groups.layer_swap(g),
    ]
    return g, generate_group(gens)


def test_compose_convention():
    # (g o h)(x) = g(h(x))
    g = (1, 0, 2)
    h = (2, 1, 0)
    assert compose(g, h) == (2, 0, 1)
    assert compose(h, g) == (1, 2, 0)
    assert compose(g, invert(g)) == identity_perm(3)


def test_is_automorphism():
    c4 = cycle_graph(4)
    assert is_automorphism(c4, identity_perm(4))
    assert is_automorphism(c4, ROT4)
    p3 = path_graph(3)
    # swapping an endpoint with the middle breaks the edge set
    assert not is_automorphism(p3, (1, 0, 2))
    with pytest.raises(GroupError):
        is_automorphism(c4, (0, 1))


def test_generate_group_orders():
    assert generate_group([], n_points=5).order == 1
    assert generate_group([ROT4]).order == 4
    assert d4().order == 8  # dihedral group of the square


def test_generate_group_deterministic_and_closed():
    grp = d4()
    again = generate_group([ROT4, REFL4])
    assert grp.elements == again.elements
    assert grp.elements[0] == identity_perm(4)
    elems = set(grp.elements)
    for e in grp.elements:
        assert invert(e) in elems
        for f in grp.elements:
            assert compose(e, f) in elems


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        generate_group([ROT4, REFL4], cap=5)


def test_orbits():
    assert orbit(generate_group([], n_points=4), 2) == (2,)
    assert orbit(d4(), 0) == (0, 1, 2, 3)
    refl_fixing_0 = generate_group([REFL4])
    assert orbit(refl_fixing_0, 1) == (1, 3)


def test_stabilizer_orbit():
    grp = d4()
    assert stabilizer_orbit(grp, 0, 1) == (1, 3)
    assert stabilizer_orbit(grp, 2, 2) == (2,)
    trivial = generate_group([], n_points=4)
    assert stabilizer_orbit(trivial, 0, 3) == (3,)


def test_orbit_product_identity_examples():
    trivial = generate_group([], n_points=4)
    assert verify_orbit_product(trivial, 0, 1) == (1, 1)
    lhs, rhs = verify_orbit_product(d4(), 0, 1)
    assert (lhs, rhs) == (8, 8)
    cyclic = generate_group([ROT4])
    assert verify_orbit_product(cyclic, 0, 1) == (4, 4)


def test_orbit_product_identity_exhaustive():
    g, grp = bunkbed_c3_group()
    for x in range(g.n_vertices):
        for y in range(g.n_vertices):
            lhs, rhs = verify_orbit_product(grp, x, y)
            assert lhs == rhs


def test_symmetry_conditions_bunkbed_c3():
    g, grp = bunkbed_c3_group()
    assert grp.order == 12
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    report = check_symmetry_conditions(g, grp.generators, pair)
    assert report.ok
    assert report.set_preserving and report.transitive
    assert report.stabilizer_symmetric
    block = groups.chain_conditions(g, grp.generators, pair)
    assert block == {**report.to_json_dict(), "swap_transitive": True,
                     "sets_finite": True, "group_order": 12}


def test_symmetry_conditions_trivial_group():
    g, _ = bunkbed_c3_group()
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    report = check_symmetry_conditions(g, [], pair)
    assert report.set_preserving
    assert not report.transitive
    assert not report.ok


def test_symmetry_conditions_four_cycle_as_bunkbed():
    # bunkbed(path(2)): layers {0, 2} and {1, 3}, both of size 2
    g = bunkbed_graph(path_graph(2))
    gens = [groups.lift_first_factor((1, 0), 2), groups.layer_swap(g)]
    grp = generate_group(gens)
    pair = make_pair(g, [0, 2], [1, 3], origin=0)
    report = check_symmetry_conditions(g, gens, pair)
    assert report.ok
    for v in pair.v_plus:
        for w in pair.v_minus:
            assert len(stabilizer_orbit(grp, v, w)) == len(
                stabilizer_orbit(grp, w, v))


def test_symmetry_rejects_non_automorphism():
    g = path_graph(3)
    pair = make_pair(g, [0], [2], origin=0)
    with pytest.raises(NonAutomorphismElement):
        check_symmetry_conditions(g, [(1, 0, 2)], pair)
    with pytest.raises(NonAutomorphismElement):
        groups.chain_conditions(g, [(1, 0, 2)], pair)
    # the message names the generator's position and one edge it breaks
    with pytest.raises(NonAutomorphismElement, match=(
            r"^generator 1 is not an automorphism: it maps the edge \(1, 2\) "
            r"to \(0, 2\), which is no edge$")):
        check_symmetry_conditions(g, [(2, 1, 0), (1, 0, 2)], pair)


def test_split_group():
    g, grp = bunkbed_c3_group()
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    split = split_group(grp, pair)
    assert len(split.preservers) == 6
    assert len(split.swappers) == 6
    # swappers = swap o preservers, elementwise as a set
    assert set(split.swappers) == {
        compose(split.swap, e) for e in split.preservers}


def test_split_group_no_swapper():
    g = cycle_graph(4)
    grp = generate_group([], n_points=4)
    pair = make_pair(g, [0, 1, 2, 3], [], origin=0)
    with pytest.raises(NoSwapper):
        split_group(grp, pair)


def test_double_counting_translation_example():
    # cyclic translations acting on Z4 twice; pair ({0}, {0, 1})
    elements = generate_group([ROT4]).elements
    fp = FamilyPair(frozenset({0}), frozenset({0, 1}))
    lhs, rhs = verify_double_counting(elements, fp, 0, 0)
    assert lhs == rhs == 2
    members = pair_orbit(elements, fp)
    assert len(members) == 4
    assert sum(1 for first, _ in members if 0 in first) == 1
    assert sum(1 for _, second in members if 0 in second) == 2


def test_double_counting_degenerate_and_singletons():
    elements = generate_group([ROT4]).elements
    empty = FamilyPair(frozenset(), frozenset({1, 2}))
    assert verify_double_counting(elements, empty, 0, 0) == (0, 0)

    g, grp = bunkbed_c3_group()
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    split = split_group(grp, pair)
    sub = PermGroup(n_points=g.n_vertices, generators=(),
                    elements=split.preservers)
    for x in pair.v_plus:
        for y in pair.v_minus:
            singles = FamilyPair(frozenset({x}), frozenset({y}))
            lhs, rhs = verify_double_counting(split.preservers, singles, x, y)
            assert lhs == len(stabilizer_orbit(sub, x, y))
            assert rhs == len(stabilizer_orbit(sub, y, x))
            assert lhs == rhs


@pytest.mark.parametrize("seed", [7, 11])
def test_double_counting_random_pairs(seed):
    g, grp = bunkbed_c3_group()
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    split = split_group(grp, pair)
    fps = groups.random_family_pairs(pair.v_plus, pair.v_minus,
                                     trials=100, seed=seed)
    assert len(fps) == 100
    for fp in fps:
        lhs, rhs = verify_double_counting(split.preservers, fp, 0, 1)
        assert lhs == rhs


def test_swapper_implies_stabilizer_symmetry():
    # wherever some element exchanges x and y, the two stabilizer orbits
    # have equal size
    g, grp = bunkbed_c3_group()
    found = 0
    for x in range(g.n_vertices):
        for y in range(g.n_vertices):
            if any(e[x] == y and e[y] == x for e in grp.elements):
                found += 1
                assert len(stabilizer_orbit(grp, x, y)) == len(
                    stabilizer_orbit(grp, y, x))
    assert found > 0


def test_equal_size_transitive_sets_have_symmetric_stabilizers():
    # transitive action on two equal-size finite sets forces the equality
    cases = []
    g4 = bunkbed_graph(path_graph(2))
    gens = [groups.lift_first_factor((1, 0), 2), groups.layer_swap(g4)]
    cases.append((generate_group(gens), (0, 2), (1, 3)))
    g6, grp6 = bunkbed_c3_group()
    split = split_group(grp6, make_pair(g6, [0, 2, 4], [1, 3, 5], 0))
    sub = PermGroup(n_points=6, generators=(),
                    elements=split.preservers)
    cases.append((sub, (0, 2, 4), (1, 3, 5)))
    for grp, plus, minus in cases:
        for v in plus:
            assert set(orbit(grp, v)) >= set(plus)
        for v in plus:
            for w in minus:
                assert len(stabilizer_orbit(grp, v, w)) == len(
                    stabilizer_orbit(grp, w, v))


def test_pair_orbits_coincide_or_are_disjoint():
    g, grp = bunkbed_c3_group()
    pair = make_pair(g, [0, 2, 4], [1, 3, 5], origin=0)
    split = split_group(grp, pair)
    rng = random.Random(3)
    all_pairs = groups.random_family_pairs(pair.v_plus, pair.v_minus,
                                           trials=20, seed=5)
    for fp in all_pairs:
        members = pair_orbit(split.preservers, fp)
        probe = rng.choice(sorted(members, key=str))
        probe_fp = FamilyPair(probe[0], probe[1])
        assert pair_orbit(split.preservers, probe_fp) == members
        assert (frozenset(fp.a_plus), frozenset(fp.a_minus)) in members


def test_generator_builders_are_automorphisms():
    from symperc.graphs import torus_graph

    t = torus_graph(4, 4)
    for perm in (
        groups.axis_rotation(t, 0),
        groups.axis_rotation(t, 1, step=3),
        groups.axis_reflection(t, 0, center2=1),
        groups.swap_axes(t, 0, 1),
    ):
        assert is_automorphism(t, perm)
    bb = bunkbed_graph(cycle_graph(5))
    assert is_automorphism(bb, groups.layer_swap(bb))
    assert is_automorphism(
        bb, groups.lift_first_factor((1, 2, 3, 4, 0), 2))


def _report_or_error(check, *args):
    try:
        return check(*args)
    except GroupError as exc:
        return type(exc), str(exc)


# The fields of check-symmetry's conditions block that only a stabilizer
# chain gives; the pipeline's block leaves them out.
_CHAIN_FIELDS = ("swap_transitive", "sets_finite", "group_order")


def _assert_blocks_equal_the_oracle(g, gens, pair):
    """The pipeline's report and check-symmetry's block both equal the
    exhaustive oracle: every field, notes included, or the oracle's error
    with the oracle's text."""
    grp = generate_group(gens, n_points=g.n_vertices)
    want = _report_or_error(exhaustive_symmetry_report, g, grp, pair)
    assert _report_or_error(groups.chain_conditions, g, gens, pair) == want
    if isinstance(want, dict):
        want = {key: value for key, value in want.items()
                if key not in _CHAIN_FIELDS}
    assert _report_or_error(lambda *args: check_symmetry_conditions(
        *args).to_json_dict(), g, gens, pair) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetry_cases())
def test_symmetry_report_equals_the_exhaustive_oracle(case):
    # a non-automorphism generator must raise the oracle's error
    _assert_blocks_equal_the_oracle(*case)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(split_cases())
def test_transitivity_implies_stabilizer_symmetry_in_the_oracle(case):
    # condition 3 follows from condition 2: when one orbit covers the
    # union, |Stab(v)·w| = |Stab(v)|/|Stab(v) ∩ Stab(w)| = |Stab(w)·v|
    g, gens, pair = case
    block = exhaustive_symmetry_report(
        g, generate_group(gens, n_points=g.n_vertices), pair)
    assert block["stabilizer_symmetric"] or not block["transitive"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(symmetry_cases(), split_cases()), st.integers(0, 20),
       st.integers(0, 2**16))
def test_group_battery_equals_the_element_oracle_on_drawn_groups(
        case, trials, seed):
    # every report field, or the oracle's error with the oracle's text
    args = (*case, trials, seed)
    assert _report_or_error(scenarios._group_battery, *args) == (
        _report_or_error(element_battery, *args))


def constructor_scenarios() -> dict:
    """Every builtin and a spread of constructor runs, by name."""
    cases = {f"builtin:{name}": scenarios.load_scenario(f"builtin:{name}")
             for name in sorted(scenarios.BUILTINS)}
    for size in (3, 5):
        cases[f"z2:{size}"] = scenarios.z2_scenario(size, mode="mc")
    for base in ("path:2", "path:3", "cycle:4", "cycle:6", "complete:4",
                 "hypercube:2"):
        builder, n = base.split(":")
        key = "d" if builder == "hypercube" else "n"
        cases[f"bunkbed:{base}"] = scenarios.bunkbed_scenario(
            {"builder": builder, key: int(n)})
    for m, choice, k, period in ((6, "a", 2, None), (8, "b", 1, 4),
                                 (8, "c", 1, 2), (6, "b", 2, 3)):
        cases[f"layered:{m}{choice}{k}"] = scenarios.layered_scenario(
            {"builder": "cycle", "n": 3}, m, choice, k, period, mode="mc")
    for d in range(1, 5):
        cases[f"hypercube:{d}"] = scenarios.hypercube_scenario(d, cap_bits=32)
    return cases


def _constructor_cases():
    out = []
    for name, sc in constructor_scenarios().items():
        g = scenarios.build_graph(sc.graph_spec)
        if sc.report != "hypercube":
            out += [pytest.param(g, gens, pair, id=f"{name}{rel.name and ':'}"
                                 f"{rel.name}")
                    for rel, pair, gens in scenarios._parsed_pairs(sc, g)]
            continue
        # the cube report derives its relations
        walk = scenarios._hypercube_walk(sc.graph_spec["d"])
        relations = [scenarios._hypercube_relation(g, *entry) for entry in walk]
        out += [pytest.param(g, gens, pair, id=f"{name}:{k}{l}{construction}")
                for (k, l, construction), (_, pair, gens)
                in zip(walk, scenarios._parsed_pairs(sc, g, relations),
                       strict=True)]
    return out


@pytest.mark.parametrize("g, gens, pair", _constructor_cases())
def test_symmetry_report_equals_the_oracle_on_every_report(g, gens, pair):
    _assert_blocks_equal_the_oracle(g, gens, pair)


@pytest.mark.parametrize("g, gens, pair", _constructor_cases())
def test_group_battery_equals_the_element_oracle_on_every_report(g, gens,
                                                                 pair):
    args = (g, gens, pair, 20, 1)
    assert _report_or_error(scenarios._group_battery, *args) == (
        _report_or_error(element_battery, *args))


def test_group_past_the_closure_cap_is_checked_without_closing_it():
    # K_10 under <(0 1), (0 1 ... 9)>: the full symmetric group, 10! elements
    g = complete_graph(10)
    gens = [(1, 0) + tuple(range(2, 10)), tuple(range(1, 10)) + (0,)]
    assert 3_628_800 > DEFAULT_CLOSURE_CAP
    pair = make_pair(g, [0, 1, 2, 3, 4], [5, 6, 7, 8, 9], origin=0)
    report = check_symmetry_conditions(g, gens, pair)
    # a transposition across the sets splits them; every cross pair swaps
    assert report == groups.SymmetryReport(
        set_preserving=False, transitive=True, stabilizer_symmetric=True,
        notes=("an element maps a set off the pair {v_plus, v_minus}",))
    assert groups.chain_conditions(g, gens, pair) == report.to_json_dict(
        swap_transitive=True, sets_finite=True, group_order=3_628_800)


@pytest.mark.parametrize("n, v_plus, v_minus, bases", [
    (5, [1], [3], [(1,)]),
    (7, [1, 2], [5, 4], [(1,), (2,)]),
])
def test_chains_are_based_in_the_orbits_they_read(n, v_plus, v_minus, bases,
                                                  monkeypatch):
    # the path's reflection first moves 0, whose orbit the union misses:
    # each orbit of the union gets a chain based at its least point
    g = path_graph(n)
    gens = [tuple(reversed(range(n)))]
    pair = make_pair(g, v_plus, v_minus, origin=v_plus[0])
    based, real = [], groups._schreier_sims

    def spy(gens, n, base=(), order=None):
        based.append(tuple(base))
        return real(gens, n, base, order)

    monkeypatch.setattr(groups, "_schreier_sims", spy)
    _assert_blocks_equal_the_oracle(g, gens, pair)
    assert based == bases
    args = (g, gens, pair, 20, 1)
    assert _report_or_error(scenarios._group_battery, *args) == (
        _report_or_error(element_battery, *args))


def test_named_groups_are_the_hand_built_actions():
    g, grp = bunkbed_c3_group()
    assert scenarios._named_group("bunkbed-c3") == (
        g, list(grp.generators), make_pair(g, [0, 2, 4], [1, 3, 5], origin=0))
    c4 = cycle_graph(4)
    assert scenarios._named_group("d4-on-c4") == (
        c4, [ROT4, REFL4], make_pair(c4, [0, 2], [1, 3], origin=0))


@pytest.mark.parametrize("p, fault", [
    ([0, 0, 1, 2], "entry 1 is 0, repeated"),
    ([0, 1, 7, 0], "entry 2 is 7, out of range"),
    ([-1, 1, 2, 3], "entry 0 is -1, out of range"),
    ([0, 1, 2], "3 entries"),
    ([0, 1, 2, 3, 4], "5 entries"),
])
def test_a_non_permutation_is_named_by_its_first_fault(p, fault):
    with pytest.raises(GroupError) as exc:
        groups._check_perm(p, 4)
    assert str(exc.value) == f"not a permutation of 0..3: {fault}"


def test_coord_permutation_and_base_perm_specs():
    g = hypercube_graph(3)
    # new[i] = old[sigma[i]]: (a, b, c) -> (c, a, b)
    perm = groups.build_generator(
        g, {"name": "coord_permutation", "sigma": [2, 0, 1]})
    assert [g.labels[perm[v]] for v in range(g.n_vertices)] == [
        (c, a, b) for a, b, c in g.labels]
    # a base_perm of 2 vertices lifts over the two trailing axes
    perm = groups.build_generator(g, {"name": "base_perm", "perm": [1, 0]})
    assert perm == groups.axis_reflection(g, 0, center2=1)
    for bad in ([0, 1, 2], [0, 2, 1, 3, 5, 4, 7, 6, 8]):
        with pytest.raises(GroupError, match="base_perm length does not "
                           "match the product"):
            groups.build_generator(g, {"name": "base_perm", "perm": bad})


def test_fixed_points_share_one_id_table():
    # a fixed point's stabilizer is the whole group, so the points that
    # (0 1) fixes read one table of n ids between them, not one each
    n = 50
    gens = [(1, 0) + tuple(range(2, n))]
    reps = groups._orbit_reps(gens, n)
    orbital, sizes, order = groups._orbitals(gens, n, reps)
    assert [sizes[orbital(2, w)] for w in range(4)] == [2, 2, 1, 1]
    assert [sizes[orbital(0, w)] for w in range(4)] == [1, 1, 1, 1]
    for v in range(n):
        orbital(v, 0)
    assert order() == 2 and sum(sizes.values()) == 2 * n
