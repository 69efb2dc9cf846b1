from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

import hublab as hl
from hublab import families

from bruteforce import exact_mds_reference, gen_random_directed, optimal_hl_bnb_reference
from bruteforce import optimal_hl_milp, random_center_graph, with_zero_arcs
from conftest import edge2, path_graph, seeded_graphs, star_graph, triangle


def test_optimal_hhl_c4_and_single_vertex():
    d = hl.all_pairs_distances(families.gen_cycle4(False))
    size, order = hl.optimal_hhl_bruteforce(d)
    assert size == 9
    assert hl.canonical_hhl(d, order).size == 9
    d1 = hl.all_pairs_distances(hl.Graph(False, 1, []))
    assert hl.optimal_hhl_bruteforce(d1)[0] == 1


def test_optimal_hhl_bad_g_k2_equals_b_first_canonical():
    g = families.gen_bad_g(2)  # n = 11 by the family formula
    ids = families.bad_g_ids(2)
    d = hl.all_pairs_distances(g)
    size, order = hl.optimal_hhl_bruteforce(d, limit_n=11)
    bfirst = hl.canonical_hhl(
        d, hl.Order.from_sequence(list(ids.b) + list(ids.a) + list(ids.c))
    )
    assert size == bfirst.size == 34
    assert hl.canonical_hhl(d, order).size == size


def test_optimal_hhl_too_large():
    d = hl.all_pairs_distances(families.gen_bad_w(2))
    with pytest.raises(hl.TooLargeError):
        hl.optimal_hhl_bruteforce(d)
    # the subset DP has a ceiling of 20 vertices whatever limit_n says
    d21 = hl.all_pairs_distances(path_graph(20))
    with pytest.raises(hl.TooLargeError, match="exceeds limit 20"):
        hl.optimal_hhl_bruteforce(d21, limit_n=5000)


@pytest.mark.parametrize("seed", range(4))
def test_optimal_hhl_matches_permutation_enumeration(seed):
    n = 4 + seed % 2
    g = families.gen_random(n, min(n * (n - 1) // 2, n + 1), 2, 14000 + seed)
    d = hl.all_pairs_distances(g)
    size, _ = hl.optimal_hhl_bruteforce(d)
    best = min(
        hl.canonical_hhl(d, hl.Order.from_sequence(perm)).size
        for perm in itertools.permutations(range(n))
    )
    assert size == best


def test_optimal_hl_examples():
    assert hl.optimal_hl_bnb(hl.all_pairs_distances(edge2())).upper == 3
    c4 = hl.all_pairs_distances(families.gen_cycle4(False))
    res = hl.optimal_hl_bnb(c4)
    assert (res.lower, res.upper, res.complete) == (9, 9, True)
    c4p = hl.all_pairs_distances(families.gen_cycle4(True))
    resp = hl.optimal_hl_bnb(c4p)
    assert (resp.lower, resp.upper, resp.complete) == (16, 16, True)
    assert hl.verify_cover(resp.labeling, c4p).valid


@pytest.mark.parametrize("seed", range(5))
def test_optimal_hl_matches_milp(seed):
    n = 4 + seed % 2
    g = families.gen_random(n, min(n * (n - 1) // 2, n + seed % 3), 2, 14100 + seed)
    d = hl.all_pairs_distances(g)
    res = hl.optimal_hl_bnb(d)
    assert res.complete
    assert res.upper == optimal_hl_milp(d)


@pytest.mark.parametrize("seed", range(3))
def test_optimal_hl_matches_milp_directed(seed):
    g = gen_random_directed(4 + seed % 2, 2, 2, 14200 + seed)
    d = hl.all_pairs_distances(g)
    res = hl.optimal_hl_bnb(d)
    assert res.complete
    assert res.upper == optimal_hl_milp(d)


def test_optimal_hl_budget_exhaustion_is_honest():
    d = hl.all_pairs_distances(families.gen_bad_w(2))
    res = hl.optimal_hl_bnb(d, budget=50)
    assert not res.complete
    assert res.lower <= res.upper
    assert hl.verify_cover(res.labeling, d).valid


def _seeded_bnb_graph(i: int) -> hl.Graph:
    """Undirected for even i, directed for odd i, zero lengths for i % 3 == 0."""
    n, seed = 4 + i % 4, 15000 + i
    if i % 2:
        g = gen_random_directed(n, i % 5, 3, seed)
    else:
        g = families.gen_random(n, min(n * (n - 1) // 2, n + i % 4), 3, seed)
    return with_zero_arcs(g, random.Random(seed)) if i % 3 == 0 else g


@pytest.mark.parametrize("seed", range(12))
def test_optimal_hl_bounds_bracket_the_optimum_under_any_budget(seed):
    d = hl.all_pairs_distances(_seeded_bnb_graph(seed))
    opt = optimal_hl_milp(d)
    for budget in (20, 60, 200):
        res = hl.optimal_hl_bnb(d, budget=budget)
        assert res.lower <= opt <= res.upper
        assert res.upper == res.labeling.size
        assert hl.verify_cover(res.labeling, d).valid


def test_optimal_hl_rejects_a_negative_budget():
    d = hl.all_pairs_distances(families.gen_cycle4(False))
    with pytest.raises(ValueError, match="budget"):
        hl.optimal_hl_bnb(d, budget=-5)
    # budget 0 keeps the incumbents and the root bound
    res = hl.optimal_hl_bnb(d, budget=0)
    assert (res.nodes, res.upper, res.upper == res.labeling.size) == (1, 9, True)
    assert res.lower <= 9


def test_optimal_hl_counts_an_undirected_self_pair_entry_once():
    # Zero-length edges give self pairs two options each; with only these pairs
    # to cover, the search branches on a self pair, which adds one entry.
    arcs = [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 0), (1, 5, 0), (2, 6, 1)]
    d = hl.all_pairs_distances(hl.Graph(False, 7, arcs))
    pairs = [(1, 1), (1, 4), (1, 5), (3, 3), (5, 5)]
    res = hl.optimal_hl_bnb(d, pairs=pairs)
    assert res.complete and res.lower == res.upper == res.labeling.size == 4
    assert optimal_hl_milp(d, pairs) == 4
    assert hl.verify_cover(res.labeling, d, pairs).valid


def _bnb_reference_cases():
    c4 = hl.Graph(False, 4, [(i, (i + 1) % 4, 1) for i in range(4)])
    yield "vc-dir-C4", families.reduce_vc_directed(c4), None, 20_000
    yield "vc-und-K2", families.reduce_vc_undirected(edge2()), None, 3_000
    yield "vc-und-P3", families.reduce_vc_undirected(path_graph(2)), None, 3_000
    yield "cycle4", families.gen_cycle4(False), None, 1_000_000
    yield "cycle4-directed", families.gen_cycle4(True), None, 1_000_000
    yield "separator-3", families.gen_separator(3), None, 20_000
    for i in range(24):
        yield f"seeded-{i}", _seeded_bnb_graph(i), None, (50, 400, 5000)[i % 3]
    zero = hl.Graph(False, 7, [(0, 1, 1), (0, 2, 1), (0, 3, 1), (3, 4, 0), (1, 5, 0), (2, 6, 1)])
    yield "self-pairs", zero, [(1, 1), (1, 4), (1, 5), (3, 3), (5, 5)], 1_000_000
    rng = random.Random(15100)
    for i in (1, 2, 3):
        g = _seeded_bnb_graph(i + 20)
        subset = [p for p in hl.all_pairs_distances(g).reachable_pairs() if rng.random() < 0.5]
        yield f"subset-{i}", g, subset, 2_000


def test_optimal_hl_bnb_matches_the_recomputing_reference():
    finished = exhausted = 0
    for name, g, pairs, budget in _bnb_reference_cases():
        d = hl.all_pairs_distances(g)
        got = hl.optimal_hl_bnb(d, pairs=pairs, budget=budget)
        want = optimal_hl_bnb_reference(d, pairs=pairs, budget=budget)
        assert (got.lower, got.upper, got.complete, got.nodes) == (
            want.lower, want.upper, want.complete, want.nodes
        ), name
        assert hl.serialize_labeling(got.labeling) == hl.serialize_labeling(want.labeling), name
        finished += got.complete
        exhausted += not got.complete
    assert finished >= 10 and exhausted >= 10


def test_hl_at_most_hhl():
    for g in seeded_graphs(10, 7, 14300):
        d = hl.all_pairs_distances(g)
        hhl_size, _ = hl.optimal_hhl_bruteforce(d)
        assert hl.optimal_hl_bnb(d).upper <= hhl_size


def test_optimal_hl_on_separator_beats_hierarchies():
    g = families.gen_separator(3)
    d = hl.all_pairs_distances(g)
    res = hl.optimal_hl_bnb(d, budget=20_000)
    assert res.upper <= 31  # the explicit flat labeling achieves 31
    best_hhl, _ = hl.optimal_hhl_bruteforce(d, limit_n=10)
    assert best_hhl > res.upper


def test_exact_mds_examples():
    clique4 = hl.CenterGraph(0, False, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
    (members,), dens = hl.exact_mds(clique4)
    assert dens == Fraction(6, 4) and members == frozenset(range(4))
    tri_pendant = hl.CenterGraph(0, False, ((0, 1), (0, 2), (1, 2), (2, 3)))
    (members,), dens = hl.exact_mds(tri_pendant)
    assert dens == Fraction(1, 1) and members == frozenset({0, 1, 2})
    (_, dens) = hl.exact_mds(hl.CenterGraph(0, False, ((0, 1),)))
    assert dens == Fraction(1, 2)
    with pytest.raises(hl.TooLargeError):
        hl.exact_mds(clique4, limit=3)
    with pytest.raises(hl.EmptyCenterGraphError):
        hl.exact_mds(hl.CenterGraph(0, False, ()))


def test_exact_mds_directed():
    cg = hl.CenterGraph(0, True, ((0, 0), (0, 1), (1, 0), (1, 1), (2, 0)))
    (tails, heads), dens = hl.exact_mds(cg)
    assert dens == Fraction(4, 4)
    assert tails == frozenset({0, 1}) and heads == frozenset({0, 1})
    # Both ({0, 4}, {10}) and ({2, 3}, {11}) have density 2/3 on three side
    # occurrences; the tail masks over [0, 2, 3, 4] are 0b1001 and 0b0110.
    cg = hl.CenterGraph(0, True, ((0, 10), (2, 11), (3, 11), (4, 10)))
    (tails, heads), dens = hl.exact_mds(cg)
    assert dens == Fraction(2, 3)
    assert tails == frozenset({2, 3}) and heads == frozenset({11})


def test_exact_mds_tie_rules_are_pinned():
    # Undirected: {0, 3} and {1, 2} tie at 1/2 on two vertices; the list [0, 3]
    # is lexicographically smaller, the mask of {1, 2} (0b0110) smaller.
    (members,), dens = hl.exact_mds(hl.CenterGraph(0, False, ((0, 3), (1, 2))))
    assert dens == Fraction(1, 2) and members == frozenset({0, 3})
    # Directed: ({0}, {11}) and ({1}, {10}) tie at 1/2 on two side nodes; tail
    # mask 0b01 beats 0b10, while the undirected rule would take ({1}, {10}),
    # whose head node (1, 10) is the lowest bit where the two masks differ.
    (tails, heads), dens = hl.exact_mds(hl.CenterGraph(0, True, ((0, 11), (1, 10))))
    assert dens == Fraction(1, 2) and (tails, heads) == (frozenset({0}), frozenset({11}))


def test_exact_mds_matches_reference_on_random_center_graphs():
    rng = random.Random(17000)
    seen_loops = seen_same_ids = 0
    for i in range(600):
        cg = random_center_graph(rng, directed=i % 2 == 1)
        assert hl.exact_mds(cg) == exact_mds_reference(cg), cg
        same = any(u == w for u, w in cg.arcs)
        seen_loops += same and not cg.directed
        seen_same_ids += same and cg.directed
    assert seen_loops > 50 and seen_same_ids > 50


def test_side_nodes_put_heads_before_tails():
    cg = hl.CenterGraph(0, True, ((0, 11), (1, 10), (1, 1)))
    nodes, adj, loop = cg.side_nodes()
    assert nodes == [(1, 1), (1, 10), (1, 11), (0, 0), (0, 1)]
    assert adj == [0b10000, 0b10000, 0b01000, 0b00100, 0b00011] and loop == [0] * 5
    assert cg.sides(nodes, 0b01101) == (frozenset({0}), frozenset({1, 11}))
    nodes, adj, loop = hl.CenterGraph(0, False, ((2, 2), (2, 5))).side_nodes()
    assert (nodes, adj, loop) == ([(0, 2), (0, 5)], [0b10, 0b01], [1, 0])


def test_min_vertex_cover_examples():
    assert len(hl.min_vertex_cover(edge2())) == 1
    assert len(hl.min_vertex_cover(triangle())) == 2
    assert hl.min_vertex_cover(path_graph(2)) == frozenset({1})
    c5 = hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)])
    assert len(hl.min_vertex_cover(c5)) == 3
    with pytest.raises(ValueError):
        hl.min_vertex_cover(families.gen_bad_g(2))


def test_min_hitting_set_examples():
    assert hl.min_hitting_set([{0}, {1}]) == frozenset({0, 1})
    assert hl.min_hitting_set([{0}, {0, 1}]) == frozenset({0})
    assert hl.min_hitting_set([]) == frozenset()
    with pytest.raises(hl.TooLargeError):
        hl.min_hitting_set([{0}] * 5, limit=1)
    with pytest.raises(ValueError):
        hl.min_hitting_set([set()])


def test_min_hitting_set_bad_g_positive_paths():
    k = 3
    g = hl.undirect(families.gen_bad_g(k))
    d = hl.all_pairs_distances(g)
    paths = [
        set(sp.vertices)
        for sp in hl.enumerate_significant_paths(g, d, Fraction(1, 2))
        if sp.length > 0
    ]
    hit = hl.min_hitting_set(paths)
    assert len(hit) == k + 1  # the middle layer hits every positive path
    ids = families.bad_g_ids(k)
    for s in paths:
        assert s & set(ids.b)


def test_highway_dimension_values():
    assert hl.highway_dimension_bruteforce(hl.Graph(False, 1, [])) == 0
    assert hl.highway_dimension_bruteforce(path_graph(4)) == 2
    und = hl.undirect(families.gen_bad_g(3))
    assert hl.highway_dimension_bruteforce(und) == 4
    # a center with four unit spokes, each spoke ending in a zero-length edge:
    # the zero-length paths (a_i, b_i) are no hitting targets, so the center suffices
    spokes = [(0, i, 1) for i in range(1, 5)] + [(i, i + 4, 0) for i in range(1, 5)]
    spoked = hl.Graph(False, 9, spokes)
    assert hl.is_sphs(spoked, hl.all_pairs_distances(spoked), {0}, 1, Fraction(1, 2))
    assert hl.highway_dimension_bruteforce(spoked) == 1
    # demanding hits on zero-length paths degenerates the measure
    assert hl.highway_dimension_bruteforce(path_graph(4), include_trivial_paths=True) == 5
    assert hl.highway_dimension_bruteforce(und, include_trivial_paths=True) == und.n


def test_highway_dimension_errors():
    with pytest.raises(hl.DirectedInputError):
        hl.highway_dimension_bruteforce(families.gen_bad_g(2))
    with pytest.raises(hl.TooLargeError):
        hl.highway_dimension_bruteforce(hl.undirect(families.gen_bad_g(4)), limit_n=10)
    two_comp = hl.Graph(False, 4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(ValueError, match="connected"):
        hl.highway_dimension_bruteforce(two_comp)


def test_highway_dimension_star_is_degree_free():
    # every long path crosses the center, so one hitter suffices at each scale
    assert hl.highway_dimension_bruteforce(star_graph(5)) == 1
