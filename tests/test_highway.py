from __future__ import annotations

import hashlib
import json
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest

import hublab as hl
from hublab import families, highway

from bruteforce import all_shortest_paths_reference, ball, gen_random_directed
from bruteforce import greedy_hitting_set_loop, neighborhood_S, significant_paths_bruteforce
from bruteforce import respects_order, undirect, witnesses_reference, with_zero_arcs
from conftest import path_graph, seeded_graphs, star_graph, triangle


def _verts(paths):
    return {sp.vertices for sp in paths}


def test_significant_paths_single_edge():
    g = hl.Graph(False, 2, [(0, 1, 1)])
    d = hl.all_pairs_distances(g)
    half = hl.enumerate_significant_paths(d, Fraction(1, 2))
    assert _verts(half) == {(0,), (1,), (0, 1)}
    assert hl.enumerate_significant_paths(d, 2) == []


def test_significant_paths_three_path():
    g = path_graph(2)  # a-b-c with unit lengths
    d = hl.all_pairs_distances(g)
    sig = _verts(hl.enumerate_significant_paths(d, 1))
    assert (0, 1, 2) in sig        # its own witness, length 2 > 1
    assert (1,) in sig             # witnessed by the full path
    assert (0,) not in sig         # extensions add at most one vertex per end
    assert (0, 1) in sig


def _graphs_with_zero_length_edges(count: int, seed_base: int) -> list[hl.Graph]:
    """Seeded undirected graphs with n <= 7 whose zero-length edges form a forest."""
    out = []
    for i in range(count):
        rng = random.Random(seed_base + i)
        n = 2 + i % 6
        comp = list(range(n))  # component of each vertex in the zero-length forest
        edges: dict[tuple[int, int], int] = {}
        for _ in range(n + i % 4):
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) in edges:
                continue
            ln = rng.randint(0, 3)
            if ln == 0 and comp[u] == comp[v]:
                ln = 1
            if ln == 0:
                old = comp[v]
                comp = [comp[u] if c == old else c for c in comp]
            edges[(u, v)] = ln
        out.append(hl.Graph(False, n, [(u, v, ln) for (u, v), ln in edges.items()]))
    return out


def test_significant_paths_match_simple_path_enumeration():
    graphs = _graphs_with_zero_length_edges(24, 16000) + seeded_graphs(12, 7, 16100)
    assert sum(ln == 0 for g in graphs for _, _, ln in g.arcs) >= 10
    for g in graphs:
        d = hl.all_pairs_distances(g)
        for r in (Fraction(1, 2), 1, Fraction(3, 2), 2, 5):
            got = hl.enumerate_significant_paths(d, r)
            assert [(sp.vertices, sp.length, sp.reach) for sp in got] == (
                significant_paths_bruteforce(g, r)
            )


def _reach_graphs() -> list[hl.Graph]:
    """Seeded graphs with and without zero-length arcs, unit lengths (many ties),
    bad-w, separator, undirected bad-g, the vertex-cover reductions with and
    without unique shortest paths, a disconnected graph, and n = 0 and 1."""
    rng = random.Random(16500)
    graphs = [with_zero_arcs(g, rng) for g in seeded_graphs(80, 10, 16600)]
    graphs += _graphs_with_zero_length_edges(40, 16700) + seeded_graphs(40, 12, 16800)
    graphs += [families.gen_random(n, 2 * n, 1, 16900 + n) for n in range(6, 26)]
    graphs += [families.gen_bad_w(k) for k in (2, 3)]
    graphs += [families.gen_separator(k) for k in (2, 3, 4)]
    graphs += [undirect(families.gen_bad_g(k)) for k in (2, 3, 4, 5)]
    bases = [path_graph(1), path_graph(2), triangle(), families.gen_cycle4(False)]
    bases.append(hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)]))
    graphs += [families.reduce_vc_undirected(b, unique) for b in bases for unique in (True, False)]
    two_parts = [(0, 1, 2), (1, 2, 1), (0, 2, 3), (3, 4, 0), (4, 5, 1), (5, 6, 1), (3, 6, 2)]
    return graphs + [hl.Graph(False, 8, two_parts), hl.Graph(False, 0, []), hl.Graph(False, 1, [])]


def test_pair_rule_reach_matches_the_witness_reference():
    # Every shortest path's reach, read at its two ends, against the longest of
    # the witnesses the per-path rule lists, zero-length arcs included.
    graphs = _reach_graphs()
    assert len(graphs) >= 200 and sum(ln == 0 for g in graphs for _, _, ln in g.arcs) >= 50
    for g in graphs:
        d = hl.all_pairs_distances(g)
        family = highway._path_family(g, d)
        assert sorted(sp.vertices for sp in family) == sorted(all_shortest_paths_reference(g, d))
        for sp in family:
            wits = witnesses_reference(g, d, sp.vertices)
            assert sp.length == wits[0][0] == d.dist(sp.vertices[0], sp.vertices[-1])
            assert sp.reach == max(length for length, _ in wits), (g.arcs, sp)


def test_sphs_build_lists_no_witnesses(monkeypatch):
    # Only the highway-dimension oracle lists witness paths: with its helper
    # refusing, a cold SPHS build and its labeling still complete.
    from hublab import oracles

    def refuse(*args):
        raise AssertionError("witness lists on the SPHS build path")

    monkeypatch.setattr(oracles, "_witnesses", refuse)
    with pytest.raises(AssertionError, match="witness lists"):
        oracles.highway_dimension_bruteforce(path_graph(3))
    for g in (families.gen_random(60, 120, 10, 1), families.gen_separator(3)):
        highway._path_family.cache_clear()
        d = hl.all_pairs_distances(g)
        _, lab = hl.sphs_to_hhl(d, hl.greedy_multiscale_sphs(d))
        assert hl.verify_cover(lab, d).valid


def test_a_reach_equal_to_a_scale_is_not_a_target():
    # On the unit path 0-..-5 (D = 5, scales 1, 2, 4) the paths (0, 1) and (4, 5)
    # have reach 2 and (1, 2, 3) has reach 4: a level's targets are reach > r.
    g = path_graph(5)
    d = hl.all_pairs_distances(g)
    reach = {sp.vertices: sp.reach for sp in hl.enumerate_significant_paths(d, 1)}
    assert reach[(0, 1)] == reach[(4, 5)] == 2 and reach[(1, 2, 3)] == 4
    ms = hl.greedy_multiscale_sphs(d)
    # reach >= r would give {0, 2, 4} at level 2 and {2} at level 3
    assert ms.levels[1:] == (frozenset({0, 2, 4}), frozenset({2, 3}), frozenset({1}))
    assert hl.is_sphs(d, {2, 3}, 2, 2) and hl.is_sphs(d, {4}, 1, 4)
    assert not hl.is_sphs(d, {4}, 1, 3)  # at r = 3, (1, 2, 3) is a target
    _, lab = hl.sphs_to_hhl(d, ms)  # level 2 misses (0, 1), which it need not hit
    assert hl.verify_cover(lab, d).valid


def test_sphs_to_hhl_refuses_a_family_below_the_top_level():
    # D = 5 needs levels up to ceil(log2 5) = 3; cut below, the labeling misses pairs.
    d = hl.all_pairs_distances(path_graph(5))
    ms = hl.greedy_multiscale_sphs(d)
    for top in (0, 1, 2):
        cut = hl.MultiscaleSPHS(ms.levels[: top + 1], ms.ball_caps[: top + 1], ms.diameter)
        with pytest.raises(hl.InvalidSPHSError, match=f"^top level {top} is below ceil"):
            hl.sphs_to_hhl(d, cut)
    assert hl.verify_cover(hl.sphs_to_hhl(d, ms)[1], d).valid


# sha256 of repr(MultiscaleSPHS), the order and the label file of sphs_to_hhl,
# captured when every SPHS level enumerated its own significant paths.
SPHS_INSTANCES = {
    **{
        f"random-{n}-s{s}": (lambda n=n, s=s: families.gen_random(n, 2 * n, 10, s))
        for n in (20, 40, 60)
        for s in range(3)
    },
    "separator-3": lambda: families.gen_separator(3),
    "bad-w-2": lambda: families.gen_bad_w(2),
}
SPHS_DIGESTS = {
    "random-20-s0": "8ad62d30759623c5d0f2e6754d1e8011e2ba2c6b2e9b6832ad09df0c6d87492b",
    "random-20-s1": "ed0017166290e6e9b844fbedec49d40a649724d1a732d4aa8478ada71d781238",
    "random-20-s2": "74292ab47989f24ceee2e56bd3c2075e0c058aa71f2fa918726bbe02e463561d",
    "random-40-s0": "862928f53ba968fbc6f5a3c0db0bdd6ebd9a82aaf927848f5ab3c9e483d95527",
    "random-40-s1": "6dc6bf4ff0ff45430cb8767974afc7dc4a483da3446ef0cd8ea94dfa9c4c75cc",
    "random-40-s2": "88712901f7119026ba19c99a77d2c0954abc7622f8c2e1a2f87d3080ec3fd98c",
    "random-60-s0": "79f90a42943a5062c4c503433216fcc7e4fb0937d142a29848c78fceac173328",
    "random-60-s1": "118897d542aa85f7f5d028bad3b27a17854caf76139432e2ca5859e12084518e",
    "random-60-s2": "0327da6836906ee3c00f7213fb5c812671c9f12ac293a98df36c8a966cccbd72",
    "separator-3": "5f0f633136ba3606a5ba0e31d1b4cacc2e0b9fdf3fa57d0a3f14b75b70ccc4d2",
    "bad-w-2": "2b7f85fa0c4422be32442a5672cf1be151bebcf4e320e31bbe3e531c3d756bcf",
}


@pytest.mark.parametrize("name", sorted(SPHS_DIGESTS))
def test_multiscale_sphs_outputs_are_pinned(name):
    g = SPHS_INSTANCES[name]()
    d = hl.all_pairs_distances(g)
    ms = hl.greedy_multiscale_sphs(d)
    order, lab = hl.sphs_to_hhl(d, ms)
    text = repr(ms) + "\n" + json.dumps(order.by_rank()) + "\n" + hl.serialize_labeling(lab)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SPHS_DIGESTS[name]


def test_cap_exceeded(monkeypatch):
    g = path_graph(3)
    d = hl.all_pairs_distances(g)
    # Graph and DistMatrix hash by value: an equal graph enumerated earlier is cached.
    highway._path_family.cache_clear()
    monkeypatch.setattr(highway, "MAX_PATHS", 3)
    with pytest.raises(hl.CapExceededError):
        hl.enumerate_significant_paths(d, 1)


def test_path_enumeration_deeper_than_recursion_limit(monkeypatch):
    from hublab.highway import _all_shortest_paths

    n = 1200
    g = hl.Graph(False, n, [(i, i + 1, 1) for i in range(n - 1)])
    d = hl.all_pairs_distances(g)
    highway._path_family.cache_clear()
    # 1,200 trivial paths, then paths from vertex 0 with up to ~1,100 vertices
    monkeypatch.setattr(highway, "MAX_PATHS", 2300)
    with pytest.raises(hl.CapExceededError):
        _all_shortest_paths(g, d)
    # a zero-length edge is crossed once per path, not walked back and forth
    monkeypatch.setattr(highway, "MAX_PATHS", 100)
    g0 = hl.Graph(False, 4, [(0, 1, 0), (1, 2, 1), (2, 3, 0)])
    paths = _all_shortest_paths(g0, hl.all_pairs_distances(g0))
    assert paths[4:] == [(0, 1), (0, 1, 2), (0, 1, 2, 3), (1, 2), (1, 2, 3), (2, 3)]


def test_equal_distance_arrays_of_different_graphs_keep_their_own_paths():
    # The path 0-1-2 and the same path with a chord 0-2 of length 2 have equal
    # distance arrays, but only the chord is the shortest path (0, 2).
    path = path_graph(2)
    chord = hl.Graph(False, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 2)])
    for first, second in ((path, chord), (chord, path)):
        highway._path_family.cache_clear()
        ds = [hl.all_pairs_distances(first), hl.all_pairs_distances(second)]
        assert ds[0] == ds[1] and [d.graph for d in ds] == [first, second]
        for g, d in zip((first, second), ds):
            assert d.graph is g
            half = _verts(hl.enumerate_significant_paths(d, Fraction(1, 2)))
            assert ((0, 2) in half) == (g is chord)
            _, lab = hl.sphs_to_hhl(d, hl.greedy_multiscale_sphs(d))
            assert hl.verify_cover(lab, hl.all_pairs_distances(g)).valid


def _enumeration_graphs() -> list[hl.Graph]:
    """Seeded undirected graphs with zero-length edges, a disconnected graph, and
    n = 0 and 1."""
    rng = random.Random(16200)
    graphs = [with_zero_arcs(g, rng) for g in seeded_graphs(30, 9, 16300)]
    graphs += [with_zero_arcs(families.gen_random(24, 40, 5, 16400 + i), rng) for i in range(3)]
    assert sum(ln == 0 for g in graphs for _, _, ln in g.arcs) >= 20
    two_parts = [(0, 1, 2), (1, 2, 1), (0, 2, 3), (3, 4, 0), (4, 5, 1), (5, 6, 1), (3, 6, 2)]
    return graphs + [hl.Graph(False, 8, two_parts), hl.Graph(False, 0, []), hl.Graph(False, 1, [])]


def test_forward_search_lists_the_paths_of_the_per_pair_search(monkeypatch):
    from hublab.highway import _all_shortest_paths

    cases = []
    for g in _enumeration_graphs():
        d = hl.all_pairs_distances(g)
        cases.append((g, d, sorted(all_shortest_paths_reference(g, d))))

    def refuse(*args, **kwargs):
        raise AssertionError("the forward search reads the distance array by source_runs")

    monkeypatch.setattr(hl.DistMatrix, "source_runs", refuse)
    for g, d, expected in cases:
        got = _all_shortest_paths(g, d)
        assert sorted(got) == expected, g.arcs
        assert len(set(got)) == len(got)
    monkeypatch.undo()
    # The cap: exactly MAX_PATHS paths pass in both searches, one more raises in both.
    for g in _enumeration_graphs()[::5]:
        d = hl.all_pairs_distances(g)
        count = len(_all_shortest_paths(g, d))
        monkeypatch.setattr(highway, "MAX_PATHS", count)
        assert len(_all_shortest_paths(g, d)) == len(all_shortest_paths_reference(g, d)) == count
        monkeypatch.setattr(highway, "MAX_PATHS", count - 1)
        for search in (_all_shortest_paths, all_shortest_paths_reference):
            with pytest.raises(hl.CapExceededError, match=f"more than {count - 1} shortest"):
                search(g, d)
        monkeypatch.undo()


def test_directed_input_rejected():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    with pytest.raises(hl.DirectedInputError):
        hl.enumerate_significant_paths(d, 1)
    with pytest.raises(hl.DirectedInputError):
        hl.greedy_multiscale_sphs(d)
    with pytest.raises(hl.DirectedInputError):
        hl.sphs_to_hhl(d, hl.MultiscaleSPHS((frozenset(range(g.n)),), (1,), d.diameter))


@pytest.mark.parametrize("r", [0, Fraction(-1, 2)])
def test_significant_paths_and_neighborhoods_need_a_positive_radius(r):
    g = path_graph(2)
    d = hl.all_pairs_distances(g)
    with pytest.raises(ValueError, match="r must be positive"):
        hl.enumerate_significant_paths(d, r)
    with pytest.raises(ValueError, match="r must be positive"):
        neighborhood_S(d, 0, r)


def test_neighborhood_single_edge():
    g = hl.Graph(False, 2, [(0, 1, 1)])
    d = hl.all_pairs_distances(g)
    s = neighborhood_S(d, 0, Fraction(1, 2))
    assert _verts(s) == {(0,), (1,), (0, 1)}


def test_neighborhood_excludes_far_witnesses():
    g = path_graph(6)
    d = hl.all_pairs_distances(g)
    near = _verts(neighborhood_S(d, 0, Fraction(1, 2)))
    assert (6,) not in near and (5, 6) not in near
    assert (0, 1) in near


def test_neighborhood_bad_g_hitting_bound():
    k = 3
    g = undirect(families.gen_bad_g(k))
    d = hl.all_pairs_distances(g)
    b1 = families.bad_g_ids(k).b[0]
    paths = [set(sp.vertices) for sp in neighborhood_S(d, b1, 1) if sp.length > 0]
    assert len(hl.min_hitting_set(paths)) <= k + 2


def test_closeness_monotonicity():
    # (r, d)-close stays close when r shrinks and d grows
    for g in (path_graph(5),) + tuple(seeded_graphs(4, 7, 14900)):
        d = hl.all_pairs_distances(g)
        paths = [witnesses_reference(g, d, p) for p in all_shortest_paths_reference(g, d)]
        m = d.matrix

        def close(v, wits, r, dd):
            return any(
                wlen > r and min(m[v, x] for x in wverts) <= dd for wlen, wverts in wits
            )

        for wits in paths:
            for v in range(g.n):
                for r, dd in ((2, 1), (Fraction(3, 2), 2), (1, 0)):
                    if close(v, wits, r, dd):
                        assert close(v, wits, Fraction(r, 2), dd)
                        assert close(v, wits, r, dd + 2)
        # and significance itself is monotone in r
        s2 = _verts(hl.enumerate_significant_paths(d, 2))
        s1 = _verts(hl.enumerate_significant_paths(d, 1))
        assert s2 <= s1


@pytest.mark.parametrize("v", [-1, 4])
def test_ball_and_neighborhood_refuse_ids_out_of_range(v):
    # on the path 0-1-2-3 numpy would read vertex 3's column for -1
    g = path_graph(3)
    d = hl.all_pairs_distances(g)
    assert ball(d, 3, 1) == {2, 3}
    with pytest.raises(IndexError, match=f"vertex {v} out of range for 4 vertices"):
        ball(d, v, 1)
    with pytest.raises(IndexError, match=f"vertex {v} out of range for 4 vertices"):
        neighborhood_S(d, v, 1)


def test_ball_examples():
    g = star_graph(4)
    d = hl.all_pairs_distances(g)
    assert 0 in ball(d, 0, 0)
    assert ball(d, 0, 1) == set(range(5))
    w = families.gen_bad_w(2)
    idw = families.bad_w_ids(2)
    dw = hl.all_pairs_distances(w)
    assert ball(dw, idw.a, 3) == {idw.a} | set(idw.d)
    assert ball(dw, idw.a, Fraction(5, 2)) == {idw.a}
    # D = 3, so a radius of 4 meets the stored value of unreachable pairs
    d4 = hl.all_pairs_distances(hl.parse_graph("p undirected 4 1\na 0 1 3\n"))
    assert ball(d4, 0, 4) == {0, 1}


def test_is_sphs_examples():
    g = path_graph(4)
    d = hl.all_pairs_distances(g)
    assert hl.is_sphs(d, set(range(g.n)), 10**6, 1)
    assert not hl.is_sphs(d, set(), 10**6, 1)
    k = 3
    ug = undirect(families.gen_bad_g(k))
    du = hl.all_pairs_distances(ug)
    bs = set(families.bad_g_ids(k).b)
    assert hl.is_sphs(du, bs, k + 1, 1)
    assert not hl.is_sphs(du, bs, k, 1)  # the cap is tight
    star = star_graph(3)
    ds = hl.all_pairs_distances(star)
    assert hl.is_sphs(ds, {0}, 1, 1)


@pytest.mark.parametrize("v", [-1, 4])
def test_is_sphs_refuses_ids_out_of_range(v):
    # On the 4-cycle -1 aliased vertex 3, so {-1} passed as a hitting set, and
    # 4 ended in numpy's IndexError.
    g4 = families.gen_cycle4(False)
    d = hl.all_pairs_distances(g4)
    assert hl.is_sphs(d, {3}, 4, 100)
    with pytest.raises(IndexError, match=f"vertex {v} out of range for 4 vertices"):
        hl.is_sphs(d, {v}, 4, 100)
    with pytest.raises(IndexError, match=f"vertex {v} out of range for 4 vertices"):
        hl.is_sphs(d, {0, 1, v}, 4, 1)


def test_greedy_multiscale_sphs_shapes():
    d1 = hl.all_pairs_distances(hl.Graph(False, 1, []))
    ms1 = hl.greedy_multiscale_sphs(d1)
    assert ms1.levels == (frozenset({0}),) and ms1.diameter == 0

    star = star_graph(5)
    ds = hl.all_pairs_distances(star)
    ms = hl.greedy_multiscale_sphs(ds)
    assert ms.levels[1] == frozenset({0})
    assert hl.is_sphs(ds, ms.levels[1], ms.ball_caps[1], 1)

    p8 = path_graph(8)
    dp = hl.all_pairs_distances(p8)
    msp = hl.greedy_multiscale_sphs(dp)
    sizes = [len(c) for c in msp.levels]
    assert sizes[0] == 9
    assert all(a >= b for a, b in zip(sizes, sizes[1:]))
    for i in range(1, msp.top + 1):
        assert hl.is_sphs(dp, msp.levels[i], msp.ball_caps[i], 2 ** (i - 1))


def test_greedy_multiscale_rejects_short_lengths():
    g = hl.Graph(False, 3, [(0, 1, 0), (1, 2, 1)])
    d = hl.all_pairs_distances(g)
    with pytest.raises(ValueError, match="at least 1"):
        hl.greedy_multiscale_sphs(d)


def test_sphs_to_hhl_star_and_single_vertex():
    star = star_graph(5)
    ds = hl.all_pairs_distances(star)
    ms = hl.greedy_multiscale_sphs(ds)
    order, lab = hl.sphs_to_hhl(ds, ms)
    assert hl.verify_cover(lab, ds).valid
    assert respects_order(lab, order)
    for leaf in range(1, 6):
        assert [h for h, _ in lab.fwd[leaf]] == [0, leaf]

    single = hl.Graph(False, 1, [])
    d1 = hl.all_pairs_distances(single)
    _, lab1 = hl.sphs_to_hhl(d1, hl.greedy_multiscale_sphs(d1))
    assert lab1.fwd[0] == ((0, 0),)


def test_sphs_to_hhl_respects_label_bound():
    for g in (path_graph(8), families.gen_bad_w(2)) + tuple(seeded_graphs(4, 7, 15000)):
        d = hl.all_pairs_distances(g)
        ms = hl.greedy_multiscale_sphs(d)
        order, lab = hl.sphs_to_hhl(d, ms)
        assert hl.verify_cover(lab, d).valid
        bound = 1 + sum(ms.ball_caps)
        assert max(len(lab.fwd[v]) for v in range(g.n)) <= bound


def test_sphs_to_hhl_rejects_invalid_family():
    p8 = path_graph(8)
    dp = hl.all_pairs_distances(p8)
    ms = hl.greedy_multiscale_sphs(dp)
    broken = hl.MultiscaleSPHS(
        (ms.levels[0],) + tuple(frozenset() for _ in ms.levels[1:]),
        ms.ball_caps,
        ms.diameter,
    )
    with pytest.raises(hl.InvalidSPHSError):
        hl.sphs_to_hhl(dp, broken)
    no_bottom = hl.MultiscaleSPHS(
        (frozenset({0}),) + ms.levels[1:], ms.ball_caps, ms.diameter
    )
    with pytest.raises(hl.InvalidSPHSError):
        hl.sphs_to_hhl(dp, no_bottom)
    # C_2 hits every 2-significant path but misses (0, 1), whose reach is 2 > 1
    assert (0, 1) in _verts(hl.enumerate_significant_paths(dp, 1))
    assert ms.levels[2].isdisjoint({0, 1})
    shifted = hl.MultiscaleSPHS(
        (ms.levels[0], ms.levels[2]) + ms.levels[2:], ms.ball_caps, ms.diameter
    )
    with pytest.raises(hl.InvalidSPHSError, match="^level 1 misses a 1-significant path$"):
        hl.sphs_to_hhl(dp, shifted)
    # Members must be vertices of g: 7 is out of range and -1 would index vertex 2
    # from the end. Both levels hit every path of P3 through vertex 1.
    p3 = path_graph(2)
    d3 = hl.all_pairs_distances(p3)
    for stray in (frozenset({0, 1, 7}), frozenset({-1, 1})):
        bad = hl.MultiscaleSPHS((frozenset(range(3)), stray), (3, 1), 2)
        with pytest.raises(hl.InvalidSPHSError, match="^every level must be a set of vertices"):
            hl.sphs_to_hhl(d3, bad)
    with pytest.raises(hl.InvalidSPHSError, match="^bottom level must contain every vertex$"):
        hl.sphs_to_hhl(d3, hl.MultiscaleSPHS((), (), 2))


def _csr(sets):
    """The sets as one CSR table ``(ptr, verts)``, int64 pointers and int32 ids."""
    ptr = np.concatenate(([0], np.cumsum([len(s) for s in sets], dtype=np.int64)))
    return ptr, np.fromiter(chain.from_iterable(sets), np.int32, ptr[-1])


def test_greedy_hitting_set_matches_recounting_loop():
    # Significant-path families of seeded graphs at every SPHS scale, and random
    # set families over few vertices, where count ties are common; each family is
    # one CSR table, and its greedy sets from several starts k are those of the
    # loop on the sets from k on.
    from hublab.highway import _by_reach, _greedy_hitting_sets

    set_families = []
    for g in seeded_graphs(12, 9, 5100) + [families.gen_random(30, 60, 6, 5200)]:
        d = hl.all_pairs_distances(g)
        paths = hl.enumerate_significant_paths(d, 1)
        for i in range(1, max(d.diameter - 1, 0).bit_length() + 1):
            r = 2 ** (i - 1)
            set_families.append([frozenset(sp.vertices) for sp in paths if sp.length and sp.reach > r])
    rng = random.Random(5300)
    for _ in range(60):
        k = rng.randint(1, 9)
        set_families.append(
            [frozenset(rng.sample(range(k), rng.randint(1, k))) for _ in range(rng.randint(0, 25))]
        )
    # The empty family, repeated sets, and ids that skip 0 and leave gaps.
    set_families.append([])
    set_families.append([frozenset({1, 2})] * 3 + [frozenset({2, 3}), frozenset({1, 2})])
    set_families.append([frozenset(s) for s in ({5, 9}, {9, 12}, {20}, {12, 40}, {5, 40})])
    for sets in set_families:
        starts = sorted({*range(0, len(sets), max(1, len(sets) // 6)), len(sets)})
        got = list(_greedy_hitting_sets(*_csr(sets), starts))
        assert got == [greedy_hitting_set_loop(sets[k:]) for k in starts]
    # The reach-sorted table ``greedy_multiscale_sphs`` reads, from every level's start.
    d = hl.all_pairs_distances(families.gen_random(60, 120, 10, 1))
    reach, ptr, verts = _by_reach(hl.enumerate_significant_paths(d, 1))
    top = (d.diameter - 1).bit_length()
    starts = reach.searchsorted([2 ** (i - 1) for i in range(1, top + 1)], "right")
    assert starts[-1] < len(reach)
    rows = [verts[a:b].tolist() for a, b in zip(ptr, ptr[1:])]
    got = list(_greedy_hitting_sets(ptr, verts, starts))
    assert got == [greedy_hitting_set_loop(rows[k:]) for k in starts]


def test_multiscale_sphs_peaks_under_4_mib():
    # The path family is one reach-sorted CSR table, each level a suffix of it,
    # and the greedy transposes it once: 1.4 MiB here, where a frozenset copy of
    # the path family per level and a Counter engine peaked at 14.9 MiB.
    d = hl.all_pairs_distances(families.gen_random(150, 300, 10, 1))
    ms = hl.greedy_multiscale_sphs(d)  # the enumeration is cached from here on
    tracemalloc.start()
    try:
        again = hl.greedy_multiscale_sphs(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == ms
    assert peak < 4 * 2**20, peak


def test_q_sets_partition():
    p8 = path_graph(8)
    dp = hl.all_pairs_distances(p8)
    ms = hl.greedy_multiscale_sphs(dp)
    qs = ms.q_sets()
    assert sum(len(q) for q in qs) == p8.n
    seen = set().union(*qs)
    assert seen == set(range(p8.n))


def test_audit_single_vertex():
    d = hl.all_pairs_distances(hl.Graph(False, 1, []))
    _, _, trace = hl.run_d_hhl(d)
    audit = hl.audit_dhhl_levels(trace, h=0)
    assert audit.max_level_count == 1
    assert math.isinf(audit.bound_ratio)


def test_audit_bad_g_k3():
    k = 3
    g = undirect(families.gen_bad_g(k))
    d = hl.all_pairs_distances(g)
    _, lab, trace = hl.run_d_hhl(d)
    h = hl.highway_dimension_bruteforce(g)
    audit = hl.audit_dhhl_levels(trace, h)
    assert k + 2 in audit.label_sizes.values()
    assert audit.label_sizes == {v: len(lab.fwd[v]) for v in range(g.n)}
    assert math.isfinite(audit.bound_ratio)


@pytest.mark.parametrize("seed", [None, 3, 4])
def test_audit_directed_matches_the_labels(seed):
    # bad-g k=3, then seeded directed graphs with zero-length arcs: every label
    # entry, forward and backward, is one receiver at its hub's level.
    if seed is None:
        g = families.gen_bad_g(3)
    else:
        g = with_zero_arcs(gen_random_directed(12, 8, 4, seed), random.Random(seed))
        assert any(ln == 0 for _, _, ln in g.arcs)
    d = hl.all_pairs_distances(g)
    _, lab, trace = hl.run_d_hhl(d)
    level = hl.vertex_levels(trace)
    audit = hl.audit_dhhl_levels(trace, 2)
    per = {v: dict(Counter(level[h] for h, _ in lab.fwd[v] + lab.bwd[v])) for v in range(g.n)}
    assert audit.per_vertex_level == per
    assert audit.label_sizes == {v: len(lab.fwd[v]) + len(lab.bwd[v]) for v in range(g.n)}
    assert any(rec.receivers_bwd for rec in trace.iterations)
    assert audit.max_level_count == max(c for counts in per.values() for c in counts.values())


def test_audit_rejects_other_traces():
    d = hl.all_pairs_distances(path_graph(3))
    _, _, trace = hl.run_g_hhl(d)
    with pytest.raises(hl.TraceNotFromDHHLError):
        hl.audit_dhhl_levels(trace, 1)


def test_audit_path8_finite_ratio():
    p8 = path_graph(8)
    d = hl.all_pairs_distances(p8)
    _, _, trace = hl.run_d_hhl(d)
    h = hl.highway_dimension_bruteforce(p8)
    audit = hl.audit_dhhl_levels(trace, h)
    assert math.isfinite(audit.bound_ratio)
