from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

import hublab as hl
from hublab import families
from hublab.centers import PathIndex

from bruteforce import center_weight_sum, gen_random_directed
from conftest import edge2, seeded_graphs


def _reachable_count_bfs(g: hl.Graph) -> int:
    # Independent reachability count: BFS over arcs, ignoring lengths.
    out = [[] for _ in range(g.n)]
    for t, h, _ in g.arcs:
        out[t].append(h)
        if not g.directed:
            out[h].append(t)
    total = 0
    for s in range(g.n):
        seen = {s}
        stack = [s]
        while stack:
            v = stack.pop()
            for w in out[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if g.directed:
            total += len(seen)
        else:
            total += sum(1 for v in seen if v >= s)
    return total


def test_initial_uncovered_counts():
    d1 = hl.all_pairs_distances(hl.Graph(False, 1, []))
    assert list(hl.initial_uncovered(d1)) == [(0, 0)]
    d2 = hl.all_pairs_distances(edge2())
    u2 = hl.initial_uncovered(d2)
    assert u2.count == 3 and set(u2) == {(0, 0), (0, 1), (1, 1)}
    g3 = families.gen_bad_g(3)
    d3 = hl.all_pairs_distances(g3)
    u3 = hl.initial_uncovered(d3)
    assert u3.count == _reachable_count_bfs(g3) == 79


def test_uncovered_set_semantics():
    u = hl.UncoveredSet(False, 3, [(2, 1), (0, 0)])
    assert (1, 2) in u and (2, 1) in u
    u.discard((1, 2))
    assert u.count == 1
    with pytest.raises(ValueError):
        hl.UncoveredSet(False, 2, [(0, 5)])


def test_center_graph_bad_g_initial_counts():
    k = 3
    g = families.gen_bad_g(k)
    ids = families.bad_g_ids(k)
    d = hl.all_pairs_distances(g)
    u = hl.initial_uncovered(d)
    assert hl.build_center_graph(d, u, ids.a[0]).edge_count == (k + 1) ** 2 + 1 == 17
    assert hl.build_center_graph(d, u, ids.b[0]).edge_count == (k + 1) ** 2 == 16
    assert hl.build_center_graph(d, u, ids.c_id(1, 1)).edge_count == k + 2 == 5


def test_center_graph_empty_after_everything_covered():
    d = hl.all_pairs_distances(edge2())
    empty = hl.UncoveredSet(False, 2, [])
    cg = hl.build_center_graph(d, empty, 0)
    assert cg.edge_count == 0
    with pytest.raises(hl.EmptyCenterGraphError):
        hl.density(cg)


def test_density_examples():
    loop = hl.CenterGraph(0, False, ((0, 0),))
    assert hl.density(loop) == Fraction(1, 1)
    k = 2
    w = families.gen_bad_w(k)
    dw = hl.all_pairs_distances(w)
    uw = hl.initial_uncovered(dw)
    for v in (0, 1, 5):
        assert hl.build_center_graph(dw, uw, v).nonisolated_count == w.n
    g = families.gen_bad_g(3)
    dg = hl.all_pairs_distances(g)
    ug = hl.initial_uncovered(dg)
    cg_a1 = hl.build_center_graph(dg, ug, 0)
    assert hl.density(cg_a1) == Fraction(17, 18)


def test_level_profile_examples():
    k = 3
    g = families.gen_bad_g(k)
    ids = families.bad_g_ids(k)
    d = hl.all_pairs_distances(g)
    u = hl.initial_uncovered(d)
    p_a = hl.level_profile(hl.build_center_graph(d, u, ids.a[0]), d)
    assert p_a.count(1) == k * (k + 1) == 12
    p_b = hl.level_profile(hl.build_center_graph(d, u, ids.b[0]), d)
    assert p_b.count(1) == k * k == 9
    loop = hl.CenterGraph(0, False, ((0, 0),))
    d1 = hl.all_pairs_distances(hl.Graph(False, 1, []))
    p_loop = hl.level_profile(loop, d1)
    assert p_loop.counts == ((hl.NEG_INF_LEVEL, 1),)
    assert p_a.total == 17 and p_b.total == 16


def test_profile_key_orders_like_bigint_weight_sums():
    graphs = seeded_graphs(10, 8, 11000) + [gen_random_directed(6, 4, 3, 11100)]
    for g in graphs:
        d = hl.all_pairs_distances(g)
        u = hl.initial_uncovered(d)
        scored = []
        for v in range(g.n):
            cg = hl.build_center_graph(d, u, v)
            scored.append((hl.level_profile(cg, d).key(), center_weight_sum(cg, d)))
        for (ka, wa), (kb, wb) in zip(scored, scored[1:]):
            assert (ka > kb) == (wa > wb) and (ka == kb) == (wa == wb)


def test_path_index_views_match_shortest_path_vertices():
    graphs = seeded_graphs(8, 7, 11400) + [gen_random_directed(6, 4, 3, 11500)]
    for g in graphs:
        d = hl.all_pairs_distances(g)
        index = PathIndex(d)
        assert index.pairs(slice(None)) == list(hl.initial_uncovered(d))
        through = {v: [] for v in range(g.n)}
        for pid, (u, w) in enumerate(index.pairs(slice(None))):
            assert index[pid].tolist() == sorted(hl.shortest_path_vertices(d, u, w))
            level = hl.pair_level(d.dist(u, w))
            assert index.level[pid] == (-1 if level == hl.NEG_INF_LEVEL else level)
            for v in index[pid].tolist():
                through[v].append(pid)
            cols = np.array([w, u])  # targets reachable from u, in any order
            assert (hl.path_membership(d, u, cols) == hl.path_membership(d, u)[:, cols]).all()
        for v in range(g.n):
            assert index.through(v).tolist() == through[v]


def test_engine_matches_from_scratch_after_random_covers():
    rng = random.Random(7)
    graphs = seeded_graphs(6, 7, 11200) + [gen_random_directed(5, 3, 2, 11300)]
    for g in graphs:
        d = hl.all_pairs_distances(g)
        engine = hl.CoverageState(d)
        order = list(range(g.n))
        rng.shuffle(order)
        for v in order[: g.n // 2 + 1]:
            engine.cover_center(v)
            u = engine.uncovered_pairs()
            for x in range(g.n):
                cg = hl.build_center_graph(d, u, x)
                assert engine.center_graph(x) == cg
                assert engine.edge_count(x) == cg.edge_count
                assert engine.nonisolated_count(x) == cg.nonisolated_count
                prof = hl.level_profile(cg, d)
                assert engine.profile_key(x) == prof.key()


def test_cover_center_covers_exactly_its_arcs():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    engine = hl.CoverageState(d)
    u_before = set(engine.uncovered_pairs())
    arcs = set(engine.center_graph(0).arcs)
    pids = engine.cover_center(0)
    covered = {engine.pair(p) for p in pids}
    assert covered == arcs
    assert set(engine.uncovered_pairs()) == u_before - arcs
    with pytest.raises(ValueError, match="still uncovered"):
        engine.cover_pairs(pids[:1])


def test_engine_rejects_unreachable_pairs():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    ids = families.bad_g_ids(2)
    bad = hl.UncoveredSet(True, g.n, [(ids.c_id(1, 1), ids.a[0])])
    with pytest.raises(ValueError, match="unreachable"):
        hl.CoverageState(d, bad)


def test_directed_density_counts_side_occurrences():
    # the directed self pair puts its vertex on both sides
    g = hl.Graph(True, 2, [(0, 1, 1)])
    d = hl.all_pairs_distances(g)
    u = hl.initial_uncovered(d)
    cg0 = hl.build_center_graph(d, u, 0)
    assert set(cg0.arcs) == {(0, 0), (0, 1)}
    assert cg0.nonisolated_count == 3  # tails {0}, heads {0, 1}
    assert hl.density(cg0) == Fraction(2, 3)
