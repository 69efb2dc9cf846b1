from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import hublab as hl
from hublab import cohen, families, oracles

from bruteforce import build_center_graph, gen_random_directed, mds_peel_reference
from bruteforce import random_center_graph, run_cohen_hl_reference, with_zero_arcs
from conftest import complete_graph, edge2, seeded_graphs, star_graph


def _clique_center_graph(n: int) -> hl.CenterGraph:
    return hl.CenterGraph(0, False, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def test_mds_peel_examples():
    (members,), dens = hl.mds_peel(_clique_center_graph(4))
    assert members == frozenset(range(4)) and dens == Fraction(6, 4)
    star = hl.CenterGraph(0, False, ((0, 1), (0, 2), (0, 3)))
    (members,), dens = hl.mds_peel(star)
    assert members == frozenset(range(4)) and dens == Fraction(3, 4)
    (members,), dens = hl.mds_peel(hl.CenterGraph(0, False, ((0, 1),)))
    assert dens == Fraction(1, 2)
    with pytest.raises(hl.EmptyCenterGraphError):
        hl.mds_peel(hl.CenterGraph(0, False, ()))


def test_mds_peel_directed_bipartite():
    cg = hl.CenterGraph(0, True, ((0, 0), (0, 1), (1, 0), (1, 1)))
    (tails, heads), dens = hl.mds_peel(cg)
    assert tails == frozenset({0, 1}) and heads == frozenset({0, 1})
    assert dens == Fraction(4, 4)


def test_mds_peel_matches_reference_on_random_center_graphs():
    rng = random.Random(17100)
    for i in range(1000):
        cg = random_center_graph(rng, directed=i % 2 == 1)
        assert hl.mds_peel(cg) == mds_peel_reference(cg), cg
    for i in range(300):  # up to 40 side nodes: long heap peels with many degree ties
        cg = random_center_graph(rng, directed=i % 2 == 1, max_nodes=40, width=30)
        assert hl.mds_peel(cg) == mds_peel_reference(cg), cg


def test_mds_peel_counts_a_repeated_pair_once():
    # Both spellings of one undirected edge are one edge, as in exact_mds.
    cg = hl.CenterGraph(0, False, ((0, 1), (1, 0)))
    assert hl.mds_peel(cg) == hl.exact_mds(cg) == ((frozenset({0, 1}),), Fraction(1, 2))


def test_peel_within_half_of_exact_on_encountered_graphs():
    for g in seeded_graphs(12, 8, 13000):
        d = hl.all_pairs_distances(g)
        u = d.reachable_pairs()
        for v in range(g.n):
            cg = build_center_graph(d, u, v)
            if cg.edge_count == 0:
                continue
            _, peel_dens = hl.mds_peel(cg)
            _, exact_dens = hl.exact_mds(cg)
            assert peel_dens * 2 >= exact_dens


def test_cohen_two_vertex_edge_matches_optimum():
    d = hl.all_pairs_distances(edge2())
    lab, trace = hl.run_cohen_hl(d, d.reachable_pairs())
    assert lab.size == 3 == hl.optimal_hl_bnb(d).upper
    assert hl.verify_cover(lab, d).valid


def test_cohen_empty_target():
    d = hl.all_pairs_distances(edge2())
    lab, trace = hl.run_cohen_hl(d, [])
    assert lab.size == 0 and not trace.iterations


def test_cohen_beats_g_hhl_on_bad_g():
    g = families.gen_bad_g(5)
    d = hl.all_pairs_distances(g)
    clab, _ = hl.run_cohen_hl(d, d.reachable_pairs())
    _, glab, _ = hl.run_g_hhl(d)
    assert clab.size < glab.size
    assert hl.verify_cover(clab, d).valid


def test_cohen_restricted_target_covers_exactly_it():
    g = star_graph(4)
    d = hl.all_pairs_distances(g)
    target = [(1, 2), (1, 3)]
    lab, _ = hl.run_cohen_hl(d, target)
    assert hl.verify_cover(lab, d, pairs=[(1, 2), (1, 3)]).valid
    # pairs outside the target may stay uncovered
    assert not hl.verify_cover(lab, d).valid


def test_cohen_monotone_progress_and_exact_mode():
    for g in seeded_graphs(6, 6, 13100) + [complete_graph(4)]:
        d = hl.all_pairs_distances(g)
        for exact in (False, True):
            lab, trace = hl.run_cohen_hl(d, d.reachable_pairs(), exact_mds=exact)
            assert hl.verify_cover(lab, d).valid
            for rec in trace.iterations:
                assert rec.covered >= 1
                assert rec.uncovered_after == rec.uncovered_before - rec.covered


def test_cohen_exact_mode_within_set_cover_bound():
    for g in seeded_graphs(8, 6, 13200):
        d = hl.all_pairs_distances(g)
        res = hl.optimal_hl_bnb(d, budget=300_000)
        if not res.complete:
            continue
        lab, _ = hl.run_cohen_hl(d, d.reachable_pairs(), exact_mds=True)
        assert lab.size <= (1 + math.log(g.n**2)) * res.upper


def test_cohen_directed():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    lab, trace = hl.run_cohen_hl(d, d.reachable_pairs())
    assert hl.verify_cover(lab, d).valid
    assert trace.order is None


def _cohen_reference_cases():
    """(name, graph, pairs): seeded graphs of both kinds, half of them with
    zero-length arcs, two larger ones and explicit pair subsets."""
    for i, g in enumerate(seeded_graphs(16, 9, 13300)):
        yield f"und-{i}", with_zero_arcs(g, random.Random(i)) if i % 2 else g, None
    for i in range(16):
        g = gen_random_directed(3 + i % 7, i % 6, 3, 13400 + i)
        yield f"dir-{i}", with_zero_arcs(g, random.Random(i)) if i % 2 else g, None
    yield "und-30", families.gen_random(30, 60, 10, 13500), None
    yield "dir-16", gen_random_directed(16, 12, 5, 13501), None
    rng = random.Random(13600)
    for i in range(6):
        g = families.gen_random(8, 12, 3, 13700 + i) if i % 2 else gen_random_directed(7, 5, 3, i)
        g = with_zero_arcs(g, rng) if i % 3 == 0 else g
        subset = [p for p in hl.all_pairs_distances(g).reachable_pairs() if rng.random() < 0.4]
        yield f"subset-{i}", g, subset


def test_cohen_matches_the_eager_reference():
    for name, g, pairs in _cohen_reference_cases():
        d = hl.all_pairs_distances(g)
        for exact in (False, True) if g.n <= 8 else (False,):
            lab, trace = hl.run_cohen_hl(d, pairs, exact_mds=exact)
            want_lab, want_trace = run_cohen_hl_reference(d, pairs, exact_mds=exact)
            assert hl.serialize_labeling(lab) == hl.serialize_labeling(want_lab), (name, exact)
            assert trace.to_dict() == want_trace.to_dict(), (name, exact)


def test_cohen_solves_only_the_centers_a_pick_touched(monkeypatch):
    solves = []
    peel, exact = cohen.mds_peel, oracles.exact_mds
    monkeypatch.setattr(cohen, "mds_peel", lambda cg: solves.append(1) or peel(cg))
    d = hl.all_pairs_distances(families.gen_random(60, 120, 10, 1))
    _, trace = hl.run_cohen_hl(d)
    # Re-solving every live center on every pick takes 3,543 peels.
    assert (len(trace.iterations), len(solves)) == (74, 684)
    monkeypatch.setattr(oracles, "exact_mds", lambda cg: solves.append(cg) or exact(cg))
    solves.clear()
    c5 = hl.Graph(False, 5, [(i, (i + 1) % 5, 1) for i in range(5)])
    hl.run_cohen_hl(hl.all_pairs_distances(families.reduce_vc_directed(c5)), exact_mds=True)
    # Eagerly: 151 calls over 168,124 subsets.
    assert len(solves) == 65 and sum(1 << cg.nonisolated_count for cg in solves) == 164_056
