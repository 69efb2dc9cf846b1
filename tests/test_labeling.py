from __future__ import annotations

import random

import pytest

import hublab as hl
from hublab import families

from bruteforce import gen_random_directed, path_vertices_bruteforce
from conftest import edge2, seeded_graphs


def test_order_validation_and_access():
    pi = hl.Order.from_sequence([2, 0, 1])
    assert pi.rank(2) == 1 and pi.by_rank() == [2, 0, 1]
    with pytest.raises(ValueError):
        hl.Order([1, 1, 2])
    for bad in ([0, 1, 7], [0, -1, 1], [0, 1, 1]):
        with pytest.raises(ValueError):
            hl.Order.from_sequence(bad)


def test_query_trivial_cases():
    single = hl.Labeling(False, 1, [[(0, 0)]])
    assert single.query(0, 0) == 0
    lab = hl.Labeling(False, 2, [[(0, 0)], [(0, 1), (1, 0)]])
    assert lab.query(0, 1) == 1
    assert lab.query(1, 1) == 0
    empty = hl.Labeling(False, 2, [[], []])
    assert empty.query(0, 1) == hl.INF


def test_query_bad_g_after_greedy():
    g = families.gen_bad_g(3)
    ids = families.bad_g_ids(3)
    d = hl.all_pairs_distances(g)
    _, lab, _ = hl.run_g_hhl(d)
    assert lab.query(ids.a[0], ids.c_id(1, 1)) == d.dist(ids.a[0], ids.c_id(1, 1)) == 2
    assert lab.query(ids.c_id(1, 1), ids.a[0]) == hl.INF


def test_labeling_size_examples():
    assert hl.labeling_size(hl.Labeling(False, 1, [[(0, 0)]])) == 1
    g = families.gen_bad_g(3)
    d = hl.all_pairs_distances(g)
    _, lab, _ = hl.run_g_hhl(d)
    # per-label sums of the greedy order's canonical labeling:
    # a: 1+1, b: 1+(k+1), c: 1+(k+2)
    k = 3
    assert lab.size == 2 * k + (k + 1) * (k + 2) + k * (k + 1) * (k + 3) == 98
    ids = families.bad_g_ids(3)
    better = hl.Order.from_sequence(list(ids.b) + list(ids.a) + list(ids.c))
    blab = hl.canonical_hhl(d, better)
    assert blab.size == k * (k + 3) + 2 * (k + 1) + 3 * k * (k + 1) == 62


def test_verify_cover_empty_labeling_on_edge():
    d = hl.all_pairs_distances(edge2())
    report = hl.verify_cover(hl.Labeling(False, 2, [[], []]), d)
    assert not report.valid
    assert report.violations == ((0, 0), (0, 1), (1, 1))


def test_verify_cover_flags_wrong_stored_distance():
    d = hl.all_pairs_distances(edge2())
    lab = hl.Labeling(False, 2, [[(0, 0)], [(0, 7), (1, 0)]])
    report = hl.verify_cover(lab, d)
    assert not report.valid
    assert (0, 1) in report.violations


def test_verify_cover_drop_one_hub_breaks_minimal_labeling():
    d = hl.all_pairs_distances(edge2())
    lab = hl.Labeling(False, 2, [[(0, 0)], [(0, 1), (1, 0)]])
    assert hl.verify_cover(lab, d).valid
    dropped = hl.Labeling(False, 2, [[(0, 0)], [(1, 0)]])
    assert not hl.verify_cover(dropped, d).valid


def test_canonical_c4():
    c4 = families.gen_cycle4(False)
    d = hl.all_pairs_distances(c4)
    lab = hl.canonical_hhl(d, hl.Order.from_sequence([0, 1, 2, 3]))
    assert lab.size == 9
    assert [h for h, _ in lab.fwd[2]] == [0, 1, 2]
    assert hl.verify_cover(lab, d).valid


def test_canonical_bad_g_better_order_label_sizes():
    k = 3
    g = families.gen_bad_g(k)
    ids = families.bad_g_ids(k)
    d = hl.all_pairs_distances(g)
    order = hl.Order.from_sequence(list(ids.b) + list(ids.a) + list(ids.c))
    lab = hl.canonical_hhl(d, order)
    for a in ids.a:
        assert len(lab.fwd[a]) == k + 2
        assert len(lab.bwd[a]) == 1


def test_canonical_contains_self_everywhere():
    for g in seeded_graphs(6, 7, 8000):
        d = hl.all_pairs_distances(g)
        pi = hl.Order.from_sequence(list(range(g.n)))
        lab = hl.canonical_hhl(d, pi)
        for v in range(g.n):
            assert (v, 0) in lab.fwd[v]


def test_canonical_matches_independent_hub_rule():
    # Recompute hubs from brute-force path sets and compare entry for entry.
    g = families.gen_random(6, 8, 2, 9100)
    d = hl.all_pairs_distances(g)
    pi = hl.Order.from_sequence([3, 0, 5, 1, 4, 2])
    lab = hl.canonical_hhl(d, pi)
    expect: list[dict[int, int]] = [dict() for _ in range(g.n)]
    for u in range(g.n):
        for w in range(u, g.n):
            if not d.finite(u, w):
                continue
            hub = min(path_vertices_bruteforce(g, u, w), key=pi.rank)
            expect[u][hub] = d.dist(u, hub)
            expect[w][hub] = d.dist(w, hub)
    assert lab == hl.Labeling(False, g.n, expect)


def test_respects_order():
    c4 = families.gen_cycle4(False)
    d = hl.all_pairs_distances(c4)
    pi = hl.Order.from_sequence([0, 1, 2, 3])
    assert hl.respects_order(hl.canonical_hhl(d, pi), pi)
    lab = hl.Labeling(False, 2, [[(0, 0), (1, 1)], [(1, 0)]])
    assert not hl.respects_order(lab, hl.Order.from_sequence([0, 1]))
    g = families.gen_bad_g(2)
    dg = hl.all_pairs_distances(g)
    order, glab, _ = hl.run_g_hhl(dg)
    assert hl.respects_order(glab, order)


def test_is_sublabeling():
    d = hl.all_pairs_distances(families.gen_cycle4(False))
    a = hl.canonical_hhl(d, hl.Order.from_sequence([0, 1, 2, 3]))
    assert hl.is_sublabeling(a, a)
    b = hl.canonical_hhl(d, hl.Order.from_sequence([2, 3, 0, 1]))
    assert not hl.is_sublabeling(a, b)


def _extend_with_rank_respecting_hubs(lab, d, pi, rng):
    fwd = [dict(lst) for lst in lab.fwd]
    bwd = [dict(lst) for lst in lab.bwd] if lab.directed else fwd
    for v in range(lab.n):
        for h in range(lab.n):
            if pi.rank(h) > pi.rank(v):
                continue
            if d.finite(v, h) and rng.random() < 0.3:
                fwd[v][h] = d.dist(v, h)
            if lab.directed and d.finite(h, v) and rng.random() < 0.3:
                bwd[v][h] = d.dist(h, v)
    if lab.directed:
        return hl.Labeling(True, lab.n, fwd, bwd)
    return hl.Labeling(False, lab.n, fwd)


def test_canonical_minimality_under_extension():
    rng = random.Random(42)
    graphs = seeded_graphs(10, 8, 9200) + [gen_random_directed(5, 3, 2, 9300)]
    for g in graphs:
        d = hl.all_pairs_distances(g)
        for _ in range(4):
            seq = list(range(g.n))
            rng.shuffle(seq)
            pi = hl.Order.from_sequence(seq)
            lab = hl.canonical_hhl(d, pi)
            assert hl.verify_cover(lab, d).valid
            assert hl.respects_order(lab, pi)
            ext = _extend_with_rank_respecting_hubs(lab, d, pi, rng)
            assert hl.verify_cover(ext, d).valid
            assert hl.is_sublabeling(lab, ext)


def test_query_soundness_when_cover_holds():
    g = gen_random_directed(6, 4, 3, 9400)
    d = hl.all_pairs_distances(g)
    lab = hl.canonical_hhl(d, hl.Order.from_sequence(list(range(g.n))))
    assert hl.verify_cover(lab, d).valid
    for s in range(g.n):
        for t in range(g.n):
            if d.finite(s, t):
                assert lab.query(s, t) == d.dist(s, t)
            else:
                assert lab.query(s, t) == hl.INF


def test_label_file_round_trip():
    g = families.gen_bad_g(2)
    d = hl.all_pairs_distances(g)
    _, lab, _ = hl.run_g_hhl(d)
    text = hl.serialize_labeling(lab)
    assert hl.parse_labeling(text) == lab
    und = hl.canonical_hhl(
        hl.all_pairs_distances(families.gen_cycle4(False)),
        hl.Order.from_sequence([0, 1, 2, 3]),
    )
    assert hl.parse_labeling(hl.serialize_labeling(und)) == und


@pytest.mark.parametrize(
    "text",
    [
        "l 0\nf 1 1:0\n",          # mixed sides
        "l 0\nl 0\n",              # duplicate line
        "l 0\nl 2\n",              # gap in vertex ids
        "f 0\n",                   # missing backward side
        "l 0 5:1\n",               # hub out of range
        "x 0\n",                   # unknown tag
        "",                        # empty
    ],
)
def test_label_file_parse_errors(text):
    with pytest.raises(hl.LabelFormatError):
        hl.parse_labeling(text)


def test_greedy_outputs_equal_canonical_of_produced_order():
    instances = [
        families.gen_bad_g(2),
        families.gen_bad_w(2),
        families.gen_separator(3),
        families.gen_cycle4(True),
    ] + seeded_graphs(6, 7, 9500)
    for g in instances:
        d = hl.all_pairs_distances(g)
        for run in (hl.run_g_hhl, hl.run_w_hhl, hl.run_d_hhl):
            order, lab, _ = run(d)
            assert lab == hl.canonical_hhl(d, order)
