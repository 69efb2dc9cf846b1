from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest

import hublab as hl
from hublab import families
from hublab.labeling import _cut, hub_labeling

from bruteforce import (
    _label_rows_reference,
    all_pairs_bruteforce,
    gen_random_directed,
    hub_labeling_checked,
    parse_labeling_reference,
    path_vertices_bruteforce,
    query_reference,
    verify_cover_loop,
    with_zero_arcs,
)
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


def test_query_rejects_ids_outside_the_labeling():
    """Any id outside 0..n-1 raises ``LookupError`` as s and as t, and in
    ``hubs``: a negative one does not wrap around to another vertex, and none
    reaches past a row."""
    und = hl.all_pairs_distances(families.gen_random(300, 600, 10, 11))
    labelings = [
        hl.run_g_hhl(und)[1],
        hl.run_g_hhl(hl.all_pairs_distances(families.gen_bad_g(3)))[1],
        hl.Labeling(False, 1, [[(0, 0)]]),
        hl.Labeling(True, 1, [[(0, 0)]], [[(0, 0)]]),
    ]
    assert {lab.directed for lab in labelings} == {False, True}
    for lab in labelings:
        n = lab.n
        for bad in (-n - 1, -n, -n + 1, -1, n, n + 1):
            if 0 <= bad < n:
                continue
            for s, t in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(LookupError):
                    lab.query(s, t)
            with pytest.raises(LookupError):
                lab.hubs(bad)
        assert lab.query(0, 0) == 0 and 0 in lab.hubs(0)


def test_distances_and_ranks_reject_ids_outside_0_to_n_minus_1():
    """``DistMatrix.dist``, ``DistMatrix.finite`` and ``Order.rank`` raise
    ``IndexError`` for every id outside 0..n-1: a negative one does not alias
    the vertex n of its own offset from the end."""
    graphs = [families.gen_random(5, 6, 4, 1), gen_random_directed(5, 8, 4, 1)]
    graphs += [hl.Graph(False, 1, []), hl.Graph(True, 2, [(0, 1, 3)])]
    assert {g.directed for g in graphs} == {False, True}
    for g in graphs:
        d, n = hl.all_pairs_distances(g), g.n
        order = hl.Order(range(1, n + 1))
        for bad in [*range(-n - 1, 0), n, n + 1]:
            for u, v in ((bad, 0), (0, bad), (bad, bad)):
                with pytest.raises(IndexError):
                    d.dist(u, v)
                with pytest.raises(IndexError):
                    d.finite(u, v)
            with pytest.raises(IndexError):
                order.rank(bad)
        assert d.dist(0, 0) == 0 and d.finite(0, 0) and order.rank(n - 1) == n


def test_query_sums_stay_exact_above_2_to_the_53():
    """The one common hub sits at 2^53 - 1 and 2^53 - 2, so the answer is
    2^54 - 3, which float64 cannot hold; either row in turn is the smaller."""
    a, b = 2**53 - 1, 2**53 - 2
    assert float(2**54 - 3) != 2**54 - 3
    short_f = hl.Labeling(True, 3, [[(2, a)], [], []], [[], [(0, 1), (2, b)], []])
    short_b = hl.Labeling(True, 3, [[(1, 1), (2, a)], [], []], [[], [(2, b)], []])
    for lab in (short_f, short_b):
        got = lab.query(0, 1)
        assert type(got) is int and got == 2**54 - 3
        assert lab.query(1, 0) == hl.INF


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
    # Hub 0 still covers (0, 1) on the matrix's distances.
    assert (0, 1) in report.wrong_distance
    assert (0, 1) not in report.uncovered


def test_verify_cover_drop_one_hub_breaks_minimal_labeling():
    d = hl.all_pairs_distances(edge2())
    lab = hl.Labeling(False, 2, [[(0, 0)], [(0, 1), (1, 0)]])
    assert hl.verify_cover(lab, d).valid
    dropped = hl.Labeling(False, 2, [[(0, 0)], [(1, 0)]])
    report = hl.verify_cover(dropped, d)
    assert not report.valid
    assert (0, 1) in report.uncovered
    assert (0, 1) not in report.wrong_distance


def test_hub_distance_of_2_pow_53_refused():
    assert hl.Labeling(False, 1, [[(0, 2**53 - 1)]]).fwd == (((0, 2**53 - 1),),)
    for dd in (2**53, 10**400):
        with pytest.raises(ValueError, match="2\\^53"):
            hl.Labeling(False, 1, [[(0, dd)]])


def _mutants(lab: hl.Labeling, d: hl.DistMatrix, rng: random.Random, count: int):
    """Copies of ``lab`` with dropped entries, stored distances off by one and extra hubs."""
    m = d.matrix
    for _ in range(count):
        sides = [[list(x) for x in lab.fwd]]
        if lab.directed:
            sides.append([list(x) for x in lab.bwd])
        for _ in range(rng.randint(1, 3)):
            side = rng.randrange(len(sides))
            v = rng.randrange(lab.n)
            entries = sides[side][v]
            kind = rng.randrange(3)
            if kind == 0 and entries:
                entries.pop(rng.randrange(len(entries)))
            elif kind == 1 and entries:
                i = rng.randrange(len(entries))
                h, dd = entries[i]
                entries[i] = (h, dd + 1 if dd == 0 or rng.random() < 0.5 else dd - 1)
            else:
                h = rng.randrange(lab.n)
                if h not in {x for x, _ in entries}:
                    true = m[h, v] if side else m[v, h]
                    entries.append((h, int(true) if true != hl.INF else rng.randint(0, 5)))
        yield hl.Labeling(lab.directed, lab.n, *sides)


def _differential_graphs() -> list[hl.Graph]:
    return (
        seeded_graphs(8, 8, 30000)
        + [gen_random_directed(n, n, 3, 30100 + n) for n in (3, 5, 7, 9, 16)]
        + [families.gen_bad_g(k) for k in (2, 3, 4)]
        + [families.gen_bad_w(2), families.gen_separator(3)]
        + [
            hl.Graph(False, 0, []),
            hl.Graph(True, 0, []),
            hl.Graph(False, 1, []),
            hl.Graph(True, 1, []),
            hl.Graph(False, 5, [(0, 1, 0), (1, 2, 1), (2, 3, 0)]),  # zero length, vertex 4 apart
            hl.Graph(True, 4, [(0, 1, 0), (1, 2, 0), (2, 3, 2), (3, 0, 1)]),
            hl.Graph(False, 6, [(0, 1, 1), (2, 3, 2), (3, 4, 0)]),
            hl.Graph(True, 5, [(0, 1, 1), (1, 2, 1), (0, 3, 5), (4, 3, 0)]),
        ]
    )


@pytest.mark.parametrize("index", range(len(_differential_graphs())))
def test_verify_cover_matches_pair_loop(index):
    g = _differential_graphs()[index]
    d = hl.all_pairs_distances(g)
    rng = random.Random(31000 + index)
    n = g.n
    order = list(range(n))
    rng.shuffle(order)
    valid = [hl.canonical_hhl(d, hl.Order.from_sequence(order)), hl.run_g_hhl(d)[1]]
    empty = hl.Labeling(g.directed, n, [[]] * n, [[]] * n if g.directed else None)
    labelings = valid + [empty]
    for lab in valid if n else ():
        labelings.extend(_mutants(lab, d, rng, 12))
    every = [(s, t) for s in range(n) for t in range(n)]
    subsets = [None, [], rng.sample(every, len(every) // 3), every]
    for lab in labelings:
        for pairs in subsets:
            got = hl.verify_cover(lab, d, pairs)
            want = verify_cover_loop(lab, d, pairs)
            assert got.wrong_distance == want.wrong_distance
            assert got.uncovered == want.uncovered
            assert got.violations == want.violations
            assert got.valid == want.valid
            assert got == want
    assert all(hl.verify_cover(lab, d).valid for lab in valid)


def test_cover_report_computes_violations_once():
    wrong, uncovered = ((0, 1), (2, 2), (3, 0)), ((0, 1), (1, 4), (3, 0), (3, 5))
    report = hl.CoverReport(wrong, uncovered)
    assert report.violations == ((0, 1), (1, 4), (2, 2), (3, 0), (3, 5))
    assert report.violations is report.violations
    assert hl.CoverReport((), uncovered).violations == uncovered
    assert hl.CoverReport(wrong, ()).violations == wrong
    assert hl.CoverReport((), ()).violations == ()
    # Unsorted or repeated input still gives the sorted union without repeats.
    assert hl.CoverReport(((3, 0), (0, 1), (3, 0)), [(1, 4), (0, 1)]).violations == (
        (0, 1),
        (1, 4),
        (3, 0),
    )
    # The union is derived: equality, hashing and repr see the two tuples only.
    again = hl.CoverReport(wrong, uncovered)
    assert again == report and hash(again) == hash(report)
    assert hash(report) == hash((wrong, uncovered))
    assert repr(report) == f"CoverReport(wrong_distance={wrong!r}, uncovered={uncovered!r})"
    assert report != hl.CoverReport(uncovered, wrong)


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


def test_hub_labeling_reads_each_side_the_right_way():
    # Random tables over reachable cells: a forward entry of v at hub h must hold
    # dist(v, h) and a backward one dist(h, v), as a Python int. The directed
    # draws must include hubs with dist(v, h) != dist(h, v), or reading one
    # side with the other's orientation would go unnoticed.
    graphs = [gen_random_directed(n, 3, 5, 4200 + n) for n in range(3, 9)]
    graphs += seeded_graphs(6, 7, 4300)
    rng = np.random.default_rng(4400)
    asymmetric = 0
    for g in graphs:
        d = hl.all_pairs_distances(g)
        best = all_pairs_bruteforce(g)
        reach = np.array(best) < math.inf  # [v, h]: h reachable from v
        hub_f = reach & (rng.random(reach.shape) < 0.5)
        hub_b = reach.T & (rng.random(reach.shape) < 0.5) if g.directed else None
        lab = hub_labeling(d, np.nonzero(hub_f), None if hub_b is None else np.nonzero(hub_b))
        assert lab.directed == g.directed
        for v in range(g.n):
            assert [h for h, _ in lab.fwd[v]] == np.flatnonzero(hub_f[v]).tolist()
            assert all(type(dd) is int and dd == best[v][h] for h, dd in lab.fwd[v])
            if g.directed:
                assert [h for h, _ in lab.bwd[v]] == np.flatnonzero(hub_b[v]).tolist()
                assert all(type(dd) is int and dd == best[h][v] for h, dd in lab.bwd[v])
                asymmetric += sum(best[v][h] != best[h][v] for h, _ in lab.fwd[v])
    assert asymmetric > 0


def test_hub_labeling_equals_the_checked_assembly():
    # Random tables over reachable cells, with whole rows left empty; their
    # entries, each given twice and all shuffled, must build the checked
    # row-by-row constructor's labeling to the byte and hash alike, with every
    # entry a Python int.
    graphs = [hl.Graph(False, 0, []), hl.Graph(True, 0, []), hl.Graph(False, 1, [])]
    graphs += [hl.Graph(True, 1, []), edge2(), hl.Graph(True, 2, [(0, 1, 0)])]
    graphs += [gen_random_directed(n, 4, 5, 4500 + n) for n in range(3, 10)]
    graphs += seeded_graphs(8, 9, 4600)
    graphs += [with_zero_arcs(g, random.Random(i)) for i, g in enumerate(graphs[6:])]
    rng = np.random.default_rng(4700)

    def shuffled(table):
        own, hub = np.nonzero(table)
        at = rng.permutation(np.tile(np.arange(own.size), 2))
        return own[at], hub[at]

    for g in graphs:
        d = hl.all_pairs_distances(g)
        reach = d.exact().T < d.unreachable  # [v, h]: h reachable from v
        for density in (0.0, 0.3, 1.0):
            keep = rng.random((g.n, 1)) < 0.7  # the other rows stay empty
            hub_f = reach & keep & (rng.random(reach.shape) < density)
            hub_b = reach.T & (rng.random(reach.shape) < density) if g.directed else None
            lab = hub_labeling(d, shuffled(hub_f), None if hub_b is None else shuffled(hub_b))
            ref = hub_labeling_checked(d, hub_f, hub_b)
            assert lab == ref and hash(lab) == hash(ref)
            assert hl.serialize_labeling(lab) == hl.serialize_labeling(ref)
            sides = (lab.fwd, lab.bwd) if g.directed else (lab.fwd,)
            assert all(len(side) == g.n for side in sides)
            assert all(type(x) is int for side in sides for row in side for e in row for x in e)


@pytest.mark.parametrize("directed", [False, True])
@pytest.mark.parametrize("owner", [-1, 3])
def test_entries_with_an_owner_out_of_range_raise(directed, owner):
    # Owner -1 used to read vertex n-1's distances and owner n to raise
    # IndexError in hub_labeling; the store itself dropped such an entry.
    d = hl.all_pairs_distances(hl.Graph(directed, 3, [(0, 1, 1), (1, 2, 1)]))
    side = ([0, owner], [0, 0], [0, 1])
    with pytest.raises(ValueError, match=f"entry 1: vertex {owner} out of range"):
        hl.Labeling._from_entries(directed, 3, side, side if directed else None)
    good = ([0], [0])
    with pytest.raises(ValueError, match=f"forward entry 1: vertex {owner} or hub 0 out of range"):
        hub_labeling(d, ([0, owner], [0, 0]), good if directed else None)
    with pytest.raises(ValueError, match=f"forward entry 0: vertex 0 or hub {owner} out of range"):
        hub_labeling(d, ([0], [owner]), good if directed else None)
    if directed:
        with pytest.raises(ValueError, match=f"backward entry 0: vertex {owner} or hub 1 out of range"):
            hub_labeling(d, good, ([owner], [1]))


@pytest.mark.parametrize("directed", [False, True])
def test_hub_labeling_refuses_unreachable_hubs(directed):
    d = hl.all_pairs_distances(hl.Graph(directed, 3, [(0, 1, 2)]))
    if directed:  # 1 is unreachable from 2, and 2 from 0
        with pytest.raises(ValueError, match="forward entry 1: hub 1 of vertex 2 is unreachable"):
            hub_labeling(d, ([0, 2], [0, 1]), ([0], [0]))
        with pytest.raises(ValueError, match="backward entry 0: hub 0 of vertex 2 is unreachable"):
            hub_labeling(d, ([0], [0]), ([2], [0]))
        assert hub_labeling(d, ([0], [1]), ([1], [0])).fwd[0] == ((1, 2),)
    else:
        with pytest.raises(ValueError, match="forward entry 0: hub 0 of vertex 2 is unreachable"):
            hub_labeling(d, ([2, 0], [0, 1]))
        assert hub_labeling(d, ([2, 0], [2, 1])).fwd[0] == ((1, 2),)


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


def _reference_rows(lab: hl.Labeling):
    """(directed, n, fwd, bwd) of ``lab`` by the tuple parser, from its label file."""
    if not lab.n:  # a file with no lines cannot name its kind
        return lab.directed, 0, (), ()
    return parse_labeling_reference(hl.serialize_labeling(lab))


def test_flat_store_matches_the_tuple_rows():
    """CSR arrays, row views, equality, hashing and queries against tuple rows
    parsed by the reference, on labelings of both kinds: valid ones, with
    unreachable pairs, zero-length arcs and n = 0 and 1, and their mutants."""
    rng = random.Random(2200)
    graphs = _differential_graphs()
    graphs += [with_zero_arcs(g, rng) for g in graphs if g.n > 2][:8]
    kinds, unreachable, checked = set(), 0, 0
    for g in graphs:
        d = hl.all_pairs_distances(g)
        order = hl.Order.from_sequence(rng.sample(range(g.n), g.n))
        valid = [hl.run_g_hhl(d)[1], hl.canonical_hhl(d, order)]
        labelings = valid + [m for lab in valid[: bool(g.n)] for m in _mutants(lab, d, rng, 4)]
        refs = [_reference_rows(lab) for lab in labelings]
        for k, (lab, (directed, n, fwd, bwd)) in enumerate(zip(labelings, refs)):
            assert (lab.directed, lab.n) == (directed, n)
            assert lab.fwd == fwd and lab.bwd == bwd
            assert (lab.bwd_csr is lab.fwd_csr) != lab.directed
            for ptr, hub, dist in (lab.fwd_csr, lab.bwd_csr):
                assert {a.dtype for a in (ptr, hub, dist)} == {np.dtype(np.int64)}
                assert ptr[0] == 0 and ptr[-1] == hub.size == dist.size and ptr.size == n + 1
                assert (np.diff(ptr) >= 0).all()
                for row in _cut(ptr, hub.tolist()):
                    assert all(a < b for a, b in zip(row, row[1:]))
            # The incumbent hub sets of ``optimal_hl_bnb``, read from the arrays.
            assert [set(r) for r in _cut(lab.fwd_csr[0], lab.fwd_csr[1].tolist())] == [
                {h for h, _ in row} for row in fwd
            ]
            rebuilt = hl.Labeling(directed, n, fwd, bwd if directed else None)
            assert rebuilt == lab and hash(rebuilt) == hash(lab)
            if n:
                assert hl.parse_labeling(hl.serialize_labeling(lab)) == lab
            for s in range(n):
                for t in range(n):
                    assert lab.query(s, t) == query_reference(fwd, bwd, s, t)
                    if k < len(valid):
                        assert lab.query(s, t) == d.dist(s, t)
                        unreachable += lab.query(s, t) == hl.INF
            checked += 1
            kinds.add(lab.directed)
        for a, ra in zip(labelings, refs):
            for b, rb in zip(labelings, refs):
                assert (a == b) == (ra == rb)
                if a == b:
                    assert hash(a) == hash(b)
    assert kinds == {False, True} and unreachable > 50 and checked > 150


def test_label_store_is_read_only():
    """Every way a labeling is made leaves its arrays read-only, since its hash
    and its cached row and query views are built from them."""
    made = []
    for g in (families.gen_bad_g(3), gen_random_directed(7, 7, 3, 30107), hl.Graph(False, 1, [])):
        d = hl.all_pairs_distances(g)
        lab = hl.run_g_hhl(d)[1]
        fwd, bwd = lab.fwd, lab.bwd if lab.directed else None
        made += [lab, hl.canonical_hhl(d, hl.Order(range(1, g.n + 1)))]
        made.append(hl.Labeling(g.directed, g.n, fwd, bwd))
        made.append(hl.parse_labeling(hl.serialize_labeling(lab)))
    for lab in made:
        before = (hash(lab), lab.fwd, lab.bwd, lab.query(0, 0))
        for a in lab.fwd_csr + lab.bwd_csr:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 7
        assert (hash(lab), lab.fwd, lab.bwd, lab.query(0, 0)) == before


def test_labeling_rows_are_checked_as_the_reference_checks_them():
    rng = random.Random(2201)
    big = [-1, 2**53 - 1, 2**53, 2**63, -(2**63) - 1, 10**40]
    outcomes = set()

    def value(hi):
        return rng.choice(big) if rng.random() < 0.05 else rng.randint(0, hi)

    for _ in range(400):
        n = rng.randint(0, 4)
        rows = [
            [(value(n), value(3)) for _ in range(rng.randint(0, 4))] for _ in range(n)
        ]
        for row in rows:
            if row and rng.random() < 0.3:
                row.append(row[0])  # an exact repeat
        if rng.random() < 0.2:
            rows = [dict(row) for row in rows]
        try:
            want = _label_rows_reference(n, rows)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                hl.Labeling(False, n, rows)
            if all(abs(x) < 2**63 for row in rows for e in dict(row).items() for x in e):
                assert str(got.value) == str(exc)
            outcomes.add(re.sub(r"-?\d+", "#", str(exc).split(": ", 1)[1]))
            continue
        assert hl.Labeling(False, n, rows).fwd == want
        gens = [(e for e in (r.items() if isinstance(r, dict) else r)) for r in rows]
        assert hl.Labeling(True, n, rows, gens).bwd == want
        outcomes.add("ok")
    assert outcomes == {
        "ok",
        "duplicate hub with conflicting distances",
        "hub # out of range",
        "negative hub distance",
        "hub distance reaches #^#, above any distance",
    }


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
        "l 0 0:9007199254740992\n",  # hub distance 2^53
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
