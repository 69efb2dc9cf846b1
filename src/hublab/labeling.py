"""Hub labelings: data model, distance queries, cover verification, canonical construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graphs import INF, MAX_TOTAL_LENGTH, DistMatrix, as_int, pair_arrays, pair_blocks
from .graphs import path_membership, ranges, run_starts, transpose, unique_pairs


class LabelFormatError(ValueError):
    """Malformed label file input."""


class Order:
    """Total importance order over vertices 0..n-1; rank 1 is the most important."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        ranks = tuple(map(as_int, ranks))
        if sorted(ranks) != list(range(1, len(ranks) + 1)):
            raise ValueError("ranks must be a permutation of 1..n")
        self._ranks = ranks

    @classmethod
    def from_sequence(cls, vertices) -> "Order":
        """Build from vertices listed most-important-first."""
        vertices = [as_int(v) for v in vertices]
        n = len(vertices)
        ranks = [0] * n
        for pos, v in enumerate(vertices):
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} out of range for an order of {n} vertices")
            if ranks[v]:
                raise ValueError(f"vertex {v} listed twice")
            ranks[v] = pos + 1
        return cls(ranks)

    @property
    def n(self) -> int:
        return len(self._ranks)

    def rank(self, v: int) -> int:
        if v < 0:  # a tuple would count it from the end
            raise IndexError(f"vertex {v} out of range for an order of {self.n} vertices")
        return self._ranks[v]

    def by_rank(self) -> list[int]:
        """Vertices most-important-first."""
        return sorted(range(self.n), key=self._ranks.__getitem__)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Order):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self) -> int:
        return hash(self._ranks)

    def __repr__(self) -> str:
        return f"Order({list(self._ranks)})"


def _csr(n: int, own, hub, dist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One side as CSR arrays ``(ptr, hub, dist)`` from its entries' vertices,
    hubs and distances, ints in any order: sorted by (vertex, hub), repeats of
    an entry dropped. The first entry with a vertex outside 0..n-1 raises
    ``ValueError``; so does, next, the first vertex with a hub at two
    distances, or else with a hub out of range, a negative distance or one
    from 2^53 on."""
    try:
        own, hub, dist = (np.array(x, np.int64) for x in (own, hub, dist))
    except OverflowError:  # an int beyond int64 is out of range anyway: clamp it
        return _csr(n, *([min(max(x, -(2**62)), 2**62) for x in xs] for xs in (own, hub, dist)))
    out = np.flatnonzero((own < 0) | (own >= n))
    if out.size:
        raise ValueError(f"entry {out[0]}: vertex {own[out[0]]} out of range")
    at = np.lexsort((hub, own))  # a hub's entries in one row end up adjacent
    own, hub, dist = own[at], hub[at], dist[at]
    first = run_starts(own, hub)  # the first entry of its (vertex, hub)
    keep = first.copy()
    keep[1:] |= dist[1:] != dist[:-1]
    own, hub, dist, first = own[keep], hub[keep], dist[keep], first[keep]
    bad = (hub < 0) | (hub >= n) | (dist < 0) | (dist >= MAX_TOTAL_LENGTH)
    if bad.any() or not first.all():
        v = own[np.argmax(bad | ~first)]
        if not first[own == v].all():
            raise ValueError(f"vertex {v}: duplicate hub with conflicting distances")
        i = np.argmax(bad & (own == v))
        if not 0 <= hub[i] < n:
            raise ValueError(f"vertex {v}: hub {hub[i]} out of range")
        if dist[i] < 0:
            raise ValueError(f"vertex {v}: negative hub distance")
        raise ValueError(f"vertex {v}: hub distance reaches 2^53, above any distance")
    ptr = np.searchsorted(own, np.arange(n + 1))
    for a in (ptr, hub, dist):
        a.flags.writeable = False  # a Labeling's hash and cached views rely on it
    return ptr, hub, dist


def _rows_csr(n: int, rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_csr`` of n rows, each an iterable of ``(hub, dist)`` pairs or a dict."""
    if len(rows) != n:
        raise ValueError(f"expected {n} label lists, got {len(rows)}")
    pairs = (r.items() if isinstance(r, dict) else r for r in rows)
    entries = [(v, as_int(h), as_int(dd)) for v, row in enumerate(pairs) for h, dd in row]
    return _csr(n, *(zip(*entries) if entries else ((), (), ())))


def _cut(ptr: np.ndarray, items: list) -> list[list]:
    """``items``, one per entry of a side, cut into its vertices' rows."""
    ends = ptr.tolist()
    return [items[a:b] for a, b in zip(ends, ends[1:])]


class Labeling:
    """Per-vertex hub lists with exact distances, in one flat store; immutable.

    Each side is read-only int64 CSR arrays ``(ptr, hub, dist)``: v's label is the slice
    ``ptr[v]:ptr[v + 1]``, hubs strictly increasing. Directed labelings keep a
    forward side ``fwd_csr`` and a backward side ``bwd_csr``; undirected ones
    one side in both roles. Rows given to the constructor (n iterables of
    ``(hub, dist)`` pairs, or dicts, per side), a parsed file and the entries
    ``hub_labeling`` assembles all reach the arrays through ``_csr``'s checks.
    ``query`` and ``hubs`` read one hub -> dist dict per vertex and side, built on
    first read; ``fwd[v]`` / ``bwd[v]`` are those rows as ``(hub, dist)`` tuples.
    """

    def __init__(self, directed: bool, n: int, fwd, bwd=None):
        self.directed, self.n = bool(directed), n
        self.fwd_csr = self.bwd_csr = _rows_csr(n, fwd)
        if self.directed:
            if bwd is None:
                raise ValueError("directed labeling requires backward lists")
            self.bwd_csr = _rows_csr(n, bwd)
        elif bwd is not None:
            raise ValueError("undirected labeling stores a single list per vertex")

    @classmethod
    def _from_entries(cls, directed: bool, n: int, fwd, bwd=None) -> "Labeling":
        """A labeling from each side's entries ``(vertices, hubs, distances)``,
        sorted and checked by ``_csr``; an undirected labeling has one side."""
        lab = cls.__new__(cls)
        lab.directed, lab.n = directed, n
        lab.fwd_csr = lab.bwd_csr = _csr(n, *fwd)
        if directed:
            lab.bwd_csr = _csr(n, *bwd)
        return lab

    def _sides(self) -> tuple:
        return (self.fwd_csr, self.bwd_csr) if self.directed else (self.fwd_csr,)

    @cached_property
    def fwd(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        return tuple(tuple(row.items()) for row in self._maps[0].values())

    @cached_property
    def bwd(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        rows = self._maps[1].values()
        return tuple(tuple(row.items()) for row in rows) if self.directed else self.fwd

    @cached_property
    def _maps(self) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]]]:
        """The forward and backward sides as ``{v: {hub: dist}}`` for ``query`` and
        ``hubs``; an undirected labeling's one side serves in both roles."""
        maps = []
        for ptr, hub, dist in self._sides():
            rows = map(zip, _cut(ptr, hub.tolist()), _cut(ptr, dist.tolist()))
            maps.append(dict(enumerate(map(dict, rows))))
        return maps[0], maps[-1]

    @property
    def size(self) -> int:
        """Total hub count; undirected lists are counted once."""
        return sum(hub.size for _, hub, _ in self._sides())

    def hubs(self, v: int) -> set[int]:
        return {h for side in self._maps for h in side[v]}

    def query(self, s: int, t: int) -> int | float:
        """Minimum hubdist sum over common hubs of L_f(s) and L_b(t); INF if none.

        Each hub of the smaller row is looked up in the other's hub -> dist map
        (``_maps``): min(|L_f(s)|, |L_b(t)|) hash probes, with exact int sums.
        An id outside 0..n-1 is no key of ``_maps``, so it raises ``LookupError``."""
        fwd, bwd = self._maps
        f, b = fwd[s], bwd[t]
        if len(f) > len(b):
            f, b = b, f
        best = INF
        for h in f:
            if h in b:
                x = f[h] + b[h]
                if x < best:
                    best = x
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        mine, theirs = self.fwd_csr + self.bwd_csr, other.fwd_csr + other.bwd_csr
        return (self.directed, self.n) == (other.directed, other.n) and all(
            map(np.array_equal, mine, theirs)
        )

    def __hash__(self) -> int:
        return hash((self.directed, self.n, *(a.tobytes() for s in self._sides() for a in s)))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Labeling({kind}, n={self.n}, size={self.size})"


@dataclass(frozen=True)
class CoverReport:
    """Result of cover verification, as two sorted tuples of pairs.

    ``wrong_distance`` holds the pairs a stored hub distance claims to certify
    but gets wrong; ``uncovered`` holds the pairs with no common hub on a
    shortest path. A pair can be in both. ``violations``, their sorted union
    without repeats, is computed once when the report is made and takes no
    part in equality.
    """

    wrong_distance: tuple[tuple[int, int], ...]
    uncovered: tuple[tuple[int, int], ...]
    violations: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        union = tuple(sorted(set(self.wrong_distance).union(self.uncovered)))
        object.__setattr__(self, "violations", union)

    @property
    def valid(self) -> bool:
        return not (self.wrong_distance or self.uncovered)


def verify_cover(l: Labeling, d: DistMatrix, pairs=None) -> CoverReport:
    """Check the cover property against exact distances.

    Each stored entry (h, dd) in a label of v is audited against ``d``; a wrong
    one, or one for an unreachable pair, marks the pair it claims to certify. A
    pair [s,t] is uncovered when no common hub lies on a shortest s-t path by
    the distances of ``d``, so a wrong stored distance can neither hide nor
    fake a cover. Restricting ``pairs`` checks cover for that subset only:
    repeated and reversed pairs count once, unreachable ones are skipped, and
    the first pair with an id outside 0..n-1 raises ``ValueError``.
    """
    if l.directed != d.directed or l.n != d.n:
        raise ValueError("labeling and distance matrix disagree on shape")
    pairs = None if pairs is None else pair_arrays(d, pairs)
    into, far = d.exact(), d.unreachable
    wrong = []
    for k, (ptr, hub, dist) in enumerate(l._sides()):
        own = np.repeat(np.arange(l.n), np.diff(ptr))
        s, t = (hub, own) if k else (own, hub)  # the pair an entry certifies
        bad = (into[s, t] != dist) | (dist >= far)
        wrong.append((s[bad], t[bad]))
    return CoverReport(
        _sorted_pairs(l.directed, wrong), _sorted_pairs(l.directed, _uncovered(l, d, pairs))
    )


def _uncovered(l: Labeling, d: DistMatrix, pairs):
    """The uncovered pairs as chunks (sources, targets), by a join over runs of sources.

    Each forward entry (s, h), in owner order, meets the backward entries (h, t)
    of its hub (``transpose``d, owners ascending), t >= s when undirected. A
    triple covers [s, t] when dist(s, h) + dist(h, t) == dist(s, t) in
    ``d.exact()``, where a leg to an unreachable hub, D + 1, matches nothing.
    A source weighs its triples (at most B, the backward entries) plus its n
    cells, and a run of ``d.source_runs(pairs)`` at least B + n. The run's
    ``todo``, its reachable pairs (of ``pairs``, if given), loses those its
    triples cover; a run holding none of ``pairs`` is never read.
    """
    into, n = d.exact(), l.n
    fptr, fhub, _ = l.fwd_csr
    bptr, t_of = transpose(*l.bwd_csr[:2], n)
    own = np.repeat(np.arange(n), np.diff(fptr))  # the owner s of each forward entry
    leg_f = into[own, fhub]  # dist(s, h)
    leg_b = into[np.repeat(np.arange(n), np.diff(bptr)), t_of]  # dist(h, t)
    # Per forward entry: its first hub-major partner and how many it has; undirected,
    # the side meets itself from the entry's own place on, as a stable sort by hub.
    first = bptr[fhub]
    if not l.directed:
        first[np.argsort(fhub, kind="stable")] = np.arange(fhub.size)
    count = bptr[fhub + 1] - first
    weight = np.concatenate(([0], np.cumsum(count)))[fptr] + np.arange(n + 1) * n
    for a, rows, todo in d.source_runs(pairs, weight, t_of.size + n):
        lo, hi = fptr[a], fptr[a + len(rows)]
        reps = count[lo:hi]
        j = ranges(first[lo:hi], reps)  # each triple's backward partner
        cell = np.repeat((own[lo:hi] - a) * n, reps) + t_of[j]
        on_path = np.repeat(leg_f[lo:hi], reps) + leg_b[j] == rows.reshape(-1)[cell]
        todo.reshape(-1)[cell[on_path]] = False
        s, t = np.divmod(np.flatnonzero(todo), n)  # 2-D nonzero is 10x slower
        yield s + a, t


def _sorted_pairs(directed: bool, chunks) -> tuple[tuple[int, int], ...]:
    """Distinct pairs from chunks ``(sources, targets)``, canonical u <= w when undirected."""
    us, ws = (np.concatenate(x) for x in zip((np.empty(0, np.int64),) * 2, *chunks))
    return tuple(zip(*(x.tolist() for x in unique_pairs(directed, us, ws))))


def canonical_hhl(d: DistMatrix, pi: Order) -> Labeling:
    """Canonical hierarchical labeling for an order.

    The hub of each reachable pair, from one pass of ``d.source_runs``, is the
    most important vertex on its shortest paths; the result respects ``pi``
    and is the minimum labeling doing so. The hub h of [u, w] is the hub of
    [u, h] and [h, w] too, their shortest paths being parts of shortest u-w
    paths; so a pair gives an entry exactly at each end that is its hub, and
    each entry comes once.
    """
    n = d.n
    if pi.n != n:
        raise ValueError("order and distance matrix disagree on n")
    # n at rank 1 down to 1 (< 2^15): a table row times it peaks at the row's hub.
    weight = (n + 1 - np.array(pi._ranks, np.int64)).astype(np.int16)
    chunks = [(np.zeros(0, np.uint16),) * 4]  # forward owners and hubs, backward owners and hubs
    for a, rows, fin in d.source_runs():
        us, ws = np.divmod(np.flatnonzero(fin), n)
        hub = [np.zeros(0, np.intp)]  # of each pair
        for lo, hi in pair_blocks(len(ws), n):
            hub.append((path_membership(d, rows[us[lo:hi]], ws[lo:hi]) * weight).argmax(axis=1))
        hub = np.concatenate(hub)
        us, ws = (us + a).astype(np.uint16), ws.astype(np.uint16)  # n <= MAX_VERTICES < 2^16
        chunks.append((us[hub == ws], ws[hub == ws], ws[hub == us], us[hub == us]))
    fwd_u, fwd_h, bwd_u, bwd_h = (np.concatenate(x) for x in zip(*chunks))
    if d.directed:
        return hub_labeling(d, (fwd_u, fwd_h), (bwd_u, bwd_h))
    return hub_labeling(d, (np.concatenate((fwd_u, bwd_u)), np.concatenate((fwd_h, bwd_h))))


def hub_labeling(d: DistMatrix, fwd, bwd=None) -> Labeling:
    """Labeling from hub entries, each hub at its exact distance: the one reader
    of label distances from ``d``.

    A side is a pair of int arrays ``(owners, hubs)``: entry i puts ``hubs[i]``
    in the forward label of ``owners[i]`` at dist(owner, hub) for ``fwd``, in
    its backward label at dist(hub, owner) for ``bwd``; an undirected labeling
    has only ``fwd``, and a side count that does not fit ``d`` raises
    ``ValueError``. Entries come in any order and may repeat: ``_csr`` sorts
    and checks them as it does a parsed file's. A side not of an int dtype
    (unless empty) raises ``ValueError``, as does its first entry with an
    owner or hub outside 0..n-1 or with its hub unreachable along the side.
    """
    if (bwd is None) == d.directed:
        raise ValueError("a directed labeling takes two sides, an undirected one a single side")
    sides = []
    for name, side in zip(("forward", "backward"), (fwd, bwd)[: 1 + d.directed]):
        if any(np.size(x) and np.asarray(x).dtype.kind not in "iu" for x in side):
            raise ValueError(f"{name} entries hold an owner or hub that is not an int")
        own, hub = (np.asarray(x, np.int64) for x in side)
        out = np.flatnonzero((own < 0) | (own >= d.n) | (hub < 0) | (hub >= d.n))
        if out.size:
            i = out[0]
            raise ValueError(f"{name} entry {i}: vertex {own[i]} or hub {hub[i]} out of range")
        dist = d.exact()[(own, hub) if name == "forward" else (hub, own)]
        far = np.flatnonzero(dist == d.unreachable)
        if far.size:
            i = far[0]
            raise ValueError(f"{name} entry {i}: hub {hub[i]} of vertex {own[i]} is unreachable")
        sides.append((own, hub, dist))
    return Labeling._from_entries(d.directed, d.n, *sides)


def serialize_labeling(l: Labeling) -> str:
    """Deterministic text form: one line per vertex per side, hubs ascending."""

    def lines(tag: str, side: tuple) -> list[str]:
        ptr, hub, dist = side
        rows = _cut(ptr, [f"{h}:{dd}" for h, dd in zip(hub.tolist(), dist.tolist())])
        return [" ".join([tag, str(v), *row]) for v, row in enumerate(rows)]

    if l.directed:
        out = [x for pair in zip(lines("f", l.fwd_csr), lines("b", l.bwd_csr)) for x in pair]
    else:
        out = lines("l", l.fwd_csr)
    return "\n".join(out) + "\n"


def parse_labeling(text: str) -> Labeling:
    """Parse the label file format produced by :func:`serialize_labeling`.

    Entries go straight into flat lists of ints, one pair per ``h:d`` token,
    and from them into the CSR store through the checks rows get in ``Labeling``.
    """
    seen: dict[str, set[int]] = {"f": set(), "b": set(), "l": set()}
    entries = {tag: ([], [], []) for tag in seen}  # per side: vertices, hubs, distances
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if parts[0] not in seen or len(parts) < 2:
            raise LabelFormatError(f"line {line_no}: malformed label line")
        own, hub, dist = entries[parts[0]]
        try:
            v = int(parts[1])
            for item in parts[2:]:
                h, _, dd = item.partition(":")
                hub.append(int(h))
                dist.append(int(dd))
        except ValueError:
            raise LabelFormatError(f"line {line_no}: malformed label line") from None
        if v in seen[parts[0]]:
            raise LabelFormatError(f"line {line_no}: duplicate label line for vertex {v}")
        seen[parts[0]].add(v)
        own += [v] * (len(parts) - 2)
    fwd, bwd, und = seen.values()
    if und and (fwd or bwd):
        raise LabelFormatError("mixed directed and undirected label lines")
    if not (und or fwd or bwd):
        raise LabelFormatError("empty label file")
    n = len(und or fwd)
    if und and und != set(range(n)):
        raise LabelFormatError("label lines must cover vertices 0..n-1 exactly")
    if not und and (fwd != set(range(n)) or bwd != fwd):
        raise LabelFormatError("label lines must cover vertices 0..n-1 on both sides")
    try:
        return Labeling._from_entries(not und, n, *map(entries.get, "l" if und else "fb"))
    except ValueError as exc:
        raise LabelFormatError(str(exc)) from None
