"""Hub labelings: data model, distance queries, cover verification, canonical construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import INF, DistMatrix, path_membership


class LabelFormatError(ValueError):
    """Malformed label file input."""


class Order:
    """Total importance order over vertices 0..n-1; rank 1 is the most important."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        ranks = [int(r) for r in ranks]
        n = len(ranks)
        if sorted(ranks) != list(range(1, n + 1)):
            raise ValueError("ranks must be a permutation of 1..n")
        self._ranks = tuple(ranks)

    @classmethod
    def from_sequence(cls, vertices) -> "Order":
        """Build from vertices listed most-important-first."""
        vertices = [int(v) for v in vertices]
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


def _normalize_side(n: int, side) -> tuple[tuple[tuple[int, int], ...], ...]:
    if len(side) != n:
        raise ValueError(f"expected {n} label lists, got {len(side)}")
    out = []
    for v, entries in enumerate(side):
        if isinstance(entries, dict):
            entries = entries.items()
        pairs = sorted({(int(h), int(dd)) for h, dd in entries})
        hubs = [h for h, _ in pairs]
        if len(set(hubs)) != len(hubs):
            raise ValueError(f"vertex {v}: duplicate hub with conflicting distances")
        for h, dd in pairs:
            if not 0 <= h < n:
                raise ValueError(f"vertex {v}: hub {h} out of range")
            if dd < 0:
                raise ValueError(f"vertex {v}: negative hub distance")
        out.append(tuple(pairs))
    return tuple(out)


class Labeling:
    """Per-vertex hub lists with exact distances, sorted by hub id.

    Directed labelings carry a forward and a backward list per vertex; undirected
    labelings store a single list that plays both roles. Immutable once built.
    """

    __slots__ = ("directed", "n", "fwd", "bwd")

    def __init__(self, directed: bool, n: int, fwd, bwd=None):
        self.directed = bool(directed)
        self.n = n
        self.fwd = _normalize_side(n, fwd)
        if self.directed:
            if bwd is None:
                raise ValueError("directed labeling requires backward lists")
            self.bwd = _normalize_side(n, bwd)
        else:
            if bwd is not None:
                raise ValueError("undirected labeling stores a single list per vertex")
            self.bwd = self.fwd

    @property
    def size(self) -> int:
        total = sum(len(lst) for lst in self.fwd)
        if self.directed:
            total += sum(len(lst) for lst in self.bwd)
        return total

    def hubs(self, v: int) -> set[int]:
        out = {h for h, _ in self.fwd[v]}
        if self.directed:
            out.update(h for h, _ in self.bwd[v])
        return out

    def query(self, s: int, t: int) -> int | float:
        """Minimum hubdist sum over common hubs of L_f(s) and L_b(t); INF if none."""
        a, b = self.fwd[s], self.bwd[t]
        i = j = 0
        best = INF
        while i < len(a) and j < len(b):
            ha, da = a[i]
            hb, db = b[j]
            if ha == hb:
                if da + db < best:
                    best = da + db
                i += 1
                j += 1
            elif ha < hb:
                i += 1
            else:
                j += 1
        return best

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return (
            self.directed == other.directed
            and self.n == other.n
            and self.fwd == other.fwd
            and self.bwd == other.bwd
        )

    def __hash__(self) -> int:
        return hash((self.directed, self.n, self.fwd, self.bwd))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"Labeling({kind}, n={self.n}, size={self.size})"


def labeling_size(l: Labeling) -> int:
    """Total hub count; undirected lists are counted once."""
    return l.size


@dataclass(frozen=True)
class CoverReport:
    """Result of cover verification; violations are pairs left without a valid hub."""

    valid: bool
    violations: tuple[tuple[int, int], ...]


def verify_cover(l: Labeling, d: DistMatrix, pairs=None) -> CoverReport:
    """Check the cover property against exact distances.

    A pair [s,t] is violated when no common hub lies on a shortest s-t path.
    Stored hub distances are audited against ``d`` as well; a wrong entry
    (h, dd) in a label of v is reported as a violation of the pair it claims
    to certify. Restricting ``pairs`` checks cover for that subset only.
    """
    if l.directed != d.directed or l.n != d.n:
        raise ValueError("labeling and distance matrix disagree on shape")
    m = d.matrix
    bad: set[tuple[int, int]] = set()

    def pair_of(a: int, b: int) -> tuple[int, int]:
        return (a, b) if d.directed or a <= b else (b, a)

    for v in range(l.n):
        for h, dd in l.fwd[v]:
            if m[v, h] != dd:
                bad.add(pair_of(v, h))
        if l.directed:
            for h, dd in l.bwd[v]:
                if m[h, v] != dd:
                    bad.add(pair_of(h, v))

    fwd_maps = [dict(lst) for lst in l.fwd]
    bwd_maps = fwd_maps if not l.directed else [dict(lst) for lst in l.bwd]
    if pairs is None:
        pairs = d.reachable_pairs()
    for s, t in pairs:
        target = m[s, t]
        if not np.isfinite(target):
            continue
        a, b = fwd_maps[s], bwd_maps[t]
        if len(b) < len(a):
            covered = any(h in a and m[s, h] + m[h, t] == target for h in b)
        else:
            covered = any(h in b and m[s, h] + m[h, t] == target for h in a)
        if not covered:
            bad.add(pair_of(s, t))
    violations = tuple(sorted(bad))
    return CoverReport(not violations, violations)


def canonical_hhl(d: DistMatrix, pi: Order) -> Labeling:
    """Canonical hierarchical labeling for an order.

    The hub of each reachable pair is the most important vertex on its shortest
    paths; the result respects ``pi`` and is the minimum labeling doing so.
    """
    n = d.n
    if pi.n != n:
        raise ValueError("order and distance matrix disagree on n")
    m = d.matrix
    by_rank = np.array(pi.by_rank(), dtype=np.int64)
    fwd: list[dict[int, int]] = [dict() for _ in range(n)]
    bwd: list[dict[int, int]] = [dict() for _ in range(n)] if d.directed else fwd
    for u in range(n):
        cols = np.flatnonzero(np.isfinite(m[u]))
        if not d.directed:
            cols = cols[cols >= u]
        # Rows in rank order: the first vertex on a path is its most important one.
        hubs = by_rank[np.argmax(path_membership(d, u, cols)[by_rank], axis=0)]
        for w, h in zip(cols.tolist(), hubs.tolist()):
            fwd[u][h] = int(m[u, h])
            bwd[w][h] = int(m[h, w])
    if d.directed:
        return Labeling(True, n, fwd, bwd)
    return Labeling(False, n, fwd)


def respects_order(l: Labeling, pi: Order) -> bool:
    """True iff every hub of v is at least as important as v."""
    for v in range(l.n):
        rv = pi.rank(v)
        if any(pi.rank(h) > rv for h in l.hubs(v)):
            return False
    return True


def is_sublabeling(a: Labeling, b: Labeling) -> bool:
    """True iff every hub entry of ``a`` appears in ``b`` on the same side."""
    if a.directed != b.directed or a.n != b.n:
        raise ValueError("labelings disagree on shape")
    for v in range(a.n):
        if not set(a.fwd[v]) <= set(b.fwd[v]):
            return False
        if a.directed and not set(a.bwd[v]) <= set(b.bwd[v]):
            return False
    return True


def serialize_labeling(l: Labeling) -> str:
    """Deterministic text form: one line per vertex per side, hubs ascending."""
    lines = []
    if l.directed:
        for v in range(l.n):
            lines.append("f " + " ".join([str(v)] + [f"{h}:{dd}" for h, dd in l.fwd[v]]))
            lines.append("b " + " ".join([str(v)] + [f"{h}:{dd}" for h, dd in l.bwd[v]]))
    else:
        for v in range(l.n):
            lines.append("l " + " ".join([str(v)] + [f"{h}:{dd}" for h, dd in l.fwd[v]]))
    return "\n".join(lines) + "\n"


def parse_labeling(text: str) -> Labeling:
    """Parse the label file format produced by :func:`serialize_labeling`."""
    fwd: dict[int, list[tuple[int, int]]] = {}
    bwd: dict[int, list[tuple[int, int]]] = {}
    und: dict[int, list[tuple[int, int]]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag not in ("f", "b", "l") or len(parts) < 2:
            raise LabelFormatError(f"line {line_no}: malformed label line")
        try:
            v = int(parts[1])
            entries = []
            for item in parts[2:]:
                h, _, dd = item.partition(":")
                entries.append((int(h), int(dd)))
        except ValueError:
            raise LabelFormatError(f"line {line_no}: malformed label line") from None
        store = {"f": fwd, "b": bwd, "l": und}[tag]
        if v in store:
            raise LabelFormatError(f"line {line_no}: duplicate label line for vertex {v}")
        store[v] = entries
    if und and (fwd or bwd):
        raise LabelFormatError("mixed directed and undirected label lines")
    if und:
        n = len(und)
        if sorted(und) != list(range(n)):
            raise LabelFormatError("label lines must cover vertices 0..n-1 exactly")
        try:
            return Labeling(False, n, [und[v] for v in range(n)])
        except ValueError as exc:
            raise LabelFormatError(str(exc)) from None
    if not fwd and not bwd:
        raise LabelFormatError("empty label file")
    n = len(fwd)
    if sorted(fwd) != list(range(n)) or sorted(bwd) != list(range(n)):
        raise LabelFormatError("label lines must cover vertices 0..n-1 on both sides")
    try:
        return Labeling(True, n, [fwd[v] for v in range(n)], [bwd[v] for v in range(n)])
    except ValueError as exc:
        raise LabelFormatError(str(exc)) from None
