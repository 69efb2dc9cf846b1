"""Fuzzing of the two file parsers and of the CLI commands that read their files.

Arbitrary text, and text shaped like the formats with zero-length arcs and
integers at and beyond 2^53, may only raise the parsers' own errors; ``verify``
and ``query`` keep the exit-code contract (1 only for a labeling that
``verify_cover`` finds invalid) and print no traceback.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hublab as hl
from hublab.cli import main

from bruteforce import parse_labeling_reference

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_BIG = [2**31, 2**53 - 1, 2**53, 2**53 + 1, 2**63, 2**64, 10**40]
_INT = st.one_of(st.integers(-2, 7), st.sampled_from(_BIG), st.integers())
_NOISE = st.one_of(
    st.text(max_size=12),
    st.lists(st.one_of(_INT.map(str), st.text(max_size=4)), max_size=5).map(" ".join),
)


@st.composite
def _chance(draw) -> bool:
    """True about one time in four: hypothesis favours the ends of a range."""
    return draw(st.integers(0, 7)) in (2, 5)


def _field(wild: bool, good, bad=_INT):
    return st.one_of(good, bad) if wild else good


def _garble(draw, lines: list[str]) -> str:
    """``lines`` as a file, now and then with noise lines among them."""
    while draw(_chance()):
        lines.insert(draw(st.integers(0, len(lines))), draw(_NOISE))
    return "\n".join(lines) + "\n"


@st.composite
def _graph_text(draw) -> str:
    """Mostly well formed: ids in range, no self-loops, lengths 0..3 and now
    and then one from 2^31 up; one file in four has any field replaced by text
    or any integer."""
    wild = draw(_chance())
    kind = draw(_field(wild, st.sampled_from(["directed", "undirected"]), st.text(max_size=4)))
    n = draw(_field(wild, st.integers(0, 6)))
    vertex = _field(wild, st.integers(0, max(n - 1, 0)))
    length = _field(wild, st.integers(0, 3))
    arcs = draw(st.lists(st.tuples(vertex, vertex, length), max_size=7))
    arcs = [(t, h, ln) for t, h, ln in arcs if wild or t != h]
    if arcs and draw(_chance()):
        i = draw(st.integers(0, len(arcs) - 1))
        arcs[i] = (*arcs[i][:2], draw(st.sampled_from(_BIG)))
    m = draw(_field(wild, st.just(len(arcs))))
    return _garble(draw, [f"p {kind} {n} {m}"] + [f"a {t} {h} {ln}" for t, h, ln in arcs])


@st.composite
def _label_text(draw, n=None, directed=None) -> str:
    n = draw(st.integers(0, 6)) if n is None else n
    directed = draw(st.booleans()) if directed is None else directed
    wild = draw(_chance())
    hub = _field(wild, st.integers(0, max(n - 1, 0)))
    entry = st.tuples(hub, _field(wild, st.integers(0, 4), st.sampled_from(_BIG)))
    lines = [
        " ".join([tag, str(v), *(f"{h}:{dd}" for h, dd in draw(st.lists(entry, max_size=4)))])
        for v in range(n)
        for tag in (("f", "b") if directed else ("l",))
    ]
    return _garble(draw, lines)


# Entry tokens at the edges of ``int``: signs, underscores, leading zeros,
# non-ASCII digits, and tokens with no colon, an empty side or two colons.
_EDGE_ENTRIES = ["+3:1", "1:+0", "1_0:2", "0:1_0", "00:007", "-0:0", "\u0663:1", "1:\u0661",
                 "3:4:5", "3:", ":3", "3", "1__0:1", "_1:1", "0x1:0", "1:2.0", "+-1:0"]
_EDGE_VERTICES = ["+{v}", "0_{v}", "0{v}", "{v}_"]


@st.composite
def _edge_label_text(draw) -> str:
    """Label lines of up to 4 vertices whose tokens are ``int`` edge cases, with
    repeated identical entries and hubs at two distances."""
    n = draw(st.integers(1, 4))
    directed = draw(st.booleans())
    plain = st.tuples(st.integers(0, n), st.integers(0, 3)).map("{0[0]}:{0[1]}".format)
    entry = st.one_of(plain, plain, st.sampled_from(_EDGE_ENTRIES))
    lines = []
    for v in range(n):
        for tag in ("f", "b") if directed else ("l",):
            vertex = draw(st.sampled_from(["{v}", "{v}", *_EDGE_VERTICES])).format(v=v)
            entries = draw(st.lists(entry, max_size=4))
            if entries and draw(_chance()):
                entries.append(draw(st.sampled_from(entries)))  # repeated as it is
            lines.append(" ".join([tag, vertex, *entries]))
    return _garble(draw, lines)


@st.composite
def _labels_for(draw, g) -> str:
    """Label text for g: random lines, or a valid labeling of g with some
    entries dropped, some distances shifted and some lines garbled."""
    if g is None or not g.n or draw(_chance()):
        return draw(st.one_of(_label_text(), st.text(), _label_text(g and g.n, g and g.directed)))
    order = hl.Order.from_sequence(draw(st.permutations(range(g.n))))
    lines = hl.serialize_labeling(hl.canonical_hhl(hl.all_pairs_distances(g), order)).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        words = lines[i].split()
        if len(words) > 2 and draw(st.booleans()):
            del words[draw(st.integers(2, len(words) - 1))]
        elif len(words) > 2:
            j = draw(st.integers(2, len(words) - 1))
            h, dd = words[j].split(":")
            words[j] = f"{h}:{int(dd) + draw(st.sampled_from([-1, 1, 2**53]))}"
        lines[i] = " ".join(words)
    return _garble(draw, lines)


@FUZZ
@given(st.one_of(st.text(), _graph_text()))
def test_parse_graph_raises_only_its_own_errors(text):
    try:
        hl.parse_graph(text)
    except (hl.GraphFormatError, hl.TooLargeError):
        pass


@FUZZ
@given(st.one_of(st.text(), _label_text()))
def test_parse_labeling_raises_only_its_own_error(text):
    try:
        hl.parse_labeling(text)
    except hl.LabelFormatError:
        pass


@settings(FUZZ, max_examples=400)
@given(st.one_of(st.text(), _label_text(), _edge_label_text()))
def test_parse_labeling_matches_the_tuple_reference(text):
    """Both parsers accept the same texts, the flat one raising only its own
    error, and agree on the rows; on an int beyond int64 they may name
    different problems of the same file."""
    try:
        want = parse_labeling_reference(text)
    except hl.LabelFormatError as exc:
        want = exc
    try:
        lab = hl.parse_labeling(text)
    except hl.LabelFormatError as exc:
        assert isinstance(want, hl.LabelFormatError), want
        if not re.search(r"\d{19}", text.replace("_", "")):
            assert str(exc) == str(want)
        return
    assert not isinstance(want, Exception), want
    assert (lab.directed, lab.n, lab.fwd, lab.bwd) == want


@pytest.mark.parametrize(
    "text, accepted",
    [
        ("l +0 +0:0\n", True),
        ("l 0_0 0:0\nl 1 0:1_0 1:00\n", True),
        ("l 0 0:0 0:0 0:0\n", True),  # repeats of one entry
        ("l 0 0:0 0:1\n", False),  # a hub at two distances
        ("l \u0660 \u0660:\u0660\n", True),  # Arabic-Indic digits
        ("l 0 0:0:0\n", False),
        ("l 0 0:\n", False),
        ("l 0 :0\n", False),
        ("l 0 0\n", False),
        ("l 0 0_:0\n", False),
        ("l 0 0:-1\n", False),
        ("l 0 0:9007199254740991\n", True),
        ("l 0 0:9007199254740992\n", False),
        ("l 0 0:99999999999999999999\n", False),
        ("l 0 -99999999999999999999:0\n", False),
    ],
)
def test_parse_labeling_int_edge_cases(text, accepted):
    try:
        want = parse_labeling_reference(text)
    except hl.LabelFormatError:
        want = None
    assert (want is not None) == accepted
    if accepted:
        lab = hl.parse_labeling(text)
        assert (lab.directed, lab.n, lab.fwd, lab.bwd) == want
    else:
        with pytest.raises(hl.LabelFormatError):
            hl.parse_labeling(text)


def _run(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert "Traceback" not in err.getvalue() + out.getvalue()
    return code


@FUZZ
@given(st.data())
def test_verify_and_query_keep_the_exit_codes(data):
    graph_text = data.draw(_graph_text(), label="graph")
    try:
        g = hl.parse_graph(graph_text)
    except (hl.GraphFormatError, hl.TooLargeError):
        g = None
    assume(g is None or g.n <= 64)  # an accepted graph is solved in full
    label_text = data.draw(_labels_for(g), label="labels")
    s, t = data.draw(st.tuples(*[st.one_of(st.integers(0, 6), _INT)] * 2), label="query")
    with tempfile.TemporaryDirectory() as tmp:
        graph, labels = Path(tmp) / "g.gr", Path(tmp) / "g.labels"
        graph.write_text(graph_text, encoding="utf-8")
        labels.write_text(label_text, encoding="utf-8")
        code = _run(["verify", graph, labels])
        assert code in (0, 1, 2, 3)
        if code in (0, 1):
            lab = hl.parse_labeling(label_text) if g.n else None
            valid = lab is None or hl.verify_cover(lab, hl.all_pairs_distances(g)).valid
            assert code == (0 if valid else 1)
        assert _run(["query", graph, labels, s, t]) in (0, 2, 3)
