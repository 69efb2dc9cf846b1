"""Command-line interface: generate instances, build labelings, verify, compare, query.

Reports are line-oriented ``key: value`` pairs followed by a single
machine-readable line ``@json {...}``. Exit codes: 0 success/valid, 1 invalid
labeling, 2 usage or input error, 3 resource limit.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .graphs import (
    INF,
    CapExceededError,
    GraphFormatError,
    TooLargeError,
    all_pairs_distances,
    parse_graph,
    serialize_graph,
)
from .labeling import (
    Labeling,
    LabelFormatError,
    Order,
    canonical_hhl,
    parse_labeling,
    serialize_labeling,
    verify_cover,
)

# Every subcommand uses graphs and labeling; these load on first use instead,
# so a verify or query never imports an algorithm. The handlers reach them as
# ``_cli.name``: the first access binds the package's object here (never over
# an existing binding), and every call finds what is bound at call time, which
# is what lets perfbench/tracing.py patch them by name.
_LAZY = frozenset(
    "families run_g_hhl run_w_hhl run_d_hhl run_cohen_hl greedy_multiscale_sphs"
    " sphs_to_hhl min_vertex_cover optimal_hhl_bruteforce optimal_hl_bnb".split()
)
_cli = sys.modules[__name__]


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def _emit(lines: list[tuple[str, object]], payload: dict) -> None:
    for key, value in lines:
        print(f"{key}: {value}")
    print("@json " + json.dumps(payload, sort_keys=True))


def _read_graph(path: str):
    return parse_graph(Path(path).read_text(encoding="utf-8"))


def _read_labeling(path: str, g) -> Labeling:
    """The labeling in ``path``, checked against g. With no vertices in g, a file
    with no label lines is g's empty labeling: such a file cannot name its kind."""
    text = Path(path).read_text(encoding="utf-8")
    if g.n == 0 and all(ln.strip()[:1] in ("", "#") for ln in text.splitlines()):
        return Labeling(g.directed, 0, [], [] if g.directed else None)
    labeling = parse_labeling(text)
    if labeling.n != g.n or labeling.directed != g.directed:
        raise ValueError("labeling does not match the graph (n or directedness)")
    return labeling


def _cmd_generate(args) -> int:
    families, family = _cli.families, args.family
    labeling = None
    if family == "bad-g":
        g = families.gen_bad_g(args.k)
        header = f"# hublab bad-g k={args.k}"
    elif family == "bad-w":
        g = families.gen_bad_w(args.k)
        header = f"# hublab bad-w k={args.k} l={2 * args.k * args.k}"
    elif family == "separator":
        g = families.gen_separator(args.k)
        header = f"# hublab separator k={args.k}"
        if args.with_hl:
            labeling = families.construct_separator_hl(args.k)
    elif family == "cycle4":
        g = families.gen_cycle4(args.directed)
        header = f"# hublab cycle4 directed={args.directed}"
        if args.with_hl:
            if not args.directed:
                raise ValueError("--with-hl for cycle4 requires --directed")
            labeling = families.construct_c4prime_hl()
    elif family in ("vc-und", "vc-dir"):
        if not args.graph:
            raise ValueError(f"{family} requires --graph")
        base = _read_graph(args.graph)
        if family == "vc-und":
            g = families.reduce_vc_undirected(base, args.unique)
            if args.with_hl:
                labeling = families.construct_reduction_labeling_undirected(
                    g, _cli.min_vertex_cover(base)
                )
        else:
            g = families.reduce_vc_directed(base)
            if args.with_hl:
                labeling = families.construct_reduction_labeling_directed(
                    g, _cli.min_vertex_cover(base)
                )
        header = f"# hublab {family} base={Path(args.graph).name}"
    elif family == "random":
        g = families.gen_random(args.n, args.m, args.maxlen, args.seed)
        header = f"# hublab random n={args.n} m={args.m} maxlen={args.maxlen} seed={args.seed}"
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown family {family}")

    out = Path(args.out)
    out.write_text(header + "\n" + serialize_graph(g), encoding="utf-8")
    lines = [("family", family), ("n", g.n), ("m", g.m), ("graph", str(out))]
    payload = {"family": family, "n": g.n, "m": g.m, "graph": str(out)}
    if labeling is not None:
        lab_path = Path(args.labels_out) if args.labels_out else out.with_suffix(".labels")
        lab_path.write_text(serialize_labeling(labeling), encoding="utf-8")
        lines.append(("labels", str(lab_path)))
        lines.append(("labeling_size", labeling.size))
        payload["labels"] = str(lab_path)
        payload["labeling_size"] = labeling.size
    _emit(lines, payload)
    return EXIT_OK


def _read_order(args) -> Order | None:
    """The ``--order`` of ``--algo canonical``, read before any graph work."""
    if args.algo != "canonical":
        return None
    if not args.order:
        raise ValueError("canonical requires --order FILE")
    return Order.from_sequence(
        int(line.split()[0])
        for line in map(str.strip, Path(args.order).read_text(encoding="utf-8").splitlines())
        if line and not line.startswith("#")
    )


def _build_labeling(g, d, args, order: Order | None):
    """(order, labeling, trace) of ``args.algo``; ``order`` is canonical's input."""
    if args.algo == "g-hhl":
        order, labeling, trace = _cli.run_g_hhl(d)
    elif args.algo == "w-hhl":
        order, labeling, trace = _cli.run_w_hhl(d)
    elif args.algo == "d-hhl":
        order, labeling, trace = _cli.run_d_hhl(d)
    elif args.algo == "cohen":
        labeling, trace = _cli.run_cohen_hl(d, exact_mds=args.exact_mds)
    elif args.algo == "canonical":
        labeling = canonical_hhl(d, order)
        trace = None
    elif args.algo == "sphs":
        ms = _cli.greedy_multiscale_sphs(g, d)
        order, labeling = _cli.sphs_to_hhl(g, d, ms)
        trace = None
    else:  # pragma: no cover
        raise ValueError(f"unknown algorithm {args.algo}")
    return order, labeling, trace


def _cmd_build(args) -> int:
    order = _read_order(args)
    g = _read_graph(args.graph)
    d = all_pairs_distances(g)
    order, labeling, trace = _build_labeling(g, d, args, order)
    out = Path(args.out)
    out.write_text(serialize_labeling(labeling), encoding="utf-8")
    report = verify_cover(labeling, d)
    payload = {
        "algo": args.algo,
        "graph": args.graph,
        "labels": str(out),
        "size": labeling.size,
        "valid": report.valid,
        "wrong_distance": len(report.wrong_distance),
        "uncovered": len(report.uncovered),
    }
    if order is not None:
        payload["order"] = order.by_rank()
    if trace is not None:
        payload["trace"] = trace.to_dict()
        if args.trace:
            Path(args.trace).write_text(
                json.dumps(trace.to_dict(), sort_keys=True, indent=2) + "\n",
                encoding="utf-8",
            )
    lines = [
        ("algo", args.algo),
        ("size", labeling.size),
        ("valid", report.valid),
        ("labels", str(out)),
    ]
    _emit(lines, payload)
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_verify(args) -> int:
    g = _read_graph(args.graph)
    labeling = _read_labeling(args.labels, g)
    d = all_pairs_distances(g)
    report = verify_cover(labeling, d)
    lines = [
        ("valid", report.valid),
        ("size", labeling.size),
        ("violations", len(report.violations)),
        ("wrong_distance", len(report.wrong_distance)),
        ("uncovered", len(report.uncovered)),
    ]
    payload = {
        "valid": report.valid,
        "size": labeling.size,
        "violations": [list(p) for p in report.violations[:100]],
        "wrong_distance": len(report.wrong_distance),
        "uncovered": len(report.uncovered),
    }
    _emit(lines, payload)
    return EXIT_OK if report.valid else EXIT_INVALID


def _cmd_compare(args) -> int:
    g = _read_graph(args.graph)
    d = all_pairs_distances(g)
    rows = []
    for algo in args.algos.split(","):
        ns = argparse.Namespace(algo=algo.strip(), exact_mds=False, order=None)
        _, labeling, _ = _build_labeling(g, d, ns, _read_order(ns))
        rows.append((algo.strip(), labeling.size))
    payload: dict = {"graph": args.graph, "sizes": {a: s for a, s in rows}}
    lines: list[tuple[str, object]] = [(f"size[{a}]", s) for a, s in rows]
    if args.oracle:
        opt_hhl, _ = _cli.optimal_hhl_bruteforce(d, limit_n=args.oracle_limit)
        res = _cli.optimal_hl_bnb(d, budget=args.budget)
        lines.append(("optimal_hhl", opt_hhl))
        lines.append(("optimal_hl_lower", res.lower))
        lines.append(("optimal_hl_upper", res.upper))
        payload["optimal_hhl"] = opt_hhl
        payload["optimal_hl"] = {"lower": res.lower, "upper": res.upper, "complete": res.complete}
        if res.upper:  # only the empty graph has optimum 0, and no ratios
            lines.extend((f"ratio[{a}]", f"{s / res.upper:.4f}") for a, s in rows)
        payload["ratios"] = {a: s / res.upper for a, s in rows} if res.upper else None
    _emit(lines, payload)
    return EXIT_OK


def _cmd_query(args) -> int:
    g = _read_graph(args.graph)
    labeling = _read_labeling(args.labels, g)
    if not (0 <= args.s < g.n and 0 <= args.t < g.n):
        raise ValueError("vertex id out of range")
    dist = labeling.query(args.s, args.t)
    print("unreachable" if dist == INF else dist)
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hublab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit an instance family")
    gen.add_argument(
        "family",
        choices=["bad-g", "bad-w", "separator", "cycle4", "vc-und", "vc-dir", "random"],
    )
    gen.add_argument("--k", type=int, default=3)
    gen.add_argument("--graph", help="base graph file for the vc reductions")
    gen.add_argument("--directed", action="store_true", help="directed variant (cycle4)")
    gen.add_argument("--with-hl", action="store_true", help="also write the explicit labeling")
    gen.add_argument("--unique", action="store_true", help="scale lengths for unique shortest paths")
    gen.add_argument("--n", type=int, default=8)
    gen.add_argument("--m", type=int, default=10)
    gen.add_argument("--maxlen", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--labels-out")
    gen.set_defaults(func=_cmd_generate)

    build = sub.add_parser("build", help="construct a labeling")
    build.add_argument("graph")
    build.add_argument(
        "--algo",
        required=True,
        choices=["g-hhl", "w-hhl", "d-hhl", "cohen", "canonical", "sphs"],
    )
    build.add_argument("--order", help="order file for --algo canonical (one id per line)")
    build.add_argument("--exact-mds", action="store_true")
    build.add_argument("--out", required=True)
    build.add_argument("--trace", help="write the run trace as JSON")
    build.set_defaults(func=_cmd_build)

    ver = sub.add_parser("verify", help="check a labeling against its graph")
    ver.add_argument("graph")
    ver.add_argument("labels")
    ver.set_defaults(func=_cmd_verify)

    cmp_ = sub.add_parser("compare", help="size table across algorithms")
    cmp_.add_argument("graph")
    cmp_.add_argument("--algos", default="g-hhl,w-hhl,d-hhl")
    cmp_.add_argument("--oracle", action="store_true")
    cmp_.add_argument("--oracle-limit", type=int, default=9)
    cmp_.add_argument("--budget", type=int, default=1_000_000)
    cmp_.set_defaults(func=_cmd_compare)

    q = sub.add_parser("query", help="answer one distance query from labels")
    q.add_argument("graph")
    q.add_argument("labels")
    q.add_argument("s", type=int)
    q.add_argument("t", type=int)
    q.set_defaults(func=_cmd_query)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (TooLargeError, CapExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_LIMIT
    except (GraphFormatError, LabelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
