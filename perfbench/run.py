#!/usr/bin/env python3
"""hublab benchmark: build, verify, compare and query, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload random-hhl --seed 1 --seconds 30 --trace 0

Every ``hublab`` operation runs as its own child process
(``python -m hublab.cli`` with ``PYTHONPATH=src``), one at a time, started by
``spawner.py`` and reaped with ``os.wait4`` for its own peak RSS. Queries run
in this process through ``Labeling.query`` on labels read back with
``parse_labeling``. Every output is checked against the independent oracle in
``oracle.py``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` also runs each
operation in-process, untraced and then traced, and prints the per-layer
metrics derived from the spans (``tracing.py``). The last stdout line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is 1 when any operation fails and 2 when
``src/hublab`` is missing. README.md in this directory describes the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import heapq
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import oracle
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("random-hhl", "layered-directed", "small-exact")
SETUP_REPS = 7
STARTUP_PROBES = 5
QUERIES = 1000  # one query chunk: the whole seeded sample of one labeling
# Fastest calibration pass seen on the reference host (README.md, "Host speed").
CALIBRATION_NOMINAL_S = 0.0030

E2E_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "query_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "count"


@dataclass
class Op:
    """One CLI operation; ``labels`` is the label file it writes (build) or reads (verify)."""

    name: str
    argv: list[str]
    graph: str
    labels: str | None = None

    @property
    def kind(self) -> str:
        return self.argv[0]


@dataclass
class Spec:
    bases: dict[str, str]  # base graph files written by the benchmark itself
    instances: dict[str, list[str]]  # instance name -> `hublab generate` arguments
    orders: list[str]  # instances that get a degree-order file
    ops: list[Op]  # one pass, in order
    params: dict = field(default_factory=dict)


def _cycle(n: int) -> str:
    arcs = "".join(f"a {v} {(v + 1) % n} 1\n" for v in range(n))
    return f"p undirected {n} {n}\n" + arcs


def _build(inst: str, algo: str, *extra: str, tag: str = "") -> list[Op]:
    """A build and the verify of its label file."""
    graph, labels = f"{inst}.gr", f"{inst}.{algo}{tag}.lab"
    build_argv = ["build", graph, "--algo", algo, *extra, "--out", labels]
    build = Op("build_" + algo.replace("-", "_") + tag, build_argv, graph, labels)
    verify_name = "verify_" + labels.replace(".", "_").replace("-", "_")
    return [build, Op(verify_name, ["verify", graph, labels], graph, labels)]


def _random(n: int, seed: int) -> list[str]:
    return ["random", "--n", str(n), "--m", str(2 * n), "--maxlen", "10", "--seed", str(seed)]


def workload_spec(workload: str, seed: int, tiny: bool) -> Spec:
    """Instances and operations of a workload; README.md gives the reasons for each."""
    if workload in ("random-hhl", "layered-directed"):
        if workload == "random-hhl":
            inst = {"rand": _random(40 if tiny else 300, seed)}
        else:
            inst = {"badg": ["bad-g", "--k", "4" if tiny else "20"]}
        (g,) = inst
        ops = [
            *_build(g, "g-hhl"),
            *_build(g, "w-hhl"),
            *_build(g, "d-hhl"),
            *_build(g, "canonical", "--order", f"{g}.order"),
        ]
        return Spec({}, inst, [g], ops, {"instances": inst})
    if workload == "small-exact":
        inst = {
            "rand": _random(20 if tiny else 60, seed),
            "vc5": ["vc-dir", "--graph", "c5.base"],
            "vc4": ["vc-dir", "--graph", "c4.base"],
        }
        budget = "2000" if tiny else "20000"
        compare = ["compare", "vc4.gr", "--oracle", "--oracle-limit", "16", "--budget", budget]
        ops = [
            *_build("rand", "cohen"),
            *_build("vc5", "cohen", "--exact-mds", tag="_exact"),
            *_build("rand", "sphs"),
            Op("compare_oracle", compare, "vc4.gr"),
        ]
        bases = {"c5.base": _cycle(5), "c4.base": _cycle(4)}
        return Spec(bases, inst, [], ops, {"instances": inst, "bases": bases})
    raise ValueError(f"unknown workload {workload!r}")


def calibration_graph(n: int = 3000) -> list[list[tuple[int, int]]]:
    """A fixed random graph: a random tree plus n extra edges, lengths 1..10."""
    rng = random.Random(0)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    for u, v in edges:
        if u != v:
            length = rng.randint(1, 10)
            adj[u].append((v, length))
            adj[v].append((u, length))
    return adj


def calibration_pass(adj) -> float:
    """Wall time of one pure-Python Dijkstra from vertex 0, the kind of code hublab runs."""
    start = time.perf_counter()
    dist = [float("inf")] * len(adj)
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for w, length in adj[v]:
            if d + length < dist[w]:
                dist[w] = d + length
                heapq.heappush(heap, (d + length, w))
    return time.perf_counter() - start


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def json_line(text: str):
    for line in text.splitlines():
        if line.startswith("@json "):
            return json.loads(line[6:])
    return None


class Bench:
    """One benchmark run: the work directory, the spawner, the oracle and the tallies."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.seed, self.tiny = seed, tiny
        self.spec = workload_spec(workload, seed, tiny)
        self.dir = WORK / f"{workload}-seed{seed}-run"
        self.spawner: subprocess.Popen | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.walls: dict[str, list[float]] = {}
        self.peak_rss_kb = 0
        self.ref: dict[str, np.ndarray] = {}
        # Keyed by label file: the query sample (graph, s, t), the Labeling read
        # back, and (p50, p99) in µs of every query chunk.
        self.samples: dict[str, tuple[str, np.ndarray, np.ndarray]] = {}
        self.labelings: dict[str, object] = {}
        self.chunks: dict[str, list[tuple[float, float]]] = {}
        self.checked: dict[str, tuple[int, int]] = {}  # sha256 -> counts of a file that passed
        self.counts: dict[str, tuple[int, int]] = {}  # label file -> (entries, largest label)
        self.hashes: dict[str, str] = {}
        self.calibration_adj = calibration_graph()
        self.calibration: list[float] = []
        self.setup_times: list[float] = []
        self.setup_scale = 1.0

    def calibrate(self) -> None:
        self.calibration.extend(calibration_pass(self.calibration_adj) for _ in range(3))

    @property
    def scale(self) -> float:
        """Factor from this run's mean host speed to the reference host's at its fastest."""
        return CALIBRATION_NOMINAL_S / statistics.fmean(self.calibration)

    def __enter__(self):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        self.spawner = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc):
        self.spawner.stdin.close()
        self.spawner.wait()
        self.spawner.stdout.close()

    def fail(self, what: str, ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(what)

    # -- children ---------------------------------------------------------

    def child(self, argv: list[str]):
        """Run one CLI child to completion; returns (exit code, stdout, wall s, peak RSS KB)."""
        self.attempted += 1
        out_path, err_path = self.dir / "child.out", self.dir / "child.err"
        req = {
            "argv": [sys.executable, "-m", "hublab.cli", *argv],
            "cwd": str(self.dir),
            "out": str(out_path),
            "err": str(err_path),
        }
        self.spawner.stdin.write(json.dumps(req) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        code = reply["code"]
        if code != 0:
            detail = err_path.read_text(errors="replace").strip().splitlines()[-1:] or [""]
            self.fail(f"{' '.join(argv)}: exit {code} {detail[0]}")
        return code, out_path.read_text(errors="replace"), reply["wall_s"], reply["maxrss_kb"]

    def measured(self, op: Op, parse) -> float:
        """Run ``op`` as a child, gate its output; returns its wall time."""
        code, out, wall, rss = self.child(op.argv)
        self.calibrate()
        self.walls.setdefault(op.name, []).append(wall)
        self.peak_rss_kb = max(self.peak_rss_kb, rss)
        if code == 0 and self.check_payload(op, json_line(out)) and op.kind == "build":
            self.labelings[op.labels] = parse((self.dir / op.labels).read_text(encoding="utf-8"))
        return wall

    # -- correctness gate -------------------------------------------------

    def check_labels(self, path: str, graph: str) -> tuple[int, int] | None:
        """Independent check of a label file; returns its counts, or None after a failure."""
        full = self.dir / path
        if not full.exists():
            self.fail(f"{path}: missing")
            return None
        digest = sha256(full)
        self.hashes[path] = digest
        if digest not in self.checked:
            errors = oracle.label_errors(full, self.ref[graph])
            if errors:
                self.fail(f"{path}: {errors} wrong entries or pair answers against the reference")
                return None
            self.checked[digest] = oracle.label_counts(full)
        return self.checked[digest]

    def check_payload(self, op: Op, payload: dict | None) -> bool:
        """Gate one child's report; returns True when it passed."""
        before = self.failed
        if payload is None:
            self.fail(f"{op.name}: no @json line")
        elif op.kind == "compare":
            lo, hi = payload["optimal_hl"]["lower"], payload["optimal_hl"]["upper"]
            opt_hhl, sizes = payload["optimal_hhl"], list(payload["sizes"].values())
            # An HHL is an HL, so both optima sit below every greedy HHL size.
            if not (lo <= hi and lo <= opt_hhl <= min(sizes)):
                self.fail(f"{op.name}: inconsistent bounds {lo} {hi} {opt_hhl} {sorted(sizes)}")
        else:
            if payload.get("valid") is not True:
                self.fail(f"{op.name}: valid is {payload.get('valid')}")
            counts = self.check_labels(op.labels, op.graph)
            if counts is not None:
                self.counts[op.labels] = counts
                if payload.get("size") != counts[0]:
                    size = payload.get("size")
                    self.fail(f"{op.name}: reported size {size}, file has {counts[0]} entries")
        return self.failed == before

    def query_chunk(self, labels: str) -> int:
        """Time the seeded sample on one labeling and check every answer.

        Returns Σ |L_f(s)| + |L_b(t)| over the sample."""
        lab = self.labelings[labels]
        graph, ss, ts = self.samples[labels]
        query, clock = lab.query, time.perf_counter_ns
        lat, answers = [], []
        for s, t in zip(ss.tolist(), ts.tolist()):
            t0 = clock()
            answer = query(s, t)
            lat.append(clock() - t0)
            answers.append(answer)
        self.attempted += len(answers)
        got = np.array(answers, dtype=np.float64)
        wrong = int(np.count_nonzero(got != self.ref[graph][ss, ts]))
        if wrong:
            self.fail(f"{labels}: {wrong} of {len(got)} sampled answers are wrong", wrong)
        p50, p99 = np.percentile(np.array(lat, dtype=np.float64) / 1000.0, [50, 99])
        self.chunks.setdefault(labels, []).append((float(p50), float(p99)))
        return sum(len(lab.fwd[s]) + len(lab.bwd[t]) for s, t in zip(ss.tolist(), ts.tolist()))

    # -- set-up -----------------------------------------------------------

    def setup_once(self) -> float:
        start = time.perf_counter()
        for name, text in self.spec.bases.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        for inst, args in self.spec.instances.items():
            code, out, _, _ = self.child(["generate", *args, "--out", f"{inst}.gr"])
            if code == 0 and json_line(out) is None:
                self.fail(f"generate {inst}: no @json line")
        for inst in self.spec.orders:
            order = oracle.degree_order(self.dir / f"{inst}.gr")
            text = "".join(f"{v}\n" for v in order)
            (self.dir / f"{inst}.order").write_text(text, encoding="utf-8")
        self.child(["--help"])  # warm-up: interpreter, imports, bytecode cache
        elapsed = time.perf_counter() - start
        self.calibrate()
        return elapsed

    def setup(self, reps: int) -> float:
        """Set up ``reps`` times over; returns the median set-up time, unscaled.

        ``setup_scale`` comes from the calibration passes between set-ups, as
        set-up runs before, not among, the measured passes."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        first = len(self.calibration)
        self.setup_times = [self.setup_once() for _ in range(reps)]
        self.setup_scale = CALIBRATION_NOMINAL_S / statistics.fmean(self.calibration[first:])
        for inst in self.spec.instances:
            graph = f"{inst}.gr"
            self.hashes[graph] = sha256(self.dir / graph)
            self.ref[graph] = oracle.reference_distances(self.dir / graph)
        queries = 100 if self.tiny else QUERIES
        for op in self.spec.ops:
            if op.kind == "build":
                n = self.ref[op.graph].shape[0]
                rng = random.Random(f"{self.seed}:{op.labels}")
                pairs = np.array([(rng.randrange(n), rng.randrange(n)) for _ in range(queries)])
                self.samples[op.labels] = (op.graph, pairs[:, 0], pairs[:, 1])
        return statistics.median(self.setup_times)

    # -- measurement ------------------------------------------------------

    def measure(self, deadline: float, parse) -> None:
        """Passes over the operations until the deadline, at least one whole pass.

        After every child, each labeling built so far answers one query chunk,
        so query timings are spread over the run like the children's."""
        ops = self.spec.ops
        i = 0
        while i < len(ops) or time.perf_counter() < deadline:
            self.measured(ops[i % len(ops)], parse)
            for labels in self.labelings:
                self.query_chunk(labels)
            i += 1

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """Unscaled; a child's time is the mean of its repetitions, like the calibration's."""
        mean = statistics.fmean
        walls = [(op.kind, mean(self.walls[op.name])) for op in self.spec.ops]
        chunks = list(self.chunks.values())
        return {
            "setup_s": setup_s,
            "build_s": sum(w for kind, w in walls if kind != "verify"),
            "verify_s": sum(w for kind, w in walls if kind == "verify"),
            "query_us": mean(mean(c[0] for c in cs) for cs in chunks),
            "query_p99_us": mean(mean(c[1] for c in cs) for cs in chunks),
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
        }


def scaled(metrics: dict[str, float], units: dict[str, str], scale: float) -> dict[str, float]:
    """Times and rates at the reference host's speed (README.md, "Host speed")."""
    factor = {"s": scale, "us": scale, "1/s": 1.0 / scale}
    return {k: v * factor.get(units[k], 1.0) for k, v in metrics.items()}


def in_process(argv: list[str], cwd: Path) -> tuple[int, str]:
    import hublab.cli

    buf = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(buf):
            code = hublab.cli.main(argv)
    finally:
        os.chdir(here)
    return code, buf.getvalue()


def traced_rounds(bench: Bench, deadline: float, probes: int, parse):
    """Whole rounds of every operation as a child, in-process untraced and in-process traced.

    Returns the per-layer metrics and the spans. Per-layer sums are taken per
    round; a time is the mean over rounds, like the end-to-end times."""
    tracer = tracing.Tracer()
    startup = [bench.child(["--help"])[2] for _ in range(probes)]
    rounds = []
    walls: dict[str, dict[str, list[float]]] = {}  # op -> child / untraced / traced walls
    while not rounds or time.perf_counter() < deadline:
        r = len(rounds)
        first_span = len(tracer.spans)
        for op in bench.spec.ops:
            times = {"child": bench.measured(op, parse)}
            argv = list(op.argv)
            if op.kind == "build":
                argv[-1] = op.labels + ".inproc"
            gc.collect()
            start = time.perf_counter()
            untraced_code, _ = in_process(argv, bench.dir)
            times["untraced"] = time.perf_counter() - start
            gc.collect()
            with tracer.operation(f"{r}:{op.name}") as root:
                code, out = in_process(argv, bench.dir)
            times["traced"] = root.duration
            for k, v in times.items():
                walls.setdefault(op.name, {}).setdefault(k, []).append(v)
            bench.attempted += 2
            if untraced_code != 0 or code != 0:
                bench.fail(f"in-process {op.name}: exit {untraced_code} untraced, {code} traced", 2)
                continue
            payload = json_line(out)
            if payload is None:
                bench.fail(f"in-process {op.name}: no @json line")
            elif op.kind != "compare" and payload.get("valid") is not True:
                bench.fail(f"in-process {op.name}: valid is {payload.get('valid')}")
            elif op.kind == "build":
                counts = bench.check_labels(argv[-1], op.graph)
                if counts is not None and counts != bench.counts.get(op.labels):
                    child = bench.counts.get(op.labels)
                    bench.fail(f"in-process {op.name}: label counts {counts}, the child's {child}")
        scanned = 0
        for labels in bench.labelings:
            with tracer.operation(f"{r}:query:{labels}"):
                bench.labelings[labels] = parse((bench.dir / labels).read_text(encoding="utf-8"))
                scanned += bench.query_chunk(labels)
        metrics = tracing.layer_metrics(tracer.spans[first_span:])
        metrics["labeling.query_entries_scanned"] = scanned
        rounds.append(metrics)
    out = tracing.mean_metrics(rounds)
    mean = {op: {k: statistics.fmean(v) for k, v in w.items()} for op, w in walls.items()}
    counts = list(bench.counts.values())
    out["labeling.label_entries"] = sum(c[0] for c in counts)
    out["labeling.max_label"] = max(c[1] for c in counts)
    out["cli.startup_s"] = statistics.fmean(startup)
    out["cli.overhead_s"] = sum(t["child"] - t["traced"] for t in mean.values())
    traced = sum(t["traced"] for t in mean.values())
    out["trace.overhead_frac"] = traced / sum(t["untraced"] for t in mean.values()) - 1.0
    return out, tracer.spans


def machine() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny instances, one set-up: self-tests")
    args = p.parse_args(argv)

    if not (SRC / "hublab" / "cli.py").is_file():
        print(f"error: {SRC / 'hublab'} not found; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from hublab.labeling import parse_labeling

    with Bench(args.workload, args.seed, args.tiny) as bench:
        setup_s = bench.setup(1 if args.tiny else SETUP_REPS)
        deadline = time.perf_counter() + args.seconds
        if args.trace:
            # Looked up at call time, so the traced query stage records its parse spans.
            import hublab.labeling

            def parse(text):
                return hublab.labeling.parse_labeling(text)

            probes = 1 if args.tiny else STARTUP_PROBES
            layers, spans = traced_rounds(bench, deadline, probes, parse)
        else:
            bench.measure(deadline, parse_labeling)
    e2e = bench.end_to_end(setup_s)
    failed = min(bench.failed, bench.attempted)

    for op, walls in bench.walls.items():
        mean, median = statistics.fmean(walls), statistics.median(walls)
        print(f"op {op}_s: mean {mean:.6f} s, median {median:.6f} s of {len(walls)}, unscaled")
    for labels, cs in bench.chunks.items():
        print(f"queries {labels}: {len(cs)} chunks of {len(bench.samples[labels][1])}")
    attempted = bench.attempted
    print(f"ops_failed_frac: {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for what in bench.failures[:20]:
        print(f"FAILED {what}", file=sys.stderr)
    passes = bench.calibration
    print(
        f"host speed scale: {bench.scale:.6f} over the run, {bench.setup_scale:.6f} over set-up"
        f" (mean of {len(passes)} calibration passes {statistics.fmean(passes) * 1e3:.4f} ms)"
    )
    if args.trace:
        raw, units = layers, {k: layer_unit(k) for k in layers}
    else:
        raw, units = e2e, E2E_UNITS
    metrics = scaled(raw, units, bench.scale)
    if not args.trace:
        metrics["setup_s"] = raw["setup_s"] * bench.setup_scale
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]} (unscaled {raw[name]})")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "params": bench.spec.params,
        "machine": machine(),
        "children_wall_s": bench.walls,
        "query_chunks_us": bench.chunks,
        "calibration_s": bench.calibration,
        "scale": bench.scale,
        "setup_s": bench.setup_times,
        "setup_scale": bench.setup_scale,
        "end_to_end_unscaled": e2e,
        "per_layer_unscaled": layers if args.trace else None,
        "metrics": metrics,
        "attempted": bench.attempted,
        "failed": failed,
        "failures": bench.failures,
        "label_counts": bench.counts,
        "sha256": bench.hashes,
    }
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(records / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
    shutil.rmtree(bench.dir, ignore_errors=True)

    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    sys.exit(main())
