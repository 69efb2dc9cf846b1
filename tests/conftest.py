from __future__ import annotations

import pytest

import hublab as hl
from hublab import families

pytest_plugins = ["pytester"]

# Outcomes that tier-1 never accepts: a test that did not run, or whose result
# was forgiven, checks nothing.
NOT_RUN = ("skipped", "xfailed", "xpassed")


def pytest_sessionfinish(session):
    """Fail a session that would pass with a skipped, xfailed or xpassed test."""
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    counts = {k: len(reporter.stats.get(k, ())) for k in NOT_RUN} if reporter else {}
    if session.exitstatus == pytest.ExitCode.OK and any(counts.values()):
        reporter.write_line(f"tier-1 runs every test: {counts}", red=True)
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def edge2() -> hl.Graph:
    return hl.Graph(False, 2, [(0, 1, 1)])


def path_graph(edges: int, length: int = 1) -> hl.Graph:
    return hl.Graph(False, edges + 1, [(i, i + 1, length) for i in range(edges)])


def star_graph(leaves: int) -> hl.Graph:
    return hl.Graph(False, leaves + 1, [(0, i, 1) for i in range(1, leaves + 1)])


def triangle() -> hl.Graph:
    return hl.Graph(False, 3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])


def complete_graph(n: int) -> hl.Graph:
    return hl.Graph(False, n, [(u, v, 1) for u in range(n) for v in range(u + 1, n)])


def seeded_graphs(count: int, max_n: int, seed_base: int) -> list[hl.Graph]:
    """Deterministic mix of sizes and densities for property-style checks."""
    out = []
    for i in range(count):
        n = 2 + i % (max_n - 1)
        cap = n * (n - 1) // 2
        m = min(cap, n - 1 + (i * 3) % (cap - n + 2))
        maxlen = 1 + i % 4
        out.append(families.gen_random(n, m, maxlen, seed_base + i))
    return out


@pytest.fixture(scope="session")
def random_graphs_8() -> list[hl.Graph]:
    return seeded_graphs(50, 8, 1000)


@pytest.fixture(scope="session")
def random_graphs_7() -> list[hl.Graph]:
    return seeded_graphs(30, 7, 2000)
