"""Inputs, jobs and correctness checks of the three benchmark workloads.

The inputs are built here from plain edge lists and encoded as graph6 by
this module's own encoder, so the program under test only ever receives
the generated text. A workload is a list of jobs; ``run_job`` performs one
job exactly as a user of the library would, and ``check_pass`` verifies
the outputs of a whole pass afterwards, outside the timed region.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("delta-structured", "certify-random", "verify-sweep")


# --- graph constructions (adjacency as one int bitmask per vertex) ---------


def from_edges(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def graph6(adj: list[int]) -> str:
    """graph6 text for orders up to 62: upper triangle, column by column."""
    n = len(adj)
    bits = [(adj[i] >> j) & 1 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[k : k + 6])), 2)) for k in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def complete(n: int) -> list[int]:
    return from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(v, (v + 1) % n) for v in range(n)]


def wheel(k: int) -> list[int]:
    """k-cycle 0..k-1 plus hub k."""
    return from_edges(k + 1, cycle_edges(k) + [(v, k) for v in range(k)])


def circulant(n: int, steps) -> list[int]:
    return from_edges(n, [(v, (v + s) % n) for v in range(n) for s in steps])


def complement(adj: list[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full & ~m & ~(1 << v) for v, m in enumerate(adj)]


def join(a: list[int], b: list[int]) -> list[int]:
    """a on 0..|a|-1, b shifted after it, all cross edges."""
    n, m = len(a), len(b)
    return [x | (((1 << m) - 1) << n) for x in a] + [(y << n) | ((1 << n) - 1) for y in b]


def mycielskian(base: list[int], k: int) -> list[int]:
    """Generalized Mycielskian M_k(base), labelled layer by layer.

    Layer i occupies vertices i*n..i*n+n-1; layer 0 is a copy of the base,
    (u, i) is joined to (v, i+1) for every base edge uv, and a final apex
    is joined to the whole of layer k.
    """
    n = len(base)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (base[u] >> v) & 1]
    out = list(edges)
    for i in range(k):
        for u, v in edges:
            out += [(i * n + u, (i + 1) * n + v), (i * n + v, (i + 1) * n + u)]
    apex = (k + 1) * n
    out += [(k * n + v, apex) for v in range(n)]
    return from_edges(apex + 1, out)


_C7 = cycle_edges(7)
_H2_CHORDS = [(1, 3), (3, 5), (5, 0), (0, 2), (2, 4), (4, 6)]
GALLERY = {
    "K4": complete(4),
    "W5": wheel(5),
    "W7": wheel(7),
    "C7bar": from_edges(7, _C7 + [(v, (v + 2) % 7) for v in range(7)]),
    "W9": wheel(9),
    "H2plus": from_edges(8, _C7 + _H2_CHORDS + [(7, 0), (7, 2), (7, 5)]),
    "W11": wheel(11),
    "H2": from_edges(7, _C7 + _H2_CHORDS),
    "W13": wheel(13),
    "T0": from_edges(
        10,
        _C7
        + [(7, v) for v in range(7) if v != 1]
        + [(8, v) for v in range(7) if v != 6]
        + [(9, 0), (9, 7), (9, 8)],
    ),
    "W15": wheel(15),
    "H1plusplus": from_edges(
        9,
        _C7
        + [(3, 5), (5, 0), (0, 2), (2, 4), (6, 1)]
        + [(7, 0), (7, 2), (7, 3), (8, 0), (8, 5), (8, 3)],
    ),
}
PETERSEN = from_edges(
    10,
    cycle_edges(5) + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)],
)


def delta_corpus() -> list[tuple[str, str]]:
    """The fixed 30-pattern corpus of ``delta-structured`` as (name, graph6)."""
    graphs = [(f"K{n}", complete(n)) for n in range(3, 10)]
    graphs += list(GALLERY.items())
    graphs += [
        ("Petersen", PETERSEN),
        ("K1+Petersen", join(complete(1), PETERSEN)),
        ("K2+C7bar", join(complete(2), complement(from_edges(7, _C7)))),
        ("C13(1,5)", circulant(13, (1, 5))),
        ("C13(2,3)", circulant(13, (2, 3))),
        ("C17(1,2,4)", circulant(17, (1, 2, 4))),
        ("C19(1,2)", circulant(19, (1, 2))),
        ("M1(C5)", mycielskian(from_edges(5, cycle_edges(5)), 1)),
        ("M1(C7)", mycielskian(from_edges(7, cycle_edges(7)), 1)),
        ("M1(C9)", mycielskian(from_edges(9, cycle_edges(9)), 1)),
        ("M2(C5)", mycielskian(from_edges(5, cycle_edges(5)), 2)),
    ]
    return [(name, graph6(adj)) for name, adj in graphs]


# --- expected answers -------------------------------------------------------


def clique_row(n: int) -> tuple:
    """Closed form for K_n with r = n - 1: 2/5 at r = 2, else
    1 - 1/(r - 1 + 2/3) = (3r - 4)/(3r - 1) at gallery index 2."""
    r = n - 1
    if r == 2:
        return (2, "odd-cycle", 2, Fraction(2, 5))
    return (r, "gallery", 2, Fraction(3 * r - 4, 3 * r - 1))


# (r, branch, index, value) for the non-clique rows of delta_corpus(), as
# classified when this benchmark was added; every row also passes
# DeltaResult.validate, which rechecks the certificate and the arithmetic.
EXPECTED_DELTA = {
    "W5": (3, "gallery", 3, Fraction(7, 12)),
    "W7": (3, "gallery", 4, Fraction(4, 7)),
    "C7bar": (3, "gallery", 2, Fraction(5, 8)),
    "W9": (3, "gallery", 4, Fraction(4, 7)),
    "H2plus": (3, "gallery", 3, Fraction(7, 12)),
    "W11": (3, "gallery", 4, Fraction(4, 7)),
    "H2": (3, "gallery", 3, Fraction(7, 12)),
    "W13": (3, "gallery", 4, Fraction(4, 7)),
    "T0": (3, "gallery", 4, Fraction(4, 7)),
    "W15": (3, "gallery", 4, Fraction(4, 7)),
    "H1plusplus": (3, "gallery", 3, Fraction(7, 12)),
    "Petersen": (2, "odd-cycle", 2, Fraction(2, 5)),
    "K1+Petersen": (3, "gallery", 2, Fraction(5, 8)),
    "K2+C7bar": (5, "gallery", 2, Fraction(11, 14)),
    "C13(1,5)": (3, "gallery", 3, Fraction(7, 12)),
    "C13(2,3)": (3, "gallery", 3, Fraction(7, 12)),
    "C17(1,2,4)": (3, "gallery", 2, Fraction(5, 8)),
    "C19(1,2)": (3, "gallery", 2, Fraction(5, 8)),
    "M1(C5)": (3, "gallery", 3, Fraction(7, 12)),
    "M1(C7)": (3, "gallery", 4, Fraction(4, 7)),
    "M1(C9)": (3, "gallery", 4, Fraction(4, 7)),
    "M2(C5)": (3, "gallery", 4, Fraction(4, 7)),
}


def expected_delta(name: str) -> tuple:
    if name in EXPECTED_DELTA:
        return EXPECTED_DELTA[name]
    return clique_row(int(name[1:]))


# --- seeded inputs ----------------------------------------------------------


def random_pattern(rng: random.Random, n: int) -> list[int]:
    """G(n, 1/2), redrawn until it has an odd cycle (chromatic number >= 3)."""
    while True:
        adj = from_edges(n, [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5])
        if not _bipartite(adj):
            return adj


def _bipartite(adj: list[int]) -> bool:
    side = [-1] * len(adj)
    for s in range(len(adj)):
        if side[s] >= 0:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for u in range(len(adj)):
                if (adj[v] >> u) & 1:
                    if side[u] < 0:
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side[u] == side[v]:
                        return False
    return True


# --- jobs -------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One unit of user work: a graph6 pattern, or a (suite, corpus) pair."""

    name: str
    text: str
    suite: str = ""


CERTIFY_ORDERS = (60, 200)
CERTIFY_CORPUS_SEED = 2021
VERIFY_SUITES = ("hom-odd-girth:3", "haggkvist:2", "haggkvist:3")


def make_jobs(workload: str, seed: int, tiny: bool = False) -> list[Job]:
    """The jobs of one pass. ``tiny`` shrinks every workload for the smoke test."""
    rng = random.Random(seed)
    if workload == "delta-structured":
        corpus = delta_corpus()
        return [Job(name, text) for name, text in (corpus[:4] if tiny else corpus)]
    if workload == "certify-random":
        # The patterns come from a fixed corpus seed and --seed only sets the
        # order they run in: relabelling one G(14, 1/2) alone moves its search
        # nodes by up to 2x, so fresh draws per seed could not give a node
        # count that repeats, nor a steady wall time.
        corpus = random.Random(CERTIFY_CORPUS_SEED)
        count = 2 if tiny else 60
        jobs = [Job(f"G14#{i}", graph6(random_pattern(corpus, 14))) for i in range(count)]
        rng.shuffle(jobs)
        return jobs
    if workload == "verify-sweep":
        # random:2000,9,0.5 is drawn as 20 independently seeded corpora of
        # 100 graphs, so the pass has enough jobs for a latency tail.
        exhaustive, chunks, size = (3, 2, 10) if tiny else (6, 20, 100)
        corpora = [f"exhaustive:{exhaustive}"]
        corpora += [f"random:{size},9,0.5,{rng.randrange(2**31)}" for _ in range(chunks)]
        return [Job(f"{suite} {c}", c, suite) for suite in VERIFY_SUITES for c in corpora]
    raise ValueError(f"unknown workload {workload!r}")


def run_job(degstab, workload: str, job: Job):
    """Do one job as a user would and return what the user would keep."""
    if workload == "delta-structured":
        h = degstab.decode(job.text, "graph6")
        result = degstab.classify(h)
        return h, result, result.dumps()
    if workload == "certify-random":
        h = degstab.decode(job.text, "graph6")
        result = degstab.classify(h)
        members = []
        for n in CERTIFY_ORDERS:
            report = degstab.certify(h, result, n)
            members.append((report, degstab.encode(report.witness, "graph6")))
        return h, result, members
    spec = degstab.CorpusSpec.parse(job.text)
    kind, _, arg = job.suite.partition(":")
    if kind == "hom-odd-girth":
        return spec, degstab.check_hom_odd_girth(spec, int(arg))
    return spec, degstab.check_haggkvist(spec, int(arg))


def corpus_size(text: str) -> int:
    """Graphs in "exhaustive:K" (all labelled graphs on 0..K vertices) or
    "random:COUNT,...", worked out independently of the program."""
    kind, _, rest = text.partition(":")
    if kind == "exhaustive":
        return sum(2 ** (n * (n - 1) // 2) for n in range(int(rest) + 1))
    return int(rest.split(",")[0])


def check_job(degstab, workload: str, job: Job, output) -> str | None:
    """None if the output is right, else a one-line reason."""
    if workload == "delta-structured":
        h, result, text = output
        got = (result.r, result.branch, result.index, result.value)
        if got != expected_delta(job.name):
            return f"expected {expected_delta(job.name)}, got {got}"
        if not result.validate(h):
            return "result does not validate"
        back = degstab.DeltaResult.loads(text)
        if back != result or back.dumps() != text:
            return "dumps/loads round trip changed the result"
        return None
    if workload == "certify-random":
        h, result, members = output
        if not result.validate(h):
            return "result does not validate"
        for n, (report, text) in zip(CERTIFY_ORDERS, members):
            if not report.passed:
                return f"certification at n={n} failed"
            if degstab.decode(text, "graph6") != report.witness:
                return f"graph6 round trip of the n={n} witness differs"
        return None
    spec, report = output
    if not report.passed:
        return f"{len(report.violations)} violations"
    expected = corpus_size(job.text)
    if report.checked != expected:
        return f"checked {report.checked} graphs of {expected}"
    return None
