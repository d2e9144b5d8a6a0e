"""Benchmark workloads: seeded inputs, CLI jobs and the checks on them.

A job is one workload item pushed through its CLI commands. Each call
has a role: "prep" makes the input, "solve" is the workload's main
command and "certify" is the command that checks or certifies its
answer. A job's check reads the exit codes, stdout and --out reports,
and rechecks every isolating set with this file's own graph6 decoder
and edge scan, never with the library under test.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

# The paper's minimum-degree-4 weights (omega = 13/41; betas 5, 10, 12,
# 14 over 82) and the triangle-free 3/10 vector, both given as files so
# that no LP runs in the certify workloads.
DELTA4_WEIGHTS = {"omega": "13/41", "beta1": "5/82", "beta2": "10/82",
                  "beta3": "12/82", "beta4": "14/82"}
TF_WEIGHTS = {"omega": "3/10", "beta1": "1/15", "beta2": "1/10",
              "beta3": "1/8", "beta4": "3/20"}

# certify-large: one graph per size; three sizes give the scaling fit
LARGE_SIZES = (400, 800, 1600)
# certify-corpus: an even grid over n = 20..200 for each half, so the
# seed changes the graphs but not the size mix
CORPUS_SIZES = tuple(20 + (180 * i) // 99 for i in range(100))
# lp-sweep: golden optima; None marks delta = 3 general, known only to
# exceed 1/3
LP_GOLDEN = {
    (4, "general"): Fraction(13, 41),
    (5, "general"): Fraction(23, 78),
    (4, "triangle-free"): Fraction(3, 10),
    (5, "triangle-free"): Fraction(9, 31),
    (3, "girth5"): Fraction(11, 34),
    (3, "general"): None,
}
# exact-oracle: chains with known iota = s * b, a decision run one below
# the prism chain's iota, and many small random 4-regular graphs, since
# the search size of a single n = 40 graph varies about threefold by seed
PRISM_S, PRISM_IOTA, PRISM_CAP = 4, 8, 7
META_S, META_IOTA = 2, 6
REGULAR_N, REGULAR_COUNT = 32, 40


class CheckFailed(Exception):
    """A job's output is wrong; the job counts as failed."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


@dataclass
class Outcome:
    """One CLI call as the harness saw it."""

    argv: list[str]
    rc: int | None
    stdout: str
    report: dict | None


@dataclass
class Job:
    name: str
    calls: list[tuple[str, list[str]]]
    check: Callable[[list[Outcome], "Tally"], None]
    n: int = 0


@dataclass
class Tally:
    """Observations the checks collect from the reports of one pass."""

    steps: Counter = field(default_factory=Counter)
    min_slack: dict[str, Fraction] = field(default_factory=dict)
    size_sum: int = 0
    bound_sum: int = 0
    tight_rows: int = 0
    delta4_tight_tags: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# the harness's own graph reading and isolation checks

def decode_graph6(text: str) -> tuple[int, list[tuple[int, int]]]:
    data = [ord(c) - 63 for c in text.strip()]
    if data[0] < 63:
        n, body = data[0], data[1:]
    else:
        n, body = (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    bits = "".join(format(x, "06b") for x in body)
    total = n * (n - 1) // 2
    require(len(bits) >= total, "graph6 body too short")
    edges = []
    k = bits.find("1")
    while 0 <= k < total:
        # bit k is pair (i, j), i < j, in column-major upper-triangle order
        j = (1 + math.isqrt(8 * k + 1)) // 2
        edges.append((k - j * (j - 1) // 2, j))
        k = bits.find("1", k + 1)
    return n, edges


def read_graph(path: Path) -> tuple[int, list[tuple[int, int]]]:
    text = path.read_text()
    lines = text.split("\n")
    if " " not in lines[0]:
        return decode_graph6(text)
    n = int(lines[0].split()[0])
    return n, [(int(a), int(b)) for a, b in (ln.split() for ln in lines[1:] if ln)]


def write_edge_list(path: Path, n: int, edges: list[tuple[int, int]]) -> None:
    path.write_text("\n".join([f"{n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]) + "\n")


def isolates(n: int, edges: list[tuple[int, int]], S) -> bool:
    """True iff every edge has an endpoint in S or adjacent to S."""
    chosen = set(S)
    if not all(isinstance(v, int) and 0 <= v < n for v in chosen):
        return False
    dominated = set(chosen)
    for u, v in edges:
        if u in chosen:
            dominated.add(v)
        if v in chosen:
            dominated.add(u)
    return all(u in dominated or v in dominated for u, v in edges)


def brute_force_iota(vertices: list[int], edges: list[tuple[int, int]]) -> int:
    n = max(vertices, default=-1) + 1
    for k in range(len(vertices) + 1):
        for S in combinations(vertices, k):
            if isolates(n, edges, S):
                return k
    raise CheckFailed("no isolating set at all")


def cover_lower_bound(n: int, edges: list[tuple[int, int]]) -> int:
    """Edges over the most edges one closed neighborhood can isolate."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    best = max(sum(1 for u, v in edges if u in adj[x] or v in adj[x] or x in (u, v))
               for x in range(n))
    return -(-len(edges) // best)


# ---------------------------------------------------------------------------
# checks

def _ok(out: Outcome, what: str) -> dict:
    require(out.rc == 0, f"{what} exited {out.rc}")
    return (out.report or {}).get("results") or {}


def _check_certify(graph: Path, omega: Fraction):
    def check(outs: list[Outcome], tally: Tally) -> None:
        for out in outs[:-2]:
            _ok(out, out.argv[0])
        res = _ok(outs[-2], "greedy")
        n, edges = read_graph(graph)
        degrees = Counter(u for e in edges for u in e)
        require(min((degrees[v] for v in range(n)), default=0) >= 4,
                "input graph has minimum degree below 4")
        S = res.get("set") or []
        bound = math.floor(omega * n)
        require(res.get("isolating") is True, "greedy reports a non-isolating set")
        require(res.get("precondition") is True, "greedy reports the precondition unmet")
        require(res.get("bound") == bound, f"bound {res.get('bound')} != floor(omega*n) = {bound}")
        require(res.get("size") == len(S) <= bound, f"|S| = {len(S)} exceeds {bound}")
        require(isolates(n, edges, S), "greedy set leaves an edge uncovered")
        trace = res.get("trace") or {}
        require(trace.get("n") == n and sorted(trace.get("final_set", [])) == sorted(S),
                "trace does not match the reported set")
        require(Fraction(trace.get("initial_weight", -1)) == omega * n,
                "trace initial weight is not omega*n")
        for step in trace.get("steps", []):
            rule = step["rule"]
            slack = Fraction(step["xi"]) - len(step["set"])
            tally.steps[rule] += 1
            tally.min_slack[rule] = min(slack, tally.min_slack.get(rule, slack))
        tally.size_sum += len(S)
        tally.bound_sum += bound
        ver = _ok(outs[-1], "verify-bound")
        require(ver.get("verified") is True and "verified: true" in outs[-1].stdout,
                "verify-bound did not verify the trace")
    return check


def _check_lp(golden: Fraction | None, delta4: bool):
    def check(outs: list[Outcome], tally: Tally) -> None:
        res = _ok(outs[0], "lp-weights")
        omega = Fraction(res.get("optimal_omega") or -1)
        require(res.get("status") == "optimal", "LP not optimal")
        if golden is None:
            require(omega > Fraction(1, 3), f"omega {omega} is not above 1/3")
        else:
            require(omega == golden, f"omega {omega} != golden {golden}")
        require(Fraction((res.get("witness") or {}).get("omega", -1)) == omega,
                "witness omega differs from the optimum")
        tight, tags = res.get("tight_rows") or [], res.get("tight_row_tags") or []
        require(tight and len(tags) == len(tight), "tight rows missing")
        tally.tight_rows += len(tight)
        if delta4:
            tally.delta4_tight_tags = list(tags)
        chk = _ok(outs[1], "check-weights")
        require(chk.get("feasible") is True and chk.get("violations") == []
                and "feasible: true" in outs[1].stdout, "witness is not feasible")
    return check


def _check_exact(graph: Path, iota: int | None, cap: int | None = None):
    def check(outs: list[Outcome], tally: Tally) -> None:
        _ok(outs[0], "gen")
        res = _ok(outs[1], "exact")
        n, edges = read_graph(graph)
        W = res.get("witness")
        require(W is not None and res.get("iota") == len(W), "exact returned no witness")
        require(isolates(n, edges, W), "exact witness leaves an edge uncovered")
        if iota is not None:
            require(len(W) == iota, f"iota {len(W)} != known {iota}")
        require(len(W) >= cover_lower_bound(n, edges), "iota below the covering bound")
        if cap is not None:
            dec = _ok(outs[2], "exact --cap")
            require(dec.get("witness") is None and dec.get("iota") is None
                    and f"no isolating set of size <= {cap}" in outs[2].stdout,
                    f"decision run found a set of size <= {cap}")
    return check


def _check_edge(path: Path, x: int, y: int, b: int):
    def check(outs: list[Outcome], tally: Tally) -> None:
        res = _ok(outs[0], "certify-edge")
        n, edges = read_graph(path)
        for key, drop in (("iota_f", ()), ("iota_f_minus_x", (x,)),
                          ("iota_f_minus_y", (y,)), ("iota_f_minus_xy", (x, y))):
            keep = [v for v in range(n) if v not in drop]
            sub = [(u, v) for u, v in edges if u not in drop and v not in drop]
            want = brute_force_iota(keep, sub)
            require(res.get(key) == want >= b, f"{key} = {res.get(key)}, brute force {want}")
        require(res.get("valid") is True, "certificate not valid")
    return check


# ---------------------------------------------------------------------------
# job lists; each function writes its input files into work and returns jobs

def _greedy_calls(graph: Path, weights: Path, stem: Path, variant: str) -> list:
    report = str(stem) + "-greedy.json"
    return [
        ("solve", ["greedy", "--in", str(graph), "--delta", "4", "--variant", variant,
                   "--weights", str(weights), "--out", report]),
        ("certify", ["verify-bound", "--in", str(graph), "--trace", report,
                     "--weights", str(weights), "--out", str(stem) + "-verify.json"]),
    ]


def _gen_min_degree(graph: Path, n: int, seed: int) -> tuple[str, list[str]]:
    return ("prep", ["gen", "--random", "min-degree", "--n", str(n), "--param", "4",
                     "--seed", str(seed), "--out", str(graph)])


def _write_weights(work: Path, name: str, weights: dict) -> Path:
    path = work / name
    path.write_text(json.dumps(weights) + "\n")
    return path


def certify_large(rng, work: Path) -> list[Job]:
    weights = _write_weights(work, "delta4.json", DELTA4_WEIGHTS)
    omega = Fraction(DELTA4_WEIGHTS["omega"])
    jobs = []
    for n in LARGE_SIZES:
        stem = work / f"large{n}"
        graph = stem.with_suffix(".g6")
        calls = [_gen_min_degree(graph, n, rng.randrange(2**31))]
        calls += _greedy_calls(graph, weights, stem, "general")
        jobs.append(Job(f"min-degree n={n}", calls, _check_certify(graph, omega), n))
    return jobs


def certify_corpus(rng, work: Path) -> list[Job]:
    from isobound.graph import random_bipartite_min_degree_graph

    general = _write_weights(work, "delta4.json", DELTA4_WEIGHTS)
    tf = _write_weights(work, "tf.json", TF_WEIGHTS)
    jobs = []
    for i, n in enumerate(CORPUS_SIZES):
        stem = work / f"gen{i}"
        graph = stem.with_suffix(".g6")
        calls = [_gen_min_degree(graph, n, rng.randrange(2**31))]
        calls += _greedy_calls(graph, general, stem, "general")
        jobs.append(Job(f"min-degree n={n}", calls,
                        _check_certify(graph, Fraction(DELTA4_WEIGHTS["omega"])), n))

        stem = work / f"bip{i}"
        graph = stem.with_suffix(".txt")
        G = random_bipartite_min_degree_graph(n, 4, rng.randrange(2**31))
        write_edge_list(graph, n, list(G.edges()))
        jobs.append(Job(f"bipartite n={n}", _greedy_calls(graph, tf, stem, "triangle-free"),
                        _check_certify(graph, Fraction(TF_WEIGHTS["omega"])), n))
    return jobs


def lp_sweep(rng, work: Path) -> list[Job]:
    classes = list(LP_GOLDEN)
    rng.shuffle(classes)
    jobs = []
    for delta, variant in classes:
        stem = work / f"lp-{delta}-{variant}"
        cls = ["--delta", str(delta), "--variant", variant]
        calls = [("solve", ["lp-weights", *cls, "--out", f"{stem}.json"]),
                 ("certify", ["check-weights", *cls, "--weights", f"{stem}.json",
                              "--out", f"{stem}-check.json"])]
        jobs.append(Job(f"lp delta={delta} {variant}", calls,
                        _check_lp(LP_GOLDEN[(delta, variant)], (delta, variant) == (4, "general"))))
    return jobs


def exact_oracle(rng, work: Path) -> list[Job]:
    from isobound.families import metacirculant_14, prism_k4

    jobs = []
    for family, s, iota, cap in (("prism-chain", PRISM_S, PRISM_IOTA, PRISM_CAP),
                                 ("meta-chain", META_S, META_IOTA, None)):
        graph = work / f"{family}.g6"
        calls = [("prep", ["gen", "--family", family, "--s", str(s), "--out", str(graph)]),
                 ("solve", ["exact", "--in", str(graph), "--out", f"{graph}.exact.json"])]
        if cap is not None:
            calls.append(("certify", ["exact", "--in", str(graph), "--cap", str(cap),
                                      "--out", f"{graph}.cap.json"]))
        jobs.append(Job(f"{family} s={s}", calls, _check_exact(graph, iota, cap)))
    for i in range(REGULAR_COUNT):
        graph = work / f"regular{i}.g6"
        calls = [("prep", ["gen", "--random", "regular", "--n", str(REGULAR_N), "--param", "4",
                           "--seed", str(rng.randrange(2**31)), "--out", str(graph)]),
                 ("solve", ["exact", "--in", str(graph), "--out", f"{graph}.exact.json"])]
        jobs.append(Job(f"4-regular n={REGULAR_N}", calls, _check_exact(graph, None)))
    for name, gadget in (("prism_k4", prism_k4()), ("metacirculant_14", metacirculant_14())):
        path = work / f"{name}.txt"
        write_edge_list(path, gadget.F.n, list(gadget.F.edges()))
        x, y = gadget.special_edge
        calls = [("certify", ["certify-edge", "--in", str(path), "--x", str(x), "--y", str(y),
                              "--b", str(gadget.b), "--out", f"{path}.json"])]
        jobs.append(Job(f"certify-edge {name}", calls, _check_edge(path, x, y, gadget.b)))
    return jobs


JOB_LISTS = {
    "certify-large": certify_large,
    "certify-corpus": certify_corpus,
    "lp-sweep": lp_sweep,
    "exact-oracle": exact_oracle,
}
