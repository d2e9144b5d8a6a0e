"""Command-line front end.

Subcommands wire the library into reproducible runs: greedy and exact
solving, weight optimization and checking, instance generation, gadget
certification, and independent trace verification. Human-readable
summaries go to stdout; a JSON run report goes to --out when given.
Exit codes: 0 success / verified, 1 domain failure or unverified, 2
usage errors (argparse).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

# hashlib maps OpenSSL, about 3.5 MB resident, so prefer the lean
# builtin module, as the standard library's random module does
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python <= 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .check import (Graph, GreedyTrace, WeightVector, check_feasible, check_optimality,
                    in_class, is_edge_list, is_isolating, parse_edge_list, parse_graph6,
                    verify_trace)
from .exact import SearchBudgetExceeded, exact_isolation_number
from .families import Gadget, certify_special_edge, chain, metacirculant_14, prism_k4
from .graph import (GenerationError, emit_edge_list, emit_graph6,
                    random_bipartite_min_degree_graph, random_min_degree_graph, random_regular_graph)
from .greedy import greedy_isolating_set
from .lpweights import MIN_GIRTH, VARIANTS, build_constraints, solve_min_omega


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text()
    return parse_edge_list(text) if is_edge_list(text) else parse_graph6(text)


def _read_json(path: str):
    return json.loads(Path(path).read_text())


def _pick(data, what: str, *fields: str):
    """A bare JSON value as it is, or the first of fields set in a run report's results."""
    if isinstance(data, dict) and "results" in data:
        results = data["results"] if isinstance(data["results"], dict) else {}
        data = next(filter(None, map(results.get, fields)), None)
        if data is None:
            raise ValueError(f"report JSON carries no {what}")
    return data


def _load_weights(data) -> WeightVector:
    return WeightVector.from_json_dict(_pick(data, "weight vector", "witness", "weights"))


def _fingerprint(G: Graph) -> dict:
    """O(n + m) stand-in for the input graph in a run report."""
    digest = sha256(emit_edge_list(G).encode()).hexdigest()
    return {"n": G.n, "m": G.num_edges, "sha256": digest}


class _Phases(dict):
    """Seconds per phase of a command; each lap ends where the last one did."""

    def __init__(self):
        super().__init__()
        self.last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self[name] = now - self.last
        self.last = now


def _cmd_greedy(args, report: dict) -> int:
    phases = _Phases()
    G = _load_graph(args.infile)
    wv = (_load_weights(_read_json(args.weights)) if args.weights
          else solve_min_omega(build_constraints(args.delta, args.variant)).witness)
    phases.lap("load_s")
    S, trace = greedy_isolating_set(G, wv)
    phases.lap("run_s")
    bound = math.floor(wv.omega * G.n)
    precondition = in_class(G, args.delta, MIN_GIRTH[args.variant])
    isolating = is_isolating(G, S)
    phases.lap("check_s")
    # per fired rule: its steps and the least slack xi - |A| among them,
    # as p/q in integers (q > 0), the earlier one kept on ties as min does
    rules = {}
    for step in trace.steps:
        q = step.xi.denominator
        p = step.xi.numerator - len(step.vertices) * q
        count, least = rules.get(step.rule.name, (0, (p, q)))
        if p * least[1] < least[0] * q:
            least = (p, q)
        rules[step.rule.name] = (count + 1, least)
    rules = dict(sorted(rules.items()))
    print(f"n = {G.n}, m = {G.num_edges}")
    print(f"omega = {wv.omega}")
    print(f"|S| = {len(S)}, bound floor(omega*n) = {bound}")
    print(f"isolating: {str(isolating).lower()}")
    print(f"precondition (min degree >= {args.delta}, {args.variant}): "
          f"{str(precondition).lower()}")
    print("steps: " + ", ".join(f"{k} x{count}" for k, (count, _) in rules.items()))
    report["input"] = {"graph": _fingerprint(G)}
    report["results"] = {
        "size": len(S),
        "set": list(S),
        "bound": bound,
        "isolating": isolating,
        "precondition": precondition,
        "weights": wv.to_json_dict(),
        "rules": {k: {"count": count, "min_slack": str(Fraction(*least))}
                  for k, (count, least) in rules.items()},
        "trace": trace.to_json_dict(),
    }
    phases.lap("report_s")
    report["timing"] = {"phases": phases}
    ok = isolating and (not precondition or len(S) <= bound)
    return 0 if ok else 1


def _cmd_exact(args, report: dict) -> int:
    G = _load_graph(args.infile)
    result = exact_isolation_number(G, size_cap=args.cap)
    if result.witness is None:
        print(f"no isolating set of size <= {args.cap}")
    else:
        print(f"iota = {result.iota}" if args.cap is None
              else f"isolating set of size {len(result.witness)} <= {args.cap}")
        print(f"witness = {list(result.witness)}")
    print(f"explored = {result.explored}")
    report["input"] = {"graph": _fingerprint(G)}
    report["results"] = {**result._asdict(), "size_cap": args.cap}
    return 0


def _cmd_lp_weights(args, report: dict) -> int:
    rows = build_constraints(args.delta, args.variant)
    sol = solve_min_omega(rows)
    print(f"omega = {sol.witness.omega}")
    print(f"witness = {json.dumps(sol.witness.to_json_dict())}")
    tags = [rows[i].tag for i in sol.tight_rows]
    print(f"tight rows = {tags}")
    certified = check_optimality(rows, sol)
    print(f"certified: {str(certified).lower()}")
    report["input"] = {"delta": args.delta, "variant": args.variant}
    report["results"] = sol.to_json_dict()
    report["results"]["tight_row_tags"] = tags
    return 0 if certified else 1


def _cmd_check_weights(args, report: dict) -> int:
    rows = build_constraints(args.delta, args.variant)
    wv = _load_weights(_read_json(args.weights))
    ok, violations = check_feasible(rows, wv)
    print(f"feasible: {str(ok).lower()}")
    for v in violations:
        print(f"violated row {v.index} [{v.row.tag}]: {v.row} (slack {v.slack})")
    report["input"] = {"delta": args.delta, "variant": args.variant,
                       "weights": wv.to_json_dict()}
    report["results"] = {
        "feasible": ok,
        "violations": [
            {"index": v.index, "tag": v.row.tag, "row": str(v.row), "slack": str(v.slack)}
            for v in violations
        ],
    }
    return 0 if ok else 1


def _cmd_certify_edge(args, report: dict) -> int:
    G = _load_graph(args.infile)
    gadget = Gadget(G, (args.x, args.y), args.b)
    cert = certify_special_edge(gadget)
    print(json.dumps(cert.to_json_dict(), indent=2))
    report["input"] = {"graph": _fingerprint(G), "x": args.x, "y": args.y, "b": args.b}
    report["results"] = cert.to_json_dict()
    return 0 if cert.valid else 1


def _cmd_verify_bound(args, report: dict) -> int:
    phases = _Phases()
    G = _load_graph(args.infile)
    # weights checked first; a report passed as both is read once
    weights_doc = _read_json(args.weights)
    wv = _load_weights(weights_doc)
    trace_doc = weights_doc if args.trace == args.weights else _read_json(args.trace)
    trace = GreedyTrace.from_json_dict(_pick(trace_doc, "trace", "trace"))
    phases.lap("load_s")
    outcome = verify_trace(G, trace, wv)
    phases.lap("replay_s")
    results = outcome.to_json_dict()
    for key, val in results.items():
        print(f"{key}: {str(val).lower()}")
    size, bound = len(set(trace.D)), math.floor(wv.omega * G.n)
    if outcome:  # a verified replay proves |S| <= omega*n
        print(f"bound: |S| = {size} <= floor(omega*n) = {bound}")
    report["input"] = {"graph": _fingerprint(G), "weights": wv.to_json_dict()}
    report["results"] = {**results, "size": size, "bound": bound}
    phases.lap("report_s")
    report["timing"] = {"phases": phases}
    return 0 if outcome else 1


def _run_reported(cmd, args, argv: list[str]) -> int:
    """Run a report command, then stamp its report and write it to --out."""
    t0 = time.perf_counter()
    report = {"command": args.command, "argv": argv, "version": __version__}
    code = cmd(args, report)
    report["timing_seconds"] = time.perf_counter() - t0
    if args.out:
        # compact: with indent, json leaves its C encoder for pure Python
        Path(args.out).write_text(json.dumps(report, separators=(",", ":")) + "\n")
    return code


def _cmd_gen(args) -> int:
    if (args.family is None) == (args.random is None):
        print("error: give exactly one of --family / --random", file=sys.stderr)
        return 2
    if args.family:
        if args.s is None:
            print("error: --family requires --s", file=sys.stderr)
            return 2
        gadget = prism_k4() if args.family == "prism-chain" else metacirculant_14()
        G = chain(gadget, args.s)
    else:
        missing = [f for f, v in (("--n", args.n), ("--param", args.param),
                                  ("--seed", args.seed)) if v is None]
        if missing:
            print(f"error: --random requires {', '.join(missing)}", file=sys.stderr)
            return 2
        make = {"min-degree": random_min_degree_graph, "regular": random_regular_graph,
                "bipartite-min-degree": random_bipartite_min_degree_graph}[args.random]
        G = make(args.n, args.param, args.seed)
    text = emit_edge_list(G) if args.graph_format == "edgelist" else emit_graph6(G) + "\n"
    if args.graph_out:
        Path(args.graph_out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"n = {G.n}, m = {G.num_edges}", file=sys.stderr)
    return 0


def _add_graph_input(p):
    p.add_argument("--in", dest="infile", required=True, help="input graph file")


def _add_weight_class(p):
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--variant", choices=VARIANTS, default="general")


def _greedy_args(p):
    _add_graph_input(p)
    _add_weight_class(p)
    p.add_argument("--weights", help="weight-vector JSON; default: solve the LP")


def _exact_args(p):
    _add_graph_input(p)
    p.add_argument("--cap", type=int, default=None,
                   help="decision mode: find any set of size <= CAP or certify none")


def _check_weights_args(p):
    _add_weight_class(p)
    p.add_argument("--weights", required=True)


def _gen_args(p):
    p.add_argument("--family", choices=("prism-chain", "meta-chain"))
    p.add_argument("--s", type=int, help="copies in the chained family")
    p.add_argument("--random", choices=("min-degree", "regular", "bipartite-min-degree"))
    p.add_argument("--n", type=int)
    p.add_argument("--param", type=int, help="degree bound / regularity degree")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="graph_out", help="write the graph here instead of stdout")
    p.add_argument("--format", dest="graph_format", choices=("graph6", "edgelist"),
                   default="graph6", help="graph6 is n(n-1)/12 bytes; use edgelist for large n")


def _certify_edge_args(p):
    _add_graph_input(p)
    for flag in ("--x", "--y", "--b"):
        p.add_argument(flag, type=int, required=True)


def _verify_bound_args(p):
    _add_graph_input(p)
    p.add_argument("--trace", required=True)
    p.add_argument("--weights", required=True)


# name -> (report command or _cmd_gen, argument adder, help), in help order
COMMANDS = {
    "greedy": (_cmd_greedy, _greedy_args, "run the rule-based greedy"),
    "exact": (_cmd_exact, _exact_args, "exact isolation number (small graphs)"),
    "lp-weights": (_cmd_lp_weights, _add_weight_class, "optimal weights for (delta, variant)"),
    "check-weights": (_cmd_check_weights, _check_weights_args, "feasibility of a weight vector"),
    "gen": (_cmd_gen, _gen_args, "generate instances (graph6 or edge list)"),
    "certify-edge": (_cmd_certify_edge, _certify_edge_args, "special-edge gadget certificate"),
    "verify-bound": (_cmd_verify_bound, _verify_bound_args, "independently replay a greedy trace"),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    # every subcommand, or just `only`, whose usage line still lists them all
    parser = argparse.ArgumentParser(prog="isobound",
                                     description="Isolating sets with certified size bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    listed = {"metavar": "{" + ",".join(COMMANDS) + "}"} if only else {}
    sub = parser.add_subparsers(dest="command", required=True, **listed)
    for name, (_, add_args, help) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help)
            if name != "gen":  # gen's --out is the graph, not a report
                p.add_argument("--out", help="write a JSON run report here")
            add_args(p)
    return parser


# one parser per value of `only`, built by the first call that needs it.
# The parser holds the flags of each argument adder as it stood then; after
# a change to an adder in COMMANDS, call _parser.cache_clear()
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # no command first (no arguments, -h, --version, a typo): list them all
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = _parser(only).parse_args(argv)
    cmd = COMMANDS[args.command][0]
    try:
        return cmd(args) if args.command == "gen" else _run_reported(cmd, args, argv)
    # RecursionError: JSON nested past the interpreter's depth limit
    except (ValueError, GenerationError, SearchBudgetExceeded, OSError,
            RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
