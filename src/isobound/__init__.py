"""Isolating sets with certified size bounds.

An isolating set S of a graph G is one whose closed neighborhood hits
every edge: G − N[S] has no edge. This package constructs such sets
with a weight-driven greedy whose per-step certificates bound |S| by
omega * n, computes the optimal omega exactly per minimum-degree class,
solves small instances exactly, and builds the matching lower-bound
families.
"""

from .check import (Graph, Graph6ParseError, GreedyRule, GreedyStep, GreedyTrace, LinearRow,
                    LPSolution, RowViolation, TraceVerification, WeightVector, check_feasible,
                    check_optimality, in_class, is_isolating, parse_edge_list, parse_graph6,
                    verify_trace)
from .exact import ExactResult, SearchBudgetExceeded, exact_isolation_number
from .families import (Gadget, GadgetCertificate, certify_special_edge, chain,
                       metacirculant_14, prism_k4)
from .graph import (GenerationError, emit_edge_list, emit_graph6,
                    random_bipartite_min_degree_graph, random_min_degree_graph, random_regular_graph)
from .greedy import greedy_isolating_set
from .lpweights import build_constraints, solve_min_omega

__version__ = "0.1.0"

__all__ = [
    "ExactResult",
    "Gadget",
    "GadgetCertificate",
    "GenerationError",
    "Graph",
    "Graph6ParseError",
    "GreedyRule",
    "GreedyStep",
    "GreedyTrace",
    "LPSolution",
    "LinearRow",
    "RowViolation",
    "SearchBudgetExceeded",
    "TraceVerification",
    "WeightVector",
    "build_constraints",
    "certify_special_edge",
    "chain",
    "check_feasible",
    "check_optimality",
    "emit_edge_list",
    "emit_graph6",
    "exact_isolation_number",
    "greedy_isolating_set",
    "in_class",
    "is_isolating",
    "metacirculant_14",
    "parse_edge_list",
    "parse_graph6",
    "prism_k4",
    "random_bipartite_min_degree_graph",
    "random_min_degree_graph",
    "random_regular_graph",
    "solve_min_omega",
    "verify_trace",
]
