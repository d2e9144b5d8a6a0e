"""Replay a greedy report's trace with the trusted base alone.

    python -I -S -B tests/replay_alone.py DIR GRAPH REPORT

DIR holds check.py, the trusted base: the isobound source directory,
or a directory with a copy of check.py and nothing else. -I drops
PYTHONPATH and the script's directory from the path, -S site-packages,
so the package is not importable (the script stops if it is); check.py
is loaded from DIR by path instead. -I also ignores
PYTHONDONTWRITEBYTECODE, so -B keeps DIR free of bytecode. GRAPH's
format is decided by check.is_edge_list, the rule the CLI applies.
REPORT's trace is replayed twice: as written, and with its first xi
raised by 1/1000003. Both outcomes are printed as one JSON list, and
the exit code is 0 only if the first verifies and the second fails
xi_matches.
"""

import importlib.util
import json
import sys
from fractions import Fraction
from pathlib import Path

base, graph_file, report_file = map(Path, sys.argv[1:])
if importlib.util.find_spec("isobound") is not None:
    sys.exit("the isobound package is importable")
spec = importlib.util.spec_from_file_location("check", base / "check.py")
check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check)

text = graph_file.read_text()
G = check.parse_edge_list(text) if check.is_edge_list(text) else check.parse_graph6(text)
results = json.loads(report_file.read_text())["results"]
wv = check.WeightVector.from_json_dict(results["weights"])
genuine = check.verify_trace(G, check.GreedyTrace.from_json_dict(results["trace"]), wv)
step = results["trace"]["steps"][0]
step["xi"] = str(Fraction(step["xi"]) + Fraction(1, 1000003))
forged = check.verify_trace(G, check.GreedyTrace.from_json_dict(results["trace"]), wv)
print(json.dumps([genuine.to_json_dict(), forged.to_json_dict()]))
if not genuine or forged.xi_matches:
    sys.exit("the trusted base alone misjudged the genuine or the forged trace")
