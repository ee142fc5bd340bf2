"""Regenerate refs/audit_suites.json, the committed references of audit-sweep.

    python3 perfbench/make_refs.py

For every graph of each suite in inputs.AUDIT_SUITES and each proportion
of inputs.AUDIT_PS it records:

* gamma, gamma_bar: gamma_p of the graph and of its complement, by the ILP
  in oracle.py (independent of pardom);
* big_gamma: Gamma_p from pardom's big_gamma_p_exact at the commit this is
  run on.  Its witness is re-checked here for p-domination and minimality,
  and for n <= 16 the value is re-derived by plain subset enumeration.

Run it only on a commit whose Gamma_p is trusted; the file names the
pardom source it was derived from by hashing src/pardom/solver.py.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
from oracle import ilp_gamma  # noqa: E402

BRUTE_MAX_N = 16


def main() -> int:
    import pardom

    solver = (HERE.parent / "src" / "pardom" / "solver.py").read_bytes()
    doc = {"derivation": __doc__.strip().splitlines()[0],
           "solver_sha256": hashlib.sha256(solver).hexdigest()}
    for suite in inputs.AUDIT_SUITES:
        rows = []
        for label, n, prob, edges in inputs.audit_suite_graphs(suite):
            comp = inputs.complement_edges(n, edges)
            closed = check.closed_masks(n, edges)
            g = pardom.Graph.from_edges(n, edges)
            row = {"name": label, "n": n, "prob": prob,
                   "digest": inputs.edges_digest(n, edges),
                   "gamma": {}, "gamma_bar": {}, "big_gamma": {}}
            for text in inputs.AUDIT_PS:
                p = check.frac(text)
                t = check.threshold(n, p)
                row["gamma"][text] = ilp_gamma(n, edges, t)
                row["gamma_bar"][text] = ilp_gamma(n, comp, t)
                res = pardom.big_gamma_p_exact(g, p)
                w = sorted(res.witness)
                problem = (check.witness_problem(closed, w, t, res.cardinality)
                           or check.minimality_problem(closed, w, t))
                if not problem and n <= BRUTE_MAX_N:
                    brute = check.brute_big_gamma(n, edges, p)
                    if brute != res.cardinality:
                        problem = f"enumeration gives {brute}"
                if problem:
                    raise SystemExit(f"{label} p={text}: Gamma_p {res.cardinality}: {problem}")
                row["big_gamma"][text] = res.cardinality
            rows.append(row)
            print(label, row["gamma"], row["big_gamma"], file=sys.stderr)
        doc[suite] = rows
    out = HERE / "refs" / "audit_suites.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
