"""Reference gamma_p by integer linear programming (scipy's HiGHS).

Model: binary x_v (v picked) and y_u (u covered), with
y_u <= sum of x_v over the closed neighbourhood N[u] and sum y >= t;
minimise sum x.  The optimum is gamma_p for t = ceil(p * n).

scipy is a benchmark-only dependency.  The benchmark runs this file as a
separate process so that neither scipy's import time nor its memory lands
in any measured number:

    echo '[[n, [[u, v], ...], t], ...]' | python3 perfbench/oracle.py
"""

from __future__ import annotations

import json
import sys

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix


def ilp_gamma(n: int, edges, t: int) -> int:
    if t == 0:
        return 0
    nbrs = [{v} for v in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    # Columns 0..n-1 are x, n..2n-1 are y.
    a = lil_matrix((n + 1, 2 * n))
    for u in range(n):
        a[u, n + u] = 1
        for v in nbrs[u]:
            a[u, v] = -1
        a[n, n + u] = 1
    lower = np.full(n + 1, -np.inf)
    upper = np.zeros(n + 1)
    lower[n], upper[n] = t, np.inf
    cost = np.concatenate([np.ones(n), np.zeros(n)])
    res = milp(
        cost,
        constraints=LinearConstraint(a.tocsr(), lower, upper),
        integrality=np.ones(2 * n),
        bounds=Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    if not res.success:
        raise RuntimeError(f"ILP failed: {res.message}")
    return int(round(res.fun))


def main() -> int:
    requests = json.load(sys.stdin)
    json.dump([ilp_gamma(n, edges, t) for n, edges, t in requests], sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
