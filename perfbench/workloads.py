"""The four workloads: inputs built from a seed, operations with their checks.

Each builder takes the seed, does the set-up (graph construction with PF
weighting, input enumeration) and returns ``run()``, the timed phase.
``run`` returns one ``(label, latency_s, ok, detail)`` per operation.

Every operation carries its own check against an independent route or
reference; an exception or a deviation over tolerance makes it fail.

The library is reached through module attributes (``gralg.tau``, not an
imported name), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import time
import traceback

import numpy as np

from graphfree import cumulants, falg, graphs, gralg, verification

# trace --all-loops: graph and longest loop length.
TRACE_GRAPHS = (("a3", 10), ("a4", 8), ("k1_4", 6), ("dbl", 8))
TRACE_TOL = 1e-9

# moments --matrix-moments K: (q parallel edges, K, seeded draws). Cells
# that cost more than ~0.1 s a call (K >= 7, q=2 at K=6, q=3 at K=6) are
# left out; the cheap cells are drawn often, so a pass of ~1.5 s holds 100
# operations and the tail rule (p90) lands on the costly q=2 and q=3 cells.
MATRIX_GRID = ((1, 5, 48), (1, 6, 32), (2, 5, 16), (3, 5, 4))
MATRIX_TOL = 1e-8

# cumulants: per graph, at most this many composable tuples per order.
CUMULANT_GRAPHS = ("fork", "a4")
CUMULANT_ORDERS = {2: 20, 3: 20, 4: 20, 5: 20, 6: 20, 7: 8}
CUMULANT_TOL = 1e-9

# The CLI default of 16 does not finish; 7 takes ~5 s a pass, too few passes
# in a run for a steady best-of. 6 runs every one of the 74 checks.
VERIFY_MAX_DEGREE = 6


def _timed(ops, tol):
    """The timed phase over (label, fn) ops; fn returns its deviation from the check."""
    def run():
        return [_time_op(label, fn, tol) for label, fn in ops]
    return run


def _time_op(label, fn, tol):
    t0 = time.perf_counter()
    try:
        dev = fn()
        ok, detail = dev <= tol, f"deviation {dev:.3g} (tol {tol:.0e})"
    except Exception:  # noqa: BLE001 - a raising operation is a failed one
        ok, detail = False, traceback.format_exc(limit=3)
    return label, time.perf_counter() - t0, ok, detail


def _loop_name(g, p) -> str:
    return "->".join(g.ids[v] for v in p.vertices)


def trace_loops(seed: int):
    """Every closed loop up to a length, traced by the pairing and transform routes."""
    rng = np.random.default_rng(seed)
    ops = []
    for name, max_len in TRACE_GRAPHS:
        g = graphs.named_graph(name)
        for n in range(0, max_len + 1, 2):
            for v in range(g.n_vertices):
                loops = graphs.enumerate_paths(g, v, n, v)
                for k in rng.permutation(len(loops)):
                    p = loops[k]

                    def op(g=g, p=p):
                        x = gralg.GradedElement.basis(g, p)
                        return abs(gralg.tau(x) - falg.t_functional(falg.phi(x)))
                    ops.append((f"{name}:{_loop_name(g, p)}", op))
    return _timed(ops, TRACE_TOL)


def matrix_moments(seed: int):
    """Free-Poisson matrix moments on fresh two-vertex graphs with seeded weights."""
    rng = np.random.default_rng(seed)
    ops = []
    for q, kmax, draws in MATRIX_GRID:
        for _ in range(draws):
            alpha = float(rng.uniform(0.2, 0.8))
            g = graphs.two_vertex_graph(q, alpha, 1.0 - alpha)

            def op(g=g, q=q, kmax=kmax, alpha=alpha):
                got = cumulants.omega_matrix_moments(g, kmax)
                rate = alpha / ((1.0 - alpha) * q)
                want = [cumulants.nc_rate_moment(rate, k) for k in range(1, kmax + 1)]
                return max(abs(a - b) for a, b in zip(got, want))
            ops.append((f"q={q} K={kmax} alpha={alpha:.6f}", op))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    return _timed(ops, MATRIX_TOL)


def _composable(gens, order):
    """All composable tuples of the given generators, in a fixed order."""
    by_start: dict[int, list] = {}
    for p in gens:
        by_start.setdefault(p.start, []).append(p)
    out = [(p,) for p in gens]
    for _ in range(order - 1):
        out = [t + (p,) for t in out for p in by_start.get(t[-1].finish, ())]
    return out


def cumulant_tuples(seed: int):
    """Cumulants of seeded generator tuples by Mobius inversion and closed form."""
    rng = np.random.default_rng(seed)
    ops = []
    for name in CUMULANT_GRAPHS:
        g, _ = graphs.pf_weighting(graphs.named_graph(name))
        gens = cumulants.even_generators(g)
        for order, limit in CUMULANT_ORDERS.items():
            tuples = _composable(gens, order)
            pick = rng.choice(len(tuples), size=min(limit, len(tuples)), replace=False)
            for k in sorted(pick):
                tup = tuples[k]

                def op(g=g, tup=tup):
                    return cumulants.b_diff_norm(cumulants.kappa_mobius(g, tup),
                                                 cumulants.kappa_starry(g, tup))
                ops.append((f"{name}:" + ";".join(_loop_name(g, p) for p in tup), op))
    return _timed(ops, CUMULANT_TOL)


def verify_suite(seed: int):
    """verify --suite all at a degree that finishes; one check is one operation.

    ``run_verification`` builds its graph battery itself, inside the
    timed phase, so this workload's set-up is the import alone.
    """
    def run():
        report = verification.run_verification("all", max_degree=VERIFY_MAX_DEGREE, seed=seed)
        return [(r.check_id, r.elapsed, r.passed, r.witness) for r in report.results]
    return run


BUILDERS = {"trace-loops": trace_loops, "matrix-moments": matrix_moments,
            "cumulant-tuples": cumulant_tuples, "verify-suite": verify_suite}
