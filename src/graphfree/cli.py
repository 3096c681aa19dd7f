"""Command-line surface.

Commands: trace, moments, cumulants, freeness, factor, gram, verify.
Graphs come from spec files (JSON records with ``vertices`` and
``edges``) or from the built-in battery via ``--named``.  Exit codes:
0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import cumulants, factors, falg, verification
from .graphs import (Graph, GraphError, adjacency_powers, enumerate_paths,
                     graph_from_spec, named_graph, normalize_weights, pf_weighting)
from .gralg import tau_path
from .noncross import catalan

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


# gram refuses above this many in-block inner products (falg.gram_pair_counts).
# At about 2 us each, path enumeration included (2-core x86-64 host), that is
# some 4 s; at the default degree 16, a3 needs 132,348 and k1_3 needs 64.6M.
GRAM_MAX_PAIRS = 2_000_000

# trace --all-loops refuses above this many loops, and trace refuses above
# this much work: both routes run O(n^3) interval recursions on a loop of
# length n, so the work is the sum of n^3 over the loops, counted from
# diag(A^n) before any loop is built.  On a 2-core x86-64 host a3 to length
# 24 (16,383 loops, 1.8e8 steps) takes 2.2-3.0 s, and the a2 alternating loop
# of length 792 (5e8, the densest recursion there is) 5.5-5.8 s.
TRACE_MAX_LOOPS = 20_000
TRACE_MAX_WORK = 500_000_000

# freeness refuses above this many (tuple, partition) extensions: the
# composable generator tuples of order k, counted from A^(2k), times
# Catalan(k), summed over k.  At about 3 us each (2-core x86-64 host) that is
# some 30 s; fork needs 776,861 to order 7 (2.3 s) and 6,755,691 to order 8.
FREENESS_MAX_EXTENSIONS = 10_000_000

# cumulants refuses tuples whose NC(n) has more partitions than this: Mobius
# inversion enumerates and caches all Catalan(n) of them.  n = 11 (58,786)
# took 4.7 s and 114 MB on a 2-core x86-64 host, and each order costs ~4x more.
CUMULANTS_MAX_PARTITIONS = 100_000


class CliError(Exception):
    pass


def _load_graph(args) -> Graph:
    if getattr(args, "named", None):
        g = named_graph(args.named)
    else:
        if not args.graph:
            raise CliError("give a graph file or --named NAME")
        try:
            with open(args.graph, encoding="utf-8") as fh:
                record = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read {args.graph}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliError(f"{args.graph}: not a valid graph spec: {exc}") from exc
        try:
            g, _ = graph_from_spec(record)
        except GraphError as exc:
            raise CliError(f"{args.graph}: {exc}") from exc
    if getattr(args, "weights", None):
        try:
            raw = [float(x) for x in args.weights.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --weights: {exc}") from exc
        if len(raw) != g.n_vertices:
            raise CliError(f"--weights needs {g.n_vertices} values")
        g = g.with_mu2(normalize_weights(raw))
    if getattr(args, "pf", False):
        try:
            g, _ = pf_weighting(g)
        except GraphError as exc:
            raise CliError(str(exc)) from exc
    return g


def _parse_loop(g: Graph, text: str):
    names = [s.strip() for s in text.split(",")]
    try:
        return g.path_from_vertices(names)
    except GraphError as exc:
        raise CliError(str(exc)) from exc


def _emit(args, human_lines, payload):
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _table(rows, header):
    widths = [max(len(str(r[i])) for r in [header] + rows)
              for i in range(len(header))]
    lines = ["  ".join(str(h).ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))
    return lines


# ---------------------------------------------------------------------------
# commands


def cmd_trace(args) -> int:
    g = _load_graph(args)
    loops = []
    if args.loop:
        loops = [_parse_loop(g, args.loop)]
        n = loops[0].length
        if n ** 3 > TRACE_MAX_WORK:
            raise CliError(f"tracing a loop of length {n} takes some n^3 = {n ** 3} "
                           f"steps, more than {TRACE_MAX_WORK}; give a shorter loop")
    elif args.all_loops:
        # (A^n)[v, v] counts the loops of length n at v; stop as gram does,
        # and at the first zero power, past which no path exists.
        total, work, max_len = 0, 0, -1
        for n, power in zip(range(args.max_len + 1), adjacency_powers(g)):
            if not power.any():
                break
            max_len = n
            count = sum(power.diagonal())
            total += count
            work += count * n ** 3
            if total > TRACE_MAX_LOOPS:
                raise CliError(f"trace --all-loops --max-len {args.max_len} would trace "
                               f"more than {TRACE_MAX_LOOPS} loops: {total} up to "
                               f"length {n} alone; lower --max-len")
            if work > TRACE_MAX_WORK:
                raise CliError(f"trace --all-loops --max-len {args.max_len} would take "
                               f"more than {TRACE_MAX_WORK} steps (n^3 per loop of length "
                               f"n): {work} up to length {n} alone; lower --max-len")
        for n in range(0, max_len + 1, 2):
            for v in range(g.n_vertices):
                loops.extend(enumerate_paths(g, v, n, v))
    else:
        raise CliError("give --loop or --all-loops")
    rows, payload = [], []
    for p in loops:
        via_pairings = tau_path(g, p)
        via_transform = falg.t_phi_path(g, p)
        name = "->".join(g.ids[v] for v in p.vertices)
        rows.append([name, f"{via_pairings:.12g}", f"{via_transform:.12g}",
                     f"{abs(via_pairings - via_transform):.3g}"])
        payload.append({"loop": name, "pairing_trace": via_pairings,
                        "transform_trace": via_transform,
                        "difference": abs(via_pairings - via_transform)})
    _emit(args, _table(rows, ["loop", "pairing route", "transform route", "diff"]),
          {"trace": payload})
    # traces grow like Catalan numbers: judge each loop relative to its trace
    # once that passes 1, where rounding alone passes any absolute tolerance
    ok = all(p["difference"] <= args.tol * max(1.0, abs(p["pairing_trace"]))
             for p in payload)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _parse_tuple(g: Graph, text: str):
    return [_parse_loop(g, part) for part in text.split(";")]


def cmd_moments(args) -> int:
    g = _load_graph(args)
    payload = {}
    lines = []
    if args.tuple:
        paths = _parse_tuple(g, args.tuple)
        val = cumulants.moment_phi(g, paths)
        pretty = {g.ids[v]: c for v, c in val.items()}
        lines.append(f"moment: {pretty}")
        payload["moment"] = pretty
    elif args.matrix_moments:
        got = cumulants.omega_matrix_moments(g, args.matrix_moments)
        evens = g.vertices_of_parity(0)
        odds = g.vertices_of_parity(1)
        q = g.n_edges
        rate = g.mu2[evens[0]] / (g.mu2[odds[0]] * q)
        want = [cumulants.nc_rate_moment(rate, k)
                for k in range(1, args.matrix_moments + 1)]
        rows = [[k + 1, f"{got[k]:.12g}", f"{want[k]:.12g}",
                 f"{abs(got[k] - want[k]):.3g}"]
                for k in range(len(got))]
        lines += _table(rows, ["k", "matrix moment", "pairing sum", "diff"])
        payload["matrix_moments"] = got
        payload["pairing_sums"] = want
        payload["rate"] = rate
    else:
        raise CliError("give --tuple or --matrix-moments K")
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_cumulants(args) -> int:
    g = _load_graph(args)
    if not args.tuple:
        raise CliError("give --tuple 'v,w,v;v,w,v'")
    paths = _parse_tuple(g, args.tuple)
    # the first order past the budget, never Catalan(n) itself: it has
    # ~0.6 n digits, too many to format for a long tuple
    n = len(paths)
    k = next((k for k in range(n + 1) if catalan(k) > CUMULANTS_MAX_PARTITIONS), None)
    if k is not None:
        raise CliError(f"cumulants of a {n}-tuple would invert over at least "
                       f"Catalan({k}) = {catalan(k)} non-crossing partitions, more "
                       f"than {CUMULANTS_MAX_PARTITIONS}; give a shorter tuple")
    via_mobius = cumulants.kappa_mobius(g, paths)
    via_closed = cumulants.kappa_starry(g, paths)
    diff = cumulants.b_diff_norm(via_mobius, via_closed)
    pretty_m = {g.ids[v]: c for v, c in via_mobius.items()}
    pretty_c = {g.ids[v]: c for v, c in via_closed.items()}
    _emit(args,
          [f"mobius route: {pretty_m}", f"closed form:  {pretty_c}",
           f"difference:   {diff:.3g}"],
          {"mobius": pretty_m, "closed_form": pretty_c, "difference": diff})
    return EXIT_OK if diff <= args.tol else EXIT_VERIFICATION


def cmd_freeness(args) -> int:
    g = _load_graph(args)
    # The tuples of order k are the paths of length 2k between even vertices,
    # and each costs one extension per partition in NC(k); past the first
    # zero power there are none.
    evens = g.vertices_of_parity(0)
    total = 0
    for k, power in zip(range(2, args.max_order + 1),
                        itertools.islice(adjacency_powers(g), 4, None, 2)):
        if not power.any():
            break
        total += int(power[np.ix_(evens, evens)].sum()) * catalan(k)
        if total > FREENESS_MAX_EXTENSIONS:
            raise CliError(f"freeness --max-order {args.max_order} would evaluate "
                           f"more than {FREENESS_MAX_EXTENSIONS} (tuple, partition) "
                           f"extensions: at least {total} up to order {k} alone; "
                           "lower --max-order")
    rng = np.random.default_rng(args.seed)
    rep = cumulants.freeness_certificate(g, max_order=args.max_order,
                                         tol=args.tol, rng=rng)
    lines = [
        f"mixed tuples checked: {rep.n_tuples} (orders 2..{rep.max_order})",
        f"max mixed cumulant:   {rep.max_mixed_cumulant:.3g} (tol {rep.tol:.1g})",
        f"diagram identity:     {rep.stp_checks} checks, max dev {rep.stp_max_dev:.3g}",
        f"passed: {rep.passed}",
    ] + [f"note: {n}" for n in rep.notes]
    if rep.witness and not rep.passed:
        lines.append(f"witness: {rep.witness}")
    _emit(args, lines, rep.as_dict())
    return EXIT_OK if rep.passed else EXIT_VERIFICATION


def cmd_factor(args) -> int:
    g = _load_graph(args)
    rep = factors.m_gamma_report(g)
    lines = [f"verdict: {rep.verdict}"]
    if rep.atoms:
        lines += _table([[v, f"{t:.12g}"] for v, t in rep.atoms],
                        ["atom vertex", "trace"])
    if rep.diffuse:
        lines += _table(
            [[("(not computed)" if p is None else f"{p:.12g}"), f"{w:.12g}"]
             for p, w in rep.diffuse],
            ["diffuse parameter", "weight"])
    lines += [f"note: {n}" for n in rep.notes]
    _emit(args, lines, rep.as_dict())
    return EXIT_OK


def cmd_gram(args) -> int:
    g = _load_graph(args)
    # Stop counting at the first degree past the limit: the count is then a
    # lower bound, but its cost stays bounded for any --max-degree.
    for degree, pairs in zip(range(args.max_degree + 1), falg.gram_pair_counts(g)):
        if pairs > GRAM_MAX_PAIRS:
            raise CliError(f"gram at --max-degree {args.max_degree} would evaluate "
                           f"more than {GRAM_MAX_PAIRS} inner products: {pairs} up "
                           f"to degree {degree} alone; lower --max-degree")
    basis = falg.truncated_basis(g, args.max_degree)
    worst_off, worst_diag = 0.0, 0.0
    for p, q, val in falg.gram_blocks(g, args.max_degree):
        if p == q:
            worst_diag = max(worst_diag, abs(val - g.mu(p.start) * g.mu(p.finish)))
        else:
            worst_off = max(worst_off, abs(val))
    ok = worst_off <= args.tol and worst_diag <= args.tol
    _emit(args,
          [f"basis size: {len(basis)} (degrees <= {args.max_degree})",
           f"max off-diagonal: {worst_off:.3g}",
           f"max diagonal deviation from mu(s)mu(f): {worst_diag:.3g}",
           f"passed: {ok}"],
          {"basis_size": len(basis), "max_off_diagonal": worst_off,
           "max_diagonal_deviation": worst_diag, "passed": ok})
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_verify(args) -> int:
    rep = verification.run_verification(
        suite=args.suite, max_degree=args.max_degree, tol=args.tol,
        seed=args.seed, fast=args.fast)
    rows = [[r.check_id, "pass" if r.passed else "FAIL", r.witness,
             f"{r.elapsed:.2f}s"] for r in rep.results]
    lines = _table(rows, ["check", "status", "witness", "time"])
    lines += [f"suite {t['suite']}: {t['checks']} checks, {t['elapsed']:.2f}s"
              for t in rep.suite_totals()]
    lines.append(f"{rep.n_passed}/{len(rep.results)} checks passed")
    _emit(args, lines, rep.as_dict())
    return EXIT_OK if rep.ok else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# argument plumbing


def _checked(convert, ok, name: str):
    """An argparse type: ``convert``, then refuse values failing ``ok``.

    argparse reports the refusal as "invalid <name> value" and exits 2.
    """
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


_COUNT = _checked(int, lambda n: n >= 0, "non-negative integer")
_FLAGS = {"--tol": {"type": _checked(float, lambda t: 0 <= t < math.inf,
                                     "finite non-negative float"), "default": 1e-9},
          "--max-degree": {"type": _COUNT, "default": 16},
          "--max-len": {"type": _COUNT, "default": 4},
          "--seed": {"type": _COUNT, "default": 0},
          "--matrix-moments": {"type": _checked(int, lambda n: n >= 1, "positive integer"),
                               "metavar": "K",
                               "help": "normalized matrix moments up to order K"}}


def _add_common(p, *flags, graph_arg: bool = True):
    """The graph arguments, the given entries of _FLAGS, and --json."""
    if graph_arg:
        p.add_argument("graph", nargs="?", help="graph spec file (JSON record)")
        p.add_argument("--named", help="built-in graph (a2, a3, a4, k1_2, ...)")
        p.add_argument("--pf", action="store_true",
                       help="replace the weighting by the Perron-Frobenius one")
        p.add_argument("--weights",
                       help="comma-separated vertex weights (normalized)")
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])
    p.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphfree",
        description="Path-algebra traces, cumulants and factor parameters "
                    "on weighted bipartite graphs")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="trace of loops via both routes")
    _add_common(p, "--tol", "--max-len")
    p.add_argument("--loop", help="comma-separated vertex ids")
    p.add_argument("--all-loops", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("moments", help="base-valued or matrix moments")
    _add_common(p, "--matrix-moments")
    p.add_argument("--tuple", help="semicolon-separated loops of length 2")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("cumulants", help="cumulants by both routes")
    _add_common(p, "--tol")
    p.add_argument("--tuple", help="semicolon-separated length-2 paths")
    p.set_defaults(fn=cmd_cumulants)

    p = sub.add_parser("freeness", help="mixed-cumulant certificate")
    _add_common(p, "--tol", "--seed")
    p.add_argument("--max-order", type=int, default=5)
    p.set_defaults(fn=cmd_freeness)

    p = sub.add_parser("factor", help="structure report of the graph algebra")
    _add_common(p)
    p.set_defaults(fn=cmd_factor)

    p = sub.add_parser("gram", help="orthogonality of the path basis")
    _add_common(p, "--tol", "--max-degree")
    p.set_defaults(fn=cmd_gram)

    p = sub.add_parser("verify", help="run property suites")
    _add_common(p, "--tol", "--max-degree", "--seed", graph_arg=False)
    p.add_argument("--suite", default="all",
                   choices=list(verification.SUITES) + ["all"])
    p.add_argument("--fast", action="store_true", help="smaller size caps")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
