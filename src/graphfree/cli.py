"""Command-line surface.

Commands: trace, moments, cumulants, freeness, factor, gram, verify.
Graphs come from spec files (JSON records with ``vertices`` and
``edges``) or from the built-in battery via ``--named``.  Exit codes:
0 success, 1 verification failure, 2 input error.  A command whose counted
work would pass its budget exits 2 before the work starts, with one message:
"<command> would need more than <budget> <unit>: at least <count> <where>; <fix>".
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import cumulants, factors, falg, verification
from .graphs import (Graph, GraphError, adjacency_powers,
                     graph_from_spec, named_graph, normalize_weights, pf_weighting)
from .gralg import FaceStack, tau_path
from .noncross import catalan

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


# gram refuses above this many in-block inner products (falg.gram_pair_counts).
# At about 2 us each, path enumeration included (2-core x86-64 host), that is
# some 4 s; at the default degree 16, a3 needs 132,348 and k1_3 needs 64.6M.
GRAM_MAX_PAIRS = 2_000_000

# trace --all-loops refuses above this many loops, and trace above this many
# steps, counted before any loop is built: n^3 for one loop of length n (both
# routes run O(n^3) interval recursions), and for --all-loops the bound of
# _all_loop_work.  On a 2-core x86-64 host a3 to length 24 (16,383 loops,
# 3.9e7 steps) takes 0.7-0.9 s, the a2 loops to length 400 (8.6e7) 1.1 s, and
# the a2 alternating loop of length 792 (5e8, the densest recursion there is)
# 5.5-5.8 s.
TRACE_MAX_LOOPS = 20_000
TRACE_MAX_WORK = 500_000_000

# moments --matrix-moments K refuses above this many face rows
# (cumulants.matrix_moment_rows), and, as trace does, when a single loop of
# length 2K passes TRACE_MAX_WORK.  On a 2-core x86-64 host a row costs 2-14 us
# (most for q = 2, whose words pair most), so dbl at K = 17 (524,286 rows)
# takes 7.3 s; at K = 30 it would push 4.3e9.
MATRIX_MOMENTS_MAX_ROWS = 1_000_000

# freeness refuses above this many (tuple, partition) extensions
# (cumulants.freeness_extensions).  At about 1-3 us each (2-core x86-64 host)
# that is 10-30 s; fork needs 776,861 to order 7 (1.0-1.4 s) and 6,755,691 to
# order 8 (6.9 s).
FREENESS_MAX_EXTENSIONS = 10_000_000


class CliError(Exception):
    pass


def _refuse_over(counts, budget: int, unit: str, doing: str, fix: str):
    """CliError at the first (where, units) of counts past budget; reads no further."""
    for where, units in counts:
        if units > budget:
            raise CliError(f"{doing} would need more than {budget} {unit}: "
                           f"at least {units} {where}; {fix}")


def _load_graph(args) -> Graph:
    if (args.graph is None) == (args.named is None):
        raise CliError("give exactly one of a graph file and --named NAME")
    if args.named is not None:
        g = named_graph(args.named)
    else:
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
    if args.weights is not None:
        try:
            raw = [float(x) for x in args.weights.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --weights: {exc}") from exc
        if len(raw) != g.n_vertices:
            raise CliError(f"--weights needs {g.n_vertices} values")
        g = g.with_mu2(normalize_weights(raw))
    if args.pf:
        try:
            g, _ = pf_weighting(g)
        except GraphError as exc:
            raise CliError(str(exc)) from exc
    return g


def _parse_loop(g: Graph, text: str):
    names = [s.strip() for s in text.split(",")]
    try:
        idx = [g.index(x) for x in names]
        for u, x in zip(idx, idx[1:]):
            if sum(g.efinish[e] == x for e in g.out_edges(u)) > 1:
                raise CliError(f"--loop {text} crosses the parallel edges {g.ids[u]} -> "
                               f"{g.ids[x]}, which a vertex list cannot tell apart; "
                               "--all-loops traces every loop edge by edge")
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


def _loop_name(g: Graph, start: int, edges) -> str:
    return "->".join(g.ids[v] for v in (start, *map(g.efinish.__getitem__, edges)))


def _all_loop_traces(g: Graph, max_len: int):
    """(name, pairing trace, transform trace) of every loop up to max_len.

    From each end vertex v, the walks into v are grown backwards depth
    first, one edge in front at a time, and pruned where the front vertex
    lies too far from v to close within max_len.  Each push adds one row
    to a face stack and one to a gap stack, so a row is built once per
    distinct suffix; where the front reaches v, both corners are read as
    the per-loop routes read them (:func:`tau_path`,
    :func:`falg.t_phi_path`), so the values are theirs to the last bit,
    and a loop of length max_len is not pushed at all.  The two stacks
    stay separate recurrences.  The loops come out in the order of
    enumerate_paths: by length, start and edge ids.
    """
    mu, mu2, estart, efinish = g.mu, g.mu2, g.estart, g.efinish
    into = [[g.erev[e] for e in g.out_edges(u)] for u in range(g.n_vertices)]
    max_len -= max_len % 2  # the graph is bipartite: every loop has even length
    found = []
    for v in range(g.n_vertices):
        dist, frontier = {v: 0}, [v]
        for d in range(1, max_len + 1):  # breadth first, as far as a loop can reach
            frontier = [x for u in frontier for x in map(efinish.__getitem__, g.out_edges(u))
                        if x not in dist]
            dist.update((x, d) for x in frontier)
        faces, gaps, suffix = FaceStack(g), falg.GapStack(g), []
        found.append((0, v, (), mu2[v], mu2[v]))
        todo = [iter(into[v])]
        while todo:
            e = next(todo[-1], None)
            if e is None:
                todo.pop()
                if suffix:
                    suffix.pop()
                    faces.pop()
                    gaps.pop()
                continue
            u, length = estart[e], len(suffix) + 1
            if length + dist.get(u, max_len) > max_len:
                continue
            if u == v:
                edges = (e, *reversed(suffix))
                denom = math.prod(map(mu, map(efinish.__getitem__, edges)))
                found.append((length, v, edges, mu2[v] * faces.corner_with(e) / denom,
                              gaps.corner_with(e) * mu2[v]))
            if length < max_len:
                suffix.append(e)
                faces.push(e)
                gaps.push(e)
                todo.append(iter(into[u]))
    found.sort(key=lambda t: t[:3])
    return [(_loop_name(g, v, edges), pairing, transform)
            for _, v, edges, pairing, transform in found]


def _all_loop_work(g: Graph, max_len: int):
    """Yield (n, loops, steps) up to length n, for n = 0..max_len while paths exist.

    (A^l)[v, v] counts the loops of length l at v, and 1^T A^l 1 all
    paths of length l, which bound the suffixes that
    :func:`_all_loop_traces` pushes at that length.  A push or a corner
    read at length l adds, per partner r < l, a row of at most r
    entries: at most l^2/2 multiply-adds, on each of two stacks.  So
    steps bounds the walk's multiply-adds by 2 l^2 1^T A^l 1 per length.
    Stops at the first zero power, past which no path exists.
    """
    loops = steps = 0
    for n, power in zip(range(max_len + 1), adjacency_powers(g)):
        if not power.any():
            return
        loops += sum(power.diagonal())
        steps += 2 * n * n * sum(power.flat)
        yield n, loops, steps


def _refuse_long_loop(n: int, doing: str, fix: str):
    """Refuse one loop of length n, traced in some n^3 steps, past TRACE_MAX_WORK."""
    _refuse_over([(f"at length {n}", n ** 3)], TRACE_MAX_WORK,
                 "steps (n^3 on a loop of length n)", doing, fix)


def cmd_trace(args) -> int:
    g = _load_graph(args)
    if args.loop is not None:
        p = _parse_loop(g, args.loop)
        _refuse_long_loop(p.length, "trace --loop", "give a shorter loop")
        traced = [(_loop_name(g, p.start, p.edges), tau_path(g, p), falg.t_phi_path(g, p))]
    else:
        max_len, doing = -1, f"trace --all-loops --max-len {args.max_len}"
        # both budgets at each length, so the first length past either refuses
        for max_len, loops, steps in _all_loop_work(g, args.max_len):
            where = f"up to length {max_len}"
            _refuse_over([(where, loops)], TRACE_MAX_LOOPS, "loops", doing, "lower --max-len")
            _refuse_over([(where, steps)], TRACE_MAX_WORK,
                         "steps (2 l^2 per path of length l)", doing, "lower --max-len")
        traced = _all_loop_traces(g, max_len)
    rows, payload = [], []
    for name, via_pairings, via_transform in traced:
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
    if args.tuple is not None:
        paths = _parse_tuple(g, args.tuple)
        # the moment traces the composite loop
        _refuse_long_loop(sum(p.length for p in paths), "moments --tuple",
                          "give a shorter tuple")
        val = cumulants.moment_phi(g, paths)
        pretty = {g.ids[v]: c for v, c in val.items()}
        lines.append(f"moment: {pretty}")
        payload["moment"] = pretty
    else:
        kmax = args.matrix_moments
        doing, fix = f"moments --matrix-moments {kmax}", "lower --matrix-moments"
        _refuse_long_loop(2 * kmax, doing, fix)  # before q^K rows, whose K is unbounded
        rows = cumulants.matrix_moment_rows(g, kmax)  # checks the shape first
        _refuse_over([(f"for the words of {g.n_edges} edges", rows)],
                     MATRIX_MOMENTS_MAX_ROWS, "face rows", doing, fix)
        got = cumulants.omega_matrix_moments(g, kmax)
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
    _emit(args, lines, payload)
    return EXIT_OK


def cmd_cumulants(args) -> int:
    g = _load_graph(args)
    paths = _parse_tuple(g, args.tuple)
    # the first order past the budget, never Catalan(n) itself: it has
    # ~0.6 n digits, too many to format for a long tuple
    _refuse_over(((f"in NC({k})", catalan(k)) for k in range(len(paths) + 1)),
                 cumulants.CUMULANTS_MAX_PARTITIONS, "non-crossing partitions",
                 f"cumulants of a {len(paths)}-tuple", "give a shorter tuple")
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
    _refuse_over(((f"up to order {k}", total)
                  for k, total in cumulants.freeness_extensions(g, args.max_order)),
                 FREENESS_MAX_EXTENSIONS, "(tuple, partition) extensions",
                 f"freeness --max-order {args.max_order}", "lower --max-order")
    rep = cumulants.freeness_certificate(g, max_order=args.max_order, tol=args.tol,
                                         rng=random.Random(args.seed))
    lines = [
        f"mixed tuples checked: {rep.n_tuples} (orders 2..{rep.max_order})",
        f"max mixed cumulant:   {rep.max_mixed_cumulant:.3g} (tol {rep.tol:.1g})",
        f"diagram identity:     {rep.stp_checks} checks, max dev {rep.stp_max_dev:.3g}",
        f"passed: {rep.passed}",
    ] + [f"note: {n}" for n in rep.notes]
    if rep.witness:
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
    # stopping at the first degree past the budget bounds the count's cost
    _refuse_over(((f"up to degree {d}", pairs) for d, pairs in
                  zip(range(args.max_degree + 1), falg.gram_pair_counts(g))),
                 GRAM_MAX_PAIRS, "inner products", f"gram at --max-degree {args.max_degree}",
                 "lower --max-degree")
    basis = falg.truncated_basis(g, args.max_degree)
    worst_off, worst_diag = 0.0, 0.0
    # each fold keeps the first NaN, which max() would drop
    for p, q, val in falg.gram_blocks(g, args.max_degree):
        if p == q:
            dev = abs(val - g.mu(p.start) * g.mu(p.finish))
            if dev > worst_diag or (dev != dev and worst_diag == worst_diag):
                worst_diag = dev
        else:
            dev = abs(val)
            if dev > worst_off or (dev != dev and worst_off == worst_off):
                worst_off = dev
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
          "--seed": {"type": _COUNT, "default": 0}}


def _add_common(p, *flags, graph_arg: bool = True):
    """The graph arguments, the given entries of _FLAGS, and --json.

    The graph comes from exactly one of a spec file and --named, checked
    by :func:`_load_graph`: in an argparse group the optional positional
    would take the value of an unknown option (``factor --named a3
    --max-degree 3``) and report a conflict instead.  The weights come
    from at most one of --pf and --weights.
    """
    if graph_arg:
        p.add_argument("graph", nargs="?", help="graph spec file (JSON record)")
        p.add_argument("--named", help="built-in graph (a2, a3, a4, k1_2, ...)")
        weighting = p.add_mutually_exclusive_group()
        weighting.add_argument("--pf", action="store_true",
                               help="replace the weighting by the Perron-Frobenius one")
        weighting.add_argument("--weights",
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
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--loop", help="comma-separated vertex ids")
    which.add_argument("--all-loops", action="store_true")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("moments", help="base-valued or matrix moments")
    _add_common(p)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--tuple", help="semicolon-separated loops of length 2")
    which.add_argument("--matrix-moments", metavar="K",
                       type=_checked(int, lambda n: n >= 1, "positive integer"),
                       help="normalized matrix moments up to order K")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("cumulants", help="cumulants by both routes")
    _add_common(p, "--tol")
    p.add_argument("--tuple", required=True, help="semicolon-separated length-2 paths")
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
    except (CliError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
