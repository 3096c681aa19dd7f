"""Command-line surface.

Commands: trace, moments, cumulants, freeness, factor, gram, verify.
Graphs come from spec files (JSON records with ``vertices`` and
``edges``) or from the built-in battery via ``--named``.  Exit codes:
0 success, 1 verification failure, 2 input error.  A command whose counted
work would pass its budget exits 2 before the work starts, with one message:
"<command> would need more than <budget> <unit>: at least <count> <where>; <fix>".
The counts, their budgets and the ``trace --all-loops`` walk live beside the
work they size (:mod:`falg`, :mod:`cumulants`); this module parses, loads
graphs, refuses through :func:`_refuse_over` and prints.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from . import cumulants, factors, falg, verification
from .graphs import (Graph, GraphError, graph_from_spec, named_graph, normalize_weights,
                     pf_weighting)
from .gralg import tau_path
from .noncross import catalan

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


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


def _refuse_long_loop(n: int, doing: str, fix: str):
    """Refuse one loop of length n, traced in some n^3 steps, past falg.TRACE_MAX_WORK."""
    _refuse_over([(f"at length {n}", n ** 3)], falg.TRACE_MAX_WORK,
                 "steps (n^3 on a loop of length n)", doing, fix)


def cmd_trace(args) -> int:
    g = _load_graph(args)
    if args.loop is not None:
        p = _parse_loop(g, args.loop)
        _refuse_long_loop(p.length, "trace --loop", "give a shorter loop")
        traced = [(p.start, p.edges, tau_path(g, p), falg.t_phi_path(g, p))]
    else:
        max_len, doing = -1, f"trace --all-loops --max-len {args.max_len}"
        # both budgets at each length, so the first length past either refuses
        for max_len, loops, steps in falg.all_loop_work(g, args.max_len):
            where = f"up to length {max_len}"
            _refuse_over([(where, loops)], falg.TRACE_MAX_LOOPS, "loops", doing,
                         "lower --max-len")
            _refuse_over([(where, steps)], falg.TRACE_MAX_WORK,
                         "steps (2 l^2 per path of length l)", doing, "lower --max-len")
        traced = falg.all_loop_traces(g, max_len)
    rows, payload = [], []
    for start, edges, via_pairings, via_transform in traced:
        name = "->".join(g.ids[v] for v in (start, *map(g.efinish.__getitem__, edges)))
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
        cumulants.two_vertex_edges(g)  # no K runs on another shape
        _refuse_long_loop(2 * kmax, doing, fix)  # bounds K before the rows are counted
        _refuse_over(((f"up to order {k}", rows)
                      for k, rows in cumulants.matrix_moment_rows(g, kmax)),
                     cumulants.MATRIX_MOMENTS_MAX_ROWS, "face rows", doing, fix)
        got = cumulants.omega_matrix_moments(g, kmax)
        evens = g.vertices_of_parity(0)
        odds = g.vertices_of_parity(1)
        q = g.n_edges
        rate = g.mu2[evens[0]] / (g.mu2[odds[0]] * q)
        want = [cumulants.nc_rate_moment(rate, k) for k in range(1, kmax + 1)]
        for k, pair in enumerate(zip(got, want), 1):
            if not all(map(math.isfinite, pair)):
                raise CliError(f"{doing}: the matrix moment or pairing sum of order {k} "
                               f"is not a finite float; {fix}")
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
                 cumulants.FREENESS_MAX_EXTENSIONS, "(tuple, partition) extensions",
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
                 falg.GRAM_MAX_PAIRS, "inner products", f"gram at --max-degree {args.max_degree}",
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
