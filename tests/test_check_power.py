"""Check power: mutants of the code under check, and the verify checks
each must fail.

Each row monkeypatches one function with a wrong version and names the
checks that pass on the real code and must fail on the mutant at
``--fast`` depth.  A check that no mutant fails cannot tell a defect in
what it checks from none.
"""

import math

import numpy as np
import pytest

from graphfree import cumulants, epitl, factors, falg, noncross
from graphfree.graphs import Path, delta_v
from graphfree.gralg import FaceStack, GradedElement
from graphfree.verification import run_verification


def _cap_drops_the_next_pair(f, x):
    """epitl.act whose cap at i tests edges i, i+1 and weighs them, but
    keeps edge i and drops edges i+1, i+2 (at the last slot, i and i+1)."""
    g = x.graph
    out = {}
    for (verts, edges), c in x.terms.items():
        for i in reversed(f.caps):
            if edges[i - 1] != g.erev[edges[i]]:
                break
            c *= g.mu(verts[i]) / g.mu(verts[i + 1])
            j = min(i + 1, len(edges) - 1)
            verts, edges = verts[:j] + verts[j + 2:], edges[:j - 1] + edges[j + 1:]
        else:
            q = Path(verts, edges)
            out[q] = out.get(q, 0.0) + c
    return GradedElement(g, out)


def _cap_one_slot_right(f, x):
    """epitl.act whose cap at i acts as the cap at i+1 (at the last slot,
    as itself): every image is a path of the graph, with the right weight."""
    g = x.graph
    out = {}
    for (verts, edges), c in x.terms.items():
        for i in reversed(f.caps):
            j = min(i + 1, len(edges) - 1)
            if edges[j - 1] != g.erev[edges[j]]:
                break
            c *= g.mu(verts[j]) / g.mu(verts[j + 1])
            verts, edges = verts[:j] + verts[j + 2:], edges[:j - 1] + edges[j + 1:]
        else:
            q = Path(verts, edges)
            out[q] = out.get(q, 0.0) + c
    return GradedElement(g, out)


def _cup_inverse_weight(x, i):
    """epitl.cup weighing a spliced doubled edge mu(v)/mu(w), not mu(w)/mu(v)."""
    g = x.graph
    out = {}
    for (verts, edges), c in x.terms.items():
        v = verts[i]
        head, tail = verts[:i + 1], (v,) + verts[i + 1:]
        for e in g.out_edges(v):
            w = g.efinish[e]
            q = Path(head + (w,) + tail, edges[:i] + (e, g.erev[e]) + edges[i:])
            out[q] = out.get(q, 0.0) + c * (g.mu(v) / g.mu(w))
    return GradedElement(g, out)


_act = epitl.act
_cup = epitl.cup


def _act_nan_weights(f, x):
    """epitl.act whose every image reads NaN."""
    return GradedElement(x.graph, dict.fromkeys(_act(f, x).terms, math.nan))


def _cup_nan_weight(x, i):
    """epitl.cup whose every spliced path reads NaN."""
    return GradedElement(x.graph, dict.fromkeys(_cup(x, i).terms, math.nan))


def _act_spurious_second_image(f, x):
    """epitl.act that adds the reversal of every image path that is not its
    own reversal, so a cap sends such a path to two paths."""
    y = _act(f, x)
    out = dict(y.terms)
    for q, c in y.terms.items():
        out.setdefault(q.reversed_in(x.graph), c)
    return GradedElement(x.graph, out)


def _t_functional_nan(x):
    """falg.t_functional that reads NaN on every element."""
    return math.nan


_closed_cap_value = epitl.closed_cap_value


def _closed_cap_nan_where_nonzero(graph, t, path):
    """epitl.closed_cap_value that reads NaN wherever the real one is nonzero."""
    return math.nan if _closed_cap_value(graph, t, path) else 0.0


def _closed_cap_left_weight_inverted(graph, t, path):
    """epitl.closed_cap_value whose pairs left of the midpoint weigh
    mu(v_b)/mu(v_a), not mu(v_a)/mu(v_b); towers.ztl weighs each loop by it."""
    value = _closed_cap_value(graph, t, path)
    n = path.length // 2
    for a, b in t.blocks:
        if b <= n:
            value *= (graph.mu(path.vertices[b]) / graph.mu(path.vertices[a])) ** 2
    return value


def _moment_pi_first_block_reads_one(graph, pi, paths, pick="first"):
    """cumulants.moment_pi whose first extracted block reads 1.0 at every
    vertex, so its scalar is dropped; "first" and "last" extract different
    blocks first, so the two picks disagree."""
    calls = []

    def kernel(ps):
        calls.append(ps)
        if len(calls) == 1 and pi.num_blocks > 1:
            return dict.fromkeys(range(graph.n_vertices), 1.0)
        return cumulants.moment_phi(graph, ps)

    return cumulants.multiplicative_extension(kernel, pi, paths, pick)


def _frobenius_norm(mat):
    """falg.operator_norm that reads the Frobenius norm, an upper bound."""
    return float(np.linalg.norm(mat.vals if isinstance(mat, falg.SparseMatrix) else mat))


_operator_norm = falg.operator_norm


def _norm_zero(mat):
    """falg.operator_norm that reads 0.0 on every matrix."""
    return 0.0


def _norm_halved(mat):
    """falg.operator_norm that reads half the norm."""
    return _operator_norm(mat) / 2


_truncated_left_mult = falg.truncated_left_mult


def _truncation_times_four(a, max_degree):
    """falg.truncated_left_mult whose every entry reads four times too much."""
    mat, basis = _truncated_left_mult(a, max_degree)
    return mat._replace(vals=4 * mat.vals), basis


_mobius_row = cumulants._mobius_row


def _mobius_row_deep_mu_negated(n):
    """cumulants._mobius_row whose mu reads negated at every node of depth >= 1."""
    root, nodes = _mobius_row(n)
    return root, tuple((*node[:5], -node[5], node[6]) if node[0] >= 1 else node
                       for node in nodes)


_mobius_nc = noncross.mobius_nc


def _mobius_sign_flipped_off_the_zero(p, q):
    """noncross.mobius_nc with the sign of mu(p, 1_n) flipped where the
    Kreweras complement of p has two or more classes, one of size 2.
    mu(0_n, 1_n) has a one-class complement, so only the identity
    sum_sigma mu(sigma, 1_n) = [n = 1] sees it."""
    k = noncross.kreweras(p)
    flip = (q == noncross.nc_one(p.n) and k.num_blocks >= 2
            and any(len(b) == 2 for b in k.blocks))
    return -_mobius_nc(p, q) if flip else _mobius_nc(p, q)


def _component_parameter_pf_shortcut(graph, comp):
    """factors.component_parameter as 1 + (delta - 1)|m|^2, which holds
    only when delta is the same at every vertex (the PF weighting)."""
    gamma = sum(graph.mu2[v] for v in comp)
    norm2 = sum((graph.mu2[v] / gamma) ** 2 for v in comp)
    return 1 + (delta_v(graph, comp[0]) - 1) * norm2


_psi_step = falg._psi_step


def _psi_step_without_correction(e, cap, prev, older):
    """falg._psi_step that loses its -c psi(r[1:]) term."""
    return _psi_step(e, cap, prev, None)


def _kreweras_zero(p):
    """noncross.kreweras that returns the all-singletons partition."""
    return noncross.nc_zero(p.n)


def _matrix_classes_counted_once(graph, kmax):
    """cumulants.omega_matrix_moments that counts each relabelling class of
    words once, not q (q-1) ... (q-b+1) times for its b letters."""
    w, forward = cumulants.two_vertex_edges(graph)
    q = len(forward)
    faces = FaceStack(graph, q * graph.mu2[w])
    sums = [0.0] * (kmax + 1)

    def grow(order, used):
        sums[order] += faces.corner_with(forward[0])
        if order == kmax:
            return
        for j in range(min(used + 1, q)):
            faces.push(forward[j], graph.erev[forward[j]])
            grow(order + 1, max(used, j + 1))
            faces.pop()
            faces.pop()

    faces.push(graph.erev[forward[0]])
    grow(1, 1)
    return sums[1:]


EXCHANGE = ("exchange-relation[a3]", "exchange-relation[k1_2]", "exchange-relation[dbl]")
STANDARD = ("a2", "a3", "a4", "k1_2", "k1_3", "dbl")

MUTANTS = [
    # (module, name, mutant, suite, checks it must fail)
    (epitl, "act", _cap_drops_the_next_pair, "epitl", EXCHANGE),
    (epitl, "act", _cap_one_slot_right, "epitl", EXCHANGE),
    (epitl, "cup", _cup_inverse_weight, "cdelta", ("generator-relations",)),
    # whole-map comparisons keep a NaN and refuse a cap with two images
    (epitl, "act", _act_nan_weights, "epitl", ("exchange-relation[a2]",) + EXCHANGE),
    (epitl, "cup", _cup_nan_weight, "cdelta", ("generator-relations",)),
    (epitl, "act", _act_spurious_second_image, "epitl", ("exchange-relation[a3]",)),
    # a NaN deviation fails its check; max(dev, nan) used to drop it
    (falg, "t_functional", _t_functional_nan, "trace",
     tuple(f"tau-equals-t-phi[{g}]" for g in STANDARD)),
    (epitl, "closed_cap_value", _closed_cap_nan_where_nonzero, "planar",
     ("pairing-elements[a3]", "loop-isomorphism[a3]", "loop-product-two-routes[a3]")),
    (epitl, "closed_cap_value", _closed_cap_left_weight_inverted, "planar",
     ("pairing-elements[a3]", "loop-product-two-routes[a3]")),
    (cumulants, "moment_pi", _moment_pi_first_block_reads_one, "cumulants",
     ("extension-order-independence",)),
    # the norm checks are upper bounds: a norm reading too much fails them
    (falg, "operator_norm", _frobenius_norm, "all",
     ("cap-adjoint-and-norm", "alternating-truncation-structure")),
    # and lower bounds by the largest column norm: a norm reading too little fails them
    (falg, "operator_norm", _norm_zero, "all",
     ("cap-adjoint-and-norm", "alternating-truncation-structure")),
    (falg, "operator_norm", _norm_halved, "all",
     ("cap-adjoint-and-norm", "alternating-truncation-structure")),
    (falg, "truncated_left_mult", _truncation_times_four, "cdelta",
     ("alternating-truncation-structure",)),
    (noncross, "kreweras", _kreweras_zero, "combinatorics", ("kreweras-oracle-and-rank",)),
    (noncross, "mobius_nc", _mobius_sign_flipped_off_the_zero, "combinatorics",
     ("mobius-zero-to-one",)),
    (factors, "component_parameter", _component_parameter_pf_shortcut, "factor",
     ("component-parameter-routes",)),
    # the round trip follows from the two step rules: a wrong step fails it everywhere
    (falg, "_psi_step", _psi_step_without_correction, "isomorphism",
     tuple(f"phi-psi-identity[{g}]" for g in STANDARD)),
    (cumulants, "_mobius_row", _mobius_row_deep_mu_negated, "cumulants",
     ("cumulant-closed-form", "mobius-inversion-roundtrip", "freeness-certificate")),
    # only q = 1 has one word per class: the q = 2 and 3 moments read too little
    (cumulants, "omega_matrix_moments", _matrix_classes_counted_once, "moments",
     ("matrix-moments-free-poisson",)),
]


@pytest.mark.parametrize("module,name,mutant,suite,checks", MUTANTS,
                         ids=[row[2].__name__.strip("_") for row in MUTANTS])
def test_mutant_fails_its_checks(monkeypatch, module, name, mutant, suite, checks):
    def passed():
        return {r.check_id: r.passed for r in run_verification(suite, fast=True).results}

    assert all(passed()[c] for c in checks)
    monkeypatch.setattr(module, name, mutant)
    after = passed()
    assert not any(after[c] for c in checks), after


def test_an_error_witness_names_the_exception_type(monkeypatch):
    # the dropped pair leaves an image outside the length-(n-2) table
    monkeypatch.setattr(epitl, "act", _cap_drops_the_next_pair)
    result = next(r for r in run_verification("epitl", fast=True).results
                  if r.check_id == "exchange-relation[a3]")
    assert not result.passed
    assert result.witness.startswith("error: KeyError: "), result.witness


def test_a_mobius_sign_flip_reads_its_deviation(monkeypatch):
    # at full depth (n <= 6) the identity misses by 40; at --fast (n <= 5) by 20
    monkeypatch.setattr(noncross, "mobius_nc", _mobius_sign_flipped_off_the_zero)
    result = next(r for r in run_verification("combinatorics").results
                  if r.check_id == "mobius-zero-to-one")
    assert not result.passed and result.witness.startswith("max deviation 40 ")
