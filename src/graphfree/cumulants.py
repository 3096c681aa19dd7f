"""Operator-valued moments and free cumulants over the degree-zero corner.

The base algebra is spanned by the even vertex idempotents, so its
elements are vertex-indexed coefficient maps.  The moment of a tuple of
length-2 paths is the trace of the concatenation read off at its base
vertex (t o Phi = tau); the cumulants come out of Mobius inversion over
non-crossing partitions and, independently, from a one-diagram closed
form supported on starry composites.  Vanishing of the mixed cumulants
certifies freeness with amalgamation of the single-hub subalgebras over
the base.

A multiplicative extension on pi depends on pi only through the order
in which its interval blocks are folded into their left neighbours.
That order is computed once per partition as an extraction plan on
positions, and Mobius inversion evaluates every plan of NC(n) against
one memo of block values per tuple, so each distinct block (at most
2^n - 1) reaches the kernel once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .graphs import Graph, GraphError, Path
from .gralg import GradedElement, max_abs_diff, tau, tau_path
from . import epitl, noncross

BElement = dict[int, float]  # vertex index -> coefficient of the idempotent


def b_norm(a: BElement) -> float:
    return max((abs(c) for c in a.values()), default=0.0)


b_diff_norm = max_abs_diff


def _compose_all(paths) -> Path | None:
    cur = paths[0]
    for p in paths[1:]:
        cur = cur.concat(p)
        if cur is None:
            return None
    return cur


def _check_generators(graph: Graph, paths):
    for p in paths:
        if p.length != 2:
            raise GraphError("cumulant arguments must be length-2 paths")
        if graph.parity[p.start] != 0:
            raise GraphError("cumulant arguments must start at even vertices")


# ---------------------------------------------------------------------------
# moments


def moment_phi(graph: Graph, paths) -> BElement:
    """Base-valued moment: the trace of the product, read off at its base.

    A loop at v has moment tau(loop) / mu2(v) at v, the degree-zero
    component of the filtered image of the concatenation; the moment
    vanishes unless the paths compose into a loop.
    """
    _check_generators(graph, paths)
    composite = _compose_all(paths)
    if composite is None or composite.start != composite.finish:
        return {}
    v = composite.start
    val = tau_path(graph, composite) / graph.mu2[v]
    return {v: val} if val else {}


# ---------------------------------------------------------------------------
# multiplicative extensions and Mobius inversion


# Holds NC(n) for n <= 8 under both picks: 2 * (1 + 1 + 2 + 5 + ... + 1430).
@functools.lru_cache(maxsize=4112)
def _extraction_plan(pi: noncross.NCPartition, pick: str = "first"):
    """The order in which interval blocks of pi are extracted, on positions.

    Returns ``(steps, outer)``.  Each step is (the block's 0-based
    positions, the position of the argument left of the block when it is
    extracted); ``outer`` is the block left at the end, the one holding
    position 0.  A block is an interval when its points are adjacent
    among the points not yet extracted, and ``pick`` chooses the first or
    the last such block by minimum.  Restricting a non-crossing partition
    to the remaining points keeps it non-crossing, so the rule needs no
    partition rebuilt after each extraction.
    """
    blocks = [tuple(x - 1 for x in b) for b in pi.blocks]
    steps = []
    while len(blocks) != 1:
        order = sorted(x for b in blocks for x in b)
        rank = {x: i for i, x in enumerate(order)}
        candidates = [b for b in blocks
                      if rank[b[0]] > 0 and rank[b[-1]] - rank[b[0]] + 1 == len(b)]
        if not candidates:
            raise GraphError("no interval block; partition is not non-crossing")
        block = candidates[0] if pick == "first" else candidates[-1]
        steps.append((block, order[rank[block[0]] - 1]))
        blocks.remove(block)
    return tuple(steps), blocks[0]


def _extend(plan, kernel, paths, memo: dict) -> BElement:
    """One multiplicative extension along a plan.

    ``memo`` maps block positions to the kernel's value on that
    sub-tuple, so a block shared by several partitions of the same tuple
    is evaluated once.  The kernel sees the extracted blocks in plan
    order and then the outer block, and nothing after a zero scalar.
    """
    steps, outer = plan
    scalars = []
    for block, left in steps:
        val = memo.get(block)
        if val is None:
            val = memo[block] = kernel(tuple(paths[i] for i in block))
        scalar = val.get(paths[left].finish, 0.0)
        if scalar == 0.0:
            return {}
        scalars.append(scalar)
    out = memo.get(outer)
    if out is None:
        out = memo[outer] = kernel(tuple(paths[i] for i in outer))
    # innermost scalar first, the association of the recursive route, so
    # the two agree to the last bit
    for scalar in reversed(scalars):
        out = {v: scalar * c for v, c in out.items()}
    return out


def multiplicative_extension(kernel, graph: Graph, pi: noncross.NCPartition,
                             paths, pick: str = "first") -> BElement:
    """Evaluate the multiplicative extension of a family of maps on pi.

    ``kernel(paths)`` gives the map on full tuples and must be a pure
    function of its sub-tuple.  Interval blocks are extracted in the
    order of :func:`_extraction_plan`; each extracted value (a base
    element) folds into the argument left of its block.  ``pick``
    chooses which interval block to extract when several are available,
    to let tests confirm the result does not depend on the extraction
    order.
    """
    if len(paths) != pi.n:
        raise GraphError("arity mismatch")
    return _extend(_extraction_plan(pi, pick), kernel, paths, {})


def moment_pi(graph: Graph, pi: noncross.NCPartition, paths,
              pick: str = "first") -> BElement:
    return multiplicative_extension(lambda ps: moment_phi(graph, ps),
                                    graph, pi, paths, pick)


def kappa_mobius(graph: Graph, paths) -> BElement:
    """Cumulant by Mobius inversion of the moment family over NC(n)."""
    return kappa_of_moments(graph, lambda ps: moment_phi(graph, ps), paths)


@functools.cache
def _mobius_row(n: int) -> tuple[tuple[tuple, float], ...]:
    """(extraction plan of pi, mu(pi, 1_n)) over NC(n), one row per n."""
    one = noncross.nc_one(n)
    return tuple((_extraction_plan(pi), float(noncross.mobius_nc(pi, one)))
                 for pi in noncross.enumerate_nc(n))


def _sum_extensions(kernel, paths, weighted: bool) -> BElement:
    """Sum over NC(n) of the kernel's extensions, times mu(pi, 1_n) if weighted.

    One memo serves every partition, so each distinct block's kernel
    value is computed once per tuple.
    """
    memo: dict = {}
    out: BElement = {}
    for plan, coeff in _mobius_row(len(paths)):
        for v, c in _extend(plan, kernel, paths, memo).items():
            out[v] = out.get(v, 0.0) + (coeff * c if weighted else c)
    return {v: c for v, c in out.items() if c != 0}


def kappa_of_moments(graph: Graph, kernel, paths) -> BElement:
    """Mobius inversion: sum of mu(pi, 1_n) times the kernel's extension on pi."""
    return _sum_extensions(kernel, paths, weighted=True)


def kappa_from_kernel(graph: Graph, kernel, paths) -> BElement:
    """Moment recovery: sum of the kernel's extensions over NC(n)."""
    return _sum_extensions(kernel, paths, weighted=False)


# ---------------------------------------------------------------------------
# the starry closed form


def kappa_starry(graph: Graph, paths) -> BElement:
    """Closed-form cumulant: one cap diagram on a starry composite.

    Nonzero only when the concatenation is starry; the value is the
    product of the even interior mu's over mu(hub)^(n-2) mu(base).
    """
    _check_generators(graph, paths)
    n = len(paths)
    composite = _compose_all(paths)
    if composite is None or not noncross.is_starry(graph, composite):
        return {}
    v = composite.start
    hub = composite.vertices[1]
    val = 1.0
    for i in range(1, n):
        val *= graph.mu(composite.vertices[2 * i])
    val /= graph.mu(hub) ** (n - 2) * graph.mu(v)
    return {v: val}


def spi_value(graph: Graph, pi: noncross.NCPartition, paths) -> BElement:
    """Product formula for the doubled diagram acting on a concatenation.

    Each block {c_1 < ... < c_t} matches the closing edge of c_p with
    the opening edge of c_{p+1} cyclically, with the corresponding
    mu-ratios.  Agrees with the doubled-diagram action itself.
    """
    _check_generators(graph, paths)
    n = len(paths)
    if pi.n != n:
        raise GraphError("partition size mismatch")
    composite = _compose_all(paths)
    if composite is None:
        return {}
    val = 1.0
    for b in pi.blocks:
        t = len(b)
        first, last = paths[b[0] - 1], paths[b[-1] - 1]
        if last.edges[1] != graph.erev[first.edges[0]]:
            return {}
        val *= graph.mu(first.vertices[1]) / graph.mu(last.vertices[2])
        for idx in range(t - 1):
            cur, nxt = paths[b[idx] - 1], paths[b[idx + 1] - 1]
            if cur.edges[1] != graph.erev[nxt.edges[0]]:
                return {}
            val *= graph.mu(cur.vertices[2]) / graph.mu(nxt.vertices[1])
    return {composite.start: val}


def doubled_action(graph: Graph, pi: noncross.NCPartition, paths) -> BElement:
    """Brute-force action of the doubled diagram on the concatenation."""
    composite = _compose_all(paths)
    if composite is None:
        return {}
    f = epitl.from_tl(noncross.double_bijection(pi))
    img = epitl.act(f, GradedElement.basis(graph, composite))
    return {q.start: c for q, c in img.terms.items() if c != 0}


# ---------------------------------------------------------------------------
# freeness certificate


@dataclass
class FreenessReport:
    """Outcome of the finite mixed-cumulant check.

    The certificate is exhaustive only up to ``max_order``; freeness
    with amalgamation needs all orders, so this is evidence, not proof.
    """

    max_order: int
    tol: float
    n_tuples: int
    max_mixed_cumulant: float
    passed: bool
    witness: str = ""
    stp_checks: int = 0
    stp_max_dev: float = 0.0
    notes: list[str] = field(default_factory=list)

    def as_dict(self):
        return {
            "max_order": self.max_order, "tol": self.tol,
            "n_tuples": self.n_tuples,
            "max_mixed_cumulant": self.max_mixed_cumulant,
            "passed": self.passed, "witness": self.witness,
            "stp_checks": self.stp_checks, "stp_max_dev": self.stp_max_dev,
            "notes": self.notes,
        }


def even_generators(graph: Graph) -> list[Path]:
    """Length-2 paths between even vertices, the corner generators."""
    out = []
    for v in graph.vertices_of_parity(0):
        for e in graph.out_edges(v):
            w = graph.efinish[e]
            for e2 in graph.out_edges(w):
                out.append(Path((v, w, graph.efinish[e2]), (e, e2)))
    return out


def _mixed_tuples(graph: Graph, gens, order):
    """Composable generator tuples whose hubs are not all equal."""
    by_start: dict[int, list[Path]] = {}
    for p in gens:
        by_start.setdefault(p.start, []).append(p)

    def rec(acc):
        if len(acc) == order:
            hubs = {p.vertices[1] for p in acc}
            if len(hubs) > 1:
                yield tuple(acc)
            return
        nxt = gens if not acc else by_start.get(acc[-1].finish, ())
        for p in nxt:
            acc.append(p)
            yield from rec(acc)
            acc.pop()

    yield from rec([])


def freeness_certificate(graph: Graph, max_order: int = 5,
                         tol: float = 1e-10, rng=None) -> FreenessReport:
    """Check that mixed cumulants of the corner generators vanish.

    Runs every composable tuple of length-2 generators with at least
    two distinct hubs through the Mobius-inversion cumulant, for orders
    2..max_order, and spot-checks the product formula for the doubled
    diagrams against their brute-force action.
    """
    if max_order < 2:
        raise GraphError("max_order must be at least 2")
    gens = even_generators(graph)
    worst, witness, count = 0.0, "", 0
    # without generators no order has a tuple
    for k in range(2, max_order + 1 if gens else 2):
        for tup in _mixed_tuples(graph, gens, k):
            count += 1
            val = b_norm(kappa_mobius(graph, tup))
            if val > worst:
                worst = val
                witness = " ; ".join(
                    "->".join(graph.ids[v] for v in p.vertices) for p in tup)
    stp_checks, stp_dev = 0, 0.0
    if rng is not None and gens:
        for _ in range(20):
            k = int(rng.integers(1, 4))
            tup = []
            for i in range(k):
                pool = gens if not tup else [p for p in gens
                                             if p.start == tup[-1].finish]
                if not pool:
                    break
                tup.append(pool[int(rng.integers(0, len(pool)))])
            if len(tup) != k:
                continue
            pis = noncross.enumerate_nc(k)
            pi = pis[int(rng.integers(0, len(pis)))]
            dev = b_diff_norm(spi_value(graph, pi, tup),
                              doubled_action(graph, pi, tup))
            stp_checks += 1
            stp_dev = max(stp_dev, dev)
    passed = worst < tol and stp_dev < tol
    notes = [f"exhaustive only through order {max_order}; "
             "freeness with amalgamation needs all orders"]
    return FreenessReport(max_order, tol, count, worst, passed, witness,
                          stp_checks, stp_dev, notes)


# ---------------------------------------------------------------------------
# matrix moments for the two-vertex graph


def nc_rate_moment(rate: float, k: int) -> float:
    """Sum of rate^(number of blocks) over NC(k); Catalan at rate 1."""
    return sum(rate ** pi.num_blocks for pi in noncross.enumerate_nc(k))


def omega_matrix_moments(graph: Graph, kmax: int) -> list[float]:
    """Normalized moments of the q x q matrix of length-2 loops.

    For the two-vertex graph with q parallel edges, the doubled-edge
    paths based at the odd vertex form a q x q matrix; its moments in
    normalized-trace-of-power form, divided by the jump size, match the
    non-crossing sums of rate mu2(even)/(mu2(odd) q).
    """
    evens = graph.vertices_of_parity(0)
    odds = graph.vertices_of_parity(1)
    if len(evens) != 1 or len(odds) != 1:
        raise GraphError("matrix moments need a two-vertex graph")
    v, w = evens[0], odds[0]
    forward = [e for e in graph.out_edges(w)]  # w -> v edges
    q = len(forward)
    entries = {}
    for i, ei in enumerate(forward):
        for j, ej in enumerate(forward):
            p = Path((w, v, w), (ei, graph.erev[ej]))
            entries[i, j] = GradedElement.basis(graph, p)
    jump = q * graph.mu(w) / graph.mu(v)
    power = entries
    out = []
    from .gralg import bullet_mul
    for k in range(1, kmax + 1):
        if k > 1:
            new = {}
            for i in range(q):
                for j in range(q):
                    acc = GradedElement(graph)
                    for t in range(q):
                        acc = acc + bullet_mul(power[i, t], entries[t, j])
                    new[i, j] = acc
            power = new
        m_k = sum(tau(power[i, i]) for i in range(q)) / (q * graph.mu2[w])
        out.append(m_k / jump ** k)
    return out
