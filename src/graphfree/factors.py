"""Free-dimension arithmetic on finite algebra descriptors.

A descriptor lists atoms (scalar summands with their traces) and
diffuse interpolated-free-group-factor summands with their parameters
and weights.  Free products follow the atom-survival rule (paired atom
traces minus one, kept when positive) with the remaining parameter
fixed by additivity of the free dimension.  The calculus stays inside
the shapes it is validated on: at most one diffuse summand per operand,
always of interpolated type; anything else raises.

The graph-level report assembles the computable structure results: the
atom list of the almost-factoriality theorem, direct sums over connected
components, and the LF parameter of every PF component from additivity
of the free dimension.  The three-regime two-vertex classification and
the single-hub closed form, with its corner compression, are second
routes to that parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, GraphError, connected_components, delta_v

PARAM_TOL = 1e-9


@dataclass(frozen=True)
class AlgDesc:
    """Finite tracial algebra descriptor: atoms plus diffuse summands.

    atoms are traces; diffuse entries are (parameter, weight) with
    parameter >= 1 (parameter 1 meaning the diffuse abelian algebra).
    Total mass must be 1.  ``hyperfinite_possible`` records that the
    classification theorem's hyperfinite alternative was not excluded.
    """

    atoms: tuple[float, ...] = ()
    diffuse: tuple[tuple[float, float], ...] = ()
    hyperfinite_possible: bool = False

    def __post_init__(self):
        for a in self.atoms:
            if not a > 0:
                raise ValueError("atom traces must be positive")
        for t, g in self.diffuse:
            if t < 1.0 - PARAM_TOL:
                raise ValueError(f"diffuse parameter {t} below 1")
            if not g > 0:
                raise ValueError("diffuse weights must be positive")
        mass = sum(self.atoms) + sum(g for _, g in self.diffuse)
        if abs(mass - 1.0) > 1e-7:
            raise ValueError(f"total mass {mass} != 1")

    def is_trivial_atom(self) -> bool:
        return len(self.atoms) == 1 and not self.diffuse


def lf(t: float, weight: float = 1.0, **kw) -> AlgDesc:
    return AlgDesc((), ((t, weight),), **kw)


def fdim(a: AlgDesc) -> float:
    """Free dimension: sum g^2 (t - 1) + 1 - sum atom^2."""
    return (sum(g * g * (t - 1.0) for t, g in a.diffuse)
            + 1.0 - sum(x * x for x in a.atoms))


def free_product(a: AlgDesc, b: AlgDesc) -> AlgDesc:
    """Free product of two descriptors.

    Atoms survive pairwise with trace alpha + beta - 1 when positive;
    everything else pools into one diffuse summand whose parameter is
    fixed by fdim additivity.  Purely atomic operands may land on the
    hyperfinite alternative, which is flagged rather than resolved.
    """
    if a.is_trivial_atom() and b.is_trivial_atom():
        raise GraphError("free product of two trivial algebras is degenerate")
    for x in (a, b):
        if len(x.diffuse) > 1:
            raise GraphError("unsupported descriptor: more than one diffuse summand")
    new_atoms = tuple(al + be - 1.0 for al in a.atoms for be in b.atoms
                      if al + be - 1.0 > PARAM_TOL)
    gamma = 1.0 - sum(new_atoms)
    if gamma <= PARAM_TOL:
        raise GraphError("unsupported descriptor: no diffuse part survives")
    target = fdim(a) + fdim(b)
    s = 1.0 + (target - 1.0 + sum(x * x for x in new_atoms)) / gamma ** 2
    if s < 1.0 - 1e-7:
        raise GraphError(f"free-dimension bookkeeping broke: parameter {s}")
    s = max(s, 1.0)
    flag = (a.hyperfinite_possible or b.hyperfinite_possible
            or (not a.diffuse and not b.diffuse))
    return AlgDesc(new_atoms, ((s, gamma),), flag)


def free_product_many(descs) -> AlgDesc:
    descs = list(descs)
    if not descs:
        raise GraphError("empty free product")
    out = descs[0]
    for d in descs[1:]:
        out = free_product(out, d)
    return out


def compress_factor(r: float, t: float) -> float:
    """Parameter of the corner of an interpolated factor by a trace-t projection."""
    if r < 1.0 - PARAM_TOL:
        raise GraphError("parameter below 1")
    if not 0 < t <= 1:
        raise GraphError("projection trace must lie in (0, 1]")
    return 1.0 + (r - 1.0) / t ** 2


# ---------------------------------------------------------------------------
# the two-vertex and single-hub classifications


def prop_line(q: int, alpha: float, beta: float, side: str = "odd") -> AlgDesc:
    """Corner of the two-vertex graph algebra: three regimes in alpha/beta.

    ``side`` "odd" gives the corner at the odd vertex (weight beta); the
    even corner is the same formula with the weights swapped.
    """
    if q < 1:
        raise GraphError("q must be >= 1")
    if alpha <= 0 or beta <= 0 or abs(alpha + beta - 1.0) > 1e-7:
        raise GraphError("weights must be positive with alpha + beta = 1")
    if side == "even":
        alpha, beta = beta, alpha
    elif side != "odd":
        raise GraphError("side must be 'odd' or 'even'")
    ratio = alpha / beta
    if ratio > q:
        return lf(float(q * q))
    if ratio >= 1.0 / q:
        return lf(2 * q * ratio - ratio * ratio)
    atom = 1.0 - ratio * q
    return AlgDesc((atom,), ((2.0 - 1.0 / (q * q), 1.0 - atom),))


def omega_factor(q: int, alpha: float, beta: float):
    """Whole two-vertex algebra: factor verdict and parameter.

    Returns an AlgDesc when the algebra is a factor (q > 1 and the
    weight ratio within [1/q, q]), else None.
    """
    if q < 1:
        raise GraphError("q must be >= 1")
    if alpha <= 0 or beta <= 0 or abs(alpha + beta - 1.0) > 1e-7:
        raise GraphError("invalid weights")
    ratio = alpha / beta
    if q == 1 or not (1.0 / q <= ratio <= q):
        return None
    return lf(1.0 + 2 * q * alpha * beta - alpha * alpha - beta * beta)


def star_m1(qs, weights, b: float) -> AlgDesc:
    """Hub corner of a single-hub graph, closed form.

    qs[i] parallel edges join spoke i (mass weights[i]) to the hub
    (mass b).  Must agree with folding free products over the
    two-vertex corners of the spokes.
    """
    qs = list(qs)
    weights = [float(a) for a in weights]
    if len(qs) != len(weights) or not qs:
        raise GraphError("need matching nonempty qs and weights")
    if any(q < 1 for q in qs):
        raise GraphError("q_i must be >= 1")
    if any(a <= 0 for a in weights) or b <= 0:
        raise GraphError("weights must be positive")
    if abs(sum(weights) + b - 1.0) > 1e-7:
        raise GraphError("weights must sum to 1 with the hub")
    lever = sum(q * a for q, a in zip(qs, weights))
    if b <= lever:
        total = 0.0
        for q, a in zip(qs, weights):
            if q * b < a:
                total += q * q
            else:
                total += 2 * q * a / b - (a / b) ** 2
        return lf(total)
    atom = 1.0 - lever / b
    param = 2.0 - sum(a * a for a in weights) / lever ** 2
    return AlgDesc((atom,), ((param, 1.0 - atom),))


def star_m1_pipeline(qs, weights, b: float) -> AlgDesc:
    """The same corner via free products of two-vertex corners."""
    parts = []
    for q, a in zip(qs, weights):
        parts.append(prop_line(q, a / (a + b), b / (a + b), side="odd"))
    return free_product_many(parts)


# ---------------------------------------------------------------------------
# whole-graph report


@dataclass
class FactorReport:
    """Flat structure report for the completed graph algebra.

    atoms: (vertex id, trace) of the scalar summands.
    diffuse: (parameter or None when not computed, weight).
    verdict: one-line classification.
    notes: the rule that produced each summand or abstention.
    """

    atoms: list[tuple[str, float]] = field(default_factory=list)
    diffuse: list[tuple[float | None, float]] = field(default_factory=list)
    verdict: str = ""
    notes: list[str] = field(default_factory=list)

    def as_dict(self):
        return {"atoms": [[v, t] for v, t in self.atoms],
                "diffuse": [[p, w] for p, w in self.diffuse],
                "verdict": self.verdict,
                "notes": self.notes}


def component_parameter(graph: Graph, comp) -> float:
    """Free dimension 1 + m^T (A - I) m of a connected component, m = mu2/gamma.

    Additivity of the free dimension over the amalgamated free product of
    the edge algebras over l^inf(V) (Dykema).  Under the PF weighting it
    is 1 + (delta - 1)|m|^2, the LF parameter of the component.
    """
    gamma = sum(graph.mu2[v] for v in comp)
    m = {v: graph.mu2[v] / gamma for v in comp}
    return (1.0 + sum(m[v] * m[graph.efinish[e]] for v in comp for e in graph.out_edges(v))
            - sum(x * x for x in m.values()))


def m_gamma_report(graph: Graph) -> FactorReport:
    """Structure report for the completed graph algebra.

    Components split off as weighted direct summands; isolated vertices
    are scalar atoms.  Connected components with at least two edges get
    the atom list (1 - delta(v)) mu2(v) over vertices with delta(v) < 1
    and, under the PF weighting, the interpolated-factor verdict with
    the parameter of :func:`component_parameter`.
    """
    report = FactorReport()
    comps = connected_components(graph)
    for comp in comps:
        gamma = sum(graph.mu2[v] for v in comp)
        names = ",".join(graph.ids[v] for v in comp)
        if len(comp) == 1:
            v = comp[0]
            report.atoms.append((graph.ids[v], graph.mu2[v]))
            report.notes.append(
                f"isolated {graph.ids[v]}: scalar atom of trace mu2 (direct-sum rule)")
            continue
        edges = sum(len(graph.out_edges(v)) for v in comp) // 2
        mu2 = {v: graph.mu2[v] / gamma for v in comp}
        if edges == 1:
            v, w = comp
            if abs(mu2[v] - mu2[w]) <= 1e-9:
                report.diffuse.append((None, gamma))
                report.verdict = _join(report.verdict, f"M2(LZ) on {{{names}}}")
                report.notes.append(
                    f"component {{{names}}}: one edge, balanced weights: "
                    "2x2 matrices over the diffuse abelian algebra")
            else:
                report.diffuse.append((None, gamma))
                report.notes.append(
                    f"component {{{names}}}: one edge, unbalanced weights: "
                    "structure not derived here")
            continue
        # connected, at least two edges: atom list applies
        deltas = [delta_v(graph, v) for v in comp]
        atom_mass = 0.0
        for v, d in zip(comp, deltas):
            if d < 1.0:
                tr = (1.0 - d) * graph.mu2[v]
                report.atoms.append((graph.ids[v], tr))
                atom_mass += tr
                report.notes.append(
                    f"atom at {graph.ids[v]}: (1 - delta) mu2 (almost-factoriality)")
        diffuse_weight = gamma - atom_mass
        if max(deltas) - min(deltas) > 1e-7:
            report.diffuse.append((None, diffuse_weight))
            report.notes.append(
                f"component {{{names}}}: non-PF weighting: type II_1 summand, "
                "parameter out of scope")
            continue
        # PF weighting: no atoms; the component is LF(s), 1 < s < infinity
        s = component_parameter(graph, comp)
        report.diffuse.append((s, diffuse_weight))
        report.notes.append(
            f"component {{{names}}}: free dimension 1 + (delta - 1)|m|^2 "
            f"gives LF({s:.12g})")
        report.verdict = _join(report.verdict, f"LF({s:.12g}) on {{{names}}}")
    if not report.verdict:
        report.verdict = "finite-dimensional abelian" if not report.diffuse \
            else "direct sum; see notes"
    if report.atoms:
        report.verdict += " + atoms"
    return report


def _join(a: str, b: str) -> str:
    return b if not a else f"{a} (+) {b}"
