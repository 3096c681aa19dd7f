"""Path algebras and free-probability calculus on weighted bipartite graphs.

The package builds, for a finite weighted bipartite multigraph, the
graded path *-probability space with its pairing-sum trace, the
isomorphic filtered picture with its contraction product, the local
diagram-category calculus, operator-valued free cumulants over the even
corner, the interpolated-factor parameter arithmetic, and the
matrix-unit tower picture of the based loop algebras, all backed by
independent combinatorial oracles.
"""

from .graphs import (
    Graph,
    GraphError,
    Path,
    build_graph,
    connected_components,
    delta_max,
    delta_v,
    enumerate_paths,
    graph_from_spec,
    line_graph,
    named_graph,
    pf_weighting,
    star_graph,
    two_vertex_graph,
)
from .gralg import GradedElement, bullet_mul, e_vertex, star, tau, unit
from .falg import inner, phi, psi, sharp_mul, t_functional, truncated_left_mult
from .noncross import (NCPartition, catalan, double_bijection, enumerate_nc,
                       enumerate_tl, epsilon_identity_check, is_starry,
                       kreweras, kreweras_class_structure, mobius_nc)
from .epitl import EpiMorphism, act, compose, enumerate_hom
from .cdelta import (CenterReport, TPQMorphism, c_2n, center_report, graph_atoms,
                     tpq_act, tpq_compose, weight_functional, zv_truncation)
from .cumulants import (FreenessReport, freeness_certificate, kappa_mobius,
                        kappa_starry, moment_phi, omega_matrix_moments)
from .factors import (AlgDesc, FactorReport, component_parameter,
                      compress_factor, fdim, free_product, m_gamma_report,
                      omega_factor, prop_line, star_m1)
from .towers import (PathPair, TowerElement, cond_exp, gr0_mul, gr1_mul,
                     include, jones_projection, theta, theta1, trace_t, ztl)
from .verification import VerificationReport, run_verification

__all__ = [
    # graphs
    "Graph", "GraphError", "Path", "build_graph", "connected_components",
    "delta_max", "delta_v", "enumerate_paths", "graph_from_spec", "line_graph",
    "named_graph", "pf_weighting", "star_graph", "two_vertex_graph",
    # graded picture
    "GradedElement", "bullet_mul", "e_vertex", "star", "tau", "unit",
    # filtered picture
    "inner", "phi", "psi", "sharp_mul", "t_functional", "truncated_left_mult",
    # combinatorics
    "NCPartition", "catalan", "double_bijection", "enumerate_nc",
    "enumerate_tl", "epsilon_identity_check", "is_starry", "kreweras",
    "kreweras_class_structure", "mobius_nc",
    # cap category
    "EpiMorphism", "act", "compose", "enumerate_hom",
    # local diagram category
    "CenterReport", "TPQMorphism", "c_2n", "center_report", "graph_atoms",
    "tpq_act", "tpq_compose", "weight_functional", "zv_truncation",
    # cumulants
    "FreenessReport", "freeness_certificate", "kappa_mobius", "kappa_starry",
    "moment_phi", "omega_matrix_moments",
    # factor arithmetic
    "AlgDesc", "FactorReport", "component_parameter", "compress_factor",
    "fdim", "free_product", "m_gamma_report", "omega_factor", "prop_line",
    "star_m1",
    # towers
    "PathPair", "TowerElement", "cond_exp", "gr0_mul", "gr1_mul", "include",
    "jones_projection", "theta", "theta1", "trace_t", "ztl",
    # verification
    "VerificationReport", "run_verification",
]

__version__ = "0.1.0"
