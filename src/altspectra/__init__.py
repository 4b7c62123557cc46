"""Cayley graphs on alternating groups: spectra, equitable partitions, and
isoperimetric bounds.

The three graph families live on the even permutations of {1..n}:

- AG_n:  generators (1,2,i) and (1,i,2), degree 2n-4;
- EAG_n: all 3-cycles through the point 1, degree (n-1)(n-2);
- CAG_n: all 3-cycles, degree 2*C(n,3).

The library builds these graphs, checks their equitable partitions against
closed-form divisor matrices, proves their exact spectra, computes spectral
gaps densely and iteratively, and brackets their isoperimetric numbers.
"""

from .cayley import (
    GeneratingSet,
    Graph,
    build_cayley,
    build_family,
    check_family,
    export_edges,
    generating_set,
    induced_subgraph,
    is_connected,
    phi_isomorphism,
)
from .cheeger import (
    CutReport,
    boundary_size,
    brute_force_h,
    canonical_cut,
    cheeger_bounds,
    corollary_bounds,
    cut_ratio,
)
from .errors import ConvergenceError, OrderCapError
from .partition import (
    EquitableWitness,
    Quotient,
    VertexPartition,
    blocks_AG,
    blocks_Xij,
    check_equitable,
    divisor_closed_form,
    divisor_spectrum,
)
from .perm import (
    Permutation,
    compose,
    from_cycle,
    identity,
    inverse,
    parse_cycles,
    rank,
    sign,
    unrank,
)
from .spectra import (
    SpectrumReport,
    certify_spectrum,
    dense_spectrum,
    exact_spectrum,
    integrality_check,
    lambda2_iterative,
    predicted,
)
from .verify import VerificationReport, verify_family

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "CutReport",
    "EquitableWitness",
    "GeneratingSet",
    "Graph",
    "OrderCapError",
    "Permutation",
    "Quotient",
    "SpectrumReport",
    "VerificationReport",
    "VertexPartition",
    "blocks_AG",
    "blocks_Xij",
    "boundary_size",
    "brute_force_h",
    "build_cayley",
    "build_family",
    "canonical_cut",
    "certify_spectrum",
    "check_equitable",
    "check_family",
    "cheeger_bounds",
    "compose",
    "corollary_bounds",
    "cut_ratio",
    "dense_spectrum",
    "divisor_closed_form",
    "divisor_spectrum",
    "exact_spectrum",
    "export_edges",
    "from_cycle",
    "generating_set",
    "identity",
    "induced_subgraph",
    "integrality_check",
    "inverse",
    "is_connected",
    "lambda2_iterative",
    "parse_cycles",
    "phi_isomorphism",
    "predicted",
    "rank",
    "sign",
    "unrank",
    "verify_family",
]
