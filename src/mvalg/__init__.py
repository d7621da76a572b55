"""Exact computations with finite and rational MV-algebras.

The representable universe is finite products of finite chains plus finite
products of subalgebras of the rational unit interval; on it, Boolean
skeletons, spectra, coproducts, separability, and order-rank are all
decidable, and a finite-space pi0 module mirrors the topological side.
"""

from .algebras import (
    AlgebraError,
    Element,
    FiniteMV,
    Hom,
    Ideal,
    ProductSplit,
    enumerate_homs,
    is_boolean,
    join,
    leq,
    localize,
    meet,
    neg,
    odot,
    oplus,
    product_algebra,
    product_split,
    quotient_by_ideal,
)
from .coproducts import (
    CoproductResult,
    PierceCoproductReport,
    SeparabilityCertificate,
    SeparabilityResult,
    coproduct_finite,
    coproduct_rational,
    is_separable,
    is_subterminal_epic,
    pierce_coproduct_check,
    separability_witness,
)
from .lgroups import SimplicialGroup, gamma, product_unital, xi
from .pierce import (
    BooleanSkeleton,
    Decomposition,
    SpectrumPoint,
    boolean_skeleton,
    chi,
    chinese_boolean,
    decompose,
    gelfand_transform,
    holder_embed,
    is_boolean_via_primes,
    is_semisimple,
    is_simple,
    phi,
    radical,
    spectrum,
    spectrum_space,
    support,
    vanishing_locus,
)
from .rationals import INF, RationalAlgebra
from .terms import (
    OrderRank,
    ParseError,
    Subalgebra,
    Term,
    TermError,
    eval_term,
    generated_subalgebra,
    order_rank,
    parse_term,
    term_to_str,
)
from .topology import (
    FinSpace,
    FiniteBoolean,
    Pi0Result,
    TopologyError,
    ba_coproduct,
    clopen_algebra,
    components,
    e_map,
    gamma_compare,
    pi0,
    pi0_map,
    product_space,
    quasi_components,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
