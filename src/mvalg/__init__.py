"""Exact computations with finite and rational MV-algebras.

The representable universe is finite products of finite chains plus finite
products of subalgebras of the rational unit interval; on it, Boolean
skeletons, spectra, coproducts, separability, and order-rank are all
decidable, and a finite-space pi0 module mirrors the topological side.

The package imports its submodules lazily (PEP 562): ``import mvalg`` loads
none of them, and the first use of a name below imports the submodule that
defines it and binds the name here, so later uses are plain attribute
lookups.  A ``mvalg`` command thus pays only for the modules it runs.
"""

_EXPORTS = {
    "algebras": (
        "AlgebraError",
        "Element",
        "FiniteMV",
        "Hom",
        "Ideal",
        "ProductSplit",
        "enumerate_homs",
        "is_boolean",
        "join",
        "leq",
        "localize",
        "meet",
        "neg",
        "odot",
        "oplus",
        "product_split",
        "quotient_by_ideal",
    ),
    "coproducts": (
        "CoproductResult",
        "SeparabilityCertificate",
        "SeparabilityResult",
        "coproduct_finite",
        "coproduct_rational",
        "is_separable",
        "is_subterminal_epic",
        "separability_witness",
    ),
    "lgroups": ("SimplicialGroup", "gamma", "product_unital", "xi"),
    "pierce": (
        "BooleanSkeleton",
        "Decomposition",
        "boolean_skeleton",
        "chi",
        "chinese_boolean",
        "decompose",
        "gelfand_transform",
        "holder_embed",
        "is_boolean_via_primes",
        "is_simple",
        "phi",
        "radical",
        "spectrum",
        "spectrum_space",
        "support",
        "vanishing_locus",
    ),
    "rationals": ("INF", "RationalAlgebra"),
    "terms": (
        "OrderRank",
        "ParseError",
        "Subalgebra",
        "Term",
        "TermError",
        "eval_term",
        "generated_subalgebra",
        "order_rank",
        "parse_term",
        "term_to_str",
    ),
    "topology": (
        "FinSpace",
        "Pi0Result",
        "TopologyError",
        "components",
        "gamma_compare",
        "pi0",
        "product_space",
    ),
}

# name -> the submodule that defines it; a submodule maps to itself
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
