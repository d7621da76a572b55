"""Which mvalg functions the traced run wraps, and under which metric names.

Per-element functions get counts only; coarser calls get spans.  Names
follow ``<module>.<function>``; ``.calls`` is a count, ``.s`` a span total.
"""

from __future__ import annotations

import importlib

from tracer import Tracer

MODULES = (
    "mvalg",
    "mvalg.algebras",
    "mvalg.cli",
    "mvalg.coproducts",
    "mvalg.formats",
    "mvalg.oracles",
    "mvalg.pierce",
    "mvalg.terms",
    "mvalg.topology",
    "mvalg.verify",
)

# (module, function, counter): called once per element or per small step
COUNTED_FUNCTIONS = (
    ("mvalg.algebras", "_oplus", "algebras.oplus.calls"),
    ("mvalg.algebras", "_neg", "algebras.neg.calls"),
    ("mvalg.algebras", "enumerate_homs", "algebras.enumerate_homs.calls"),
    ("mvalg.coproducts", "coproduct_finite", "coproducts.coproduct_finite.calls"),
    ("mvalg.terms", "generated_subalgebra", "terms.generated_subalgebra.calls"),
    ("mvalg.topology", "space_from_min_nbhds", "topology.space_from_min_nbhds.calls"),
    ("mvalg.oracles", "op_tables", "oracles.op_tables.calls"),
)

# (class, method, counter)
COUNTED_METHODS = (
    ("mvalg.algebras", "FiniteMV", "contains", "algebras.contains.calls"),
    ("mvalg.algebras", "Hom", "__call__", "algebras.hom_apply.calls"),
)

# (module, function, span name): coarse calls
SPANNED_FUNCTIONS = (
    ("mvalg.oracles", "brute_force_hom_graphs", "oracles.brute_force_hom_graphs"),
    ("mvalg.terms", "parse_term", "terms.parse_term"),
    ("mvalg.terms", "eval_term", "terms.eval_term"),
    ("mvalg.pierce", "chinese_boolean", "pierce.chinese_boolean"),
    ("mvalg.topology", "pi0", "topology.pi0"),
    ("mvalg.topology", "gamma_compare", "topology.gamma_compare"),
)

# CLI replay: wire-format parsing and emitting, as bound in mvalg.cli
PARSE_FUNCTIONS = ("_load", "parse_algebra", "parse_element", "parse_env", "parse_space_json")
EMIT_FUNCTIONS = ("_emit", "algebra_to_json", "element_to_json", "hom_to_json", "space_to_json", "fraction_to_str")


class _JsonProxy:
    """Stands in for the ``json`` module inside mvalg.cli so that its
    ``loads`` and ``dumps`` calls land in the parse and emit spans."""

    def __init__(self, tracer: Tracer, real):
        self.loads = tracer.spanned("formats.parse", real.loads)
        self.dumps = tracer.spanned("formats.emit", real.dumps)
        self.JSONDecodeError = real.JSONDecodeError


def install(tracer: Tracer) -> None:
    """Wrap every layer function (undone by ``tracer.uninstall``)."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    t = tracer
    for module, fn, counter in COUNTED_FUNCTIONS:
        t.patch_function(module, fn, lambda f, c=counter: t.counted(c, f))
    for module, cls, method, counter in COUNTED_METHODS:
        t.patch_method(getattr(mods[module], cls), method, lambda f, c=counter: t.counted(c, f))
    t.patch_method(mods["mvalg.pierce"].BooleanSkeleton, "elements",
                   lambda f: t.counted_iter("pierce.skeleton_elements", f))
    for module, fn, name in SPANNED_FUNCTIONS:
        t.patch_function(module, fn, lambda f, n=name: t.counted(n + ".calls", t.spanned(n, f)))
    t.patch_function("mvalg.terms", "order_rank", lambda f: t.spanned(
        "terms.order_rank", f, ratio=("terms.closure_yield", "algebras.oplus.calls", lambda r: r.subalgebra.size)))
    t.patch_function("mvalg.coproducts", "separability_witness", lambda f: t.spanned(
        "coproducts.separability_witness", f,
        ratio=("coproducts.witness_yield", "algebras.hom_apply.calls", lambda c: c.witness is not None)))
    cli = mods["mvalg.cli"]
    for fn in PARSE_FUNCTIONS:
        t.patch_function("mvalg.cli", fn, lambda f: t.spanned("formats.parse", f))
    for fn in EMIT_FUNCTIONS:
        t.patch_function("mvalg.cli", fn, lambda f: t.spanned("formats.emit", f))
    for command in list(cli.HANDLERS):
        t.replace(cli.HANDLERS, command, t.spanned("cli.handler", cli.HANDLERS[command]))
    t.replace(cli, "json", _JsonProxy(t, cli.json))


SUITES = ("hom-oracle", "coproduct-universal", "pierce-coproducts", "separability",
          "vanishing-locus", "product-split", "pi0-products", "order-rank")

# (metric, unit, better) reported by every traced run; a layer a workload
# does not reach reads 0 there.  ``.s`` is the inclusive time of the spans
# of that name, ``cli.compute.s`` the command handlers' time outside the
# wire-format spans.
PER_LAYER = (
    *((f"verify.{suite}.s", "s", "lower") for suite in SUITES),
    ("algebras.contains.calls", "count", "lower"),
    ("algebras.hom_apply.calls", "count", "lower"),
    ("algebras.oplus.calls", "count", "lower"),
    ("algebras.neg.calls", "count", "lower"),
    ("algebras.enumerate_homs.calls", "count", "lower"),
    ("algebras.contains.us_per_call", "us", "lower"),
    ("algebras.oplus.us_per_call", "us", "lower"),
    ("algebras.hom_apply.us_per_call", "us", "lower"),
    ("terms.order_rank.s", "s", "lower"),
    ("terms.generated_subalgebra.calls", "count", "lower"),
    ("terms.closure_yield", "1", "higher"),
    ("terms.parse_term.s", "s", "lower"),
    ("terms.eval_term.s", "s", "lower"),
    ("coproducts.separability_witness.s", "s", "lower"),
    ("coproducts.witness_yield", "1", "higher"),
    ("coproducts.coproduct_finite.calls", "count", "lower"),
    ("pierce.chinese_boolean.s", "s", "lower"),
    ("pierce.skeleton_elements", "count", "lower"),
    ("topology.iter_topologies.s", "s", "lower"),
    ("topology.pi0.s", "s", "lower"),
    ("topology.gamma_compare.s", "s", "lower"),
    ("topology.space_from_min_nbhds.calls", "count", "lower"),
    ("oracles.brute_force_hom_graphs.s", "s", "lower"),
    ("oracles.brute_force_hom_graphs.calls", "count", "lower"),
    ("oracles.op_tables.calls", "count", "lower"),
    ("oracles.op_tables.hit_ratio", "1", "higher"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.site_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("formats.parse.s", "s", "lower"),
    ("cli.compute.s", "s", "lower"),
    ("formats.emit.s", "s", "lower"),
    ("trace.overhead_ratio", "1", "lower"),
)

# counters or spans each workload must reach; one left at zero means a
# wrapper missed a binding, and the traced run reports it as incorrect
_KERNEL = ("algebras.contains.calls", "algebras.hom_apply.calls", "algebras.oplus.calls",
           "algebras.neg.calls", "terms.generated_subalgebra.calls", "terms.order_rank",
           "coproducts.separability_witness", "coproducts.coproduct_finite.calls",
           "pierce.skeleton_elements", "topology.pi0.calls")
MUST_CALL = {
    "verify-all": _KERNEL + (
        "algebras.enumerate_homs.calls", "topology.gamma_compare.calls",
        "topology.space_from_min_nbhds.calls", "oracles.brute_force_hom_graphs.calls",
        "oracles.op_tables.calls", *(f"verify.{suite}" for suite in SUITES)),
    "query-mix": _KERNEL + (
        "algebras.enumerate_homs.calls", "terms.parse_term.calls", "terms.eval_term.calls",
        "pierce.chinese_boolean.calls", "topology.gamma_compare.calls",
        "topology.space_from_min_nbhds.calls", "topology.iter_topologies"),
    "cli-process": _KERNEL + (
        "terms.parse_term.calls", "terms.eval_term.calls", "formats.parse", "formats.emit",
        "cli.handler"),
}
