"""Command-line interface.

Every command reads JSON wire formats (see formats) and writes a JSON report
to stdout; ``--format text`` switches to a terse human summary with no
stability guarantee.  Each handler in ``HANDLERS`` returns its report, and
``main`` alone serialises and writes it.  Exit codes: 0 success, 1 a
verification suite found a violation (an exception raised inside a suite
counts as one), 2 malformed input, including a request whose report would
hold more than ``MAX_RESPONSE_LEAVES`` JSON values, 3 an internal error (any
other exception, also one raised while writing the report, reported on one
stderr line with no traceback).
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebras import AlgebraError, FiniteMV, TermError, is_boolean
from .formats import (
    FormatError,
    algebra_to_json,
    element_to_json,
    fraction_to_str,
    hom_to_json,
    parse_algebra,
    parse_element,
    parse_env,
    parse_fraction,
    parse_space_json,
    space_to_json,
)
from .lgroups import SimplicialGroup
from .rationals import _ORDER_BOUND, MAX_ORDER_DIGITS, RationalAlgebra
from .topology import TopologyError

# Each handler imports the modules that compute its answer, so a process
# loads only what its command runs: formats and the algebra types above at
# start-up, terms only for eval and rank, verify and oracles only for verify.

USER_ERRORS = (FormatError, AlgebraError, TermError, TopologyError)

# the JSON leaf values (numbers, strings, booleans) a response may hold; k
# components give pierce k*2^k + k + 2, spec k*2^(k-1) + 2k + 2 and decompose
# k^2 + 4k + 1, so pierce and spec accept k <= 16 and decompose k <= 1,046
MAX_RESPONSE_LEAVES = 1_100_000

# coproduct and separable build A + B with k_A * k_B components, and its
# injections and witness list them all, so both refuse a larger product
MAX_COPRODUCT_COMPONENTS = 4096


def _load(text: str | None, flag: str):
    if text is None:
        raise FormatError(f"missing required {flag}")
    try:
        return json.loads(text)
    except ValueError as exc:  # malformed JSON, or an integer past Python's digit limit
        raise FormatError(str(exc)) from None


def _algebra(args, index: int, *kinds: str):
    """The algebra of the index-th ``--alg``, refused unless its wire kind
    ("finite", "rational", "product" or "simplicial") is one of kinds."""
    texts = args.alg or []
    obj = _load(texts[index] if index < len(texts) else None, "--alg")
    algebra = parse_algebra(obj)
    (kind,) = obj
    if kind not in kinds:
        raise FormatError(f"{args.command} expects a {' or '.join(kinds)} algebra")
    return algebra


def cmd_eval(args) -> dict:
    from .terms import eval_term, parse_term

    algebra = _algebra(args, 0, "finite")
    if args.term is None:
        raise FormatError("missing required --term")
    term = parse_term(args.term)
    env = parse_env(algebra, _load(args.env, "--env")) if args.env else {}
    value = eval_term(term, env, algebra)
    return {"algebra": algebra_to_json(algebra), "value": element_to_json(value)}


def _budgeted(args, leaves) -> FiniteMV:
    """The finite algebra of ``--alg``, refused before any work when its
    response, leaves(k) JSON values for k components, is over budget."""
    algebra = _algebra(args, 0, "finite")
    k = algebra.num_components
    if leaves(k) > MAX_RESPONSE_LEAVES:
        raise FormatError(f"{args.command} on {k} components would print more than {MAX_RESPONSE_LEAVES} values")
    return algebra


def _coproduct_budget(a: FiniteMV, b: FiniteMV) -> None:
    k = a.num_components * b.num_components
    if k > MAX_COPRODUCT_COMPONENTS:
        raise FormatError(
            f"the coproduct would have {k} components; at most {MAX_COPRODUCT_COMPONENTS} are accepted"
        )


def cmd_decompose(args) -> dict:
    from .pierce import decompose

    algebra = _budgeted(args, lambda k: k * k + 4 * k + 1)
    dec = decompose(algebra)
    return {
        "algebra": algebra_to_json(algebra),
        "indecomposable": dec.is_indecomposable,
        "factors": [algebra_to_json(f) for f in dec.factors],
        "projections": [hom_to_json(p) for p in dec.projections],
    }


def cmd_pierce(args) -> dict:
    from .pierce import boolean_skeleton

    algebra = _budgeted(args, lambda k: k * 2**k + k + 2)
    skel = boolean_skeleton(algebra)
    return {
        "algebra": algebra_to_json(algebra),
        "atoms": skel.atom_count,
        "size": skel.size,
        "elements": [element_to_json(b) for b in sorted(skel.elements())],
    }


def cmd_coproduct(args) -> dict:
    from .coproducts import coproduct_finite, coproduct_rational

    if not args.alg or len(args.alg) != 2:
        raise FormatError("coproduct needs --alg twice (the two summands)")
    a = _algebra(args, 0, "finite", "rational")
    b = _algebra(args, 1, "finite", "rational")
    if type(a) is not type(b):
        raise FormatError("coproduct needs two finite or two rational algebras")
    if isinstance(a, RationalAlgebra):
        return {
            "summands": [algebra_to_json(a), algebra_to_json(b)],
            "algebra": algebra_to_json(coproduct_rational(a, b)),
        }
    _coproduct_budget(a, b)
    cop = coproduct_finite(a, b)
    out = {
        "summands": [algebra_to_json(a), algebra_to_json(b)],
        "algebra": algebra_to_json(cop.algebra),
        "in0": hom_to_json(cop.in0),
        "in1": hom_to_json(cop.in1),
    }
    if cop.codiagonal is not None:
        out["codiagonal"] = hom_to_json(cop.codiagonal)
    return out


def cmd_separable(args) -> dict:
    from .coproducts import is_separable, separability_witness

    algebra = _algebra(args, 0, "finite", "rational", "product")
    if isinstance(algebra, FiniteMV):  # its witness lives in A + A
        _coproduct_budget(algebra, algebra)
    result = is_separable(algebra)
    out = {
        "algebra": algebra_to_json(algebra),
        "separable": result.separable,
        "factors": [algebra_to_json(f) for f in result.factors],
    }
    if isinstance(algebra, FiniteMV):
        cert = separability_witness(algebra)
        out["witness"] = element_to_json(cert.witness) if cert.witness is not None else None
        out["witness_agrees"] = cert.separable == result.separable
    return out


def cmd_subterminal(args) -> dict:
    from .coproducts import is_subterminal_epic

    algebra = _algebra(args, 0, "finite", "rational")
    return {"algebra": algebra_to_json(algebra), "subterminal": is_subterminal_epic(algebra)}


def cmd_spec(args) -> dict:
    from .pierce import is_simple, spectrum, spectrum_space, support, vanishing_locus

    algebra = _budgeted(args, lambda k: k * 2**k // 2 + 2 * k + 2)
    out = {
        "algebra": algebra_to_json(algebra),
        "points": spectrum(algebra),
        "space": space_to_json(spectrum_space(algebra)),
        "simple": is_simple(algebra),
    }
    if args.elem:
        x = parse_element(algebra, _load(args.elem, "--elem"))
        out["element"] = element_to_json(x)
        out["vanishing_locus"] = sorted(vanishing_locus(algebra, [x]))
        out["support"] = sorted(support(algebra, x))
        out["boolean"] = is_boolean(algebra, x)
    return out


def cmd_rank(args) -> dict:
    from .terms import order_rank

    algebra = _algebra(args, 0, "finite", "rational", "product")
    raw = _load(args.elem, "--elem")
    if isinstance(algebra, FiniteMV):
        elem = parse_element(algebra, raw)
    else:  # one coordinate per rational factor; a bare fraction is one coordinate
        elem = tuple(parse_fraction(c) for c in (raw if isinstance(raw, list) else [raw]))
    r = order_rank(algebra, elem)
    size = r.subalgebra.size
    if size >= _ORDER_BOUND:  # each order is within the budget, but their product need not be
        raise AlgebraError(f"the generated subalgebra has a size of more than {MAX_ORDER_DIGITS} digits")
    return {
        "algebra": algebra_to_json(algebra),
        "element": [fraction_to_str(c) for c in elem],
        "rank": r.rank,
        "factors": list(r.chain_orders),
        "subalgebra_size": size,
    }


def cmd_pi0(args) -> dict:
    from .topology import pi0

    space = parse_space_json(_load(args.space, "--space"))
    result = pi0(space)
    return {
        "space": space_to_json(space),
        "classes": result.class_count,
        "class_of": list(result.class_of),
        "quotient": space_to_json(result.space),
    }


def cmd_gamma(args) -> dict:
    from .lgroups import gamma, xi

    algebra = _algebra(args, 0, "simplicial", "finite")
    if isinstance(algebra, SimplicialGroup):
        finite = gamma(algebra)
        return {
            "group": algebra_to_json(algebra),
            "algebra": algebra_to_json(finite),
            "round_trip": xi(finite) == algebra,
        }
    group = xi(algebra)
    return {
        "algebra": algebra_to_json(algebra),
        "group": algebra_to_json(group),
        "round_trip": gamma(group) == algebra,
    }


def cmd_verify(args) -> dict:
    from .verify import CRITERIA, run_criterion, suite_size

    names = list(CRITERIA) if args.all or not args.criteria else args.criteria
    for name in names:  # every name and size is checked before the first suite runs
        try:
            suite_size(name, args.max_size)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    reports = [run_criterion(name, size=args.max_size, seed=args.seed) for name in names]
    return {
        "seed": args.seed,
        "max_size": args.max_size,
        "criteria": reports,
        "all_passed": all(r.passed for r in reports),
    }


def _report_json(report) -> dict:
    """A verify suite's report in JSON; its running time shows only in text."""
    return {"name": report.name, "passed": report.passed, "summary": report.summary, "stats": report.stats}


def _emit(args, payload: dict) -> str:
    """The text ``main`` writes for a handler's report."""
    if args.format == "json":
        return json.dumps(payload, indent=2, sort_keys=True, default=_report_json) + "\n"
    if args.command == "verify":
        lines = [r.line() for r in payload["criteria"]]
        lines.append("all passed" if payload["all_passed"] else "violations found")
    else:
        lines = [f"{key}: {value}" for key, value in sorted(payload.items())]
    return "".join(line + "\n" for line in lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {  # flag -> add_argument keywords
        "--alg": {"action": "append", "help": "algebra JSON (repeatable where two are needed)"},
        "--elem": {"help": "element JSON"},
        "--env": {"help": "environment JSON"},
        "--term": {"help": "term string"},
        "--space": {"help": "finite space JSON"},
        "criteria": {"nargs": "*", "help": "criterion names (default: all)"},
        "--all": {"action": "store_true", "help": "run every criterion"},
        "--max-size": {"type": int, "help": "primary sweep bound, each suite's minimum..maximum"},
        "--seed": {"type": int, "default": 0, "help": "seed for sampled sweeps"},
        "--format": {"choices": ["json", "text"], "default": "json"},
    }
    flags = {  # command -> the flags it reads besides --format
        "eval": ("--alg", "--term", "--env"),
        "decompose": ("--alg",),
        "pierce": ("--alg",),
        "coproduct": ("--alg",),
        "separable": ("--alg",),
        "subterminal": ("--alg",),
        "spec": ("--alg", "--elem"),
        "rank": ("--alg", "--elem"),
        "pi0": ("--space",),
        "gamma": ("--alg",),
        "verify": ("criteria", "--all", "--max-size", "--seed"),
    }
    for command, names in flags.items():
        p = sub.add_parser(command)
        for flag in (*names, "--format"):
            p.add_argument(flag, **options[flag])
    return parser


HANDLERS = {
    "eval": cmd_eval,
    "decompose": cmd_decompose,
    "pierce": cmd_pierce,
    "coproduct": cmd_coproduct,
    "separable": cmd_separable,
    "subterminal": cmd_subterminal,
    "spec": cmd_spec,
    "rank": cmd_rank,
    "pi0": cmd_pi0,
    "gamma": cmd_gamma,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload = HANDLERS[args.command](args)
        sys.stdout.write(_emit(args, payload))
        sys.stdout.flush()
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in mvalg, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 1 if args.command == "verify" and not payload["all_passed"] else 0


if __name__ == "__main__":
    sys.exit(main())
