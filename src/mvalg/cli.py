"""Command-line interface.

Every command reads JSON wire formats (see formats) and writes a JSON report
to stdout; ``--format text`` switches to a terse human summary with no
stability guarantee.  Exit codes: 0 success, 1 a verification suite found a
violation (an exception raised inside a suite counts as one), 2 malformed
input, 3 an internal error (any other exception, reported on one stderr line
with no traceback).
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
from .rationals import RationalAlgebra
from .topology import TopologyError

# Each handler imports the modules that compute its answer, so a process
# loads only what its command runs: formats and the algebra types above at
# start-up, terms only for eval and rank, verify and oracles only for verify.

USER_ERRORS = (FormatError, AlgebraError, TermError, TopologyError)

# spec lists the 2^k opens of the discrete spectrum and pierce the 2^k
# Boolean elements of an algebra with k components, so both refuse larger k
MAX_LISTED_COMPONENTS = 16

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


def _finite(args) -> FiniteMV:
    alg = parse_algebra(_load(args.alg[0] if args.alg else None, "--alg"))
    if not isinstance(alg, FiniteMV):
        raise FormatError("this command needs a finite algebra ({\"finite\": [...]})")
    return alg


def cmd_eval(args) -> dict:
    from .terms import eval_term, parse_term

    algebra = _finite(args)
    if args.term is None:
        raise FormatError("missing required --term")
    term = parse_term(args.term)
    env = parse_env(algebra, _load(args.env, "--env")) if args.env else {}
    value = eval_term(term, env, algebra)
    return {"algebra": algebra_to_json(algebra), "value": element_to_json(value)}


def _listable(algebra: FiniteMV) -> FiniteMV:
    k = algebra.num_components
    if k > MAX_LISTED_COMPONENTS:
        raise FormatError(f"{k} components would list 2^{k} items; at most {MAX_LISTED_COMPONENTS} are accepted")
    return algebra


def _coproduct_budget(a: FiniteMV, b: FiniteMV) -> None:
    k = a.num_components * b.num_components
    if k > MAX_COPRODUCT_COMPONENTS:
        raise FormatError(
            f"the coproduct would have {k} components; at most {MAX_COPRODUCT_COMPONENTS} are accepted"
        )


def cmd_decompose(args) -> dict:
    from .pierce import decompose

    algebra = _finite(args)
    dec = decompose(algebra)
    return {
        "algebra": algebra_to_json(algebra),
        "indecomposable": dec.is_indecomposable,
        "factors": [algebra_to_json(f) for f in dec.factors],
        "projections": [hom_to_json(p) for p in dec.projections],
    }


def cmd_pierce(args) -> dict:
    from .pierce import boolean_skeleton

    algebra = _listable(_finite(args))
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
    a = parse_algebra(_load(args.alg[0], "--alg"))
    b = parse_algebra(_load(args.alg[1], "--alg"))
    if isinstance(a, FiniteMV) and isinstance(b, FiniteMV):
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
    if isinstance(a, RationalAlgebra) and isinstance(b, RationalAlgebra):
        return {
            "summands": [algebra_to_json(a), algebra_to_json(b)],
            "algebra": algebra_to_json(coproduct_rational(a, b)),
        }
    raise FormatError("coproduct needs two finite or two rational algebras")


def cmd_separable(args) -> dict:
    from .coproducts import is_separable, separability_witness

    algebra = parse_algebra(_load(args.alg[0] if args.alg else None, "--alg"))
    if isinstance(algebra, SimplicialGroup):
        raise FormatError("separable expects a finite, rational, or product algebra")
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

    algebra = parse_algebra(_load(args.alg[0] if args.alg else None, "--alg"))
    if not isinstance(algebra, (FiniteMV, RationalAlgebra)):
        raise FormatError("subterminal expects a finite or rational algebra")
    return {"algebra": algebra_to_json(algebra), "subterminal": is_subterminal_epic(algebra)}


def cmd_spec(args) -> dict:
    from .pierce import is_simple, spectrum, spectrum_space, support, vanishing_locus

    algebra = _listable(_finite(args))
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

    algebra = parse_algebra(_load(args.alg[0] if args.alg else None, "--alg"))
    if isinstance(algebra, SimplicialGroup):
        raise FormatError("rank expects a finite, rational, or product algebra")
    raw = _load(args.elem, "--elem")
    if isinstance(algebra, FiniteMV):
        elem = parse_element(algebra, raw)
    else:  # one coordinate per rational factor; a bare fraction is one coordinate
        elem = tuple(parse_fraction(c) for c in (raw if isinstance(raw, list) else [raw]))
    r = order_rank(algebra, elem)
    return {
        "algebra": algebra_to_json(algebra),
        "element": [fraction_to_str(c) for c in elem],
        "rank": r.rank,
        "factors": list(r.chain_orders),
        "subalgebra_size": r.subalgebra.size,
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

    algebra = parse_algebra(_load(args.alg[0] if args.alg else None, "--alg"))
    if isinstance(algebra, SimplicialGroup):
        finite = gamma(algebra)
        return {
            "group": algebra_to_json(algebra),
            "algebra": algebra_to_json(finite),
            "round_trip": xi(finite) == algebra,
        }
    if isinstance(algebra, FiniteMV):
        group = xi(algebra)
        return {
            "algebra": algebra_to_json(algebra),
            "group": algebra_to_json(group),
            "round_trip": gamma(group) == algebra,
        }
    raise FormatError("gamma expects a simplicial group or a finite algebra")


def cmd_verify(args) -> tuple[int, dict]:
    from .verify import CRITERIA, run_criterion, suite_size

    names = list(CRITERIA) if args.all or not args.criteria else args.criteria
    for name in names:  # every name and size is checked before the first suite runs
        try:
            suite_size(name, args.max_size)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    reports = [run_criterion(name, size=args.max_size, seed=args.seed) for name in names]
    payload = {
        "seed": args.seed,
        "max_size": args.max_size,
        "criteria": [
            {
                "name": r.name,
                "passed": r.passed,
                "summary": r.summary,
                "stats": r.stats,
            }
            for r in reports
        ],
        "all_passed": all(r.passed for r in reports),
    }
    if args.format == "text":
        for r in reports:
            print(r.line())
        print("all passed" if payload["all_passed"] else "violations found")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return (0 if payload["all_passed"] else 1), payload


def _emit(args, payload: dict) -> None:
    if args.format == "text":
        for key, value in sorted(payload.items()):
            print(f"{key}: {value}")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, **flags):
        p = sub.add_parser(name)
        if flags.get("alg"):
            p.add_argument("--alg", action="append", help="algebra JSON (repeatable where two are needed)")
        if flags.get("elem"):
            p.add_argument("--elem", help="element JSON")
        if flags.get("env"):
            p.add_argument("--env", help="environment JSON")
        if flags.get("term"):
            p.add_argument("--term", help="term string")
        if flags.get("space"):
            p.add_argument("--space", help="finite space JSON")
        p.add_argument("--format", choices=["json", "text"], default="json")
        return p

    add("eval", alg=True, term=True, env=True)
    add("decompose", alg=True)
    add("pierce", alg=True)
    add("coproduct", alg=True)
    add("separable", alg=True)
    add("subterminal", alg=True)
    add("spec", alg=True, elem=True)
    add("rank", alg=True, elem=True)
    add("pi0", space=True)
    add("gamma", alg=True)
    v = add("verify")
    v.add_argument("criteria", nargs="*", help="criterion names (default: all)")
    v.add_argument("--all", action="store_true", help="run every criterion")
    v.add_argument("--max-size", type=int, default=None, help="primary sweep bound, each suite's minimum..maximum")
    v.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
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
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            code, _ = cmd_verify(args)
            return code
        payload = HANDLERS[args.command](args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect in mvalg, not in the input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    _emit(args, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
