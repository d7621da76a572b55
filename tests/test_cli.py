"""Wire formats and the command-line interface."""

import argparse
import contextlib
import io
import json
import signal
import subprocess
import sys
import time
from datetime import timedelta
from fractions import Fraction
from math import ceil, log10

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvalg import FiniteMV, INF, RationalAlgebra, SimplicialGroup
from mvalg.cli import MAX_COPRODUCT_COMPONENTS, MAX_RESPONSE_LEAVES, main
from mvalg.formats import (
    MAX_PRODUCT_FACTORS,
    FormatError,
    algebra_to_json,
    element_to_json,
    fraction_to_str,
    parse_algebra,
    parse_element,
    parse_fraction,
)
from mvalg.rationals import _is_prime
from mvalg.verify import CRITERIA


class TestFormats:
    def test_fraction_round_trip(self):
        for text in ["0", "1", "1/2", "5/6"]:
            assert fraction_to_str(parse_fraction(text)) == text

    def test_fraction_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            parse_fraction("3/2")
        with pytest.raises(FormatError):
            parse_fraction("1/0")

    def test_fraction_accepts_digits_only(self):
        assert parse_fraction("2/4") == Fraction(1, 2)  # non-reduced p/q is read as its value
        assert parse_fraction("0/7") == 0 and parse_fraction("1") == 1 and parse_fraction(1) == 1
        for bad in ["0.5", "1e-1", " 1/2", "1/2 ", "+1/2", "-0", "1 / 2", "1/", "/2", "", "½", "1/" + "1" * 5000, True, 0.5, None]:
            with pytest.raises(FormatError):
                parse_fraction(bad)

    def test_element_round_trip(self):
        a = FiniteMV([2, 3])
        x = parse_element(a, ["1/2", "1/3"])
        assert x == (Fraction(1, 2), Fraction(1, 3))
        assert element_to_json(x) == ["1/2", "1/3"]

    def test_algebra_formats(self):
        assert parse_algebra({"finite": [2, 3]}) == FiniteMV([2, 3])
        assert parse_algebra({"rational": {"kind": "chain", "n": 6}}) == RationalAlgebra.chain(6)
        super_spec = {"rational": {"kind": "supernatural", "primes": {"2": "inf"}, "all": False}}
        assert parse_algebra(super_spec) == RationalAlgebra.supernatural({2: INF})
        product = parse_algebra(
            {"product": [{"rational": {"kind": "chain", "n": 2}}, {"kind": "chain", "n": 3}]}
        )
        assert product == [RationalAlgebra.chain(2), RationalAlgebra.chain(3)]
        assert parse_algebra({"simplicial": {"rank": 2, "unit": [2, 3]}}) == SimplicialGroup([2, 3])

    def test_algebra_json_round_trip(self):
        for alg in [FiniteMV([2, 3]), RationalAlgebra.chain(6), RationalAlgebra.supernatural({2: INF, 3: 2})]:
            assert parse_algebra(algebra_to_json(alg)) == alg

    def test_rejects_malformed(self):
        for bad in [{"finite": [0]}, {"rational": {"kind": "weird"}}, {"x": 1}, {}, 7]:
            with pytest.raises(FormatError):
                parse_algebra(bad)

    def test_algebra_to_json_refuses_an_unknown_object(self):
        with pytest.raises(FormatError, match="cannot serialize"):
            algebra_to_json(object())


# requests whose chain order is the prime 10^18 + 3
HANG_REQUESTS = [
    ["decompose", "--alg", '{"rational":{"kind":"chain","n":1000000000000000003}}'],
    ["separable", "--alg", '{"finite":[1000000000000000003]}'],
    ["separable", "--alg", '{"product":[{"kind":"chain","n":1000000000000000003}]}'],
]


# the first primes above 10^18, as many as a product may have factors
LARGE_PRIMES = [p for p in range(10**18, 10**18 + 2000) if _is_prime(p)][:MAX_PRODUCT_FACTORS]


# 64 orders, as many components as ``separable`` takes, with no factor below
# 10^6 but 2
PRIMES_64 = [p for p in range(10**18, 10**18 + 4000) if _is_prime(p)][:64]
SEPARABLE_64 = [[10**18 + 3] * 64, PRIMES_64, [2 * p for p in PRIMES_64]]


def large_prime_product(count):
    return json.dumps({"product": [{"kind": "chain", "n": LARGE_PRIMES[i % len(LARGE_PRIMES)]} for i in range(count)]})


# its A + A would have 4,000,000 components, so subterminality must be read
# off the chain orders
SUBTERMINAL_2000 = ["subterminal", "--alg", json.dumps({"finite": [2] * 2000})]


def zero_padded(value: int, width: int) -> str:
    """value in decimal, with leading zeros up to width digits."""
    return str(value).zfill(width)


def digit_budget_rows(width: int, code: int) -> list:
    """One request per integer position on the wire, each holding an integer
    of ``width`` digits.  Where that integer is valid at its value, the
    request exits ``code``; a prime key of that size, or an lcm of two such
    orders, is refused at any width."""
    fraction = f"{zero_padded(1, width)}/{zero_padded(2, width)}"  # 1/2
    def ten_plus(k: int, digits: int = width) -> str:  # 10^(digits-1) + k, for k < 10
        return "1" + "0" * (digits - 2) + str(k)
    rows = {
        "term-numerator": (["eval", "--alg", '{"finite":[2]}', "--term", f"{zero_padded(1, width)}/2"], code),
        "term-denominator": (["eval", "--alg", '{"finite":[2]}', "--term", f"1/{zero_padded(2, width)}"], code),
        "term-both": (["eval", "--alg", '{"finite":[2]}', "--term", f"x+{fraction}", "--env", '{"x":"0"}'], code),
        "element": (["spec", "--alg", '{"finite":[2]}', "--elem", json.dumps([fraction])], code),
        "rational-element": (["rank", "--alg", '{"rational":{"kind":"chain","n":2}}', "--elem", json.dumps(fraction)], code),
        "prime-key": (["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"%s":1}}}' % ten_plus(0)], 2),
        "chain-n": (["subterminal", "--alg", '{"rational":{"kind":"chain","n":%s}}' % ten_plus(0)], code),
        "supernatural-n": (
            ["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":"inf"},"n":%s}}' % ten_plus(0)], code
        ),
        "finite-order": (["decompose", "--alg", '{"finite":[%s]}' % ten_plus(0)], code),
        # the least power of 2 with width digits
        "finite-cap": (
            ["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":%d}}}' % ceil((width - 1) / log10(2))],
            code,
        ),
        # 10^(w-2) + 1 is prime to 10, so its lcm with 10 has w digits
        "coproduct-lcm": (["coproduct", "--alg", '{"finite":[%s]}' % ten_plus(1, width - 1), "--alg", '{"finite":[10]}'], code),
        # two coprime orders of w digits: their lcm has 2w - 1
        "coproduct-two-long-orders": (
            ["coproduct", "--alg", '{"finite":[%s]}' % ten_plus(1), "--alg", '{"finite":[%s]}' % ten_plus(3)], 2
        ),
        # 1/10^(w-1) and 1/(10^(w-2) + 1) generate both chains, whose size
        # (10^(w-1) + 1)(10^(w-2) + 2) has 2w - 2 digits
        "rank-product-size": (
            ["rank", "--alg", '{"product":[{"kind":"chain","n":%s},{"kind":"chain","n":%s}]}' % (ten_plus(0), ten_plus(1, width - 1)),
             "--elem", json.dumps([f"1/{ten_plus(0)}", f"1/{ten_plus(1, width - 1)}"])],
            2,
        ),
        "rank-finite-size": (
            ["rank", "--alg", '{"finite":[%s,%s]}' % (ten_plus(0), ten_plus(1, width - 1)),
             "--elem", json.dumps([f"1/{ten_plus(0)}", f"1/{ten_plus(1, width - 1)}"])],
            2,
        ),
    }
    return [pytest.param(argv, expected, id=f"{name}-{width}") for name, (argv, expected) in rows.items()]


FIVE_THOUSAND = "x" * 5000
FINITE_2 = '{"finite":[2]}'


def supernatural(primes, **fields) -> str:
    return json.dumps({"rational": {"kind": "supernatural", "primes": primes, **fields}})


LONG_REFUSALS = {  # one request per refusal that quotes a malformed value
    "element-not-a-list": ["spec", "--alg", FINITE_2, "--elem", json.dumps(FIVE_THOUSAND)],
    "environment-not-an-object": ["eval", "--alg", FINITE_2, "--term", "x", "--env", json.dumps(FIVE_THOUSAND)],
    "rational-not-an-object": ["subterminal", "--alg", json.dumps({"rational": FIVE_THOUSAND})],
    "primes-not-an-object": ["subterminal", "--alg", supernatural(FIVE_THOUSAND)],
    "bad-prime-key": ["subterminal", "--alg", supernatural({FIVE_THOUSAND: 1})],
    "bad-exponent": ["subterminal", "--alg", supernatural({"2": FIVE_THOUSAND})],
    "all-not-a-bool": ["subterminal", "--alg", supernatural({}, all=FIVE_THOUSAND)],
    "unknown-rational-kind": ["subterminal", "--alg", json.dumps({"rational": {"kind": FIVE_THOUSAND}})],
    "algebra-not-one-key": ["decompose", "--alg", json.dumps(FIVE_THOUSAND)],
    "orders-not-a-list": ["decompose", "--alg", json.dumps({"finite": FIVE_THOUSAND})],
    "product-not-a-list": ["separable", "--alg", json.dumps({"product": FIVE_THOUSAND})],
    "simplicial-shape": ["gamma", "--alg", json.dumps({"simplicial": {"unit": FIVE_THOUSAND}})],
    "simplicial-rank": ["gamma", "--alg", json.dumps({"simplicial": {"rank": FIVE_THOUSAND, "unit": [1]}})],
    "unknown-algebra-kind": ["decompose", "--alg", json.dumps({FIVE_THOUSAND: 1})],
    "chain-order-not-an-integer": ["decompose", "--alg", json.dumps({"finite": [FIVE_THOUSAND]})],
    "element-of-3000-coordinates": ["spec", "--alg", FINITE_2, "--elem", json.dumps(["1"] * 3000)],
    "rational-chain-order": ["subterminal", "--alg", json.dumps({"rational": {"kind": "chain", "n": FIVE_THOUSAND}})],
    "space-not-an-object": ["pi0", "--space", json.dumps(FIVE_THOUSAND)],
    "point-count": ["pi0", "--space", json.dumps({"points": FIVE_THOUSAND, "opens": []})],
    "open-set-out-of-range": ["pi0", "--space", json.dumps({"points": 1, "opens": [[], [0], list(range(1, 2000))]})],
    "simplicial-unit": ["gamma", "--alg", json.dumps({"simplicial": {"unit": [FIVE_THOUSAND]}})],
    "unbound-variable": ["eval", "--alg", FINITE_2, "--term", FIVE_THOUSAND],
    "unknown-criterion": ["verify", FIVE_THOUSAND],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_separable(self, capsys):
        code, out, _ = run_cli(capsys, "separable", "--alg", '{"finite":[2,3]}')
        assert code == 0
        payload = json.loads(out)
        assert payload["separable"] is True
        assert payload["factors"] == [
            {"rational": {"kind": "chain", "n": 2}},
            {"rational": {"kind": "chain", "n": 3}},
        ]
        assert payload["witness"] == ["1", "0", "0", "1"]

    def test_subterminal(self, capsys):
        code, out, _ = run_cli(capsys, "subterminal", "--alg", '{"finite":[6]}')
        assert code == 0 and json.loads(out)["subterminal"] is True
        code, out, _ = run_cli(capsys, "subterminal", "--alg", '{"finite":[2,3]}')
        assert code == 0 and json.loads(out)["subterminal"] is False

    def test_pi0(self, capsys):
        code, out, _ = run_cli(capsys, "pi0", "--space", '{"points":2,"opens":[[],[0],[0,1]]}')
        assert code == 0
        payload = json.loads(out)
        assert payload["classes"] == 1 and payload["class_of"] == [0, 0]

    def test_eval(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--alg", '{"finite":[3]}', "--term", "!(x + x)", "--env", '{"x":"1/3"}'
        )
        assert code == 0 and json.loads(out)["value"] == ["1/3"]

    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "--alg", '{"finite":[2,3]}')
        payload = json.loads(out)
        assert code == 0 and payload["factors"] == [{"finite": [2]}, {"finite": [3]}]

    def test_pierce(self, capsys):
        code, out, _ = run_cli(capsys, "pierce", "--alg", '{"finite":[2,3]}')
        payload = json.loads(out)
        assert code == 0 and payload["atoms"] == 2 and payload["size"] == 4

    def test_coproduct(self, capsys):
        code, out, _ = run_cli(
            capsys, "coproduct", "--alg", '{"finite":[2,3]}', "--alg", '{"finite":[2,3]}'
        )
        payload = json.loads(out)
        assert code == 0 and payload["algebra"] == {"finite": [2, 6, 6, 3]}
        code, out, _ = run_cli(
            capsys,
            "coproduct",
            "--alg",
            '{"rational":{"kind":"supernatural","primes":{"2":"inf"},"all":false}}',
            "--alg",
            '{"rational":{"kind":"chain","n":3}}',
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["algebra"]["rational"] == {"kind": "supernatural", "primes": {"2": "inf"}, "n": 3, "all": False}

    def test_spec_with_element(self, capsys):
        code, out, _ = run_cli(
            capsys, "spec", "--alg", '{"finite":[2,3]}', "--elem", '["1","0"]'
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["points"] == [0, 1]
        assert payload["vanishing_locus"] == [1] and payload["support"] == [0]

    def test_rank(self, capsys):
        code, out, _ = run_cli(
            capsys, "rank", "--alg", '{"finite":[2,3]}', "--elem", '["1/2","1/3"]'
        )
        payload = json.loads(out)
        assert code == 0 and payload["rank"] == 2 and payload["factors"] == [2, 3]
        code, out, _ = run_cli(
            capsys,
            "rank",
            "--alg",
            '{"rational":{"kind":"supernatural","primes":{},"all":true}}',
            "--elem",
            '"1/2"',
        )
        payload = json.loads(out)
        assert code == 0 and payload["rank"] == 1 and payload["factors"] == [2]

    def test_gamma_both_directions(self, capsys):
        code, out, _ = run_cli(capsys, "gamma", "--alg", '{"simplicial":{"rank":2,"unit":[2,3]}}')
        payload = json.loads(out)
        assert code == 0 and payload["algebra"] == {"finite": [2, 3]} and payload["round_trip"]
        code, out, _ = run_cli(capsys, "gamma", "--alg", '{"finite":[6]}')
        payload = json.loads(out)
        assert code == 0 and payload["group"] == {"simplicial": {"rank": 1, "unit": [6]}}

    def test_verify_single_criterion(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "simplicial-roundtrip", "--max-size", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True and len(payload["criteria"]) == 1

    def test_verify_text_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "subterminal", "--max-size", "3", "--format", "text"
        )
        assert code == 0 and out.startswith("PASS subterminal")

    def test_parser_accepts_exactly_the_handled_commands(self):
        from mvalg import cli

        (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(commands.choices) == list(cli.HANDLERS)


class TestErrorHandling:
    def test_malformed_json_exits_2(self, capsys):
        assert run_cli(capsys, "separable", "--alg", "{not json")[0] == 2

    def test_bad_algebra_exits_2(self, capsys):
        assert run_cli(capsys, "separable", "--alg", '{"finite":[0]}')[0] == 2

    def test_missing_flag_exits_2(self, capsys):
        assert run_cli(capsys, "pi0")[0] == 2

    def test_bad_term_exits_2(self, capsys):
        assert run_cli(capsys, "eval", "--alg", '{"finite":[2]}', "--term", "x +")[0] == 2

    def test_unknown_criterion_exits_2(self, capsys):
        assert run_cli(capsys, "verify", "nonsense")[0] == 2

    def test_invalid_topology_exits_2(self, capsys):
        assert run_cli(capsys, "pi0", "--space", '{"points":2,"opens":[[],[0]]}')[0] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--alg", '{"finite":[true,2]}'],
            ["eval", "--alg", '{"finite":[2]}', "--term", "x", "--env", '{"x":[true]}'],
            ["subterminal", "--alg", '{"rational":{"kind":"chain","n":true}}'],
        ],
        ids=["chain-order", "env-coordinate", "rational-chain"],
    )
    def test_json_boolean_for_a_number_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--alg", '{"rational":{"kind":"supernatural","primes":{},"all":"false"}}', "--elem", '"1/3"'],
            ["spec", "--alg", '{"finite":[2]}', "--elem", '["0.5"]'],
            ["spec", "--alg", '{"finite":[2]}', "--elem", '["1e-1"]'],
            ["spec", "--alg", '{"finite":[2]}', "--elem", '[" 1/2"]'],
            ["eval", "--alg", '{"finite":[2]}', "--term", "!" * 1000 + "x", "--env", '{"x":"1/2"}'],
            ["eval", "--alg", '{"finite":[2]}', "--term", "!" * 5000 + "x", "--env", '{"x":"1/2"}'],
            ["eval", "--alg", '{"finite":[2]}', "--term", "(" * 100 + "x" + ")" * 100, "--env", '{"x":"1/2"}'],
            ["eval", "--alg", '{"finite":[2]}', "--term", "x + " * 3000 + "x", "--env", '{"x":"1/2"}'],
            ["pi0", "--space", '{"points":2,"opens":[[],[-1],[0,1]]}'],
            ["pi0", "--space", '{"points":2,"opens":[[],[true],[0,1]]}'],
            ["pi0", "--space", '{"points":true,"opens":[[],[0]]}'],
            ["spec", "--alg", json.dumps({"finite": [1] * 17})],
            ["pierce", "--alg", json.dumps({"finite": [1] * 17})],
            ["rank", "--alg", '{"rational":{"kind":"supernatural","primes":{"4":1},"all":true}}', "--elem", '"1/3"'],
        ],
        ids=["all-a-string", "decimal", "exponent", "leading-space",
             "1000-negations", "5000-negations", "100-parentheses", "3000-sums",
             "negative-point", "boolean-point", "boolean-point-count",
             "spec-over-budget", "pierce-over-budget", "all-with-a-composite-key"],
    )
    def test_malformed_wire_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, suite",
        [
            (["pi0-products", "--max-size", "-1"], "pi0-products"),
            (["hom-oracle", "--max-size", "-1"], "hom-oracle"),
            (["product-split", "--max-size", "0"], "product-split"),
            (["product-split", "--max-size", "1"], "product-split"),
            (["hom-oracle", "product-split", "--max-size", "1"], "hom-oracle"),
            (["coproduct-universal", "--max-size", "40"], "coproduct-universal"),
            (["vanishing-locus", "--max-size", "16"], "vanishing-locus"),
            (["--all", "--max-size", "7"], "pi0-products"),
            (["subterminal", "vanishing-locus", "--max-size", "13"], "vanishing-locus"),
        ],
        ids=["pi0-products-negative", "hom-oracle-negative", "product-split-zero",
             "product-split-below-minimum", "hom-oracle-below-minimum",
             "coproduct-universal-40", "vanishing-locus-16", "all-7", "second-suite-13"],
    )
    def test_verify_size_out_of_range_exits_2_before_any_suite(self, capsys, argv, suite):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 2 and out == "" and err.startswith("error:") and suite in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    def test_verify_accepts_a_suite_at_its_exact_maximum(self, capsys, monkeypatch):
        # the subterminal sweep at its maximum takes seconds, so a stand-in
        # suite records the size the command passes on
        from mvalg import verify

        _, minimum, default, maximum = verify.CRITERIA["subterminal"]
        sizes = []

        def suite(size, seed):
            sizes.append(size)
            return "stand-in", {}

        monkeypatch.setitem(verify.CRITERIA, "subterminal", (suite, minimum, default, maximum))
        code, out, _ = run_cli(capsys, "verify", "subterminal", "--max-size", str(maximum))
        assert code == 0 and sizes == [maximum] and json.loads(out)["max_size"] == maximum

    @pytest.mark.parametrize(
        "argv",
        [
            ["rank", "--alg", '{"rational":{"kind":"chain","n":6}}', "--elem", '"1/1000000000000000003"'],
            ["rank", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":"inf"},"all":false}}',
             "--elem", '"1/1000000000000000003"'],
        ],
        ids=["chain-6", "two-infinite"],
    )
    def test_rational_non_member_with_a_large_prime_denominator_exits_2_at_once(self, capsys, argv):
        # membership divides the infinite primes out of the denominator; it
        # never factorizes 10^18 + 3
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "is not a member" in err and "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "key",
        ["1000000000000000003", "1000000000000000001", "3317044064679887385961981", "9" * 4000],
        ids=["prime-10^18+3", "composite-10^18+1", "the-primality-bound", "4000-digits"],
    )
    def test_large_prime_key_is_decided_at_once(self, capsys, key):
        # prime keys are checked by Miller-Rabin, not by trial division
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "decompose", "--alg", '{"rational":{"kind":"supernatural","primes":{"%s":1}}}' % key
        )
        assert code in (0, 2) and "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "--alg", '{"finite":[' + "9" * 5000 + "]}"],
            ["coproduct", "--alg", '{"finite":[2]}', "--alg", '{"finite":[' + "9" * 5000 + "]}"],
            ["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":20000},"all":false}}'],
            ["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":100000000000},"all":false}}'],
            ["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":"inf","3":100000000000},"all":false}}'],
            ["coproduct", "--alg", '{"rational":{"kind":"chain","n":%d}}' % 2**9000,
             "--alg", '{"rational":{"kind":"chain","n":%d}}' % 3**5000],
        ],
        ids=["5000-digit-order", "5000-digit-coproduct-summand", "chain-2^20000", "chain-2^10^11", "finite-caps-3^10^11",
             "coproduct-lcm-past-4300-digits"],
    )
    def test_oversized_integer_exits_2_at_once(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:") and "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv, code", digit_budget_rows(4300, 0) + digit_budget_rows(4301, 2))
    def test_integer_at_and_past_the_digit_budget_exits_0_or_2(self, capsys, argv, code):
        start = time.perf_counter()
        got, out, err = run_cli(capsys, *argv)
        assert (got, "Traceback" in err) == (code, False), err[:200]
        assert (out == "") == (code == 2) and (err.startswith("error:") if code else err == "")
        assert len(err) < 300  # a refusal quotes at most about 20 digits
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["spec", "--alg", '{"finite":[2]}', "--elem", json.dumps(["9" * 4300 + "/0"])],
            ["spec", "--alg", '{"finite":[2]}', "--elem", json.dumps(["9" * 4300 + "/x"])],
            ["spec", "--alg", '{"finite":[2]}', "--elem", json.dumps(["9" * 4300 + "/1"])],
            ["eval", "--alg", '{"finite":[2]}', "--term", "9" * 4300 + "/1"],
        ],
        ids=["element-zero-denominator", "element-malformed", "element-outside", "term-outside"],
    )
    def test_fraction_refusal_quotes_a_long_input_in_part(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert len(err) < 200

    @pytest.mark.parametrize("argv", LONG_REFUSALS.values(), ids=LONG_REFUSALS.keys())
    def test_refusal_of_a_long_value_is_one_short_line(self, capsys, argv):
        # each refusal quotes a malformed value of thousands of characters
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("error:")
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 300

    def test_a_bounded_refusal_keeps_its_start_and_its_end(self, capsys):
        _, _, err = run_cli(capsys, *LONG_REFUSALS["element-of-3000-coordinates"])
        assert err.startswith("error: (Fraction(1, 1), ") and " ... " in err
        assert err.endswith(" is not an element of FiniteMV([2])\n")

    def test_a_unicode_digit_in_a_term_exits_2(self, capsys):
        # "\u0661/\u0662" is 1/2 in Arabic-Indic digits; a numeral is ASCII digits
        code, out, err = run_cli(capsys, "eval", "--alg", '{"finite":[2]}', "--term", "\u0661/\u0662")
        assert code == 2 and out == "" and err.startswith("error: unexpected character")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--alg", '{"finite":[2]}', "--term", "x", "--env", '["1/2"]'], "environment must be an object"),
            (["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":[2]}}'], "bad primes table"),
            (["decompose", "--alg", '{"finite":2}'], "bad chain orders"),
            (["separable", "--alg", '{"product":{"kind":"chain","n":2}}'], "bad product"),
            (["gamma", "--alg", '{"simplicial":{"unit":3}}'], 'expected {"rank": r, "unit": [...]}'),
            (["eval", "--alg", '{"finite":[2]}'], "missing required --term"),
            (["rank", "--alg", '{"product":[{"kind":"chain","n":2},{"kind":"chain","n":3}]}', "--elem", '"1/2"'],
             "(Fraction(1, 2),) has 1 coordinates, ambient has 2"),
            (["pi0", "--space", '{"points":-1,"opens":[]}'], "negative point count"),
            (["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"2":1e400}}}'],
             "bad exponent inf for prime 2"),
            (["subterminal", "--alg", '{"rational":{"kind":"supernatural","primes":{"4":"x"}}}'], "4 is not prime"),
        ],
        ids=["environment-not-an-object", "primes-not-an-object", "orders-not-a-list", "product-not-a-list",
             "simplicial-shape", "eval-without-a-term", "rank-coordinate-count", "negative-point-count",
             "exponent-read-as-infinity", "bad-exponent-of-a-composite-key"],
    )
    def test_wire_shape_refusal_exits_2(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and err.startswith(f"error: {message}")

    def test_join_with_a_long_odd_order_next_to_an_infinite_prime_is_accepted_at_once(self, capsys):
        # 777...7 (4,000 digits) has no prime factor below 10^6 but 7 and is
        # odd, so the join keeps it whole as its order beside the prime 2
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "coproduct", "--alg", '{"rational":{"kind":"chain","n":%s}}' % ("7" * 4000),
            "--alg", '{"rational":{"kind":"supernatural","primes":{"2":"inf"},"all":false}}',
        )
        assert code == 0 and err == ""
        assert json.loads(out)["algebra"]["rational"] == {
            "kind": "supernatural", "primes": {"2": "inf"}, "n": int("7" * 4000), "all": False
        }
        assert time.perf_counter() - start < 1.0

    def test_join_with_a_long_smooth_order_is_accepted_at_once(self, capsys):
        # 999983^666 has 3,996 digits and only the largest prime below 10^6;
        # it is the order of the join, beside the prime 2
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys, "coproduct", "--alg", '{"rational":{"kind":"chain","n":%d}}' % 999983**666,
            "--alg", '{"rational":{"kind":"supernatural","primes":{"2":"inf"},"all":false}}',
        )
        assert code == 0
        assert out.startswith(
            '{\n  "algebra": {\n    "rational": {\n      "all": false,\n      "kind": "supernatural",\n'
            f'      "n": {999983**666},\n      "primes": {{\n        "2": "inf"\n      }}\n    }}\n  }},\n'
        )
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", HANG_REQUESTS,ids=["decompose-chain", "separable-finite", "separable-product"])
    def test_chain_order_with_no_small_factor_is_decided_at_once(self, capsys, argv):
        # a chain is stored as its order, so 10^18 + 3 is never factorized
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code in (0, 2) and "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["separable", "--alg", '{"finite":[%d]}' % (1000003 * 1000003)],
            ["rank", "--alg", '{"rational":{"kind":"chain","n":%d}}' % (2 * 1000003 * 1000033), "--elem", '"1/1000003"'],
            ["subterminal", "--alg", '{"rational":{"kind":"chain","n":%s}}' % ("7" * 4000)],
            ["separable", "--alg", json.dumps({"finite": [999983 * (10**18 + 3)] * 64})],
        ],
        ids=["a-square-above-the-bound", "two-primes-above-the-bound", "4000-digits", "64-orders-999983p"],
    )
    def test_chain_order_trial_division_cannot_factor_is_accepted_at_once(self, capsys, argv):
        # a chain is stored as its order, so no order is factorized
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and json.loads(out)["algebra"] == json.loads(argv[2])
        assert time.perf_counter() - start < 1.0

    def test_product_over_the_factor_budget_exits_2_before_any_factor_is_parsed(self, capsys, monkeypatch):
        from mvalg import formats

        def parse_rational(obj):
            raise AssertionError("a factor was parsed")

        monkeypatch.setattr(formats, "_parse_rational", parse_rational)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "separable", "--alg", large_prime_product(MAX_PRODUCT_FACTORS + 1))
        assert code == 2 and out == "" and err.startswith(f"error: a product of {MAX_PRODUCT_FACTORS + 1} factors")
        assert time.perf_counter() - start < 1.0

    def test_product_at_the_factor_budget_is_accepted_in_under_a_second(self, capsys):
        assert MAX_PRODUCT_FACTORS == 16 == len(set(LARGE_PRIMES))
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "separable", "--alg", large_prime_product(MAX_PRODUCT_FACTORS))
        assert code == 0 and [f["rational"]["n"] for f in json.loads(out)["factors"]] == LARGE_PRIMES
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("orders", SEPARABLE_64, ids=["one-prime-64-times", "64-primes", "64-twice-a-prime"])
    def test_separable_on_64_large_chain_orders_is_accepted_in_under_a_second(self, capsys, orders):
        assert len(set(PRIMES_64)) == 64
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "separable", "--alg", json.dumps({"finite": orders}))
        assert code == 0 and [f["rational"]["n"] for f in json.loads(out)["factors"]] == orders
        assert time.perf_counter() - start < 1.0

    def test_subterminal_on_2000_components_is_read_off_the_orders(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, *SUBTERMINAL_2000)
        assert code == 0 and json.loads(out)["subterminal"] is False
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "primes",
        ['{" 2":1}', '{"+2":1}', '{"02":1}', '{"2_0":1}', '{"\u0662":1}', '{"0":1}', '{"2":1,"02":2}'],
        ids=["leading-space", "plus-sign", "leading-zero", "underscore", "arabic-indic-digit", "zero", "duplicate"],
    )
    def test_prime_key_must_be_plain_digits(self, capsys, primes):
        alg = '{"rational":{"kind":"supernatural","primes":%s,"all":false}}' % primes
        code, out, err = run_cli(capsys, "rank", "--alg", alg, "--elem", '"1/2"')
        assert code == 2 and out == "" and err.startswith("error: bad prime")

    @pytest.mark.parametrize(
        "argv",
        [
            ["separable", "--alg", json.dumps({"finite": [2] * 65})],
            ["separable", "--alg", json.dumps({"finite": [2] * 300})],
            ["coproduct", "--alg", json.dumps({"finite": [2] * 65}), "--alg", json.dumps({"finite": [3] * 64})],
            ["coproduct", "--alg", json.dumps({"finite": [2] * 3000}), "--alg", json.dumps({"finite": [2] * 3000})],
        ],
        ids=["separable-65", "separable-300", "coproduct-65x64", "coproduct-3000x3000"],
    )
    def test_coproduct_over_the_component_budget_exits_2_at_once(self, capsys, argv):
        # the budget is checked from k_A * k_B before A + B is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "components" in err and "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    def test_coproduct_at_the_component_budget_is_accepted(self, capsys):
        a = json.dumps({"finite": [2] * 64})
        assert 64 * 64 == MAX_COPRODUCT_COMPONENTS
        code, out, _ = run_cli(capsys, "coproduct", "--alg", a, "--alg", a)
        assert code == 0 and json.loads(out)["algebra"] == {"finite": [2] * MAX_COPRODUCT_COMPONENTS}

    def test_internal_error_exits_3_without_a_traceback(self, capsys, monkeypatch):
        from mvalg import cli

        def broken(args):
            raise RuntimeError("planted defect")

        monkeypatch.setitem(cli.HANDLERS, "decompose", broken)
        code, out, err = run_cli(capsys, "decompose", "--alg", '{"finite":[2]}')
        assert (code, out, err) == (3, "", "internal error: RuntimeError: planted defect\n")

    @pytest.mark.parametrize("target", ["emit", "write"])
    def test_failure_while_writing_the_report_exits_3(self, capsys, monkeypatch, target):
        from mvalg import cli

        class BrokenStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError("reader went away")

        def emit(args, payload):
            raise MemoryError

        if target == "emit":
            monkeypatch.setattr(cli, "_emit", emit)
        else:
            monkeypatch.setattr(sys, "stdout", BrokenStdout())
        code = main(["decompose", "--alg", '{"finite":[2]}'])
        out, err = capsys.readouterr()
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        assert err.startswith(f"internal error: {'MemoryError' if target == 'emit' else 'BrokenPipeError'}")

    def test_exception_inside_a_suite_exits_1_not_3(self, capsys, monkeypatch):
        # a suite that raises found a defect in the code under test: a FAIL
        # report, not an internal error of the command
        from mvalg import verify

        _, minimum, default, maximum = verify.CRITERIA["subterminal"]

        def suite(size, seed):
            raise RuntimeError("planted defect")

        monkeypatch.setitem(verify.CRITERIA, "subterminal", (suite, minimum, default, maximum))
        code, out, err = run_cli(capsys, "verify", "subterminal")
        payload = json.loads(out)
        report = payload["criteria"][0]
        assert code == 1 and err == "" and payload["all_passed"] is False and report["passed"] is False
        assert "RuntimeError" in report["summary"] and "planted defect" in report["summary"]

    def test_huge_point_count_is_rejected_at_once(self, capsys):
        # the missing full set is found from the input alone, before any
        # mask over the 10^9 points is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "pi0", "--space", '{"points":1000000000,"opens":[[]]}')
        assert code == 2 and out == "" and "full set" in err
        assert time.perf_counter() - start < 1.0


# the JSON leaf values (numbers, strings, booleans) of a report on k
# components, which the command predicts before any work
PREDICTED_LEAVES = {
    "pierce": lambda k: k * 2**k + k + 2,
    "spec": lambda k: k * 2**k // 2 + 2 * k + 2,
    "decompose": lambda k: k * k + 4 * k + 1,
}
DECOMPOSE_LIMIT = 1046  # the most components decompose accepts


def _leaves(value) -> int:
    if isinstance(value, dict):
        return sum(_leaves(v) for v in value.values())
    if isinstance(value, list):
        return sum(_leaves(v) for v in value)
    return 1


def _run_in_512_mb(argv):
    """``mvalg <argv>`` in a child process whose address space alone is
    capped at 512 MB."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    return subprocess.run(
        [sys.executable, "-m", "mvalg", *argv], capture_output=True, text=True, timeout=60, preexec_fn=cap
    )


class TestResponseBudget:
    @pytest.mark.parametrize("command", PREDICTED_LEAVES)
    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_predicted_size_is_the_size_of_the_report(self, capsys, command, k):
        code, out, _ = run_cli(capsys, command, "--alg", json.dumps({"finite": [2, 3, 4, 5, 6][:k]}))
        assert code == 0 and _leaves(json.loads(out)) == PREDICTED_LEAVES[command](k)

    def test_budget_keeps_the_component_limits(self):
        for command, limit in [("pierce", 16), ("spec", 16), ("decompose", DECOMPOSE_LIMIT)]:
            leaves = PREDICTED_LEAVES[command]
            assert leaves(limit) <= MAX_RESPONSE_LEAVES < leaves(limit + 1), command

    @pytest.mark.parametrize(
        "orders, code",
        [
            ([2] * DECOMPOSE_LIMIT, 0),
            ([2] * (DECOMPOSE_LIMIT + 1), 2),
            ([2] * 8000, 2),
            (list(range(1, 20001)), 2),
        ],
        ids=["at-the-limit", "one-past-the-limit", "8000-components", "orders-1-to-20000"],
    )
    def test_decompose_at_and_past_its_limit_in_512_mb(self, orders, code):
        proc = _run_in_512_mb(["decompose", "--alg", json.dumps({"finite": orders})])
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code == 0:
            assert len(json.loads(proc.stdout)["projections"]) == DECOMPOSE_LIMIT
        else:
            assert proc.stdout == "" and proc.stderr.startswith("error: decompose on ")

    @pytest.mark.parametrize("command", ["pierce", "spec"])
    @pytest.mark.parametrize("k, code", [(16, 0), (17, 2)], ids=["at-the-limit", "one-past-the-limit"])
    def test_listing_commands_at_and_past_their_limit_in_512_mb(self, command, k, code):
        proc = _run_in_512_mb([command, "--alg", json.dumps({"finite": [2] * k})])
        assert proc.returncode == code and "Traceback" not in proc.stderr
        if code == 0:
            assert _leaves(json.loads(proc.stdout)) == PREDICTED_LEAVES[command](k)
        else:
            assert proc.stdout == "" and proc.stderr.startswith(f"error: {command} on 17 components")


class TestDeterminism:
    def test_byte_identical_runs(self):
        cmd = [
            sys.executable,
            "-m",
            "mvalg",
            "verify",
            "subterminal",
            "pierce-coproducts",
            "--max-size",
            "3",
            "--seed",
            "7",
        ]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout

    def test_console_reports_violation_exit_code(self):
        # exit 0 on success for the module entry point
        result = subprocess.run(
            [sys.executable, "-m", "mvalg", "separable", "--alg", '{"finite":[2]}'],
            capture_output=True,
        )
        assert result.returncode == 0


# -- the exit-code contract under generated input -------------------------------------
#
# Every command gets each of its flags as the JSON of a generated value, as
# raw text (mostly malformed JSON), or not at all.  The values mix the shapes
# the wire formats expect with arbitrary JSON, and include integers of up to
# 41 digits and orders with no small prime factor.

_INTS = st.one_of(
    st.integers(1, 12),
    st.integers(-2, 13),
    st.integers(-(10**40), 10**40),
    st.sampled_from([10**18 + 3, 1000003 * 1000033, 2**89 - 1, 2**64]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _INTS, st.floats(allow_nan=False), st.text(max_size=6))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
_FRACTIONS = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/3", "2/3", "1/6", "1/1000000000000000003"]),
    st.from_regex(r"[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True),
    _SCALARS,
)
_PRIME_KEYS = st.sampled_from(["2", "3", "5", "1000000000000000003", "02", "+2", "4"]) | st.text(max_size=3)
_RATIONALS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("chain"), "n": _INTS}),
    st.fixed_dictionaries({
        "kind": st.just("supernatural"),
        "primes": st.dictionaries(_PRIME_KEYS, st.just("inf") | _INTS, max_size=3),
        "all": _SCALARS,
    }),
    _JSON,
)
_ORDERS = st.lists(_INTS, max_size=8)
_ALGEBRAS = st.one_of(
    st.lists(st.integers(1, 12), max_size=4).map(lambda orders: {"finite": orders}),
    _ORDERS.map(lambda orders: {"finite": orders}),
    _RATIONALS.map(lambda r: {"rational": r}),
    st.lists(_RATIONALS, max_size=3).map(lambda rs: {"product": rs}),
    st.tuples(_INTS, _ORDERS).map(lambda ru: {"simplicial": {"rank": ru[0], "unit": ru[1]}}),
    _JSON,
)
_ELEMENTS = st.one_of(st.lists(_FRACTIONS, max_size=8), _FRACTIONS, _JSON)
_ENVS = st.dictionaries(st.sampled_from(["x", "y", "v"]), _ELEMENTS, max_size=3) | _JSON
_SPACES = st.fixed_dictionaries({"points": _INTS, "opens": st.lists(st.lists(_INTS, max_size=5), max_size=8)}) | _JSON
_TERMS = st.text(alphabet="xyv01/23!+*^() ", max_size=40) | st.recursive(
    st.sampled_from(["x", "y", "0", "1", "1/2", "1/3"]),
    lambda inner: inner.map(lambda t: f"!{t}") | st.tuples(inner, st.sampled_from("v^+*"), inner).map(" ".join),
    max_leaves=8,
)

FLAGS = {  # command -> its flags and the values they take
    "eval": [("alg", _ALGEBRAS), ("term", _TERMS), ("env", _ENVS)],
    "decompose": [("alg", _ALGEBRAS)],
    "pierce": [("alg", _ALGEBRAS)],
    "coproduct": [("alg", _ALGEBRAS), ("alg", _ALGEBRAS)],
    "separable": [("alg", _ALGEBRAS)],
    "subterminal": [("alg", _ALGEBRAS)],
    "spec": [("alg", _ALGEBRAS), ("elem", _ELEMENTS)],
    "rank": [("alg", _ALGEBRAS), ("elem", _ELEMENTS)],
    "pi0": [("space", _SPACES)],
    "gamma": [("alg", _ALGEBRAS)],
}


def _flag(name, values):
    """``--name=VALUE`` (so a value may start with '-') with a generated
    value three times in five, else with raw text or left out."""
    text = values if name == "term" else values.map(json.dumps)
    flag = st.one_of(text, text, text, st.text(max_size=12)).map(lambda value: [f"--{name}={value}"])
    return st.one_of(flag, flag, flag, flag, st.just([]))


# verify runs only these suites, at sizes up to 3, where each takes well
# under 0.1 s; every other verify request must be refused before a suite runs
_CHEAP_SUITES = ["subterminal", "simplicial-roundtrip", "separability", "pierce-coproducts"]
_UNKNOWN_SUITES = st.from_regex(r"[a-z][a-z0-9-]{0,12}", fullmatch=True).filter(lambda name: name not in CRITERIA)
_LARGEST_SIZE = max(maximum for _, _, _, maximum in CRITERIA.values())


def _not_an_int(text):
    try:
        int(text)
    except ValueError:
        return True
    return False


# no suite accepts these: below every minimum, above every maximum, or not an
# integer at all (argparse's usage error)
_BAD_SIZES = st.one_of(
    st.integers(max_value=0).map(str),
    st.integers(min_value=_LARGEST_SIZE + 1).map(str),
    st.text(max_size=4).filter(_not_an_int),
)


def _mostly(valid, junk):
    """Draws from valid three times in four, else from junk."""
    return st.sampled_from([valid, valid, valid, junk]).flatmap(lambda values: values)


_SEEDS = _mostly(st.integers(-(10**6), 10**6).map(str), st.text(max_size=4))  # junk: argparse's usage error


@st.composite
def _verify_requests(draw):
    """verify with known and unknown names, with sizes in range, out of range
    or not integers, and with seeds."""
    case = draw(st.sampled_from(["run", "run", "bad-size", "unknown-name"]))
    if case == "run":
        names = draw(st.lists(st.sampled_from(_CHEAP_SUITES), min_size=1, max_size=2, unique=True))
        size = str(draw(st.integers(1, 3)))
    else:
        names = draw(st.lists(st.sampled_from(sorted(CRITERIA)) | _UNKNOWN_SUITES, max_size=2))
        if case == "bad-size":
            names += draw(st.sampled_from([[], ["--all"]]))
            size = draw(_BAD_SIZES)
        else:
            names.insert(draw(st.integers(0, len(names))), draw(_UNKNOWN_SUITES))
            size = draw(st.none() | st.integers(-3, _LARGEST_SIZE + 3).map(str))
    seed = draw(st.none() | _SEEDS)
    argv = ["verify", *names] + ([] if size is None else [f"--max-size={size}"])
    return argv + ([] if seed is None else [f"--seed={seed}"])


# the format flag: absent, json or text, else junk (argparse's usage error)
_FORMATS = _mostly(
    st.sampled_from([[], ["--format=json"], ["--format=text"]]),
    st.text(max_size=5).map(lambda junk: [f"--format={junk}"]),
)


def _with_format(requests):
    return st.tuples(requests, _FORMATS).map(lambda request: request[0] + request[1])


_REQUESTS = _with_format(
    st.sampled_from(sorted(FLAGS)).flatmap(
        lambda command: st.tuples(*(_flag(name, values) for name, values in FLAGS[command])).map(
            lambda flags: [command] + [arg for flag in flags for arg in flag]
        )
    )
)
_VERIFY_REQUESTS = _with_format(_verify_requests())


class _Hang(Exception):
    pass


def _stop(signum, frame):
    raise _Hang("request still running after 5 s")


class TestExitCodeContract:
    @settings(max_examples=300, derandomize=True, database=None, deadline=timedelta(seconds=2))
    @given(_REQUESTS)
    @example(HANG_REQUESTS[0])
    @example(HANG_REQUESTS[1])
    @example(HANG_REQUESTS[2])
    @example(SUBTERMINAL_2000)
    @example(["separable", "--alg", large_prime_product(200)])
    @example(["decompose", "--alg", json.dumps({"finite": [2] * 8000})])
    def test_generated_request_exits_0_with_json_or_2_with_an_error(self, argv):
        _check_contract(argv)

    @settings(max_examples=100, derandomize=True, database=None, deadline=timedelta(seconds=2))
    @given(_VERIFY_REQUESTS)
    def test_generated_verify_request_exits_0_or_2(self, argv):
        _check_contract(argv)


def _check_contract(argv):
    """Exit 0 with output (JSON unless text was asked for), or exit 2 with
    an error line and no output; never a traceback or a hang."""
    # a hang surfaces as exit 3: main reports the _Hang the alarm raises
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _stop)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    usage_error = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse refuses the flags before main runs a command
        code, usage_error = exc.code, True
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 0:
        assert not usage_error and out.strip()
        if "--format=text" not in argv:
            json.loads(out)
    elif usage_error:
        assert out == "" and err.startswith("usage: mvalg") and ": error: " in err
    else:
        assert out == "" and err.startswith("error: ")
