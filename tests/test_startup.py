"""Start-up: a ``mvalg`` process imports only the modules its command runs.

The package imports its submodules on first use, each CLI handler imports
its computing modules itself, and the value classes are ``__slots__``
records on one base instead of dataclasses.  The import checks run in fresh
interpreters; the record checks run in process.
"""

import copy
import json
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import mvalg
from mvalg import algebras, coproducts, lgroups, pierce, rationals, terms, topology, verify
from mvalg.records import Record

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

# Runs mvalg.cli.main on sys.argv[1:] with its output discarded, then prints
# the exit code and the mvalg submodules and stdlib modules of interest it
# loaded, as one JSON line on stderr.
LOADED_AFTER_COMMAND = """
import contextlib, io, json, sys
from mvalg.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
mods = sorted(m[len("mvalg."):] for m in sys.modules if m.startswith("mvalg."))
print(json.dumps({"code": code, "mvalg": mods, "dataclasses": "dataclasses" in sys.modules}), file=sys.stderr)
"""


def loaded_modules(code: str, *argv: str) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True, env=ENV, check=True)
    return json.loads(proc.stderr.splitlines()[-1])


def loaded_after_import(module: str) -> dict:
    return loaded_modules(
        f"import json, sys, {module}\n"
        "mods = sorted(m[len('mvalg.'):] for m in sys.modules if m.startswith('mvalg.'))\n"
        "print(json.dumps({'mvalg': mods, 'dataclasses': 'dataclasses' in sys.modules}), file=sys.stderr)"
    )


START_UP = ["algebras", "cli", "formats", "lgroups", "rationals", "records", "topology"]


def test_import_mvalg_loads_no_submodule():
    assert loaded_after_import("mvalg") == {"mvalg": [], "dataclasses": False}


def test_import_cli_loads_only_the_wire_layer_and_its_types():
    assert loaded_after_import("mvalg.cli") == {"mvalg": START_UP, "dataclasses": False}


FINITE = '{"finite":[2,3]}'
COMMANDS = {  # command -> (argv, the modules it loads beyond START_UP)
    "eval": (["eval", "--alg", FINITE, "--term", "x + y", "--env", '{"x":["1/2","1/3"],"y":"1"}'], ["terms"]),
    "decompose": (["decompose", "--alg", FINITE], ["pierce"]),
    "pierce": (["pierce", "--alg", FINITE], ["pierce"]),
    "coproduct": (["coproduct", "--alg", FINITE, "--alg", FINITE], ["coproducts", "pierce"]),
    "separable": (["separable", "--alg", FINITE], ["coproducts", "pierce"]),
    "subterminal": (["subterminal", "--alg", FINITE], ["coproducts", "pierce"]),
    "spec": (["spec", "--alg", FINITE, "--elem", '["1","0"]'], ["pierce"]),
    "rank": (["rank", "--alg", FINITE, "--elem", '["1/2","1/3"]'], ["terms"]),
    "pi0": (["pi0", "--space", '{"points":2,"opens":[[],[0],[0,1]]}'], []),
    "gamma": (["gamma", "--alg", FINITE], []),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_loads_only_what_it_runs(command):
    argv, extra = COMMANDS[command]
    loaded = loaded_modules(LOADED_AFTER_COMMAND, *argv)
    assert loaded == {"code": 0, "mvalg": sorted(START_UP + extra), "dataclasses": False}


def test_verify_loads_the_suites():
    loaded = loaded_modules(LOADED_AFTER_COMMAND, "verify", "subterminal", "--max-size", "2")
    assert loaded["code"] == 0 and {"verify", "oracles"} <= set(loaded["mvalg"])
    assert loaded["dataclasses"] is False


def test_malformed_term_exits_2_without_a_traceback():
    proc = subprocess.run(
        [sys.executable, "-m", "mvalg", "eval", "--alg", '{"finite":[2]}', "--term", "x + "],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: unexpected end of input") and "Traceback" not in proc.stderr


# -- the lazy package ----------------------------------------------------------------

PUBLIC_NAMES = """
    AlgebraError BooleanSkeleton CoproductResult Decomposition Element FinSpace
    FiniteMV Hom INF Ideal OrderRank ParseError Pi0Result ProductSplit
    RationalAlgebra SeparabilityCertificate SeparabilityResult SimplicialGroup
    Subalgebra Term TermError TopologyError algebras boolean_skeleton chi
    chinese_boolean components coproduct_finite coproduct_rational coproducts
    decompose enumerate_homs eval_term gamma gamma_compare gelfand_transform
    generated_subalgebra holder_embed is_boolean is_boolean_via_primes is_separable
    is_simple is_subterminal_epic join leq lgroups localize meet neg odot oplus order_rank
    parse_term phi pi0 pierce product_space
    product_split product_unital quotient_by_ideal radical rationals
    separability_witness spectrum spectrum_space support term_to_str terms topology
    vanishing_locus xi
""".split()


def test_all_lists_the_public_names():
    assert len(PUBLIC_NAMES) == 71
    assert mvalg.__all__ == sorted(PUBLIC_NAMES)
    assert set(mvalg.__all__) <= set(dir(mvalg))


@pytest.mark.parametrize("name", PUBLIC_NAMES)
def test_public_name_is_the_submodule_binding(name):
    value = getattr(mvalg, name)
    if name in mvalg._EXPORTS:
        assert value is sys.modules[f"mvalg.{name}"]
    else:
        assert value is getattr(getattr(mvalg, mvalg._SUBMODULE[name]), name)
    assert vars(mvalg)[name] is value  # bound in the package after first use


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        mvalg.no_such_name  # noqa: B018


def test_term_errors_are_shared_with_algebras():
    assert terms.TermError is algebras.TermError and terms.ParseError is algebras.ParseError
    assert issubclass(terms.ParseError, terms.TermError)


# -- the records -----------------------------------------------------------------------

A = algebras.FiniteMV([2, 3])
SPACE = topology.FinSpace.from_sets(3, [[], [0], [0, 1], [0, 1, 2]])
HALF = Fraction(1, 2)

RECORDS = [  # one instance of every record class, built through the library
    A,
    algebras.Hom.identity(A),
    algebras.Ideal(A, [1]),
    algebras.product_split(A, A.atom(0)),
    coproducts.coproduct_finite(A, A),
    coproducts.separability_witness(A),
    coproducts.is_separable(A),
    lgroups.SimplicialGroup([2, 3]),
    pierce.boolean_skeleton(A),
    pierce.decompose(A),
    rationals.RationalAlgebra.chain(6),
    rationals.RationalAlgebra.full(),
    rationals.RationalAlgebra.supernatural({2: rationals.INF, 3: 1}),
    terms.Const(Fraction(0)),
    terms.Const(Fraction(1)),
    terms.Const(HALF),
    terms.Var("x"),
    terms.Neg(terms.Var("x")),
    terms.Oplus(terms.Var("x"), terms.Const(Fraction(1))),
    terms.Odot(terms.Var("x"), terms.Const(Fraction(1))),
    terms.Meet(terms.Var("x"), terms.Const(Fraction(1))),
    terms.Join(terms.Var("x"), terms.Const(Fraction(1))),
    terms.generated_subalgebra(A, [A.element(["1/2", "1/3"])]),
    terms.order_rank(A, A.element(["1/2", "1/3"])),
    SPACE,
    topology.pi0(SPACE),
    topology.gamma_compare(SPACE, SPACE),
    verify.run_criterion("subterminal", size=2),
]


def fields(record) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


RECORD_CLASSES = {
    cls
    for module in (algebras, coproducts, lgroups, pierce, rationals, terms, topology, verify)
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, Record) and cls.__module__ == module.__name__
}


def test_every_record_class_is_covered():
    abstract = {terms.Term, terms._BinaryTerm}
    assert RECORD_CLASSES - abstract == {type(r) for r in RECORDS}


def test_only_the_validating_classes_write_their_own_constructor():
    written = {cls for cls in RECORD_CLASSES if cls.__init__ is not cls._init}
    assert written == {algebras.FiniteMV, algebras.Hom, algebras.Ideal, lgroups.SimplicialGroup}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    cls = type(record)
    twin = cls.__new__(cls)
    for name, value in zip(cls._fields, fields(record)):
        object.__setattr__(twin, name, value)
    assert record == twin and not record != twin
    try:
        expected = hash(fields(record))
    except TypeError:  # a field is unhashable (CriterionReport holds a dict)
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin) == expected
    assert all(record.__eq__(other) is NotImplemented for other in RECORDS if type(other) is not cls)
    assert not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0] if cls._fields else "anything", None)
    if cls._fields:
        with pytest.raises(AttributeError):
            delattr(record, cls._fields[0])
    assert copy.copy(record) == record and pickle.loads(pickle.dumps(record)) == record
    assert cls._make(*fields(record)) == record


def test_records_print_like_dataclasses():
    assert repr(terms.Oplus(terms.Var("x"), terms.Const(HALF))) == (
        "Oplus(left=Var(name='x'), right=Const(value=Fraction(1, 2)))"
    )
    assert repr(terms.Const(Fraction(0))) == "Const(value=Fraction(0, 1))"
    assert repr(topology.pi0(SPACE)) == (
        "Pi0Result(space=FinSpace(points=1, nbhds=(1,)), class_of=(0, 0, 0))"
    )
    # a class's own __repr__ wins
    assert repr(A) == "FiniteMV([2, 3])" and repr(rationals.RationalAlgebra.chain(6)) == "RationalAlgebra(chain 6)"


def test_records_of_different_classes_differ():
    x, one = terms.Var("x"), terms.Const(Fraction(1))
    assert terms.Oplus(x, one) != terms.Odot(x, one)
    assert hash(terms.Oplus(x, one)) == hash(terms.Odot(x, one)) == hash((x, one))


def test_positional_construction_checks_the_arity():
    assert topology.Pi0Result(SPACE, (0, 0, 0)).class_of == (0, 0, 0)
    with pytest.raises(TypeError):
        topology.Pi0Result(SPACE)
    with pytest.raises(TypeError):
        topology.Pi0Result(SPACE, (0, 0, 0), 3)
    with pytest.raises(TypeError):  # positional only: no keywords
        topology.Pi0Result(space=SPACE, class_of=(0, 0, 0))


def test_subalgebras_with_different_generators_are_equal_and_hash_equal():
    sub = terms.generated_subalgebra(A, [A.element(["1/2", "0"])])
    same = terms.generated_subalgebra(A, [A.element(["1/2", "0"]), A.zero()])
    assert sub == same and hash(sub) == hash(same)
    rank = terms.order_rank(A, A.element(["1/2", "0"]))
    assert rank.subalgebra == sub and rank in {terms.order_rank(A, A.element(["1/2", "0"]))}
    with pytest.raises(AttributeError):
        sub.orders = ()


def test_record_class_must_declare_slots():
    with pytest.raises(TypeError):
        type("Loose", (Record,), {})
