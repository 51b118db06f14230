"""Import contract: each CLI command loads only the modules on its own
path, the package exports its names on first access, and a value set on
``plogic.cli`` in place of a library name is the one the commands call."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plogic
import plogic.cli as cli

SUBMODULES = ("classical", "density", "errors", "formulas", "measures", "parsing",
              "proofs", "qnumbers", "synthesis", "trials")

#: The package's public names, as they stood when every submodule was
#: imported eagerly.
PUBLIC = sorted([
    "And", "Atom", "AtomOutOfRangeError", "AtomRef", "Axiom", "BFunction",
    "CheckReport", "Classification", "CofiniteSet", "CompleteSet",
    "DEFAULT_HORIZON", "Deduction", "DistributionError", "DuplicateMintermError",
    "EmptyRangeError", "EventuallyPeriodicSet", "Favorability", "FiniteSet",
    "FormulaSyntaxError", "Hypothesis", "INFINITE", "Implies", "IndexSet",
    "InvalidArgumentError", "Justification", "MixedMemberError", "ModusPonens",
    "NO", "NegativeMassError", "Not", "NotCompleteError", "NotDerivableError",
    "NotTautologyError", "OpaqueSet", "Or", "PairRelation", "ParsedFormula",
    "PlogicError", "ProofFormatError", "QNumber", "RangeSpec",
    "ReciprocalOfInfinitesimalOrZeroError", "Sentence", "SumNotOneError",
    "TestSequence", "TooManyAtomsError", "UnsatisfiableMemberError", "Valuation",
    "Verdict", "WidthMismatchError", "YES", "ZeroConditionError",
    "all_valuations", "as_implication", "atom_ids", "atoms_of", "b_eval",
    "check_complete", "check_deduction", "classical", "classical_probability",
    "classify_favorability", "classify_pair", "complement", "condition",
    "conditional_prob", "cycle", "density", "dump_distribution", "empty_set",
    "enumerate_series", "errors", "evaluate", "evens", "filter_membership",
    "format_proof", "format_sentence", "formulas", "from_function",
    "from_predicate", "from_valuation", "harmonic", "infinitely_close",
    "instantiate", "intersect", "invertible", "is_axiom_instance", "is_derivable",
    "is_p_function", "is_tautology", "is_unsatisfiable", "lln_bound",
    "load_distribution", "match_schema", "measures", "naturals",
    "opaque_skeleton", "parse_formula", "parse_proof", "parsing",
    "part_frequency", "point_prob", "product_bfunction", "proofs", "q_classify",
    "q_equal", "q_less", "q_lift", "qnumbers", "ramp", "range_prob",
    "reciprocal", "semantic_equal", "simulate_frequencies", "standard",
    "substitute_atoms", "synthesis", "synthesize_proof", "t_disjunction",
    "t_range", "trials", "truth_table",
])


def _loaded_after(argv, extra_code=""):
    """The ``plogic`` modules in a fresh interpreter after ``plogic.cli.run(argv)``."""
    src = str(Path(plogic.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import json, sys\n" + extra_code +
            "import plogic.cli\n"
            f"report = plogic.cli.run({argv!r})\n"
            "assert report.ok, report.lines\n"
            "print(json.dumps(sorted(m for m in sys.modules"
            " if m == 'plogic' or m.startswith('plogic.'))))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1]  # after any text the command prints
    return {m.removeprefix("plogic.") for m in json.loads(last)}


EVAL_SET = {"plogic", "cli", "errors", "formulas", "parsing"}


class TestCommandImports:
    def test_eval(self):
        assert _loaded_after(["eval", "A & B", "--world", "10"]) == EVAL_SET

    def test_prob(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("11 1/2\n00 1/2\n")
        assert _loaded_after(["prob", "A & B", "--dist", str(dist)]) == \
            EVAL_SET | {"measures"}

    def test_prove(self):
        assert _loaded_after(["prove", "A -> A"]) == EVAL_SET | {"proofs", "synthesis"}

    def test_bernoulli(self):
        loaded = _loaded_after(["bernoulli", "--r", "10", "--p", "1/2"])
        assert {"trials", "measures", "formulas", "errors"} <= loaded
        assert not loaded & {"qnumbers", "density", "synthesis"}

    def test_qnum(self):
        loaded = _loaded_after(["qnum", "lt", "recip-n", ",", "lin"])
        assert {"density", "qnumbers"} <= loaded
        assert not loaded & {"trials", "measures", "proofs", "synthesis"}

    def test_help_imports_no_library_module(self):
        assert _loaded_after(["--help"]) == {"plogic", "cli", "errors"}

    def test_package_import_loads_no_submodule(self):
        # `import plogic.cli` loads cli and errors; `plogic` alone loads neither.
        code = ("import plogic\n"
                "assert [m for m in sys.modules if m.startswith('plogic.')] == []\n")
        assert _loaded_after(["taut", "A | !A"], extra_code=code) == EVAL_SET


class TestPackageApi:
    def test_all_is_unchanged(self):
        assert sorted(plogic.__all__) == PUBLIC
        assert len(PUBLIC) == 122

    def test_each_name_is_its_submodule_object(self):
        for name in PUBLIC:
            value = getattr(plogic, name)
            if name in SUBMODULES:
                assert value is importlib.import_module(f"plogic.{name}")
                continue
            homes = [m for m in SUBMODULES if name in vars(getattr(plogic, m))]
            assert homes, name
            assert all(vars(getattr(plogic, m))[name] is value for m in homes), name
            defined_in = getattr(value, "__module__", None)
            if isinstance(defined_in, str) and defined_in.startswith("plogic."):
                assert vars(sys.modules[defined_in])[name] is value, name

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from plogic import *", namespace)
        assert set(PUBLIC) <= set(namespace)
        assert namespace["BFunction"] is plogic.measures.BFunction

    def test_from_import(self):
        from plogic import DEFAULT_HORIZON, parse_formula, qnumbers
        assert parse_formula is plogic.parsing.parse_formula
        assert qnumbers is plogic.qnumbers
        assert DEFAULT_HORIZON == plogic.density.DEFAULT_HORIZON

    def test_dir_lists_every_name(self):
        listed = dir(plogic)
        assert "__all__" in listed
        assert set(PUBLIC) <= set(listed)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError):
            plogic.nope
        assert not hasattr(plogic, "nope")


class _Counting:
    """A module stand-in that counts calls to its functions."""

    def __init__(self, module):
        self.module = module
        self.calls = []

    def __getattr__(self, name):
        value = getattr(self.module, name)
        if not callable(value):
            return value

        def counted(*args, **kwargs):
            self.calls.append(name)
            return value(*args, **kwargs)
        return counted


class TestCliAttributes:
    def test_module_names(self):
        for name in ("measures", "trials", "density", "qnumbers"):
            assert getattr(cli, name) is getattr(plogic, name)
        assert cli.classical_mod is plogic.classical

    def test_function_names(self):
        assert hasattr(cli, "synthesize_proof")
        assert cli.parse_formula is plogic.parse_formula
        assert not hasattr(cli, "truth_table")
        with pytest.raises(AttributeError):
            cli.nope

    def test_a_value_set_on_cli_is_the_one_run_calls(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("11 1/2\n00 1/2\n")
        saved = cli.measures
        stand_in = _Counting(saved)
        cli.measures = stand_in
        try:
            report = cli.run(["prob", "A & B", "--dist", str(dist)])
        finally:
            cli.measures = saved
        assert report.ok and report.lines[0].startswith("1/2 ")
        assert stand_in.calls == ["load_distribution", "b_eval"]
        assert cli.measures is plogic.measures

    def test_a_function_set_on_cli_is_the_one_run_calls(self):
        saved = cli.is_tautology
        calls = []

        def counted(sentence):
            calls.append(sentence)
            return saved(sentence)
        cli.is_tautology = counted
        try:
            report = cli.run(["taut", "A | !A"])
        finally:
            cli.is_tautology = saved
        assert report.lines == ["tautology: yes"]
        assert len(calls) == 1
