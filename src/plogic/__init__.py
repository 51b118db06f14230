"""Probability-valued propositional logic with exact rational arithmetic.

Every public name is read from its defining submodule on first access
(PEP 562), so importing the package imports none of them: a program pays
only for the submodules it uses."""

from importlib import import_module as _import_module

#: Each submodule and the public names it defines.
_EXPORTS = {
    "errors": (
        "AtomOutOfRangeError", "DistributionError", "DuplicateMintermError",
        "EmptyRangeError", "FormulaSyntaxError", "InvalidArgumentError",
        "MixedMemberError", "NegativeMassError", "NotCompleteError",
        "NotDerivableError", "NotTautologyError", "PlogicError", "ProofFormatError",
        "ReciprocalOfInfinitesimalOrZeroError", "SumNotOneError",
        "TooManyAtomsError", "UnsatisfiableMemberError", "WidthMismatchError",
        "ZeroConditionError"),
    "formulas": (
        "And", "Atom", "AtomRef", "Implies", "Not", "Or", "Sentence", "Valuation",
        "all_valuations", "as_implication", "atom_ids", "atoms_of", "evaluate",
        "is_tautology", "is_unsatisfiable", "semantic_equal", "truth_table"),
    "classical": (
        "CompleteSet", "Favorability", "check_complete", "classical_probability",
        "classify_favorability"),
    "density": (
        "DEFAULT_HORIZON", "NO", "YES", "CofiniteSet", "EventuallyPeriodicSet",
        "FiniteSet", "IndexSet", "OpaqueSet", "Verdict", "complement", "empty_set",
        "evens", "filter_membership", "from_predicate", "intersect", "naturals",
        "part_frequency"),
    "measures": (
        "BFunction", "PairRelation", "b_eval", "classify_pair", "condition",
        "conditional_prob", "dump_distribution", "from_valuation", "is_p_function",
        "load_distribution"),
    "parsing": ("ParsedFormula", "format_sentence", "parse_formula"),
    "proofs": (
        "Axiom", "CheckReport", "Deduction", "Hypothesis", "Justification",
        "ModusPonens", "check_deduction", "format_proof", "instantiate",
        "is_axiom_instance", "match_schema", "parse_proof"),
    "qnumbers": (
        "INFINITE", "Classification", "QNumber", "cycle", "from_function",
        "harmonic", "infinitely_close", "invertible", "q_classify", "q_equal",
        "q_less", "q_lift", "ramp", "reciprocal", "standard"),
    "synthesis": (
        "is_derivable", "opaque_skeleton", "substitute_atoms", "synthesize_proof"),
    "trials": (
        "RangeSpec", "TestSequence", "enumerate_series", "lln_bound", "point_prob",
        "product_bfunction", "range_prob", "simulate_frequencies", "t_disjunction",
        "t_range"),
}

#: Public name -> defining submodule; a submodule's own name maps to itself.
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = _import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
