"""Tests of the benchmark's own reference checks and input generation.

    python3 -m pytest perfbench/tests
"""

import importlib
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import reference as ref  # noqa: E402

A, B = ("v", 0), ("v", 1)

IDENTITY_PROOF = """\
1. A -> ((A -> A) -> A) ; axiom A1
2. (A -> ((A -> A) -> A)) -> ((A -> (A -> A)) -> (A -> A)) ; axiom A2
3. (A -> (A -> A)) -> (A -> A) ; mp 2 1
4. A -> (A -> A) ; axiom A1
5. A -> A ; mp 3 4
"""


def test_checker_accepts_a_valid_proof():
    assert ref.check_proof(IDENTITY_PROOF, (">", A, A), ["A"]) is None


@pytest.mark.parametrize("old, new", [
    ("; mp 3 4", "; mp 4 3"),                      # modus ponens cites the wrong lines
    ("4. A -> (A -> A)", "4. A -> (B -> B)"),      # not an axiom instance
    ("; mp 2 1", "; mp 2 5"),                      # cites a later line
    ("5. A -> A ;", "6. A -> A ;"),                # numbering gap
    ("; axiom A2", "; hyp 0"),                     # hypotheses are not allowed
])
def test_checker_rejects_a_tampered_proof(old, new):
    tampered = IDENTITY_PROOF.replace(old, new)
    assert tampered != IDENTITY_PROOF
    assert ref.check_proof(tampered, (">", A, A), ["A", "B"]) is not None


def test_checker_rejects_a_proof_of_another_goal():
    assert ref.check_proof(IDENTITY_PROOF, (">", B, B), ["A", "B"]) is not None


def test_minterm_reference_on_a_two_atom_measure():
    # Masses 1/10, 2/10, 3/10, 4/10 on minterms 00, 01, 10, 11 (A is the high bit).
    weights, total = (1, 2, 3, 4), 10

    def value(ast):
        return ref.mass_of(weights, total, ref.truth_mask(ast, 2))

    assert value(A) == Fraction(7, 10)
    assert value(B) == Fraction(6, 10)
    assert value(("&", A, B)) == Fraction(4, 10)
    assert value(("|", A, B)) == Fraction(9, 10)
    assert value((">", A, B)) == Fraction(7, 10)
    assert value(("!", A)) == Fraction(3, 10)
    assert ref.conditioned(weights, ref.truth_mask(B, 2)) == ((0, 2, 0, 4), 6)


def test_truth_mask_agrees_with_evaluation_one_minterm_at_a_time():
    import random
    from gen import random_formula

    rng = random.Random(5)
    for n in (1, 3, 6):
        ast = random_formula(rng, n, n + 3)
        mask = ref.truth_mask(ast, n)
        for j in range(1 << n):
            bits = [(j >> (n - 1 - i)) & 1 for i in range(n)]
            assert (mask >> j) & 1 == ref.evaluate_at(ast, bits)


def test_binomial_reference():
    assert ref.binomial_sum(3, 2, 2, Fraction(1, 2)) == Fraction(3, 8)
    assert ref.binomial_sum(4, 0, 4, Fraction(1, 3)) == 1
    assert ref.window(10, Fraction(5, 2), Fraction(7)) == (3, 7)


def test_stored_digests_cover_the_stored_windows():
    stored = ref.stored_digests()
    for r, p, k, l in ref.STORED_WINDOWS:
        assert ref.stored_window_digest(r, p, k, l) in stored.values()


def test_derivability_reference():
    assert not ref.skeleton_is_tautology((">", ("&", A, B), A))
    assert ref.skeleton_is_tautology((">", (">", A, B), (">", ("!", B), ("!", A))))


@pytest.mark.parametrize("workload", ["measures", "numeric", "numbers", "logic", "cli"])
def test_seed_fixes_the_inputs(workload):
    module = importlib.import_module(f"wl_{workload}")

    assert repr(module.generate(11)) == repr(module.generate(11))
    assert repr(module.generate(11)) != repr(module.generate(12))
