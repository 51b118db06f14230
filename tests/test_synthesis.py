"""Proof synthesis: round-trips, soundness, and the derivability boundary."""

import functools
import random
import re

import pytest

from conftest import is_falsifying_witness, make_atoms, random_sentence, recursion_headroom
from plogic.errors import NotDerivableError, NotTautologyError, TooManyAtomsError
from plogic.formulas import (
    And,
    Atom,
    AtomRef,
    Implies,
    Not,
    Or,
    is_tautology,
)
from plogic.parsing import parse_formula
from plogic.proofs import Axiom, Hypothesis, check_deduction, format_proof, parse_proof
from plogic.synthesis import (
    MAX_SWEEP_VARS,
    _by_sweep,
    is_derivable,
    opaque_skeleton,
    substitute_atoms,
    synthesize_proof,
)

A, B, C, D = make_atoms("ABCD")


def _round_trip(s):
    d = synthesize_proof(s)
    report = check_deduction(d)
    assert report.ok, (report.code, report.message)
    assert d.hypotheses == ()
    assert d.goal == s
    assert not any(isinstance(j, Hypothesis) for _, j in d.lines)
    return d


class TestRoundTrip:
    def test_identity(self):
        d = _round_trip(Implies(A, A))
        assert len(d.lines) == 5  # the classic two-axiom derivation

    def test_excluded_middle(self):
        _round_trip(Or(A, Not(A)))

    def test_axiom_instance_is_one_line(self):
        d = _round_trip(Implies(A, Implies(B, A)))
        assert len(d.lines) == 1

    def test_peirce(self):
        _round_trip(Implies(Implies(Implies(A, B), A), A))

    def test_contraposition(self):
        _round_trip(Implies(Implies(A, B), Implies(Not(B), Not(A))))

    def test_chained_transitivity(self):
        _round_trip(Implies(Implies(A, B),
                            Implies(Implies(B, C), Implies(A, C))))

    def test_double_negation_both_ways(self):
        _round_trip(Implies(A, Not(Not(A))))
        _round_trip(Implies(Not(Not(A)), A))

    def test_goal_with_opaque_conjunction_blocks(self):
        # (A & B) appears opaquely on both sides, so the skeleton is an
        # identity implication and the proof substitutes the block back.
        blob = And(A, B)
        d = _round_trip(Implies(blob, blob))
        assert any(blob == sent or blob in _subtrees(sent)
                   for sent, _ in d.lines)

    def test_four_variable_goal(self):
        _round_trip(Implies(And(A, Not(B)), Implies(C, Implies(D, And(A, Not(B))))))


def _subtrees(s):
    out = set()
    stack = [s]
    while stack:
        node = stack.pop()
        out.add(node)
        if type(node) is Not:
            stack.append(node.child)
        elif type(node) is And:
            stack.append(node.left)
            stack.append(node.right)
    return out


class TestRefusals:
    def test_non_tautology(self):
        with pytest.raises(NotTautologyError):
            synthesize_proof(And(A, Not(A)))

    def test_too_many_atoms(self):
        atoms = [AtomRef(Atom(i, f"P{i}")) for i in range(7)]
        goal = atoms[0]
        for a in atoms[1:]:
            goal = Or(goal, Not(a) if a.atom.id % 2 else a)
        goal = Or(goal, Not(atoms[0]))
        assert is_tautology(goal)
        with pytest.raises(TooManyAtomsError):
            synthesize_proof(goal)

    def test_sweep_cap(self):
        # Distinct opaque conjunctions over three atoms: each one is a unit
        # of its own, and each unit doubles the case sweep.
        units = [And(A, B), And(B, A), And(A, C), And(C, A), And(B, C),
                 And(C, B), And(A, A), And(B, B), And(C, C), And(And(A, B), C)]

        def goal(k):
            return functools.reduce(Or, [units[0], Not(units[0]), *units[1:k]])

        assert MAX_SWEEP_VARS == 9
        _round_trip(goal(9))
        assert is_derivable(goal(10))
        with pytest.raises(TooManyAtomsError, match=re.escape(
                "synthesis would sweep 2^10 cases; the cap is 2^9")):
            synthesize_proof(goal(10))

    def test_opaque_conjunction_tautology_is_refused(self):
        goal = Implies(And(A, B), A)
        with pytest.raises(NotDerivableError) as err:
            synthesize_proof(goal)
        assert err.value.abstracted is not None
        assert is_falsifying_witness(goal, err.value.assignment)

    def test_reversed_contradiction_is_refused(self):
        # not(A and not A) is an implication shape and derivable; flipping
        # the conjuncts leaves the conjunction opaque and underivable.
        _round_trip(Not(And(A, Not(A))))
        goal = Not(And(Not(A), A))
        with pytest.raises(NotDerivableError) as err:
            synthesize_proof(goal)
        assert is_falsifying_witness(goal, err.value.assignment)


class TestDerivabilityBoundary:
    """The opaque-conjunction abstraction is sound and complete for the
    reachable fragment: accepted hypothesis-free proofs only ever contain
    lines whose abstraction is a tautology."""

    def test_skeleton_invariant_on_synthesized_proofs(self):
        rng = random.Random(40)
        derivable = []
        while len(derivable) < 25:
            s = random_sentence(rng, [A, B, C], 4)
            if is_derivable(s):
                derivable.append(s)
        for s in derivable:
            d = synthesize_proof(s)
            for sentence, _ in d.lines:
                skeleton, _ = opaque_skeleton(sentence)
                assert is_tautology(skeleton)

    def test_is_derivable_matches_synthesis(self):
        rng = random.Random(41)
        seen_refusal = seen_proof = False
        for _ in range(400):
            s = random_sentence(rng, [A, B, C], 4)
            if not is_tautology(s):
                with pytest.raises(NotTautologyError):
                    synthesize_proof(s)
            elif is_derivable(s):
                _round_trip(s)
                seen_proof = True
            else:
                with pytest.raises(NotDerivableError):
                    synthesize_proof(s)
                seen_refusal = True
        assert seen_proof and seen_refusal

    def test_skeleton_shares_equal_blocks(self):
        blob = And(A, B)
        skeleton, mapping = opaque_skeleton(Implies(blob, blob))
        # one shared variable for the two occurrences, plus nothing else
        assert len(mapping) == 1
        assert mapping[0] == blob

    def test_substitution_inverts_abstraction(self):
        rng = random.Random(42)
        for _ in range(200):
            s = random_sentence(rng, [A, B, C], 5)
            skeleton, mapping = opaque_skeleton(s)
            assert substitute_atoms(skeleton, mapping) == s


class TestSoundness:
    def test_every_line_of_synthesized_proofs_is_a_tautology(self):
        rng = random.Random(43)
        checked = 0
        while checked < 15:
            s = random_sentence(rng, [A, B, C], 4)
            if not is_derivable(s):
                continue
            d = synthesize_proof(s)
            for sentence, _ in d.lines:
                assert is_tautology(sentence)
            checked += 1

    def test_mutated_proofs_are_rejected(self):
        # guards the checker itself: breaking any single line of a valid
        # proof must flip the verdict
        from plogic.proofs import Deduction

        d = synthesize_proof(Implies(Implies(A, B), Implies(Not(B), Not(A))))
        rng = random.Random(44)
        for _ in range(20):
            i = rng.randrange(len(d.lines))
            sentence, just = d.lines[i]
            twisted = Not(sentence)
            lines = d.lines[:i] + ((twisted, just),) + d.lines[i + 1:]
            mutated = Deduction(d.hypotheses, lines, d.goal)
            assert not check_deduction(mutated).ok

    def test_accepted_parsed_proofs_are_sound(self):
        # soundness holds for any accepted hypothesis-free deduction, not
        # just synthesized ones
        from plogic.proofs import parse_proof

        text = (
            "1. (A -> (A -> A) -> A) -> (A -> A -> A) -> A -> A ; axiom A2\n"
            "2. A -> (A -> A) -> A ; axiom A1\n"
            "3. (A -> A -> A) -> A -> A ; mp 1 2\n"
            "4. A -> A -> A ; axiom A1\n"
            "5. A -> A ; mp 3 4\n"
        )
        d = parse_proof(text)
        assert d.hypotheses == ()
        assert check_deduction(d).ok
        for sentence, _ in d.lines:
            assert is_tautology(sentence)


def _sweep_proof(s):
    return _by_sweep(s, list(opaque_skeleton(s)[1].values()))


class TestShorterRoutes:
    """The deduction-theorem route and the contraposition template compete
    with the sweep; the fewest lines win, and the sweep wins ties."""

    CLASSICS = {
        "A -> A": 5,
        "A -> (B -> A)": 1,
        "(A -> B) -> (!B -> !A)": 49,
        "!!A -> A": 33,
        "A -> !!A": 25,
        "(!A -> A) -> A": 122,
        "(A -> B) -> ((B -> C) -> (A -> C))": 15,
        "(A -> (B -> C)) -> (B -> (A -> C))": 19,
        "(A -> B) -> ((B -> C) -> ((C -> D) -> ((D -> E) -> ((E -> F) -> (A -> F)))))": 123,
    }

    @pytest.mark.parametrize("text", CLASSICS)
    def test_classic_sizes(self, text):
        d = _round_trip(parse_formula(text).ast)
        assert len(d.lines) == self.CLASSICS[text]

    def test_tie_keeps_the_sweep(self):
        goal = parse_formula("(!A -> A) -> A").ast
        proof = synthesize_proof(goal)
        assert len(proof.lines) == 122
        assert format_proof(proof) == format_proof(_sweep_proof(goal))

    @pytest.mark.parametrize("goal", [
        Implies(Implies(A, B), Implies(Implies(A, B), Implies(Implies(B, C), Implies(A, C)))),
        Implies(A, Implies(Implies(A, B), Implies(A, Implies(Implies(B, C), C)))),
        Implies(Implies(Or(A, C), Not(B)), Implies(Not(Not(B)), Not(Or(A, C)))),
    ], ids=["repeated-antecedent", "repeated-later", "compound-contraposition"])
    def test_text_round_trip(self, goal):
        d = _round_trip(goal)
        assert len(d.lines) < len(_sweep_proof(goal).lines)
        parsed = parse_proof(format_proof(d))
        assert str(parsed.goal) == str(goal)  # the parser numbers atoms anew
        assert check_deduction(parsed).ok

    def test_never_longer_than_the_sweep(self):
        rng = random.Random(45)
        shorter = 0
        for _ in range(80):
            x, y, z = (random_sentence(rng, [A, B, C], 3) for _ in range(3))
            goal = rng.choice([Implies(x, Implies(Implies(x, y), y)),
                               Implies(Implies(x, y), Implies(Not(y), Not(x))),
                               Implies(x, Implies(y, z)),
                               random_sentence(rng, [A, B, C], 5)])
            if not is_derivable(goal):
                continue
            d, sweep = _round_trip(goal), _sweep_proof(goal)
            assert len(d.lines) <= len(sweep.lines)
            if len(d.lines) == len(sweep.lines):
                assert d.lines == sweep.lines
            shorter += len(d.lines) < len(sweep.lines)
        assert shorter >= 10


def _distinct_nodes(sentences):
    """Every distinct node object under ``sentences``."""
    seen = {}
    stack = list(sentences)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            if type(node) is Not:
                stack.append(node.child)
            elif type(node) is And:
                stack += (node.left, node.right)
    return list(seen.values())


class TestParsedProofSharing:
    """A parsed proof holds each distinct subformula as one node object."""

    @pytest.mark.parametrize("text", [
        *TestShorterRoutes.CLASSICS,
        pytest.param("!" * 200 + "A | !A", id="negations-200"),
    ])
    def test_no_two_nodes_are_equal(self, text):
        proof = format_proof(synthesize_proof(parse_formula(text).ast))
        nodes = _distinct_nodes(sentence for sentence, _ in parse_proof(proof).lines)
        assert len(set(nodes)) == len(nodes)


class TestSweepInPlace:
    """The sweep proves the goal on its own nodes, each opaque unit a leaf.
    Line by line, that is its proof of the skeleton with the units put
    back for the skeleton's variables."""

    @staticmethod
    def _goals(rng):
        while True:
            x, y = (And(random_sentence(rng, [A, B, C], 3), rng.choice([A, B, C, And(A, B)]))
                    for _ in range(2))
            z = random_sentence(rng, [A, B, x], 3)
            yield rng.choice([Implies(x, Implies(y, x)),
                              Implies(Implies(x, y), Implies(Not(y), Not(x))),
                              Implies(Implies(Not(z), z), z),
                              Or(z, Not(z)),
                              random_sentence(rng, [A, x, y], 5)])

    def test_matches_the_skeleton_proof_with_units_substituted(self):
        checked = 0
        for goal in self._goals(random.Random(19)):
            skeleton, subtree_of = opaque_skeleton(goal)
            if all(type(u) is AtomRef for u in subtree_of.values()) or not is_derivable(goal):
                continue
            proof = _sweep_proof(goal)
            want = []
            for sentence, just in _sweep_proof(skeleton).lines:
                if type(just) is Axiom:
                    just = Axiom(just.schema, {k: substitute_atoms(v, subtree_of)
                                               for k, v in just.bindings.items()})
                want.append((substitute_atoms(sentence, subtree_of), just))
            assert list(proof.lines) == want
            checked += 1
            if checked == 30:
                break


class TestDepth:
    """Synthesis keeps its own stack: no step recurses with goal depth."""

    def test_deep_goal_with_little_stack_to_spare(self):
        chain = A
        for _ in range(400):
            chain = Not(chain)
        goal = Or(chain, Not(A))
        with recursion_headroom():
            assert is_derivable(goal)
            proof = synthesize_proof(goal)
            assert check_deduction(proof).ok
        assert len(proof.lines) == 15 * 400 + 147
