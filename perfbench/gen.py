"""Seeded input generation helpers (pure data: tuples, ints, Fractions)."""

from __future__ import annotations

import random

from reference import relabel, truth_mask

#: Fixed proof-goal corpus; ``proof_lines`` and ``proof_kb`` measure the
#: proofs the library synthesizes for exactly these goals.
CLASSICS = (
    "A -> A",
    "A -> (B -> A)",
    "(A -> B) -> (!B -> !A)",
    "!!A -> A",
    "A -> !!A",
    "(!A -> A) -> A",
    "(A -> B) -> ((B -> C) -> (A -> C))",
    "(A -> (B -> C)) -> (B -> (A -> C))",
    "(A -> B) -> ((B -> C) -> ((C -> D) -> ((D -> E) -> ((E -> F) -> (A -> F)))))",
)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def literal(rng: random.Random, atom: int, neg: float = 0.3):
    node = ("v", atom)
    return ("!", node) if rng.random() < neg else node


def random_formula(rng: random.Random, n_atoms: int, leaves: int, ops: str = "&|>"):
    """Random tree over ``leaves`` literals that mentions every atom of
    0..n_atoms-1 at least once (``leaves`` >= ``n_atoms``)."""
    picks = list(range(n_atoms))
    rng.shuffle(picks)
    picks += [rng.randrange(n_atoms) for _ in range(leaves - n_atoms)]
    nodes = [literal(rng, a) for a in picks]
    while len(nodes) > 1:
        i = rng.randrange(len(nodes) - 1)
        node = (rng.choice(ops), nodes[i], nodes[i + 1])
        if rng.random() < 0.15:
            node = ("!", node)
        nodes[i:i + 2] = [node]
    return nodes[0]


def balanced_formula(rng: random.Random, n_atoms: int, leaves: int):
    """Random formula true on 3/8 to 5/8 of the minterms.  Measure queries
    do work per satisfying minterm, so this keeps their cost from
    depending on the seed."""
    size = 1 << n_atoms
    while True:
        ast = random_formula(rng, n_atoms, leaves)
        if 3 * size <= 8 * truth_mask(ast, n_atoms).bit_count() <= 5 * size:
            return ast


def rewrite(rng: random.Random, ast):
    """A randomly rewritten formula with the same truth table."""
    op = ast[0]
    if op == "v":
        return ast
    if op == "!":
        inner = ast[1]
        if inner[0] == "!":
            return rewrite(rng, inner[1])
        return ("!", rewrite(rng, inner))
    a, b = rewrite(rng, ast[1]), rewrite(rng, ast[2])
    choice = rng.randrange(2)
    if op == "&":
        return ("&", b, a) if choice else ("!", ("|", ("!", a), ("!", b)))
    if op == "|":
        return ("|", b, a) if choice else (">", ("!", a), b)
    return ("|", ("!", a), b) if choice else (">", ("!", b), ("!", a))


def permuted(rng: random.Random, ast, n_atoms: int):
    order = list(range(n_atoms))
    rng.shuffle(order)
    return relabel(ast, dict(enumerate(order)))


def literals(rng: random.Random, k: int) -> list:
    """Atoms 0..k-1 as literals, exactly one of them negated, so that the
    size of a proof built from them varies little with the seed."""
    negated = rng.randrange(k)
    return [("!", ("v", a)) if a == negated else ("v", a) for a in range(k)]


def chain_goal(rng: random.Random, k: int):
    """(L1 -> L2) -> ((L2 -> L3) -> ... -> (L1 -> Lk)) over k atoms."""
    lits = literals(rng, k)
    node = (">", lits[0], lits[-1])
    for i in range(k - 2, -1, -1):
        node = (">", (">", lits[i], lits[i + 1]), node)
    return permuted(rng, node, k)


def classical_sets(rng: random.Random) -> list:
    """Complete sets over 2 to 4 atoms (all minterms, or a ladder
    A, !A & B, ...), each with an event that is the disjunction of a
    random proper subset of the members: (atoms, members, event, count)."""
    sets = []
    for k, ladder in ((2, False), (3, False), (3, True), (4, True)):
        if ladder:
            members = [_conj([("!", ("v", j)) for j in range(i)] + [("v", i)])
                       for i in range(k)]
            members.append(_conj([("!", ("v", j)) for j in range(k)]))
        else:
            members = [_conj([("v", j) if (idx >> (k - 1 - j)) & 1 else ("!", ("v", j))
                              for j in range(k)]) for idx in range(1 << k)]
        chosen = sorted(rng.sample(range(len(members)), rng.randint(1, len(members) - 1)))
        event = members[chosen[0]]
        for i in chosen[1:]:
            event = ("|", event, members[i])
        sets.append((k, members, event, len(chosen)))
    return sets


def _conj(parts):
    node = parts[0]
    for part in parts[1:]:
        node = ("&", node, part)
    return node


def weights(rng: random.Random, n: int, sparse: bool) -> tuple[int, ...]:
    """Positive integer weights on all 2^n minterms, or on one in eight."""
    size = 1 << n
    if not sparse:
        return tuple(rng.randint(1, 64) for _ in range(size))
    support = set(rng.sample(range(size), max(2, size // 8)))
    return tuple(rng.randint(1, 64) if i in support else 0 for i in range(size))


def proof_size(plogic) -> tuple[int, int]:
    """Lines and bytes of the proofs synthesized for CLASSICS."""
    lines = size = 0
    for text in CLASSICS:
        proof = plogic.format_proof(plogic.synthesize_proof(plogic.parse_formula(text).ast))
        lines += len(proof.splitlines())
        size += len(proof.encode())
    return lines, size
