"""Fuzzed CLI contract: command lines drawn from the CLI grammar, valid and
corrupted, never make run() raise; a failing command reports exactly one
``error:`` line; every probability a succeeding command prints lies in
[0, 1]."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plogic.cli import run

# One file per loader error class, plus files the reader itself refuses.
BAD_DISTRIBUTIONS = {
    "1x 1/2\n": "line 1: bad bitstring '1x'",
    "11 1/2\n0 1/2\n": "line 2: bitstring width 1 != 2",
    "11 1/2 x\n": "line 1: expected '<bits> <p/q>', got '11 1/2 x'",
    "0 1/2\n1 1/0\n1 1/0\n": "line 2: bad rational '1/0'",
    "1 3/2\n0 -1/2\n": "line 2: negative mass -1/2",
    "1 1/2\n0 1/2\n1 1/2\n": "line 3: duplicate minterm 1",
    "1 1/2\n0 1/4\n": "masses sum to 3/4, not 1",
    "0" * 21 + " 1\n": "21 atoms exceed the cap of 20",
    "\n \n": "distribution file has no minterm lines",
    "0 1e-99999999\n1 1\n": "line 1: bad rational '1e-99999999'",
}
GOOD_DISTRIBUTIONS = [
    "11 1/4\n10 1/4\n01 1/4\n00 1/4\n",
    "1 1/3\n0 2/3\n",
    "111 1/8\n000 0.5\n010 +3/8\n",
]
FORMULAS = ["A", "!A", "B", "A & B", "A | !A", "A -> B", "A & !A", "!!C | B",
            "(A -> B) -> (!B -> !A)", "A -> A"]
FORMULA_TEXT = st.sampled_from(FORMULAS) | st.text("AB!&|-<>() x", max_size=10)
RATIONALS = st.sampled_from(["0", "1", "1/2", "1/3", "2/7", "0.25", "3/2",
                             "-1/2", "1/0", "x", "", "1e-99999999"])
# Broken lines after a repeated group, and a ";" inside a formula.
BROKEN_PROOFS = {
    "semicolon": "1. A ; B ; hyp 0\n",
    "reused": "1. (A -> B) -> (A -> B) ; hyp 0\n2. (A -> B) & (A -> ; hyp 1\n",
    "tab": "1. (A -> B)\t->\t; hyp 0\n",
    "head": "1 . A ; hyp 0\n",
}
# Proofs citing numerals longer than int() converts from text.
LONG_NUMERAL_PROOFS = {
    "hyp": "1. A ; hyp " + "9" * 5000 + "\n",
    "number": "1" * 5000 + ". A ; hyp 0\n",
    "mp": "1. A ; hyp 0\n2. A -> A ; hyp 1\n3. A ; mp 2 " + "1" * 4400 + "\n",
}
INTS = st.integers(-2, 12).map(str) | st.sampled_from(["x", "", "1.5"])
JUNK = st.sampled_from(["", "-", "--", "--bogus", "--r", "--dist", ",", "x", "1/0",
                        "-h", "\x00", "A &"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")

    def write(name, data):
        path = root / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        return str(path)

    proof = "\n".join(run(["prove", "(A -> B) -> (!B -> !A)"]).lines) + "\n"
    return {
        "dist": [write(f"good{i}.txt", text) for i, text in enumerate(GOOD_DISTRIBUTIONS)]
        + [write(f"bad{i}.txt", text) for i, text in enumerate(BAD_DISTRIBUTIONS)]
        + [write("latin1.txt", b"1 1/2\n0 \xbd\n"), str(root), str(root / "missing"),
           "nul\x00path"],
        "proof": [write("proof.txt", proof),
                  write("tampered.txt", "1. A -> B -> A ; axiom A2\n"),
                  write("garbage.txt", "hello\n"), str(root / "missing")]
        + [write(f"long_{name}.txt", text) for name, text in LONG_NUMERAL_PROOFS.items()]
        + [write(f"broken_{name}.txt", text) for name, text in BROKEN_PROOFS.items()],
        "set": [write("die.txt", "A & B\nA & !B\n!A & B\n!A & !B\n"),
                write("mixed.txt", "A & B\nA\n"), write("empty.txt", ""),
                str(root / "missing")],
    }


def _set_words():
    return st.one_of(
        st.tuples(st.just("periodic"), st.text("01x", max_size=5)).map(list),
        st.tuples(st.sampled_from(["finite", "cofinite"]),
                  st.sampled_from(["1,2", "3", "", "0,1", "a,b", "-1"])).map(list),
        st.sampled_from([["all"], ["none"], ["odd"]]))


def _seq_words():
    return st.one_of(st.tuples(st.just("const"), RATIONALS).map(list),
                     st.sampled_from([["recip-n"], ["lin"], ["sin"], []]))


def _option(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


@st.composite
def command_lines(draw, files):
    """One argv from the CLI grammar; about half are then corrupted."""
    cmd, _, sub = draw(st.sampled_from([
        "eval", "taut", "prove", "check", "prob", "cond", "bernoulli", "lln",
        "classical", "qnum filter", "qnum freq", "qnum classify", "qnum eq",
        "qnum lt"])).partition(" ")
    formula = draw(FORMULA_TEXT)
    if cmd == "eval":
        argv = [cmd, formula, "--world", draw(st.text("012", max_size=4))]
    elif cmd in ("taut", "prove"):
        argv = [cmd, formula]
    elif cmd == "check":
        argv = [cmd, draw(st.sampled_from(files["proof"]))]
    elif cmd == "prob":
        argv = [cmd, formula, "--dist", draw(st.sampled_from(files["dist"]))]
    elif cmd == "cond":
        argv = [cmd, formula, draw(FORMULA_TEXT),
                "--dist", draw(st.sampled_from(files["dist"]))]
    elif cmd == "bernoulli":
        argv = [cmd, "--r", draw(INTS), "--p", draw(RATIONALS),
                *draw(_option("--k", INTS))]
    elif cmd == "lln":
        argv = [cmd, "--r", draw(INTS), "--p", draw(RATIONALS), "--eps", draw(RATIONALS),
                *draw(_option("--trials", INTS)), *draw(_option("--seed", INTS))]
    elif cmd == "classical":
        argv = [cmd, "--set", draw(st.sampled_from(files["set"])), "--event", formula]
    else:
        horizon = draw(_option("--horizon", st.integers(-1, 64).map(str)))
        if sub == "filter":
            argv = [cmd, sub, *draw(_set_words()), *horizon]
        elif sub == "freq":
            argv = [cmd, sub, *draw(_set_words()), "--n", draw(INTS)]
        elif sub == "classify":
            argv = [cmd, sub, *draw(_seq_words()), *horizon]
        else:
            argv = [cmd, sub, *horizon, *draw(_seq_words()),
                    *draw(st.sampled_from([[","], [], [",", ","]])), *draw(_seq_words())]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(argv) - 1))
        how = draw(st.sampled_from(["drop", "insert", "replace", "swap"]))
        if how == "drop":
            del argv[at]
        elif how == "insert":
            argv.insert(at, draw(JUNK))
        elif how == "replace":
            argv[at] = draw(JUNK)
        else:
            other = draw(st.integers(0, len(argv) - 1))
            argv[at], argv[other] = argv[other], argv[at]
    return argv


def _probabilities(argv, lines):
    """Every probability or frequency printed by a succeeding command, as
    exact values; the tail bound of lln may be negative and is skipped."""
    if not lines:  # --help
        return []
    words = [line.split() for line in lines]
    if argv[0] in ("prob", "cond") or argv[:2] == ["qnum", "freq"]:
        return [Fraction(text) for text in words[0]]
    if argv[0] == "bernoulli":
        return [Fraction(text) for row in words for text in row[1:]]
    if argv[0] == "lln":
        return [Fraction(text) for text in words[0][2:4] if text != "-"]
    return []


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_run_keeps_the_cli_contract(files, data):
    argv = data.draw(command_lines(files))
    report = run(argv)
    assert report.status in ("ok", "error")
    if report.ok:
        for value in _probabilities(argv, report.lines):
            assert 0 <= value <= 1, (argv, report.lines)
    else:
        assert len(report.lines) == 1, (argv, report.lines)
        line = report.lines[0]
        # `check` reports a proof it refuses as its one verdict line.
        assert line.startswith("error: ") or (
            argv[0] == "check" and line.startswith("rejected: ")), (argv, line)


@pytest.mark.parametrize("argv", [
    ["qnum", "eq", "const", "1", ","],
    ["qnum", "lt", ",", "lin"],
    ["prob", "A", "--dist", "nul\x00path"],
    ["classical", "--set", "nul\x00path", "--event", "A"],
    ["bernoulli", "--r", "3", "--p", "1e-99999999"],
    ["qnum", "eq", "const", "1e99999999", ",", "const", "1"],
])
def test_fuzzed_crashes_are_error_lines(argv):
    report = run(argv)
    assert report.status == "error"
    assert len(report.lines) == 1 and report.lines[0].startswith("error: ")


@pytest.mark.parametrize("name", LONG_NUMERAL_PROOFS)
def test_long_numeral_is_an_error_line(tmp_path, name):
    proof = tmp_path / "proof.txt"
    proof.write_text(LONG_NUMERAL_PROOFS[name])
    report = run(["check", str(proof)])
    assert report.status == "error"
    assert len(report.lines) == 1
    assert report.lines[0].endswith(" digits is too long")


@pytest.mark.parametrize("name, line", [
    ("semicolon", "error: line 1: unexpected character ';' (column 3)"),
    ("reused", "error: line 2: expected an atom, '!', or '(' (column 17)"),
    ("tab", "error: line 1: expected an atom, '!', or '(' (column 12)"),
    ("head", "error: line 1: unrecognized proof line"),
])
def test_broken_proof_line_is_an_error_line(tmp_path, name, line):
    proof = tmp_path / "proof.txt"
    proof.write_text(BROKEN_PROOFS[name])
    assert run(["check", str(proof)]).lines == [line]


def test_unreadable_text_is_an_error_line(tmp_path):
    dist = tmp_path / "latin1.txt"
    dist.write_bytes(b"1 1/2\n0 \xbd\n")
    report = run(["prob", "A", "--dist", str(dist)])
    assert report.status == "error"
    assert report.lines[0].startswith(f"error: cannot read {str(dist)!r}: ")


@pytest.mark.parametrize("text, message", BAD_DISTRIBUTIONS.items(), ids=[
    "bitstring", "width", "fields", "rational", "negative", "duplicate", "sum",
    "atoms", "empty", "exponent"])
@pytest.mark.parametrize("command", [["prob", "A"], ["cond", "A", "A | !A"]])
def test_each_loader_error_is_one_error_line(tmp_path, command, text, message):
    dist = tmp_path / "dist.txt"
    dist.write_text(text)
    report = run([*command, "--dist", str(dist)])
    assert report.status == "error"
    assert report.lines == [f"error: {message}"]
