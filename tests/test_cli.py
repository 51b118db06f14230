"""Command-line behavior: outputs, exit codes, and file handling."""

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import plogic
from conftest import recursion_headroom
from plogic.cli import fmt_decimal, fmt_rational, main, run
from plogic.measures import load_distribution
from plogic.proofs import check_deduction, parse_proof
from plogic.trials import lln_bound, point_prob, range_prob

#: Input depth that a step recursing once per level cannot reach under
#: ``recursion_headroom``.
DEEP = 400


class TestFormatting:
    def test_decimal_is_fixed_point_twelve_digits(self):
        assert fmt_decimal(Fraction(3, 8)) == "0.375000000000"
        assert fmt_decimal(Fraction(1, 3)) == "0.333333333333"
        assert fmt_decimal(Fraction(-24)) == "-24.000000000000"

    def test_decimal_round_half_even(self):
        assert fmt_decimal(Fraction(25, 2 * 10**12)) == "0.000000000012"
        assert fmt_decimal(Fraction(35, 2 * 10**12)) == "0.000000000018"

    def test_rational_rendering(self):
        assert fmt_rational(Fraction(3, 8)) == "3/8"
        assert fmt_rational(Fraction(4)) == "4"

    def test_rational_of_any_size(self):
        # Past the interpreter's 4300-digit limit on int-to-str conversion.
        text = fmt_rational(Fraction(-(10**5000), 3**10000))
        numerator, denominator = text.split("/")
        assert numerator == "-1" + "0" * 5000
        assert _exact(text) == Fraction(-(10**5000), 3**10000)

    def test_split_conversion_matches_decimal(self):
        # Above the split size the digits come from halves joined in
        # decimal; they must be the digits Decimal(n) gives.
        rng = random.Random(18)
        for _ in range(40):
            n = rng.getrandbits(rng.randint(1, 40_000)) * rng.choice((1, -1))
            d = rng.getrandbits(rng.randint(1, 20_000)) or 1
            q = Fraction(n, d)
            assert fmt_rational(q) == (f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"
                                       if q.denominator != 1 else str(Decimal(q.numerator)))
        for bits in (4096, 4097, 8193, 65_536):
            for n in ((1 << bits) - 1, 1 << bits, -(1 << bits) + 1):
                assert fmt_rational(Fraction(n)) == str(Decimal(n))


def _exact(text: str) -> Fraction:
    """Parse p/q text of any size; Fraction(str) stops at 4300 digits."""
    numerator, _, denominator = text.partition("/")
    return Fraction(int(Decimal(numerator)), int(Decimal(denominator or "1")))


class TestEvalAndTaut:
    def test_tautology_yes(self):
        report = run(["taut", "A | !A"])
        assert report.ok
        assert report.lines == ["tautology: yes"]

    def test_tautology_no(self):
        report = run(["taut", "A & !A"])
        assert report.ok
        assert report.lines == ["tautology: no"]

    def test_tautology_deep_chain(self):
        report = run(["taut", "!" * 2000 + "A"])
        assert report.ok
        assert report.lines == ["tautology: no"]

    def test_eval_world(self):
        report = run(["eval", "A & !B -> C", "--world", "110"])
        assert report.ok
        assert report.lines == ["value: 1"]

    def test_eval_width_mismatch(self):
        report = run(["eval", "A & B", "--world", "1"])
        assert not report.ok

    def test_syntax_error_reports_column(self):
        report = run(["taut", "A & & B"])
        assert not report.ok
        assert "column 5" in report.lines[0]


class TestProveAndCheck:
    def test_prove_round_trips_through_files(self, tmp_path):
        goals = [
            "(A -> B) -> (!B -> !A)",
            "A -> A",
            "A | !A",
            "((A -> B) -> A) -> A",
            "(A & B) -> (A & B)",
            "(A -> B) -> ((B -> C) -> (A -> C))",
        ]
        for i, goal in enumerate(goals):
            report = run(["prove", goal])
            assert report.ok, goal
            proof_file = tmp_path / f"proof{i}.txt"
            proof_file.write_text("\n".join(report.lines) + "\n")
            deduction = parse_proof(proof_file.read_text())
            assert check_deduction(deduction).ok, goal
            check = run(["check", str(proof_file)])
            assert check.ok, goal
            assert check.lines[0] == "accepted"

    def test_prove_sweeps_a_compound_unit(self, tmp_path):
        # x = A -> (B -> C) is one unit of the sweep: the proof is the
        # 122-line proof of (!A -> A) -> A with x put in for A
        x = "(A -> (B -> C))"
        report = run(["prove", f"(!{x} -> {x}) -> {x}"])
        assert report.ok
        assert len(report.lines) == 122
        proof_file = tmp_path / "proof.txt"
        proof_file.write_text("\n".join(report.lines) + "\n")
        check = run(["check", str(proof_file)])
        assert check.ok
        assert check.lines[0] == "accepted"

    def test_prove_refuses_non_tautology(self):
        report = run(["prove", "A & !A"])
        assert not report.ok

    def test_prove_reports_underivable(self):
        report = run(["prove", "A & B -> A"])
        assert not report.ok
        assert "not derivable" in report.lines[0]

    def test_check_rejects_broken_proof(self, tmp_path):
        proof_file = tmp_path / "broken.txt"
        proof_file.write_text("1. A -> B -> A ; axiom A2\n")
        report = run(["check", str(proof_file)])
        assert not report.ok
        assert "NotAxiomInstance" in report.lines[0]

    def test_check_names_the_line_of_a_syntax_error(self, tmp_path):
        proof_file = tmp_path / "bad.txt"
        proof_file.write_text("1. (A -> B) -> (A -> B) ; axiom A1\n"
                              "2. (A -> B) (A -> B) ; mp 1 1\n")
        report = run(["check", str(proof_file)])
        assert not report.ok
        assert report.lines == ["error: line 2: unexpected '(' (column 10)"]
        assert main(["check", str(proof_file)]) == 1

    def test_missing_file(self):
        report = run(["check", "/nonexistent/proof.txt"])
        assert not report.ok


class TestDistributionCommands:
    def test_prob(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("11 1/2\n00 1/2\n")
        report = run(["prob", "A & B", "--dist", str(dist)])
        assert report.ok
        assert report.lines == ["1/2 0.500000000000"]

    def test_prob_matches_library(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("10 1/3\n01 1/3\n11 1/3\n")
        report = run(["prob", "A | B", "--dist", str(dist)])
        bf = load_distribution(dist.read_text())
        assert report.lines[0].split()[0] == "1"  # exact: 1

    def test_cond(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("11 1/4\n10 1/4\n01 1/4\n00 1/4\n")
        report = run(["cond", "A", "A | B", "--dist", str(dist)])
        assert report.ok
        assert report.lines[0].startswith("2/3 ")

    def test_cond_zero_condition(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("11 1\n")
        report = run(["cond", "A", "B & !B", "--dist", str(dist)])
        assert not report.ok

    def test_bad_distribution(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("1 1/2\n0 1/4\n")
        report = run(["prob", "A", "--dist", str(dist)])
        assert not report.ok


class TestBernoulliAndLln:
    def test_single_run_count(self):
        report = run(["bernoulli", "--r", "3", "--k", "2", "--p", "1/2"])
        assert report.ok
        fields = report.lines[0].split()
        assert fields[0] == "2"
        assert fields[1] == "3/8"
        assert Fraction(fields[1]) == point_prob(3, 2, Fraction(1, 2))

    def test_full_table(self):
        report = run(["bernoulli", "--r", "4", "--p", "1/4"])
        assert report.ok
        assert len(report.lines) == 5
        total = sum(Fraction(line.split()[1]) for line in report.lines)
        assert total == 1

    def test_lln_line(self):
        report = run(["lln", "--r", "100", "--p", "1/2", "--eps", "1/10"])
        assert report.ok
        fields = report.lines[0].split()
        assert fields[0] == "100"
        assert Fraction(fields[1]) == lln_bound(100, Fraction(1, 2), Fraction(1, 10))
        assert fields[1] == "3/4"
        exact = range_prob(100, 100 * Fraction(2, 5), 100 * Fraction(3, 5),
                           Fraction(1, 2))
        assert Fraction(fields[2]) == exact
        assert fields[3] == "-" and fields[4] == "-"

    def test_huge_exact_values_print_in_full(self):
        report = run(["bernoulli", "--r", "100000", "--p", "1/3", "--k", "5"])
        assert report.ok
        assert _exact(report.lines[0].split()[1]) == point_prob(100_000, 5, Fraction(1, 3))
        report = run(["lln", "--r", "20000", "--p", "1/3", "--eps", "1/20"])
        assert report.ok
        exact = range_prob(20_000, 20_000 * Fraction(17, 60), 20_000 * Fraction(23, 60),
                           Fraction(1, 3))
        assert _exact(report.lines[0].split()[2]) == exact

    def test_lln_with_trials_is_reproducible(self):
        args = ["lln", "--r", "50", "--p", "1/2", "--eps", "1/10",
                "--trials", "80", "--seed", "42"]
        first = run(args)
        second = run(args)
        assert first.ok and first.lines == second.lines
        coverage = Fraction(first.lines[0].split()[3])
        assert 0 <= coverage <= 1


class TestClassicalCommand:
    def test_die_counting(self, tmp_path):
        members = tmp_path / "set.txt"
        members.write_text("A & B\nA & !B\n!A & B\n!A & !B\n")
        report = run(["classical", "--set", str(members), "--event", "A"])
        assert report.ok
        assert report.lines == ["2 4 1/2"]

    def test_mixed_member_is_an_error(self, tmp_path):
        members = tmp_path / "set.txt"
        members.write_text("A\n!A\n")
        report = run(["classical", "--set", str(members), "--event", "B"])
        assert not report.ok


class TestQnumCommands:
    def test_filter_verdicts(self):
        assert run(["qnum", "filter", "periodic", "01"]).lines == ["no"]
        assert run(["qnum", "filter", "periodic", "1"]).lines == ["yes"]
        assert run(["qnum", "filter", "cofinite", "1,2"]).lines == ["yes"]
        assert run(["qnum", "filter", "finite", "1,2"]).lines == ["no"]
        assert run(["qnum", "filter", "all"]).lines == ["yes"]
        assert run(["qnum", "filter", "none"]).lines == ["no"]

    def test_frequency(self):
        report = run(["qnum", "freq", "periodic", "01", "--n", "4"])
        assert report.lines == ["1/2 0.500000000000"]

    def test_classify(self):
        assert run(["qnum", "classify", "recip-n"]).lines == ["infinitesimal"]
        assert run(["qnum", "classify", "lin"]).lines == ["infinite"]
        assert run(["qnum", "classify", "const", "5"]).lines == \
            ["finite-appreciable"]

    def test_eq_and_lt(self):
        assert run(["qnum", "eq", "const", "1/2", ",", "const", "1/2"]).lines \
            == ["yes"]
        assert run(["qnum", "eq", "const", "0", ",", "const", "1"]).lines \
            == ["no"]
        assert run(["qnum", "lt", "const", "0", ",", "recip-n"]).lines \
            == ["yes"]

    def test_named_sequences_equal_themselves(self):
        # Decided from structure, with no sweep of the horizon.
        assert run(["qnum", "eq", "lin", ",", "lin"]).lines == ["yes"]
        assert run(["qnum", "eq", "recip-n", ",", "recip-n"]).lines == ["yes"]
        assert run(["qnum", "lt", "lin", ",", "lin"]).lines == ["no"]

    def test_bad_descriptor(self):
        report = run(["qnum", "classify", "cubic"])
        assert not report.ok


class TestExitCodes:
    def test_ok_is_zero(self, capsys):
        assert main(["taut", "A | !A"]) == 0
        assert "tautology: yes" in capsys.readouterr().out

    def test_error_is_nonzero(self, capsys):
        assert main(["taut", "A & &"]) == 1
        capsys.readouterr()

    def test_unknown_command_is_nonzero(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_closed_pipe_is_status_one_and_no_traceback(self):
        # About 0.9 MB of output, far past a pipe's buffer, so the CLI is
        # still writing when the reader closes after the first line.
        src = str(Path(plogic.__file__).resolve().parent.parent)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.Popen(
            [sys.executable, "-m", "plogic.cli", "bernoulli", "--r", "1000", "--p", "1/3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert first.startswith(b"0 ")
        assert err == b""

    def test_deep_goal_is_proved_and_checked(self, capsys, tmp_path):
        # A derivable one-atom goal 400 `!` deep, with little stack to spare.
        with recursion_headroom():
            assert main(["prove", "!" * DEEP + "A | !A"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        proof_file = tmp_path / "deep.txt"
        proof_file.write_text(captured.out)
        with recursion_headroom():
            assert main(["check", str(proof_file)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "accepted"


class TestRecursionHeadroom:
    """No command recurses with input depth: each answers input 400 deep
    with 150 frames of stack to spare (`prove` in TestExitCodes)."""

    @staticmethod
    def _run(argv):
        with recursion_headroom():
            report = run(argv)
        assert report.ok, report.lines
        return report.lines

    def test_eval_and_taut(self):
        chain = "!" * DEEP + "A"
        assert self._run(["eval", chain, "--world", "1"]) == ["value: 1"]
        assert self._run(["taut", chain + " | !A"]) == ["tautology: yes"]
        nested = "(" * DEEP + "A -> A" + ")" * DEEP
        assert self._run(["taut", nested]) == ["tautology: yes"]

    def test_prob_and_cond(self, tmp_path):
        dist = tmp_path / "d.txt"
        dist.write_text("1 1/4\n0 3/4\n")
        chain = "!" * DEEP + "A"
        assert self._run(["prob", chain, "--dist", str(dist)]) == ["1/4 0.250000000000"]
        assert self._run(["cond", chain, chain + " | A", "--dist", str(dist)]) \
            == ["1 1.000000000000"]

    def test_classical(self, tmp_path):
        members = tmp_path / "set.txt"
        members.write_text("!" * DEEP + "A\n!A\n")
        assert self._run(["classical", "--set", str(members), "--event", "A"]) \
            == ["1 2 1/2"]

    def test_check(self, tmp_path):
        deep = "!" * DEEP + "A"
        proof_file = tmp_path / "a1.txt"
        proof_file.write_text(f"1. {deep} -> (B -> {deep}) ; axiom A1\n")
        assert self._run(["check", str(proof_file)])[0] == "accepted"


class TestArgumentErrors:
    """Out-of-domain arguments end in exit status 1 and one error line."""

    @pytest.mark.parametrize("argv", [
        ["eval", "A", "--world", "2"],
        ["lln", "--r", "0", "--p", "1/2", "--eps", "1/10"],
        ["lln", "--r", "10", "--p", "3/2", "--eps", "1/10"],
        ["lln", "--r", "10", "--p", "1/2", "--eps", "1/10", "--trials", "-5"],
        ["lln", "--r", "10", "--p", "1/2", "--eps", "1/10", "--trials", "0"],
        ["qnum", "freq", "periodic", "01", "--n", "0"],
        ["qnum", "filter", "finite", "0,1"],
        ["qnum", "eq", "--horizon", "0", "const", "1", ",", "const", "1"],
        ["bernoulli", "--r", "3", "--p", "2"],
        ["bernoulli", "--r", "-1", "--p", "1/2"],
        ["qnum", "filter", "all", "--horizon", "0"],
        ["qnum", "filter", "none", "--horizon", "-5"],
    ])
    def test_one_error_line(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert "Traceback" not in captured.out + captured.err

    def test_run_count_outside_the_runs_is_named(self, capsys):
        assert main(["bernoulli", "--r", "3", "--k", "7", "--p", "1/2"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "error: run count 7 outside 0..3"]

    def test_bad_argument_is_named_on_the_error_line(self, capsys):
        assert main(["bernoulli", "--r", "x", "--p", "1/2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines() == [
            "error: bad arguments: argument --r: invalid int value: 'x'"]
