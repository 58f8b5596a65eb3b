"""End-to-end tests of the command-line front end.

main() is invoked in-process with explicit argv; stdout/stderr are captured
through capsys, files go through tmp_path.  Determinism assertions compare
raw bytes of repeated runs.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from composite_dna import channel, cli, families
from composite_dna.alphabet import Word, alphabet_size, word_from_text, word_to_text
from composite_dna.channel import del_t_rows, del_total, oracle_is_code
from composite_dna.cli import main
from composite_dna.codes_deletion import c1d_contains, c1d_encode
from composite_dna.codes_substitution import doll_size
from composite_dna.vt_core import vt_syndrome


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "kind, e, t, want",
    [
        ("sub-per-row", "1,0", None, channel.sub_per_row(1, 0)),
        ("del-per-row", "0,2", 3, channel.del_per_row(0, 2)),
        ("sub-total", "2", None, channel.sub_total(2)),
        ("del-total", "1", None, del_total(1)),
        ("sub-t-rows", "1,1", 2, channel.sub_t_rows(2, (1, 1))),
        ("del-t-rows", "1", 1, del_t_rows(1, (1,))),
    ],
)
def test_build_model_gives_the_kinds_model(kind, e, t, want):
    assert cli.build_model(kind, e, t) == want


@pytest.mark.parametrize(
    "kind, e, t, message",
    [
        ("sub-total", "1,1", None, "model sub-total takes a single --e value"),
        ("del-total", "", None, "model del-total takes a single --e value"),
        ("sub-t-rows", "1", None, "model sub-t-rows requires --t"),
        ("del-t-rows", "1,1", 1, "expected 1 budgets, got 2"),
        ("sub-per-row", "", None, "per-row models need a budget per row"),
    ],
)
def test_build_model_refuses_flags_the_kind_cannot_take(kind, e, t, message):
    with pytest.raises(ValueError) as info:
        cli.build_model(kind, e, t)
    assert str(info.value) == message


class TestBoundsVerb:
    def test_sp_total_example(self, capsys):
        code, out, err = run(
            capsys,
            "bounds", "--family", "sp-total",
            "--q", "2", "--k", "2", "--n", "2", "--e", "1",
        )
        assert code == 0 and err == ""
        header, row = out.strip().splitlines()
        assert header == "q,k,n,extra,family,value,floor,asymptotic"
        assert row == "2,2,2,e=1,sp-total,3,3,false"

    def test_gspb_row(self, capsys):
        code, out, _ = run(
            capsys, "bounds", "--family", "gspb-deletion", "--k", "2", "--n", "4"
        )
        assert code == 0
        row = out.strip().splitlines()[1]
        assert row.split(",")[4] == "gspb-deletion"

    def test_missing_parameter_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--family", "sp-total", "--q", "2")
        assert code == 1
        assert "required" in err

    # values of each bound flag on the degenerate grid
    DEGENERATE = {
        "q": ("0", "1", "2"),
        "k": ("0", "1", "2"),
        "n": ("0", "1", "2"),
        "e": ("0", "1"),
        "budgets": ("", "1", "1,0", "1,0,1"),
    }

    @pytest.mark.parametrize("family", list(cli.BOUND_FAMILIES))
    def test_degenerate_grid_exits_cleanly(self, family, capsys):
        """Every input of the grid prints one CSV row (exit 0) or one error
        line (exit 1); none raises.  The grid spans the flags the family
        requires: building the parser dominates a call, and the calculators
        read no other grid flag."""
        flags = cli.BOUND_FAMILIES[family][0]
        for values in itertools.product(*(self.DEGENERATE[flag] for flag in flags)):
            argv = ["bounds", "--family", family]
            for flag, value in zip(flags, values):
                argv += [f"--{flag}", value]
            code, out, err = run(capsys, *argv)
            if code == 0:
                assert err == "" and len(out.splitlines()) == 2, argv
            else:
                assert code == 1 and out == "", argv
                assert err.startswith("error: ") and err.count("\n") == 1, argv


class TestEncodeDecode:
    def test_encode_is_deterministic(self, capsys):
        argv = (
            "encode", "--family", "c1d",
            "--k", "2", "--n", "4", "--a", "0", "--message", "0,1",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        word = word_from_text(out1)
        assert c1d_contains(word, 0)

    def test_corrupt_then_decode_restores_message(self, capsys, tmp_path):
        word_file = tmp_path / "codeword.txt"
        received_file = tmp_path / "received.txt"
        code, out, _ = run(
            capsys,
            "encode", "--family", "c1d",
            "--k", "2", "--n", "4", "--a", "0", "--message", "2,1",
            "--out", str(word_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "corrupt", "--model", "del-per-row", "--e", "1,0", "--seed", "7",
            "--in", str(word_file), "--out", str(received_file),
        )
        assert code == 0
        code, out, _ = run(
            capsys,
            "decode", "--family", "c1d", "--a", "0", "--in", str(received_file),
        )
        assert code == 0
        assert out.strip() == "2,1"

    def test_corrupt_is_seed_deterministic(self, capsys, tmp_path):
        word_file = tmp_path / "word.txt"
        run(
            capsys,
            "encode", "--family", "lme1",
            "--k", "3", "--n", "6", "--a", "0", "--message", "1,2,3",
            "--out", str(word_file),
        )
        argv = (
            "corrupt", "--model", "sub-total", "--e", "1", "--seed", "5",
            "--in", str(word_file),
        )
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_seed_env_var_is_the_default(self, capsys, tmp_path, monkeypatch):
        word_file = tmp_path / "word.txt"
        run(
            capsys,
            "encode", "--family", "doll", "--k", "2", "--n", "4",
            "--message", "1,2", "--out", str(word_file),
        )
        monkeypatch.setenv("COMPOSITE_DNA_SEED", "11")
        _, out_env, _ = run(
            capsys,
            "corrupt", "--model", "sub-per-row", "--e", "1,0",
            "--in", str(word_file),
        )
        _, out_flag, _ = run(
            capsys,
            "corrupt", "--model", "sub-per-row", "--e", "1,0", "--seed", "11",
            "--in", str(word_file),
        )
        assert out_env == out_flag

    def test_payload_family_with_spec_file(self, capsys, tmp_path):
        word_file = tmp_path / "codeword.txt"
        spec_file = tmp_path / "codeword.spec"
        code, _, _ = run(
            capsys,
            "encode", "--family", "c2d", "--k", "2", "--t", "2", "--m", "4",
            "--message", "1,0,2,1",
            "--out", str(word_file), "--spec-out", str(spec_file),
        )
        assert code == 0
        spec_text = spec_file.read_text()
        assert "family=c2d" in spec_text and "m=4" in spec_text
        # a clean transmission decoded with parameters from the spec file
        word = word_from_text(word_file.read_text())
        received_file = tmp_path / "received.txt"
        received_file.write_text(word_to_text(word))
        code, out, _ = run(
            capsys,
            "decode", "--spec", str(spec_file), "--in", str(received_file),
        )
        assert code == 0
        assert word_from_text(out).ranks() == (1, 0, 2, 1)

    def test_spec_file_states_the_built_spec(self, capsys):
        # c2d is binary and takes no --a: the spec says q=2 and leaves a out
        code, out, _ = run(
            capsys,
            "encode", "--family", "c2d", "--q", "3", "--k", "3", "--t", "2",
            "--m", "4", "--a", "7", "--message", "3,2,1,0", "--spec-out", "-",
        )
        assert code == 0
        assert out.splitlines()[-6:] == ["family=c2d", "q=2", "k=3", "t=2", "m=4", "n=12"]

    def test_decode_breach_from_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2 4\n010\n001\n")
        code, out, err = run(
            capsys, "decode", "--family", "c1d", "--a", "0", "--in", str(bad)
        )
        assert code == 1
        assert err.startswith("error:")

    def test_contains(self, capsys, tmp_path):
        word_file = tmp_path / "word.txt"
        run(
            capsys,
            "encode", "--family", "c1d",
            "--k", "2", "--n", "4", "--a", "0", "--message", "0,1",
            "--out", str(word_file),
        )
        code, out, _ = run(
            capsys, "contains", "--family", "c1d", "--a", "0",
            "--in", str(word_file),
        )
        assert code == 0 and out.strip() == "true"
        code, out, _ = run(
            capsys, "contains", "--family", "c1d", "--a", "1",
            "--in", str(word_file),
        )
        assert code == 0 and out.strip() == "false"

    def test_congruence_decode(self, capsys, tmp_path):
        word = Word.from_ranks((2, 0, 3, 1), 2, 3)
        targets = [
            sum((i + 1) ** power * vt_syndrome(row) for i, row in enumerate(word.rows()))
            % 5
            for power in range(2)
        ]
        received = tmp_path / "received.txt"
        rows = word.rows()
        received.write_text(
            "2 3 4\n"
            + "\n".join(
                "".join(map(str, row[:3] if i == 0 else row))
                for i, row in enumerate(rows)
            )
            + "\n"
        )
        code, out, _ = run(
            capsys,
            "decode", "--family", "cong-binary-t",
            "--p", "5", "--targets", ",".join(map(str, targets)),
            "--in", str(received),
        )
        assert code == 0
        assert word_from_text(out) == word

    def test_congruence_decode_with_one_target(self, capsys, tmp_path):
        # rows 0100 and 1100: VT sums 2 + 3 = 5 mod 7; row 1 lost a symbol
        word = Word.from_rows(["0100", "1100"], q=2)
        (tmp_path / "word.txt").write_text(word_to_text(word))
        (tmp_path / "received.txt").write_text("2 2 4\n100\n1100\n")
        flags = ("--family", "cong-binary-t", "--p", "7", "--targets", "5")
        code, out, _ = run(capsys, "contains", *flags, "--in", str(tmp_path / "word.txt"))
        assert (code, out) == (0, "true\n")
        code, out, err = run(
            capsys, "decode", *flags, "--in", str(tmp_path / "received.txt")
        )
        assert (code, err) == (0, "")
        assert word_from_text(out) == word

    @pytest.mark.parametrize("verb", ["contains", "decode"])
    @pytest.mark.parametrize("family", ["cong-binary-t", "cong-qary-t"])
    def test_empty_congruence_targets_are_a_domain_error(
        self, verb, family, capsys, tmp_path
    ):
        word_file = tmp_path / "word.txt"
        word_file.write_text("2 2 4\n0100\n1100\n")
        code, out, err = run(
            capsys, verb, "--family", family, "--p", "17", "--targets", "",
            "--in", str(word_file),
        )
        assert (code, out) == (1, "")
        assert err == "error: the congruence targets are empty; give at least one\n"


class TestVerifyCode:
    def test_non_code_prints_witness(self, capsys, tmp_path):
        book = tmp_path / "book.txt"
        blocks = [
            word_to_text(Word.from_ranks((0, 0), 2, 2)),
            word_to_text(Word.from_ranks((1, 0), 2, 2)),
        ]
        book.write_text("\n".join(blocks))
        code, out, _ = run(
            capsys,
            "verify-code", "--model", "sub-total", "--e", "1",
            "--in", str(book),
        )
        assert code == 0
        assert out.splitlines()[0] == "verdict: false"
        assert "witness codeword A:" in out
        assert "shared received:" in out

    def test_code_verdict_true(self, capsys, tmp_path):
        words = [
            Word.from_ranks(ranks, 2, 2)
            for ranks in itertools.product(range(3), repeat=3)
            if c1d_contains(Word.from_ranks(ranks, 2, 2), 0)
        ]
        book = tmp_path / "book.txt"
        book.write_text("\n".join(word_to_text(w) for w in words))
        code, out, _ = run(
            capsys,
            "verify-code", "--model", "del-total", "--e", "1",
            "--in", str(book),
        )
        assert code == 0
        assert out.strip() == "verdict: true"

    @pytest.mark.parametrize(
        "model, e", [("sub-total", "0"), ("sub-per-row", "1,0"), ("del-total", "1")]
    )
    def test_words_of_another_q_or_n_share_no_output(self, model, e, capsys, tmp_path):
        """A q=2 and a q=3 word with the same digit rows, and a word of
        another length, are a code: their outputs carry q and n."""
        rows = ((0, 1), (1, 1))
        words = [
            Word.from_rows(rows, 2),
            Word.from_rows(rows, 3),
            Word.from_rows(((0, 1, 1), (1, 1, 1)), 2),
        ]
        assert oracle_is_code(words, cli.build_model(model, e, None)).is_code
        book = tmp_path / "book.txt"
        book.write_text("\n".join(word_to_text(w) for w in words))
        code, out, _ = run(capsys, "verify-code", "--model", model, "--e", e, "--in", str(book))
        assert (code, out) == (0, "verdict: true\n")

    @pytest.mark.parametrize(
        "n, e, verdict, built",
        [
            (6, "1", "verdict: true", 0),
            # the whole c1d (k=2, n=7, a=0) code beyond its guarantee
            (7, "2", "verdict: false", 1),
        ],
    )
    def test_only_the_witness_is_a_checked_output(
        self, n, e, verdict, built, capsys, tmp_path, monkeypatch
    ):
        """The oracle hashes raw digit rows: a ReceivedRows is built, and
        checked, for the witness alone."""
        # c1d (k=2, a=0) carries n - 2 message digits at n = 6 and 7
        words = [c1d_encode(msg, 0, 2, n) for msg in itertools.product(range(3), repeat=n - 2)]
        book = tmp_path / "book.txt"
        book.write_text("\n".join(word_to_text(w) for w in words))
        calls = []
        original = channel.ReceivedRows.__post_init__

        def counting(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(channel.ReceivedRows, "__post_init__", counting)
        code, out, _ = run(capsys, "verify-code", "--model", "del-total", "--e", e, "--in", str(book))
        assert (code, out.splitlines()[0], len(calls)) == (0, verdict, built)


class TestCodebookReader:
    """The codebook file of verify-code: blocks of a 'q k n' header plus k
    digit rows or one rank line, separated by blank or whitespace-only
    lines.  Each case pins the exact output, diagnostics and exit code."""

    @staticmethod
    def verify(capsys, tmp_path, text, model="sub-total", e="1"):
        book = tmp_path / "book.txt"
        book.write_text(text)
        return run(capsys, "verify-code", "--model", model, "--e", e, "--in", str(book))

    @staticmethod
    def witness(a, b, shared):
        return (
            "verdict: false\n"
            f"witness codeword A:\n{a}witness codeword B:\n{b}shared received:\n{shared}"
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty codebook file"),
            ("\n  \n\t\n", "empty codebook file"),
            ("2 2\n00\n01\n", "expected header 'q k n', got '2 2'"),
            ("2 x 2\n00\n01\n", "invalid literal for int() with base 10: 'x'"),
            ("11 2 2\n00\n01\n", "bad header values q=11 k=2 n=2"),
            ("2 1 2\n00\n", "bad header values q=2 k=1 n=2"),
            ("2 2 0\n0\n1\n", "bad header values q=2 k=2 n=0"),
            ("2 2 2\n0a\n01\n", "bad digit row '0a' (expected 2 digits)"),
            ("2 2 3\n001\n01\n", "bad digit row '01' (expected 3 digits)"),
            ("2 2 2\n00\n01\n\n2 2 3\n000\n0111\n", "bad digit row '0111' (expected 3 digits)"),
            ("2 2 2\n00\n01\n11\n", "expected 2 digit rows or 1 rank line, got 3 lines"),
            ("2 2 2\n", "expected 2 digit rows or 1 rank line, got 0 lines"),
            ("2 2 3\n0,1\n", "expected 3 ranks, got 2"),
            ("2 2 3\n0,1,3\n", "rank 3 out of range for Phi_{2,2} (size 3)"),
            ("2 2 2\n10\n01\n", "column 0 is not nondecreasing over Sigma_2: (1, 0)"),
            ("2 2 2\n02\n12\n", "column 1 is not nondecreasing over Sigma_2: (2, 2)"),
            # one header line over every block: the first fault is still named
            (
                "2 2 2\n00\n01\n\n2 2 2\n01\n11\n\n2 2 2\n00\n02\n\n2 2 2\n11\n11\n",
                "column 1 is not nondecreasing over Sigma_2: (0, 2)",
            ),
            (
                "2 2 2\n00\n01\n\n2 2 2\n10\n01\n\n2 2 2\n00\n11\n",
                "column 0 is not nondecreasing over Sigma_2: (1, 0)",
            ),
            (
                "2 2 2\n00\n01\n\n2 2 2\n01\n11\n\n2 2 2\n00\n1\n",
                "bad digit row '1' (expected 2 digits)",
            ),
            (
                "2 2 2\n00\n0\n\n2 2 2\n01\n111\n",
                "bad digit row '0' (expected 2 digits)",
            ),
        ],
        ids=[
            "empty", "blank-only", "short-header", "header-not-int", "q-too-large",
            "k-too-small", "n-too-small", "bad-digit-row", "short-digit-row",
            "long-row-in-second-block", "too-many-lines", "header-only",
            "too-few-ranks", "rank-out-of-range", "column-no-letter", "digit-outside-q",
            "digit-outside-q-in-block-3-of-4", "column-no-letter-in-block-2",
            "short-row-in-last-block", "short-and-long-rows-of-one-total-length",
        ],
    )
    def test_malformed_book_is_a_domain_error(self, text, message, capsys, tmp_path):
        assert self.verify(capsys, tmp_path, text) == (1, "", f"error: {message}\n")

    def test_blocks_split_on_several_blank_or_whitespace_lines(self, capsys, tmp_path):
        text = "2 2 2\n00\n01\n \n\t\n\n  2 2 2  \n 00 \n 11\n\n\n"
        expected = self.witness("2 2 2\n00\n01\n", "2 2 2\n00\n11\n", "2 2 2\n00\n01\n")
        assert self.verify(capsys, tmp_path, text) == (0, expected, "")

    def test_rank_line_block(self, capsys, tmp_path):
        """A rank line reads as the word with those ranks: (0, 1, 2) is the
        digit block 001/011, so a book of the two is one word."""
        same = "2 2 3\n0,1,2\n\n2 2 3\n001\n011\n"
        assert self.verify(capsys, tmp_path, same) == (0, "verdict: true\n", "")
        near = "2 2 3\n0,1,2\n\n2 2 3\n000\n011\n"
        expected = self.witness("2 2 3\n000\n011\n", "2 2 3\n001\n011\n", "2 2 3\n000\n011\n")
        assert self.verify(capsys, tmp_path, near) == (0, expected, "")

    def test_book_mixing_q_k_and_n(self, capsys, tmp_path):
        blocks = [
            "2 2 2\n00\n01\n", "3 2 2\n00\n01\n", "2 3 2\n00\n01\n11\n",
            "2 2 3\n000\n011\n", "2 2 2\n01\n01\n",
        ]
        expected = self.witness("2 2 2\n00\n01\n", "2 2 2\n01\n01\n", "2 2 2\n00\n01\n")
        assert self.verify(capsys, tmp_path, "\n".join(blocks)) == (0, expected, "")
        assert self.verify(capsys, tmp_path, "\n".join(blocks[:4])) == (0, "verdict: true\n", "")


class TestTransformAndTable:
    def test_shift_then_inverse_is_identity(self, capsys, tmp_path):
        word_file = tmp_path / "word.txt"
        word = Word.from_ranks((0, 2, 1, 3), 2, 3)
        word_file.write_text(word_to_text(word))
        shifted = tmp_path / "shifted.txt"
        code, _, _ = run(
            capsys,
            "transform", "--map", "shift",
            "--in", str(word_file), "--out", str(shifted),
        )
        assert code == 0
        assert word_from_text(shifted.read_text()) != word
        code, out, _ = run(
            capsys, "transform", "--map", "shift-inverse", "--in", str(shifted)
        )
        assert code == 0
        assert out == word_to_text(word)

    def test_doll_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "doll", "--k", "2", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "l,supports,fills,inner,class_size"
        assert len(lines) == 5
        total = sum(int(line.split(",")[-1]) for line in lines[1:])
        assert total == doll_size(3, 2)

    def test_doll_table_at_long_length_sums_to_the_code_size(self, capsys):
        # for k = 2 the fill alphabet has one letter, and the binary C(l)
        # has l.bit_length() check symbols for l >= 3
        code, out, _ = run(capsys, "table", "doll", "--k", "2", "--n", "512")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 514
        total = sum(int(line.split(",")[-1]) for line in lines[1:])
        inner = [1, 1, 1] + [2 ** (l - l.bit_length()) for l in range(3, 513)]
        assert total == doll_size(512, 2) == sum(math.comb(512, l) * inner[l] for l in range(513))


class TestRoundtrip:
    def test_c1d_exhaustive_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip", "--family", "c1d", "--k", "2", "--n", "4", "--a", "0",
        )
        assert code == 0
        assert "failures=0" in out
        assert out.strip().endswith("PASS")

    def test_lme1_exhaustive_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip", "--family", "lme1", "--k", "2", "--n", "7", "--a", "0",
        )
        assert code == 0
        assert "failures=0" in out and "PASS" in out

    def test_c2s_sampled_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "roundtrip", "--family", "c2s",
            "--q", "2", "--k", "3", "--t", "2", "--m", "3",
            "--trials", "2", "--seed", "3",
        )
        assert code == 0
        assert "failures=0" in out and "PASS" in out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_a_sweep_of_no_trials_is_a_domain_error(self, trials, capsys):
        code, out, err = run(
            capsys,
            "roundtrip", "--family", "c2d", "--k", "3", "--t", "2", "--m", "4",
            "--trials", trials,
        )
        assert (code, out) == (1, "")
        assert err == f"error: --trials must be at least 1, got {trials}\n"

    def test_bad_parameters_fail_before_any_trial(self, capsys):
        code, out, err = run(
            capsys,
            "roundtrip", "--family", "c2s",
            "--q", "2", "--k", "3", "--t", "4", "--m", "3",
        )
        assert code == 1
        assert err.startswith("error:")
        assert out == ""


def _drop(rows, hits):
    return tuple(
        row[: hits[i]] + row[hits[i] + 1 :] if i in hits else row
        for i, row in enumerate(rows)
    )


def _reference_deletions(word, t):
    """The reference sweep, position by position: (label, rows) for one
    deletion in each of <= t rows, duplicates included."""
    for size in range(t + 1):
        for subset in itertools.combinations(range(word.k), size):
            for positions in itertools.product(range(word.n), repeat=size):
                hits = dict(zip(subset, positions))
                yield f"pattern={sorted(hits.items())}", _drop(word.rows(), hits)


def _reference_any_one_deletion(word):
    for row in range(word.k):
        for pos in range(word.n):
            yield f"pattern={[(row, pos)]}", _drop(word.rows(), {row: pos})


def _random_words(seed, count):
    """(word, t) pairs of seeded random tiny words: q in {2,3,4}, k in {2,3},
    n <= 6, t <= k."""
    rng = random.Random(seed)
    for _ in range(count):
        q, k = rng.choice((2, 3, 4)), rng.choice((2, 3))
        ranks = [rng.randrange(alphabet_size(q, k)) for _ in range(rng.randint(1, 6))]
        yield Word.from_ranks(ranks, q, k), rng.randint(1, k)


def _tally(outputs):
    """{rows: count} and {rows: label} of an output sweep, labelled as
    roundtrip labels its first failure; each output must come once."""
    counts, labels = {}, {}
    for errors, received, count in outputs:
        assert received not in counts
        counts[received], labels[received] = count, f"pattern={list(errors)}"
    return counts, labels


def _first_labels(reference):
    first = {}
    for label, rows in reference:
        first.setdefault(rows, label)
    return first


class TestDeletionPatterns:
    """The deletion sweeps of roundtrip, channel.outputs under the native
    models of c2d/c3d/c4d (del-t-rows t (1,...,1)) and of c1d (del-total 1),
    yield each distinct output once, weighted by the number of
    position-by-position errors that give it, under the label of the first."""

    @pytest.mark.parametrize("seed", range(4))
    def test_t_row_deletions_match_the_position_sweep(self, seed):
        for word, t in _random_words(seed, 40):
            counts, labels = _tally(channel.outputs(word, del_t_rows(t, [1] * t)))
            reference = list(_reference_deletions(word, t))
            assert counts == Counter(rows for _, rows in reference)
            assert labels == _first_labels(reference)
            assert sum(counts.values()) == sum(
                math.comb(word.k, s) * word.n**s for s in range(t + 1)
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_any_one_deletion_matches_the_position_sweep(self, seed):
        for word, _ in _random_words(seed, 40):
            counts, labels = _tally(channel.outputs(word, del_total(1)))
            reference = list(_reference_any_one_deletion(word))
            assert counts == Counter(rows for _, rows in reference)
            assert labels == _first_labels(reference)
            assert sum(counts.values()) == word.k * word.n

    def test_runs(self):
        assert channel.run_spans((0, 0, 1, 2, 2, 2, 0)) == [(0, 2), (2, 1), (3, 3), (6, 1)]


def _counting(monkeypatch, name):
    """Replace families.<name> with a wrapper that records (first argument,
    result) of each call, and return that record."""
    original, seen = getattr(families, name), []

    def counted(*args):
        result = original(*args)
        seen.append((args[0], result))
        return result

    monkeypatch.setattr(families, name, counted)
    return seen


class TestDecodeCalls:
    """roundtrip decodes each distinct received word of a deletion sweep
    once; counted in calls, not timed."""

    @pytest.mark.parametrize(
        "family,argv",
        [
            ("c2d", "--k 3 --t 2 --m 4 --trials 1 --seed 1"),
            ("c4d", "--q 3 --k 3 --t 2 --m 3 --trials 1 --seed 1"),
        ],
    )
    def test_one_decode_per_distinct_word(self, family, argv, monkeypatch, capsys):
        words = _counting(monkeypatch, f"{family}_encode")
        decoded = _counting(monkeypatch, f"{family}_decode")
        code, out, _ = run(capsys, "roundtrip", "--family", family, *argv.split())
        assert code == 0 and "PASS" in out
        ((_, word),) = words
        distinct = {rows for _, rows in _reference_deletions(word, 2)}
        assert len(decoded) == len(distinct)
        assert {received.rows for received, _ in decoded} == distinct

    def test_substitution_sweep_decodes_once_per_case(self, monkeypatch, capsys):
        decoded = _counting(monkeypatch, "c2s_decode")
        code, out, _ = run(
            capsys,
            "roundtrip", "--family", "c2s",
            "--q", "3", "--k", "2", "--t", "2", "--m", "3",
            "--trials", "1", "--seed", "1",
        )
        assert code == 0
        assert f"cases={len(decoded)} failures=0" in out


# tiny roundtrip sizes of every family with a roundtrip verb
ROUNDTRIP_SIZES = {
    "c1d": {"k": 2, "n": 4, "a": 0},
    "lme1": {"k": 2, "n": 5, "a": 0},
    "doll": {"k": 2, "n": 4},
    "c2d": {"k": 3, "t": 2, "m": 4, "trials": 2},
    "c3d": {"q": 3, "k": 2, "m": 3, "trials": 2},
    "c4d": {"q": 3, "k": 3, "t": 2, "m": 3, "trials": 1},
    "c1s": {"q": 3, "k": 2, "m": 3, "trials": 2},
    "c2s": {"q": 3, "k": 2, "t": 2, "m": 3, "trials": 1},
}


def _closed_form_cases(family, p, spec):
    """cases= of a sweep: trials x sum_{s<=t} C(k,s) per_row^s, with per_row
    n for deletions and n(q-1) for substitutions; messages x k n for c1d,
    messages x (1 + k n) for lme1 and messages x n for doll."""
    k = p["k"]
    if family in ("c1d", "lme1", "doll"):
        symbols, length = families.FAMILIES[family].message_space(spec)
        n, messages = p["n"], symbols**length
        per_message = {"c1d": k * n, "lme1": 1 + k * n, "doll": n}[family]
        return messages * per_message
    q, t = p.get("q", 2), p.get("t", 1)
    n = families.FAMILIES[family].encode(Word.from_ranks([0] * p["m"], q, k), spec).n
    per_row = n if family in ("c2d", "c3d", "c4d") else n * (q - 1)
    return p["trials"] * sum(math.comb(k, s) * per_row**s for s in range(t + 1))


class TestPatternsContract:
    def test_sizes_cover_every_roundtrip_family(self):
        assert set(ROUNDTRIP_SIZES) == set(cli._families_with("roundtrip"))

    @pytest.mark.parametrize("family", list(ROUNDTRIP_SIZES))
    def test_patterns_and_cases(self, family, capsys):
        p = ROUNDTRIP_SIZES[family]
        argv = ["roundtrip", "--family", family, "--seed", "2"]
        for key, value in p.items():
            argv += [f"--{key}", str(value)]
        fam = families.FAMILIES[family]
        spec = fam.spec(**{key: p[key] for key in fam.params if key in p})
        model = fam.model(spec)
        for _, message in itertools.islice(fam.messages(spec, p.get("trials"), 2), 3):
            word = fam.encode(message, spec)
            for item in channel.outputs(word, model):
                assert len(item) == 3
                errors, received, count = item
                assert all(0 <= row < word.k for row, _ in errors)
                assert type(count) is int and count > 0
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected = _closed_form_cases(family, p, spec)
        assert out.splitlines()[1] == f"cases={expected} failures=0"


class TestModelContract:
    """Each roundtrip family names the model its code corrects: a sampled
    codebook is a code for it by the brute-force oracle.  doll runs at n = 5,
    where its code corrects no substitution outside the first row."""

    @pytest.mark.parametrize("family", list(ROUNDTRIP_SIZES))
    def test_sampled_codebook_is_a_code_for_the_native_model(self, family):
        p = {**ROUNDTRIP_SIZES[family], "trials": 8}
        if family == "doll":
            p["n"] = 5
        fam = families.FAMILIES[family]
        spec = fam.spec(**{key: p[key] for key in fam.params if key in p})
        messages = itertools.islice(fam.messages(spec, p["trials"], 5), 12)
        book = [fam.encode(message, spec) for _, message in messages]
        assert len(set(book)) > 1
        assert oracle_is_code(book, fam.model(spec))


# flags each verb requires, per family, in the order they are checked
REQUIRED = {
    "c1d": {
        "encode": ("k", "n", "a", "message"),
        "decode": ("a",),
        "contains": ("a",),
        "roundtrip": ("k", "n", "a"),
    },
    "lme1": {
        "encode": ("k", "n", "a", "message"),
        "decode": ("a",),
        "contains": ("a",),
        "roundtrip": ("k", "n", "a"),
    },
    "doll": {
        "encode": ("k", "n", "message"),
        "decode": ("k", "n"),
        "roundtrip": ("k", "n"),
    },
    "c2d": dict.fromkeys(("encode", "decode", "roundtrip"), ("k", "t", "m")),
    "c3d": dict.fromkeys(("encode", "decode", "roundtrip"), ("q", "k", "m")),
    "c4d": dict.fromkeys(("encode", "decode", "roundtrip"), ("q", "k", "m", "t")),
    "c1s": dict.fromkeys(("encode", "decode", "roundtrip"), ("q", "k", "m")),
    "c2s": dict.fromkeys(("encode", "decode", "roundtrip"), ("q", "k", "m", "t")),
    "cong-binary-t": dict.fromkeys(("decode", "contains"), ("p", "targets")),
    "cong-qary-1": dict.fromkeys(("decode", "contains"), ("a",)),
    "cong-qary-t": dict.fromkeys(("decode", "contains"), ("p", "targets")),
}

# valid values for every flag a family takes
VALUES = {
    "c1d": {"k": "2", "n": "4", "a": "0", "message": "0,1"},
    "lme1": {"k": "3", "n": "6", "a": "0", "message": "1,2,3"},
    "doll": {"k": "2", "n": "4", "message": "1,2"},
    "c2d": {"k": "3", "t": "2", "m": "4", "message": "1,0,2,3"},
    "c3d": {"q": "3", "k": "2", "m": "3", "message": "5,0,3"},
    "c4d": {"q": "3", "k": "3", "t": "2", "m": "3", "message": "9,4,1"},
    "c1s": {"q": "3", "k": "2", "m": "5", "message": "0,5,3,1,4"},
    "c2s": {"q": "3", "k": "2", "t": "2", "m": "3", "message": "2,5,1"},
    "cong-binary-t": {"p": "7", "targets": "6,1"},
    "cong-qary-1": {"a": "11"},
    "cong-qary-t": {"p": "13", "targets": "3,9"},
}


@pytest.mark.parametrize(
    "family,verb",
    [(family, verb) for family, verbs in REQUIRED.items() for verb in verbs],
)
def test_missing_flag_is_a_domain_error(family, verb, capsys, tmp_path):
    word_file = tmp_path / "word.txt"
    word_file.write_text("2 2 4\n0000\n1001\n")
    required = REQUIRED[family][verb]
    extra = []
    if verb == "encode" and "message" not in required:
        extra = ["--message", VALUES[family]["message"]]
    if verb in ("decode", "contains"):
        extra = ["--in", str(word_file)]
    for missing in required:
        argv = [verb, "--family", family, *extra]
        for flag in required:
            if flag != missing:
                argv += [f"--{flag}", VALUES[family][flag]]
        assert run(capsys, *argv) == (
            1,
            "",
            f"error: --{missing} is required for family {family}\n",
        )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("decode", "--family", "c2d"), "--k is required for family c2d"),
        (
            ("roundtrip", "--family", "c4d", "--q", "3", "--k", "3", "--m", "3"),
            "--t is required for family c4d",
        ),
        (
            ("roundtrip", "--family", "c3d", "--k", "3", "--m", "8"),
            "--q is required for family c3d",
        ),
    ],
    ids=["decode-c2d", "roundtrip-c4d", "roundtrip-c3d"],
)
def test_missing_spec_flag_is_not_a_crash(argv, message, capsys, tmp_path):
    received = tmp_path / "r.txt"
    received.write_text("2 3 12\n00010100100\n001101000110\n10110100110\n")
    if argv[0] == "decode":
        argv += ("--in", str(received))
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("corrupt", "--model", "sub-total", "--e", "1", "--in", "{missing}"),
        ("verify-code", "--model", "sub-total", "--e", "1", "--in", "{directory}"),
        (
            "encode", "--family", "c1d", "--k", "2", "--n", "4", "--a", "0",
            "--message", "0,1", "--out", "{missing_dir}",
        ),
    ],
    ids=["missing-input", "input-is-a-directory", "output-in-missing-directory"],
)
def test_unreadable_or_unwritable_file_is_a_domain_error(argv, capsys, tmp_path):
    paths = {
        "missing": str(tmp_path / "missing.txt"),
        "directory": str(tmp_path),
        "missing_dir": str(tmp_path / "no-such-dir" / "out.txt"),
    }
    code, out, err = run(capsys, *(arg.format(**paths) for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestUsageErrors:
    def test_missing_family_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["encode"])
        assert info.value.code == 2

    def test_unknown_verb_is_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_a_verb_takes_the_parameter_flags_of_its_families(self):
        """Each family verb's parameter flags are the union of the params of
        the families that serve it: 25 settable flags over the four verbs."""
        every = {name for family in families.FAMILIES.values() for name in family.params}
        (verbs,) = [
            action.choices for action in cli.build_parser()._actions if action.dest == "verb"
        ]
        total = 0
        for verb in ("encode", "decode", "contains", "roundtrip"):
            flags = {action.dest for action in verbs[verb]._actions} & every
            assert flags == {
                name
                for family in families.FAMILIES.values()
                if verb in family.flags
                for name in family.params
            }, verb
            total += len(flags)
        assert total == 25

    @pytest.mark.parametrize(
        "argv",
        [
            "encode --family c2d --k 3 --t 2 --m 4 --message 0,1,2,3 --p 7",
            "encode --family c1d --k 2 --n 6 --a 0 --message 0,0,0,0 --targets 1",
            "roundtrip --family c2d --k 3 --t 2 --m 4 --p 7",
            "roundtrip --family c1s --q 3 --k 2 --m 5 --targets 1,2",
            "contains --family c1d --k 2 --n 6 --a 0 --q 2",
            "contains --family cong-qary-1 --a 0 --m 4",
        ],
    )
    def test_a_flag_no_family_of_the_verb_reads_is_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv.split())
        assert info.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err


class TestParserReuse:
    """main builds its parser once per process; a reused parser must answer
    every call as a fresh one would, also after a usage error."""

    CALLS = [
        "bounds --family sp-total --q 2 --k 2 --n 4 --e 1",
        "roundtrip --family c2d --k 3 --t 2 --m 4 --trials 1 --seed 1",
        "encode",
        "roundtrip --family doll --k 2 --n 3 --trials 2 --seed 3",
        "bounds --family sp-total --q 3 --k 2 --n 3 --e 1",
    ]

    @staticmethod
    def call(capsys, argv):
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = ("exit", exc.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_reused_parser_answers_like_a_fresh_one(self, capsys):
        fresh = []
        for argv in self.CALLS:
            cli.build_parser.cache_clear()
            fresh.append(self.call(capsys, argv))
        cli.build_parser.cache_clear()
        reused = [self.call(capsys, argv) for argv in self.CALLS]
        assert reused == fresh
        assert cli.build_parser.cache_info().misses == 1
        assert fresh[2][0] == ("exit", 2) and fresh[2][2].startswith("usage:")
        assert [code for code, _, _ in fresh[:2] + fresh[3:]] == [0, 0, 0, 0]
