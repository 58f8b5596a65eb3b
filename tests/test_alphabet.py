"""Tests for the composite alphabet and the rank bijection."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from composite_dna import alphabet
from composite_dna.alphabet import (
    Letter,
    Word,
    all_letters,
    alphabet_size,
    column_rank,
    column_ranks,
    letter_is_valid,
    letter_rank,
    letter_unrank,
    letter_values,
    word_from_text,
    word_to_rank_text,
    word_to_text,
    words_from_blocks,
)


# ---------------------------------------------------------------------------
# independent oracle: enumerate Phi_{q,k} the slow way and sort by v(sigma)
# ---------------------------------------------------------------------------

def oracle_letters(q, k):
    '''all nondecreasing k-tuples over Sigma_q, sorted by the v-value'''
    cols = [t for t in product(range(q), repeat=k) if all(t[i] <= t[i + 1] for i in range(k - 1))]

    def v(t):
        return sum(t.count(i) * (k + 1) ** (i - 1) for i in range(1, q))

    vals = sorted(v(t) for t in cols)
    assert len(set(vals)) == len(cols), "v must be injective on letters"
    return sorted(cols, key=v), vals


def test_alphabet_size_formula():
    assert alphabet_size(2, 2) == 3
    assert alphabet_size(3, 2) == 6
    assert alphabet_size(2, 3) == 4
    assert alphabet_size(4, 3) == 20
    # edge case used by the bound calculators
    assert alphabet_size(1, 5) == 1
    assert alphabet_size(3, 0) == 1


@pytest.mark.parametrize("q,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 4)])
def test_rank_bijection_matches_oracle(q, k):
    cols, vals = oracle_letters(q, k)
    assert len(cols) == alphabet_size(q, k)
    assert letter_values(q, k) == tuple(vals)
    for r, digits in enumerate(cols):
        assert letter_rank(Letter(digits, q)) == r
        assert letter_unrank(r, q, k).digits == digits


def test_known_rank_values():
    # A_{3,2} = {0, 1, 2, 3, 4, 6}; the letter [1,2] has v = 1*1 + 1*3 = 4 -> rank 4
    assert letter_values(3, 2) == (0, 1, 2, 3, 4, 6)
    assert letter_rank(Letter((1, 2), 3)) == 4
    assert letter_rank(Letter((2, 2), 3)) == 5
    assert letter_unrank(5, 3, 2).digits == (2, 2)
    # binary: rank = number of ones
    assert letter_rank(Letter((0, 1, 1), 2)) == 2


def test_binary_rank_is_ones_count():
    for k in (2, 3, 4, 5):
        for lt in all_letters(2, k):
            assert letter_rank(lt) == sum(lt.digits)


def test_letter_validation():
    assert letter_is_valid((0, 1, 1), 2)
    assert not letter_is_valid((1, 0), 2)
    assert not letter_is_valid((0, 2), 2)
    # digits are ints, as column_rank reads them: a float or a str is none
    for column in ((0, 0.5), (0, "1")):
        assert not letter_is_valid(column, 2)
        with pytest.raises(ValueError):
            column_rank(column, 2)
    with pytest.raises(ValueError):
        Letter((1, 0), 2)
    with pytest.raises(ValueError):
        Letter((0, 3), 3)
    with pytest.raises(ValueError):
        Letter((0,), 2)  # k >= 2
    with pytest.raises(ValueError):
        letter_unrank(6, 3, 2)


def test_letters_take_the_one_digit_rule():
    """column_rank, and Letter through it, refuse a digit that is no int of
    Sigma_q as letter_is_valid does, 1.0 too, although it hashes as 1."""
    for column in ((0, 1.0), (0, 1.5), (0, "1")):
        assert not letter_is_valid(column, 2)
        with pytest.raises(ValueError, match="invalid letter over Sigma_2"):
            column_rank(column, 2)
        with pytest.raises(ValueError, match="invalid letter over Sigma_2"):
            Letter(column, 2)
    assert Letter([0, 1], 2).digits == (0, 1) and column_rank((0, 1), 2) == 1


@pytest.mark.parametrize(
    "q, k",
    [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4), (2, 9), (4, 5)],
)
def test_column_ranks_of_packed_rows_are_each_columns_column_rank(q, k):
    """column_ranks reads k = len(rows) packed rows; over every column of
    Sigma_q^k it gives column_rank's rank, or None where column_rank
    refuses the column."""
    columns = list(product(range(q), repeat=k))
    rows = tuple(bytes(column[i] for column in columns) for i in range(k))

    def rank_or_none(column):
        try:
            return column_rank(column, q)
        except ValueError:
            return None

    assert column_ranks(rows, q) == tuple(map(rank_or_none, columns))


def test_column_ranks_refuse_a_row_that_is_not_bytes():
    """A row of ints, the column (0, 1.0) among them, is no packed row: the
    lookup would rank that column 1 where column_rank refuses it."""
    for rows in ([(0,), (1.0,)], [b"\0", (1,)], [b"\0", bytearray(b"\1")], ["0", "1"]):
        with pytest.raises(ValueError, match="packed rows"):
            column_ranks(rows, 2)
    assert column_ranks([b"\0", b"\1"], 2) == (column_rank((0, 1), 2),)


def test_word_row_column_round_trip():
    # 3 x 3 binary word from its rows
    rows = [(0, 0, 0), (0, 1, 1), (1, 1, 1)]
    w = Word.from_rows(rows, 2)
    assert w.q == 2 and w.k == 3 and w.n == 3
    assert w.rows() == tuple(rows)
    assert w.ranks() == (1, 2, 2)
    assert Word.from_ranks(w.ranks(), 2, 3) == w


def test_word_rejects_bad_columns():
    with pytest.raises(ValueError):
        Word.from_rows([(1, 0), (0, 1)], 2)  # column 0 decreasing
    with pytest.raises(ValueError):
        Word.from_rows([(0, 0), (0, 1, 1)], 2)  # ragged
    with pytest.raises(ValueError):
        Word.from_letters([])


@st.composite
def words(draw, max_q=4, max_k=4, max_n=6):
    q = draw(st.integers(2, max_q))
    k = draw(st.integers(2, max_k))
    n = draw(st.integers(1, max_n))
    size = alphabet_size(q, k)
    ranks = draw(st.lists(st.integers(0, size - 1), min_size=n, max_size=n))
    return Word.from_ranks(ranks, q, k)


@given(words())
def test_rank_row_views_agree(w):
    again = Word.from_rows(w.rows(), w.q)
    assert again.ranks() == w.ranks()
    assert again == w


@given(words())
def test_word_views_agree(w):
    rows, ranks, letters = w.rows(), w.ranks(), w.letters
    assert len(rows) == w.k
    assert len(ranks) == len(letters) == w.n
    for j, lt in enumerate(letters):
        assert (lt.q, lt.k) == (w.q, w.k)
        assert ranks[j] == letter_rank(lt)
        for i in range(w.k):
            assert rows[i][j] == lt.digits[i]
    for again in (
        Word.from_letters(w.letters),
        Word.from_rows(rows, w.q),
        Word.from_ranks(list(ranks), w.q, w.k),
    ):
        assert again == w
        assert hash(again) == hash(w)
    assert len({w, Word.from_letters(w.letters)}) == 1


# (constructor call, exact ValueError message)
WORD_ERRORS = {
    "invalid-column": (
        lambda: Word.from_rows([(0, 1, 0), (0, 0, 1)], 2),
        "column 1 is not nondecreasing over Sigma_2: (1, 0)",
    ),
    "digit-out-of-range": (
        lambda: Word.from_rows([(0, 0), (0, 2)], 2),
        "column 1 is not nondecreasing over Sigma_2: (0, 2)",
    ),
    "ragged-rows": (
        lambda: Word.from_rows([(0, 0), (0, 1, 1)], 2),
        "all rows of a word must have equal length",
    ),
    "one-row": (
        lambda: Word.from_rows([(0, 1)], 2),
        "a word needs at least two rows (k >= 2)",
    ),
    "empty-letters": (
        lambda: Word.from_letters([]),
        "a word must contain at least one letter",
    ),
    "empty-ranks": (
        lambda: Word.from_ranks([], 2, 3),
        "a word must contain at least one letter",
    ),
    "empty-rows": (
        lambda: Word.from_rows([(), ()], 2),
        "a word must contain at least one letter",
    ),
    "rank-too-large": (
        lambda: Word.from_ranks([0, 3, 4], 2, 3),
        "rank 4 out of range for Phi_{2,3} (size 4)",
    ),
    "rank-negative": (
        lambda: Word.from_ranks([1, -1], 3, 2),
        "rank -1 out of range for Phi_{3,2} (size 6)",
    ),
    "ranks-q-below-2": (
        lambda: Word.from_ranks([0], 1, 3),
        "alphabet base q must be >= 2, got 1",
    ),
    "rows-q-below-2": (
        lambda: Word.from_rows([(0,), (0,)], 1),
        "alphabet base q must be >= 2, got 1",
    ),
    "ranks-k-below-2": (
        lambda: Word.from_ranks([0], 2, 1),
        "resolution k must be >= 2, got 1",
    ),
    "letters-mixed-k": (
        lambda: Word.from_letters([Letter((0, 0), 2), Letter((0, 0, 1), 2)]),
        "all letters in a word must share q and k",
    ),
    "letters-mixed-q": (
        lambda: Word.from_letters([Letter((0, 1), 2), Letter((0, 1), 3)]),
        "all letters in a word must share q and k",
    ),
    "letter-decreasing": (
        lambda: Letter((1, 0), 2),
        "invalid letter over Sigma_2: (1, 0)",
    ),
    "letter-digit-out-of-range": (
        lambda: Letter((0, 3), 3),
        "invalid letter over Sigma_3: (0, 3)",
    ),
    "letter-k-below-2": (
        lambda: Letter((0,), 2),
        "resolution k must be >= 2, got 1",
    ),
    "letter-q-below-2": (
        lambda: Letter((0, 0), 1),
        "alphabet base q must be >= 2, got 1",
    ),
    "unrank-out-of-range": (
        lambda: letter_unrank(6, 3, 2),
        "rank 6 out of range for Phi_{3,2} (size 6)",
    ),
    "tail-rank-out-of-range": (
        lambda: Word(3, 2, (0, 5)) + Word(3, 2, (1, 6)),
        "rank 6 out of range for Phi_{3,2} (size 6)",
    ),
    "concatenate-mixed-k": (
        lambda: Word(2, 2, (0,)) + Word(2, 3, (0,)),
        "cannot concatenate a word over Phi_{2,2} and one over Phi_{2,3}",
    ),
    "concatenate-mixed-q": (
        lambda: Word(2, 3, (0,)) + Word(3, 3, (0,)),
        "cannot concatenate a word over Phi_{2,3} and one over Phi_{3,3}",
    ),
    "word-text-blank": (lambda: word_from_text(" \n\n"), "empty word file"),
}


@pytest.mark.parametrize("case", WORD_ERRORS)
def test_word_constructor_error_messages(case):
    build, message = WORD_ERRORS[case]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_a_word_plus_what_is_no_word_is_a_type_error():
    with pytest.raises(TypeError) as info:
        Word(2, 2, (0,)) + 1
    assert str(info.value) == "unsupported operand type(s) for +: 'Word' and 'int'"


def test_direct_word_constructor_validates():
    assert Word(2, 3, (0, 3, 1)) == Word.from_ranks((0, 3, 1), 2, 3)
    with pytest.raises(ValueError) as info:
        Word(2, 3, (9,))
    assert str(info.value) == "rank 9 out of range for Phi_{2,3} (size 4)"


def assert_same_word(got, want):
    """got equals want in every view, and its rows hold plain ints."""
    assert got == want and hash(got) == hash(want)
    assert got.ranks() == want.ranks() and type(got.ranks()) is tuple
    assert got.rows() == want.rows() and type(got.rows()) is tuple
    assert all(type(row) is tuple for row in got.rows())
    assert all(type(d) is int for row in got.rows() for d in row)


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_row_and_concatenation_builds_match_the_rank_constructor(q, k):
    # differential: from_rows and payload + tail against Word(q, k, ranks)
    rng = random.Random(100 * q + k)
    for n in [1, 2, 3] + [rng.randint(4, 60) for _ in range(12)]:
        ranks = [rng.randrange(alphabet_size(q, k)) for _ in range(n)]
        want = Word(q, k, ranks)
        rows = want.rows()
        for given_rows in (
            rows,
            [list(row) for row in rows],
            (iter(row) for row in rows),
            [[bool(d) if q == 2 else d for d in row] for row in rows],
        ):
            assert_same_word(Word.from_rows(given_rows, q), want)
        for cut in sorted({1, rng.randrange(1, n), n - 1}) if n > 1 else ():
            head, tail = Word(q, k, ranks[:cut]), Word(q, k, ranks[cut:])
            assert_same_word(head + tail, want)
            assert_same_word(Word.from_rows(head.rows(), q) + tail, want)
        assert_same_word(want + want, Word(q, k, ranks + ranks))


# from_rows on inputs that are no tuples of int digits: each gives the word,
# or the exception type and message, that normalising every digit to the
# int it stands for first gives (the word's rows are ints either way); a
# digit that stands for no int, as 1.5 or [1], is a ValueError
FROM_ROWS_CASES = {
    "digit-strings": (lambda: ["0011", "0111"], 2, Word(2, 2, (0, 1, 2, 2))),
    "digit-strings-q3": (lambda: ["012", "122"], 3, Word(3, 2, (1, 4, 5))),
    "lists": (lambda: [[0, 0, 1], [0, 1, 1]], 2, Word(2, 2, (0, 1, 2))),
    "generators": (lambda: (iter(r) for r in [(0, 1), (1, 1)]), 2, Word(2, 2, (1, 2))),
    "bools": (lambda: [[False, True], [True, True]], 2, Word(2, 2, (1, 2))),
    "floats": (lambda: [[0.0, 1.0], [1.0, 1.0]], 2, Word(2, 2, (1, 2))),
    "one-and-a-half": (
        lambda: [[0, 1.5], [1, 1]], 2, (ValueError, "digit 1.5 is not a whole number"),
    ),
    "one-and-a-half-q3": (
        lambda: [[0, 1.5], [1, 2]], 3, (ValueError, "digit 1.5 is not a whole number"),
    ),
    "negative": (
        lambda: [[0, -1], [1, 1]], 2,
        (ValueError, "column 1 is not nondecreasing over Sigma_2: (-1, 1)"),
    ),
    "out-of-range": (
        lambda: [[0, 2], [1, 2]], 2,
        (ValueError, "column 1 is not nondecreasing over Sigma_2: (2, 2)"),
    ),
    "decreasing": (
        lambda: [[1, 0], [0, 1]], 2,
        (ValueError, "column 0 is not nondecreasing over Sigma_2: (1, 0)"),
    ),
    "letter-a": (
        lambda: [[0, "a"], [1, 1]], 2,
        (ValueError, "invalid literal for int() with base 10: 'a'"),
    ),
    "digit-string-a": (
        lambda: ["0a", "11"], 2,
        (ValueError, "invalid literal for int() with base 10: 'a'"),
    ),
    "ragged-a": (
        lambda: [[0, "a"], [1]], 2,
        (ValueError, "invalid literal for int() with base 10: 'a'"),
    ),
    "q1-a": (
        lambda: [[0, "a"], [0, 0]], 1,
        (ValueError, "invalid literal for int() with base 10: 'a'"),
    ),
    "one-row": (
        lambda: [[0, 1]], 2, (ValueError, "a word needs at least two rows (k >= 2)"),
    ),
    "ragged": (
        lambda: [[0, 1], [1]], 2,
        (ValueError, "all rows of a word must have equal length"),
    ),
    "empty-rows": (
        lambda: [[], []], 2, (ValueError, "a word must contain at least one letter"),
    ),
    "q1": (
        lambda: [[0, 0], [0, 0]], 1, (ValueError, "alphabet base q must be >= 2, got 1"),
    ),
    "unhashable-digit": (
        lambda: [[0, [1]], [1, 1]], 2, (ValueError, "digit [1] is not a whole number"),
    ),
    # digit strings are ASCII decimal, as the text readers take them (_decimal)
    "arabic-indic-digit": (
        lambda: ["0\u0661", "11"], 2,
        (ValueError, "invalid literal for int() with base 10: '\u0661'"),
    ),
    "signed-and-spaced-digits": (
        lambda: [["0", "+1"], ["1", " 1"]], 2,
        (ValueError, "invalid literal for int() with base 10: '+1'"),
    ),
}


@pytest.mark.parametrize("case", FROM_ROWS_CASES)
def test_from_rows_gives_the_int_normalised_word_or_error(case):
    rows, q, want = FROM_ROWS_CASES[case]
    if isinstance(want, Word):
        assert_same_word(Word.from_rows(rows(), q), want)
        return
    kind, message = want
    with pytest.raises(kind) as info:
        Word.from_rows(rows(), q)
    assert type(info.value) is kind and str(info.value) == message


@given(words())
def test_text_round_trip(w):
    assert word_from_text(word_to_text(w)) == w
    assert word_from_text(word_to_rank_text(w)) == w


def test_text_format_shape():
    w = Word.from_rows([(0, 0, 1), (0, 1, 1), (0, 1, 1)], 2)
    text = word_to_text(w)
    assert text.splitlines()[0] == "2 3 3"
    assert text.splitlines()[1:] == ["001", "011", "011"]
    with pytest.raises(ValueError):
        word_from_text("2 2\n00\n01\n")
    with pytest.raises(ValueError):
        word_from_text("2 2 2\n00\n")


@pytest.mark.parametrize("q, k", [(2, 2), (3, 3), (4, 2), (2, 9), (4, 5)])
def test_one_header_books_read_at_once_give_the_block_loops_words(q, k, monkeypatch):
    """A book of digit-row blocks under one header line is read at once;
    its words, ranks and packed rows, are the block loop's.  (2, 9) and
    (4, 5) have no byte table of column keys, so their ranks come from
    column_ranks."""
    rng = random.Random(f"{q},{k}")
    books = []
    for count, n in [(1, 1), (2, 1), (1, 7), (5, 3)] + [
        (rng.randint(2, 40), rng.randint(1, 12)) for _ in range(6)
    ]:
        words = [
            Word(q, k, [rng.randrange(alphabet_size(q, k)) for _ in range(n)])
            for _ in range(count)
        ]
        books.append([word_to_text(w).splitlines() for w in words])
    for blocks in books:
        batch = alphabet._one_header_words(blocks)
        assert batch is not None
        assert words_from_blocks(blocks) == batch
        with monkeypatch.context() as patch:
            patch.setattr(alphabet, "_one_header_words", lambda blocks: None)
            loop = words_from_blocks(blocks)
        assert [w.ranks() for w in batch] == [w.ranks() for w in loop]
        assert [w.packed for w in batch] == [w.packed for w in loop]
        assert all(type(w.ranks()) is tuple and type(w.packed) is tuple for w in batch)


@pytest.mark.parametrize(
    "text, token",
    [
        ("\u0662 2 2\n00\n01\n", "\u0662"),  # an Arabic-Indic two
        ("+2 2 2\n00\n01\n", "+2"),
        ("1_0 2 2\n00\n01\n", "1_0"),
        ("2 2 3\n0,1,\u0661\n", "\u0661"),
        ("2 2 3\n0, +1,2\n", "+1"),
        ("2 2 3\n0,1_0,1\n", "1_0"),
        ("2 2 3\n0,-1,2\n", "-1"),
    ],
    ids=["arabic-indic-q", "signed-q", "underscored-q", "arabic-indic-rank", "signed-rank",
         "underscored-rank", "negative-rank"],
)
def test_word_reader_takes_only_ascii_decimal_header_fields_and_ranks(text, token):
    with pytest.raises(ValueError) as info:
        word_from_text(text)
    assert str(info.value) == f"invalid literal for int() with base 10: {token!r}"


def test_alphabet_size_validation():
    with pytest.raises(ValueError):
        alphabet_size(0, 2)
    with pytest.raises(ValueError):
        alphabet_size(2, -1)


def test_letter_weight_counts():
    lt = Letter((0, 1, 1, 2), 3)
    assert lt.digits.count(0) == 1 and lt.digits.count(1) == 2 and lt.digits.count(2) == 1
    assert alphabet_size(3, 4) == comb(6, 2)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
