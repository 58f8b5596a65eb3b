"""Equivalence-map tests: involutions, round trips, oracle transport."""

import random
from itertools import product

import pytest

from composite_dna.alphabet import Letter, Word, all_letters, alphabet_size
from composite_dna.channel import del_per_row, oracle_is_code, sub_per_row
from composite_dna.equivalence import (
    MAP_NAMES,
    EquivalenceMap,
    complement_reverse_letter,
    shift_inverse_letter,
    shift_letter,
    transport_code,
)


def test_complement_reverse_frozen():
    assert complement_reverse_letter(Letter((0, 0, 1), 2)).digits == (0, 1, 1)
    assert complement_reverse_letter(Letter((0, 0, 0), 3)).digits == (2, 2, 2)


def test_shift_frozen():
    assert shift_letter(Letter((0, 1), 2)).digits == (0, 0)
    assert shift_inverse_letter(Letter((0, 0), 2)).digits == (0, 1)
    assert shift_letter(Letter((1, 1), 2)).digits == (0, 1)


def test_letter_maps_are_bijections():
    # involution / inverse round trips, exhaustively over small alphabets
    for q in (2, 3, 4):
        for k in (2, 3, 4):
            letters = all_letters(q, k)
            assert all(
                complement_reverse_letter(complement_reverse_letter(lt)) == lt
                for lt in letters
            )
            assert all(shift_inverse_letter(shift_letter(lt)) == lt for lt in letters)
            assert all(shift_letter(shift_inverse_letter(lt)) == lt for lt in letters)
            # bijectivity: images exhaust the alphabet
            assert len({shift_letter(lt) for lt in letters}) == len(letters)


def test_equivalence_map_objects():
    with pytest.raises(ValueError):
        EquivalenceMap("rot13")
    assert set(MAP_NAMES) == {"complement-reverse", "shift", "shift-inverse"}
    cr = EquivalenceMap("complement-reverse")
    assert cr.inverse == cr
    sh = EquivalenceMap("shift")
    assert sh.inverse == EquivalenceMap("shift-inverse")
    assert sh.inverse.inverse == sh

    w = Word.from_rows(["001", "011"], q=2)
    assert cr.inverse.on_word(cr.on_word(w)) == w
    assert sh.inverse.on_word(sh.on_word(w)) == w


def test_transport_code_basics():
    assert transport_code([], EquivalenceMap("shift")) == set()
    pool = [Word.from_ranks(rs, 2, 2) for rs in product(range(3), repeat=2)]
    book = set(pool[:4])
    sh = EquivalenceMap("shift")
    assert len(transport_code(book, sh)) == 4
    assert transport_code(transport_code(book, sh), sh.inverse) == book
    # string names are accepted too
    assert transport_code(book, "shift") == transport_code(book, sh)


def sample_codebooks(q, k, n, count, seed):
    Q = alphabet_size(q, k)
    pool = [Word.from_ranks(rs, q, k) for rs in product(range(Q), repeat=n)]
    rnd = random.Random(seed)
    return [rnd.sample(pool, rnd.randint(2, 5)) for _ in range(count)]


def test_complement_reverse_transports_reversed_budgets():
    cr = EquivalenceMap("complement-reverse")
    for budgets in ((1, 0, 0), (0, 1, 0), (1, 1, 0)):
        for book in sample_codebooks(2, 3, 2, count=25, seed=101):
            before = oracle_is_code(book, sub_per_row(*budgets)).is_code
            image = transport_code(book, cr)
            after = oracle_is_code(image, sub_per_row(*reversed(budgets))).is_code
            assert after == before


def test_shift_moves_budget_down_one_row():
    # a budget on row i (i < k) transports to row i+1 of the image
    sh = EquivalenceMap("shift")
    k = 3
    for i in (0, 1):
        unit = tuple(1 if j == i else 0 for j in range(k))
        shifted = tuple(1 if j == i + 1 else 0 for j in range(k))
        for book in sample_codebooks(2, k, 2, count=25, seed=202 + i):
            before = oracle_is_code(book, sub_per_row(*unit)).is_code
            image = transport_code(book, sh)
            assert oracle_is_code(image, sub_per_row(*shifted)).is_code == before


def test_shift_inverse_moves_budget_up_one_row():
    inv = EquivalenceMap("shift-inverse")
    k = 3
    for i in (1, 2):
        unit = tuple(1 if j == i else 0 for j in range(k))
        shifted = tuple(1 if j == i - 1 else 0 for j in range(k))
        for book in sample_codebooks(2, k, 2, count=20, seed=303 + i):
            before = oracle_is_code(book, sub_per_row(*unit)).is_code
            image = transport_code(book, inv)
            assert oracle_is_code(image, sub_per_row(*shifted)).is_code == before


@pytest.mark.parametrize("q,k,n", [(2, 3, 3), (3, 2, 3)])
def test_complement_reverse_transports_deletion_budgets(q, k, n):
    # a deletion budget on row 1 transports to row k of the image
    cr = EquivalenceMap("complement-reverse")
    first = del_per_row(1, *[0] * (k - 1))
    last = del_per_row(*[0] * (k - 1), 1)
    verdicts = []
    for book in sample_codebooks(q, k, n, count=40, seed=404):
        before = oracle_is_code(book, first).is_code
        assert oracle_is_code(transport_code(book, cr), last).is_code == before
        verdicts.append(before)
    # the sample must exercise both outcomes for the agreement to mean much
    assert 0 < sum(verdicts) < len(verdicts)


def test_shift_is_not_a_deletion_equivalence_at_q3():
    # shift moves substitution budgets only: this book corrects one deletion
    # in row 1, but both second rows of its image can lose a symbol to (1)
    book = [Word.from_rows(((0, 0), (1, 2)), q=3), Word.from_rows(((1, 1), (1, 2)), q=3)]
    assert oracle_is_code(book, del_per_row(1, 0)).is_code
    image = transport_code(book, EquivalenceMap("shift"))
    assert image == {
        Word.from_rows(((1, 0), (1, 0)), q=3),
        Word.from_rows(((1, 0), (2, 1)), q=3),
    }
    result = oracle_is_code(image, del_per_row(0, 1))
    assert not result.is_code
    assert result.witness[2].rows[1] == (1,)
