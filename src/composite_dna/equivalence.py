"""Code equivalence bijections on composite letters, lifted to words.

Two bijections of Phi_{q,k} transport error-correction capability between
row-budget profiles:

* complement_reverse: [s_1..s_k] -> [q-1-s_k, ..., q-1-s_1].  An involution;
  a code correcting (e_1..e_k) maps to one correcting (e_k..e_1), for
  per-row substitution budgets and per-row deletion budgets alike.
* shift_map: [s_1..s_k] -> [q-1-s_k, s_1+q-1-s_k, ..., s_{k-1}+q-1-s_k],
  with inverse [s_2-s_1, ..., s_k-s_1, q-1-s_1].  Substitution budgets
  shift one row down (row i's budget becomes row i+1's); row k's budget
  must be zero, there is no wraparound.  Shift moves substitution budgets
  only: at q >= 3 it does not carry a per-row deletion budget along.

Both maps act letterwise; words and codebooks are transported elementwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from .alphabet import Letter, Word


def complement_reverse_letter(letter: Letter) -> Letter:
    q = letter.q
    return Letter(tuple(q - 1 - d for d in reversed(letter.digits)), q)


def shift_letter(letter: Letter) -> Letter:
    q, s = letter.q, letter.digits
    head = q - 1 - s[-1]
    return Letter((head,) + tuple(d + head for d in s[:-1]), q)


def shift_inverse_letter(letter: Letter) -> Letter:
    q, s = letter.q, letter.digits
    return Letter(tuple(d - s[0] for d in s[1:]) + (q - 1 - s[0],), q)


_LETTER_MAPS = {
    "complement-reverse": complement_reverse_letter,
    "shift": shift_letter,
    "shift-inverse": shift_inverse_letter,
}

MAP_NAMES = tuple(_LETTER_MAPS)


@dataclass(frozen=True)
class EquivalenceMap:
    """A named letterwise bijection, applicable to letters, words, codebooks."""

    name: str

    def __post_init__(self):
        if self.name not in _LETTER_MAPS:
            raise ValueError(f"unknown map {self.name!r}; choose from {MAP_NAMES}")

    @property
    def inverse(self) -> "EquivalenceMap":
        if self.name == "complement-reverse":
            return self
        if self.name == "shift":
            return EquivalenceMap("shift-inverse")
        return EquivalenceMap("shift")

    def on_letter(self, letter: Letter) -> Letter:
        return _LETTER_MAPS[self.name](letter)

    def on_word(self, word: Word) -> Word:
        return Word.from_letters([self.on_letter(lt) for lt in word.letters])


def transport_code(codebook, emap: EquivalenceMap | str):
    """Apply the map to every codeword; bijectivity keeps the size."""
    if isinstance(emap, str):
        emap = EquivalenceMap(emap)
    return {emap.on_word(w) for w in codebook}
