"""Ordered composite alphabet: letters, words and the rank bijection.

A letter of resolution k over Sigma_q is a nondecreasing column of k digits.
The alphabet Phi_{q,k} of all such columns has size

    Q_{q,k} = binom(k + q - 1, q - 1).

Mapping a letter sigma to the value

    v(sigma) = sum_{i=1}^{q-1} w_i(sigma) * (k+1)^(i-1)

(w_i = multiplicity of digit i in the column) is injective, and sorting the
value set A_{q,k} ascending yields the canonical bijection between Phi_{q,k}
and the rank alphabet {0, ..., Q_{q,k}-1} used by every code construction in
this package.  For q = 2 the rank of a column is simply its number of ones.

A word is a sequence of n letters, equivalently a k x n matrix whose rows are
length-n digit strings and whose columns are all nondecreasing.  A Word
holds two views: its rank sequence (an int tuple, which equality and
hashing read) and its digit rows packed, one bytes object per row
(Word.packed), and builds each only once.  Word.rows() is the int-tuple
view, made on each read, as ReceivedRows.rows is; the library itself reads
only the packed rows, where a deletion is a C-level slice and a row hashes
once.

This module owns the row format, for words and for channel outputs alike:

* pack_rows turns rows from outside the package, bytes or int sequences,
  into bytes, and refuses a digit that is no int of Sigma_q or a base
  outside 2 <= q <= 256 (a byte holds a digit below 256).
  Word.from_rows, channel.ReceivedRows and the channel's row balls call it.
* rows_to_text writes k rows as a 'q k n' header and one line of ASCII
  digits per row, and rows_from_text reads them back.  That reader and the
  word reader (words_from_blocks) share the one header parser
  (_parse_header) and the one digit-line packer (_digit_row), so they
  refuse the same headers and digit lines.  Header fields and the rank
  line's tokens are ASCII decimal (_decimal), as digit lines are.

The two views of a word convert with byte tables while they fit a byte:

* ranks to rows, while Q_{q,k} <= 256: the ranks spelled as one bytes
  object, then one translate per row through a table of that row's digit
  of each letter;
* rows to ranks, while q^k <= 256: the key sum_i int(row_i) * q^i, where
  int(row_i) reads the row's bytes as one big integer, has column j's
  sum_i digit_i * q^i <= q^k - 1 as its byte j, so no byte carries; one
  translate of the key's bytes through a table of letter ranks, with 255
  for "no letter", ranks every column of rows whose digits lie in Sigma_q.

Larger shapes (q = 2 with k >= 9, q = 3 with k >= 6, q = 4 with k >= 5,
q = 10 with k = 4 and Q = 715, ...) take the same constructors through the
rank table's dict and a transposition of its letters instead.

Word(q, k, ranks) checks the ranks against the table.  Packed rows that
the library already holds, k >= 2 bytes objects of one length n >= 1,
become a word through one step, Word._of_rows: one translate tests that
every digit lies in Sigma_q, the columns are ranked (_ranks_of_rows) and
the rows are kept as they are, so they are neither copied nor spelled
again from the ranks; a column that is no letter is the ValueError that
names it.  Word.from_rows packs the rows it is given (pack_rows) and
takes that step; only if packing fails (a digit string, 1.0, a digit
outside Sigma_q, a shape that is no word) are the digits normalised to the
ints they stand for (_whole) and checked, so the result, word or error, is
the one those ints give.  A digit string is read as the text readers read
it, ASCII decimal only (_decimal); a digit that stands for no int, as 1.5
or [1], is a ValueError.  word + word (the systematic encoders' payload
followed by their tail) concatenates the two words' ranks and packed rows,
so only the tail is ever checked and spelled.  Its letters are the shared
ones of all_letters.

A letter keeps the digits it is given, and column_rank, which Letter ranks
them with, applies the package's one digit rule (algebra.are_digits), as
letter_is_valid and pack_rows do: a column holding 1.0, 1.5 or '1' is no
letter, although 1.0 hashes as 1.  Word.from_rows alone normalises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import chain, combinations_with_replacement
from math import comb
from operator import mul

from .algebra import are_digits


def alphabet_size(q: int, k: int) -> int:
    """Size Q_{q,k} of the ordered composite alphabet.

    k = 0 is allowed (Q_{q,0} = 1); it shows up as an edge case in the bound
    formulas.
    """
    if q < 1 or k < 0:
        raise ValueError(f"alphabet_size needs q >= 1 and k >= 0, got q={q}, k={k}")
    return comb(k + q - 1, q - 1)


def letter_is_valid(digits, q: int) -> bool:
    """True iff digits is a nondecreasing sequence of digits of Sigma_q
    (ints in {0, ..., q-1}, as algebra.are_digits reads them)."""
    ds = tuple(digits)
    return are_digits(ds, q) and all(ds[i] <= ds[i + 1] for i in range(len(ds) - 1))


@dataclass(frozen=True)
class Letter:
    """A single composite letter: a nondecreasing digit column over Sigma_q."""

    digits: tuple[int, ...]
    q: int

    def __post_init__(self):
        object.__setattr__(self, "digits", tuple(self.digits))
        column_rank(self.digits, self.q)

    @property
    def k(self) -> int:
        return len(self.digits)

    def weight(self, digit: int) -> int:
        """w_digit: multiplicity of the given digit in the column."""
        return self.digits.count(digit)

    @property
    def rank(self) -> int:
        return letter_rank(self)


def _v_value(digits: tuple[int, ...], q: int) -> int:
    k = len(digits)
    return sum(digits.count(i) * (k + 1) ** (i - 1) for i in range(1, q))


def _check_base(q: int) -> None:
    if q < 2:
        raise ValueError(f"alphabet base q must be >= 2, got {q}")
    if q > 256:
        raise ValueError(f"alphabet base q must be <= 256 (rows are bytes), got {q}")


@lru_cache(maxsize=None)
def _rank_tables(q: int, k: int):
    """(ascending letter tuples, digits -> rank lookup) for Phi_{q,k}."""
    _check_base(q)
    if k < 2:
        raise ValueError(f"resolution k must be >= 2, got {k}")
    # combinations_with_replacement yields exactly the nondecreasing tuples
    tuples = sorted(
        combinations_with_replacement(range(q), k), key=lambda ds: _v_value(ds, q)
    )
    return tuple(tuples), {ds: r for r, ds in enumerate(tuples)}


def letter_values(q: int, k: int) -> tuple[int, ...]:
    """The ascending value set A_{q,k} that the ranks index into."""
    tuples, _ = _rank_tables(q, k)
    return tuple(_v_value(ds, q) for ds in tuples)


def column_ranks(rows, q: int) -> tuple:
    """The rank of each column of k = len(rows) packed rows, None for a
    column that is no letter of Phi_{q,k}; one table lookup per column, at
    C speed.  A row that is not bytes is a ValueError: the lookup reads
    each digit as a dict key, so a digit 1.0 would rank as 1."""
    if {*map(type, rows)} != {bytes}:
        raise ValueError("column_ranks reads packed rows, one bytes object per row")
    return tuple(map(_rank_tables(q, len(rows))[1].get, zip(*rows)))


_SIGMA = bytes(range(256))  # Sigma_q is its first q digits
SYMBOL_ROWS = tuple(bytes((v,)) for v in range(256))  # digit v as a one-symbol packed row
_NO_LETTER = 255  # the rank byte of a column key that is no letter
_big_endian = partial(int.from_bytes, byteorder="big")


def pack_rows(rows, q: int) -> tuple[bytes, ...]:
    """Digit rows from outside the package, each bytes or a sequence of
    ints, as the package holds them: one bytes object per row.  A digit
    that is no int of Sigma_q is a ValueError, and so is a base q outside
    2..256, the bases whose digits fit a byte."""
    _check_base(q)
    try:  # tuple() refuses a row that is an int, which bytes() would zero-fill
        packed = tuple(row if type(row) is bytes else bytes(tuple(row)) for row in rows)
    except (TypeError, ValueError):  # a digit that is no int in 0..255
        packed = None
    if packed is None or b"".join(packed).translate(None, _SIGMA[:q]):
        raise ValueError(f"row digits must lie in Sigma_{q}")
    return packed


@lru_cache(maxsize=None)
def _byte_tables(q: int, k: int):
    """(the row weights q^i, the rank of each column key or _NO_LETTER,
    each row's digit of each rank): the translate tables of the module
    docstring, the last two None where they do not fit a byte."""
    tuples, _ = _rank_tables(q, k)
    weights = tuple(q**i for i in range(k))
    ranks_of_keys = digits_of_ranks = None
    if q**k <= 256:
        table = bytearray([_NO_LETTER]) * 256
        for rank, ds in enumerate(tuples):
            table[sum(map(mul, ds, weights))] = rank
        ranks_of_keys = bytes(table)
    if len(tuples) <= 256:
        digits_of_ranks = tuple(
            bytes(column) + bytes(256 - len(tuples)) for column in zip(*tuples)
        )
    return weights, ranks_of_keys, digits_of_ranks


def _rows_of_ranks(ranks, q: int, k: int) -> tuple[bytes, ...]:
    """The packed rows of the word with these (valid) ranks."""
    tables = _byte_tables(q, k)[2]
    if tables is None:
        tuples = _rank_tables(q, k)[0]
        return tuple(map(bytes, zip(*[tuples[r] for r in ranks])))
    return tuple(map(bytes(ranks).translate, tables))


def _ranks_of_rows(packed, q: int) -> tuple | None:
    """The ranks of the columns of k = len(packed) >= 2 packed rows over
    Sigma_q of one length n >= 1, or None if a column is no letter."""
    weights, ranks_of_keys, _ = _byte_tables(q, len(packed))
    if ranks_of_keys is None:
        ranks = column_ranks(packed, q)
        return None if None in ranks else ranks
    key = sum(map(mul, map(_big_endian, packed), weights))
    spelled = key.to_bytes(len(packed[0]), "big").translate(ranks_of_keys)
    return None if _NO_LETTER in spelled else tuple(spelled)


def column_rank(column, q: int) -> int:
    """Rank of a digit column; ValueError if it is not a letter over Sigma_q,
    or if a digit is no int (algebra.are_digits), as 1.0, which hashes as 1."""
    column = tuple(column)
    rank = _rank_tables(q, len(column))[1].get(column)
    if rank is None or not are_digits(column, q):
        raise ValueError(f"invalid letter over Sigma_{q}: {column}")
    return rank


def letter_rank(letter: Letter) -> int:
    """Rank of a letter: its index in the ascending value set A_{q,k}."""
    return column_rank(letter.digits, letter.q)


def letter_unrank(rank: int, q: int, k: int) -> Letter:
    """Inverse of letter_rank."""
    letters = all_letters(q, k)
    if not 0 <= rank < len(letters):
        raise ValueError(
            f"rank {rank} out of range for Phi_{{{q},{k}}} (size {len(letters)})"
        )
    return letters[rank]


@lru_cache(maxsize=None)
def all_letters(q: int, k: int) -> tuple[Letter, ...]:
    """All of Phi_{q,k} in rank order."""
    tuples, _ = _rank_tables(q, k)
    return tuple(Letter(ds, q) for ds in tuples)


@dataclass(frozen=True, init=False)
class Word:
    """A word over Phi_{q,k}: its rank sequence, checked by Word(q, k, ranks).

    Equality and hashing look at (q, k, ranks); packed, the k digit rows as
    bytes, is the view kept beside them.  rows() makes the int tuples of
    the packed rows on each read."""

    q: int
    k: int
    _ranks: tuple[int, ...]
    packed: tuple[bytes, ...] = field(compare=False, repr=False)

    def __init__(self, q: int, k: int, ranks):
        tuples, _ = _rank_tables(q, k)
        ranks = tuple(ranks)
        if not ranks:
            raise ValueError("a word must contain at least one letter")
        if not are_digits(ranks, len(tuples)):
            bad = next(r for r in ranks if not are_digits((r,), len(tuples)))
            raise ValueError(
                f"rank {bad} out of range for Phi_{{{q},{k}}} (size {len(tuples)})"
            )
        self._set(q, k, ranks, _rows_of_ranks(ranks, q, k))

    def _set(self, q, k, ranks, packed) -> None:
        for name, value in (("q", q), ("k", k), ("_ranks", ranks), ("packed", packed)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, q: int, k: int, ranks: tuple, packed: tuple) -> "Word":
        """The word with these ranks and packed rows, which the caller has
        already checked to be a nonempty word over Phi_{q,k} and each
        other's view."""
        word = object.__new__(cls)
        word._set(q, k, ranks, packed)
        return word

    @classmethod
    def _of_rows(cls, packed: tuple, q: int) -> "Word":
        """The word with these packed rows, k >= 2 bytes objects of one
        length n >= 1 that the library holds.  A digit outside Sigma_q (one
        translate, as in pack_rows) or a column that is no letter is the
        ValueError that from_rows gives for the same rows."""
        ranks = None
        if not b"".join(packed).translate(None, _SIGMA[:q]):
            ranks = _ranks_of_rows(packed, q)
        if ranks is None:  # names the first column that is no letter
            ranks = _checked_ranks(tuple(map(tuple, packed)), q)
        return cls._of(q, len(packed), ranks, packed)

    def __add__(self, other: "Word") -> "Word":
        """The concatenation: this word's letters, then other's."""
        if not isinstance(other, Word):
            return NotImplemented
        if (self.q, self.k) != (other.q, other.k):
            raise ValueError(
                f"cannot concatenate a word over Phi_{{{self.q},{self.k}}} "
                f"and one over Phi_{{{other.q},{other.k}}}"
            )
        packed = tuple(map(bytes.__add__, self.packed, other.packed))
        return Word._of(self.q, self.k, self._ranks + other._ranks, packed)

    @property
    def n(self) -> int:
        return len(self._ranks)

    @property
    def letters(self) -> tuple[Letter, ...]:
        letters = all_letters(self.q, self.k)
        return tuple(letters[r] for r in self._ranks)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        """Row view: row i collects digit i of every column, as ints."""
        return tuple(map(tuple, self.packed))

    def ranks(self) -> tuple[int, ...]:
        """Rank-sequence view over {0, ..., Q_{q,k}-1}."""
        return self._ranks

    @classmethod
    def from_rows(cls, rows, q: int) -> "Word":
        """The word with these digit rows, bytes or int sequences.  They are
        packed (pack_rows) and ranked by _of_rows; only if packing fails (a
        digit string, 1.0, a digit outside Sigma_q, a shape that is no word)
        are the digits normalised (_whole) and checked, so the result, word
        or error, is the one the ints they stand for give."""
        # an iterator row is read once, here, so the fallback sees its digits
        rows = tuple(row if type(row) is bytes else tuple(row) for row in rows)
        k = len(rows)
        if k >= 2 and rows[0] and len(set(map(len, rows))) == 1:
            try:
                packed = pack_rows(rows, q)
            except ValueError:
                pass  # a digit that is no int of Sigma_q, or a bad q: reported below
            else:
                return cls._of_rows(packed, q)
        ranks = _checked_ranks(tuple(tuple(map(_whole, row)) for row in rows), q)
        return cls._of(q, k, ranks, _rows_of_ranks(ranks, q, k))

    @classmethod
    def from_ranks(cls, ranks, q: int, k: int) -> "Word":
        return cls(q, k, ranks)

    @classmethod
    def from_letters(cls, letters) -> "Word":
        letters = tuple(letters)
        if not letters:
            raise ValueError("a word must contain at least one letter")
        q, k = letters[0].q, letters[0].k
        if any(lt.q != q or lt.k != k for lt in letters):
            raise ValueError("all letters in a word must share q and k")
        return cls(q, k, [letter_rank(lt) for lt in letters])


def _whole(digit) -> int:
    """The int that a digit stands for: an int, a bool, a whole float, or
    a string of ASCII decimal digits, read as the text readers read it
    (_decimal).  A digit that stands for no int, as 1.5 or [1], and a
    string that is no ASCII decimal, as '+1' or ' 1', are ValueErrors."""
    if type(digit) is str:
        return _decimal(digit)
    try:
        if int(digit) == digit:
            return int(digit)
    except (TypeError, OverflowError):  # [1], inf
        pass
    raise ValueError(f"digit {digit!r} is not a whole number")


def _checked_ranks(rows, q: int) -> tuple:
    """The ranks of the columns of int digit rows, or the ValueError that
    names what keeps them from being a word over Sigma_q."""
    if len(rows) < 2:
        raise ValueError("a word needs at least two rows (k >= 2)")
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("all rows of a word must have equal length")
    lookup = _rank_tables(q, len(rows))[1]
    if not n:
        raise ValueError("a word must contain at least one letter")
    ranks = tuple(map(lookup.get, zip(*rows)))
    if None in ranks:
        j = ranks.index(None)
        col = tuple(row[j] for row in rows)
        raise ValueError(f"column {j} is not nondecreasing over Sigma_{q}: {col}")
    return ranks


# ---------------------------------------------------------------------------
# text round-trip: the on-disk format shared with the CLI
# ---------------------------------------------------------------------------

# translate tables between the digits 0..9 and their ASCII characters
_TO_ASCII = bytes((d + ord("0")) % 256 for d in range(256))
_FROM_ASCII = bytes((c - ord("0")) % 256 for c in range(256))


def rows_to_text(q: int, n: int, rows) -> str:
    """The text form of k digit rows of nominal length n: a 'q k n' header
    plus one line of digits per row, for a word (word_to_text) and for a
    channel output, whose rows may be short (channel.received_to_text).

    Digits are written without separators, so q <= 10 is enforced here.
    The rows are packed (pack_rows), then each is written with one
    translate to ASCII; rows_from_text reads the text back.
    """
    return _packed_to_text(q, n, pack_rows(rows, q))


def _packed_to_text(q: int, n: int, packed: tuple[bytes, ...]) -> str:
    if q > 10:
        raise ValueError("text format only supports q <= 10")
    lines = [f"{q} {len(packed)} {n}".encode("ascii")]
    lines += [row.translate(_TO_ASCII) for row in packed]
    return (b"\n".join(lines) + b"\n").decode("ascii")


def word_to_text(word: Word) -> str:
    """Serialize a word: a 'q k n' header plus k digit rows (rows_to_text),
    written from its packed rows, which Word has already checked."""
    return _packed_to_text(word.q, word.n, word.packed)


def word_to_rank_text(word: Word) -> str:
    """Serialize a word in rank-sequence form: header plus one CSV line."""
    lines = [f"{word.q} {word.k} {word.n}", ",".join(str(r) for r in word.ranks())]
    return "\n".join(lines) + "\n"


def _decimal(token: str) -> int:
    """A header field or rank token as an int: ASCII decimal digits only,
    the form the writers use; int() alone also reads other scripts' digits,
    a sign and underscores, as in '+2' and '1_0'."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {token!r}")
    return int(token)


def _parse_header(line: str) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise ValueError(f"expected header 'q k n', got {line!r}")
    q, k, n = map(_decimal, parts)
    if q < 2 or q > 10 or k < 2 or n < 1:
        raise ValueError(f"bad header values q={q} k={k} n={n}")
    return q, k, n


def _digit_row(line: str, shortest: int, n: int) -> bytes:
    """A stripped text line of shortest..n ASCII digits (n for a word's row,
    0..n for a received one), packed with one encode and one translate."""
    if not shortest <= len(line) <= n or not (line.isascii() and line.isdigit() or not line):
        raise ValueError(f"bad digit row {line!r} (expected {n} digits)")
    return line.encode("ascii").translate(_FROM_ASCII)


def rows_from_text(text: str) -> tuple[int, int, tuple[bytes, ...]]:
    """The inverse of rows_to_text: (q, n, rows) of a 'q k n' header and k
    lines of at most n digits, the rows packed.  Blank lines before the
    header are skipped, and rows missing after it are empty (editors drop
    trailing empty lines); content after the k rows is an error."""
    lines = [line.strip() for line in text.splitlines()]
    while lines and not lines[0]:
        lines.pop(0)
    if not lines:
        raise ValueError("empty rows file")
    q, k, n = _parse_header(lines[0])
    body = lines[1:]
    if any(body[k:]):
        raise ValueError(f"expected {k} digit rows, found extra content after them")
    body += [""] * (k - len(body))
    return q, n, tuple(_digit_row(line, 0, n) for line in body[:k])


def word_from_text(text: str) -> Word:
    """Parse either text form: k digit rows, or one comma-separated rank line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty word file")
    return words_from_blocks([lines])[0]


def words_from_blocks(blocks) -> list[Word]:
    """Parse words in either text form, one per block of stripped nonblank
    lines: a 'q k n' header, then k digit rows or one comma-separated rank
    line.  A book whose blocks all hold k digit rows under one header line,
    as word_to_text writes them, is read at once (_one_header_words); any
    other book, and one that fails a check there, is read block by block,
    parsing each distinct header line once, and the first fault in file
    order is the error."""
    words = _one_header_words(blocks)
    if words is not None:
        return words
    headers: dict[str, tuple[int, int, int]] = {}
    words = []
    for lines in blocks:
        header = headers.get(lines[0])
        if header is None:
            header = headers[lines[0]] = _parse_header(lines[0])
        q, k, n = header
        body = lines[1:]
        if len(body) == 1:
            # k >= 2, so a one-line body can only be the rank-sequence form
            ranks = [_decimal(tok.strip()) for tok in body[0].split(",")]
            if len(ranks) != n:
                raise ValueError(f"expected {n} ranks, got {len(ranks)}")
            words.append(Word.from_ranks(ranks, q, k))
            continue
        if len(body) != k:
            raise ValueError(f"expected {k} digit rows or 1 rank line, got {len(body)} lines")
        words.append(Word.from_rows([_digit_row(row, n, n) for row in body], q))
    return words


def _one_header_words(blocks) -> list[Word] | None:
    """The words of blocks that share one header line and hold k digit rows
    each, built at once: row i of every block is joined, packed (_digit_row,
    pack_rows) and ranked (_ranks_of_rows) as one long row, then cut into
    the words.  None if the blocks differ in shape or a check fails, so the
    block loop, which names the fault, reads them instead."""
    if len(set(map(len, blocks))) != 1:
        return None
    lines = list(zip(*blocks))  # lines[i]: line i of every block
    if len(set(lines[0])) != 1:
        return None
    try:
        q, k, n = _parse_header(lines[0][0])
        rows = lines[1:]
        if len(rows) != k or set(map(len, chain.from_iterable(rows))) != {n}:
            return None
        width = len(blocks) * n
        packed = pack_rows([_digit_row("".join(row), width, width) for row in rows], q)
    except ValueError:
        return None
    ranks = _ranks_of_rows(packed, q)
    if ranks is None:
        return None
    starts = range(0, width, n)
    cut = zip(*[[row[j:j + n] for j in starts] for row in packed])
    return [Word._of(q, k, ranks[j:j + n], word_rows) for j, word_rows in zip(starts, cut)]
