"""Substitution-correcting code families over the composite channel.

Four groups of constructions:

* HammingFamily / hamming_build: shortened Hamming codes C(l) over a prime
  field, the inner layer of the enumeration code below.  The check matrix
  keeps all weight-1 columns and drops the lexicographically largest
  heavier columns, so ranks are reproducible across implementations.
* DollSpec / enc_doll / dec_doll: the enumeration-encoded code correcting
  one substitution confined to row 1.  Letters split into A1 (second digit
  zero, untouchable by a detectable row-1 error only up to repair) and A2
  (second digit positive); the A2 subsequence carries a C(l) codeword.
  For q = 2 this specializes to the {k-1, k} alphabet and fill digits over
  {0, ..., k-2}; larger q requires |A2| to be prime.
* cecc1_*: the binary single-substitution code driven by the 1-limited-
  magnitude machinery on rank sequences, plus invalid-column repair.
* q1cecc_* / C1SSpec / C2SSpec: the q-ary three-checksum decoder, its
  systematic single-substitution construction, and the t-row construction
  with duplicated row parities and marker-checked syndrome blocks; its row
  code (C2SSpec.row_code, a _codec.RowCode) is VT mod 2m(q-1), whose
  weighted power sums mod p the blocks carry.

Substitution decoders take ReceivedRows with full-length rows; columns may
be non-monotone (that is the visible half of the error).  A decoder raises
ValueError only at its intake (a shape that does not match the spec, short
rows, parameters that do not fit); every failure after that, an invalid
column on the clean path included, is a DecodeFailure.  The intake, the
invalid-column locator, the block-value read, the row-code type and the
t-row repair core live in _codec, shared with the deletion codes.  A
decoder looks each received column up once (alphabet.column_ranks of the
packed rows, None for a column that is no letter),
_codec.invalid_column(ranks) finds the one None among those ranks, and
only a column the decoder repairs is ranked again.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod
from operator import mul

from ._codec import (
    RowCode,
    block_value,
    check_payload,
    check_t_rows,
    intake,
    invalid_column,
    out_of_model,
    repair_rows,
)
from .alphabet import Word, alphabet_size, column_rank, column_ranks, letter_unrank
from .algebra import (
    are_digits,
    compose,
    cw_rank,
    cw_unrank,
    digit_width,
    expand_base,
    f_threshold,
    is_prime,
    next_prime_bertrand,
    smallest_prime_at_least,
)
from .channel import ReceivedRows
from .vt_core import (
    DecodeFailure,
    lme_contains,
    lme_decode,
    lme_decode_message,
    lme_encode,
    lme_message_length,
    qary_decode_one_substitution,
    vt_syndrome,
)


# ---------------------------------------------------------------------------
# shortened Hamming codes C(l)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HammingFamily:
    """The inner check code C(l) over F_field.

    For l >= 3 the columns are the projective representatives (first
    nonzero entry 1) of F_field^r in lexicographic order, shortened down to
    l columns.  l <= 2 uses the fixed singletons C(0) = {eps}, C(1) = {1},
    C(2) = {11}.  The code is table-driven: a syndrome entry is one C-level
    sum over a row of the check matrix, and a nonzero syndrome is looked up
    in a dict of every beta * column, which names the position and the
    error value beta (every column's first nonzero entry is 1, so each
    multiple is one key).
    """

    l: int
    field: int
    columns: tuple[tuple[int, ...], ...]

    @property
    def r(self) -> int:
        return len(self.columns[0]) if self.columns else self.l

    @property
    def size(self) -> int:
        return hamming_size(self.l, self.field)

    @cached_property
    def check_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.columns))

    @cached_property
    def _errors(self) -> dict:
        """{beta * column: (its position, beta)} for every nonzero beta."""
        field = self.field
        return {  # times[v] = beta * v, and times[1] = beta
            tuple(map(times.__getitem__, column)): (pos, times[1])
            for times in ([beta * v % field for v in range(field)] for beta in range(1, field))
            for pos, column in enumerate(self.columns)
        }

    @cached_property
    def message_coords(self) -> tuple[int, ...]:
        zeros = self.r - 1  # in a unit column
        return tuple(i for i, c in enumerate(self.columns) if c.count(0) < zeros)

    @cached_property
    def parity_coords(self) -> tuple[int, ...]:
        zeros = self.r - 1
        return tuple(i for i, c in enumerate(self.columns) if c.count(0) == zeros)

    def encode(self, message) -> tuple[int, ...]:
        message = tuple(message)
        if self.l <= 2:
            if message:
                raise ValueError(f"C({self.l}) carries no message symbols")
            return (1,) * self.l
        coords = self.message_coords
        if len(message) != len(coords):
            raise ValueError(
                f"need {len(coords)} message symbols, got {len(message)}"
            )
        if not are_digits(message, self.field):
            raise ValueError(f"message symbols must lie in F_{self.field}")
        word = [0] * self.l
        for pos, v in zip(coords, message):
            word[pos] = v
        # a parity column is a unit vector, so its check row reads no other
        # parity position
        for pos in self.parity_coords:
            row = self.check_rows[self.columns[pos].index(1)]
            word[pos] = -sum(map(mul, row, word)) % self.field
        return tuple(word)

    def syndrome(self, word) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, word)) % self.field for row in self.check_rows)

    def decode(self, word) -> tuple[int, ...]:
        """Correct at most one substitution; DecodeFailure when impossible."""
        word = tuple(word)
        if len(word) != self.l:
            raise ValueError(f"expected length {self.l}, got {len(word)}")
        if not are_digits(word, self.field):
            raise ValueError(f"symbols must lie in F_{self.field}")
        if self.l == 0:
            return ()
        if self.l == 1:
            return (1,)
        if self.l == 2:
            if 1 not in word:
                raise DecodeFailure("C(2) = {11}: received differs in both symbols")
            return (1, 1)
        s = self.syndrome(word)
        if not any(s):
            return word
        hit = self._errors.get(s)
        if hit is None:
            raise DecodeFailure("syndrome matches no check column")
        pos, beta = hit
        fixed = list(word)
        fixed[pos] = (fixed[pos] - beta) % self.field
        return tuple(fixed)

    def message(self, word) -> tuple[int, ...]:
        if self.l <= 2:
            return ()
        return tuple(word[i] for i in self.message_coords)

    def codewords(self):
        for msg in itertools.product(range(self.field), repeat=self.l - self.r):
            yield self.encode(msg)


def _reference_hamming_decode(fam: HammingFamily, word) -> tuple[int, ...]:
    """HammingFamily.decode of a word of length l >= 3 over F_field: the
    syndrome summed column by column, and a search of the check columns
    for its multiple by 1/beta, beta its first nonzero entry.  The oracle
    its tests compare against."""
    field = fam.field
    s = [sum(c[row] * v for c, v in zip(fam.columns, word)) % field for row in range(fam.r)]
    beta = next((v for v in s if v), 0)
    if not beta:
        return tuple(word)
    target = tuple(v * pow(beta, -1, field) % field for v in s)
    if target not in fam.columns:
        raise DecodeFailure("syndrome matches no check column")
    fixed = list(word)
    pos = fam.columns.index(target)
    fixed[pos] = (fixed[pos] - beta) % field
    return tuple(fixed)


def _checks(l: int, field: int) -> int:
    """r of C(l), l >= 3: the least r with (field^r - 1)/(field - 1) >= l,
    so that F_field^r has l projective points: field^r >= l(field - 1) + 1."""
    return digit_width(field, l * (field - 1) + 1)


def hamming_size(l: int, field: int = 2) -> int:
    """|C(l)| in closed form, without building C(l): field ** (l - r), and
    1 for the singletons l <= 2."""
    return 1 if l <= 2 else field ** (l - _checks(l, field))


@lru_cache(maxsize=None)
def hamming_build(l: int, field: int = 2) -> HammingFamily:
    if l < 0:
        raise ValueError("need l >= 0")
    if field < 2 or not is_prime(field):
        raise ValueError(f"field size must be prime, got {field}")
    if l <= 2:
        return HammingFamily(l=l, field=field, columns=())
    r = _checks(l, field)
    # the projective points of F_field^r in lexicographic order: zeros, a
    # leading 1, then any tail; a zero tail makes a unit column
    cols = [
        (0,) * (r - 1 - i) + (1,) + tail
        for i in range(r)
        for tail in itertools.product(range(field), repeat=i)
    ]
    heavy = [c for c in cols if c.count(0) < r - 1]
    dropped = set(heavy[len(heavy) - (len(cols) - l) :])  # the largest ones
    return HammingFamily(
        l=l, field=field, columns=tuple(c for c in cols if c not in dropped)
    )


# ---------------------------------------------------------------------------
# the enumeration code for one row-1 substitution
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _rank_split(q: int, k: int):
    """Ranks of letters with a zero second digit (A1) and the rest (A2),
    and the place of each rank: (whether it lies in A2, its index there)."""
    split, places = ([], []), []
    for rank in range(alphabet_size(q, k)):
        in_a2 = letter_unrank(rank, q, k).digits[1] > 0
        places.append((in_a2, len(split[in_a2])))
        split[in_a2].append(rank)
    return tuple(split[0]), tuple(split[1]), tuple(places)


@dataclass(frozen=True)
class DollSpec:
    """Parameters of the enumeration-encoded (1,0,...,0)-substitution code.

    What the encoder and decoder read is fixed per spec and cached once:
    the class rows and their offsets, the place of each letter rank and
    the number of messages, base ** m."""

    q: int
    k: int
    n: int

    def __post_init__(self):
        if self.q < 2 or self.k < 2 or self.n < 1:
            raise ValueError("need q >= 2, k >= 2, n >= 1")
        if not is_prime(self.field):
            raise ValueError(
                f"|A2| = {self.field} is not prime; the inner check code "
                "needs a prime field (composite sizes are unsupported)"
            )

    @property
    def a1_ranks(self) -> tuple[int, ...]:
        return _rank_split(self.q, self.k)[0]

    @property
    def a2_ranks(self) -> tuple[int, ...]:
        return _rank_split(self.q, self.k)[1]

    @cached_property
    def places(self) -> tuple[tuple[bool, int], ...]:
        """Each letter rank's (whether it lies in A2, its index there)."""
        return _rank_split(self.q, self.k)[2]

    @cached_property
    def fill(self) -> int:
        return len(self.a1_ranks)

    @cached_property
    def field(self) -> int:
        return len(self.a2_ranks)

    @cached_property
    def classes(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """The rows of table(), built once: the encoder and decoder read
        class l's support count binom(n, l) and fill count from row l."""
        return tuple(self.table())

    @cached_property
    def class_sizes(self) -> tuple[int, ...]:
        """Codewords with exactly l letters from A2, for l = 0, ..., n."""
        return tuple(row[-1] for row in self.classes)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """The codewords in the classes below l, for l = 0, ..., n + 1."""
        return tuple(itertools.accumulate(self.class_sizes, initial=0))

    @cached_property
    def size(self) -> int:
        return self.offsets[-1]

    @cached_property
    def base(self) -> int:
        return alphabet_size(self.q, self.k)

    @cached_property
    def m(self) -> int:
        """The largest m with base^m <= num / den, the code size or, for
        q = 2, its closed-form lower bound, in exact arithmetic."""
        if self.q == 2:
            num = (self.k + 1) ** (self.n + 1) - (self.k - 1) ** (self.n + 1)
            den = 4 * (self.n + 1)
        else:
            num, den = self.size, 1
        return digit_width(self.base, num // den + 1) - 1

    @cached_property
    def message_count(self) -> int:
        return self.base**self.m

    def table(self):
        """Per-class counts: (l, supports, fills, inner codewords, class size),
        the class size being the product of the three counts before it.
        Each count comes from the last class's: binom(n, l) by one multiply
        and one exact divide, fill ** (n - l) by one divide, and the inner
        code's size in closed form (hamming_size)."""
        n, fill, field = self.n, self.fill, self.field
        rows, supports, fills = [], 1, fill**n
        for l in range(n + 1):
            three = (supports, fills, hamming_size(l, field))
            rows.append((l, *three, prod(three)))
            supports = supports * (n - l) // (l + 1)
            fills //= fill
        return rows


def doll_size(n: int, k: int) -> int:
    return DollSpec(2, k, n).size


def doll_m(n: int, k: int) -> int:
    return DollSpec(2, k, n).m


def doll_F(s, k: int) -> tuple[int, ...]:
    """Binary F-map: keep rank symbols in {k-1, k}, as 0 and 1 respectively."""
    s = tuple(s)
    if not are_digits(s, k + 1):
        raise ValueError(f"ranks must lie in [0, {k}]")
    return tuple(v - (k - 1) for v in s if v >= k - 1)


def _doll_unrank(index: int, spec: DollSpec) -> Word:
    """The index-th codeword, 1-based.  The 0-based index - 1 is the offset
    of class l (the codewords with l letters from A2) plus a mixed-radix
    number: the fill digits (base |A1|, n - l of them) lowest, then the
    support rank (base C(n, l)), then the inner message (base |A2|) on top.
    dec_doll composes the same number from the same parts."""
    if not 1 <= index <= spec.size:
        raise ValueError(f"index {index} out of [1, {spec.size}]")
    # spec.size is the last offset, so some class holds the index
    l = bisect_right(spec.offsets, index - 1) - 1
    fam = hamming_build(l, spec.field)
    _, supports, fill_count, _, _ = spec.classes[l]
    rest, fill_value = divmod(index - 1 - spec.offsets[l], fill_count)
    inner, support_rank = divmod(rest, supports)
    image = iter(fam.encode(expand_base(inner, fam.field, l - fam.r)))
    fills = iter(expand_base(fill_value, spec.fill, spec.n - l))
    a1, a2 = spec.a1_ranks, spec.a2_ranks
    ranks = [
        a2[next(image)] if bit else a1[next(fills)]
        for bit in cw_unrank(support_rank + 1, spec.n, l)
    ]
    return Word.from_ranks(ranks, spec.q, spec.k)


def enc_doll(x, spec: DollSpec) -> Word:
    x = tuple(x)
    if len(x) != spec.m:
        raise ValueError(f"message must have {spec.m} symbols, got {len(x)}")
    if not are_digits(x, spec.base):
        raise ValueError(f"message symbols must lie in [0, {spec.base})")
    return _doll_unrank(compose(x, spec.base) + 1, spec)


def dec_doll(received: ReceivedRows, spec: DollSpec) -> tuple[int, ...]:
    """Invert enc_doll after at most one substitution in row 1.

    A row-1 overshoot (first digit above the second) is visible as an
    invalid column and is repaired by copying the second digit; letters of
    A1 are always restored exactly this way, letters of A2 at worst turn
    into a different A2 letter, which the inner C(l) decoder then fixes.
    One pass over the ranks splits them into the A2 image, the fill
    digits and the support.
    """
    rows = intake(received, spec)
    ranks = list(column_ranks(rows, spec.q))
    j = invalid_column(ranks)
    if j is not None:
        tail = [row[j] for row in rows[1:]]
        if tail != sorted(tail):
            raise DecodeFailure(f"column {j} is corrupted below row 1; model breach")
        ranks[j] = column_rank([tail[0]] + tail, spec.q)
    image, fills, support = [], [], []
    for in_a2, i in map(spec.places.__getitem__, ranks):
        (image if in_a2 else fills).append(i)
        support.append(in_a2)
    l = len(image)
    fam = hamming_build(l, spec.field)
    _, supports, fill_count, _, _ = spec.classes[l]
    # _doll_unrank's divmods, undone
    rest = compose(fam.message(fam.decode(image)), spec.field) * supports
    rest = (rest + cw_rank(support, l) - 1) * fill_count + compose(fills, spec.fill)
    index = spec.offsets[l] + rest
    if index >= spec.message_count:
        raise DecodeFailure("codeword index lies outside the encoder image")
    return expand_base(index, spec.base, spec.m)


# ---------------------------------------------------------------------------
# binary 1-substitution code on rank sequences
# ---------------------------------------------------------------------------

def cecc1_message_length(k: int, n: int) -> int:
    return lme_message_length(n, k + 1)


def cecc1_contains(word: Word, a: int) -> bool:
    if word.q != 2:
        raise ValueError("this family is binary")
    return lme_contains(word.ranks(), a)


def cecc1_encode(message, a: int, k: int, n: int) -> Word:
    return Word.from_ranks(lme_encode(message, a, k + 1, n), 2, k)


def cecc1_message(word: Word) -> tuple[int, ...]:
    return lme_decode_message(word.ranks(), word.k + 1, word.n)


def cecc1_decode(received: ReceivedRows, a: int) -> Word:
    """Correct one substitution anywhere in the binary word.

    An invalid column pins the position; its two monotone completions have
    ranks w-1 and w+1, whose syndromes differ by 2j != 0 mod 2n+1, so the
    code congruence picks exactly one.  With all columns valid, the rank
    sequence carries at most one +-1 error, which is the 1-limited-magnitude
    decoder's model; that decoder returns a codeword's ranks as they are,
    so its one VT syndrome is also the membership test.
    """
    if received.q != 2:
        raise ValueError("this family is binary")
    n, k = received.n, received.k
    rows = intake(received)
    mod = 2 * n + 1
    ranks = list(column_ranks(rows, 2))
    j = invalid_column(ranks)
    if j is not None:
        w = sum(row[j] for row in rows)
        ranks[j] = 0  # for the syndrome of the other columns
        others = vt_syndrome(ranks)
        fits = [
            cand
            for cand in (w - 1, w + 1)
            if 0 <= cand <= k and (others + (j + 1) * cand) % mod == a % mod
        ]
        if len(fits) != 1:
            raise DecodeFailure("invalid column admits no consistent completion")
        ranks[j] = fits[0]
        return Word.from_ranks(ranks, 2, k)
    return Word.from_ranks(lme_decode(ranks, a, k + 1), 2, k)


# ---------------------------------------------------------------------------
# q-ary three-checksum machinery and its systematic construction
# ---------------------------------------------------------------------------

def _check_q1_primes(q: int, n: int, p1: int, p2: int):
    if q <= 2:
        raise ValueError("the three-checksum machinery needs q > 2")
    if not is_prime(p1) or p1 < n:
        raise ValueError(f"p1 must be a prime >= n = {n}, got {p1}")
    if not is_prime(p2) or p2 < q:
        raise ValueError(f"p2 must be a prime >= q = {q}, got {p2}")


def _square_sum(rows) -> int:
    return sum(sum(map(mul, row, row)) for row in rows)


def q1cecc_checksums(word: Word, p1: int, p2: int) -> tuple[int, int, int]:
    """(digit sum mod 2q-1, VT row sum mod p1, squared digit sum mod p2)."""
    _check_q1_primes(word.q, word.n, p1, p2)
    rows = word.packed
    a1 = sum(map(sum, rows)) % (2 * word.q - 1)
    a2 = sum(vt_syndrome(row) for row in rows) % p1
    a3 = _square_sum(rows) % p2
    return a1, a2, a3


def q1cecc_decode(
    received: ReceivedRows, a1: int, a2: int, a3: int, p1: int, p2: int
) -> Word:
    """Correct one substitution given the three checksums.

    The digit sum pins the substitution value delta over [-(q-1), q-1]; an
    invalid column localizes the error directly (delta's sign says which of
    the violating pair moved), otherwise the VT sum names the column and
    the squared sum the original digit, with the column rebuilt as the
    unique nondecreasing completion.
    """
    q, k, n = received.q, received.k, received.n
    _check_q1_primes(q, n, p1, p2)
    if n < q:
        raise ValueError("the three-checksum decoder needs n >= q")
    rows = intake(received)
    span = 2 * q - 1
    delta1 = (sum(map(sum, rows)) - a1) % span
    delta = delta1 if delta1 <= q - 1 else delta1 - span
    ranks = list(column_ranks(rows, q))
    j = invalid_column(ranks)
    if delta == 0:
        if j is not None:
            raise DecodeFailure("digit sum clean but a column is invalid; breach")
        failure = "checksums disagree on an allegedly clean word"
    else:
        failure = "repaired word fails the checksums; breach"
        if j is not None:
            col = [row[j] for row in rows]
            r = next(i for i in range(k - 1) if col[i] > col[i + 1])
            target = r if delta > 0 else r + 1
            col[target] -= delta
            if not 0 <= col[target] < q:
                raise DecodeFailure("repaired digit leaves Sigma_q; breach")
            if col != sorted(col):
                raise DecodeFailure(
                    f"column {j} is not nondecreasing over Sigma_{q}: {tuple(col)}"
                )
        else:
            delta2 = (sum(vt_syndrome(row) for row in rows) - a2) % p1
            j = delta2 * pow(delta % p1, -1, p1) % p1 or p1  # 1-based
            if j > n:
                raise DecodeFailure("implied column index out of range; breach")
            delta3 = (_square_sum(rows) - a3) % p2
            inv2 = pow(delta % p2, -1, p2)
            alpha = (delta3 * inv2 - delta) * pow(2, -1, p2) % p2
            corrupted = alpha + delta
            if alpha >= q or not 0 <= corrupted < q:
                raise DecodeFailure("implied digit values leave Sigma_q; breach")
            j -= 1
            col = [row[j] for row in rows]
            if corrupted not in col:
                raise DecodeFailure("implied digit absent from the implied column; breach")
            col.remove(corrupted)
            col = sorted(col + [alpha])
        ranks[j] = column_rank(col, q)
    word = Word(q, k, ranks)
    if q1cecc_checksums(word, p1, p2) != (a1 % span, a2 % p1, a3 % p2):
        raise DecodeFailure(failure)
    return word


@dataclass(frozen=True)
class C1SSpec:
    """Systematic q-ary single-substitution code: payload m, two marker
    columns for the digit sum, Delta columns packing the two prime checksums."""

    q: int
    k: int
    m: int

    def __post_init__(self):
        if self.q <= 2:
            raise ValueError("needs q > 2 (binary single errors: cecc1)")
        if self.k < 2:
            raise ValueError("need k >= 2")
        if self.m < self.q:
            raise ValueError("need payload length m >= q")

    @cached_property
    def p1(self) -> int:
        return smallest_prime_at_least(self.m)

    @cached_property
    def p2(self) -> int:
        return smallest_prime_at_least(self.q)

    @cached_property
    def delta(self) -> int:
        return digit_width(alphabet_size(self.q, self.k), self.p1 * self.p2)

    @property
    def n(self) -> int:
        return self.m + 2 + self.delta


def c1s_encode(payload: Word, spec: C1SSpec) -> Word:
    check_payload(payload, spec)
    a1, a2, a3 = q1cecc_checksums(payload, spec.p1, spec.p2)
    a, b = divmod(a1, spec.q)
    tail = [column_rank((a,) * spec.k, spec.q), column_rank((b,) * spec.k, spec.q)]
    big_q = alphabet_size(spec.q, spec.k)
    tail += expand_base(a2 + spec.p1 * a3, big_q, spec.delta)
    return payload + Word(spec.q, spec.k, tail)


def c1s_decode(received: ReceivedRows, spec: C1SSpec) -> Word:
    """Decode by elimination: marker hit, then payload checksum, then the
    three-checksum decoder on the packed digits."""
    rows = intake(received, spec)
    q, m = spec.q, spec.m
    payload_rows = tuple(row[:m] for row in rows)
    marker_a = {row[m] for row in rows}
    marker_b = {row[m + 1] for row in rows}
    if len(marker_a) > 1 and len(marker_b) > 1:
        raise DecodeFailure("both marker columns disagree; model breach")
    if len(marker_a) > 1 or len(marker_b) > 1:
        # the lone substitution hit a marker column; the rest is intact
        return out_of_model(Word._of_rows, payload_rows, q)
    a, b = marker_a.pop(), marker_b.pop()
    if a not in (0, 1):
        raise DecodeFailure("first marker digit outside {0, 1}; breach")
    a1 = a * q + b
    if sum(map(sum, payload_rows)) % (2 * q - 1) == a1:
        return out_of_model(Word._of_rows, payload_rows, q)
    # payload checksum is off, so the error is there and the digits are clean
    packed = out_of_model(
        block_value, [row[m + 2 :] for row in rows], q, alphabet_size(q, spec.k)
    )
    if packed >= spec.p1 * spec.p2:
        raise DecodeFailure("packed checksum value out of range; breach")
    a3, a2 = divmod(packed, spec.p1)
    return q1cecc_decode(
        ReceivedRows._of(payload_rows, q, m), a1, a2, a3, spec.p1, spec.p2
    )


# ---------------------------------------------------------------------------
# t-row single-substitution construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C2SSpec:
    """t rows may each suffer one substitution: duplicated per-row parity
    columns flag dirty payload rows, marker-checked syndrome blocks carry
    the weighted VT residues mod p.  A row's syndrome is VT mod span, the
    residue that qary_decode_one_substitution decodes from."""

    q: int
    k: int
    t: int
    m: int

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("need q >= 2")
        check_t_rows(self.k, self.t)
        if self.m < 1:
            raise ValueError("need m >= 1")

    @property
    def span(self) -> int:
        return 2 * self.m * (self.q - 1)

    @cached_property
    def p(self) -> int:
        return next_prime_bertrand(max(self.span, f_threshold(self.k, self.t)))

    @cached_property
    def delta(self) -> int:
        return digit_width(alphabet_size(self.q, self.k), self.p)

    @property
    def n(self) -> int:
        return self.m + 2 * self.k + self.t * (self.delta + self.k)

    @cached_property
    def row_code(self) -> RowCode:
        span = self.span
        return RowCode(lambda row: vt_syndrome(row) % span, self.p, span)

    def syndromes(self, payload: Word) -> list[int]:
        code = self.row_code
        return code.sums(list(map(code.syndrome, payload.packed)), range(self.t))


def c2s_encode(payload: Word, spec: C2SSpec) -> Word:
    check_payload(payload, spec)
    q, k = spec.q, spec.k
    big_q = alphabet_size(q, k)
    tail = []
    for row in payload.packed:
        tail += [column_rank((sum(row) % q,) * k, q)] * 2
    for value in spec.syndromes(payload):
        block = expand_base(value, big_q, spec.delta)
        tail += block
        block_rows = zip(*(letter_unrank(d, q, k).digits for d in block))
        tail += [column_rank((sum(row) % q,) * k, q) for row in block_rows]
    return payload + Word(q, k, tail)


def c2s_decode(received: ReceivedRows, spec: C2SSpec) -> Word:
    """Row parities identify dirty payload rows; block parities identify
    intact syndrome blocks; a Vandermonde solve mod p recovers the dirty
    rows' VT residues, and the q-ary single-substitution decoder finishes."""
    rows = intake(received, spec)
    q, k, m, t = spec.q, spec.k, spec.m, spec.t
    dirty = [
        i
        for i, row in enumerate(rows)
        if sum(row[:m]) % q not in (row[m + 2 * i], row[m + 2 * i + 1])
    ]
    if len(dirty) > t:
        raise DecodeFailure(f"{len(dirty)} corrupted payload rows; handles {t}")
    payload_rows = tuple(row[:m] for row in rows)
    if not dirty:
        return out_of_model(Word._of_rows, payload_rows, q)
    starts = [m + 2 * k + j * (spec.delta + k) for j in range(t)]
    intact = [
        j
        for j, start in enumerate(starts)
        if all(
            sum(row[start : start + spec.delta]) % q == row[start + spec.delta + i]
            for i, row in enumerate(rows)
        )
    ]

    def read_sum(j):
        segments = [row[starts[j] : starts[j] + spec.delta] for row in rows]
        return out_of_model(block_value, segments, q, alphabet_size(q, k))

    def decode_row(i, bar):
        copies = (rows[i][m + 2 * i], rows[i][m + 2 * i + 1])
        if copies[0] != copies[1]:
            raise DecodeFailure(
                "dirty payload row with disagreeing parity copies; breach"
            )
        return qary_decode_one_substitution(rows[i][:m], bar, copies[0], q)

    word, _ = repair_rows(payload_rows, q, dirty, intact, read_sum, spec.row_code, decode_row)
    return word
