"""Deletion-correcting code families over the composite channel.

Every family here follows one recipe.  Each row carries a single-deletion
row code (_RowCode, a _codec.RowCode with a row decoder): VT(x) for binary
rows and VT(psi(x)) for q-ary ones, mod a modulus.  The code's
congruences, or its syndrome blocks, carry the weighted power sums of
those row syndromes (RowCode.sums).  Two decoders do all the work, one per
construction shape.  Both hand every word, clean or not, to the row-repair
core shared with the substitution codes (_codec.repair_rows): one
Vandermonde solve of the intact rows' weighted power sums gives the short
rows' syndromes, and each short row is then decoded by its row code; with
no short row there is nothing to solve.  The solve multiplies by the
system's inverse, and the sums' weights are read from a table: both depend
only on the code, so its row code builds each once.  A single-deletion code
is their t = 1 case, whose solve is the 1 x 1 system [[1]] over a modulus
that need not be prime.

Failures: malformed input (a shape that does not match the spec, a row that
lost more than one symbol, more short rows than the code handles) is a
ValueError.  Everything after that is a DecodeFailure: the core's failures
(too few intact syndrome blocks, a solved residue that does not lift, a
repaired word with an invalid column), an invalid column in clean or
unrepaired rows, an invalid block letter, non-monotone marker flags, the
post-decode congruence check, clean rows outside the code and a decoded
payload whose codeword is not a supersequence of every row.  The
congruence check reads the syndromes that the repair returned.  The
supersequence check costs O(log n) slice compares per short row and one
compare per intact row, all at C speed, each against a payload row
followed by its row of the codeword's tail; that tail is built from the
intact rows' syndromes, computed once for the repair, and the repaired
rows' own syndromes, and no codeword is built.

* congruence_*: codes cut out by syndrome congruences, decoded by
  _congruence_decode_t.  Binary t-row variants weight the per-row VT sums
  by i^j mod p, q-ary ones the VT(psi(.)) sums; the membership tests and
  decoders of both take their targets and row code from one check,
  _t_row_code.  Having no spec to keep their row codes, with the tables
  that those build, these families keep the last 64 (_row_code).
  cong-qary-1 is the t = 1 q-ary code mod qn.  No encoders
  (these families exist by pigeonhole on the best class); membership tests
  and decoders are given.
* c1d_*: the binary t = 1 congruence code sum_i VT(c_i) = a mod n+1, with a
  systematic encoder whose redundancy lives on the base-(k+1) power
  positions {(k+1)^j}.
* marker codes C2D, C3D, C4D: one MarkerSpec(q, k, t, m) describes them
  all, and _marker_encode / _marker_decode serve them all.  The encoder
  appends, per syndrome index j, a marker column pair (all-zero, all-one)
  followed by the base-|Phi_{q,k}| digits of the j-th weighted syndrome.
  The marker pair localizes which segment of an affected row lost its
  symbol.  C2D is binary with t >= 2 rows, C4D q-ary with t >= 2, and C3D
  the q-ary t = 1 code with one marker pair and one block mod qm.

Row indices inside syndrome weights are 1-based (i = 1..k), as are the
congruence targets; everything else in the code is 0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from ._codec import (
    RowCode, block_value, check_payload, check_shape, check_t_rows, out_of_model,
    repair_rows,
)
from .alphabet import Word, alphabet_size, column_ranks
from .algebra import (
    are_digits,
    digit_width,
    expand_base,
    f_threshold,
    is_prime,
    next_prime_bertrand,
)
from .channel import ReceivedRows
from .vt_core import (
    DecodeFailure,
    qary_decode_one_deletion,
    qary_vt_syndrome,
    vt_decode_one_deletion,
    vt_syndrome,
)


class _RowCode(RowCode):
    """The single-deletion code of one row of length n: VT(x) mod modulus
    for binary rows, VT(psi(x)) mod modulus for psi rows.  A true row
    syndrome lies below lift_bound: the modulus, or qn for psi rows."""

    def __init__(self, q: int, n: int, modulus: int, psi: bool):
        # the syndrome kernels are looked up when called, not bound here,
        # so that a tracer which swaps the module's globals sees the calls
        if psi:
            super().__init__(lambda row: qary_vt_syndrome(row, q), modulus, q * n)
        else:
            super().__init__(lambda row: vt_syndrome(row), modulus, modulus)
        self.q, self.n, self.psi = q, n, psi

    def decode(self, row, residue: int):
        """The row one symbol longer than row whose syndrome is residue."""
        if self.psi:
            return qary_decode_one_deletion(row, residue, self.q, self.n)
        return vt_decode_one_deletion(row, residue, self.modulus)


@lru_cache(maxsize=64)
def _row_code(q: int, n: int, modulus: int, psi: bool) -> _RowCode:
    """The row code of a congruence family, which has no spec to keep it:
    the last 64 are kept, each with the power-sum tables it has built."""
    return _RowCode(q, n, modulus, psi)


def _is_subsequence(sub, sup) -> bool:
    """Whether sub is a subsequence of sup.  Equal lengths compare with ==.
    A sub one symbol short is a subsequence exactly when it is sup with the
    symbol at their first mismatch removed (the last symbol when sub is a
    prefix of sup): a binary search of slice compares finds that mismatch,
    and one suffix compare decides.  Other lengths use
    _reference_is_subsequence.  Both rows have one sequence type, such as
    bytes for packed rows."""
    if len(sub) == len(sup):
        return sub == sup
    if len(sub) != len(sup) - 1:
        return _reference_is_subsequence(sub, sup)
    lo, hi = 0, len(sub)  # sub[:lo] == sup[:lo]; the first mismatch is in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if sub[lo : mid + 1] == sup[lo : mid + 1]:
            lo = mid + 1
        else:
            hi = mid
    return sub[lo:] == sup[lo + 1 :]


def _reference_is_subsequence(sub, sup) -> bool:
    """The generic greedy scan, one interpreted step per symbol of sup."""
    it = iter(sup)
    return all(any(v == w for w in it) for v in sub)


def _row_deficits(received: ReceivedRows, limit: int) -> list[int]:
    """The rows that lost a symbol, in order; rejects a row that lost more
    than one, and more than limit short rows."""
    short = []
    for i, row in enumerate(received.packed):
        d = received.n - len(row)
        if d > 1:
            raise ValueError(f"row {i} lost {d} symbols; these codes handle one")
        if d:
            short.append(i)
    if len(short) > limit:
        if limit == 1:
            raise ValueError("more than one row lost a symbol")
        raise ValueError(f"{len(short)} rows lost symbols; the code handles {limit}")
    return short


# ---------------------------------------------------------------------------
# C1D: binary single-deletion code, VT sum over all rows
# ---------------------------------------------------------------------------

def c1d_message_length(k: int, n: int) -> int:
    """Payload length n - ceil(log_{k+1}(n+1)) of the systematic encoder."""
    if n < 3:
        raise ValueError("need n >= 3")
    return n - digit_width(k + 1, n + 1)


def _c1d_redundancy_positions(k: int, n: int):
    m = n - c1d_message_length(k, n)
    return tuple((k + 1) ** j for j in range(m))  # 1-indexed positions


def c1d_contains(word: Word, a: int) -> bool:
    """Membership: sum_i VT(c_i) = sum_j j*rank(c[j]) = a mod n+1 (binary)."""
    if word.q != 2:
        raise ValueError("c1d is a binary family")
    return vt_syndrome(word.ranks()) % (word.n + 1) == a % (word.n + 1)


def c1d_encode(message, a: int, k: int, n: int) -> Word:
    """Place rank digits on non-power positions, balance on {(k+1)^j}."""
    message = tuple(message)
    powers = _c1d_redundancy_positions(k, n)
    if len(message) != n - len(powers):
        raise ValueError(
            f"message must have {n - len(powers)} ranks, got {len(message)}"
        )
    if not are_digits(message, k + 1):
        Word(2, k, message)  # raises the rank error, naming the message's rank
    ranks = [0] * (n + 1)  # 1-indexed
    slots = [j for j in range(1, n + 1) if j not in powers]
    for pos, r in zip(slots, message):
        ranks[pos] = r
    current = sum(j * ranks[j] for j in range(1, n + 1))
    d = (a - current) % (n + 1)
    for power, digit in zip(powers, expand_base(d, k + 1, len(powers))):
        ranks[power] = digit
    return Word.from_ranks(ranks[1:], 2, k)


def c1d_message(word: Word) -> tuple[int, ...]:
    powers = set(_c1d_redundancy_positions(word.k, word.n))
    return tuple(r for j, r in enumerate(word.ranks(), start=1) if j not in powers)


def c1d_decode(received: ReceivedRows, a: int) -> Word:
    """Recover from at most one deletion anywhere: the t = 1 congruence
    decode mod n+1, whose short row's VT residue is a minus the intact
    rows' VT sums.  Its post-decode check is c1d_contains in row form: for
    binary rows the VT of the rank sequence is the sum of the row VTs."""
    if received.q != 2:
        raise ValueError("c1d is a binary family")
    n = received.n
    return _congruence_decode_t(received, (a,), _row_code(2, n, n + 1, False))


# ---------------------------------------------------------------------------
# congruence families (membership + decoding; existential, no encoders)
# ---------------------------------------------------------------------------

def _t_row_code(shape, targets, p: int, psi: bool) -> tuple[tuple[int, ...], _RowCode]:
    """The targets, as a tuple, and the row code mod p of a t-row congruence
    family over shape's (q, k, n): VT rows (binary, q = 2) or VT(psi) rows.
    Empty targets, a binary family over q != 2 and a p that is not a prime
    above k - 1 and the row syndromes' range (n, or qn for psi rows) are
    ValueErrors."""
    targets = tuple(targets)
    if not targets:
        raise ValueError("the congruence targets are empty; give at least one")
    q, k, n = shape.q, shape.k, shape.n
    if not psi and q != 2:
        raise ValueError("binary congruence family needs q = 2")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    floor = max(k - 1, q * n if psi else n)
    if p <= floor:
        family = "the q-ary t-row family" if psi else "the binary t-row family"
        raise ValueError(f"{family} needs p > {floor}, got {p}")
    return targets, _row_code(q, n, p, psi)


def congruence_contains_binary_t(word: Word, targets, p: int) -> bool:
    targets, code = _t_row_code(word, targets, p, False)
    return code.holds(list(map(code.syndrome, word.packed)), targets)


def congruence_contains_qary_one(word: Word, a: int) -> bool:
    code = _row_code(word.q, word.n, word.q * word.n, True)
    return code.holds(list(map(code.syndrome, word.packed)), (a,))


def congruence_contains_qary_t(word: Word, targets, p: int) -> bool:
    targets, code = _t_row_code(word, targets, p, True)
    return code.holds(list(map(code.syndrome, word.packed)), targets)


def _congruence_decode_t(received, targets, code: _RowCode) -> Word:
    """Repair up to t = len(targets) short rows: the weighted sums of the
    intact rows' syndromes leave a Vandermonde system mod code.modulus for
    the short rows' syndromes, and each short row is then decoded by the row
    code.  At t = 1 the system is [[1]], so the modulus need not be prime.
    The syndromes that the repair returns must meet the targets
    (code.holds); a clean word takes the same path, with nothing to solve."""
    short = _row_deficits(received, len(targets))
    # the first |I| congruences suffice: with consecutive powers the matrix
    # is a plain Vandermonde in the distinct row nodes, invertible since
    # p > k - 1
    word, syndromes = repair_rows(
        received.packed, received.q, short, range(len(targets)),
        lambda j: targets[j], code,
        lambda i, residue: code.decode(received.packed[i], residue),
    )
    if not code.holds(syndromes, targets):
        what = "decoded word" if short else "clean rows"
        raise DecodeFailure(f"{what} does not satisfy the code congruences")
    return word


def congruence_decode_binary_t(received: ReceivedRows, targets, p: int) -> Word:
    return _congruence_decode_t(received, *_t_row_code(received, targets, p, False))


def congruence_decode_qary_one(received: ReceivedRows, a: int) -> Word:
    """The t = 1 q-ary congruence decode mod qn."""
    q, n = received.q, received.n
    return _congruence_decode_t(received, (a,), _row_code(q, n, q * n, True))


def congruence_decode_qary_t(received: ReceivedRows, targets, p: int) -> Word:
    return _congruence_decode_t(received, *_t_row_code(received, targets, p, True))


# ---------------------------------------------------------------------------
# marker constructions C2D, C3D, C4D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MarkerSpec:
    """A systematic marker code over Phi_{q,k}: payload length m and t
    syndrome blocks.  Its rows' syndromes range below m (binary VT) or qm
    (VT(psi)); the blocks hold their power sums mod that range at t = 1,
    and mod the prime in (range, 2 range) at t >= 2.  At t >= 2 the payload
    must be at least f(k, t) long, so that the prime exceeds f(k, t): this
    is the one f(k, t) gate of the marker codes.  C2DSpec, C3DSpec and
    C4DSpec build it."""

    q: int
    k: int
    t: int
    m: int

    def __post_init__(self):
        if self.q == 2 and self.t == 1:
            # VT mod m cannot place a deletion in a row of length m
            raise ValueError("binary rows need t >= 2 (t = 1 is the c1d family)")
        if self.t >= 2:
            need = f_threshold(self.k, self.t)
            if self.m < need:
                raise ValueError(f"payload length m={self.m} below f(k,t)={need}")

    @cached_property
    def p(self) -> int:
        """The blocks' modulus: the rows' syndrome range (m binary, qm
        q-ary) at t = 1, the prime in (range, 2 range) at t >= 2."""
        span = self.m if self.q == 2 else self.q * self.m
        return span if self.t == 1 else next_prime_bertrand(span)

    @cached_property
    def row_code(self) -> _RowCode:
        return _RowCode(self.q, self.m, self.p, self.q != 2)

    @cached_property
    def base(self) -> int:
        """The block digits' base: the alphabet size |Phi_{q,k}|."""
        return alphabet_size(self.q, self.k)

    @cached_property
    def delta(self) -> int:
        return digit_width(self.base, self.p)

    @cached_property
    def starts(self) -> tuple[int, ...]:
        """The position P_j = m + j*(delta+2) of block j's marker pair."""
        return tuple(range(self.m, self.n, self.delta + 2))

    @cached_property
    def markers(self) -> tuple[int, int]:
        """The ranks of the marker column pair (all-zero, all-one) that
        opens each syndrome block."""
        return column_ranks((b"\0\1",) * self.k, self.q)

    @property
    def n(self) -> int:
        return self.m + self.t * (self.delta + 2)

    def syndromes(self, payload: Word) -> list[int]:
        code = self.row_code
        return code.sums(list(map(code.syndrome, payload.packed)), range(self.t))


def C2DSpec(k: int, t: int, m: int) -> MarkerSpec:
    """Binary t-row single-deletion code: payload length m, prime in (m, 2m)."""
    if k < 2:
        raise ValueError("need k >= 2")
    check_t_rows(k, t)
    return MarkerSpec(2, k, t, m)


def C3DSpec(q: int, k: int, m: int) -> MarkerSpec:
    """q-ary single-deletion code: the t = 1 marker code, with one marker
    pair and one syndrome block mod qm."""
    if q < 3:
        raise ValueError("need q >= 3 (binary is the c1d family)")
    if k < 2 or m < 3:
        raise ValueError("need k >= 2 and m >= 3")
    return MarkerSpec(q, k, 1, m)


def C4DSpec(q: int, k: int, t: int, m: int) -> MarkerSpec:
    """q-ary t-row single-deletion code; syndromes are VT(psi) mod qm, lifted to F_p."""
    if q < 3:
        raise ValueError("need q >= 3 (binary is the C2D construction)")
    check_t_rows(k, t)
    return MarkerSpec(q, k, t, m)


def _marker_tail(sums, spec: MarkerSpec) -> Word:
    """The tail that carries the payload rows' weighted syndrome sums: per
    syndrome index j, the marker column pair and the base-|Phi_{q,k}|
    digits of sums[j]."""
    tail = []
    for value in sums:
        tail += spec.markers
        tail += expand_base(value, spec.base, spec.delta)
    return Word(spec.q, spec.k, tail)


def _marker_encode(payload: Word, spec: MarkerSpec) -> Word:
    check_payload(payload, spec)
    return payload + _marker_tail(spec.syndromes(payload), spec)


def c2d_encode(payload: Word, spec: MarkerSpec) -> Word:
    return _marker_encode(payload, spec)


def c3d_encode(payload: Word, spec: MarkerSpec) -> Word:
    return _marker_encode(payload, spec)


def c4d_encode(payload: Word, spec: MarkerSpec) -> Word:
    return _marker_encode(payload, spec)


def _segment_of(row, spec: MarkerSpec) -> int | None:
    """Which block a short row's deletion damaged, or None for a payload hit.

    The zero/one marker pair opening block j sits at positions P_j
    (spec.starts) and P_j + 1; after one deletion at or before P_j the
    received row reads 1 at P_j, otherwise 0.  Flags are therefore
    monotone over j, and their zeros come first: none means the payload (or
    its trailing marker) was hit, j >= 1 of them localize the hit to block
    j-1, and all t of them mean the deletion hit the last block's tail.
    """
    flags = [row[at] == 1 for at in spec.starts]
    if flags != sorted(flags):
        raise DecodeFailure("marker flags are not monotone; more than one deletion?")
    return None if flags[0] else flags.count(False) - 1


def _read_block_digits(received, spec: MarkerSpec, damage, j: int) -> int:
    """Assemble block j's digit columns across rows, undoing per-row shifts.

    A row shifted at block j's digits is one whose deletion happened earlier
    in the row: every payload-hit row, and every row whose damaged block
    precedes j.  Rows damaged at or after block j (and clean rows, seg = -1)
    read in place.
    """
    width = spec.delta
    start = spec.starts[j] + 2
    segments = []
    for row, seg in zip(received.packed, damage):
        at = start - (1 if (seg is None or 0 <= seg < j) else 0)
        segments.append(row[at : at + width])
    return out_of_model(block_value, segments, received.q, spec.base)


def _marker_decode(received: ReceivedRows, spec: MarkerSpec) -> Word:
    """Repair up to spec.t short rows of a marker code: each short row's
    marker flags say which segment lost its symbol, the intact syndrome
    blocks give the payload-hit rows' syndromes by one solve mod
    spec.p, and the decoded payload must re-encode to a supersequence
    of every row.  A word with no payload hit takes the same repair, with
    nothing to solve.  The re-encode takes the syndromes that the repair
    returned, the decoded rows' own; it shares _marker_tail with
    _marker_encode, and compares each received row with its payload row
    followed by its tail row."""
    check_shape(received, spec)
    t, m, code, packed = spec.t, spec.m, spec.row_code, received.packed
    # damage[i]: -1 clean, None payload hit, j >= 0 block j hit
    damage = [-1] * spec.k
    for i in _row_deficits(received, t):
        damage[i] = _segment_of(packed[i], spec)
    payload, syndromes = repair_rows(
        [None if seg is None else row[:m] for row, seg in zip(packed, damage)],
        received.q, [i for i, seg in enumerate(damage) if seg is None],
        [j for j in range(t) if j not in damage],
        lambda j: _read_block_digits(received, spec, damage, j), code,
        lambda i, value: code.decode(packed[i][: m - 1], value),
    )
    # the re-encode: each payload row followed by its row of the tail of
    # the decoded rows' own syndromes
    tail = _marker_tail(code.sums(syndromes, range(t)), spec)
    for got, row, end in zip(received.packed, payload.packed, tail.packed):
        if not _is_subsequence(got, row + end):
            raise DecodeFailure("decoded payload is inconsistent with the received rows")
    return payload


def c2d_decode(received: ReceivedRows, spec: MarkerSpec) -> Word:
    return _marker_decode(received, spec)


def c3d_decode(received: ReceivedRows, spec: MarkerSpec) -> Word:
    """Single deletion anywhere: the t = 1 marker decode mod qm.  The lone
    marker pair says whether the short row's payload was hit; if so the
    syndrome block drives VT(psi) decoding."""
    return _marker_decode(received, spec)


def c4d_decode(received: ReceivedRows, spec: MarkerSpec) -> Word:
    return _marker_decode(received, spec)
