"""Deletion-correcting code families over the composite channel.

Two decoders do all the work, one per construction shape.  Both hand the
short rows to the row-repair core shared with the substitution codes
(_codec.repair_rows): one Vandermonde solve of the intact rows' weighted
power sums gives the short rows' syndromes, and each short row is then
decoded on its own.  A single-deletion code is their t = 1 case, whose
solve is the 1 x 1 system [[1]] over a modulus that need not be prime.

Failures: malformed input (a shape that does not match the spec, a row that
lost more than one symbol, more short rows than the code handles) is a
ValueError.  The core's failures (too few intact syndrome blocks, a solved
residue that does not lift, a repaired word with an invalid column), the
post-decode congruence check, clean rows outside the code and a decoded
payload whose codeword is not a supersequence of every row are
DecodeFailures.  Some out-of-model words still end in a plain ValueError:
an invalid column or block letter read off unrepaired rows and
non-monotone marker flags.

* congruence_*: codes cut out by syndrome congruences, decoded by
  _congruence_decode_t.  Binary t-row variants weight the per-row VT sums
  by i^j mod p, q-ary ones the VT(psi(.)) sums; cong-qary-1 is the t = 1
  q-ary code mod qn.  No encoders (these families exist by pigeonhole on
  the best class); membership tests and decoders are given.
* c1d_*: the binary t = 1 congruence code sum_i VT(c_i) = a mod n+1, with a
  systematic encoder whose redundancy lives on the base-(k+1) power
  positions {(k+1)^j}.
* C2D/C4D: systematic t-row single-deletion codes, decoded by
  _marker_decode.  They append, per syndrome index j, a marker column pair
  (all-zero, all-one) followed by the base-Q digits of the j-th weighted
  syndrome mod p.  The marker pair localizes which segment of an affected
  row lost its symbol.
* C3D: the q-ary t = 1 marker code, with one marker pair and one syndrome
  block mod qm.

Row indices inside syndrome weights are 1-based (i = 1..k), as are the
congruence targets; everything else in the code is 0-indexed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

from ._codec import block_value, check_payload, intake, repair_rows
from .alphabet import Word, alphabet_size, column_rank
from .algebra import (
    digit_width,
    expand_base,
    f_threshold,
    is_prime,
    next_prime_bertrand,
    power_sums,
)
from .channel import ReceivedRows
from .vt_core import (
    DecodeFailure,
    qary_decode_one_deletion,
    qary_vt_syndrome,
    vt_decode_one_deletion,
    vt_syndrome,
)


def _is_subsequence(sub, sup) -> bool:
    it = iter(sup)
    return all(any(v == w for w in it) for v in sub)


def _row_deficits(received: ReceivedRows, limit: int) -> list[int]:
    """The rows that lost a symbol, in order; rejects a row that lost more
    than one, and more than limit short rows."""
    short = []
    for i, row in enumerate(received.rows):
        d = received.n - len(row)
        if d < 0 or d > 1:
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
    ranks = [0] * (n + 1)  # 1-indexed
    slots = [j for j in range(1, n + 1) if j not in powers]
    for pos, r in zip(slots, message):
        ranks[pos] = r
    current = sum(j * ranks[j] for j in range(1, n + 1))
    d = (a - current) % (n + 1)
    for power, digit in zip(powers, expand_base(d, k + 1, n + 1)):
        ranks[power] = digit
    return Word.from_ranks(ranks[1:], 2, k)


def c1d_message(word: Word) -> tuple[int, ...]:
    powers = set(_c1d_redundancy_positions(word.k, word.n))
    return tuple(r for j, r in enumerate(word.ranks(), start=1) if j not in powers)


def c1d_decode(received: ReceivedRows, a: int) -> Word:
    """Recover from at most one deletion anywhere: the t = 1 congruence
    decode mod n+1, whose short row's VT residue is a minus the intact
    rows' VT sums."""
    if received.q != 2:
        raise ValueError("c1d is a binary family")
    modulus = received.n + 1
    return _congruence_decode_t(
        received, (a,), modulus, modulus, vt_syndrome,
        lambda word: c1d_contains(word, a),
        lambda row, residue: vt_decode_one_deletion(row, residue, modulus),
    )


# ---------------------------------------------------------------------------
# congruence families (membership + decoding; existential, no encoders)
# ---------------------------------------------------------------------------

def _check_prime_above(p: int, floor: int, what: str):
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p <= floor:
        raise ValueError(f"{what} needs p > {floor}, got {p}")


def congruence_contains_binary_t(word: Word, targets, p: int) -> bool:
    targets = tuple(targets)
    if word.q != 2:
        raise ValueError("binary congruence family needs q = 2")
    _check_prime_above(p, max(word.k - 1, word.n), "the binary t-row family")
    sums = power_sums([vt_syndrome(r) for r in word.rows()], range(len(targets)), p)
    return sums == [t % p for t in targets]


def congruence_contains_qary_one(word: Word, a: int) -> bool:
    modulus = word.q * word.n
    total = sum(qary_vt_syndrome(r, word.q) for r in word.rows()) % modulus
    return total == a % modulus


def congruence_contains_qary_t(word: Word, targets, p: int) -> bool:
    targets = tuple(targets)
    _check_prime_above(p, max(word.k - 1, word.q * word.n), "the q-ary t-row family")
    values = [qary_vt_syndrome(r, word.q) for r in word.rows()]
    return power_sums(values, range(len(targets)), p) == [t % p for t in targets]


def _congruence_decode_t(received, targets, p, lift_bound, syndrome, contains, decode_row):
    """Repair up to t = len(targets) short rows: the weighted sums of the
    intact rows' syndromes leave a Vandermonde system mod p for the short
    rows' syndromes, which must lie below lift_bound, and each short row is
    then decoded on its own.  At t = 1 the system is [[1]], so p may be any
    modulus."""
    short = _row_deficits(received, len(targets))
    if not short:
        word = Word.from_rows(received.rows, received.q)
        if not contains(word):
            raise DecodeFailure("clean rows do not satisfy the code congruences")
        return word
    # the first |I| congruences suffice: with consecutive powers the matrix is
    # a plain Vandermonde in the distinct row nodes, invertible since p > k - 1
    word = repair_rows(
        received.rows, received.q, short, range(len(targets)),
        lambda j: targets[j], syndrome, p, lift_bound,
        lambda i, residue: decode_row(received.rows[i], residue),
    )
    if not contains(word):
        raise DecodeFailure("decoded word does not satisfy the code congruences")
    return word


def congruence_decode_binary_t(received: ReceivedRows, targets, p: int) -> Word:
    targets = tuple(targets)
    if received.q != 2:
        raise ValueError("binary congruence family needs q = 2")
    n, k, t = received.n, received.k, len(targets)
    _check_prime_above(p, max(k - 1, n), "the binary t-row family")
    if p <= f_threshold(k, t) and t >= 2:
        warnings.warn(
            "p is below the generalized-Vandermonde threshold f(k, t); "
            "decoding still uses consecutive syndrome indices, which stay invertible",
            stacklevel=2,
        )
    return _congruence_decode_t(
        received, targets, p, p, vt_syndrome,
        lambda word: congruence_contains_binary_t(word, targets, p),
        lambda row, residue: vt_decode_one_deletion(row, residue, p),
    )


def congruence_decode_qary_one(received: ReceivedRows, a: int) -> Word:
    """The t = 1 q-ary congruence decode mod qn."""
    q, n = received.q, received.n
    return _congruence_decode_t(
        received, (a,), q * n, q * n, lambda row: qary_vt_syndrome(row, q),
        lambda word: congruence_contains_qary_one(word, a),
        lambda row, residue: qary_decode_one_deletion(row, residue, q, n),
    )


def congruence_decode_qary_t(received: ReceivedRows, targets, p: int) -> Word:
    targets = tuple(targets)
    q, n, k = received.q, received.n, received.k
    _check_prime_above(p, max(k - 1, q * n), "the q-ary t-row family")
    return _congruence_decode_t(
        received, targets, p, q * n, lambda row: qary_vt_syndrome(row, q),
        lambda word: congruence_contains_qary_t(word, targets, p),
        lambda row, residue: qary_decode_one_deletion(row, residue, q, n),
    )


# ---------------------------------------------------------------------------
# marker constructions C2D, C3D, C4D
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class C2DSpec:
    """Binary t-row single-deletion code: payload length m, prime in (m, 2m)."""

    k: int
    t: int
    m: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("need k >= 2")
        if not 2 <= self.t <= self.k:
            raise ValueError("need 2 <= t <= k")
        need = f_threshold(self.k, self.t)
        if self.m < need:
            raise ValueError(f"payload length m={self.m} below f(k,t)={need}")

    @property
    def q(self) -> int:
        return 2

    @cached_property
    def p(self) -> int:
        return next_prime_bertrand(self.m)

    @cached_property
    def delta(self) -> int:
        return digit_width(self.k + 1, self.p)

    @property
    def n(self) -> int:
        return self.m + self.t * (self.delta + 2)

    def syndromes(self, payload: Word):
        values = [vt_syndrome(r) for r in payload.rows()]
        return power_sums(values, range(self.t), self.p)


@dataclass(frozen=True)
class C3DSpec:
    """q-ary single-deletion code: the t = 1 marker code, with one marker
    pair and one syndrome block mod qm."""

    q: int
    k: int
    m: int
    t = 1

    def __post_init__(self):
        if self.q < 3:
            raise ValueError("need q >= 3 (binary is the c1d family)")
        if self.k < 2 or self.m < 3:
            raise ValueError("need k >= 2 and m >= 3")

    @cached_property
    def modulus(self) -> int:
        return self.q * self.m

    @cached_property
    def delta(self) -> int:
        return digit_width(alphabet_size(self.q, self.k), self.modulus)

    @property
    def n(self) -> int:
        return self.m + self.t * (self.delta + 2)

    def syndromes(self, payload: Word):
        values = [qary_vt_syndrome(r, self.q) for r in payload.rows()]
        return power_sums(values, range(self.t), self.modulus)


@dataclass(frozen=True)
class C4DSpec:
    """q-ary t-row single-deletion code; syndromes are VT(psi) mod qm, lifted to F_p."""

    q: int
    k: int
    t: int
    m: int

    def __post_init__(self):
        if self.q < 3:
            raise ValueError("need q >= 3 (binary is the C2D construction)")
        if not 2 <= self.t <= self.k:
            raise ValueError("need 2 <= t <= k")
        need = f_threshold(self.k, self.t)
        if self.m < need:
            raise ValueError(f"payload length m={self.m} below f(k,t)={need}")

    @cached_property
    def p(self) -> int:
        return next_prime_bertrand(self.q * self.m)

    @cached_property
    def delta(self) -> int:
        return digit_width(alphabet_size(self.q, self.k), self.p)

    @property
    def n(self) -> int:
        return self.m + self.t * (self.delta + 2)

    def syndromes(self, payload: Word):
        values = [qary_vt_syndrome(r, self.q) for r in payload.rows()]
        return power_sums(values, range(self.t), self.p)


def _marker_encode(payload: Word, spec, digit_base: int) -> Word:
    check_payload(payload, spec)
    q, k = payload.q, payload.k
    markers = [column_rank((0,) * k, q), column_rank((1,) * k, q)]
    ranks = list(payload.ranks())
    for value in spec.syndromes(payload):
        ranks += markers
        ranks += expand_base(value, digit_base, digit_base**spec.delta)
    return Word.from_ranks(ranks, q, k)


def c2d_encode(payload: Word, spec: C2DSpec) -> Word:
    return _marker_encode(payload, spec, spec.k + 1)


def c3d_encode(payload: Word, spec: C3DSpec) -> Word:
    return _marker_encode(payload, spec, alphabet_size(spec.q, spec.k))


def c4d_encode(payload: Word, spec: C4DSpec) -> Word:
    return _marker_encode(payload, spec, alphabet_size(spec.q, spec.k))


def _segment_of(row, short: bool, spec) -> int | None:
    """Which block the row's deletion damaged, or None for a payload hit.

    The zero/one marker pair opening block j sits at positions
    P_j = m + j*(delta+2) and P_j + 1; after one deletion at or before P_j
    the received row reads 1 at P_j, otherwise 0.  Flags are therefore
    monotone over j: all-zero means the deletion hit the last block's tail,
    a first 1 at j = 0 means the payload (or its trailing marker) was hit,
    and a first 1 at j >= 1 localizes the hit to block j-1.
    """
    if not short:
        return -1  # clean row: damages nothing, shifts nothing
    flags = [row[spec.m + j * (spec.delta + 2)] == 1 for j in range(spec.t)]
    if any(flags[j] and not flags[j + 1] for j in range(spec.t - 1)):
        raise ValueError("marker flags are not monotone; more than one deletion?")
    if flags[0]:
        return None
    if not flags[-1]:
        return spec.t - 1
    return next(j for j in range(spec.t) if flags[j]) - 1


def _read_block_digits(received, spec, damage, j: int, digit_base: int) -> int:
    """Assemble block j's digit columns across rows, undoing per-row shifts.

    A row shifted at block j's digits is one whose deletion happened earlier
    in the row: every payload-hit row, and every row whose damaged block
    precedes j.  Rows damaged at or after block j (and clean rows, seg = -1)
    read in place.
    """
    width = spec.delta
    start = spec.m + j * (width + 2) + 2
    segments = []
    for i, row in enumerate(received.rows):
        seg = damage[i]
        at = start - (1 if (seg is None or 0 <= seg < j) else 0)
        segments.append(row[at : at + width])
    return block_value(segments, received.q, digit_base)


def _marker_decode(received: ReceivedRows, spec, digit_base, modulus, lift_bound, row_decode, row_syndrome) -> Word:
    """Repair up to spec.t short rows of a marker code: each short row's
    marker flags say which segment lost its symbol, the intact syndrome
    blocks give the payload-hit rows' syndromes by one solve mod modulus,
    and the decoded payload must re-encode to a supersequence of every row."""
    intake(received, spec, full_length=False)
    t = spec.t
    short = _row_deficits(received, t)

    # damage[i]: -1 clean, None payload hit, j >= 0 block j hit
    damage = {
        i: _segment_of(row, i in short, spec) for i, row in enumerate(received.rows)
    }
    unknown = sorted(i for i, seg in damage.items() if seg is None)
    rows = [None] * received.k
    for i, row in enumerate(received.rows):
        if damage[i] is not None:
            rows[i] = row[: spec.m]

    if unknown:
        blocked = {seg for seg in damage.values() if seg is not None and seg >= 0}
        payload = repair_rows(
            rows, received.q, unknown, [j for j in range(t) if j not in blocked],
            lambda j: _read_block_digits(received, spec, damage, j, digit_base),
            row_syndrome, modulus, lift_bound,
            lambda i, value: row_decode(received.rows[i][: spec.m - 1], value),
        )
    else:
        payload = Word.from_rows(rows, received.q)
    codeword = _marker_encode(payload, spec, digit_base)
    for got, want in zip(received.rows, codeword.rows()):
        if not _is_subsequence(got, want):
            raise DecodeFailure("decoded payload is inconsistent with the received rows")
    return payload


def c2d_decode(received: ReceivedRows, spec: C2DSpec) -> Word:
    return _marker_decode(
        received,
        spec,
        digit_base=spec.k + 1,
        modulus=spec.p,
        lift_bound=spec.p,
        row_decode=lambda prefix, value: vt_decode_one_deletion(prefix, value, spec.p),
        row_syndrome=vt_syndrome,
    )


def _qary_marker_decode(received: ReceivedRows, spec, modulus: int) -> Word:
    """C3D and C4D: VT(psi) rows, whose syndromes lift below qm."""
    return _marker_decode(
        received,
        spec,
        digit_base=alphabet_size(spec.q, spec.k),
        modulus=modulus,
        lift_bound=spec.q * spec.m,
        row_decode=lambda prefix, value: qary_decode_one_deletion(
            prefix, value, spec.q, spec.m
        ),
        row_syndrome=lambda row: qary_vt_syndrome(row, spec.q),
    )


def c3d_decode(received: ReceivedRows, spec: C3DSpec) -> Word:
    """Single deletion anywhere: the t = 1 marker decode mod qm.  The lone
    marker pair says whether the short row's payload was hit; if so the
    syndrome block drives VT(psi) decoding."""
    return _qary_marker_decode(received, spec, spec.modulus)


def c4d_decode(received: ReceivedRows, spec: C4DSpec) -> Word:
    return _qary_marker_decode(received, spec, spec.p)
