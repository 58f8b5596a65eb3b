"""VT-style syndromes and the single-error decoders built from them.

This module works on plain digit sequences (rows), not composite words.  It
provides:

* the weighted syndrome VT(x) = sum_i i * x_i (1-indexed),
* binary single-deletion decoding from VT(x) mod N with N > len(x), in O(n)
  by Levenshtein's placement rule,
* the difference transform psi and q-ary single-deletion decoding from
  VT(psi(x)) mod q*n in O(n), from the suffix sums of psi(y), which
  telescope to a digit of y plus q times a count of its ascents (on a
  long bytes row, one popcount of its ascent mask),
* q-ary single-substitution decoding from the pair (VT(x) mod 2n(q-1),
  Sum(x) mod q),
* the 1-limited-magnitude code {c : VT(c) = a mod 2n+1} over Sigma_Q with its
  systematic encoder and decoder.

Neither single-deletion decoder recomputes a syndrome per candidate: the
binary one places the symbol directly; the q-ary one knows the one symbol
per position that can meet the residue, and bisects for the at most 2q + 1
positions where it can (its docstring gives the argument: the residue left
for a position wraps at most once over the row, and on each side of the
wrap the slack g = r - pos*q falls strictly).  Their per-symbol work runs
in C builtins (sum, map, accumulate, count, split, set), and the q-ary one
adds O(log n + q) interpreted steps.

The four digit-row kernels (the two single-deletion decoders,
qary_vt_syndrome and the substitution decoder) read one row format, the
packed row of alphabet.Word and channel.ReceivedRows, one bytes object
whose format alphabet.pack_rows sets, and return a bytes row; a row of any
other type is a ValueError that names the format.  A bytes row holds ints,
so only their range is left to test, after the length checks: a digit
outside Sigma_q is a plain ValueError, never a DecodeFailure or a returned
row, by algebra.are_digits (one bytes.translate), and the binary decoder's
two counts, which also give it the row's weight, are its whole check.
vt_syndrome and the 1-LME kernels also take int sequences: the binary
codes c1d and cecc1 hand them rank sequences, whose ranks can exceed a
byte; the 1-LME decoder refuses a digit that is no int of Sigma_q (1.5,
1.0, -1, q, '1') by are_digits.

The syndromes have a wide-row path, chosen by length alone: a bytes row of
at least _WIDE symbols (128: on one- and two-bit rows VT(psi) gains from
about 64 symbols, the q-ary deletion decoder from about 110 and binary VT
from about 180) becomes one int per digit
bit, its bit planes, through one bytes.translate and one base-2 int()
each.  A sum of weighted positions is then about log2(n) C-level ANDs and
popcounts against cached index masks, and the ascents of VT(psi(x)) are
a bit-sliced compare of the planes with themselves shifted by one
position.  A binary row has one plane; every other row takes as many as
its largest digit needs, so the value is the accumulate formula's for
every bytes row, a digit >= q included.  The q-ary deletion decoder takes
the same path by the same test on its row: one helper gives it, as it
gives VT(psi), the digit sum and the ascent mask, and each ascent count
its bisection reads is one popcount of the mask's low bits.
Shorter rows, and the int sequences of vt_syndrome, keep the accumulate
formulas, which the tests compare the planes against.
The brute-force enumerators the deletion decoders replace, O(q * n^2), are
kept as ``_reference_vt_decode_one_deletion`` and
``_reference_qary_decode_one_deletion``, which enumerate bytes candidates;
the tests check that both give the same rows and the same failures.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import accumulate, compress, count
from operator import lt

from .algebra import are_digits, digit_width, expand_base
from .alphabet import SYMBOL_ROWS


class DecodeFailure(ValueError):
    """No candidate (or more than one) is consistent with the syndromes."""


def _check_packed(row) -> None:
    """The ValueError of a row that is not packed, one bytes object."""
    if type(row) is not bytes:
        raise ValueError(f"the row kernels read packed rows (bytes), not {type(row).__name__}")


def _insert(y: bytes, pos: int, sym: int) -> bytes:
    """The packed row y with the digit sym inserted at pos."""
    return y[:pos] + SYMBOL_ROWS[sym] + y[pos:]


def _check_digits(y, q: int) -> None:
    """The ValueError of a row y with a digit that is no int of Sigma_q
    (algebra.are_digits), made after the kernels' length checks."""
    if not are_digits(y, q):
        raise ValueError(f"received row is not over Sigma_{q}")


# A bytes row of at least _WIDE symbols takes its syndromes from bit planes:
# _PLANE[c] maps a byte to ASCII '0' or '1', its bit c, so that
# int(row.translate(_PLANE[c]), 2) holds bit c of the i-th digit (1-based)
# at bit n - i; _BELOW[c] is the bytes that c bits spell.
_WIDE = 128
_PLANE = tuple((b"0" * (1 << c) + b"1" * (1 << c)) * (128 >> c) for c in range(8))
_BELOW = tuple(bytes(range(1 << c)) for c in range(9))


def _planes(row: bytes) -> list[int]:
    """The bit planes of a bytes row, bit 0 first, as many as its largest
    digit needs (one for a binary row)."""
    c = 1
    while row.translate(None, _BELOW[c]):
        c += 1
    return [int(row.translate(plane), 2) for plane in _PLANE[:c]]


@lru_cache(maxsize=None)
def _index_masks(bits: int) -> tuple[int, ...]:
    """M_b for b < bits: the int whose bit j, for j < 2^bits, is bit b of j,
    that is 2^b zeros then 2^b ones, repeated: that block times the
    repunit of base 2^(2^(b+1))."""
    width = 1 << bits
    return tuple(
        ((1 << width) - 1) // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
        for half in (1 << b for b in range(bits))
    )


def _position_sum(plane: int, n: int) -> int:
    """The sum of the 1-based positions that a plane of an n-symbol row has
    set: bit j is position n - j, and sum(j) = sum_b 2^b popcount(plane & M_b)."""
    total = n * plane.bit_count()
    for b, mask in enumerate(_index_masks(n.bit_length())):
        total -= (plane & mask).bit_count() << b
    return total


def vt_syndrome(x) -> int:
    """VT(x) = sum_i i * x_i with positions counted from 1, for a packed row
    or an int sequence x: the sum of its suffix sums, since x_i lies in the
    first i of them; for a long bytes row, sum_c 2^c times the position sum
    of plane c."""
    if len(x) < _WIDE or not isinstance(x, bytes):
        return sum(accumulate(reversed(x)))
    return sum(_position_sum(plane, len(x)) << c for c, plane in enumerate(_planes(x)))


# ---------------------------------------------------------------------------
# single deletion, direct VT syndrome
# ---------------------------------------------------------------------------

def vt_decode_one_deletion(y, a: int, modulus: int):
    """Recover the binary row x from y in D_1(x) given VT(x) = a (mod modulus).

    Uniqueness requires modulus > len(x) = len(y) + 1.  Levenshtein's
    placement rule decodes in O(n): the n + 1 distinct insertions raise VT by
    0..n, and d = a - VT(y) alone says where the symbol goes.  With w ones
    in y, d <= w is a 0 with d ones to its right, w < d <= n a 1 with
    d - w - 1 zeros to its left, and a larger d matches no insertion; one
    C-level split of y finds the position.  q-ary rows use
    ``qary_decode_one_deletion``.  ``_reference_vt_decode_one_deletion`` is
    the brute-force oracle.
    """
    _check_packed(y)
    n = len(y) + 1
    if modulus <= n:
        raise ValueError(f"modulus {modulus} too small for length {n}")
    weight = y.count(1)  # the two counts check the digits and give the weight
    if y.count(0) + weight != len(y):
        raise ValueError("received row is not over Sigma_2")
    d = (a - vt_syndrome(y)) % modulus
    if d <= weight:  # a 0 just left of the d-th one from the right
        return _insert(y, len(y.rsplit(b"\1", d)[0]), 0)
    if d <= n:  # a 1 just right of the (d - w - 1)-th zero from the left
        return _insert(y, len(y) - len(y.split(b"\0", d - weight - 1)[-1]), 1)
    raise DecodeFailure("expected exactly one candidate, found 0")


def _reference_vt_decode_one_deletion(y, a: int, modulus: int):
    """Brute-force oracle for ``vt_decode_one_deletion``: insert every bit at
    every position of the packed row and recompute the syndrome, O(n^2)."""
    _check_packed(y)
    n = len(y) + 1
    if modulus <= n:
        raise ValueError(f"modulus {modulus} too small for length {n}")
    _check_digits(y, 2)
    candidates = set()
    for pos in range(n):
        for sym in (0, 1):
            cand = _insert(y, pos, sym)
            if vt_syndrome(cand) % modulus == a % modulus:
                candidates.add(cand)
    if len(candidates) != 1:
        raise DecodeFailure(
            f"expected exactly one candidate, found {len(candidates)}"
        )
    return candidates.pop()


# ---------------------------------------------------------------------------
# psi transform and q-ary single deletion
# ---------------------------------------------------------------------------

def psi(x, q: int):
    """Difference transform: psi(x)_i = x_i - x_{i+1} mod q, psi(x)_n = x_n."""
    x = tuple(x)
    if not x:
        raise ValueError("psi of an empty sequence")
    return tuple([(u - v) % q for u, v in zip(x, x[1:])]) + (x[-1],)


def psi_inverse(z, q: int):
    """x_i = z_i + ... + z_n mod q, the suffix sums of z."""
    z = tuple(z)
    if not z:
        raise ValueError("psi_inverse of an empty sequence")
    return tuple([s % q for s in accumulate(reversed(z))][::-1])


def qary_vt_syndrome(x, q: int) -> int:
    """VT(psi(x)) mod q*n — the deletion syndrome for q-ary rows.

    For digits of Sigma_q, (x_i - x_{i+1}) mod q is x_i - x_{i+1}, plus q
    when x_i < x_{i+1}; the weighted sum telescopes to Sum(x) plus q times
    the sum of the (1-based) ascent positions i, those with x_i < x_{i+1}.
    x is a packed row.  A long one compares its bit planes with themselves
    one position on, top plane first: x_i < x_{i+1} at the first plane
    where they differ, if x_{i+1} has the one there.
    """
    _check_packed(x)
    if not x:
        raise ValueError("psi of an empty sequence")
    n = len(x)
    if n < _WIDE:
        return (sum(x) + q * sum(compress(count(1), map(lt, x, x[1:])))) % (q * n)
    total, ascents = _sum_and_ascents(x)
    return (total + q * _position_sum(ascents, n)) % (q * n)


def _sum_and_ascents(x: bytes) -> tuple[int, int]:
    """Sum(x) and the ascent mask of an n-symbol bytes row x, whose bit
    n - i is set when x_i < x_{i+1} (1-based i, as in a plane): the planes
    compared with themselves one position on, top plane first."""
    planes = _planes(x)
    total, equal, ascents = 0, (1 << len(x)) - 1, 0
    for c in reversed(range(len(planes))):
        here = planes[c]
        after = here << 1  # bit n - i holds bit c of x_{i+1}
        differ = here ^ after
        ascents |= equal & differ & after
        equal ^= equal & differ
        total += here.bit_count() << c
    return total, ascents


class _AscentCounts:
    """The ascent counts of a row read from its ascent mask, indexed as the
    list of their suffix sums: item j is the number of ascents among the
    row's last j + 1 positions, the mask's bits 0..j, one popcount."""

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __getitem__(self, j: int) -> int:
        return (self.mask & ((2 << j) - 1)).bit_count()


def qary_decode_one_deletion(y, a: int, q: int, n: int):
    """Recover x of length n over Sigma_q from one deletion, given
    VT(psi(x)) = a (mod q*n), in O(n) at C speed plus O(log n + q)
    interpreted steps.

    Write e = y + (0,), so that psi(e) = psi(y) + (0,), and let S = VT(psi(y))
    and s_pos = psi(e)_pos + ... + psi(e)_{n-1}.  Inserting sym at pos
    changes only the psi entries at pos - 1 and pos.  With
    u = (sym - e_pos) mod q and c = psi(e)_{pos-1} = (y_{pos-1} - e_pos) mod q,
    the new row's syndrome is S + s_pos + u for u < c and
    S + s_pos + pos*q + u for u > c; at pos = 0 there is no c, and every u
    gives S + s_0 + u, the second form with c = -1.  All of them lie in
    [S + s_pos, S + s_pos + q*n), so r = (a - S - s_pos) mod q*n names the
    one symbol of each form that can match: u = r if r < c, and
    u = r - pos*q if pos*q + c < r < (pos + 1)*q.
    ``_reference_qary_decode_one_deletion`` is the brute-force oracle.

    u = c means sym = y_{pos-1}, the same row as inserting sym at pos - 1:
    only *canonical* insertions are counted, so every distinct supersequence
    of y is visited once.  The number of matches is then the number of
    distinct candidate rows, which is what the reference enumerator counts.

    The matches are found by bisection, not by a pass over the positions.
    The psi entries telescope: s_pos = e_pos + q * (the number of ascents
    e_i < e_{i+1} at i >= pos): one accumulate over the ascent flags, or,
    for a row of at least _WIDE symbols, one popcount of the low bits
    of the ascent mask that qary_vt_syndrome reads too.  With
    d = (a - S) mod q*n, D_pos = d - s_pos does not decrease as pos grows
    and spans less than q*n, so r = D_pos mod q*n wraps at most once, at
    the first pos w with s_pos <= d: r = D_pos from w on and
    D_pos + q*n before it.  Since r_pos = r_{pos-1} + c within a side,
    r < c holds at most at w.  And g = r - pos*q falls by q - c >= 1 per
    step within a side, so the positions with 0 <= g < q, the only ones
    where c < g < q can hold, are at most q consecutive ones, found by
    bisecting on s_pos + pos*q.
    """
    _check_packed(y)
    if len(y) != n - 1:
        raise ValueError(f"received length {len(y)}, expected {n - 1}")
    _check_digits(y, q)
    modulus = q * n
    e = _insert(y, n - 1, 0)
    # after[n - 1 - pos]: the number of ascents e_i < e_{i+1} at i >= pos
    if n < _WIDE:
        after = list(accumulate(map(lt, e[-2::-1], e[:0:-1]), initial=0))
        total, ascent_sum = sum(e), sum(after)
    else:
        total, ascents = _sum_and_ascents(e)
        after, ascent_sum = _AscentCounts(ascents), _position_sum(ascents, n)
    d = (a - total - q * ascent_sum) % modulus
    last = n - 1
    w = bisect_left(range(n), -d, key=lambda pos: -e[pos] - q * after[last - pos])
    hits = []
    if w:  # the wrap, the one position where u = r < c can hold
        r = d - e[w] - q * after[last - w]
        if r < (e[w - 1] - e[w]) % q:
            hits.append((w, (e[w] + r) % q))
    for lo, hi, base in ((0, w, d + modulus), (w, n, d)):
        # g = base - f(pos), f(pos) = s_pos + pos*q; start at the first g < q
        pos = bisect_right(
            range(n), base - q, lo, hi,
            key=lambda pos: e[pos] + q * (after[last - pos] + pos),
        )
        while pos < hi:
            g = base - e[pos] - q * (after[last - pos] + pos)
            if g < 0:
                break
            if g > ((e[pos - 1] - e[pos]) % q if pos else -1):
                hits.append((pos, (e[pos] + g) % q))
            pos += 1
    if len(hits) != 1:
        raise DecodeFailure(f"expected exactly one candidate, found {len(hits)}")
    ((pos, sym),) = hits
    return _insert(y, pos, sym)


def _reference_qary_decode_one_deletion(y, a: int, q: int, n: int):
    """Brute-force oracle for ``qary_decode_one_deletion``: insert every
    symbol at every position of the packed row, each distinct row once, and
    recompute the whole row's VT(psi) (qary_vt_syndrome, which its tests
    hold to vt_syndrome(psi(x))), O(q * n^2)."""
    _check_packed(y)
    if len(y) != n - 1:
        raise ValueError(f"received length {len(y)}, expected {n - 1}")
    _check_digits(y, q)
    candidates = set()
    for pos in range(n):
        for sym in range(q):
            if pos and sym == y[pos - 1]:
                continue  # the same row as this insertion one position earlier
            cand = _insert(y, pos, sym)
            if qary_vt_syndrome(cand, q) == a % (q * n):
                candidates.add(cand)
    if len(candidates) != 1:
        raise DecodeFailure(
            f"expected exactly one candidate, found {len(candidates)}"
        )
    return candidates.pop()


# ---------------------------------------------------------------------------
# q-ary single substitution from (VT mod 2n(q-1), Sum mod q)
# ---------------------------------------------------------------------------

def qary_decode_one_substitution(y, vt_mod: int, sum_mod: int, q: int):
    """Correct at most one substitution in the packed row y over Sigma_q.

    vt_mod is VT(x) mod 2n(q-1) and sum_mod is Sum(x) mod q for the original
    row x.  The substituted value delta = y_i - x_i lies in
    [-(q-1), q-1] \\ {0}; Sum pins delta mod q and VT pins i * delta mod
    2n(q-1), which determines (i, delta) uniquely.
    """
    _check_packed(y)
    n = len(y)
    if n == 0:
        raise ValueError("empty row")
    _check_digits(y, q)
    delta1 = (sum(y) - sum_mod) % q
    if delta1 == 0:
        return y
    span = 2 * n * (q - 1)
    delta2 = (vt_syndrome(y) - vt_mod) % span
    half = n * (q - 1)
    if delta2 == 0:
        raise DecodeFailure("syndromes disagree: Sum dirty but VT clean")
    if delta2 == half:
        # i * delta = +- n(q-1): position n, magnitude q-1.  For q = 2 the two
        # signs collide mod q, so the boundary digit decides.
        pos = n
        if q == 2:
            delta = 1 if y[-1] == 1 else -1
        elif delta1 == q - 1:
            delta = q - 1
        elif delta1 == 1:
            delta = -(q - 1)
        else:
            raise DecodeFailure("boundary case with inconsistent Sum syndrome")
    else:
        delta, num = (delta1, delta2) if delta2 < half else (delta1 - q, delta2 - span)
        if num % delta != 0:
            raise DecodeFailure("VT offset not divisible by the substitution value")
        pos = num // delta
        if not 1 <= pos <= n:
            raise DecodeFailure(f"implied position {pos} out of range")
    return y[: pos - 1] + SYMBOL_ROWS[_corrected(y, pos - 1, delta, q)] + y[pos:]


def _corrected(y, pos: int, delta: int, q: int) -> int:
    """Digit pos of y less delta, which must lie in Sigma_q."""
    value = y[pos] - delta
    if not 0 <= value < q:
        raise DecodeFailure(f"corrected digit {value} out of Sigma_{q}")
    return value


# ---------------------------------------------------------------------------
# 1-limited-magnitude code: C(n; Q, a) = {c in Sigma_Q^n : VT(c) = a mod 2n+1}
# ---------------------------------------------------------------------------

def lme_contains(x, a: int) -> bool:
    mod = 2 * len(tuple(x)) + 1
    return vt_syndrome(x) % mod == a % mod


def lme_decode(y, a: int, q: int):
    """Correct one magnitude-1 error (some y_i = x_i +- 1) in y over Sigma_Q.

    Delta = VT(y) - a mod 2n+1 localizes the error: Delta in [1, n] means
    position Delta gained 1; Delta in [n+1, 2n] means position 2n+1-Delta
    lost 1.
    """
    y = tuple(y)
    n = len(y)
    if n == 0:
        raise ValueError("empty row")
    _check_digits(y, q)
    delta = (vt_syndrome(y) - a) % (2 * n + 1)
    if delta == 0:
        return y
    pos, step = (delta - 1, 1) if delta <= n else (2 * n - delta, -1)
    return y[:pos] + (_corrected(y, pos, step, q),) + y[pos + 1:]


def lme_message_length(n: int, q: int) -> int:
    """Payload symbols of the systematic encoder: n - m - 1, m = ceil(log_Q n)."""
    if q < 3:
        raise ValueError("systematic 1-LME encoding needs Q >= 3")
    if n < 2:
        raise ValueError("need n >= 2")
    return n - digit_width(q, n) - 1


def lme_encode(message, a: int, q: int, n: int):
    """Systematic encoder into C(n; Q, a).

    Redundancy positions are T = {Q^0, ..., Q^(m-1)} union {n}; the offset
    d = a - VT(c) mod 2n+1 is written as base-Q digits over the powers, with
    position n absorbing one or two extra multiples of n.
    """
    message = tuple(message)
    m = digit_width(q, n)
    if len(message) != lme_message_length(n, q):
        raise ValueError(
            f"message length {len(message)} != {lme_message_length(n, q)}"
        )
    if not are_digits(message, q):
        raise ValueError(f"message is not over Sigma_{q}")
    powers = [q ** j for j in range(m)]
    redundancy = set(powers) | {n}
    c = [0] * (n + 1)  # 1-indexed
    it = iter(message)
    for pos in range(1, n + 1):
        if pos not in redundancy:
            c[pos] = next(it)
    d = (a - vt_syndrome(c[1:])) % (2 * n + 1)
    if d == 2 * n:
        c[n] = 2
    else:
        if d >= n:
            c[n] = 1
            d -= n
        for j, digit in enumerate(expand_base(d, q, m)):
            c[powers[j]] = digit
    return tuple(c[1:])


def lme_decode_message(x, q: int, n: int):
    """Project a codeword back onto its message coordinates."""
    x = tuple(x)
    m = digit_width(q, n)
    redundancy = {q ** j for j in range(m)} | {n}
    return tuple(x[pos - 1] for pos in range(1, n + 1) if pos not in redundancy)
