"""Tests for VT syndromes and the primitive single-error decoders.

The four digit-row kernels read packed rows, one bytes object per row, so
their rows are spelled bytes((...)) here; vt_syndrome, psi and the 1-LME
kernels take int tuples.
"""

import random
import sys
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_dna import vt_core
from composite_dna.codes_deletion import _is_subsequence
from composite_dna.vt_core import (
    _reference_qary_decode_one_deletion,
    _reference_vt_decode_one_deletion,
    DecodeFailure,
    lme_contains,
    lme_decode,
    lme_decode_message,
    lme_encode,
    lme_message_length,
    psi,
    psi_inverse,
    qary_decode_one_deletion,
    qary_decode_one_substitution,
    qary_vt_syndrome,
    vt_decode_one_deletion,
    vt_syndrome,
)


def deletions(x):
    '''all sequences obtained from x by one deletion'''
    return {x[:i] + x[i + 1:] for i in range(len(x))}


B = bytes  # a packed row of the given digits


def test_vt_syndrome_values():
    assert vt_syndrome((0, 1, 1)) == 5
    assert vt_syndrome((0, 1, 1, 0)) == 5
    assert vt_syndrome((0, 0, 0, 0)) == 0
    assert vt_syndrome((1, 2, 0)) == 5


# ---------------------------------------------------------------------------
# binary single deletion
# ---------------------------------------------------------------------------

def test_vt_decode_known_case():
    assert vt_decode_one_deletion(B((0, 1, 0)), 0, 5) == B((0, 1, 1, 0))
    assert vt_decode_one_deletion(B((0, 0, 0)), 0, 5) == B((0, 0, 0, 0))
    assert vt_decode_one_deletion(b"", 1, 2) == B((1,))


@pytest.mark.parametrize("n", range(1, 9))
def test_vt_decode_exhaustive(n):
    for x in product((0, 1), repeat=n):
        for modulus in (n + 1, 2 * n + 1):
            a = vt_syndrome(x) % modulus
            for y in deletions(x):
                assert vt_decode_one_deletion(B(y), a, modulus) == B(x)


def test_vt_decode_rejects_small_modulus():
    with pytest.raises(ValueError):
        vt_decode_one_deletion(B((0, 1, 0)), 0, 4)
    with pytest.raises(ValueError):
        vt_decode_one_deletion(B((0, 2, 0)), 0, 9)


def test_vt_decode_failure_reported():
    # no insertion of 0110 matches syndrome 1 mod 9 (VT values differ)
    candidates = set()
    for pos in range(4):
        for sym in (0, 1):
            cand = (0, 1, 1)[:pos] + (sym,) + (0, 1, 1)[pos:]
            candidates.add(vt_syndrome(cand) % 9)
    missing = next(a for a in range(9) if a not in candidates)
    with pytest.raises(DecodeFailure):
        vt_decode_one_deletion(B((0, 1, 1)), missing, 9)


# ---------------------------------------------------------------------------
# psi and q-ary single deletion
# ---------------------------------------------------------------------------

def test_psi_values():
    assert psi((1, 2, 0), 3) == (2, 2, 0)
    assert psi_inverse((2, 2, 0), 3) == (1, 2, 0)
    assert psi((2, 2, 2, 2), 3) == (0, 0, 0, 2)


@given(st.integers(2, 5), st.lists(st.integers(0, 4), min_size=1, max_size=10))
def test_psi_round_trip(q, raw):
    x = tuple(v % q for v in raw)
    assert psi_inverse(psi(x, q), q) == x
    assert psi(psi_inverse(x, q), q) == x


@pytest.mark.parametrize("q,n", [(2, 8), (3, 6), (4, 5), (5, 4)])
def test_qary_vt_syndrome_is_vt_of_psi(q, n):
    for length in range(1, n + 1):
        for x in product(range(q), repeat=length):
            assert qary_vt_syndrome(B(x), q) == vt_syndrome(psi(x, q)) % (q * length)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 16])
@pytest.mark.parametrize("n", [vt_core._WIDE - 1, vt_core._WIDE, 200, 1030])
def test_qary_vt_syndrome_is_vt_of_psi_on_long_rows(q, n):
    # both sides of the length that selects the bit planes, against psi and
    # vt_syndrome on the int tuple: random digits, runs, a staircase, and
    # rows of one digit and of alternating extremes
    rng = random.Random(4000 + 10 * n + q)
    for x in (
        tuple(rng.randrange(q) for _ in range(n)),
        tuple((i // 7) % q for i in range(n)),
        tuple(i % q for i in range(n)),
        (q - 1,) * n,
        tuple((0, q - 1)[i % 2] for i in range(n)),
    ):
        assert qary_vt_syndrome(B(x), q) == vt_syndrome(psi(x, q)) % (q * n)


def test_qary_decode_single_symbol():
    for c in range(3):
        a = qary_vt_syndrome(B((c,)), 3)
        assert qary_decode_one_deletion(b"", a, 3, 1) == B((c,))


def test_qary_decode_known_case():
    x = B((0, 1, 0))
    a = qary_vt_syndrome(x, 3)
    assert qary_decode_one_deletion(B((0, 0)), a, 3, 3) == x


@pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4), (4, 6)])
def test_qary_decode_exhaustive(q, n):
    for x in product(range(q), repeat=n):
        a = qary_vt_syndrome(B(x), q)
        for y in deletions(x):
            assert qary_decode_one_deletion(B(y), a, q, n) == B(x)


def test_qary_decode_validates_input():
    with pytest.raises(ValueError):
        qary_decode_one_deletion(B((0, 3)), 0, 3, 3)
    with pytest.raises(ValueError):
        qary_decode_one_deletion(B((0, 0)), 0, 3, 4)


# each single-error row kernel, and the brute-force reference of each that
# has one, on a row (0, digit, 1 or 2) whose middle digit is no int of its
# Sigma_q: a plain ValueError, never a DecodeFailure (a row over Sigma_q
# that no codeword explains), a TypeError or a returned row.  The packed
# kernels (all but lme) get the row as bytes where a byte holds the digit
# (q, 255), and as a tuple otherwise (1.5, 1.0, -1, '1'), which they refuse
# for its format before they read a digit
ROW_KERNELS = {
    "vt-deletion": (2, lambda y: vt_decode_one_deletion(y, 0, 5)),
    "vt-deletion-reference": (2, lambda y: _reference_vt_decode_one_deletion(y, 0, 5)),
    "qary-deletion": (3, lambda y: qary_decode_one_deletion(y, 0, 3, 4)),
    "qary-deletion-reference": (
        3, lambda y: _reference_qary_decode_one_deletion(y, 0, 3, 4)
    ),
    "qary-substitution": (3, lambda y: qary_decode_one_substitution(y, 0, 1, 3)),
    "lme": (3, lambda y: lme_decode(y, 0, 3)),
    # a row long enough for the bit planes (50 copies, 150 >= _WIDE symbols)
    "qary-deletion-wide-bytes": (
        3, lambda y: qary_decode_one_deletion(y * 50, 0, 3, 151)
    ),
}
PACKED_KERNELS = [kernel for kernel in ROW_KERNELS if kernel != "lme"]


@pytest.mark.parametrize(
    "kernel, digit",
    [
        (kernel, digit)
        for kernel in ROW_KERNELS
        if "bytes" not in kernel
        for digit in ("1.5", "1.0", "-1", "q", "str")
    ]
    + [
        (kernel, digit)
        for kernel in ROW_KERNELS
        if "bytes" in kernel
        for digit in ("q", "255")
    ],
)
def test_row_kernels_refuse_a_digit_that_is_no_int_of_sigma_q(kernel, digit):
    q, decode = ROW_KERNELS[kernel]
    value = {"1.5": 1.5, "1.0": 1.0, "-1": -1, "q": q, "str": "1", "255": 255}[digit]
    row, message = (0, value, q - 1), f"received row is not over Sigma_{q}"
    if kernel in PACKED_KERNELS:
        if digit in ("q", "255"):
            row = B(row)
        else:
            message = "the row kernels read packed rows (bytes), not tuple"
    with pytest.raises(Exception) as info:
        decode(row)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "kernel", [kernel for kernel in PACKED_KERNELS if "wide" not in kernel] + ["qary-vt-syndrome"]
)
@pytest.mark.parametrize("kind", [tuple, list, bytearray, memoryview])
def test_packed_kernels_refuse_a_row_that_is_not_bytes(kernel, kind):
    # a row over Sigma_q in any other type: the ValueError names the format
    q, decode = ROW_KERNELS.get(kernel, (3, lambda y: qary_vt_syndrome(y, 3)))
    row = kind(B((0, 1, q - 1)))
    with pytest.raises(Exception) as info:
        decode(row)
    assert type(info.value) is ValueError
    assert str(info.value) == (
        f"the row kernels read packed rows (bytes), not {kind.__name__}"
    )


# ---------------------------------------------------------------------------
# 1-LME code
# ---------------------------------------------------------------------------

def test_lme_message_length():
    assert lme_message_length(7, 3) == 4  # m = ceil(log_3 7) = 2
    assert lme_message_length(2, 3) == 0
    with pytest.raises(ValueError):
        lme_message_length(7, 2)


def test_lme_encode_small_code():
    # (Q=3, n=2): the whole code is {c : VT(c) = a mod 5}
    for a in range(5):
        c = lme_encode((), a, 3, 2)
        assert lme_contains(c, a)
        brute = {c2 for c2 in product(range(3), repeat=2) if vt_syndrome(c2) % 5 == a % 5}
        assert c in brute


def test_lme_encode_branch_coverage():
    # n = 9, Q = 3, m = 2: sweep all messages and offsets; every branch of the
    # offset split (d = 0, d in [1,n), d in [n,2n), d = 2n) must appear
    n, q = 9, 3
    seen = set()
    for a in range(2 * n + 1):
        for message in product(range(q), repeat=lme_message_length(n, q)):
            c = lme_encode(message, a, q, n)
            assert lme_contains(c, a)
            assert lme_decode_message(c, q, n) == message
            raw = [0] * n
            pos_iter = iter(message)
            redundancy = {1, 3, 9}
            for pos in range(1, n + 1):
                if pos not in redundancy:
                    raw[pos - 1] = next(pos_iter)
            d = (a - vt_syndrome(raw)) % (2 * n + 1)
            if d == 0:
                seen.add("zero")
            elif d < n:
                seen.add("low")
            elif d < 2 * n:
                seen.add("high")
            else:
                seen.add("top")
        if seen == {"zero", "low", "high", "top"}:
            break
    assert seen == {"zero", "low", "high", "top"}


def test_lme_decode_known_case():
    assert lme_decode((0, 2), 0, 3) == (1, 2)


@pytest.mark.parametrize("q,n", [(3, 5), (4, 5), (5, 7)])
def test_lme_decode_all_unit_errors(q, n):
    for x in product(range(q), repeat=n):
        a = vt_syndrome(x) % (2 * n + 1)
        assert lme_decode(x, a, q) == x
        for pos in range(n):
            for shift in (-1, +1):
                val = x[pos] + shift
                if 0 <= val < q:
                    y = x[:pos] + (val,) + x[pos + 1:]
                    assert lme_decode(y, a, q) == x


def test_lme_decode_range_breach():
    # a = VT(22)=6 mod 5 = 1; feed y=22 with a=0 -> Delta=1 wants y_1 - 1... ok
    # force an out-of-range correction: y = (0, 0), Delta in [n+1, 2n] adds 1
    # at a position already at Q-1
    y = (2, 2)
    a = (vt_syndrome(y) - 3) % 5  # Delta = 3 -> add 1 at position 2*2+1-3 = 2
    with pytest.raises(DecodeFailure):
        lme_decode(y, a, 3)


# ---------------------------------------------------------------------------
# q-ary single substitution
# ---------------------------------------------------------------------------

def test_qary_substitution_known_case():
    x = B((1, 2))
    y = B((2, 2))
    vt_mod = vt_syndrome(x) % (2 * 2 * 2)
    sum_mod = sum(x) % 3
    assert qary_decode_one_substitution(y, vt_mod, sum_mod, 3) == x


def test_qary_substitution_clean():
    x = B((0, 2, 1))
    got = qary_decode_one_substitution(x, vt_syndrome(x) % 12, sum(x) % 3, 3)
    assert got == x and type(got) is bytes


@pytest.mark.parametrize("q,n", [(2, 6), (3, 5), (4, 4), (4, 6)])
def test_qary_substitution_exhaustive(q, n):
    span = 2 * n * (q - 1)
    for x in product(range(q), repeat=n):
        vt_mod = vt_syndrome(x) % span
        sum_mod = sum(x) % q
        for pos in range(n):
            for val in range(q):
                if val == x[pos]:
                    continue
                y = x[:pos] + (val,) + x[pos + 1:]
                assert qary_decode_one_substitution(B(y), vt_mod, sum_mod, q) == B(x)


def test_qary_substitution_boundary_case():
    # x ends in 0, substitution at the last position to q-1: Delta2 = n(q-1)
    q, n = 3, 4
    x = (1, 0, 2, 0)
    y = (1, 0, 2, 2)
    vt_mod = vt_syndrome(x) % (2 * n * (q - 1))
    sum_mod = sum(x) % q
    delta2 = (vt_syndrome(y) - vt_mod) % (2 * n * (q - 1))
    assert delta2 == n * (q - 1)
    assert qary_decode_one_substitution(B(y), vt_mod, sum_mod, q) == B(x)
    # and the mirrored direction: q-1 -> 0 at the last position
    x2 = (1, 0, 2, 2)
    y2 = (1, 0, 2, 0)
    vt2 = vt_syndrome(x2) % (2 * n * (q - 1))
    sum2 = sum(x2) % q
    assert qary_decode_one_substitution(B(y2), vt2, sum2, q) == B(x2)


@pytest.mark.parametrize(
    "y, vt_mod, sum_mod, q, message",
    [
        # Delta2 = n(q - 1) means magnitude q - 1 at the last position, but
        # the Sum offset 2 is neither q - 1 nor 1
        ((0, 0), 6, 2, 4, "boundary case with inconsistent Sum syndrome"),
        ((0, 0), 1, 2, 3, "VT offset not divisible by the substitution value"),
        ((0, 0), 3, 1, 3, "implied position 3 out of range"),
    ],
)
def test_qary_substitution_outside_the_model_is_typed(y, vt_mod, sum_mod, q, message):
    with pytest.raises(DecodeFailure, match=message):
        qary_decode_one_substitution(B(y), vt_mod, sum_mod, q)


@settings(max_examples=100)
@given(st.data())
def test_qary_deletion_cross_checks_binary(data):
    # q = 2 instance of the psi-based decoder agrees with re-deriving x by
    # direct VT decoding over all candidates
    n = data.draw(st.integers(2, 8))
    x = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    pos = data.draw(st.integers(0, n - 1))
    y = x[:pos] + x[pos + 1:]
    a = qary_vt_syndrome(B(x), 2)
    assert qary_decode_one_deletion(B(y), a, 2, n) == B(x)


# ---------------------------------------------------------------------------
# linear-time row decoders against the brute-force reference enumerators
# ---------------------------------------------------------------------------

def outcome(decode, *args):
    """The decoded row, or the exception's type and message."""
    try:
        return decode(*args)
    except Exception as exc:  # the type and message are part of the outcome
        return type(exc), str(exc)


@st.composite
def received_rows(draw):
    """(y, n, q): a packed row of length n - 1, sometimes holding a digit
    outside Sigma_q."""
    q = draw(st.integers(2, 5))
    n = draw(st.integers(1, 12))
    y = draw(st.lists(st.integers(0, q - 1), min_size=n - 1, max_size=n - 1))
    if y and draw(st.integers(0, 19)) == 0:
        y[draw(st.integers(0, n - 2))] = draw(st.sampled_from((q, 255)))
    return B(y), n, q


@settings(max_examples=400, deadline=None)
@given(received_rows(), st.data())
def test_vt_decode_matches_reference(received, data):
    y, n, q = received
    modulus = data.draw(st.integers(n, 3 * n + 3))  # modulus = n is rejected
    a = data.draw(st.integers(-2 * modulus, 2 * modulus))
    # rows drawn over Sigma_q with q > 2 exercise the Sigma_2 digit check
    assert outcome(vt_decode_one_deletion, y, a, modulus) == outcome(
        _reference_vt_decode_one_deletion, y, a, modulus
    )


@settings(max_examples=400, deadline=None)
@given(received_rows(), st.integers(-100, 100), st.integers(-1, 1))
def test_qary_decode_matches_reference(received, a, length_offset):
    y, n, q = received
    n = max(1, n + length_offset)  # an offset != 0 is a length mismatch
    assert outcome(qary_decode_one_deletion, y, a, q, n) == outcome(
        _reference_qary_decode_one_deletion, y, a, q, n
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_vt_decode_matches_reference_exhaustively(n):
    # every binary row, every residue, with moduli at and above n + 1 (the
    # larger one leaves residues that no insertion reaches)
    for modulus in (n + 1, 2 * n + 1):
        for y in map(B, product(range(2), repeat=n - 1)):
            for a in range(modulus):
                assert outcome(vt_decode_one_deletion, y, a, modulus) == outcome(
                    _reference_vt_decode_one_deletion, y, a, modulus
                )


@pytest.mark.parametrize("q,n", [(2, 8), (3, 6), (4, 5), (5, 4), (7, 3), (9, 3)])
def test_qary_decode_matches_reference_exhaustively(q, n):
    # q > n reaches every symbol offset on both sides of c at the end positions
    for length in range(1, n + 1):
        for y in map(B, product(range(q), repeat=length - 1)):
            for a in range(q * length):
                assert outcome(qary_decode_one_deletion, y, a, q, length) == outcome(
                    _reference_qary_decode_one_deletion, y, a, q, length
                )


@pytest.mark.parametrize("q,n", [(4, 96), (5, 192), (3, 400)])
def test_qary_decode_matches_reference_on_long_rows(q, n):
    # seeded rows of three shapes: random digits; runs of equal digits
    # (c = 0 at most positions, so the scan meets one position per side);
    # an ascending staircase (c = q - 1, so the slack g falls by one a step
    # and the scan meets up to q positions per side).  Each loses one
    # symbol and is decoded at its true residue and at random ones.  No
    # residue gives two or more candidates: each residue class of VT(psi)
    # mod qn corrects one deletion, as the exhaustive test above finds too
    rng = random.Random(1000 + n)
    kinds = set()
    for x in (
        tuple(rng.randrange(q) for _ in range(n)),
        tuple((i // 7) % q for i in range(n)),
        tuple(i % q for i in range(n)),
    ):
        pos = rng.randrange(n)
        y = B(x[:pos] + x[pos + 1 :])
        true = qary_vt_syndrome(B(x), q)
        for a in [true] + [rng.randrange(q * n) for _ in range(3)]:
            got = outcome(qary_decode_one_deletion, y, a, q, n)
            assert got == outcome(_reference_qary_decode_one_deletion, y, a, q, n)
            if a == true:
                assert got == B(x)
            kinds.add(got[1] if got[0] is DecodeFailure else "decoded")
    assert kinds == {"decoded", "expected exactly one candidate, found 0"}


@pytest.mark.parametrize("q", [3, 4, 7])
@pytest.mark.parametrize("n", [vt_core._WIDE - 1, vt_core._WIDE, 200, 1030])
def test_qary_decode_matches_reference_on_long_bytes_rows(q, n):
    # rows on both sides of the length that selects the bit planes, in the
    # three shapes above, each losing its first, a middle or its last
    # symbol, decoded at the true residue and at a random one; each outcome
    # is the reference's
    rng = random.Random(3000 + 10 * n + q)
    for x in (
        B(rng.randrange(q) for _ in range(n)),
        B((i // 7) % q for i in range(n)),
        B(i % q for i in range(n)),
    ):
        for pos in (0, rng.randrange(1, n - 1), n - 1):
            y = x[:pos] + x[pos + 1 :]
            true = qary_vt_syndrome(x, q)
            for a in (true, rng.randrange(q * n)):
                got = outcome(qary_decode_one_deletion, y, a, q, n)
                assert got == outcome(_reference_qary_decode_one_deletion, y, a, q, n)
                if a == true:
                    assert got == x


@pytest.mark.parametrize("n", [200, 1030])
def test_vt_decode_matches_reference_on_long_rows(n):
    # the binary counterpart, whose syndromes come from bit planes at these
    # lengths: random bits, runs and alternating bits, each
    # losing its first, a middle or its last symbol, decoded at the true
    # residue and at random ones; modulus 2n + 1 leaves residues that no
    # insertion reaches
    rng = random.Random(2000 + n)
    kinds = set()
    for x in (
        B(rng.randrange(2) for _ in range(n)),
        B((i // 9) % 2 for i in range(n)),
        B(i % 2 for i in range(n)),
    ):
        for pos in (0, rng.randrange(1, n - 1), n - 1):
            y = x[:pos] + x[pos + 1 :]
            for modulus in (n + 1, 2 * n + 1):
                true = vt_syndrome(x) % modulus
                for a in (true, rng.randrange(modulus)):
                    got = outcome(vt_decode_one_deletion, y, a, modulus)
                    assert got == outcome(_reference_vt_decode_one_deletion, y, a, modulus)
                    if a == true:
                        assert got == x
                    kinds.add("decoded" if len(got) == n else got[1])
    assert kinds == {"decoded", "expected exactly one candidate, found 0"}


def _row_400(q):
    """A fixed packed row of length 400 over Sigma_q."""
    return B((7 * i * i + 3 * i) % q for i in range(400))


@pytest.mark.parametrize(
    "decode,reference,call,q,unique",
    [
        # binary VT: Levenshtein's placement rule
        (vt_decode_one_deletion, _reference_vt_decode_one_deletion,
         lambda x: (x[:-1], vt_syndrome(x), 401), 2, True),
        # VT(psi) over Sigma_4, whose ascent counts come from bit planes
        (qary_decode_one_deletion, _reference_qary_decode_one_deletion,
         lambda x: (x[:-1], qary_vt_syndrome(x, 4), 4, 400), 4, True),
    ],
)
def test_row_decode_makes_constant_syndrome_evaluations(
    monkeypatch, decode, reference, call, q, unique
):
    x = _row_400(q)
    args = call(x)
    calls = []

    def counting(original):
        def syndrome(row, *q):
            calls.append(len(row))
            return original(row, *q)

        return syndrome

    # the q-ary syndrome counts too: a decoder must not reach it by name
    for name in ("vt_syndrome", "qary_vt_syndrome"):
        monkeypatch.setattr(vt_core, name, counting(getattr(vt_core, name)))
    got = outcome(decode, *args)
    assert len(calls) <= 1
    assert (got == x) is unique
    calls.clear()
    assert outcome(reference, *args) == got
    # the enumerator recomputes each candidate row whole: the binary one at
    # every (position, symbol), the q-ary one at each distinct insertion, so
    # at each position after the first it skips the symbol before it
    assert calls == [400] * (2 * 400 if q == 2 else q * 400 - 399)


def line_events(func, *args):
    """The number of 'line' trace events that func(*args) runs: a count of
    interpreted steps, the same on every machine."""
    events = 0

    def tracer(frame, event, arg):
        nonlocal events
        events += event == "line"
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        func(*args)
    finally:
        sys.settrace(previous)
    return events


def test_qary_decode_interprets_no_per_symbol_loop():
    # O(n): the alphabet size must not multiply the interpreted work,
    # though the bit planes grow with log2(q)
    def events(q):
        x = B(random.Random(q).randrange(q) for _ in range(400))
        y, a = x[:150] + x[151:], qary_vt_syndrome(x, q)
        return line_events(qary_decode_one_deletion, y, a, q, 400)

    assert events(16) <= 1.5 * events(2)


def test_qary_decode_interprets_sublinear_work():
    # a bisection over the positions, not a pass: 8x the row length must
    # not double the interpreted steps
    def events(n):
        x = B(random.Random(n).randrange(4) for _ in range(n))
        y, a = x[: n // 3] + x[n // 3 + 1 :], qary_vt_syndrome(x, 4)
        assert qary_decode_one_deletion(y, a, 4, n) == x
        return line_events(qary_decode_one_deletion, y, a, 4, n)

    assert events(4096) <= 2 * events(512)


def test_supersequence_check_interprets_sublinear_work():
    # a row one symbol short: a binary search of C-level slice compares
    def events(n):
        sup = tuple(random.Random(n).randrange(4) for _ in range(n))
        sub = sup[: n // 3] + sup[n // 3 + 1 :]
        assert _is_subsequence(sub, sup)
        return line_events(_is_subsequence, sub, sup)

    assert events(4096) <= 2 * events(512)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
