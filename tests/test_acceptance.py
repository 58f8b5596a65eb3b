"""Acceptance sweep: one test per advertised end-to-end guarantee.

Each test is self-contained and validates one headline claim -- ball-size
formulas, the counting identity behind the deletion bound, exhaustive
correction sweeps for every code family, algebraic prerequisites, transport
of code properties under alphabet equivalences, and sphere-packing sanity.
Wall-clock budgets are asserted where a guarantee carries one, so a run of
``pytest -v tests/test_acceptance.py`` reads as a pass/fail checklist.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

from composite_dna.algebra import (
    all_submatrices_invertible,
    f_threshold,
    schur_eval,
    smallest_prime_at_least,
    vandermonde_shape_det,
)
from composite_dna.alphabet import Word, alphabet_size
from composite_dna.bounds import (
    c_count,
    gspb_deletion_bound,
    sp_bound_total,
    t_count,
    v_size,
)
from composite_dna.channel import (
    ReceivedRows,
    del_per_row,
    del_total,
    oracle_is_code,
    raw_received_set,
    received_from_word,
    sub_per_row,
    sub_t_rows,
    sub_total,
    valid_sub_ball,
)
from composite_dna.codes_deletion import (
    C2DSpec,
    C4DSpec,
    c1d_contains,
    c1d_decode,
    c1d_encode,
    c2d_decode,
    c2d_encode,
    c4d_decode,
    c4d_encode,
)
from composite_dna.codes_substitution import (
    C1SSpec,
    C2SSpec,
    DollSpec,
    c1s_decode,
    c1s_encode,
    c2s_decode,
    c2s_encode,
    cecc1_contains,
    cecc1_decode,
    cecc1_encode,
    cecc1_message_length,
    dec_doll,
    enc_doll,
)
from composite_dna.equivalence import transport_code
from composite_dna.vt_core import lme_contains, lme_decode


def words_over(q, k, n):
    size = alphabet_size(q, k)
    for ranks in itertools.product(range(size), repeat=n):
        yield Word.from_ranks(ranks, q, k)


def ceil_log(base, value):
    width = 1
    while base**width < value:
        width += 1
    return width


def next_prime_after(m):
    p = m + 1
    while any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        p += 1
    return p


def dropped(word, hits):
    """Received picture with one symbol removed per row listed in hits."""
    rows = tuple(
        row[: hits[i]] + row[hits[i] + 1 :] if i in hits else row
        for i, row in enumerate(word.rows())
    )
    return ReceivedRows(rows, word.q, word.n)


def t_row_deletions(word, t):
    """The clean picture plus every <= t-row single-deletion pattern."""
    k, n = word.k, word.n
    yield received_from_word(word)
    for size in range(1, t + 1):
        for chosen in itertools.combinations(range(k), size):
            for positions in itertools.product(range(n), repeat=size):
                yield dropped(word, dict(zip(chosen, positions)))


def single_digit_changes(word):
    """Every raw picture at Hamming distance one from the word's rows."""
    rows = word.rows()
    for i, row in enumerate(rows):
        for j in range(word.n):
            for value in range(word.q):
                if value == row[j]:
                    continue
                changed = row[:j] + (value,) + row[j + 1 :]
                yield ReceivedRows(
                    rows[:i] + (changed,) + rows[i + 1 :], word.q, word.n
                )


def binary_t_row_flips(word, t):
    """Clean picture plus every <= t-row one-flip-per-row pattern (q = 2)."""
    assert word.q == 2
    rows = word.rows()
    k, n = word.k, word.n
    yield received_from_word(word)
    for size in range(1, t + 1):
        for chosen in itertools.combinations(range(k), size):
            for positions in itertools.product(range(n), repeat=size):
                picture = [list(r) for r in rows]
                for i, j in zip(chosen, positions):
                    picture[i][j] ^= 1
                yield ReceivedRows(tuple(tuple(r) for r in picture), 2, n)


def test_criterion_01_single_letter_ball_sizes():
    start = time.perf_counter()
    for q in range(2, 5):
        for k in range(2, 5):
            per_row_expected = sum(comb(l + k - 1, l) for l in range(1, q))
            for rank in range(alphabet_size(q, k)):
                word = Word.from_ranks((rank,), q, k)
                digits = tuple(row[0] for row in word.rows())
                total_ball = valid_sub_ball(word, sub_total(1)) - {word}
                assert len(total_ball) == q - 1 + digits[-1] - digits[0]
                row_ball = valid_sub_ball(word, sub_per_row(*(1,) * k)) - {word}
                assert len(row_ball) == per_row_expected
    assert time.perf_counter() - start < 1.0


def test_criterion_02_deletion_space_counting_identity():
    start = time.perf_counter()
    for k in range(2, 6):
        for n in range(2, 13):
            lhs = 0
            for w in range(n):
                shortened = sum(c_count(n - 1, r, w) for r in range(1, 2 * w + 2))
                lhs += shortened * t_count(n, k, w)
            assert lhs == v_size(k, n)
    assert time.perf_counter() - start < 1.0


def test_criterion_03_deletion_space_formula_vs_brute_force():
    start = time.perf_counter()
    for k in (2, 3):
        model = del_per_row(1, *([0] * (k - 1)))
        for n in range(2, 7):
            union = set()
            for word in words_over(2, k, n):
                union |= raw_received_set(word, model)
            assert len(union) == v_size(k, n)
    assert time.perf_counter() - start < 30.0


def test_criterion_04_single_deletion_code_is_valid_and_roundtrips():
    start = time.perf_counter()
    for k in (2, 3):
        for n in (3, 4, 5):
            book = [w for w in words_over(2, k, n) if c1d_contains(w, 0)]
            verdict = oracle_is_code(book, del_total(1))
            assert verdict.is_code, (k, n, verdict.witness)
            for word in book:
                for i in range(k):
                    for j in range(n):
                        received = dropped(word, {i: j})
                        assert c1d_decode(received, 0) == word
    assert time.perf_counter() - start < 60.0


def test_criterion_05_single_deletion_encoder_image_size():
    # the systematic encoder needs n >= 3 to host its redundancy positions
    for n in range(3, 7):
        width = ceil_log(3, n + 1)
        messages = list(itertools.product(range(3), repeat=n - width))
        images = [c1d_encode(message, 0, 2, n) for message in messages]
        assert len(set(images)) == len(images) == 3 ** (n - width)
        assert all(c1d_contains(image, 0) for image in images)


def test_criterion_06_doll_bijectivity_and_first_row_correction():
    start = time.perf_counter()
    spec = DollSpec(2, 2, 4)
    messages = list(itertools.product(range(3), repeat=spec.m))
    images = [enc_doll(x, spec) for x in messages]
    assert len(set(images)) == len(messages)
    seen_up = seen_down = seen_invalid = 0
    for x, word in zip(messages, images):
        assert dec_doll(received_from_word(word), spec) == x
        rows = word.rows()
        for j in range(spec.n):
            old = rows[0][j]
            flipped = rows[0][:j] + (1 - old,) + rows[0][j + 1 :]
            if 1 - old > rows[1][j]:
                seen_invalid += 1
            if old == 0:
                seen_up += 1
            else:
                seen_down += 1
            received = ReceivedRows((flipped,) + rows[1:], 2, spec.n)
            assert dec_doll(received, spec) == x
    assert seen_up and seen_down and seen_invalid
    assert time.perf_counter() - start < 60.0


def test_criterion_07_limited_magnitude_correction_and_pigeonhole():
    for big_q in (3, 4, 5):
        for n in range(1, 8):
            modulus = 2 * n + 1
            counts = Counter()
            for x in itertools.product(range(big_q), repeat=n):
                counts[sum((i + 1) * v for i, v in enumerate(x)) % modulus] += 1
                if not lme_contains(x, 0):
                    continue
                for j, value in enumerate(x):
                    for delta in (-1, 1):
                        if not 0 <= value + delta < big_q:
                            continue
                        y = x[:j] + (value + delta,) + x[j + 1 :]
                        assert lme_decode(y, 0, big_q) == x
            assert max(counts.values()) >= Fraction(big_q**n, modulus)


def test_criterion_08_vandermonde_invertibility_and_schur_factorisation():
    for k in range(2, 6):
        for t in range(2, k + 1):
            p = smallest_prime_at_least(f_threshold(k, t) + 1)
            assert all_submatrices_invertible(k, t, p)
    rng = random.Random(20260814)
    for _ in range(200):
        t = rng.randint(2, 5)
        p = rng.choice((7, 11, 13, 17, 19, 23, 29))
        shape = tuple(sorted((rng.randint(0, 4) for _ in range(t)), reverse=True))
        xs = tuple(rng.randrange(p) for _ in range(t))
        lhs = vandermonde_shape_det(shape, xs, p)
        rhs = schur_eval(shape, xs) * vandermonde_shape_det((0,) * t, xs, p) % p
        assert lhs == rhs


def test_criterion_09_marker_deletion_codes_roundtrip_and_lengths():
    start = time.perf_counter()
    bin_spec = C2DSpec(2, 2, 4)
    assert bin_spec.p == next_prime_after(4) == 5
    assert bin_spec.delta == ceil_log(3, bin_spec.p) == 2
    assert bin_spec.n == 4 + 2 * (bin_spec.delta + 2) == 12
    q_spec = C4DSpec(3, 2, 2, 4)
    assert q_spec.p == next_prime_after(3 * 4) == 13
    assert q_spec.delta == ceil_log(alphabet_size(3, 2), q_spec.p) == 2
    assert q_spec.n == 4 + 2 * (q_spec.delta + 2) == 12

    rng = random.Random(40)
    binary_payloads = rng.sample(list(itertools.product(range(3), repeat=4)), 50)
    for ranks in binary_payloads:
        payload = Word.from_ranks(ranks, 2, 2)
        word = c2d_encode(payload, bin_spec)
        for received in t_row_deletions(word, 2):
            assert c2d_decode(received, bin_spec) == payload
    qary_payloads = rng.sample(list(itertools.product(range(6), repeat=4)), 50)
    for ranks in qary_payloads:
        payload = Word.from_ranks(ranks, 3, 2)
        word = c4d_encode(payload, q_spec)
        for received in t_row_deletions(word, 2):
            assert c4d_decode(received, q_spec) == payload
    assert time.perf_counter() - start < 120.0


def test_criterion_10_single_substitution_codes_exhaustive():
    spec = C1SSpec(3, 2, 3)
    for ranks in itertools.product(range(6), repeat=3):
        payload = Word.from_ranks(ranks, 3, 2)
        word = c1s_encode(payload, spec)
        assert c1s_decode(received_from_word(word), spec) == payload
        for received in single_digit_changes(word):
            assert c1s_decode(received, spec) == payload
    for n in range(2, 7):
        width = cecc1_message_length(3, n)
        for message in itertools.product(range(4), repeat=width):
            word = cecc1_encode(message, 0, 3, n)
            assert cecc1_decode(received_from_word(word), 0) == word
            for received in single_digit_changes(word):
                assert cecc1_decode(received, 0) == word


def test_criterion_11_two_row_substitution_code():
    # m = 3 is the smallest payload length whose space holds 50 payloads
    spec = C2SSpec(2, 3, 2, 3)
    rng = random.Random(11)
    chosen = rng.sample(list(itertools.product(range(4), repeat=3)), 50)
    book = []
    for ranks in chosen:
        payload = Word.from_ranks(ranks, 2, 3)
        word = c2s_encode(payload, spec)
        book.append(word)
        for received in binary_t_row_flips(word, 2):
            assert c2s_decode(received, spec) == payload
    verdict = oracle_is_code(book, sub_t_rows(2, (1, 1)))
    assert verdict.is_code, verdict.witness


def test_criterion_12_equivalence_transport_preserves_verdicts():
    rng = random.Random(20260814)
    space = list(itertools.product(range(4), repeat=3))
    forward = sub_per_row(1, 0, 0)
    reversed_budgets = sub_per_row(0, 0, 1)
    shifted_budgets = sub_per_row(0, 1, 0)
    true_verdicts = 0
    for _ in range(100):
        ranks = rng.sample(space, rng.randint(2, 8))
        book = [Word.from_ranks(r, 2, 3) for r in ranks]
        verdict = oracle_is_code(book, forward).is_code
        mirrored = transport_code(book, "complement-reverse")
        assert oracle_is_code(mirrored, reversed_budgets).is_code == verdict
        shifted = transport_code(book, "shift")
        assert oracle_is_code(shifted, shifted_budgets).is_code == verdict
        true_verdicts += verdict
    # the sample must exercise both outcomes for the agreement to mean much
    assert 0 < true_verdicts < 100


def test_criterion_13_codebooks_respect_sphere_packing_floors():
    # substitution families against the total-budget packing bound
    cecc_book = [w for w in words_over(2, 3, 4) if cecc1_contains(w, 0)]
    assert len(cecc_book) <= sp_bound_total(2, 3, 4, 1).floor
    c1s_spec = C1SSpec(3, 2, 3)
    assert 6**3 <= sp_bound_total(3, 2, c1s_spec.n, 1).floor
    c2s_spec = C2SSpec(2, 3, 2, 1)
    c2s_book = {
        c2s_encode(Word.from_ranks((r,), 2, 3), c2s_spec) for r in range(4)
    }
    assert len(c2s_book) == 4 <= sp_bound_total(2, 3, c2s_spec.n, 1).floor
    # deletion families against the exact generalized sphere-packing bound
    for k in (2, 3):
        book = [w for w in words_over(2, k, 4) if c1d_contains(w, 0)]
        assert len(book) <= gspb_deletion_bound(4, k).floor
    c2d_spec = C2DSpec(2, 2, 2)
    c2d_book = {
        c2d_encode(Word.from_ranks(r, 2, 2), c2d_spec)
        for r in itertools.product(range(3), repeat=2)
    }
    assert len(c2d_book) == 9 <= gspb_deletion_bound(c2d_spec.n, 2).floor
    # the first-row-only family and the q-ary deletion families have no
    # exact bound here: the per-row bound needs every channel budget
    # positive and the generalized bound is binary-only
