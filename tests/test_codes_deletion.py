"""Tests for the deletion-correcting constructions.

Round-trip sweeps build the corrupted rows by hand (drop one symbol at an
explicit position) so the decoders are exercised against an independent
notion of "one deletion per row", not against channel.apply_errors.
"""

import dataclasses
import functools
import itertools
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from composite_dna import codes_deletion
from composite_dna.alphabet import Word, alphabet_size
from composite_dna.channel import (
    ReceivedRows,
    del_t_rows,
    del_total,
    oracle_is_code,
)
from composite_dna.codes_deletion import (
    C2DSpec,
    C3DSpec,
    C4DSpec,
    c1d_contains,
    c1d_decode,
    c1d_encode,
    c1d_message,
    c1d_message_length,
    c2d_decode,
    c2d_encode,
    c3d_decode,
    c3d_encode,
    c4d_decode,
    c4d_encode,
    congruence_contains_binary_t,
    congruence_contains_qary_one,
    congruence_contains_qary_t,
    congruence_decode_binary_t,
    congruence_decode_qary_one,
    congruence_decode_qary_t,
)
from composite_dna.codes_substitution import C2SSpec, c2s_decode, c2s_encode
from composite_dna.vt_core import DecodeFailure, psi, qary_vt_syndrome, vt_syndrome


def received_after(word, hits):
    """Drop one symbol from each row listed in hits (row -> position)."""
    rows = []
    for i, row in enumerate(word.rows()):
        if i in hits:
            p = hits[i]
            rows.append(row[:p] + row[p + 1 :])
        else:
            rows.append(row)
    return ReceivedRows(tuple(rows), word.q, word.n)


def all_deletion_patterns(k, n, t):
    yield {}
    for size in range(1, t + 1):
        for rows_subset in itertools.combinations(range(k), size):
            for positions in itertools.product(range(n), repeat=size):
                yield dict(zip(rows_subset, positions))


def all_words(q, k, n):
    big_q = alphabet_size(q, k)
    for ranks in itertools.product(range(big_q), repeat=n):
        yield Word.from_ranks(ranks, q, k)


def sample_payloads(q, k, m, count, seed):
    rng = random.Random(seed)
    big_q = alphabet_size(q, k)
    return [
        Word.from_ranks([rng.randrange(big_q) for _ in range(m)], q, k)
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# C1D
# ---------------------------------------------------------------------------

class TestC1D:
    def test_frozen_encodings(self):
        assert c1d_encode((2,), 0, 2, 3).ranks() == (0, 2, 0)
        assert c1d_encode((1,), 0, 2, 3).ranks() == (2, 1, 0)

    def test_message_length(self):
        assert c1d_message_length(2, 3) == 1
        assert c1d_message_length(2, 4) == 2
        assert c1d_message_length(3, 4) == 2
        with pytest.raises(ValueError):
            c1d_message_length(2, 2)

    def test_contains_equals_row_vt_sum(self):
        # membership congruence == sum of per-row binary VT syndromes
        for word in itertools.islice(all_words(2, 3, 4), 0, 256, 7):
            total = sum(vt_syndrome(r) for r in word.rows()) % (word.n + 1)
            assert c1d_contains(word, total)
            assert not c1d_contains(word, (total + 1) % (word.n + 1))

    @pytest.mark.parametrize("a", [0, 3])
    def test_roundtrip_every_single_deletion(self, a):
        k, n = 2, 4
        for ranks in itertools.product(range(k + 1), repeat=c1d_message_length(k, n)):
            word = c1d_encode(ranks, a, k, n)
            assert c1d_message(word) == ranks
            assert c1d_decode(received_after(word, {}), a) == word
            for i in range(k):
                for p in range(n):
                    got = c1d_decode(received_after(word, {i: p}), a)
                    assert got == word

    @pytest.mark.parametrize("k,n", [(2, 3), (2, 4), (2, 5), (3, 4)])
    def test_image_size(self, k, n):
        words = {
            c1d_encode(ranks, 0, k, n).ranks()
            for ranks in itertools.product(
                range(k + 1), repeat=c1d_message_length(k, n)
            )
        }
        assert len(words) == (k + 1) ** c1d_message_length(k, n)

    def test_whole_congruence_class_is_a_code(self):
        codebook = [w for w in all_words(2, 2, 3) if c1d_contains(w, 0)]
        assert len(codebook) > 1
        assert oracle_is_code(codebook, del_total(1))

    def test_rejections(self):
        word = c1d_encode((2,), 0, 2, 3)
        rows = [r[:-1] for r in word.rows()]
        with pytest.raises(ValueError, match="more than one row"):
            c1d_decode(ReceivedRows(tuple(rows), 2, 3), 0)
        bad = Word.from_ranks((1, 0, 0), 2, 2)  # VT sum 1, not 0
        with pytest.raises(ValueError, match="congruence"):
            c1d_decode(received_after(bad, {}), 0)
        trinary = Word.from_ranks((0, 1), 3, 2)
        with pytest.raises(ValueError, match="binary"):
            c1d_contains(trinary, 0)


# ---------------------------------------------------------------------------
# congruence families
# ---------------------------------------------------------------------------

class TestCongruenceFamilies:
    def binary_members(self, k, n, p, targets):
        return [
            w
            for w in all_words(2, k, n)
            if congruence_contains_binary_t(w, targets, p)
        ]

    def test_binary_t_roundtrip(self):
        k, n, p, targets = 3, 4, 5, (0, 0)
        members = self.binary_members(k, n, p, targets)
        assert members  # the class is nonempty
        for word in members:
            for hits in all_deletion_patterns(k, n, 2):
                got = congruence_decode_binary_t(
                    received_after(word, hits), targets, p
                )
                assert got == word

    def test_binary_one_target_roundtrip(self):
        # every word is decoded in its own class, after each single deletion
        # in either row
        k, n, p = 2, 4, 5
        cases = 0
        for word in all_words(2, k, n):
            (a,) = [a for a in range(p) if congruence_contains_binary_t(word, (a,), p)]
            for hits in all_deletion_patterns(k, n, 1):
                got = congruence_decode_binary_t(received_after(word, hits), (a,), p)
                assert got == word
                cases += 1
        assert cases == 3**n * (1 + k * n)

    def test_empty_targets_are_rejected(self):
        word = Word.from_ranks((0, 1, 2, 0), 2, 3)
        received = received_after(word, {})
        calls = (
            lambda: congruence_contains_binary_t(word, (), 5),
            lambda: congruence_contains_qary_t(word, (), 5),
            lambda: congruence_decode_binary_t(received, (), 5),
            lambda: congruence_decode_qary_t(received, (), 5),
        )
        for call in calls:
            with pytest.raises(ValueError, match="targets are empty"):
                call()

    def test_binary_t_class_is_a_code(self):
        members = self.binary_members(3, 4, 5, (0, 0))
        assert oracle_is_code(members, del_t_rows(1, 1))

    def test_binary_t_threshold_warning(self):
        """A prime p <= f(k, t) draws no warning: the decode solves on
        consecutive indices from 0, invertible for any prime p > k - 1."""
        word = Word.from_ranks((0, 0), 2, 3)
        targets = tuple(
            sum((i + 1) ** j * vt_syndrome(r) for i, r in enumerate(word.rows())) % 3
            for j in range(2)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = congruence_decode_binary_t(received_after(word, {}), targets, 3)
        assert got == word

    def test_qary_one_roundtrip(self):
        q, k, n, a = 3, 2, 4, 0
        members = [w for w in all_words(q, k, n) if congruence_contains_qary_one(w, a)]
        assert members
        for word in members:
            assert congruence_decode_qary_one(received_after(word, {}), a) == word
            for i in range(k):
                for p in range(n):
                    got = congruence_decode_qary_one(received_after(word, {i: p}), a)
                    assert got == word

    def test_qary_one_contains_matches_psi_sum(self):
        q = 3
        for word in itertools.islice(all_words(q, 2, 3), 0, 216, 5):
            total = sum(vt_syndrome(psi(r, q)) for r in word.rows()) % (q * word.n)
            assert congruence_contains_qary_one(word, total)

    def test_qary_t_roundtrip(self):
        q, k, n, p, targets = 3, 3, 3, 11, (0, 0)
        members = [
            w for w in all_words(q, k, n) if congruence_contains_qary_t(w, targets, p)
        ]
        assert members
        for word in members:
            for hits in all_deletion_patterns(k, n, 2):
                got = congruence_decode_qary_t(received_after(word, hits), targets, p)
                assert got == word

    def test_rejections(self):
        word = Word.from_ranks((0, 1, 2, 0), 2, 3)
        rec = received_after(word, {})
        with pytest.raises(ValueError, match="not prime"):
            congruence_decode_binary_t(rec, (0, 0), 6)
        with pytest.raises(ValueError, match="needs p >"):
            congruence_decode_binary_t(rec, (0, 0), 3)  # p must exceed n = 4
        # three short rows against a t = 2 family
        rows = tuple(r[:-1] for r in word.rows())
        with pytest.raises(ValueError, match="rows lost symbols"):
            congruence_decode_binary_t(ReceivedRows(rows, 2, 4), (0, 0), 5)

    @pytest.mark.parametrize(
        "q, k, n, p, psi_rows",
        [
            (2, 2, 7, 7, False),  # the row syndromes' range n
            (2, 8, 5, 7, False),  # k - 1, above n
            (3, 2, 1, 3, True),  # qn for psi rows
        ],
    )
    def test_a_prime_equal_to_the_floor_is_refused(self, q, k, n, p, psi_rows):
        """p must exceed max(k - 1, n), or qn for psi rows: a prime equal
        to that floor is refused by the contains and the decode entry
        points alike."""
        word = Word.from_ranks([0] * n, q, k)
        received = received_after(word, {})
        if psi_rows:
            calls = (congruence_contains_qary_t, congruence_decode_qary_t)
            family = "the q-ary t-row family"
        else:
            calls = (congruence_contains_binary_t, congruence_decode_binary_t)
            family = "the binary t-row family"
        for call, arg in zip(calls, (word, received)):
            with pytest.raises(ValueError) as refused:
                call(arg, (0, 0), p)
            assert str(refused.value) == f"{family} needs p > {p}, got {p}"


# ---------------------------------------------------------------------------
# C2D
# ---------------------------------------------------------------------------

class TestC2D:
    def spec(self):
        return C2DSpec(k=2, t=2, m=4)

    def test_spec_frozen(self):
        spec = self.spec()
        assert (spec.p, spec.delta, spec.n) == (5, 2, 12)

    def test_spec_rejections(self):
        with pytest.raises(ValueError, match="below f"):
            C2DSpec(k=2, t=2, m=1)
        with pytest.raises(ValueError, match="2 <= t <= k"):
            C2DSpec(k=2, t=3, m=10)

    def test_frozen_codeword(self):
        payload = Word.from_ranks((1, 0, 2, 1), 2, 2)
        assert [vt_syndrome(r) for r in payload.rows()] == [3, 8]
        word = c2d_encode(payload, self.spec())
        assert word.ranks() == (1, 0, 2, 1, 0, 2, 1, 0, 0, 2, 1, 1)

    def test_roundtrip_all_patterns(self):
        spec = self.spec()
        payloads = sample_payloads(2, 2, 4, 8, seed=20260814)
        payloads.append(Word.from_ranks((1, 0, 2, 1), 2, 2))
        for payload in payloads:
            word = c2d_encode(payload, spec)
            for hits in all_deletion_patterns(2, spec.n, 2):
                got = c2d_decode(received_after(word, hits), spec)
                assert got == payload

    def test_rejections(self):
        spec = self.spec()
        word = c2d_encode(Word.from_ranks((0, 1, 2, 0), 2, 2), spec)
        rows = list(word.rows())
        rows[0] = rows[0][2:]  # two symbols gone from one row
        with pytest.raises(ValueError, match="lost 2"):
            c2d_decode(ReceivedRows(tuple(rows), 2, spec.n), spec)
        short = Word.from_ranks((0, 1, 2, 0), 2, 2)
        with pytest.raises(ValueError, match="shape"):
            c2d_decode(received_after(short, {}), spec)
        with pytest.raises(ValueError, match="payload must be"):
            c2d_encode(Word.from_ranks((0, 1), 2, 2), spec)


# ---------------------------------------------------------------------------
# C3D
# ---------------------------------------------------------------------------

class TestC3D:
    def test_spec_frozen(self):
        spec = C3DSpec(q=3, k=2, m=3)
        assert (spec.p, spec.delta, spec.n) == (9, 2, 7)
        with pytest.raises(ValueError, match="q >= 3"):
            C3DSpec(q=2, k=2, m=3)
        with pytest.raises(ValueError, match="m >= 3"):
            C3DSpec(q=3, k=2, m=2)

    def test_exhaustive_roundtrip(self):
        spec = C3DSpec(q=3, k=2, m=3)
        for payload in all_words(3, 2, 3):
            word = c3d_encode(payload, spec)
            assert c3d_decode(received_after(word, {}), spec) == payload
            for i in range(2):
                for p in range(spec.n):
                    got = c3d_decode(received_after(word, {i: p}), spec)
                    assert got == payload

    def test_redundancy(self):
        for q, k, m in [(3, 2, 3), (3, 3, 4), (4, 2, 5)]:
            spec = C3DSpec(q=q, k=k, m=m)
            assert spec.n - spec.m == 2 + spec.delta


# ---------------------------------------------------------------------------
# C4D
# ---------------------------------------------------------------------------

class TestC4D:
    def spec(self):
        return C4DSpec(q=3, k=2, t=2, m=4)

    def test_spec_frozen(self):
        spec = self.spec()
        assert (spec.p, spec.delta, spec.n) == (13, 2, 12)
        with pytest.raises(ValueError, match="q >= 3"):
            C4DSpec(q=2, k=2, t=2, m=4)

    def test_roundtrip_all_patterns(self):
        spec = self.spec()
        for payload in sample_payloads(3, 2, 4, 6, seed=97):
            word = c4d_encode(payload, spec)
            for hits in all_deletion_patterns(2, spec.n, 2):
                got = c4d_decode(received_after(word, hits), spec)
                assert got == payload

    def test_syndromes_reduce_mod_qm(self):
        spec = self.spec()
        for payload in sample_payloads(3, 2, 4, 20, seed=5):
            for value in spec.row_code.row_sums(payload.packed, spec.t):
                # stored residues lift below qm even though blocks live mod p
                assert 0 <= value < spec.p


def test_marker_specs_keep_t_rows_apart_from_c3d():
    # t = 1 is C3D's shape, but the t-row constructors must not build it
    with pytest.raises(ValueError, match="2 <= t <= k"):
        C4DSpec(3, 3, 1, 6)
    with pytest.raises(ValueError, match="2 <= t <= k"):
        C2DSpec(3, 1, 6)


def test_binary_marker_spec_needs_two_rows():
    # VT mod m cannot place a deletion in a binary row of length m
    with pytest.raises(ValueError, match="c1d"):
        dataclasses.replace(C2DSpec(2, 2, 4), t=1)
    with pytest.raises(ValueError, match="c1d"):
        codes_deletion.MarkerSpec(2, 3, 1, 8)


def test_is_subsequence_matches_the_generic_scan():
    rng = random.Random(23)

    def row(q, length, runs):
        out = []
        while len(out) < length:
            out += [rng.randrange(q)] * (rng.randint(1, 9) if runs else 1)
        return tuple(out[:length])

    verdicts = set()
    for _ in range(4000):
        q, n, runs = rng.randint(2, 4), rng.randint(0, 40), rng.random() < 0.5
        sup = row(q, n, runs)
        length = rng.randint(max(0, n - 2), n + 1)
        if length <= n and rng.random() < 0.7:
            # delete n - length symbols, then sometimes change one
            sub = list(sup)
            for _ in range(n - length):
                del sub[rng.randrange(len(sub))]
            if sub and rng.random() < 0.4:
                sub[rng.randrange(len(sub))] = rng.randrange(q)
            sub = tuple(sub)
        else:
            sub = row(q, length, runs)
        got = codes_deletion._is_subsequence(sub, sup)
        assert got == codes_deletion._reference_is_subsequence(sub, sup), (sub, sup)
        # packed rows take the same path and give the same verdict
        assert codes_deletion._is_subsequence(bytes(sub), bytes(sup)) == got, (sub, sup)
        verdicts.add((n - length, got))
    assert verdicts == {(-1, False)} | {(d, v) for d in (0, 1, 2) for v in (True, False)}


@pytest.mark.parametrize(
    "spec",
    [C2DSpec(3, 2, 16), C3DSpec(3, 2, 3), C4DSpec(3, 3, 2, 6)],
    ids=["c2d", "c3d", "c4d"],
)
def test_marker_spec_replace_keeps_equality_and_hash(spec):
    before = dataclasses.replace(spec)
    assert spec == before and hash(spec) == hash(before)
    spec.row_code.row_sums(sample_payloads(spec.q, spec.k, spec.m, 1, seed=2)[0].packed, spec.t)
    after = dataclasses.replace(spec)
    assert spec == after and hash(spec) == hash(after)
    assert (after.p, after.delta, after.n) == (spec.p, spec.delta, spec.n)


def test_marker_specs_redundancy_accounting():
    for spec in [C2DSpec(2, 2, 4), C2DSpec(3, 2, 5), C2DSpec(3, 3, 6)]:
        assert spec.n - spec.m == spec.t * (spec.delta + 2)
    for spec in [C4DSpec(3, 2, 2, 4), C4DSpec(4, 3, 2, 6)]:
        assert spec.n - spec.m == spec.t * (spec.delta + 2)


# ---------------------------------------------------------------------------
# typed failures and spec caching
# ---------------------------------------------------------------------------

def test_out_of_model_congruence_decodes_fail_typed():
    # one deletion from a word outside the code: only the first |I| = 1
    # congruence is solved, so the decoded word can miss the second one, or
    # the repaired row can leave an invalid column; both end as a
    # DecodeFailure, never as the plain ValueError of malformed input
    rng = random.Random(3)
    post_check = failures = successes = 0
    for _ in range(300):
        word = Word.from_ranks([rng.randrange(4) for _ in range(6)], 2, 3)
        rows = [list(r) for r in word.rows()]
        del rows[rng.randrange(3)][rng.randrange(6)]
        try:
            got = congruence_decode_binary_t(ReceivedRows(rows, 2, 6), (0, 0), 11)
        except DecodeFailure as exc:
            failures += 1
            post_check += "does not satisfy" in str(exc)
        else:
            successes += 1
            assert congruence_contains_binary_t(got, (0, 0), 11)
    assert post_check == 79
    assert (failures, successes) == (294, 6)


def test_clean_rows_with_an_invalid_column_fail_typed():
    rows = ((1, 0, 0, 0), (0, 0, 0, 0))  # column 0 reads (1, 0)
    with pytest.raises(DecodeFailure, match="column 0"):
        c1d_decode(ReceivedRows(rows, 2, 4), 0)
    with pytest.raises(DecodeFailure, match="column 0"):
        congruence_decode_qary_one(ReceivedRows(((2, 0, 0), (1, 0, 0)), 3, 3), 0)


def test_non_monotone_marker_flags_fail_typed():
    spec = C2DSpec(k=2, t=2, m=4)  # markers open at 4 and 8
    word = c2d_encode(Word.from_ranks((1, 0, 2, 1), 2, 2), spec)
    rows = [list(r) for r in word.rows()]
    del rows[0][0]  # a payload hit: the row reads 1 at both marker positions
    rows[0][8] = 0  # ... unless the second one is flipped back
    with pytest.raises(DecodeFailure, match="not monotone"):
        c2d_decode(ReceivedRows(tuple(map(tuple, rows)), 2, spec.n), spec)


def test_invalid_block_letter_fails_typed():
    spec = C3DSpec(q=3, k=2, m=3)  # payload 0..2, markers 3 and 4, digits 5 and 6
    # row 0 lost a payload symbol, so its digits are read one place early
    # and meet row 1's digits in the columns (2, 0)
    rows = ((0, 0, 0, 1, 2, 2), (0, 0, 0, 0, 1, 0, 0))
    with pytest.raises(DecodeFailure, match="invalid letter"):
        c3d_decode(ReceivedRows(rows, 3, spec.n), spec)


def test_unrepaired_payload_with_an_invalid_column_fails_typed():
    spec = C3DSpec(q=3, k=2, m=3)
    rows = ((1, 0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0, 0))  # no payload hit
    with pytest.raises(DecodeFailure, match="column 0"):
        c3d_decode(ReceivedRows(rows, 3, spec.n), spec)


def single_row_decoder_inputs(seed, count):
    """Seeded (family, decode, received) triples for the three single-row
    decoders, cycling c1d, cong-qary-1 and c3d.  Each word takes zero to two
    deletions in random rows; before that, a third of them get a wrong target
    (c3d: a random syndrome block) and a third one or two stray substitutions."""
    rng = random.Random(seed)
    for index in range(count):
        family = ("c1d", "cong-qary-1", "c3d")[index % 3]
        if family == "c1d":
            k, n = rng.randrange(2, 4), rng.randrange(4, 8)
            a = rng.randrange(n + 1)
            message = [rng.randrange(k + 1) for _ in range(c1d_message_length(k, n))]
            ranks = list(c1d_encode(message, a, k, n).ranks())
            q = 2
        elif family == "cong-qary-1":
            q, k, n = rng.randrange(3, 5), rng.randrange(2, 4), rng.randrange(3, 6)
            ranks = [rng.randrange(alphabet_size(q, k)) for _ in range(n)]
            word = Word.from_ranks(ranks, q, k)
            a = sum(qary_vt_syndrome(r, q) for r in word.packed)
        else:
            spec = C3DSpec(rng.randrange(3, 5), 2, rng.randrange(3, 6))
            q, k = spec.q, spec.k
            (payload,) = sample_payloads(q, k, spec.m, 1, seed=rng.randrange(10**6))
            ranks = list(c3d_encode(payload, spec).ranks())
        corruption = rng.choice(("none", "target", "substitutions"))
        if corruption == "target" and family == "c3d":
            big_q = alphabet_size(q, k)
            ranks[spec.m + 2 :] = [rng.randrange(big_q) for _ in ranks[spec.m + 2 :]]
        elif corruption == "target":
            a += rng.randrange(1, 4)
        rows = [list(r) for r in Word.from_ranks(ranks, q, k).rows()]
        if corruption == "substitutions":
            for _ in range(rng.randrange(1, 3)):
                row = rows[rng.randrange(k)]
                pos = rng.randrange(len(row))
                row[pos] = rng.choice([v for v in range(q) if v != row[pos]])
        for _ in range(rng.randrange(3)):
            row = rows[rng.randrange(k)]
            del row[rng.randrange(len(row))]
        n = len(ranks)
        if family == "c1d":
            decode = functools.partial(c1d_decode, a=a)
        elif family == "cong-qary-1":
            decode = functools.partial(congruence_decode_qary_one, a=a)
        else:
            decode = functools.partial(c3d_decode, spec=spec)
        yield family, decode, ReceivedRows(tuple(map(tuple, rows)), q, n)


def test_single_row_decoders_out_of_model():
    # out-of-model words end as DecodeFailure or the ValueError of a rejected
    # input, never as another exception; the counts pin the t = 1 decoders'
    # outcomes.  Everything after the intake is a DecodeFailure, so the
    # ValueErrors left are the _row_deficits rejections: a row that lost
    # two or more symbols, or more than one short row
    counts = {}
    for family, decode, received in single_row_decoder_inputs(5, 900):
        try:
            decode(received)
        except DecodeFailure:
            outcome = "DecodeFailure"
        except ValueError:
            outcome = "ValueError"
        else:
            outcome = "decoded"
        counts[family, outcome] = counts.get((family, outcome), 0) + 1
    assert counts == {
        ("c1d", "DecodeFailure"): 96,
        ("c1d", "ValueError"): 103,
        ("c1d", "decoded"): 101,
        ("cong-qary-1", "DecodeFailure"): 99,
        ("cong-qary-1", "ValueError"): 89,
        ("cong-qary-1", "decoded"): 112,
        ("c3d", "DecodeFailure"): 126,
        ("c3d", "ValueError"): 101,
        ("c3d", "decoded"): 73,
    }


def t_row_decoder_inputs(seed, count):
    """Seeded (family, decode, spec, received) tuples for the t = 2 decoders
    c2d, c4d and c2s, cycled, mostly out of their model: zero to three hits,
    each in a random row at a random position, a deletion (c2d, c4d) or a
    substitution (c2s), so a row may take two; a third of the words get one
    substitution more (c2d, c4d) or a deletion (c2s)."""
    rng = random.Random(seed)
    for index in range(count):
        family = ("c2d", "c4d", "c2s")[index % 3]
        if family == "c2d":
            k = rng.randrange(2, 5)
            spec, encode, decode = C2DSpec(k, 2, rng.randrange(k, 24)), c2d_encode, c2d_decode
        elif family == "c4d":
            spec = C4DSpec(rng.randrange(3, 5), rng.randrange(2, 4), 2, rng.randrange(3, 12))
            encode, decode = c4d_encode, c4d_decode
        else:
            spec = C2SSpec(rng.randrange(2, 4), rng.randrange(2, 4), 2, rng.randrange(2, 9))
            encode, decode = c2s_encode, c2s_decode
        (payload,) = sample_payloads(spec.q, spec.k, spec.m, 1, seed=rng.randrange(10**6))
        rows = [list(row) for row in encode(payload, spec).rows()]

        def substitute():
            row = rows[rng.randrange(spec.k)]
            pos = rng.randrange(len(row))
            row[pos] = rng.choice([v for v in range(spec.q) if v != row[pos]])

        def delete():
            row = rows[rng.randrange(spec.k)]
            del row[rng.randrange(len(row))]

        hit, extra = (substitute, delete) if family == "c2s" else (delete, substitute)
        for _ in range(rng.randrange(4)):
            hit()
        if rng.randrange(3) == 0:
            extra()
        yield family, decode, spec, ReceivedRows(tuple(map(tuple, rows)), spec.q, spec.n)


def clear_spec_fixed_caches(*objects):
    """Drop every row code, with its power-sum weights and Vandermonde
    inverses: the congruence families' kept ones, and every cached_property
    of the given objects (the specs)."""
    codes_deletion._row_code.cache_clear()
    for obj in objects:
        for name, attr in vars(type(obj)).items():
            if isinstance(attr, functools.cached_property):
                vars(obj).pop(name, None)


def decode_outcome(decode, *args):
    """The decoded ranks, or the type and message of the refusal."""
    try:
        return decode(*args).ranks()
    except ValueError as exc:
        return type(exc), str(exc)


def test_decodes_are_the_same_with_spec_fixed_caches_cold_and_warm():
    # every outcome, decoded word or refusal, is the same when every cache
    # that depends only on the spec is emptied before the call as when all
    # of them are warm
    cases = [
        (family, decode, (received,), tuple(decode.keywords.values()))
        for family, decode, received in single_row_decoder_inputs(5, 900)
    ]
    cases += [
        (family, decode, (received, spec), (spec,))
        for family, decode, spec, received in t_row_decoder_inputs(32, 600)
    ]
    cold = []
    for _, decode, args, specs in cases:
        clear_spec_fixed_caches(*specs)
        cold.append(decode_outcome(decode, *args))
    for _ in range(2):  # the second pass meets every cache warm
        warm = [decode_outcome(decode, *args) for _, decode, args, _ in cases]
    assert cold == warm
    kinds = {
        (family, got[0] if isinstance(got[0], type) else False)
        for (family, *_), got in zip(cases, warm)
    }
    for family in ("c1d", "cong-qary-1", "c3d", "c2d", "c4d", "c2s"):
        assert {(family, False), (family, DecodeFailure), (family, ValueError)} <= kinds


def test_qary_t_post_decode_check_is_typed():
    rng = random.Random(4)
    post_check = 0
    for _ in range(200):
        word = Word.from_ranks([rng.randrange(10) for _ in range(4)], 3, 3)
        rows = [list(r) for r in word.rows()]
        del rows[rng.randrange(3)][rng.randrange(4)]
        try:
            got = congruence_decode_qary_t(ReceivedRows(rows, 3, 4), (0, 0), 13)
        except DecodeFailure as exc:
            post_check += "does not satisfy" in str(exc)
        except ValueError:
            continue
        else:
            assert congruence_contains_qary_t(got, (0, 0), 13)
    assert post_check > 0


def test_post_decode_check_survives_optimised_python():
    # python -O strips assert statements; the membership check must still run
    script = (
        "from composite_dna.channel import ReceivedRows\n"
        "from composite_dna.codes_deletion import congruence_decode_binary_t\n"
        "from composite_dna.vt_core import DecodeFailure\n"
        "rows = ((0, 0, 0, 0, 0), (0, 0, 1, 1, 1, 0), (0, 0, 1, 1, 1, 1))\n"
        "assert False, 'asserts are live'\n"
        "try:\n"
        "    congruence_decode_binary_t(ReceivedRows(rows, 2, 6), (0, 0), 11)\n"
        "except DecodeFailure as exc:\n"
        "    print('DecodeFailure:', exc)\n"
    )
    src = str(Path(codes_deletion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == (
        "DecodeFailure: decoded word does not satisfy the code congruences\n"
    )


def test_marker_spec_primes_are_searched_once(monkeypatch):
    searches = []
    original = codes_deletion.next_prime_bertrand

    def counting(value):
        searches.append(value)
        return original(value)

    monkeypatch.setattr(codes_deletion, "next_prime_bertrand", counting)
    for spec, encode, decode in [
        (C2DSpec(k=3, t=2, m=16), c2d_encode, c2d_decode),
        (C4DSpec(q=3, k=3, t=2, m=6), c4d_encode, c4d_decode),
    ]:
        searches.clear()
        (payload,) = sample_payloads(spec.q, spec.k, spec.m, 1, seed=11)
        word = encode(payload, spec)
        assert decode(received_after(word, {0: 2, 2: 5}), spec) == payload
        assert len(searches) == 1
        # cached values live outside the fields: equality and hash are unchanged
        fresh = dataclasses.replace(spec)
        assert spec == fresh and hash(spec) == hash(fresh)


def test_marker_codes_transpose_only_their_tail(monkeypatch):
    # encode builds payload + tail, and decode builds its payload with
    # Word.from_rows, which transposes the rank table's letters itself, so
    # no Word(q, k, ranks) call sees more than the t*(delta+2) tail columns
    cases = []
    for spec, encode, decode in [
        (C2DSpec(k=4, t=2, m=1024), c2d_encode, c2d_decode),
        (C4DSpec(q=4, k=3, t=2, m=192), c4d_encode, c4d_decode),
    ]:
        (payload,) = sample_payloads(spec.q, spec.k, spec.m, 1, seed=17)
        word = encode(payload, spec)
        received = received_after(word, {0: spec.m // 3, 2: spec.m // 2})
        cases.append((spec, encode, decode, payload, received))
    seen = []
    original = Word.__init__

    def recording(self, q, k, ranks):
        ranks = tuple(ranks)
        seen.append(len(ranks))
        original(self, q, k, ranks)

    monkeypatch.setattr(Word, "__init__", recording)
    for spec, encode, decode, payload, received in cases:
        tail = spec.t * (spec.delta + 2)
        assert tail == spec.n - spec.m
        for run in (lambda: encode(payload, spec), lambda: decode(received, spec)):
            seen.clear()
            run()
            assert seen and max(seen) <= tail
        assert decode(received, spec) == payload


MARKER_DECODES = [
    (C2DSpec(k=3, t=2, m=16), c2d_encode, c2d_decode),
    (C3DSpec(q=3, k=3, m=8), c3d_encode, c3d_decode),
    (C4DSpec(q=3, k=3, t=2, m=6), c4d_encode, c4d_decode),
]


def marker_hits(spec, rng, shape):
    """A deletion pattern (row -> position) of the given shape: every hit
    in the payload, one payload hit and one hit in block 0 (t >= 2), or
    every hit in the tail, so that no row is unknown.  Losing the zero
    marker at position m reads as a payload hit, so tail hits start at
    m + 1."""
    rows = rng.sample(range(spec.k), spec.t)
    if shape == "payload":
        return {i: rng.randrange(spec.m) for i in rows}
    if shape == "block":
        block = rng.randrange(spec.m + 1, spec.m + spec.delta + 2)
        return {rows[0]: rng.randrange(spec.m), rows[1]: block}
    return {i: rng.randrange(spec.m + 1, spec.n) for i in rows}


@pytest.mark.parametrize(
    "spec, encode, decode, shape",
    [
        (*case, shape)
        for case in MARKER_DECODES
        for shape in ("payload", "block", "tail")
        if shape != "block" or case[0].t >= 2
    ],
)
def test_marker_decode_tail_is_the_encoders_tail(monkeypatch, spec, encode, decode, shape):
    # the re-encode takes the intact rows' syndromes from the row repair and
    # computes the repaired rows' from the decoded rows: its tail, and the
    # syndrome sums it came from, are the encoder's.  Every decode goes
    # through the repair once, and a tail hit solves for no rows
    tails, repairs = [], []
    original_tail, original_repair = codes_deletion._marker_tail, codes_deletion.repair_rows

    def recording_tail(sums, spec):
        tail = original_tail(sums, spec)
        tails.append((list(sums), tail))
        return tail

    def recording_repair(*args):
        repairs.append(args[2])
        return original_repair(*args)

    monkeypatch.setattr(codes_deletion, "_marker_tail", recording_tail)
    monkeypatch.setattr(codes_deletion, "repair_rows", recording_repair)
    rng = random.Random(spec.q * 100 + spec.t)
    for payload in sample_payloads(spec.q, spec.k, spec.m, 12, seed=spec.m):
        word = encode(payload, spec)
        received = received_after(word, marker_hits(spec, rng, shape))
        tails.clear()
        repairs.clear()
        assert decode(received, spec) == payload
        ((sums, tail),) = tails
        assert sums == spec.row_code.row_sums(payload.packed, spec.t)
        assert tail.ranks() == word.ranks()[spec.m :]
        (unknown,) = repairs
        assert bool(unknown) == (shape != "tail")


@pytest.mark.parametrize("spec, encode, decode", MARKER_DECODES)
def test_marker_decode_certifies_a_wrong_repaired_row(monkeypatch, spec, encode, decode):
    # a row decoder that returns a wrong supersequence of the short row: row
    # 0 with the lost digit set to 0, which keeps every column a letter.  A
    # tail rebuilt from the solved residues would match every received row;
    # the one rebuilt from the decoded rows' own syndromes does not
    original = codes_deletion._RowCode.decode
    rng = random.Random(spec.m)
    payloads = sample_payloads(spec.q, spec.k, spec.m, 12, seed=spec.q)
    payloads = [p for p in payloads if any(p.rows()[0])]  # a digit to zero
    assert len(payloads) >= 10
    for payload in payloads:
        x = payload.rows()[0]
        pos = rng.choice([j for j, digit in enumerate(x) if digit])

        def wrong(self, row, residue, pos=pos):
            got = original(self, row, residue)
            return got[:pos] + type(got)((0,)) + got[pos + 1 :]

        word = encode(payload, spec)
        received = received_after(word, {0: pos})
        with monkeypatch.context() as patch:
            patch.setattr(codes_deletion._RowCode, "decode", wrong)
            with pytest.raises(DecodeFailure, match="inconsistent with the received"):
                decode(received, spec)
        assert decode(received, spec) == payload


# Inputs the deletion codes do not take, each with the message it gives.
DELETION_REFUSALS = {
    "c1d-message-length": (
        lambda: c1d_encode((0,), 0, 2, 5), "message must have 3 ranks, got 1",
    ),
    "c1d-decode-q": (
        lambda: c1d_decode(ReceivedRows(((0,), (1,)), 3, 1), 0), "c1d is a binary family",
    ),
    "binary-t-q": (
        lambda: congruence_decode_binary_t(ReceivedRows(((0,), (1,)), 3, 1), (0,), 5),
        "binary congruence family needs q = 2",
    ),
    "c2d-k": (lambda: C2DSpec(1, 1, 4), "need k >= 2"),
}


@pytest.mark.parametrize("case", DELETION_REFUSALS)
def test_deletion_codes_refuse_what_they_do_not_take(case):
    call, message = DELETION_REFUSALS[case]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message
