"""Tests for the substitution-correcting constructions.

Round-trip sweeps substitute digits by hand (explicit row/position/value)
so the decoders face an independent notion of "one substitution", not
channel.apply_errors.  Disjointness invariants go through the brute-force
channel oracle, which is the point of that oracle.
"""

import dataclasses
import itertools
import random

import pytest

from composite_dna import _codec, codes_substitution, vt_core
from composite_dna.alphabet import Word, alphabet_size
from composite_dna.channel import (
    ReceivedRows,
    oracle_is_code,
    sub_per_row,
    sub_t_rows,
    sub_total,
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
    cecc1_message,
    cecc1_message_length,
    dec_doll,
    doll_F,
    doll_m,
    doll_size,
    enc_doll,
    hamming_build,
    hamming_size,
    q1cecc_checksums,
    q1cecc_decode,
)
from composite_dna.codes_substitution import _checks, _doll_unrank, _reference_hamming_decode
from composite_dna.vt_core import DecodeFailure


def substituted(source, row, pos, value):
    """One explicit digit substitution on a Word or ReceivedRows."""
    rows = source.rows() if isinstance(source, Word) else source.rows
    rows = [list(r) for r in rows]
    rows[row][pos] = value
    return ReceivedRows(tuple(tuple(r) for r in rows), source.q, source.n)


def all_single_subs(word):
    """Every strictly-changing single substitution, plus the clean word."""
    yield ReceivedRows(word.rows(), word.q, word.n)
    for row in range(word.k):
        for pos in range(word.n):
            old = word.rows()[row][pos]
            for value in range(word.q):
                if value != old:
                    yield substituted(word, row, pos, value)


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
# the inner check codes C(l)
# ---------------------------------------------------------------------------

class TestHammingFamily:
    def test_l3_columns_frozen(self):
        fam = hamming_build(3)
        assert fam.columns == ((0, 1), (1, 0), (1, 1))
        assert fam.size == 2
        assert set(fam.codewords()) == {(0, 0, 0), (1, 1, 1)}

    def test_l4_deletes_largest_heavy_columns(self):
        fam = hamming_build(4)
        # 7 projective columns of length 3, minus the 3 lex-largest of
        # weight >= 2: out go 111, 110, 101.
        assert fam.columns == ((0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0))
        assert fam.size == 2

    def test_l7_is_the_classic_hamming_code(self):
        fam = hamming_build(7)
        assert len(fam.columns) == 7
        assert fam.r == 3
        assert fam.size == 16
        assert len(set(fam.codewords())) == 16

    @pytest.mark.parametrize("l", range(3, 13))
    def test_size_formula(self, l):
        fam = hamming_build(l)
        r = next(i for i in range(1, 20) if 2**i >= l + 1)
        assert fam.r == r
        assert fam.size == 2 ** (l - r)
        assert all(sum(c) >= 1 for c in fam.columns)
        assert sum(1 for c in fam.columns if sum(c) == 1) == r

    @pytest.mark.parametrize("l", range(3, 13))
    def test_corrects_every_single_flip(self, l):
        fam = hamming_build(l)
        for cw in fam.codewords():
            assert fam.decode(cw) == cw
            for pos in range(l):
                hit = list(cw)
                hit[pos] ^= 1
                assert fam.decode(tuple(hit)) == cw

    def test_qary_family(self):
        fam = hamming_build(4, field=5)
        assert fam.columns == ((0, 1), (1, 0), (1, 1), (1, 2))
        assert fam.size == 25
        codewords = set(fam.codewords())
        assert len(codewords) == 25
        for cw in codewords:
            for pos in range(4):
                for value in range(5):
                    if value == cw[pos]:
                        continue
                    hit = list(cw)
                    hit[pos] = value
                    assert fam.decode(tuple(hit)) == cw

    def test_small_codes(self):
        assert hamming_build(0).encode(()) == ()
        assert hamming_build(1).encode(()) == (1,)
        assert hamming_build(2).encode(()) == (1, 1)
        assert hamming_build(2).decode((0, 1)) == (1, 1)
        assert hamming_build(2).decode((1, 0)) == (1, 1)
        with pytest.raises(DecodeFailure):
            hamming_build(2).decode((0, 0))

    def test_rejects_composite_field(self):
        with pytest.raises(ValueError, match="prime"):
            hamming_build(4, field=9)

    @pytest.mark.parametrize("field", [2, 3, 5, 7])
    def test_closed_form_size_is_the_built_codes(self, field):
        """field ** (l - r) without building C(l) is field to the number of
        message coordinates, the non-unit columns, of the built code."""
        for l in range(200):
            fam = hamming_build(l, field)
            assert hamming_size(l, field) == fam.size == field ** len(fam.message_coords), l
            assert len(fam.parity_coords) == fam.r or l <= 2

    def test_check_count_is_the_loop_it_replaced(self):
        """_checks(l, field), one digit_width call, is the least r >= 1 with
        (field^r - 1) / (field - 1) >= l, found by counting r up."""
        for field in range(2, 14):
            for l in range(1, 5000):
                r = 1
                while (field**r - 1) // (field - 1) < l:
                    r += 1
                assert _checks(l, field) == r, (l, field)

    @pytest.mark.parametrize(
        "field, l", [(2, l) for l in range(3, 9)] + [(3, l) for l in range(3, 6)]
    )
    def test_decode_matches_the_column_search_on_every_word(self, field, l):
        """The syndrome table names the error that a search of the check
        columns for the syndrome's normalised multiple names, on every word
        of F_field^l, the words no single error explains included."""
        fam = hamming_build(l, field)

        def outcome(decode, word):
            try:
                return decode(word)
            except DecodeFailure as failure:
                return str(failure)

        failures = 0
        for word in itertools.product(range(field), repeat=l):
            expected = outcome(lambda w: _reference_hamming_decode(fam, w), word)
            assert outcome(fam.decode, word) == expected, word
            failures += isinstance(expected, str)
        # a perfect code (l = 3, 7 over F_2; l = 4 over F_3) has no such word
        assert (failures == 0) == ((field, l) in {(2, 3), (2, 7), (3, 4)})


# ---------------------------------------------------------------------------
# the enumeration code
# ---------------------------------------------------------------------------

def doll_members(spec):
    """Membership by definition: the A2-subsequence image lies in C(l)."""
    a2 = {r: i for i, r in enumerate(spec.a2_ranks)}
    members = set()
    for word in all_words(spec.q, spec.k, spec.n):
        image = tuple(a2[r] for r in word.ranks() if r in a2)
        fam = hamming_build(len(image), spec.field)
        if len(image) <= 2:
            ok = image == (1,) * len(image)
        else:
            ok = not any(fam.syndrome(image))
        if ok:
            members.add(word)
    return members


class TestDollCode:
    def test_frozen_scalars(self):
        assert doll_m(3, 2) == 1
        assert doll_size(1, 2) == 2

    def test_doll_F(self):
        assert doll_F((0, 2, 1, 2), 2) == (1, 0, 1)
        assert doll_F((0, 0), 3) == ()
        assert doll_F((3,) * 4, 3) == (1, 1, 1, 1)

    def test_message_length_is_the_loop_it_replaced(self):
        """DollSpec.m, one digit_width call, is the largest m with
        base^m <= num / den (the size, or at q = 2 its closed-form lower
        bound), found by counting m up.  A (q, k) whose |A2| is not prime
        has no spec."""
        checked = 0
        for q, k in itertools.product((2, 3), range(2, 7)):
            for n in range(1, 120):
                try:
                    spec = DollSpec(q, k, n)
                except ValueError:
                    break
                if q == 2:
                    num, den = (k + 1) ** (n + 1) - (k - 1) ** (n + 1), 4 * (n + 1)
                else:
                    num, den = spec.size, 1
                m, reach = 0, spec.base
                while reach * den <= num:
                    m, reach = m + 1, reach * spec.base
                assert spec.m == m, (q, k, n)
                checked += 1
        assert checked == 9 * 119  # every (q, k) but (3, 4), whose |A2| = 9

    def test_size_matches_direct_enumeration(self):
        for n in (2, 3, 4):
            spec = DollSpec(2, 2, n)
            members = doll_members(spec)
            assert spec.size == len(members)
            listed = {_doll_unrank(i, spec) for i in range(1, spec.size + 1)}
            assert listed == members

    def test_size_lower_bound(self):
        # the closed-form bound the message length is carved from
        for k in (2, 3, 4):
            for n in range(1, 11):
                num = (k + 1) ** (n + 1) - (k - 1) ** (n + 1)
                assert doll_size(n, k) * 4 * (n + 1) >= num

    def test_frozen_encodings(self):
        spec = DollSpec(2, 2, 3)
        assert enc_doll((0,), spec).ranks() == (0, 0, 0)
        # the 5th codeword in the canonical order: first of the l=2 class
        assert _doll_unrank(5, spec).ranks() == (2, 2, 0)

    def test_encoder_is_injective_into_the_code(self):
        for n in (3, 4):
            spec = DollSpec(2, 2, n)
            members = doll_members(spec)
            images = set()
            for ranks in itertools.product(range(3), repeat=spec.m):
                images.add(enc_doll(ranks, spec))
            assert len(images) == 3**spec.m
            assert images <= members

    def test_roundtrip_under_all_row1_errors(self):
        spec = DollSpec(2, 2, 4)
        invalid_seen = 0
        for ranks in itertools.product(range(3), repeat=spec.m):
            word = enc_doll(ranks, spec)
            for pos in range(spec.n):
                old = word.rows()[0][pos]
                received = substituted(word, 0, pos, 1 - old)
                cols = [tuple(r[pos] for r in received.rows)]
                if cols[0][0] > cols[0][1]:
                    invalid_seen += 1
                assert dec_doll(received, spec) == ranks
            clean = ReceivedRows(word.rows(), 2, spec.n)
            assert dec_doll(clean, spec) == ranks
        assert invalid_seen > 0

    def test_image_is_a_row1_substitution_code(self):
        spec = DollSpec(2, 2, 3)
        codebook = [
            enc_doll(ranks, spec)
            for ranks in itertools.product(range(3), repeat=spec.m)
        ]
        assert oracle_is_code(codebook, sub_per_row(1, 0))

    def test_q3_roundtrip_and_A1_columns_always_turn_invalid(self):
        spec = DollSpec(3, 2, 3)
        assert spec.field == 5
        assert spec.m == 1
        a1 = set(spec.a1_ranks)
        for ranks in itertools.product(range(6), repeat=spec.m):
            word = enc_doll(ranks, spec)
            for pos in range(spec.n):
                old = word.rows()[0][pos]
                was_a1 = word.ranks()[pos] in a1
                for value in range(3):
                    if value == old:
                        continue
                    received = substituted(word, 0, pos, value)
                    col = tuple(r[pos] for r in received.rows)
                    if was_a1:
                        # a fill letter has both digits zero, so any row-1
                        # change overshoots the second digit
                        assert col[0] > col[1]
                    assert dec_doll(received, spec) == ranks

    def test_q3_k3_roundtrip(self):
        spec = DollSpec(3, 3, 3)
        assert spec.field == 7
        for ranks in itertools.product(range(10), repeat=spec.m):
            word = enc_doll(ranks, spec)
            for pos in range(spec.n):
                old = word.rows()[0][pos]
                for value in range(3):
                    if value != old:
                        received = substituted(word, 0, pos, value)
                        assert dec_doll(received, spec) == ranks

    def test_composite_inner_field_rejected(self):
        with pytest.raises(ValueError, match="prime"):
            DollSpec(4, 2, 3)

    def test_breaches(self):
        spec = DollSpec(2, 2, 4)
        word = enc_doll((0, 0), spec)
        # corrupting below row 1 is outside the model whenever it breaks
        # monotonicity against row 1
        rows = [tuple(r) for r in word.rows()]
        with pytest.raises(ValueError, match="shape"):
            dec_doll(ReceivedRows(tuple(rows), 2, 4), DollSpec(2, 2, 5))
        with pytest.raises(ValueError, match="full-length"):
            dec_doll(ReceivedRows((rows[0][:3], rows[1]), 2, 4), spec)

    def test_table_rows(self):
        spec = DollSpec(2, 2, 3)
        table = spec.table()
        assert [row[0] for row in table] == [0, 1, 2, 3]
        assert sum(row[4] for row in table) == spec.size
        for l, supports, fills, inner, total in table:
            assert supports * fills * inner == total

    def test_class_sizes_are_computed_once_per_spec(self, monkeypatch):
        lookups = []

        def counting(l, field):
            lookups.append(l)
            return hamming_size(l, field)

        monkeypatch.setattr(codes_substitution, "hamming_size", counting)
        for q, k, n in [(2, 3, 6), (3, 2, 5)]:
            lookups.clear()
            spec = DollSpec(q, k, n)
            base = alphabet_size(q, k)
            assert spec.size == sum(spec.class_sizes[l] for l in range(n + 1))
            rng = random.Random(n)
            for _ in range(20):
                message = tuple(rng.randrange(base) for _ in range(spec.m))
                word = enc_doll(message, spec)
                assert dec_doll(substituted(word, 0, rng.randrange(n), 0), spec) == message
            assert sorted(lookups) == list(range(n + 1))

    def test_table_builds_no_inner_code(self, monkeypatch):
        """The class table takes each inner code's size in closed form, so
        neither hamming_build nor HammingFamily runs for any class."""
        built = []
        init = codes_substitution.HammingFamily.__init__

        def counting_init(fam, *args, **kwargs):
            built.append("HammingFamily")
            init(fam, *args, **kwargs)

        def counting_build(l, field=2):
            built.append("hamming_build")
            return hamming_build(l, field)

        monkeypatch.setattr(codes_substitution.HammingFamily, "__init__", counting_init)
        monkeypatch.setattr(codes_substitution, "hamming_build", counting_build)
        spec = DollSpec(2, 2, 512)
        assert len(spec.table()) == 513 and built == []
        enc_doll((0,) * spec.m, spec)  # the encoder builds the one class it uses
        assert built.count("hamming_build") == 1

    @pytest.mark.parametrize("q, k, n", [(2, 2, 4), (2, 3, 3), (3, 2, 3)])
    def test_decoder_inverts_the_unrank_of_every_index(self, q, k, n):
        # the clean codeword of index i decodes to the base-|Phi| digits of
        # i - 1, least significant first; the indices past the |Phi|^m
        # messages belong to codewords that the encoder never sends
        spec = DollSpec(q, k, n)
        base = alphabet_size(q, k)
        assert spec.size > base**spec.m
        for i in range(1, spec.size + 1):
            received = ReceivedRows(_doll_unrank(i, spec).rows(), q, n)
            if i <= base**spec.m:
                digits = tuple((i - 1) // base**j % base for j in range(spec.m))
                assert dec_doll(received, spec) == digits
            else:
                outside = "^codeword index lies outside the encoder image$"
                with pytest.raises(DecodeFailure, match=outside):
                    dec_doll(received, spec)

    def test_decode_looks_each_column_up_once(self, monkeypatch):
        # one column_ranks pass over the received columns, and a column_rank
        # call only for the column that a row-1 overshoot made invalid
        calls = []

        def counted(func, name):
            def wrapper(*args):
                calls.append(name)
                return func(*args)

            return wrapper

        for module in (codes_substitution, _codec):
            for name in ("column_ranks", "column_rank"):
                if hasattr(module, name):
                    wrapped = counted(getattr(module, name), name)
                    monkeypatch.setattr(module, name, wrapped)
        spec = DollSpec(2, 2, 4)
        message = (1, 2)
        word = enc_doll(message, spec)
        calls.clear()
        assert dec_doll(ReceivedRows(word.rows(), 2, spec.n), spec) == message
        assert calls == ["column_ranks"]
        pos = next(j for j, r in enumerate(word.ranks()) if r in spec.a1_ranks)
        calls.clear()
        assert dec_doll(substituted(word, 0, pos, 1), spec) == message
        assert calls == ["column_ranks", "column_rank"]


# ---------------------------------------------------------------------------
# binary single-substitution code
# ---------------------------------------------------------------------------

class TestCecc1:
    def test_message_length(self):
        assert cecc1_message_length(3, 6) == 3

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_roundtrip_exhaustive(self, n):
        k, a = 3, 0
        length = cecc1_message_length(k, n)
        for message in itertools.product(range(k + 1), repeat=length):
            word = cecc1_encode(message, a, k, n)
            assert cecc1_contains(word, a)
            assert cecc1_message(word) == message
            for received in all_single_subs(word):
                assert cecc1_decode(received, a) == word

    def test_decode_of_a_non_codeword_evaluates_one_syndrome(self, monkeypatch):
        """With every column valid, the 1-LME decoder's one VT syndrome both
        tests the word and places its error; no membership test runs first."""
        k, n, a = 3, 5, 0
        word = cecc1_encode((1, 2), a, k, n)
        ranks = list(word.ranks())
        ranks[2] += 1 if ranks[2] < k else -1
        hit = Word.from_ranks(ranks, 2, k)
        assert not cecc1_contains(hit, a)
        calls = []

        def counting(original):
            def syndrome(row):
                calls.append(len(row))
                return original(row)

            return syndrome

        for module in (vt_core, codes_substitution):
            monkeypatch.setattr(module, "vt_syndrome", counting(module.vt_syndrome))
        assert cecc1_decode(ReceivedRows(hit.packed, 2, n), a) == word
        assert calls == [n]

    def test_invalid_column_disambiguation(self):
        # the same received rows decode to different originals under the
        # two congruence targets: ranks 2 and 4 both complete column 0
        low = Word.from_ranks((2, 0, 1), 2, 4)
        high = Word.from_ranks((4, 0, 1), 2, 4)
        a_low = sum((j + 1) * r for j, r in enumerate(low.ranks())) % 9
        a_high = sum((j + 1) * r for j, r in enumerate(high.ranks())) % 9
        bad_low = substituted(low, 0, 0, 1)
        bad_high = substituted(high, 1, 0, 0)
        assert bad_low.rows == bad_high.rows
        col = tuple(r[0] for r in bad_low.rows)
        assert col == (1, 0, 1, 1)
        assert cecc1_decode(bad_low, a_low) == low
        assert cecc1_decode(bad_high, a_high) == high

    def test_congruence_class_is_a_substitution_code(self):
        k, n, a = 2, 4, 0
        codebook = [w for w in all_words(2, k, n) if cecc1_contains(w, a)]
        assert codebook
        assert oracle_is_code(codebook, sub_total(1))

    def test_encoder_image_is_a_substitution_code(self):
        k, n, a = 2, 5, 0
        codebook = [
            cecc1_encode(message, a, k, n)
            for message in itertools.product(range(3), repeat=2)
        ]
        assert len(set(codebook)) == 9
        assert oracle_is_code(codebook, sub_total(1))

    def test_rejects_nonbinary(self):
        word = Word.from_ranks((0, 1), 3, 2)
        with pytest.raises(ValueError, match="binary"):
            cecc1_contains(word, 0)

    def test_breach_on_two_invalid_columns(self):
        word = cecc1_encode((0, 0), 0, 3, 4)
        rows = [list(r) for r in word.rows()]
        rows[0][0], rows[0][1] = 1, 1
        rows[1][0], rows[1][1] = 0, 0
        rows[2][0], rows[2][1] = 1, 1
        with pytest.raises(ValueError, match="invalid column"):
            cecc1_decode(ReceivedRows(tuple(map(tuple, rows)), 2, 4), 0)


# ---------------------------------------------------------------------------
# q-ary three-checksum machinery
# ---------------------------------------------------------------------------

class TestQ1Cecc:
    def test_frozen_checksums(self):
        word = Word.from_rows(((0, 1), (1, 2)), 3)
        assert q1cecc_checksums(word, 2, 3) == (4, 1, 0)
        zero = Word.from_rows(((0, 0, 0), (0, 0, 0)), 3)
        assert q1cecc_checksums(zero, 3, 3) == (0, 0, 0)

    def test_decode_sweep_exhaustive(self):
        q, k, n, p1, p2 = 3, 2, 3, 3, 3
        invalid_seen = 0
        for word in all_words(q, k, n):
            a1, a2, a3 = q1cecc_checksums(word, p1, p2)
            for received in all_single_subs(word):
                cols = [
                    tuple(row[j] for row in received.rows) for j in range(n)
                ]
                if any(c[0] > c[1] for c in cols):
                    invalid_seen += 1
                got = q1cecc_decode(received, a1, a2, a3, p1, p2)
                assert got == word
        assert invalid_seen > 0

    def test_clean_word_with_wrong_checksums_is_a_breach(self):
        word = Word.from_rows(((0, 1, 1), (1, 1, 2)), 3)
        a1, a2, a3 = q1cecc_checksums(word, 3, 3)
        received = ReceivedRows(word.rows(), 3, 3)
        with pytest.raises(ValueError):
            q1cecc_decode(received, a1, (a2 + 1) % 3, a3, 3, 3)

    @pytest.mark.parametrize(
        "rows, checksums, message",
        [
            (
                [[0, 0, 2, 2, 0], [1, 2, 2, 1, 2]],
                (2, 4, 0),
                "digit sum clean but a column is invalid",
            ),
            (
                [[2, 0, 0, 2, 0], [2, 2, 2, 2, 1]],
                (2, 0, 1),
                "implied column index out of range",
            ),
        ],
    )
    def test_outside_the_model_is_typed(self, rows, checksums, message):
        with pytest.raises(DecodeFailure, match=message):
            q1cecc_decode(ReceivedRows(rows, 3, 5), *checksums, 7, 3)

    def test_parameter_validation(self):
        word = Word.from_rows(((0, 1, 1), (1, 1, 2)), 3)
        with pytest.raises(ValueError, match="p1"):
            q1cecc_checksums(word, 4, 3)
        with pytest.raises(ValueError, match="p2"):
            q1cecc_checksums(word, 3, 2)
        binary = Word.from_rows(((0, 1), (1, 1)), 2)
        with pytest.raises(ValueError, match="q > 2"):
            q1cecc_checksums(binary, 2, 2)


# ---------------------------------------------------------------------------
# systematic q-ary single-substitution construction
# ---------------------------------------------------------------------------

class TestC1S:
    def test_spec_frozen(self):
        spec = C1SSpec(3, 2, 3)
        assert (spec.p1, spec.p2, spec.delta, spec.n) == (3, 3, 2, 7)

    def test_roundtrip_sampled(self):
        spec = C1SSpec(3, 2, 3)
        marker_hits = 0
        for payload in sample_payloads(3, 2, 3, 40, seed=20260814):
            word = c1s_encode(payload, spec)
            assert word.letters[:3] == payload.letters
            for received in all_single_subs(word):
                changed = [
                    pos
                    for pos in range(spec.n)
                    for row in range(2)
                    if received.rows[row][pos] != word.rows()[row][pos]
                ]
                if changed and changed[0] in (3, 4):
                    marker_hits += 1
                assert c1s_decode(received, spec) == payload
        assert marker_hits > 0

    def test_image_is_a_substitution_code(self):
        spec = C1SSpec(3, 2, 3)
        codebook = [c1s_encode(p, spec) for p in all_words(3, 2, 3)]
        assert len(set(codebook)) == 6**3
        assert oracle_is_code(codebook, sub_total(1))

    def test_primes_are_searched_once(self, monkeypatch):
        searches = []
        original = codes_substitution.smallest_prime_at_least

        def counting(value):
            searches.append(value)
            return original(value)

        monkeypatch.setattr(codes_substitution, "smallest_prime_at_least", counting)
        spec = C1SSpec(3, 2, 5)
        (payload,) = sample_payloads(3, 2, 5, 1, seed=23)
        word = c1s_encode(payload, spec)
        received = substituted(word, 1, 2, (word.rows()[1][2] + 1) % 3)
        assert c1s_decode(received, spec) == payload
        assert sorted(searches) == [3, 5]  # p2 from q, p1 from m

    def test_rejections(self):
        with pytest.raises(ValueError, match="q > 2"):
            C1SSpec(2, 2, 3)
        with pytest.raises(ValueError, match="m >= q"):
            C1SSpec(3, 2, 2)
        spec = C1SSpec(3, 2, 3)
        with pytest.raises(ValueError, match="payload"):
            c1s_encode(Word.from_ranks((0, 1), 3, 2), spec)


# ---------------------------------------------------------------------------
# t-row construction
# ---------------------------------------------------------------------------

class TestC2S:
    def test_spec_frozen(self):
        spec = C2SSpec(2, 3, 2, 3)
        assert (spec.p, spec.delta, spec.n) == (7, 2, 19)
        assert spec.n - spec.m == spec.t * spec.delta + 2 * spec.k + spec.t * spec.k

    def test_roundtrip_all_two_row_patterns(self):
        spec = C2SSpec(2, 3, 2, 3)
        payloads = sample_payloads(2, 3, 3, 5, seed=97) + [
            Word.from_ranks((3, 0, 2), 2, 3)
        ]
        for payload in payloads:
            word = c2s_encode(payload, spec)
            assert word.letters[: spec.m] == payload.letters
            assert c2s_decode(ReceivedRows(word.rows(), 2, spec.n), spec) == payload
            for rows_hit in ((0,), (1,), (2,), (0, 1), (0, 2), (1, 2)):
                for positions in itertools.product(
                    range(spec.n), repeat=len(rows_hit)
                ):
                    received = ReceivedRows(word.rows(), 2, spec.n)
                    for row, pos in zip(rows_hit, positions):
                        received = substituted(
                            received, row, pos, 1 - word.rows()[row][pos]
                        )
                    assert c2s_decode(received, spec) == payload

    def test_syndrome_block_hit_is_tolerated(self):
        spec = C2SSpec(2, 3, 2, 3)
        payload = Word.from_ranks((1, 3, 2), 2, 3)
        word = c2s_encode(payload, spec)
        base = spec.m + 2 * spec.k
        received = substituted(word, 0, 0, 1 - word.rows()[0][0])
        # second substitution lands inside syndrome block 0 on another row
        rows = [list(r) for r in received.rows]
        rows[1][base] = 1 - rows[1][base]
        received = ReceivedRows(tuple(map(tuple, rows)), 2, spec.n)
        assert c2s_decode(received, spec) == payload

    def test_parity_only_hits_leave_payload_alone(self):
        spec = C2SSpec(2, 3, 2, 3)
        payload = Word.from_ranks((0, 2, 1), 2, 3)
        word = c2s_encode(payload, spec)
        rows = [list(r) for r in word.rows()]
        rows[0][spec.m] = 1 - rows[0][spec.m]
        rows[1][spec.n - 1] = 1 - rows[1][spec.n - 1]
        received = ReceivedRows(tuple(map(tuple, rows)), 2, spec.n)
        assert c2s_decode(received, spec) == payload

    def test_minimal_instance_is_a_t_row_code(self):
        spec = C2SSpec(2, 3, 2, 1)
        codebook = [c2s_encode(p, spec) for p in all_words(2, 3, 1)]
        assert len(codebook) == 4
        assert oracle_is_code(codebook, sub_t_rows(2, (1, 1)))

    def test_q3_instance_sampled(self):
        spec = C2SSpec(3, 3, 2, 3)
        assert spec.p == 13
        rng = random.Random(5)
        for payload in sample_payloads(3, 3, 3, 3, seed=11):
            word = c2s_encode(payload, spec)
            for _ in range(150):
                received = ReceivedRows(word.rows(), 3, spec.n)
                for row in rng.sample(range(3), rng.randint(1, 2)):
                    pos = rng.randrange(spec.n)
                    old = received.rows[row][pos]
                    value = rng.choice([v for v in range(3) if v != old])
                    received = substituted(received, row, pos, value)
                assert c2s_decode(received, spec) == payload

    def test_prime_is_searched_once(self, monkeypatch):
        searches = []
        original = codes_substitution.next_prime_bertrand

        def counting(value):
            searches.append(value)
            return original(value)

        monkeypatch.setattr(codes_substitution, "next_prime_bertrand", counting)
        spec = C2SSpec(3, 3, 2, 6)
        (payload,) = sample_payloads(3, 3, 6, 1, seed=23)
        word = c2s_encode(payload, spec)
        received = substituted(substituted(word, 0, 1, (word.rows()[0][1] + 1) % 3),
                               2, 4, (word.rows()[2][4] + 2) % 3)
        assert c2s_decode(received, spec) == payload
        assert len(searches) == 1
        fresh = dataclasses.replace(spec)
        assert spec == fresh and hash(spec) == hash(fresh)

    def test_rejections(self):
        with pytest.raises(ValueError, match="2 <= t <= k"):
            C2SSpec(2, 3, 4, 3)
        spec = C2SSpec(2, 3, 2, 3)
        with pytest.raises(ValueError, match="payload"):
            c2s_encode(Word.from_ranks((0,), 2, 3), spec)


def test_systematic_encoders_transpose_only_their_tail(monkeypatch):
    # the payload's columns are never transposed again: every word the
    # encoders build through Word(q, k, ranks) is at most the tail long
    specs = [(C1SSpec(3, 3, 2000), c1s_encode), (C2SSpec(3, 3, 2, 2000), c2s_encode)]
    payloads = [sample_payloads(spec.q, spec.k, spec.m, 1, seed=3)[0] for spec, _ in specs]
    seen = []
    original = Word.__init__

    def recording(self, q, k, ranks):
        ranks = tuple(ranks)
        seen.append(len(ranks))
        original(self, q, k, ranks)

    monkeypatch.setattr(Word, "__init__", recording)
    for (spec, encode), payload in zip(specs, payloads):
        seen.clear()
        word = encode(payload, spec)
        assert word.ranks()[: spec.m] == payload.ranks() and word.n == spec.n
        assert seen and max(seen) <= spec.n - spec.m
