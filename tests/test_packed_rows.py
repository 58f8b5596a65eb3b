"""The packed row representation: Word and ReceivedRows keep their digit
rows as bytes, and the library reads only those.

Each fast path is checked against the plain int-tuple way it replaced: the
byte-table constructors against a transposition of the rank table's letters,
the row kernels, which read bytes only, against an enumeration of int-tuple
insertions and the telescoped VT(psi) formula on int tuples, and the ball
oracle against a reference that hashes the int-tuple outputs.  The guard
tests make the int-tuple views raise and run whole encodes, decodes and CLI
verbs, so a conversion back to them inside the library fails here.
"""

import random
from itertools import product

import pytest

from composite_dna import cli
from composite_dna.alphabet import (
    Word,
    all_letters,
    alphabet_size,
    column_rank,
    letter_is_valid,
    rows_to_text,
    word_from_text,
    word_to_text,
)
from composite_dna.channel import (
    ReceivedRows,
    del_per_row,
    del_t_rows,
    del_total,
    hamming_sphere,
    oracle_is_code,
    outputs,
    packed_outputs,
    sub_per_row,
    sub_total,
)
from composite_dna.codes_deletion import (
    C2DSpec,
    C4DSpec,
    _is_subsequence,
    c1d_encode,
    c1d_message_length,
    c2d_decode,
    c2d_encode,
    c4d_decode,
    c4d_encode,
)
from composite_dna.vt_core import (
    _WIDE,
    DecodeFailure,
    psi,
    qary_decode_one_deletion,
    qary_vt_syndrome,
    vt_decode_one_deletion,
    vt_syndrome,
)

# (q, k) beyond the byte tables: q^k > 256 sends rows -> ranks through the
# rank dict, and Q > 256 (q = 10, k = 4: Q = 715) ranks -> rows through a
# transposition; q^k = 256 is the last shape the key table takes
FALLBACK_SHAPES = [(2, 9), (3, 6), (4, 5), (10, 3), (10, 4)]
EDGE_SHAPES = [(2, 8), (4, 4), (16, 2)]
SHAPES = [(q, k) for q in (2, 3, 4) for k in (2, 3, 4)] + EDGE_SHAPES + FALLBACK_SHAPES


def transposed(ranks, q, k):
    """The int-tuple rows of the word with these ranks, the old way: one
    transposition of the letters' digit columns."""
    letters = all_letters(q, k)
    return tuple(zip(*[letters[r].digits for r in ranks]))


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("q,k", SHAPES)
def test_packed_constructors_match_the_transposition(q, k):
    rng = random.Random(1000 * q + k)
    size = alphabet_size(q, k)
    for n in (1, 2, 5, rng.randint(6, 80)):
        ranks = [rng.randrange(size) for _ in range(n)]
        rows = transposed(ranks, q, k)
        want = Word(q, k, ranks)
        assert want.rows() == rows and want.ranks() == tuple(ranks)
        assert want.packed == tuple(map(bytes, rows))
        assert all(type(row) is bytes for row in want.packed)
        for given in (rows, want.packed, [list(row) for row in rows]):
            got = Word.from_rows(given, q)
            assert got == want and got.packed == want.packed
            assert type(got.ranks()) is tuple and all(type(r) is int for r in got.ranks())
        cut = rng.randrange(1, n) if n > 1 else 1
        head, tail = Word(q, k, ranks[:cut]), Word(q, k, ranks[cut:] or ranks)
        joined = head + tail
        assert joined.rows() == tuple(a + b for a, b in zip(head.rows(), tail.rows()))
        assert joined == Word(q, k, list(head.ranks()) + list(tail.ranks()))


@pytest.mark.parametrize("q,k", SHAPES)
def test_packed_rows_that_are_no_word_fail_as_int_rows_do(q, k):
    rng = random.Random(7 * q + k)
    size = alphabet_size(q, k)
    for _ in range(6):
        n = rng.randint(2, 12)
        rows = [list(row) for row in transposed([rng.randrange(size) for _ in range(n)], q, k)]
        i, j = rng.randrange(k), rng.randrange(n)
        rows[i][j] = rng.choice([q, q + 1, (rows[i][j] + 1) % q])  # out of Sigma_q or unordered
        as_tuples = outcome(Word.from_rows, [tuple(row) for row in rows], q)
        assert outcome(Word.from_rows, [bytes(row) for row in rows], q) == as_tuples


def reference_word(rows, q):
    """The outcome of a word built from these rows the plain way: each
    column ranked alone, or the error naming the first that is no letter."""
    columns = list(zip(*rows))
    for j, column in enumerate(columns):
        if not letter_is_valid(column, q):
            return ValueError, f"column {j} is not nondecreasing over Sigma_{q}: {column}"
    return "ok", tuple(column_rank(column, q) for column in columns)


def step_outcome(build, rows, q):
    """build(rows, q) as ("ok", ranks, packed rows) or the error's type and text."""
    result = outcome(build, rows, q)
    return result if result[0] != "ok" else ("ok", result[1].ranks(), result[1].packed)


def step_row_sets(q, k, rng):
    """Packed row sets of n = 1..4 columns: over Sigma_q, and over Sigma_q
    with q and 255, so with bytes that are no digit.  Every set while there
    are at most 7000 of them, else 2000 seeded ones."""
    for n in range(1, 5):
        for digits in (range(q), (*range(q + 1), 255)):
            columns = list(product(digits, repeat=k))
            if len(columns) ** n <= 7000:
                sets = product(columns, repeat=n)
            else:
                sets = ([rng.choice(columns) for _ in range(n)] for _ in range(2000))
            yield from (tuple(map(bytes, zip(*chosen))) for chosen in sets)


def seeded_row_sets(q, k, rng):
    """Rows of random words of n = 1..40 columns, as they are and with one
    digit set to another digit, to q or to 255."""
    size = alphabet_size(q, k)
    for _ in range(300):
        n = rng.randint(1, 40)
        rows = [list(row) for row in transposed([rng.randrange(size) for _ in range(n)], q, k)]
        yield tuple(map(bytes, rows))
        rows[rng.randrange(k)][rng.randrange(n)] = rng.choice([rng.randrange(q), q, 255])
        yield tuple(map(bytes, rows))


@pytest.mark.parametrize(
    "q,k,row_sets",
    [(2, 2, step_row_sets), (2, 3, step_row_sets), (3, 2, step_row_sets),
     (4, 3, step_row_sets), (2, 9, seeded_row_sets), (3, 6, seeded_row_sets)],
)
def test_word_of_rows_matches_from_rows(q, k, row_sets):
    """Word._of_rows, the step that builds a word from packed rows the
    library holds, gives what Word.from_rows gives on the same rows, and
    what ranking each column alone gives: the word, keeping the very rows
    it was given, or the same error.  A byte >= q is refused although at
    (2, 2) the column (2, 0) has the key of the letter (0, 1); at (2, 9) and
    (3, 6) q^k > 256, so the columns are ranked by column_ranks."""
    rng = random.Random(f"of_rows {q} {k}")
    for rows in row_sets(q, k, rng):
        got = step_outcome(Word._of_rows, rows, q)
        assert got == step_outcome(Word.from_rows, rows, q), rows
        want = reference_word(rows, q)
        assert got[:2] == want, rows
        if got[0] == "ok":
            assert all(a is b for a, b in zip(got[2], rows))


def test_q_above_256_is_refused():
    with pytest.raises(ValueError, match="must be <= 256"):
        Word(257, 2, [0])
    with pytest.raises(ValueError, match="must be <= 256"):
        hamming_sphere((0, 1), 1, 257)


def random_rows(rng, q, length):
    return tuple(rng.randrange(q) for _ in range(length))


def run_rows(rng, q, length):
    """A row of runs of equal digits, each up to 40 long."""
    row = []
    while len(row) < length:
        row += [rng.randrange(q)] * rng.randint(1, 40)
    return tuple(row[:length])


def tuple_decode(y, q, n, syndrome):
    """The outcome that the row decoders give for the int-tuple row y of
    length n - 1, the int-tuple way: every distinct insertion of a digit of
    Sigma_q, and the one whose syndrome(row) is true, or the failure."""
    if len(y) != n - 1:
        return ValueError, f"received length {len(y)}, expected {n - 1}"
    if not set(y) <= set(range(q)):
        return ValueError, f"received row is not over Sigma_{q}"
    found = {y[:p] + (s,) + y[p:] for p in range(n) for s in range(q)}
    found = [row for row in found if syndrome(row)]
    if len(found) != 1:
        return DecodeFailure, f"expected exactly one candidate, found {len(found)}"
    return "ok", bytes(found[0])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 40, 257])
def test_binary_row_decoder_gives_the_same_on_bytes_and_tuples(n):
    # the decoder on bytes rows gives the row that the int-tuple
    # enumeration gives, or its failure, and refuses the tuple row itself
    rng = random.Random(n)
    for _ in range(60):
        x = random_rows(rng, 2, n)
        modulus = n + 1 + rng.randrange(3)
        a = vt_syndrome(x) % modulus if rng.random() < 0.7 else rng.randrange(modulus + 3)
        p = rng.randrange(n)
        y = x[:p] + x[p + 1:]
        if rng.random() < 0.1:
            y = y[:-1] + (2,) if y else (2,)  # a digit outside Sigma_2
        small = modulus if rng.random() < 0.9 else n  # n: too small a modulus
        if small <= len(y) + 1:
            want = ValueError, f"modulus {small} too small for length {len(y) + 1}"
        else:
            want = tuple_decode(
                y, 2, len(y) + 1, lambda row: vt_syndrome(row) % small == a % small
            )
        assert outcome(vt_decode_one_deletion, bytes(y), a, small) == want
        assert outcome(vt_decode_one_deletion, y, a, small) == (
            ValueError, "the row kernels read packed rows (bytes), not tuple"
        )


@pytest.mark.parametrize("q,n", [(2, 5), (3, 1), (3, 7), (4, 50), (5, 193)])
def test_qary_row_decoder_gives_the_same_on_bytes_and_tuples(q, n):
    # the same for VT(psi) rows, whose syndrome the enumeration takes as
    # vt_syndrome(psi(row)) of the int tuple
    rng = random.Random(q * n)
    for _ in range(60):
        x = random_rows(rng, q, n)
        a = vt_syndrome(psi(x, q)) if rng.random() < 0.7 else rng.randrange(-5, 3 * q * n)
        p = rng.randrange(n)
        y = x[:p] + x[p + 1:]
        if rng.random() < 0.1:
            y = y + (0,)  # the wrong length
        elif rng.random() < 0.1 and y:
            y = (q,) + y[1:]  # a digit outside Sigma_q
        want = tuple_decode(
            y, q, n, lambda row: (vt_syndrome(psi(row, q)) - a) % (q * n) == 0
        )
        assert outcome(qary_decode_one_deletion, bytes(y), a, q, n) == want
        assert outcome(qary_decode_one_deletion, y, a, q, n) == (
            ValueError, "the row kernels read packed rows (bytes), not tuple"
        )


def telescoped(x, q):
    """VT(psi(x)) mod qn of an int tuple, telescoped: Sum(x) plus q times
    the sum of the 1-based ascent positions i, x_i < x_{i+1}; defined for
    any digits, not only those of Sigma_q."""
    n = len(x)
    return (sum(x) + q * sum(i for i in range(1, n) if x[i - 1] < x[i])) % (q * n)


def test_syndromes_and_the_supersequence_check_read_bytes_as_tuples():
    # bytes rows from _WIDE symbols on take the syndromes from bit planes,
    # shorter ones and tuples never do: both sides of the split, up to
    # digit 255, and rows of one digit, of alternating extremes, of long
    # runs, and of any byte, so with digits >= q, which must give the
    # int-tuple formulas' values too
    rng = random.Random(5)
    for q in (2, 3, 4, 5, 10, 256):
        for n in (1, 2, 9, 100, _WIDE - 1, _WIDE, _WIDE + 1, 1030):
            for x in (
                random_rows(rng, q, n),
                (q - 1,) * n,
                tuple((0, q - 1)[i % 2] for i in range(n)),
                random_rows(rng, 256, n),
                run_rows(rng, q, n),
            ):
                assert vt_syndrome(bytes(x)) == vt_syndrome(x)
                assert qary_vt_syndrome(bytes(x), q) == telescoped(x, q)
            p = rng.randrange(n)
            for sub in (x[:p] + x[p + 1:], random_rows(rng, q, n - 1), x):
                assert _is_subsequence(bytes(sub), bytes(x)) == _is_subsequence(sub, x)


def test_received_rows_pack_bytes_and_tuples_alike():
    for rows, q, n in [(((0, 1), (1,)), 2, 2), (((), (0, 2, 1)), 3, 3), (((3, 3), (0,)), 4, 2)]:
        packed = tuple(map(bytes, rows))
        a, b = ReceivedRows(rows, q, n), ReceivedRows(packed, q, n)
        assert a == b and hash(a) == hash(b) and a.packed == packed
        assert a.rows == b.rows == rows and a.k == len(rows)
        assert repr(a) == f"ReceivedRows(rows={rows!r}, q={q!r}, n={n!r})"
    for rows, q, n, message in [
        (((0, 2), (0, 1)), 2, 2, "row digits must lie in Sigma_2"),
        (((0, 1, 1), (0,)), 2, 2, "row longer than the nominal length"),
        (((0, 1),), 2, 2, "need k >= 2 rows"),
    ]:
        for given in (rows, tuple(map(bytes, rows))):
            with pytest.raises(ValueError) as info:
                ReceivedRows(given, q, n)
            assert str(info.value) == message


def test_outputs_are_the_int_view_of_packed_outputs():
    rng = random.Random(11)
    models = [sub_per_row(1, 0, 1), sub_total(2), del_per_row(1, 0, 2), del_total(2)]
    for q, model in product((2, 3), models):
        word = Word(q, 3, [rng.randrange(alphabet_size(q, 3)) for _ in range(4)])
        packed = list(packed_outputs(word, model))
        assert all(type(row) is bytes for _, rows, _ in packed for row in rows)
        assert list(outputs(word, model)) == [
            (errors, tuple(map(tuple, rows)), count) for errors, rows, count in packed
        ]


def reference_oracle(book, model):
    """The ball oracle's verdict and witness from int-tuple outputs: the
    smallest (owner ranks, ranks, rows) over every shared output."""
    owners, best = {}, None
    for w in sorted(set(book), key=Word.ranks):
        for _, rows, _ in outputs(w, model):
            first = owners.setdefault((w.q, w.n, rows), w)
            if first is not w:
                key = (first.ranks(), w.ranks(), rows)
                if best is None or key < best[0]:
                    best = (key, first, w)
    if best is None:
        return True, None
    (_, _, rows), a, b = best
    return False, (a, b, ReceivedRows(rows, b.q, b.n))


def c1d_code(n):
    return [c1d_encode(m, 0, 2, n) for m in product(range(3), repeat=c1d_message_length(2, n))]


def test_ball_oracle_verdicts_and_witnesses_match_int_tuple_hashing():
    rng = random.Random(3)
    books = [
        (c1d_code(6), del_total(1)),
        (c1d_code(6), del_total(2)),
        (rng.sample(c1d_code(7), 40), del_per_row(1, 1)),
        ([Word(3, 2, [rng.randrange(6) for _ in range(3)]) for _ in range(30)], sub_total(1)),
        ([Word(2, 3, [rng.randrange(4) for _ in range(3)]) for _ in range(12)],
         sub_per_row(1, 0, 1)),
    ]
    verdicts = set()
    for book, model in books:
        got = oracle_is_code(book, model)
        assert (got.is_code, got.witness) == reference_oracle(book, model)
        verdicts.add(got.is_code)
    assert verdicts == {True, False}


def test_text_is_written_and_read_from_packed_rows():
    rng = random.Random(2)
    for q in (2, 3, 10):
        w = Word(q, 3, [rng.randrange(alphabet_size(q, 3)) for _ in range(9)])
        text = word_to_text(w)
        assert text.splitlines()[1:] == ["".join(map(str, row)) for row in w.rows()]
        assert rows_to_text(q, w.n, w.rows()) == text
        again = word_from_text(text)
        assert again == w and again.packed == w.packed


# ---------------------------------------------------------------------------
# guard: the library reads the packed rows, never the int-tuple views
# ---------------------------------------------------------------------------

def forbid_int_views(monkeypatch):
    def refuse(*_):
        raise AssertionError("an int-tuple row view was read")

    monkeypatch.setattr(Word, "rows", refuse)
    monkeypatch.setattr(ReceivedRows, "rows", property(refuse))


@pytest.mark.parametrize(
    "spec, encode, decode",
    [
        (C2DSpec(4, 2, 1024), c2d_encode, c2d_decode),
        (C4DSpec(4, 3, 2, 192), c4d_encode, c4d_decode),
    ],
)
def test_long_row_codecs_read_only_packed_rows(monkeypatch, spec, encode, decode):
    rng = random.Random(spec.m)
    size = alphabet_size(spec.q, spec.k)
    cases = []
    for _ in range(4):
        payload = Word(spec.q, spec.k, [rng.randrange(size) for _ in range(spec.m)])
        sent = encode(payload, spec).rows()
        hit = rng.sample(range(spec.k), spec.t)
        got = [row[:p] + row[p + 1:] if i in hit else row
               for i, row in enumerate(sent) for p in (rng.randrange(spec.n),)]
        cases.append((payload, ReceivedRows(got, spec.q, spec.n)))
    forbid_int_views(monkeypatch)
    for payload, received in cases:
        assert encode(payload, spec).packed[0][: spec.m] == payload.packed[0]
        assert decode(received, spec) == payload


def test_cli_verbs_read_only_packed_rows(monkeypatch, tmp_path, capsys):
    book = tmp_path / "book.txt"
    book.write_text("\n".join(word_to_text(w) for w in c1d_code(7)), encoding="ascii")
    forbid_int_views(monkeypatch)
    for argv, verdict in [
        (["--model", "del-total", "--e", "2"], "verdict: false"),
        (["--model", "del-t-rows", "--t", "1", "--e", "1"], "verdict: true"),
    ]:
        assert cli.main(["verify-code", "--in", str(book), *argv]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == verdict
    argv = ["roundtrip", "--family", "c4d", "--q", "3", "--k", "3", "--t", "2", "--m", "3"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[2] == "PASS"
