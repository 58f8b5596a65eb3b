"""Seeded out-of-model differential test of the substitution decoders.

Each input is a doll, lme1, c1s or c2s codeword hit by two to four random
digit substitutions on distinct cells, drawn so that the pattern lies outside
the family's model (doll: one substitution in row 1; lme1, c1s: one
substitution anywhere; c2s: one substitution in each of at most t rows).
Every fifth input is an in-model control instead.  The inputs and the
outcome of each decode (the decoded ranks or the failure message) were
recorded in ``data/substitution_fuzz.json`` before the decoders moved onto
the shared row-repair core; the decoded words must stay the same, and every
failure after the intake must be a DecodeFailure.  The per-family correct /
wrong / failure counts are the miscorrection baseline.
"""

import json
import random
from pathlib import Path

import pytest

from composite_dna.alphabet import Word, alphabet_size
from composite_dna.channel import ReceivedRows
from composite_dna.codes_substitution import (
    C1SSpec,
    C2SSpec,
    DollSpec,
    c1s_decode,
    c1s_encode,
    c2s_decode,
    c2s_encode,
    cecc1_decode,
    cecc1_encode,
    cecc1_message_length,
    dec_doll,
    enc_doll,
)
from composite_dna.vt_core import DecodeFailure

FIXTURE = Path(__file__).with_name("data") / "substitution_fuzz.json"
SEED = 8
PER_FAMILY = 200

PARAMS = {
    "doll": [(2, 2, 6), (2, 3, 5), (3, 2, 4)],
    "lme1": [(2, 7, 0), (3, 9, 4), (2, 12, 5)],
    "c1s": [(3, 3, 8), (3, 2, 5), (4, 2, 6)],
    "c2s": [(2, 3, 2, 3), (3, 3, 2, 4), (2, 4, 3, 4)],
}


def _code(family, params):
    """(code shape (q, n), payload drawer, encoder, decoder of received rows);
    the decoder returns what a correct decode of the drawn payload returns."""
    if family == "doll":
        spec = DollSpec(*params)
        base = alphabet_size(spec.q, spec.k)
        return (
            (spec.q, spec.n),
            lambda rng: tuple(rng.randrange(base) for _ in range(spec.m)),
            lambda message: (enc_doll(message, spec), message),
            lambda received: dec_doll(received, spec),
        )
    if family == "lme1":
        k, n, a = params
        length = cecc1_message_length(k, n)

        def encode(message):
            word = cecc1_encode(message, a, k, n)
            return word, word.ranks()

        return (
            (2, n),
            lambda rng: [rng.randrange(k + 1) for _ in range(length)],
            encode,
            lambda received: cecc1_decode(received, a).ranks(),
        )
    spec, encode, decode = {
        "c1s": (C1SSpec, c1s_encode, c1s_decode),
        "c2s": (C2SSpec, c2s_encode, c2s_decode),
    }[family]
    spec = spec(*params)
    big_q = alphabet_size(spec.q, spec.k)
    return (
        (spec.q, spec.n),
        lambda rng: Word.from_ranks(
            [rng.randrange(big_q) for _ in range(spec.m)], spec.q, spec.k
        ),
        lambda payload: (encode(payload, spec), payload.ranks()),
        lambda received: decode(received, spec).ranks(),
    )


def _in_model(family, params, cells) -> bool:
    rows = [row for row, _ in cells]
    if family == "doll":
        return len(cells) <= 1 and set(rows) <= {0}
    if family == "c2s":
        return len(set(rows)) == len(rows) <= params[2]
    return len(cells) <= 1


def _cells(family, params, word, rng, control):
    """Distinct (row, position) cells to substitute: an in-model pattern for
    a control, otherwise two to four cells outside the model."""
    while True:
        if control and family == "c2s":
            hit = rng.sample(range(word.k), rng.randint(0, params[2]))
            cells = [(row, rng.randrange(word.n)) for row in hit]
        elif control:
            rows = [0] if family == "doll" else range(word.k)
            cells = [(rng.choice(rows), rng.randrange(word.n))] * rng.randint(0, 1)
        else:
            count = rng.randint(2, 4)
            cells = rng.sample([(r, p) for r in range(word.k) for p in range(word.n)], count)
        if _in_model(family, params, cells) == control:
            return cells


def draw_inputs():
    """Seeded (family, params, received rows, expected decode) tuples."""
    rng = random.Random(SEED)
    for family, choices in PARAMS.items():
        for index in range(PER_FAMILY):
            params = rng.choice(choices)
            _, draw, encode, _ = _code(family, params)
            word, sent = encode(draw(rng))
            rows = [list(row) for row in word.rows()]
            for row, pos in _cells(family, params, word, rng, index % 5 == 0):
                rows[row][pos] = rng.choice([v for v in range(word.q) if v != rows[row][pos]])
            yield family, params, ["".join(map(str, row)) for row in rows], list(sent)


def decode_outcome(family, params, rows):
    """(outcome, error): the decoded ranks or the failure message, and the
    exception raised (None on a decode)."""
    (q, n), _, _, decode = _code(family, params)
    received = ReceivedRows([[int(d) for d in row] for row in rows], q, n)
    try:
        return list(decode(received)), None
    except ValueError as exc:
        return str(exc), exc


def record():
    """The fixture's content: every drawn input with its decode outcome.  The
    fixture holds its value at the commit before the shared row-repair core,
    written one entry per line."""
    return [
        [family, list(params), rows, sent, decode_outcome(family, params, rows)[0]]
        for family, params, rows, sent in draw_inputs()
    ]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text())


def test_fixture_holds_the_seeded_draws(recorded):
    drawn = [[f, list(p), rows, sent] for f, p, rows, sent in draw_inputs()]
    assert [entry[:4] for entry in recorded] == drawn


def _reworded(family, rows, before, after) -> bool:
    """dec_doll now counts the invalid columns before it looks below row 1
    of the one it repairs, so a word with two or more invalid columns reads
    "more than one invalid column" where it used to name the first of them
    that was broken below row 1."""
    invalid = sum(
        any(a > b for a, b in zip(col, col[1:])) for col in zip(*rows)
    )
    return (
        family == "doll"
        and invalid > 1
        and before.endswith("is corrupted below row 1; model breach")
        and after == "more than one invalid column; model breach"
    )


def test_outcomes_match_the_recording_and_failures_are_typed(recorded):
    reworded = 0
    for family, params, rows, _sent, before in recorded:
        after, error = decode_outcome(family, tuple(params), rows)
        if error is None or isinstance(before, list):
            assert after == before, (family, params, rows)
            continue
        assert isinstance(error, DecodeFailure), (family, params, rows, after)
        if after != before:
            assert _reworded(family, rows, before, after), (family, rows, after)
            reworded += 1
    assert reworded == 14


BASELINE = {
    ("doll", "control", "correct"): 40,
    ("doll", "corrupted", "correct"): 5,
    ("doll", "corrupted", "wrong"): 38,
    ("doll", "corrupted", "failure"): 117,
    ("lme1", "control", "correct"): 40,
    ("lme1", "corrupted", "wrong"): 47,
    ("lme1", "corrupted", "failure"): 113,
    ("c1s", "control", "correct"): 40,
    ("c1s", "corrupted", "correct"): 9,
    ("c1s", "corrupted", "wrong"): 35,
    ("c1s", "corrupted", "failure"): 116,
    ("c2s", "control", "correct"): 40,
    ("c2s", "corrupted", "correct"): 146,
    ("c2s", "corrupted", "wrong"): 2,
    ("c2s", "corrupted", "failure"): 12,
}


def test_miscorrection_baseline(recorded):
    counts = {}
    for index, (family, _params, _rows, sent, outcome) in enumerate(recorded):
        kind = "failure" if isinstance(outcome, str) else (
            "correct" if outcome == sent else "wrong"
        )
        control = "control" if index % PER_FAMILY % 5 == 0 else "corrupted"
        counts[family, control, kind] = counts.get((family, control, kind), 0) + 1
    assert counts == BASELINE
