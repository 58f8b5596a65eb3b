"""The three benchmark workloads and the checks that judge their outputs.

Every workload is built from an imported ``composite_dna`` package and a seed.
``round(index)`` returns the operations of one round; a round is the same list
of operations in every run, only its seeded inputs change.  An operation is a
callable ``op(timer) -> Sample``.  It passes each library call it wants timed
through ``timer(fn, *args)``, which returns ``(seconds, result)``, and checks
the result against values the benchmark computes itself: drawn payloads,
closed-form case counts and the coding theorems' verdicts.  No stored copy of
an earlier run's output is consulted.

Library names are looked up at call time (``getattr(cd, name)``), so the
wrappers that ``tracing.Tracer`` installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
from dataclasses import dataclass
from math import comb


@dataclass
class Sample:
    """One timed operation: its latency, the library time it spent, the work
    items it completed and whether its output passed the check."""

    op_s: float
    busy_s: float
    items: int
    ok: bool


def round_rng(seed: int, index: int) -> random.Random:
    """Independent, reproducible generator for round ``index`` of a run."""
    return random.Random(seed * 1_000_003 + index)


# ---------------------------------------------------------------------------
# arithmetic the checks recompute apart from the program
# ---------------------------------------------------------------------------

def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def _prime_above(m: int) -> int:
    p = m + 1
    while not _is_prime(p):
        p += 1
    return p


def _prime_at_least(m: int) -> int:
    return m if _is_prime(m) else _prime_above(m)


def _width(base: int, bound: int) -> int:
    """Smallest D with base**D >= bound."""
    width, reach = 0, 1
    while reach < bound:
        reach *= base
        width += 1
    return width


def _letters(q: int, k: int) -> int:
    return comb(k + q - 1, q - 1)


def columns(q: int, k: int) -> list[tuple[int, ...]]:
    """Every nondecreasing digit column of length k over {0..q-1}."""
    return list(itertools.combinations_with_replacement(range(q), k))


def codeword_length(family: str, q: int, k: int, t: int, m: int) -> int:
    """Length n of a codeword of the payload families, from the constructions."""
    if family == "c2d":
        return m + t * (_width(k + 1, _prime_above(m)) + 2)
    if family == "c4d":
        return m + t * (_width(_letters(q, k), _prime_above(q * m)) + 2)
    if family == "c3d":
        return m + 2 + _width(_letters(q, k), q * m)
    if family == "c1s":
        return m + 2 + _width(_letters(q, k), _prime_at_least(m) * _prime_at_least(q))
    if family == "c2s":
        span = 2 * m * (q - 1)
        p = _prime_above(max(span, k))  # f(k, 2) = k; only t = 2 is swept
        return m + 2 * k + t * (_width(_letters(q, k), p) + k)
    raise ValueError(family)


def doll_message_length(k: int, n: int) -> int:
    """m of the binary enumeration code: floor log_Q of its size bound."""
    base = k + 1
    num = (k + 1) ** (n + 1) - (k - 1) ** (n + 1)
    den = 4 * (n + 1)
    m = 0
    while base ** (m + 1) * den <= num:
        m += 1
    return m


def roundtrip_cases(family: str, p: dict) -> int:
    """Closed-form ``cases=`` of ``composite-dna roundtrip`` for one family.

    Deletion sweeps try every way to drop one symbol from each of at most t
    rows; substitution sweeps every way to change one digit in each of at
    most t rows; the message families enumerate every message.
    """
    q, k = p.get("q", 2), p["k"]
    if family in ("c2d", "c3d", "c4d", "c1s", "c2s"):
        t = p.get("t", 1)
        n = codeword_length(family, q, k, t, p["m"])
        per_row = n if family in ("c2d", "c3d", "c4d") else n * (q - 1)
        return p["trials"] * sum(comb(k, s) * per_row**s for s in range(t + 1))
    n = p["n"]
    if family == "c1d":
        return (k + 1) ** (n - _width(k + 1, n + 1)) * k * n
    if family == "lme1":
        return (k + 1) ** (n - _width(k + 1, n) - 1) * (1 + k * n)
    if family == "doll":
        return _letters(2, k) ** doll_message_length(k, n) * n
    raise ValueError(family)


def is_subsequence(sub, sup) -> bool:
    it = iter(sup)
    return all(any(v == w for w in it) for v in sub)


def _rows_of(cols) -> tuple[tuple[int, ...], ...]:
    return tuple(zip(*cols))


def _delete(rows, hits: dict[int, int]):
    return tuple(
        row[: hits[i]] + row[hits[i] + 1 :] if i in hits else row
        for i, row in enumerate(rows)
    )


def _substitute(rows, hits: dict[int, tuple[int, int]]):
    out = [list(row) for row in rows]
    for i, (pos, value) in hits.items():
        out[i][pos] = value
    return tuple(tuple(row) for row in out)


def _cli(cd, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cd.cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# long-rows-deletion
# ---------------------------------------------------------------------------

class LongRowsDeletion:
    """c2d / c4d at long payloads: one deletion in each of t rows, then decode.

    Each family's ladder of payload lengths takes about half of a round's
    decode time, so doubling either family's decode time moves
    ``cases_per_s`` by about a third.  The c4d m = 192 rung is drawn five
    times per round, so the median decode falls inside its cluster of
    times: a slower q-ary row decoder moves ``op_p50_ms``.  The c2d
    m = 1024 point is drawn twice, so the p95 tail falls inside its
    cluster: a slower binary row decoder moves ``op_tail_ms``.
    """

    name = "long-rows-deletion"
    trace_rounds = 3
    C2D = (4, 2)  # (k, t), binary
    C4D = (4, 3, 2)  # (q, k, t)
    C2D_LENGTHS = (192, 256, 288, 320, 352, 448, 512, 1024, 1024)
    C4D_LENGTHS = (96, 128, 160) + (192,) * 5 + (256, 320, 384, 384)

    def __init__(self, cd, seed: int, workdir: str):
        self.cd, self.seed = cd, seed
        k, t = self.C2D
        q4, k4, t4 = self.C4D
        self.cases = []
        for m in self.C2D_LENGTHS:
            self.cases.append(("c2d", 2, k, t, m, cd.C2DSpec(k, t, m)))
        for m in self.C4D_LENGTHS:
            self.cases.append(("c4d", q4, k4, t4, m, cd.C4DSpec(q4, k4, t4, m)))
        self.columns = {(2, k): columns(2, k), (q4, k4): columns(q4, k4)}

    def round(self, index: int):
        rng = round_rng(self.seed, index)
        return [self._op(*case, rng) for case in self.cases]

    def _op(self, family, q, k, t, m, spec, rng):
        rows = _rows_of([rng.choice(self.columns[q, k]) for _ in range(m)])
        n = codeword_length(family, q, k, t, m)
        hits = {i: rng.randrange(n) for i in rng.sample(range(k), t)}
        cd = self.cd

        def op(timer) -> Sample:
            payload = cd.Word.from_rows(rows, q)
            enc_s, word = timer(getattr(cd, family + "_encode"), payload, spec)
            sent = word.rows()
            ok = word.n == n and all(
                sent[i][:m] == rows[i] for i in range(k)
            )
            received = cd.ReceivedRows(_delete(sent, hits), q, n)
            dec_s, decoded = timer(getattr(cd, family + "_decode"), received, spec)
            ok = ok and decoded.rows() == rows
            return Sample(dec_s, enc_s + dec_s, 1, ok)

        return op


# ---------------------------------------------------------------------------
# sweep-short-rows
# ---------------------------------------------------------------------------

class SweepShortRows:
    """``composite-dna roundtrip`` exhaustive sweeps for all eight families.

    Each call is sized to about a tenth of a second here, so a run holds a
    few hundred of them.  c2d runs three times per round (with three seeds),
    so the median call falls inside its cluster of times.
    """

    name = "sweep-short-rows"
    trace_rounds = 6
    FAMILIES = (
        ("c2d", {"k": 3, "t": 2, "m": 4, "trials": 1}),
        ("c2d", {"k": 3, "t": 2, "m": 4, "trials": 1}),
        ("c2d", {"k": 3, "t": 2, "m": 4, "trials": 1}),
        ("c2s", {"q": 3, "k": 2, "t": 2, "m": 3, "trials": 1}),
        ("c4d", {"q": 3, "k": 3, "t": 2, "m": 3, "trials": 1}),
        ("c3d", {"q": 3, "k": 3, "m": 8, "trials": 8}),
        ("c1s", {"q": 3, "k": 2, "m": 5, "trials": 24}),
        ("c1d", {"k": 2, "n": 6, "a": 0}),
        ("lme1", {"k": 2, "n": 7, "a": 0}),
        ("doll", {"k": 3, "n": 6}),
    )

    def __init__(self, cd, seed: int, workdir: str):
        self.cd, self.seed = cd, seed
        self.expected = {fam: roundtrip_cases(fam, p) for fam, p in self.FAMILIES}
        self.checkers = {fam: self._library_case(fam, p) for fam, p in self.FAMILIES}

    def round(self, index: int):
        rng = round_rng(self.seed, index)
        return [self._op(fam, params, rng) for fam, params in self.FAMILIES]

    def _op(self, family, params, rng):
        argv = ["roundtrip", "--family", family]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        argv += ["--seed", str(rng.randrange(2**31))]
        case_seed = rng.randrange(2**31)

        def op(timer) -> Sample:
            secs, (code, text) = timer(_cli, self.cd, argv)
            lines = text.splitlines()
            ok = (
                code == 0
                and lines[:3]
                == [
                    f"family={family}",
                    f"cases={self.expected[family]} failures=0",
                    "PASS",
                ]
                and self.checkers[family](random.Random(case_seed))
            )
            return Sample(secs, secs, self.expected[family], ok)

        return op

    def _library_case(self, family, p):
        """A checker that encodes one drawn message, corrupts it within the
        family's model and decodes it through the library."""
        cd = self.cd
        q, k = p.get("q", 2), p["k"]

        if family in ("c1d", "lme1", "doll"):
            n = p["n"]
            if family == "c1d":
                length = n - _width(k + 1, n + 1)
            elif family == "lme1":
                length = n - _width(k + 1, n) - 1
            else:
                length = doll_message_length(k, n)
                spec = cd.DollSpec(2, k, n)

            def check(rng):
                if family == "doll":
                    msg = tuple(rng.randrange(_letters(2, k)) for _ in range(length))
                    rows = cd.enc_doll(msg, spec).rows()
                    pos = rng.randrange(n)
                    got = _substitute(rows, {0: (pos, 1 - rows[0][pos])})
                    return cd.dec_doll(cd.ReceivedRows(got, 2, n), spec) == msg
                msg = tuple(rng.randrange(k + 1) for _ in range(length))
                if family == "c1d":
                    rows = cd.c1d_encode(msg, p["a"], k, n).rows()
                    got = _delete(rows, {rng.randrange(k): rng.randrange(n)})
                    word = cd.c1d_decode(cd.ReceivedRows(got, 2, n), p["a"])
                    return cd.c1d_message(word) == msg
                rows = cd.cecc1_encode(msg, p["a"], k, n).rows()
                i, pos = rng.randrange(k), rng.randrange(n)
                got = _substitute(rows, {i: (pos, 1 - rows[i][pos])})
                word = cd.cecc1_decode(cd.ReceivedRows(got, 2, n), p["a"])
                return cd.cecc1_message(word) == msg

            return check

        m, t = p["m"], p.get("t", 1)
        spec = {
            "c2d": lambda: cd.C2DSpec(k, t, m),
            "c3d": lambda: cd.C3DSpec(q, k, m),
            "c4d": lambda: cd.C4DSpec(q, k, t, m),
            "c1s": lambda: cd.C1SSpec(q, k, m),
            "c2s": lambda: cd.C2SSpec(q, k, t, m),
        }[family]()
        n = codeword_length(family, q, k, t, m)
        cols = columns(q, k)

        def check(rng):
            rows = _rows_of([rng.choice(cols) for _ in range(m)])
            sent = getattr(cd, family + "_encode")(cd.Word.from_rows(rows, q), spec).rows()
            hit = rng.sample(range(k), t)
            if family in ("c2d", "c3d", "c4d"):
                got = _delete(sent, {i: rng.randrange(n) for i in hit})
            else:
                hits = {}
                for i in hit:
                    pos = rng.randrange(n)
                    hits[i] = (pos, (sent[i][pos] + 1 + rng.randrange(q - 1)) % q)
                got = _substitute(sent, hits)
            received = cd.ReceivedRows(got, q, n)
            decoded = getattr(cd, family + "_decode")(received, spec)
            return len(sent[0]) == n and decoded.rows() == rows

        return check


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Codebook:
    argv: tuple[str, ...]
    rows: frozenset  # each codeword as its tuple of digit rows
    expected: bool
    deletions: int  # e of the del-total model a false verdict is checked under


class OracleVerify:
    """``composite-dna verify-code`` over codebook files written at set-up.

    Each kind has several files sampled from its code, so successive rounds
    verify different codebooks; the negative control is the whole c1d code
    under two deletions, which is not a code for that model.  A round
    verifies three lme1 files, so the median call falls inside their
    cluster of times.
    """

    name = "oracle-verify"
    trace_rounds = 8
    VARIANTS = 4  # sampled files per kind
    # codewords per file: c1d (k=2, n=8) has 729, lme1 (k=2, n=8) 243 and
    # doll (k=3, n=8) 1024; c2d (k=3, t=2, m=8) and c2s (q=2, k=3, t=2, m=3)
    # are sampled from seeded payloads
    SIZES = {"c1d": 360, "lme1": 243, "doll": 160, "c2d": 12, "c2s": 4}

    def __init__(self, cd, seed: int, workdir: str):
        self.cd = cd
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(seed)
        c1d = [
            cd.c1d_encode(msg, 0, 2, 8)
            for msg in itertools.product(range(3), repeat=8 - _width(3, 9))
        ]
        lme1 = [
            cd.cecc1_encode(msg, 0, 2, 8)
            for msg in itertools.product(range(3), repeat=8 - _width(3, 8) - 1)
        ]
        self._check_members(c1d, lme1)
        doll_spec = cd.DollSpec(2, 3, 8)
        doll_msgs = list(itertools.product(range(4), repeat=doll_message_length(3, 8)))
        size = self.SIZES
        self.kinds = []
        for v in range(self.VARIANTS):
            doll = [cd.enc_doll(msg, doll_spec) for msg in rng.sample(doll_msgs, size["doll"])]
            c2d = self._sampled(rng, "c2d", cd.C2DSpec(3, 2, 8), 2, 3, 8, size["c2d"])
            c2s = self._sampled(rng, "c2s", cd.C2SSpec(2, 3, 2, 3), 2, 3, 3, size["c2s"])
            self.kinds.append([
                self._write(f"c1d-{v}", rng.sample(c1d, size["c1d"]), "del-total", "1", True),
                self._write(f"lme1-{v}", rng.sample(lme1, size["lme1"]), "sub-total", "1", True),
                self._write(f"doll-{v}", doll, "sub-per-row", "1,0,0", True),
                self._write(f"c2d-{v}", c2d, "del-t-rows", "1,1", True, t=2),
                self._write(f"c2s-{v}", c2s, "sub-t-rows", "1,1", True, t=2),
            ])
        negative_code = [
            cd.c1d_encode(msg, 0, 2, 7)
            for msg in itertools.product(range(3), repeat=7 - _width(3, 8))
        ]
        self.negative = self._write("c1d-del2", negative_code, "del-total", "2", False)

    def _check_members(self, c1d, lme1):
        """Codebooks satisfy their defining congruences (rank = ones count)."""
        for words, modulus in ((c1d, 9), (lme1, 17)):
            for word in words:
                ranks = [sum(col) for col in zip(*word.rows())]
                if sum((j + 1) * r for j, r in enumerate(ranks)) % modulus:
                    raise RuntimeError("encoder produced a word outside its code")

    def _sampled(self, rng, family, spec, q, k, m, count):
        """``count`` codewords of distinct seeded payloads."""
        cols = columns(q, k)
        encode = getattr(self.cd, family + "_encode")
        words = {}
        while len(words) < count:
            rows = _rows_of([rng.choice(cols) for _ in range(m)])
            word = encode(self.cd.Word.from_rows(rows, q), spec)
            if any(row[:m] != payload for row, payload in zip(word.rows(), rows)):
                raise RuntimeError("systematic encoder moved the payload")
            words[rows] = word
        return list(words.values())

    def _write(self, name, words, model, e, expected, t=None):
        path = os.path.join(self.workdir, name + ".txt")
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(self.cd.word_to_text(w) for w in words))
        argv = ["verify-code", "--model", model, "--e", e, "--in", path]
        if t is not None:
            argv += ["--t", str(t)]
        rows = frozenset(w.rows() for w in words)
        return Codebook(tuple(argv), rows, expected, int(e) if model == "del-total" else 0)

    def round(self, index: int):
        c1d, lme1, doll, c2d, c2s = self.kinds[index % self.VARIANTS]
        more_lme1 = [self.kinds[(index + j) % self.VARIANTS][1] for j in (1, 2)]
        books = [c1d, lme1, *more_lme1, doll, c2d, c2s, self.negative]
        return [self._op(book) for book in books]

    def _op(self, book: Codebook):
        def op(timer) -> Sample:
            secs, (code, text) = timer(_cli, self.cd, list(book.argv))
            verdict = "verdict: true" if book.expected else "verdict: false"
            lines = text.splitlines()
            ok = code == 0 and lines[:1] == [verdict]
            if ok and not book.expected:
                ok = witness_holds(lines, book)
            return Sample(secs, secs, len(book.rows), ok)

        return op


def witness_holds(lines, book: Codebook) -> bool:
    """A false verdict's witness: two distinct codewords of the book and one
    output reachable from both by exactly ``book.deletions`` deletions."""

    def block(title):
        start = lines.index(title) + 2  # skip the 'q k n' header
        end = start
        while end < len(lines) and lines[end][:1].isdigit():
            end += 1
        return tuple(tuple(int(ch) for ch in row) for row in lines[start:end])

    try:
        first = block("witness codeword A:")
        second = block("witness codeword B:")
        start = lines.index("shared received:") + 1
        _, k, n = (int(v) for v in lines[start].split())
        shared = tuple(tuple(int(ch) for ch in row) for row in lines[start + 1 : start + 1 + k])
        shared += ((),) * (k - len(shared))
    except ValueError:
        return False
    if first == second or first not in book.rows or second not in book.rows:
        return False
    if sum(n - len(row) for row in shared) != book.deletions:
        return False
    return all(
        all(is_subsequence(got, sent) for got, sent in zip(shared, word))
        for word in (first, second)
    )


WORKLOADS = {w.name: w for w in (LongRowsDeletion, SweepShortRows, OracleVerify)}
