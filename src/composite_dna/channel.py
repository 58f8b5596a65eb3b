"""The k-resolution composite channel: error models, corruption, and oracles.

A word is transmitted as k parallel digit rows.  Six adversarial error models
are supported:

* ``sub-per-row``  — up to e_i substitutions in row i,
* ``sub-total``    — up to e substitutions anywhere,
* ``sub-t-rows``   — up to t rows affected, row given budget e_i takes at most
  e_i substitutions (budgets are assigned to affected rows in every order),
* ``del-per-row``  — exactly e_i deletions in row i,
* ``del-total``    — exactly e deletions anywhere,
* ``del-t-rows``   — up to t rows affected, an affected row with budget e_i
  loses exactly e_i symbols.

An ErrorModel is a kind and its budget vector, as the paper names each
model: (e,) for a total kind, (e_1, ..., e_k) for a per-row kind and
(e_1, ..., e_t) for a t-rows kind, whose t is the vector's length.  Each
kind's constructor takes the vector's entries, so sub_t_rows(1, 1) is the
sub-t-rows model with t = 2.

Each model is one rule on the per-row error counts (c_1, ..., c_k), where c_i
is the number of edits or deletions in row i (_counts_fit).  Plan validation
checks a plan's counts against that rule.  One enumerator, outputs(word,
model), yields (errors, received, count) once for each distinct raw output;
packed_outputs yields the same with the rows packed as bytes, which is how
the sweep builds them: from the word's packed rows (alphabet.Word.packed),
where a deletion or a substitution is a C-level slice and concatenation.
The fitting count vectors come by number of affected rows, then row subset in
combinations order, then counts; each gives the product of its affected rows'
outputs at exactly c_i errors (_row_levels), every row's in the order of
their first error patterns, cells by position and value.  count is the
number of error patterns that give the output and errors the first of them,
as (row, cell) pairs.  Distinct count vectors give disjoint outputs, so each
output is built once.  _raw_rows is the same sweep without errors and
counts, packed rows only, over each row's bare outputs (_row_balls: the
outputs of _row_levels in the same order, with no cells or counts);
raw_received_set is its set, hamming_sphere and deletion_ball are set
views of one row's bare outputs, and valid_sub_ball(word, model) keeps the
outputs of a sub-per-row or sub-total model whose columns are all letters.

A channel output is a ReceivedRows: k >= 2 rows over Sigma_q of lengths
0..n, n >= 1.  alphabet owns that row format: ReceivedRows packs and
checks its rows with alphabet.pack_rows, the rule Word.from_rows packs
with, hamming_sphere and deletion_ball pack their row with it too, and the
text form is alphabet.rows_to_text / rows_from_text, whose header and digit
lines the word reader parses with the same code.

The decodability oracle works on RAW outputs: a received matrix is just k
digit rows (possibly of unequal lengths) with no column-monotonicity
requirement, because a decoder must handle every channel output.  The
column-valid substitution balls from the bound analysis are provided
separately (valid_sub_ball).  For the per-row and total kinds it hashes
the packed rows of every codeword's outputs once (_raw_rows), M·|ball|
tuples of bytes in one table per (q, k, n), and builds a ReceivedRows for
the witness alone; bytes order as the int tuples do, so the witness is the
same.  What depends on the model and the shape alone (the count vectors,
each row's largest count, the kind) it reads once per (q, k, n), in that
shape's sweep (_row_sweep).  Each sweep keeps, for that call only, each
distinct (row, count)'s bare outputs at every error level, so a
row that many codewords share has its outputs built (_row_balls) once; a
binary row of length 8 has at most 256 values, however large the codebook.
The loop over codewords is flat: a codeword's outputs are one
itertools.chain of one itertools.product per count vector, and each output
costs one dict.setdefault, so the rest of the Python work per codeword is
per row and per vector, not per output.  For the t-rows kinds, whose balls
grow as Σ_{s≤t} C(k,s)·n^s, it tests the M²/2 pairs instead: two words
collide iff count vectors that fit the model cover their per-row
distances.  Under deletions one vector c must have c_i >= n - LCS_i on
every row (both words reach an output through the same c, since its row
lengths fix c); under substitutions two vectors a and b must have
a_i + b_i >= d_i, the rows' Hamming distances.  Only a colliding pair's
balls are built, for the witness.

Random corruption uses a splitmix64 generator (documented in SplitMix64) so
that the same seed reproduces the same plan in any implementation.
random_errors makes every draw in one loop, one draw over the k x n grid
for the total kinds and one per hit row for the others; a draw picks its
cells, then their substituted values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, product
from operator import itemgetter

from .algebra import are_digits
from .alphabet import SYMBOL_ROWS, Word, column_ranks, pack_rows, rows_from_text, rows_to_text

_SUB_KINDS = ("sub-per-row", "sub-total", "sub-t-rows")
# the six kinds, substitution first: also the order of the CLI's --model choices
MODEL_KINDS = _SUB_KINDS + ("del-per-row", "del-total", "del-t-rows")


@dataclass(frozen=True)
class ErrorModel:
    """One of the six channel error models (see module docstring): its kind
    and its budget vector.  A total kind holds its one budget e as (e,), a
    per-row kind e_1, ..., e_k, and a t-rows kind its t budgets, so t is
    len(budgets): sub_t_rows and del_t_rows take the budgets alone, as
    sub_per_row and del_per_row do."""

    kind: str
    budgets: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown error model kind {self.kind!r}")
        object.__setattr__(self, "budgets", tuple(self.budgets))
        if any(b < 0 for b in self.budgets):
            raise ValueError("budgets must be nonnegative")
        if self.kind.endswith("-total") and len(self.budgets) != 1:
            raise ValueError(f"{self.kind} models need exactly one budget")
        if self.kind.endswith("-per-row") and not self.budgets:
            raise ValueError("per-row models need a budget per row")

    @property
    def is_substitution(self) -> bool:
        return self.kind in _SUB_KINDS


def sub_per_row(*budgets: int) -> ErrorModel:
    return ErrorModel("sub-per-row", budgets)


def sub_total(e: int) -> ErrorModel:
    return ErrorModel("sub-total", (e,))


def sub_t_rows(*budgets: int) -> ErrorModel:
    return ErrorModel("sub-t-rows", budgets)


def del_per_row(*budgets: int) -> ErrorModel:
    return ErrorModel("del-per-row", budgets)


def del_total(e: int) -> ErrorModel:
    return ErrorModel("del-total", (e,))


def del_t_rows(*budgets: int) -> ErrorModel:
    return ErrorModel("del-t-rows", budgets)


def _counts_fit(counts, model: ErrorModel) -> bool:
    """Whether per-row error counts (c_1, ..., c_k) lie in the model.

    A t-rows model takes at most t affected rows, each matched to a budget of
    its own: substitution counts fit when the sorted counts lie under the
    sorted budgets, deletion counts when they are a sub-multiset of them.
    """
    kind = model.kind
    if kind == "sub-per-row":
        return all(c <= e for c, e in zip(counts, model.budgets))
    if kind == "del-per-row":
        return tuple(counts) == model.budgets
    if kind == "sub-total":
        return sum(counts) <= model.budgets[0]
    if kind == "del-total":
        return sum(counts) == model.budgets[0]
    affected = sorted((c for c in counts if c > 0), reverse=True)
    if len(affected) > len(model.budgets):
        return False
    if kind == "sub-t-rows":
        return all(c <= e for c, e in zip(affected, sorted(model.budgets, reverse=True)))
    return not Counter(affected) - Counter(model.budgets)


def _check_model_fits(model: ErrorModel, k: int):
    if model.kind.endswith("-per-row") and len(model.budgets) != k:
        raise ValueError(f"model has {len(model.budgets)} row budgets but word has {k} rows")
    if model.kind.endswith("-t-rows") and len(model.budgets) > k:
        raise ValueError(f"t={len(model.budgets)} exceeds the number of rows k={k}")


@dataclass(frozen=True, repr=False)
class ReceivedRows:
    """Raw channel output: k digit rows over Sigma_q, lengths in [0, n].

    ReceivedRows(packed, q, n) takes bytes or int sequences and keeps them
    packed (alphabet.pack_rows), one bytes object per row; rows is the
    int-tuple view, made on each read.  Equality and hashing read the
    packed rows, whose order is that of the int tuples."""

    packed: tuple[bytes, ...]
    q: int
    n: int

    def __post_init__(self):
        packed = pack_rows(self.packed, self.q)
        if len(packed) < 2:
            raise ValueError("need k >= 2 rows")
        if self.n < 1:
            raise ValueError(f"nominal length n must be >= 1, got {self.n}")
        if max(map(len, packed)) > self.n:
            raise ValueError("row longer than the nominal length")
        object.__setattr__(self, "packed", packed)

    @classmethod
    def _of(cls, packed: tuple, q: int, n: int) -> "ReceivedRows":
        """The output with these packed rows, which the channel has already
        derived from a word over Sigma_q of length n: a tuple of at least
        two bytes, none longer than n, whose digits lie in Sigma_q."""
        received = object.__new__(cls)
        object.__setattr__(received, "packed", packed)
        object.__setattr__(received, "q", q)
        object.__setattr__(received, "n", n)
        return received

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.packed))

    @property
    def k(self) -> int:
        return len(self.packed)

    def __repr__(self) -> str:
        return f"ReceivedRows(rows={self.rows!r}, q={self.q!r}, n={self.n!r})"


def received_from_word(word: Word) -> ReceivedRows:
    return ReceivedRows(word.packed, word.q, word.n)


def received_to_text(received: ReceivedRows) -> str:
    return rows_to_text(received.q, received.n, received.packed)


def received_from_text(text: str) -> ReceivedRows:
    """The received rows that received_to_text wrote (alphabet.rows_from_text)."""
    q, n, rows = rows_from_text(text)
    return ReceivedRows(rows, q, n)


# ---------------------------------------------------------------------------
# runs and the outputs of one row
# ---------------------------------------------------------------------------

def run_spans(row) -> list[tuple[int, int]]:
    """(first position, length) of each maximal run of equal symbols."""
    spans, start = [], 0
    for i in range(1, len(row)):
        if row[i] != row[i - 1]:
            spans.append((start, i - start))
            start = i
    if row:
        spans.append((start, len(row) - start))
    return spans


def runs(x) -> int:
    """Number of maximal constant substrings; runs of the empty sequence is 0."""
    return len(run_spans(tuple(x)))


def _row_levels(row, index: int, c: int, q: int, deletion: bool) -> list[dict]:
    """The distinct outputs of packed row `index` under exactly 0, 1, ...,
    c deletions, or substitutions over Sigma_q: one {output: (cells,
    count)} per number of errors, each in the order of its outputs' first
    error patterns.  count is the number of patterns that give the output
    and cells the first of them in position (and value) order, as (row,
    cell) pairs whose cell is a position or a (position, value) pair.

    A pattern of j + 1 errors extends one of j by a cell after its last.
    Distinct substitution patterns give distinct rows.  Deleting any d
    symbols of a run of length L leaves the same row as deleting its first
    d, the first of the C(L, d) ways, so a deletion pattern only extends by
    the next symbol of its last run or the first of a later run, and counts
    the ways of every run it touches.  Those that still meet, when a run is
    deleted whole, add up."""
    spans = run_spans(row) if deletion else None
    # (output, cells, count, last run or next position, symbols taken of that run)
    level, levels = [(row, (), 1, 0, 0)], [{row: ((), 1)}]
    for j in range(1, c + 1):
        if deletion:
            # delete start + t, after the j - 1 earlier deletions; the run's
            # C(L, t + 1) ways are C(L, t) (L - t) / (t + 1)
            level = [
                (out[:start + t - j + 1] + out[start + t - j + 2:],
                 cells + ((index, start + t),), count * (length - t) // (t + 1), r, t + 1)
                for out, cells, count, last, taken in level
                for r, (start, length) in enumerate(spans[last:], last)
                for t in (taken if r == last else 0,)
                if t < length
            ]
        else:
            level = [
                (out[:p] + SYMBOL_ROWS[v] + out[p + 1:], cells + ((index, (p, v)),), 1, p + 1, 0)
                for out, cells, _, first, _ in level
                for p in range(first, len(row))
                for v in range(q)
                if v != row[p]
            ]
        if deletion and j > 1:  # from two deletions on, patterns can meet
            table = {}
            for out, cells, count, _, _ in level:
                first, total = table.get(out, (cells, 0))
                table[out] = (first, total + count)
        else:
            table = {out: (cells, count) for out, cells, count, _, _ in level}
        levels.append(table)
    return levels


@lru_cache(maxsize=None)
def _other_digits(q: int) -> tuple[tuple[bytes, ...], ...]:
    """For each digit x of Sigma_q, the other digits as one-symbol rows, in
    value order: what a substitution may write over x."""
    return tuple(SYMBOL_ROWS[:x] + SYMBOL_ROWS[x + 1:q] for x in range(q))


def _row_balls(row, c: int, q: int, deletion: bool) -> tuple[tuple[bytes, ...], ...]:
    """The distinct outputs of packed row under exactly 0, 1, ..., c
    deletions, or substitutions over Sigma_q: _row_levels' outputs, level
    by level and in the same order, with no cells and no counts.

    The walk is _row_levels' own.  A substitution pattern is its output and
    the next position; a deletion pattern its output, its last run and the
    symbols taken of that run, so a row of r runs has r outputs at one
    deletion, one per run start (Levenshtein, 1966).  From two deletions on
    patterns can meet, and dict.fromkeys keeps each output's first.  The
    walk is kept apart from _row_levels because reading the keys of
    _row_levels' tables here instead made verify-code 12 to 14 % slower on
    the benchmark's oracle-verify books."""
    balls = [(row,)]
    if deletion:
        spans, level = run_spans(row), [(row, 0, 0)]
        for j in range(1, c + 1):
            level = [
                (out[:start + t - j + 1] + out[start + t - j + 2:], r, t + 1)
                for out, last, taken in level
                for r, (start, length) in enumerate(spans[last:], last)
                for t in (taken if r == last else 0,)
                if t < length
            ]
            outs = [out for out, _, _ in level]
            balls.append(tuple(dict.fromkeys(outs) if j > 1 else outs))
        return tuple(balls)
    others, n, level = _other_digits(q), len(row), [(row, 0)]
    for _ in range(c):
        level = [
            (out[:p] + digit + out[p + 1:], p + 1)
            for out, first in level
            for p in range(first, n)
            for digit in others[row[p]]
        ]
        balls.append(tuple([out for out, _ in level]))
    return tuple(balls)


def deletion_ball(x, t: int) -> set[tuple[int, ...]]:
    """D_t(x): all distinct subsequences of x with exactly t symbols removed."""
    (x,) = pack_rows((x,), 256)
    if t < 0 or t > len(x):
        raise ValueError(f"cannot delete {t} symbols from length {len(x)}")
    return set(map(tuple, _row_balls(x, t, 0, True)[t]))


def hamming_sphere(row, d: int, q: int) -> set[tuple[int, ...]]:
    """All rows at Hamming distance exactly d from row, over Sigma_q."""
    if d < 0:
        raise ValueError(f"cannot change {d} symbols")
    (row,) = pack_rows((row,), q)
    return set(map(tuple, _row_balls(row, d, q, False)[d]))


# ---------------------------------------------------------------------------
# explicit corruption plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Plan:
    """An explicit corruption plan: cell edits and/or cell deletions.

    Rows and positions are 0-indexed against the original word.
    """

    substitutions: tuple[tuple[int, int, int], ...] = ()
    deletions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "substitutions", tuple(tuple(s) for s in self.substitutions))
        object.__setattr__(self, "deletions", tuple(tuple(d) for d in self.deletions))


def _validate_plan(word: Word, model: ErrorModel, plan: Plan):
    k, n, q = word.k, word.n, word.q
    if model.is_substitution:
        if plan.deletions:
            raise ValueError("substitution model cannot delete symbols")
        what, cells = "edit", [(r, p) for r, p, _ in plan.substitutions]
    else:
        if plan.substitutions:
            raise ValueError("deletion model cannot substitute symbols")
        what, cells = "deletion", plan.deletions
    counts = [0] * k
    for r, p in cells:
        if not (0 <= r < k and 0 <= p < n):
            raise ValueError(f"{what} ({r},{p}) outside the word")
        counts[r] += 1
    for r, p, v in plan.substitutions:
        if not are_digits((v,), q):
            raise ValueError(f"substituted value {v} outside Sigma_{q}")
        if v == word.packed[r][p]:
            raise ValueError(f"edit at ({r},{p}) does not change the digit")
    if len(set(cells)) != len(cells):
        raise ValueError("plan touches the same cell twice")
    if not _counts_fit(counts, model):
        raise ValueError(
            f"per-row error counts {tuple(counts)} do not fit the {model.kind} model"
        )


def apply_errors(word: Word, model: ErrorModel, plan: Plan) -> ReceivedRows:
    """Corrupt word according to an explicit plan, checked against the model."""
    _check_model_fits(model, word.k)
    _validate_plan(word, model, plan)
    rows = list(map(bytearray, word.packed))
    for r, p, v in plan.substitutions:
        rows[r][p] = v
    for r, p in sorted(plan.deletions, reverse=True):
        del rows[r][p]
    return ReceivedRows(tuple(map(bytes, rows)), word.q, word.n)


# ---------------------------------------------------------------------------
# seeded random corruption
# ---------------------------------------------------------------------------

class SplitMix64:
    """splitmix64: a tiny 64-bit mixing generator.

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64, then the output is state
    mixed by two xor-shift-multiply rounds:
        z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27; z *= 0x94D049BB133111EB
        z ^= z >> 31
    Bounded draws use plain modulo reduction (the tiny bias is irrelevant at
    desk scale and keeps the recurrence trivially portable).
    """

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next64() % bound

    def distinct(self, count: int, bound: int) -> list[int]:
        """First-occurrence order sample of `count` distinct values in [0, bound)."""
        if count > bound:
            raise ValueError(f"cannot draw {count} distinct values below {bound}")
        seen: list[int] = []
        while len(seen) < count:
            v = self.below(bound)
            if v not in seen:
                seen.append(v)
        return seen


def random_errors(word: Word, model: ErrorModel, seed: int) -> tuple[ReceivedRows, Plan]:
    """Sample a maximal-count plan admissible under the model and apply it.

    Maximal means every budget is spent: substitution counts equal the e_i
    (not just bounded by them) and t distinct rows are chosen for the t-rows
    kinds.  Deterministic in (word, model, seed): a t-rows model draws its
    t hit rows first, then each draw (module docstring) its distinct cells
    and, for substitutions, each cell's new value in the same order.
    """
    _check_model_fits(model, word.k)
    rng = SplitMix64(seed)
    k, n, q, budgets = word.k, word.n, word.q, model.budgets
    if model.kind.endswith("-total"):  # cell c of the grid is (c // n, c % n)
        draws, size, where = [(0, budgets[0])], k * n, f"the {k}x{n} grid"
    else:
        hit = rng.distinct(len(budgets), k) if model.kind.endswith("-t-rows") else range(k)
        draws, size, where = zip(hit, budgets), n, f"row length {n}"
    subs: list[tuple[int, int, int]] = []
    dels: list[tuple[int, int]] = []
    for first_row, count in draws:
        if count > size:
            raise ValueError(f"budget {count} exceeds {where}")
        cells = [divmod(first_row * n + c, n) for c in rng.distinct(count, size)]
        if model.is_substitution:
            subs += [(r, p, (word.packed[r][p] + 1 + rng.below(q - 1)) % q) for r, p in cells]
        else:
            dels += cells
    plan = Plan(tuple(subs), tuple(dels))
    return apply_errors(word, model, plan), plan


# ---------------------------------------------------------------------------
# the output enumerator (raw) and valid substitution balls
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _count_vectors(model: ErrorModel, k: int, n: int):
    """The per-row count vectors that fit the model, each as the (row,
    count) pairs of its hit rows, in sweep order: by number of hit rows,
    then row subset in combinations order, then counts; and the largest
    count of each row.  They depend on (model, k, n) alone, so each
    model's are found once."""
    _check_model_fits(model, k)
    if model.kind == "del-per-row" and max(model.budgets) > n:
        raise ValueError(f"cannot delete {max(model.budgets)} symbols from length {n}")
    if model.kind == "del-total" and model.budgets[0] > k * n:
        raise ValueError(f"budget {model.budgets[0]} exceeds the {k}x{n} grid")
    cap = max(model.budgets, default=0)
    fitting = [c for c in product(range(min(cap, n) + 1), repeat=k) if _counts_fit(c, model)]
    vectors = sorted(
        (tuple((i, c) for i, c in enumerate(counts) if c) for counts in fitting),
        key=lambda hits: (len(hits), [i for i, _ in hits]),
    )
    return tuple(vectors), tuple(max(column) for column in zip(*fitting))


def outputs(word: Word, model: ErrorModel):
    """(errors, received, count) once for each distinct raw output of word
    under the model, in sweep order (_count_vectors, then the hit rows'
    outputs in the order of their first error patterns).  received is the
    output's digit rows as int tuples, count the number of error patterns
    that give it and errors the first of them, as (row, cell) pairs.
    packed_outputs gives the same with the rows packed."""
    for errors, received, count in packed_outputs(word, model):
        yield errors, tuple(map(tuple, received)), count


def packed_outputs(word: Word, model: ErrorModel):
    """outputs with each received row as bytes, built by C-level slices of
    the word's packed rows: what ReceivedRows._of takes."""
    rows, q, deletion = word.packed, word.q, not model.is_substitution
    vectors, tops = _count_vectors(model, len(rows), len(rows[0]))
    built = [
        _row_levels(row, i, top, q, deletion) if top else None
        for i, (row, top) in enumerate(zip(rows, tops))
    ]
    for hits in vectors:
        for combo in product(*(built[i][c].items() for i, c in hits)):
            received, errors, count = list(rows), (), 1
            for (i, _), (out, (cells, ways)) in zip(hits, combo):
                received[i], errors, count = out, errors + cells, count * ways
            yield errors, tuple(received), count


def _raw_rows(word: Word, model: ErrorModel):
    """The packed rows of every raw output of word under the model, each
    once, in outputs' order: per fitting count vector, the product of the
    hit rows' outputs, every other row as sent (_row_sweep)."""
    return _row_sweep(model, word.q, word.k, word.n)(word.packed)


def _row_sweep(model: ErrorModel, q: int, k: int, n: int):
    """_raw_rows for every word over Phi_{q,k} of length n: a function of
    a word's packed rows that returns its outputs as one iterator.

    The count vectors, each row's largest count and the kind depend on
    (model, q, k, n) alone, so they are read here, once; the ball oracle
    keeps one sweep per shape.  A sweep keeps, in its own memo, each
    distinct (row, count)'s outputs at 0, 1, ..., count errors, built
    (_row_balls) the first time a word has that row, and per word chains
    one itertools.product per count vector."""
    vectors, tops = _count_vectors(model, k, n)
    deletion = not model.is_substitution
    memo = {}
    hit = [(i, top) for i, top in enumerate(tops) if top]

    def sweep(rows):
        built = {}
        for i, top in hit:
            found = memo.get((rows[i], top))
            if found is None:
                found = memo[rows[i], top] = _row_balls(rows[i], top, q, deletion)
            built[i] = found
        sent, products = [(row,) for row in rows], []
        for hits in vectors:
            spread = sent.copy()
            for i, c in hits:
                spread[i] = built[i][c]
            products.append(product(*spread))
        return chain.from_iterable(products)

    return sweep


def raw_received_set(word: Word, model: ErrorModel) -> set[ReceivedRows]:
    """Every channel output reachable from word under the model (raw rows)."""
    q, n = word.q, word.n
    return {ReceivedRows(rows, q, n) for rows in _raw_rows(word, model)}


def valid_sub_ball(word: Word, model: ErrorModel) -> set[Word]:
    """Column-valid substitution ball around word: the outputs of a
    sub-per-row or sub-total model whose columns are all letters.

    The result contains word itself and every valid word reachable within the
    budgets; this is the ball the bound analysis counts, not the raw channel
    output set.  Any other kind is a ValueError.
    """
    if model.kind not in ("sub-per-row", "sub-total"):
        raise ValueError(f"valid_sub_ball takes sub-per-row or sub-total models, not {model.kind}")
    q, k = word.q, word.k
    ranked = ((rows, column_ranks(rows, q)) for rows in _raw_rows(word, model))
    return {Word._of(q, k, ranks, rows) for rows, ranks in ranked if None not in ranks}


# ---------------------------------------------------------------------------
# brute-force decodability oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleResult:
    """An oracle's verdict: a code iff there is no collision witness."""

    witness: tuple[Word, Word, ReceivedRows] | None = None

    @property
    def is_code(self) -> bool:
        return self.witness is None

    def __bool__(self):
        return self.is_code


def oracle_is_code(codebook, model: ErrorModel) -> OracleResult:
    """True iff the raw output sets of distinct codewords are pairwise disjoint.

    On failure the witness is the lexicographically smallest colliding pair
    (by rank sequence) together with one shared output (smallest by rows).

    The per-row and total kinds build and hash every codeword's ball once,
    M·|ball| outputs, from each distinct row's outputs, which are built
    once per call and dropped with it.  The t-rows kinds make up to M²/2
    pair tests from per-row distances instead (_t_rows_collide): their
    balls grow as Σ_{s≤t} C(k,s)·n^s while their codebooks stay small.  The
    choice goes by kind because the other kinds have large books with small
    balls, where the pairs cost more.  On a 2-core x86-64 VM (best of 15), a
    12-word binary c2d book (k = 3, t = 2, m = 8, so n = 16) under
    del-t-rows 1,1 takes 0.72 ms by balls and 0.16 ms by pairs.  A 360-word
    c1d book (n = 8) under del-total 1 takes 2.42 to 2.59 ms by balls at
    best and 2.46 to 2.70 ms at the median of 21 calls, over five sampled
    books, about 7 us per codeword, where a pair-by-pair prototype took
    1.85 s.  Both ways give the same witness.
    """
    if model.kind.endswith("-t-rows"):
        return _oracle_by_pairs(codebook, model)
    return _oracle_by_balls(codebook, model)


def _oracle_by_balls(codebook, model: ErrorModel) -> OracleResult:
    """oracle_is_code by hashing the digit rows of every codeword's raw
    outputs.  Words over another (q, k, n) have other outputs, so each
    shape has its own sweep (_row_sweep) and table; only the witness
    becomes a ReceivedRows."""
    keyed = sorted(((w.ranks(), w) for w in set(codebook)), key=itemgetter(0))
    # per (q, k, n): its words' sweep and the first owner of each output
    shapes: dict[tuple[int, int, int], tuple] = {}
    best_key = best = None  # the smallest collision seen so far
    for idx, (ranks, w) in enumerate(keyed):
        shape = (w.q, w.k, len(ranks))
        found = shapes.get(shape)
        if found is None:
            found = shapes[shape] = (_row_sweep(model, *shape), {})
        sweep, first_owner = found
        for rows in sweep(w.packed):
            owner = first_owner.setdefault(rows, idx)
            if owner == idx:
                continue
            owner_ranks, owner_word = keyed[owner]
            key = (owner_ranks, ranks, rows)
            if best_key is None or key < best_key:
                best_key, best = key, (owner_word, w)
    if best is None:
        return OracleResult()
    a, b = best
    return OracleResult((a, b, ReceivedRows(best_key[2], b.q, b.n)))


def _oracle_by_pairs(codebook, model: ErrorModel) -> OracleResult:
    """oracle_is_code for the t-rows kinds, one pair of codewords at a time.

    Pairs are scanned in rank order and the first that collides is the
    enumerator's pair: an output it shares with an earlier owner would make
    an earlier pair collide.  Only that pair's packed rows are built
    (_raw_rows), and the smallest they share becomes the witness; bytes
    order as the int tuples do.
    """
    words = sorted(set(codebook), key=Word.ranks)
    for w in words:
        _check_model_fits(model, w.k)
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            if _t_rows_collide(a, b, model):
                shared = set(_raw_rows(a, model)).intersection(_raw_rows(b, model))
                return OracleResult((a, b, ReceivedRows(min(shared), b.q, b.n)))
    return OracleResult()


def _t_rows_collide(a: Word, b: Word, model: ErrorModel) -> bool:
    """Whether two codewords share a raw output under a t-rows model (the
    rule is in the module docstring).

    A t-rows rule reads only the affected rows' counts, so only the rows
    where a and b differ take part.  Under substitutions a smaller count
    still fits, so a may stop at d_i and b take the rest.
    """
    if (a.q, a.k, a.n) != (b.q, b.k, b.n):
        return False
    cap = min(max(model.budgets, default=0), a.n)
    differ = [(x, y) for x, y in zip(a.packed, b.packed) if x != y]
    if model.is_substitution:
        if len(differ) > 2 * len(model.budgets):
            return False
        dists = [sum(u != v for u, v in zip(x, y)) for x, y in differ]
        return any(
            _counts_fit(part, model)
            and _counts_fit([d - c for d, c in zip(dists, part)], model)
            for part in product(*(range(min(d, cap) + 1) for d in dists))
        )
    if len(differ) > len(model.budgets):
        return False
    dists = [_deletion_distance(x, y, cap) for x, y in differ]
    return any(
        _counts_fit(counts, model)
        for counts in product(*(range(d, cap + 1) for d in dists))
    )


def _deletion_distance(x, y, cap: int) -> int:
    """n - LCS(x, y) for two rows of length n, or cap + 1 if that is larger.

    An alignment that deletes d symbols from each row stays within d cells
    of the diagonal, so a band of half-width cap decides it in O(n·cap)
    steps.  The band holds indel distances, which are twice n - LCS.
    """
    n = len(x)
    far = 2 * n + 2  # above every indel distance
    prev = [j if j <= cap else far for j in range(n + 1)]
    cur = [far] * (n + 1)
    for i in range(1, n + 1):
        lo, hi = max(1, i - cap), min(n, i + cap)
        cur[lo - 1] = i if lo == 1 else far
        xi = x[i - 1]
        for j in range(lo, hi + 1):
            cur[j] = prev[j - 1] if xi == y[j - 1] else 1 + min(prev[j], cur[j - 1])
        prev, cur = cur, prev
    return min(prev[n] // 2, cap + 1)
