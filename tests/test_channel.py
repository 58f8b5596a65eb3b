"""Channel tests: corruption plans, output-set enumeration, oracle."""

import dataclasses
import json
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_dna import channel, cli
from composite_dna.alphabet import Word, all_letters, alphabet_size, word_from_text, word_to_text
from composite_dna.channel import (
    ErrorModel,
    Plan,
    ReceivedRows,
    SplitMix64,
    apply_errors,
    del_per_row,
    del_t_rows,
    del_total,
    deletion_ball,
    hamming_sphere,
    oracle_is_code,
    outputs,
    random_errors,
    raw_received_set,
    received_from_text,
    received_from_word,
    received_to_text,
    runs,
    sub_per_row,
    sub_t_rows,
    sub_total,
    valid_sub_ball,
)
from composite_dna.codes_deletion import C2DSpec, c1d_encode, c1d_message_length, c2d_encode
from composite_dna.codes_substitution import C2SSpec, c2s_encode, cecc1_encode


def all_words(q, k, n):
    return [Word.from_ranks(r, q, k) for r in product(range(alphabet_size(q, k)), repeat=n)]


def brute_deletion_ball(x, t):
    """Independent oracle: choose which indices survive, dedupe."""
    from itertools import combinations

    n = len(x)
    return {tuple(x[i] for i in keep) for keep in combinations(range(n), n - t)}


# ---------------------------------------------------------------------------
# runs / deletion balls
# ---------------------------------------------------------------------------

def test_runs_frozen():
    assert runs((0, 1, 1, 2, 3, 3)) == 4
    assert runs(()) == 0
    assert runs((5, 5, 5)) == 1
    assert runs((0, 1, 0, 1)) == 4


def test_deletion_ball_frozen():
    assert deletion_ball((0, 1, 0), 1) == {(1, 0), (0, 0), (0, 1)}
    assert deletion_ball((0, 1, 1, 0), 2) == {(0, 1), (0, 0), (1, 0), (1, 1)}
    assert deletion_ball((0, 1), 0) == {(0, 1)}
    assert deletion_ball((7,), 1) == {()}
    with pytest.raises(ValueError):
        deletion_ball((0, 1), 3)


def test_single_deletion_ball_size_is_runs():
    # |D_1(x)| = runs(x), exhaustively over small alphabets
    for q in (2, 3, 4):
        for n in range(1, 9):
            for x in product(range(q), repeat=n):
                assert len(deletion_ball(x, 1)) == runs(x)


def test_deletion_ball_run_bounds():
    # C(r-t+1, t) <= |D_t(x)| <= C(r+t-1, t) whenever r(x) >= t
    for q in (2, 3):
        for n in range(1, 8):
            for x in product(range(q), repeat=n):
                r = runs(x)
                for t in (1, 2, 3):
                    if t > n or r < t:
                        continue
                    size = len(deletion_ball(x, t))
                    assert comb(r - t + 1, t) <= size <= comb(r + t - 1, t)


def test_deletion_ball_matches_subsequence_oracle():
    for n in range(0, 7):
        for x in product(range(3), repeat=n):
            for t in range(0, min(n, 3) + 1):
                assert deletion_ball(x, t) == brute_deletion_ball(x, t)


def test_hamming_sphere_sizes():
    row = (0, 1, 2, 0)
    q = 3
    for d in range(0, 6):
        assert len(hamming_sphere(row, d, q)) == comb(4, d) * (q - 1) ** d
    assert hamming_sphere((0, 0), 1, 2) == {(1, 0), (0, 1)}


def test_bare_row_outputs_follow_the_row_levels():
    """_row_balls gives _row_levels' outputs, level by level and in the
    same order, for every row of length <= 6 over Sigma_2 and Sigma_3 and
    <= 4 over Sigma_4, at every count up to min(n, 3), under deletions and
    substitutions."""
    for q, longest in ((2, 6), (3, 6), (4, 4)):
        for n in range(longest + 1):
            for row in map(bytes, product(range(q), repeat=n)):
                for c, deletion in product(range(min(n, 3) + 1), (True, False)):
                    levels = tuple(map(tuple, channel._row_levels(row, 0, c, q, deletion)))
                    assert channel._row_balls(row, c, q, deletion) == levels, (row, c, deletion)


# ---------------------------------------------------------------------------
# error models
# ---------------------------------------------------------------------------

BUILT_MODELS = [
    sub_per_row(1, 0),
    sub_per_row(0, 2, 1),
    del_per_row(1, 0),
    sub_total(0),
    sub_total(2),
    del_total(1),
    sub_t_rows(),
    sub_t_rows(1, 2),
    del_t_rows(1),
    del_t_rows(2, 1),
    cli.build_model("sub-per-row", "1,1", None),
    cli.build_model("del-per-row", "0,1", 2),
    cli.build_model("sub-total", "1", None),
    cli.build_model("del-total", "2", 3),
    cli.build_model("sub-t-rows", "1,1", 2),
    cli.build_model("del-t-rows", "1", 1),
]


def test_a_model_is_its_kind_and_budgets():
    assert [f.name for f in dataclasses.fields(ErrorModel)] == ["kind", "budgets"]
    for model in BUILT_MODELS:
        again = ErrorModel(model.kind, model.budgets)
        assert again == model and hash(again) == hash(model)
        k = len(model.budgets) if model.kind.endswith("-per-row") else 3
        first = channel._count_vectors(model, k, 4)
        before = channel._count_vectors.cache_info()
        assert channel._count_vectors(again, k, 4) is first
        after = channel._count_vectors.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ErrorModel("sub-total", (1, 2)), "sub-total models need exactly one budget"),
        (lambda: ErrorModel("del-total", ()), "del-total models need exactly one budget"),
        (lambda: ErrorModel("del-per-row", ()), "per-row models need a budget per row"),
        (lambda: ErrorModel("sub-row", (1,)), "unknown error model kind 'sub-row'"),
        (lambda: del_total(-1), "budgets must be nonnegative"),
        (lambda: sub_per_row(1, -1), "budgets must be nonnegative"),
        (lambda: sub_t_rows(-1, 1), "budgets must be nonnegative"),
    ],
)
def test_models_refuse_budgets_their_kind_cannot_take(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: hamming_sphere((0, 1), -1, 2), "cannot change -1 symbols"),
        (lambda: SplitMix64(1).below(0), "bound must be positive"),
        (lambda: SplitMix64(1).distinct(3, 2), "cannot draw 3 distinct values below 2"),
    ],
)
def test_counts_out_of_range_are_refused(call, message):
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# apply_errors
# ---------------------------------------------------------------------------

def word_001_011():
    return Word.from_rows(["001", "011"], q=2)


@pytest.mark.parametrize(
    "model, plan, message",
    [
        (sub_total(1), Plan(deletions=((0, 0),)), "substitution model cannot delete symbols"),
        (
            del_total(1),
            Plan(substitutions=((0, 0, 1),)),
            "deletion model cannot substitute symbols",
        ),
        (sub_total(1), Plan(substitutions=((2, 0, 1),)), "edit (2,0) outside the word"),
        (del_total(1), Plan(deletions=((0, 3),)), "deletion (0,3) outside the word"),
        (sub_total(1), Plan(substitutions=((0, 0, 2),)), "substituted value 2 outside Sigma_2"),
        (sub_total(1), Plan(substitutions=((0, 2, 1),)), "edit at (0,2) does not change the digit"),
        (del_total(2), Plan(deletions=((1, 1), (1, 1))), "plan touches the same cell twice"),
        (
            del_per_row(1, 0),
            Plan(deletions=((1, 1),)),
            "per-row error counts (0, 1) do not fit the del-per-row model",
        ),
    ],
)
def test_apply_names_the_first_fault_of_the_plan(model, plan, message):
    with pytest.raises(ValueError) as info:
        apply_errors(word_001_011(), model, plan)
    assert str(info.value) == message


def test_apply_empty_plan_is_identity():
    w = word_001_011()
    got = apply_errors(w, sub_per_row(1, 0), Plan())
    assert got.rows == w.rows()


def test_apply_single_edit_frozen():
    w = word_001_011()
    got = apply_errors(w, sub_per_row(1, 0), Plan(substitutions=((0, 2, 0),)))
    assert got.rows == ((0, 0, 0), (0, 1, 1))


def test_apply_rejects_budget_breach():
    w = word_001_011()
    plan = Plan(substitutions=((0, 0, 1), (0, 1, 1)))
    with pytest.raises(ValueError):
        apply_errors(w, sub_per_row(1, 0), plan)
    # but fine under a total budget of 2
    got = apply_errors(w, sub_total(2), plan)
    assert got.rows == ((1, 1, 1), (0, 1, 1))


def test_apply_rejects_identity_edit_and_duplicates():
    w = word_001_011()
    with pytest.raises(ValueError):
        apply_errors(w, sub_total(1), Plan(substitutions=((0, 0, 0),)))
    with pytest.raises(ValueError):
        apply_errors(
            w, del_total(2), Plan(deletions=((1, 2), (1, 2)))
        )


def test_apply_rejects_mixed_kind():
    w = word_001_011()
    with pytest.raises(ValueError):
        apply_errors(w, sub_total(1), Plan(deletions=((0, 0),)))
    with pytest.raises(ValueError):
        apply_errors(w, del_total(1), Plan(substitutions=((0, 0, 1),)))


def test_apply_deletions_are_exact():
    w = word_001_011()
    # del-per-row demands exactly e_i per row
    with pytest.raises(ValueError):
        apply_errors(w, del_per_row(1, 1), Plan(deletions=((0, 0),)))
    got = apply_errors(w, del_per_row(1, 0), Plan(deletions=((0, 0),)))
    assert got.rows == ((0, 1), (0, 1, 1))
    assert got.n == 3


def test_apply_t_rows_budget_matching():
    w = Word.from_rows(["0011", "0111"], q=2)
    # two edits in one row fit the (2,) budget; spread over two rows does not
    apply_errors(w, sub_t_rows(2), Plan(substitutions=((0, 0, 1), (0, 1, 1))))
    with pytest.raises(ValueError):
        apply_errors(w, sub_t_rows(2), Plan(substitutions=((0, 0, 1), (1, 0, 1))))
    # deletion budgets are an exact multiset
    apply_errors(w, del_t_rows(2, 1), Plan(deletions=((0, 0), (1, 0), (1, 3))))
    with pytest.raises(ValueError):
        apply_errors(w, del_t_rows(2, 1), Plan(deletions=((0, 0), (1, 0))))


# ---------------------------------------------------------------------------
# random corruption
# ---------------------------------------------------------------------------

def test_splitmix_reference_sequence():
    # splitmix64(seed=0) reference outputs (used by several PRNG test suites)
    rng = SplitMix64(0)
    assert rng.next64() == 0xE220A8397B1DCDAF
    assert rng.next64() == 0x6E789E6AA1B965F4
    assert rng.next64() == 0x06C45D188009454F


def test_random_errors_deterministic():
    w = Word.from_rows(["00110", "01111"], q=2)
    model = sub_total(3)
    first = random_errors(w, model, seed=42)
    second = random_errors(w, model, seed=42)
    assert first == second
    other = random_errors(w, model, seed=43)
    assert other != first  # astronomically unlikely to coincide


def test_random_errors_spends_full_budget():
    w = Word.from_rows(["00110", "01111"], q=2)
    got, plan = random_errors(w, sub_total(3), seed=7)
    assert len(plan.substitutions) == 3
    diff = sum(
        1
        for i in range(w.k)
        for j in range(w.n)
        if got.rows[i][j] != w.rows()[i][j]
    )
    assert diff == 3

    got, plan = random_errors(w, del_per_row(1, 0), seed=9)
    assert [len(r) for r in got.rows] == [4, 5]

    got, plan = random_errors(w, del_t_rows(2, 1), seed=11)
    assert sorted(len(r) for r in got.rows) == [3, 4]


def test_random_errors_zero_budget_identity():
    w = word_001_011()
    got, plan = random_errors(w, sub_total(0), seed=1)
    assert got.rows == w.rows()
    assert plan == Plan()


def test_random_errors_rejects_impossible_budget():
    w = word_001_011()
    with pytest.raises(ValueError):
        random_errors(w, del_per_row(4, 0), seed=0)


def test_random_errors_plan_reapplies():
    w = Word.from_rows(["0012", "0112"], q=3)
    for seed in range(20):
        for model in (sub_per_row(2, 1), sub_t_rows(1, 1), del_total(2)):
            got, plan = random_errors(w, model, seed=seed)
            assert apply_errors(w, model, plan) == got


# Plans and received text of random_errors recorded before its per-row and
# grid draws became one loop.  Several cells per row pin the call order: the
# hit rows of a t-rows model first, then per row its positions, then their
# substituted values.
RANDOM_ERRORS_PINS = json.loads(
    (Path(__file__).with_name("data") / "random_errors_pins.json").read_text()
)


@pytest.mark.parametrize(
    "pin", RANDOM_ERRORS_PINS,
    ids=[f"{p['kind']}-q{p['q']}-seed{p['seed']}" for p in RANDOM_ERRORS_PINS],
)
def test_random_errors_draws_are_pinned(pin):
    word = Word.from_rows(pin["rows"], pin["q"])
    budgets = pin["budgets"] or [pin["total"]]
    if pin["t"] is not None:
        assert pin["t"] == len(budgets)
    model = ErrorModel(pin["kind"], budgets)
    received, plan = random_errors(word, model, pin["seed"])
    assert [list(s) for s in plan.substitutions] == pin["substitutions"]
    assert [list(d) for d in plan.deletions] == pin["deletions"]
    assert received_to_text(received) == pin["received"]


# ---------------------------------------------------------------------------
# raw output sets
# ---------------------------------------------------------------------------

def test_raw_set_identity_for_zero_budget():
    w = word_001_011()
    assert raw_received_set(w, sub_total(0)) == {received_from_word(w)}


def test_raw_set_single_column_deletion_frozen():
    w = Word.from_ranks([1], q=2, k=2)  # the single column [0, 1]
    got = raw_received_set(w, del_per_row(1, 0))
    assert got == {ReceivedRows(((), (1,)), q=2, n=1)}


def test_raw_set_sub_per_row_frozen():
    # row-1 Hamming ball of radius 1 has 3 members; row 2 stays fixed
    w = Word.from_rows(["00", "01"], q=2)
    got = raw_received_set(w, sub_per_row(1, 0))
    assert {r.rows for r in got} == {
        ((0, 0), (0, 1)),
        ((1, 0), (0, 1)),
        ((0, 1), (0, 1)),
    }
    assert len(got) == 3


def test_raw_set_sub_total_counts():
    w = Word.from_rows(["00", "01"], q=2)
    got = raw_received_set(w, sub_total(1))
    assert len(got) == 1 + 2 * 2  # identity + one flip anywhere
    assert raw_received_set(w, sub_total(1)) <= raw_received_set(w, sub_total(2))


def test_raw_set_t_rows_full_budget_matches_per_row():
    w = Word.from_rows(["012", "022"], q=3)
    via_t = raw_received_set(w, sub_t_rows(1, 1))
    via_rows = raw_received_set(w, sub_per_row(1, 1))
    assert via_t == via_rows  # balls already contain the smaller subsets


def test_raw_set_del_t_rows_frozen():
    w = Word.from_rows(["01", "01"], q=2)
    got = {r.rows for r in raw_received_set(w, del_t_rows(1))}
    assert got == {
        ((0, 1), (0, 1)),  # no row affected
        ((1,), (0, 1)),
        ((0,), (0, 1)),
        ((0, 1), (1,)),
        ((0, 1), (0,)),
    }


def test_raw_set_exact_deletions_exclude_identity():
    w = word_001_011()
    outs = raw_received_set(w, del_per_row(1, 0))
    assert received_from_word(w) not in outs
    # but the t-rows variant allows zero affected rows
    outs = raw_received_set(w, del_t_rows(1))
    assert received_from_word(w) in outs


def test_raw_set_del_t_rows_budget_assignment_union():
    # budgets (2, 1) on a single affected row must produce both D_2 and D_1
    w = Word.from_rows(["0011", "0111"], q=2)
    outs = {r.rows for r in raw_received_set(w, del_t_rows(2, 1))}
    for y in deletion_ball(w.rows()[0], 2) | deletion_ball(w.rows()[0], 1):
        assert (y, w.rows()[1]) in outs


def is_subsequence(y, x):
    it = iter(x)
    return all(v in it for v in y)


def model_admits(errs, model):
    """Whether per-row error counts lie in the model, by its definition:
    rows outside the chosen set are untouched and a chosen row takes one
    budget of its own, trying each budget-to-row assignment explicitly."""

    def assignable(within):
        for size in range(len(model.budgets) + 1):
            for chosen in combinations(range(len(errs)), size):
                for budgets in permutations(model.budgets, size):
                    if all(
                        within(errs[i], budgets[chosen.index(i)]) if i in chosen
                        else errs[i] == 0
                        for i in range(len(errs))
                    ):
                        return True
        return False

    return {
        "sub-per-row": lambda: all(c <= e for c, e in zip(errs, model.budgets)),
        "del-per-row": lambda: all(c == e for c, e in zip(errs, model.budgets)),
        "sub-total": lambda: sum(errs) <= model.budgets[0],
        "del-total": lambda: sum(errs) == model.budgets[0],
        "sub-t-rows": lambda: assignable(lambda c, e: c <= e),
        "del-t-rows": lambda: assignable(lambda c, e: c == e),
    }[model.kind]()


def brute_received_set(word, model):
    """Independent oracle: judge every candidate row tuple by the model's
    definition (model_admits)."""
    rows, q, n = word.rows(), word.q, word.n
    sub = model.is_substitution
    lengths = [n] if sub else range(n + 1)
    candidates = [y for length in lengths for y in product(range(q), repeat=length)]

    def errors(y, x):
        """Edits or deletions turning x into y; None if no such error."""
        if sub:
            return sum(a != b for a, b in zip(x, y))
        return n - len(y) if is_subsequence(y, x) else None

    out = set()
    for received in product(candidates, repeat=len(rows)):
        errs = [errors(y, x) for y, x in zip(received, rows)]
        if None not in errs and model_admits(errs, model):
            out.add(ReceivedRows(received, q, n))
    return out


@pytest.mark.parametrize(
    "rows, q, models",
    [
        (
            ["001", "011"],
            2,
            [sub_per_row(1, 0), sub_per_row(2, 1), del_per_row(1, 0), del_per_row(2, 1),
             sub_total(1), sub_total(2), del_total(1), del_total(2),
             sub_t_rows(2), sub_t_rows(2, 1), sub_t_rows(1, 2),
             sub_t_rows(1, 1), del_t_rows(1), del_t_rows(2, 1),
             del_t_rows(1, 1)],
        ),
        (
            ["012", "112"],
            3,
            [sub_per_row(0, 2), del_per_row(0, 2), sub_total(2), del_total(2),
             sub_t_rows(1), sub_t_rows(2, 1), del_t_rows(2, 1)],
        ),
        (
            ["01", "12", "22"],
            3,
            [sub_per_row(1, 0, 1), del_per_row(1, 0, 2), sub_total(1), del_total(2),
             sub_t_rows(2, 1), sub_t_rows(1), del_t_rows(2, 1),
             del_t_rows(1, 1), del_t_rows(1, 0, 2)],
        ),
        (
            ["001", "011", "111"],
            2,
            [sub_per_row(1, 1, 0), del_per_row(2, 0, 1), sub_total(2), del_total(1),
             sub_t_rows(2, 1), del_t_rows(2, 1), del_t_rows(1, 1)],
        ),
        (
            ["001", "012", "122"],
            3,
            [sub_per_row(2, 0, 1), del_total(2), sub_t_rows(2, 1), del_t_rows(2, 1)],
        ),
    ],
)
def test_raw_set_matches_model_definition(rows, q, models):
    word = Word.from_rows(rows, q=q)
    for model in models:
        brute = brute_received_set(word, model)
        assert raw_received_set(word, model) == brute, model
        assert {received for _, received, _ in outputs(word, model)} == {r.rows for r in brute}


def test_raw_set_budgets_beyond_the_word():
    w = word_001_011()  # n = 3
    # exact deletion counts that no output can have are errors
    with pytest.raises(ValueError, match="cannot delete 4 symbols from length 3"):
        raw_received_set(w, del_per_row(4, 0))
    with pytest.raises(ValueError, match="budget 7 exceeds the 2x3 grid"):
        raw_received_set(w, del_total(7))
    # elsewhere a budget past the row length just never applies in full
    assert raw_received_set(w, sub_per_row(5, 0)) == raw_received_set(w, sub_per_row(3, 0))
    assert raw_received_set(w, sub_total(9)) == raw_received_set(w, sub_total(6))
    assert raw_received_set(w, sub_t_rows(4)) == raw_received_set(w, sub_t_rows(3))
    assert raw_received_set(w, del_t_rows(4, 1)) == raw_received_set(w, del_t_rows(1))


# ---------------------------------------------------------------------------
# the output enumerator
# ---------------------------------------------------------------------------

def reference_patterns(word, model):
    """Every error pattern of the model, position by position and value by
    value, as (errors, rows) with duplicates, in sweep order: count vectors
    admitted by the definition, by number of affected rows, then row subset,
    then counts; within one, each row's patterns in the order of their
    cells, (row, position) or (row, (position, value))."""
    rows, k, n, q = word.rows(), word.k, word.n, word.q
    vectors = sorted(
        (c for c in product(range(n + 1), repeat=k) if model_admits(c, model)),
        key=lambda c: (sum(x > 0 for x in c), [i for i, x in enumerate(c) if x]),
    )
    for counts in vectors:
        choices = []
        for i, (row, c) in enumerate(zip(rows, counts)):
            patterns = []
            for positions in combinations(range(n), c):
                if model.is_substitution:
                    others = [[v for v in range(q) if v != row[p]] for p in positions]
                    for values in product(*others):
                        out = list(row)
                        for p, v in zip(positions, values):
                            out[p] = v
                        cells = tuple((i, pv) for pv in zip(positions, values))
                        patterns.append((cells, tuple(out)))
                else:
                    out = tuple(x for j, x in enumerate(row) if j not in positions)
                    patterns.append((tuple((i, p) for p in positions), out))
            choices.append(sorted(patterns))
        for combo in product(*choices):
            yield sum((cells for cells, _ in combo), ()), tuple(out for _, out in combo)


def closed_form_patterns(word, model):
    """Sum over admitted count vectors of prod C(n, c_i), times (q-1)^c_i
    for substitutions."""
    n, per_cell = word.n, word.q - 1 if model.is_substitution else 1
    return sum(
        prod(comb(n, c) * per_cell**c for c in counts)
        for counts in product(range(n + 1), repeat=word.k)
        if model_admits(counts, model)
    )


def tiny_words_and_models(seed, count):
    """(word, model) pairs over seeded random tiny words (q in {2,3,4}, k in
    {2,3}, n <= 5), each word under one model of each of the six kinds."""
    rng = random.Random(seed)
    for _ in range(count):
        q, k = rng.choice((2, 3, 4)), rng.choice((2, 3))
        n = rng.randint(1, 5)
        word = Word.from_ranks([rng.randrange(alphabet_size(q, k)) for _ in range(n)], q, k)
        t = rng.randint(1, k)
        yield word, sub_per_row(*(rng.randint(0, 2) for _ in range(k)))
        yield word, sub_total(rng.randint(0, 2))
        yield word, sub_t_rows(*(rng.randint(1, 2) for _ in range(t)))
        yield word, del_per_row(*(rng.randint(0, min(n, 2)) for _ in range(k)))
        yield word, del_total(rng.randint(1, 2))
        yield word, del_t_rows(*(rng.randint(1, min(n, 2)) for _ in range(t)))


@pytest.mark.parametrize("seed", range(4))
def test_outputs_match_the_pattern_by_pattern_sweep(seed):
    """Each distinct output comes once, in the order of its first pattern,
    with the number of patterns that give it and the first of them."""
    for word, model in tiny_words_and_models(seed, 12):
        got = list(outputs(word, model))
        reference = list(reference_patterns(word, model))
        firsts = {}
        for errors, rows in reference:
            firsts.setdefault(rows, errors)
        assert [received for _, received, _ in got] == list(firsts), model
        assert {received: count for _, received, count in got} == Counter(
            rows for _, rows in reference
        ), model
        assert {received: errors for errors, received, _ in got} == firsts, model
        assert sum(count for _, _, count in got) == closed_form_patterns(word, model), model


def test_outputs_are_what_the_channel_gives():
    # every output is apply_errors of its first pattern, and raw_received_set
    # is the set of the outputs
    for word, model in tiny_words_and_models(5, 6):
        for errors, received, _ in outputs(word, model):
            if model.is_substitution:
                plan = Plan(substitutions=[(i, p, v) for i, (p, v) in errors])
            else:
                plan = Plan(deletions=errors)
            assert apply_errors(word, model, plan).rows == received
        assert raw_received_set(word, model) == {
            ReceivedRows(received, word.q, word.n) for _, received, _ in outputs(word, model)
        }


def test_outputs_step_over_runs():
    # one deletion anywhere in a run leaves the same row: the first cell is
    # the run's start and the count its length
    word = Word.from_rows([(0, 0, 0, 1, 1, 1, 1), (0, 0, 1, 1, 1, 1, 1)], q=2)
    got = list(outputs(word, del_total(1)))
    assert [(errors, count) for errors, _, count in got] == [
        (((0, 0),), 3), (((0, 3),), 4), (((1, 0),), 2), (((1, 2),), 5)
    ]
    assert channel.run_spans((0, 0, 1, 2, 2, 2, 0)) == [(0, 2), (2, 1), (3, 3), (6, 1)]
    assert channel.run_spans(()) == []


def test_outputs_reject_what_the_model_cannot_apply():
    word = word_001_011()
    with pytest.raises(ValueError, match="cannot delete 4 symbols from length 3"):
        list(outputs(word, del_per_row(4, 0)))
    with pytest.raises(ValueError, match="t=3 exceeds the number of rows k=2"):
        list(outputs(word, sub_t_rows(1, 1, 1)))


# ---------------------------------------------------------------------------
# valid substitution balls
# ---------------------------------------------------------------------------

def test_valid_ball_single_column_closed_forms():
    # Single-column sizes: e=1 total gives q-1+a_k-a_1 new words; per-row
    # all-ones budgets give sum_{l=1}^{q-1} C(l+k-1, l).
    for q in (2, 3, 4):
        for k in (2, 3, 4):
            per_row_expect = sum(comb(l + k - 1, l) for l in range(1, q))
            for sigma in all_letters(q, k):
                w = Word.from_letters([sigma])
                ball1 = valid_sub_ball(w, sub_total(1))
                assert w in ball1
                spread = sigma.digits[-1] - sigma.digits[0]
                assert len(ball1) - 1 == q - 1 + spread
                # the general lower bound C(n, e)(q-1+l)^e + 1 is tight here
                assert len(ball1) == comb(1, 1) * (q - 1 + spread) + 1
                ones = valid_sub_ball(w, sub_per_row(*(1,) * k))
                assert len(ones) - 1 == per_row_expect


def test_valid_ball_zero_budget():
    w = word_001_011()
    assert valid_sub_ball(w, sub_total(0)) == {w}
    assert valid_sub_ball(w, sub_per_row(0, 0)) == {w}


def test_valid_ball_brute_force_cross_check():
    # independent enumeration: all valid words within distance, compared cellwise
    w = Word.from_rows(["011", "012"], q=3)
    q, k, n = w.q, w.k, w.n
    everything = [
        Word.from_ranks(rs, q, k)
        for rs in product(range(alphabet_size(q, k)), repeat=n)
    ]

    def cell_diffs(a, b):
        return [
            (i, j)
            for i in range(k)
            for j in range(n)
            if a.rows()[i][j] != b.rows()[i][j]
        ]

    expect_total = {v for v in everything if len(cell_diffs(w, v)) <= 2}
    assert valid_sub_ball(w, sub_total(2)) == expect_total

    budgets = (1, 1)
    expect_rows = {
        v
        for v in everything
        if all(
            sum(1 for i, _ in cell_diffs(w, v) if i == row) <= budgets[row]
            for row in range(k)
        )
    }
    assert valid_sub_ball(w, sub_per_row(*budgets)) == expect_rows


def test_valid_ball_argument_validation():
    """valid_sub_ball takes a sub-per-row or sub-total model that fits the word."""
    w = word_001_011()
    for model, message in [
        (del_total(1), "takes sub-per-row or sub-total models, not del-total"),
        (del_per_row(1, 0), "takes sub-per-row or sub-total models, not del-per-row"),
        (sub_t_rows(1), "takes sub-per-row or sub-total models, not sub-t-rows"),
        (sub_per_row(1, 1, 1), "model has 3 row budgets but word has 2 rows"),
    ]:
        with pytest.raises(ValueError, match=message):
            valid_sub_ball(w, model)


# ---------------------------------------------------------------------------
# error-space size (single deletion in the first row)
# ---------------------------------------------------------------------------

def test_first_row_deletion_error_space_size():
    # |union of raw sets under DelPerRow(1,0,...,0)| over all of Phi_{2,k}^n
    for k in (2, 3):
        for n in (2, 3, 4, 5):
            model = del_per_row(1, *([0] * (k - 1)))
            space = set()
            Q = alphabet_size(2, k)
            for ranks in product(range(Q), repeat=n):
                w = Word.from_ranks(ranks, 2, k)
                space |= raw_received_set(w, model)
            expect = k * (k + 1) ** (n - 1) + (k - 1) * (k + 1) ** (n - 2) * (n - 1)
            assert len(space) == expect


# ---------------------------------------------------------------------------
# decodability oracle
# ---------------------------------------------------------------------------

def test_oracle_singleton_is_code():
    w = word_001_011()
    res = oracle_is_code([w], sub_per_row(2, 2))
    assert res.is_code and res.witness is None
    assert bool(res)


def test_oracle_full_alphabet_fails_with_witness():
    # all three single-column words over Phi_{2,2}; ranks 1 and 2 collide
    words = [Word.from_ranks([r], 2, 2) for r in range(3)]
    res = oracle_is_code(words, sub_per_row(1, 0))
    assert not res.is_code
    a, b, shared = res.witness
    assert (a.ranks(), b.ranks()) == ((1,), (2,))
    assert shared.rows == ((0,), (1,))
    assert shared in raw_received_set(a, sub_per_row(1, 0))
    assert shared in raw_received_set(b, sub_per_row(1, 0))


def test_oracle_spaced_ranks_are_a_code():
    # columns [0,0] and [1,1] differ in both rows; one edit in row 1 cannot confuse them
    words = [Word.from_ranks([0], 2, 2), Word.from_ranks([2], 2, 2)]
    assert oracle_is_code(words, sub_per_row(1, 0)).is_code


def test_oracle_witness_is_lex_smallest_pair():
    # every pair collides under a huge budget; the witness must be (rank 0, rank 1)
    words = [Word.from_ranks([r], 2, 2) for r in range(3)]
    res = oracle_is_code(words, sub_per_row(1, 1))
    assert not res.is_code
    a, b, _ = res.witness
    assert (a.ranks(), b.ranks()) == ((0,), (1,))


def brute_force_witness(codebook, model):
    """The smallest (ranks, ranks, rows) over every pair sharing an output."""
    words = sorted(set(codebook), key=lambda w: w.ranks())
    balls = [raw_received_set(w, model) for w in words]
    best = None
    for i, j in combinations(range(len(words)), 2):
        for shared in balls[i] & balls[j]:
            key = (words[i].ranks(), words[j].ranks(), shared.rows)
            if best is None or key < best[0]:
                best = (key, (words[i], words[j], shared))
    return None if best is None else best[1]


@pytest.mark.parametrize(
    "codebook,model",
    [
        # the c1d (k=2, n=5, a=0) code beyond its single-deletion guarantee
        (
            [
                w
                for w in (Word.from_ranks(r, 2, 2) for r in product(range(3), repeat=5))
                if sum(j * v for j, v in enumerate(w.ranks(), 1)) % 6 == 0
            ],
            del_total(2),
        ),
        ([Word.from_ranks(r, 2, 3) for r in product(range(4), repeat=2)], sub_per_row(1, 0, 1)),
        ([Word.from_ranks(r, 3, 2) for r in product(range(6), repeat=2)][::5], sub_total(1)),
        # the t-rows kinds, decided pair by pair; neither witness is the first pair
        (all_words(2, 3, 3)[::7], del_t_rows(2, 1)),
        (all_words(3, 2, 2)[::8], sub_t_rows(1)),
    ],
)
def test_oracle_witness_is_the_smallest_collision(codebook, model):
    res = oracle_is_code(codebook, model)
    expected = brute_force_witness(codebook, model)
    assert expected is not None
    assert not res.is_code
    assert res.witness == expected


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("kind", [sub_t_rows, del_t_rows])
def test_pairwise_oracle_matches_the_enumerator(kind, k):
    """The t-rows kinds' pair test gives the ball enumerator's verdict and
    witness, for every t from 1 to k and budgets from 0 to 2."""
    rng = random.Random(2026 + k)
    verdicts = []
    for t in range(1, k + 1):
        for budgets in combinations_with_replacement(range(3), t):
            model = kind(*rng.sample(budgets, t))
            for _ in range(4):
                q, n = rng.choice((2, 3)), rng.randint(1, 3)
                size = alphabet_size(q, k)
                book = [
                    Word.from_ranks([rng.randrange(size) for _ in range(n)], q, k)
                    for _ in range(rng.randint(2, 6))
                ]
                result = channel._oracle_by_pairs(book, model)
                assert result == channel._oracle_by_balls(book, model), (book, model)
                verdicts.append(result.is_code)
    assert True in verdicts and False in verdicts
    # words of unequal length share no output, however close their rows
    mixed = [Word.from_ranks([0], 2, k), Word.from_ranks([0, 0], 2, k)]
    assert channel._oracle_by_pairs(mixed, kind(*[2] * k)).is_code
    assert channel._oracle_by_balls(mixed, kind(*[2] * k)).is_code


def random_ball_model(kind, rng, k):
    """A model of one of the four ball kinds, small enough for brute force."""
    if kind == "sub-per-row":
        return sub_per_row(*(rng.randint(0, 1) for _ in range(k)))
    if kind == "del-per-row":
        return del_per_row(*(rng.randint(0, 1) for _ in range(k)))
    return (sub_total if kind == "sub-total" else del_total)(rng.randint(0, 2))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["sub-per-row", "sub-total", "del-per-row", "del-total"])
def test_ball_oracle_matches_the_brute_force_reference(kind, q, k):
    """The ball oracle gives the pair-by-pair reference's verdict and whole
    witness, its shared output a ReceivedRows equal to the reference's."""
    rng = random.Random(3 * q + k)
    size = alphabet_size(q, k)
    verdicts = set()
    for _ in range(16):
        n = rng.randint(1, 3)
        model = random_ball_model(kind, rng, k)
        book = [
            Word.from_ranks([rng.randrange(size) for _ in range(n)], q, k)
            for _ in range(rng.randint(2, 5))
        ]
        reference = brute_force_witness(book, model)
        result = channel._oracle_by_balls(book, model)
        assert result == channel.OracleResult(reference), (book, model)
        if reference is not None:
            assert type(result.witness[2]) is ReceivedRows
        verdicts.add(result.is_code)
    assert verdicts == {True, False}


@pytest.mark.parametrize("kind", ["sub-per-row", "sub-total", "del-per-row", "del-total"])
def test_ball_oracle_on_books_of_mixed_shapes(kind):
    """Books that mix q and n, and k under the total kinds (a per-row
    model fixes k), get the pair-by-pair reference's verdict and witness:
    words of one shape collide only with each other, each under the count
    vectors of its own k.  Under sub-total the first book is fixed: a
    one-letter word over Phi_{2,2}, then two over Phi_{2,3} one
    substitution apart, which a sweep keyed by (q, n) alone, with the
    first word's k, misses."""
    rng = random.Random(kind)
    cases = []
    if kind == "sub-total":
        book = [Word.from_ranks([0], 2, 2), Word.from_ranks([0], 2, 3), Word.from_ranks([1], 2, 3)]
        assert brute_force_witness(book, sub_total(1)) is not None
        cases.append((book, sub_total(1)))
    for _ in range(24):
        k = rng.choice((2, 3))
        model = random_ball_model(kind, rng, k)
        book = []
        for _ in range(rng.randint(3, 6)):
            q, n = rng.choice((2, 3)), rng.randint(1, 2)
            rows = rng.choice((2, 3)) if kind.endswith("-total") else k
            ranks = [rng.randrange(alphabet_size(q, rows)) for _ in range(n)]
            book.append(Word.from_ranks(ranks, q, rows))
        cases.append((book, model))
    verdicts = set()
    for book, model in cases:
        reference = brute_force_witness(book, model)
        assert oracle_is_code(book, model) == channel.OracleResult(reference), (book, model)
        verdicts.add(reference is None)
    assert verdicts == {True, False}


def test_trusted_outputs_equal_checked_ones():
    """ReceivedRows._of, which skips the checks, gives the object the
    checked constructor gives for every output of seeded words under all
    six models; both enumerators yield the same outputs, each once."""
    rng = random.Random(1709)
    models = [
        sub_per_row(1, 0, 1), sub_total(2), sub_t_rows(1, 1),
        del_per_row(1, 0, 1), del_total(2), del_t_rows(1, 2),
    ]
    for model in models:
        for q in (2, 3):
            ranks = [rng.randrange(alphabet_size(q, 3)) for _ in range(3)]
            word = Word.from_ranks(ranks, q, 3)
            raw = list(channel._raw_rows(word, model))
            assert len(raw) == len(set(raw))
            assert set(raw) == {rows for _, rows, _ in channel.packed_outputs(word, model)}
            for rows in raw:
                trusted, checked = ReceivedRows._of(rows, q, 3), ReceivedRows(rows, q, 3)
                assert trusted == checked and hash(trusted) == hash(checked)


def c1d_code(n):
    """The whole c1d (k=2, a=0) code of length n."""
    return [c1d_encode(msg, 0, 2, n) for msg in product(range(3), repeat=c1d_message_length(2, n))]


@pytest.mark.parametrize(
    "book, model",
    [
        (c1d_code(8), del_total(1)),
        ([cecc1_encode(msg, 0, 2, 8) for msg in product(range(3), repeat=5)], sub_total(1)),
    ],
    ids=["c1d-del-total-1", "lme1-sub-total-1"],
)
def test_ball_oracle_builds_each_distinct_rows_outputs_once(book, model, monkeypatch):
    """One oracle call builds a row's outputs (_row_balls) once per
    distinct (row, count), however many codewords share the row."""
    calls = Counter()
    original = channel._row_balls

    def counting(row, c, q, deletion):
        calls[row, c] += 1
        return original(row, c, q, deletion)

    monkeypatch.setattr(channel, "_row_balls", counting)
    assert oracle_is_code(book, model).is_code
    distinct = {(row, 1) for word in book for row in word.packed}
    assert len(distinct) < 2 * len(book)
    assert calls == Counter(dict.fromkeys(distinct, 1))


@pytest.mark.parametrize("kind", ["sub-per-row", "sub-total", "del-per-row", "del-total"])
def test_raw_rows_with_a_shared_row_memo_equal_fresh_ones(kind):
    """One shape's sweep (_row_sweep), whose row memo the ball oracle
    shares among all the words of that shape, yields the same sequence as
    a fresh _raw_rows, and that sequence is the received rows of
    packed_outputs, in order."""
    rng = random.Random(kind)
    reused = 0  # (row, count) entries a word found in the sweep's memo
    for q, k in product((2, 3), (2, 3)):
        size = alphabet_size(q, k)
        for _ in range(3):
            model = random_ball_model(kind, rng, k)
            tops = channel._count_vectors(model, k, 3)[1]
            sweep, seen = channel._row_sweep(model, q, k, 3), set()
            for _ in range(12):
                word = Word.from_ranks([rng.randrange(size) for _ in range(3)], q, k)
                hit = {(row, top) for row, top in zip(word.packed, tops) if top}
                reused += len(hit & seen)
                seen |= hit
                memo = list(sweep(word.packed))
                assert memo == list(channel._raw_rows(word, model)), (word, model)
                assert memo == [
                    rows for _, rows, _ in channel.packed_outputs(word, model)
                ], (word, model)
    assert reused


WITNESS = "verdict: false\nwitness codeword A:\n{}witness codeword B:\n{}shared received:\n{}"


@pytest.mark.parametrize(
    "book, model, e, expected",
    [
        (c1d_code(8), "del-total", "1", "verdict: true\n"),
        # the benchmark's negative control: the c1d (k=2, n=7) code under two deletions
        (
            c1d_code(7), "del-total", "2",
            WITNESS.format("2 2 7\n0000000\n0000000\n", "2 2 7\n0001000\n0001000\n",
                           "2 2 7\n000000\n000000\n"),
        ),
        (
            c1d_code(7)[100:], "del-total", "2",
            WITNESS.format("2 2 7\n0000101\n0100111\n", "2 2 7\n0000110\n0100110\n",
                           "2 2 7\n000010\n010011\n"),
        ),
        (
            [cecc1_encode(msg, 0, 2, 8) for msg in product(range(3), repeat=5)],
            "sub-total", "1", "verdict: true\n",
        ),
        (
            [cecc1_encode(msg, 0, 2, 8) for msg in product(range(3), repeat=5)],
            "sub-total", "2",
            WITNESS.format("2 2 8\n00000000\n00000000\n", "2 2 8\n00000100\n00001100\n",
                           "2 2 8\n00000000\n00000100\n"),
        ),
        (
            all_words(3, 2, 3)[::7], "sub-per-row", "1,0",
            WITNESS.format("3 2 3\n000\n011\n", "3 2 3\n011\n011\n", "3 2 3\n001\n011\n"),
        ),
        (
            all_words(3, 2, 3)[::7], "del-per-row", "0,1",
            WITNESS.format("3 2 3\n000\n011\n", "3 2 3\n000\n110\n", "3 2 3\n000\n11\n"),
        ),
        (
            all_words(3, 2, 3)[::7][5:], "sub-total", "1",
            WITNESS.format("3 2 3\n022\n022\n", "3 2 3\n021\n122\n", "3 2 3\n021\n022\n"),
        ),
    ],
    ids=["c1d8-true", "c1d7-del2", "c1d7-tail-del2", "lme1-true", "lme1-sub2",
         "q3-sub-per-row", "q3-del-per-row", "q3-sub-total"],
)
def test_verify_code_output_is_fixed(book, model, e, expected, capsys, tmp_path):
    """verify-code prints these fixed verdicts and witnesses, byte for byte."""
    path = tmp_path / "book.txt"
    path.write_text("\n".join(word_to_text(w) for w in book))
    code = cli.main(["verify-code", "--model", model, "--e", e, "--in", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, expected, "")


@pytest.mark.parametrize(
    "codebook, model, calls",
    [
        # the C2S (q=2, k=3, t=2, m=1) code: a true verdict builds no ball
        (
            [c2s_encode(p, C2SSpec(2, 3, 2, 1)) for p in all_words(2, 3, 1)],
            sub_t_rows(1, 1),
            0,
        ),
        # a false verdict builds the balls of the witness pair only
        (all_words(2, 3, 2), sub_t_rows(1, 1), 2),
        (all_words(2, 3, 2), del_t_rows(1, 1), 2),
    ],
)
def test_t_rows_oracle_builds_balls_only_for_the_witness(codebook, model, calls, monkeypatch):
    seen = []
    original = channel._raw_rows

    def counting(word, model):
        seen.append(word)
        return original(word, model)

    monkeypatch.setattr(channel, "_raw_rows", counting)
    result = oracle_is_code(codebook, model)
    assert len(seen) == calls
    assert result.is_code == (calls == 0)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_oracle_monotone_under_subsetting(data):
    Q = alphabet_size(2, 2)
    n = 2
    pool = [
        Word.from_ranks(rs, 2, 2) for rs in product(range(Q), repeat=n)
    ]
    size = data.draw(st.integers(2, 5))
    books = data.draw(
        st.lists(st.sampled_from(pool), min_size=size, max_size=size, unique=True)
    )
    model = sub_per_row(1, 0)
    if oracle_is_code(books, model).is_code:
        smaller = books[:-1]
        assert oracle_is_code(smaller, model).is_code


# ---------------------------------------------------------------------------
# text round trips
# ---------------------------------------------------------------------------

def test_received_text_round_trip_with_empty_row():
    rec = ReceivedRows(((), (1,)), q=2, n=1)
    text = received_to_text(rec)
    assert text == "2 2 1\n\n1\n"
    assert received_from_text(text) == rec


def test_received_text_round_trip_general():
    rec = ReceivedRows(((0, 1, 2), (1, 2)), q=3, n=4)
    assert received_from_text(received_to_text(rec)) == rec


def test_received_from_text_rejects_garbage():
    with pytest.raises(ValueError):
        received_from_text("")
    with pytest.raises(ValueError):
        received_from_text("2 2\n01\n01\n")
    with pytest.raises(ValueError):
        received_from_text("2 2 2\n0a\n01\n")
    # blank lines before the header and after the rows are fine, trailing
    # content is not
    assert received_from_text("\n \n2 2 2\n01\n01\n").rows == ((0, 1), (0, 1))
    assert received_from_text("2 2 2\n01\n01\n\n\n").rows == ((0, 1), (0, 1))
    with pytest.raises(ValueError):
        received_from_text("2 2 2\n01\n01\n\n2 2 2\n00\n00\n")


def test_received_rows_validation():
    cases = [
        (((0, 1, 1),), 2, "need k >= 2 rows"),
        (((0, 1, 1, 1), (0, 1)), 2, "row longer than the nominal length"),
        (((0, 2), (0, 1)), 2, "row digits must lie in Sigma_2"),
        (((0, 1), (1, -1)), 2, "row digits must lie in Sigma_2"),
        (((), (0, 3, 1)), 3, "row digits must lie in Sigma_3"),
    ]
    for rows, q, message in cases:
        with pytest.raises(ValueError) as info:
            ReceivedRows(rows, q=q, n=3)
        assert str(info.value) == message
    assert ReceivedRows(((), (0, 2, 1)), q=3, n=3).rows == ((), (0, 2, 1))


def test_received_rows_refuse_a_base_or_length_no_word_has():
    # a word has 2 <= q <= 256 and n >= 1, and so has every output of one
    cases = [
        (((0, 1), (1, 1)), 300, 2, "alphabet base q must be <= 256 (rows are bytes), got 300"),
        (((0, 0), (0, 0)), 1, 2, "alphabet base q must be >= 2, got 1"),
        (((), ()), 2, 0, "nominal length n must be >= 1, got 0"),
    ]
    for rows, q, n, message in cases:
        with pytest.raises(ValueError) as info:
            ReceivedRows(rows, q=q, n=n)
        assert str(info.value) == message


# a malformed header or digit line, put in a word text and in a received text
MALFORMED_TEXT = {
    "short-header": ("2 2", ["01", "01"]),
    "header-not-int": ("2 x 2", ["01", "01"]),
    "arabic-indic-header": ("\u0662 2 2", ["00", "01"]),
    "signed-header": ("+2 2 2", ["00", "01"]),
    "underscored-header": ("1_0 2 2", ["00", "01"]),
    "q-one": ("1 2 2", ["00", "00"]),
    "q-eleven": ("11 2 2", ["01", "01"]),
    "q-twelve": ("12 2 2", ["01", "01"]),
    "k-one": ("2 1 2", ["01"]),
    "n-zero": ("2 2 0", ["", ""]),
    "arabic-indic-digits": ("3 2 3", ["0\u0661\u0662", "012"]),
    "fullwidth-digit": ("2 2 2", ["0\uff11", "01"]),
    "superscript-digit": ("3 2 2", ["0\u00b2", "01"]),
    "letter": ("2 2 2", ["0a", "01"]),
    "sign": ("2 2 2", ["+1", "01"]),
    "inner-space": ("2 2 3", ["0 1", "011"]),
}


@pytest.mark.parametrize("case", MALFORMED_TEXT)
def test_word_and_received_readers_refuse_the_same_text(case):
    header, lines = MALFORMED_TEXT[case]
    text = "\n".join([header, *lines]) + "\n"
    with pytest.raises(ValueError):
        word_from_text(text)
    with pytest.raises(ValueError):
        received_from_text(text)


@st.composite
def received_rows(draw):
    q = draw(st.sampled_from([2, 3, 4, 7, 10, 11, 256]))
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), max_size=n), min_size=2, max_size=4))
    return ReceivedRows(rows, q, n)


@given(received_rows())
def test_every_received_text_written_reads_back(received):
    if received.q > 10:
        with pytest.raises(ValueError):
            received_to_text(received)
    else:
        assert received_from_text(received_to_text(received)) == received


@pytest.mark.parametrize(
    "family, model, built, distinct",
    [
        ("c2s", sub_t_rows(1, 1), 1141, 1141),
        ("c2d", del_t_rows(1, 1), 309, 309),
    ],
)
def test_raw_set_t_rows_builds_each_budget_assignment_once(
    family, model, built, distinct, monkeypatch
):
    """Each output is built once: equal budgets are not assigned in both
    orders, and a row subset does not repeat the outputs of its subsets."""
    if family == "c2s":
        word = c2s_encode(Word.from_ranks((0, 1, 2), 2, 3), C2SSpec(2, 3, 2, 3))
    else:
        payload = Word.from_ranks((0, 1, 2, 3, 0, 1, 2, 3), 2, 3)
        word = c2d_encode(payload, C2DSpec(3, 2, 8))
    calls = []
    original = ReceivedRows.__post_init__

    def counting(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(ReceivedRows, "__post_init__", counting)
    outputs = raw_received_set(word, model)
    assert (len(calls), len(outputs)) == (built, distinct)
