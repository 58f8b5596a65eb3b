"""Steps shared by the deletion and substitution code families.

* intake: the decoders' check of the received shape against the spec, and
  of full-length rows for the substitution codes;
* check_payload: the systematic encoders' payload check;
* check_t_rows: the t-row constructions' range 2 <= t <= k;
* invalid_column: the one column of a received word that is no letter,
  read from the ranks that alphabet.column_ranks gives its columns, so a
  decoder looks each column up once and re-ranks only a column it repairs;
* compose: the value of base-`base` digits that the codec built itself,
  without algebra.compose_base's digit check;
* block_value: the value that a block of digit columns spells;
* out_of_model: a ValueError from a lower layer, met after the intake,
  means the received word lay outside the model, so it becomes a
  DecodeFailure;
* repair_rows: the row-repair core of every t-row syndrome decoder; it
  returns the repaired word and the syndromes of all its rows, so a
  re-encode needs no second pass over the intact rows.
"""

from __future__ import annotations

from .alphabet import Word, column_rank
from .algebra import solve_power_sums
from .vt_core import DecodeFailure


def intake(received, spec=None, full_length: bool = True):
    """The received packed rows, after checking (q, k, n) against the spec
    when one is given and, for substitution codes, that every row has full
    length."""
    if spec is not None and (received.q, received.k, received.n) != (
        spec.q, spec.k, spec.n
    ):
        raise ValueError("received shape does not match the code spec")
    if full_length and any(len(row) != received.n for row in received.packed):
        raise ValueError("substitution decoding expects full-length rows")
    return received.packed


def check_payload(payload: Word, spec) -> None:
    if (payload.q, payload.k, payload.n) != (spec.q, spec.k, spec.m):
        raise ValueError(
            f"payload must be a ({spec.q},{spec.k}) word of length {spec.m}"
        )


def check_t_rows(k: int, t: int) -> None:
    if not 2 <= t <= k:
        raise ValueError("need 2 <= t <= k")


def invalid_column(ranks) -> int | None:
    """The index of the only None in ranks, the column ranks of a received
    word (alphabet.column_ranks), or None; a second one is a DecodeFailure.
    For digits of Sigma_q a column ranks None exactly when it is not
    nondecreasing."""
    invalid = ranks.count(None)
    if invalid > 1:
        raise DecodeFailure("more than one invalid column; model breach")
    return ranks.index(None) if invalid else None


def compose(digits, base: int) -> int:
    """The value of digits, least significant first, each an int below base
    (unchecked: the caller built or checked them)."""
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


def block_value(segments, q: int, base: int) -> int:
    """The value of a block given each row's segment of it: its columns are
    base-`base` digits, least significant first, each the rank of a letter,
    so below base, the alphabet size."""
    return compose([column_rank(col, q) for col in zip(*segments)], base)


def out_of_model(func, *args):
    """func(*args), where a ValueError means that the received word lay
    outside the model: it leaves as a DecodeFailure."""
    try:
        return func(*args)
    except ValueError as exc:
        raise DecodeFailure(str(exc)) from None


def repair_rows(
    rows, q: int, unknown, usable, read_sum, row_syndrome, modulus: int,
    lift_bound: int, decode_row,
) -> tuple[Word, list[int]]:
    """Rebuild the rows listed in unknown; return the repaired word and the
    syndromes of all its rows.

    The known rows' syndromes, row_syndrome(row), and the sums read_sum(j)
    of the first len(unknown) usable syndrome indices j leave one
    Vandermonde solve mod modulus for the unknown rows' syndromes
    (algebra.solve_power_sums).  Each solved residue must lie below
    lift_bound, the range of a true row syndrome, and decode_row(i, residue)
    then rebuilds row i, whose returned syndrome is row_syndrome of that
    decoded row, not the residue: a caller that re-encodes from them checks
    the row decoder, not trusts it.  Too few usable indices, a residue that
    does not lift and a repaired word with an invalid column are
    DecodeFailures.
    """
    chosen = list(usable)[: len(unknown)]
    if len(chosen) < len(unknown):
        raise DecodeFailure("fewer intact syndrome blocks than dirty rows; breach")
    values = [
        None if i in unknown else row_syndrome(row) for i, row in enumerate(rows)
    ]
    sums = [read_sum(j) for j in chosen]
    rows = list(rows)
    for i, value in zip(unknown, solve_power_sums(values, chosen, sums, modulus)):
        if value >= lift_bound:
            raise DecodeFailure("solved syndrome residue does not lift; breach")
        rows[i] = decode_row(i, value)
        values[i] = row_syndrome(rows[i])
    return out_of_model(Word.from_rows, rows, q), values
