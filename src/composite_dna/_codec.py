"""Steps shared by the deletion and substitution code families.

* check_shape / intake: the decoders' check of the received shape against
  the spec; intake also checks the full-length rows of the substitution
  codes;
* check_payload: the systematic encoders' payload check;
* check_t_rows: the t-row constructions' range 2 <= t <= k;
* invalid_column: the one column of a received word that is no letter,
  read from the ranks that alphabet.column_ranks gives the columns of its
  packed rows, so a decoder looks each column up once and re-ranks only a
  column it repairs;
* block_value: the value that a block of digit columns spells, composed
  by algebra.compose without compose_base's digit check, since the ranks
  it composes lie below the alphabet size;
* out_of_model: a ValueError from a lower layer, met after the intake,
  means the received word lay outside the model, so it becomes a
  DecodeFailure;
* RowCode: the single-error code that every row of a t-row construction
  carries: the weighted power sums of its syndromes that the codeword
  stores (RowCode.row_sums of the payload rows), their check against the
  targets, and the one Vandermonde solve that recovers unknown rows'
  syndromes from them;
* repair_rows: the row-repair core of every t-row syndrome decoder, on
  clean and damaged words alike; it returns the repaired word and the
  syndromes of all its rows, so a re-encode or a certificate needs no
  second pass over the intact rows.  The rows it holds, received slices
  and row-decoder output, are all bytes, so the word is built from them
  by alphabet.Word._of_rows, without packing or checking them again.

Everything in a repair that depends only on the spec is read from tables
that the spec's RowCode keeps: the weights (i + 1)^j mod p of the power
sums, and the inverse of each Vandermonde system met, which one
algebra.solve_mod_p against the identity gives, so that a solve is one
small matrix-vector multiply mod p.  The tables live as long as the
RowCode: a spec's, or, for the congruence codes, which have no spec, one
of the few that codes_deletion keeps.
"""

from __future__ import annotations

from operator import mul

from .alphabet import Word, column_rank, column_ranks
from .algebra import compose, solve_mod_p
from .vt_core import DecodeFailure


def check_shape(received, spec) -> None:
    if (received.q, received.k, received.n) != (spec.q, spec.k, spec.n):
        raise ValueError("received shape does not match the code spec")


def intake(received, spec=None):
    """The received packed rows, after checking (q, k, n) against the spec
    when one is given, and that every row has full length."""
    if spec is not None:
        check_shape(received, spec)
    if {*map(len, received.packed)} != {received.n}:
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
    word's packed rows (alphabet.column_ranks), or None; a second one is a
    DecodeFailure.
    For digits of Sigma_q a column ranks None exactly when it is not
    nondecreasing."""
    invalid = ranks.count(None)
    if invalid > 1:
        raise DecodeFailure("more than one invalid column; model breach")
    return ranks.index(None) if invalid else None


def block_value(segments, q: int, base: int) -> int:
    """The value of a block given each row's segment of it, a bytes slice of
    the packed row: its columns are base-`base` digits, least significant
    first, each the rank of a letter, so below base, the alphabet size.  The
    columns are looked up at once (alphabet.column_ranks of the segments);
    if one is no letter, column_rank names it."""
    ranks = column_ranks(segments, q)
    return compose([column_rank(c, q) for c in zip(*segments)] if None in ranks else ranks, base)


def out_of_model(func, *args):
    """func(*args), where a ValueError means that the received word lay
    outside the model: it leaves as a DecodeFailure."""
    try:
        return func(*args)
    except ValueError as exc:
        raise DecodeFailure(str(exc)) from None


class RowCode:
    """The single-error code of each row of a t-row construction: a row's
    syndrome(row) lies below lift_bound, and the codeword stores the
    weighted power sums mod p = modulus of the rows' syndromes, row i
    (0-indexed) weighted by its node i + 1 to the power j.

    What depends only on p is built once and kept: the weights
    (i + 1)^j mod p per (row count, exponent), and the inverse of each
    Vandermonde system per (unknown rows, exponents), which one
    solve_mod_p against the identity gives.  A system that solve_mod_p
    refuses stores nothing, so it raises the same error on every call."""

    def __init__(self, syndrome, modulus: int, lift_bound: int):
        self.syndrome, self.modulus, self.lift_bound = syndrome, modulus, lift_bound
        self._weights, self._inverses = {}, {}  # (count, j) and (unknown, exponents) keys

    def sums(self, values, exponents) -> list[int]:
        """[sum_i (i + 1)^j * values[i] mod p for j in exponents], each one
        C-level dot product with its weights.  A single exponent 0 gives
        the plain sum mod p of the single-row codes."""
        p, count, out = self.modulus, len(values), []
        for j in exponents:
            weights = self._weights.get((count, j))
            if weights is None:
                weights = tuple(pow(i, j, p) for i in range(1, count + 1))
                self._weights[count, j] = weights
            out.append(sum(map(mul, weights, values)) % p)
        return out

    def row_sums(self, rows, count: int) -> list[int]:
        """The first count power sums of the rows' syndromes, the values
        that a codeword stores for its payload rows."""
        return self.sums(list(map(self.syndrome, rows)), range(count))

    def holds(self, values, targets) -> bool:
        """Whether the row syndromes values give the targets as their first
        len(targets) power sums."""
        return self.sums(values, range(len(targets))) == [a % self.modulus for a in targets]

    def solve(self, values, exponents, sums) -> list[int]:
        """The unknown entries (None) of values, in row order, given the
        power sums read for the given exponents: the known rows' part is
        subtracted and the rest is the Vandermonde system mod p in the
        unknown rows' nodes, solved by a multiply by its inverse.

        The system is square when there are as many exponents as unknowns.
        It is invertible when p is a prime above every node difference and
        the exponents are consecutive from 0, when p > f(k, t), or when
        there is one unknown and the exponent is 0, for any modulus.
        """
        p, exponents = self.modulus, tuple(exponents)
        if len(sums) != len(exponents):
            raise ValueError(f"need one power sum per exponent, got {len(sums)} for {len(exponents)}")
        unknown = tuple(i for i, v in enumerate(values) if v is None)
        known = self.sums([0 if v is None else v for v in values], exponents)
        rhs = [s - c for s, c in zip(sums, known)]
        inverse = self._inverses.get((unknown, exponents))
        if inverse is None:
            matrix = [[pow(i + 1, j, p) for i in unknown] for j in exponents]
            identity = [[int(r == c) for c in range(len(matrix))] for r in range(len(matrix))]
            inverse = solve_mod_p(matrix, identity, p)
            self._inverses[unknown, exponents] = inverse
        return [sum(map(mul, row, rhs)) % p for row in inverse]


def repair_rows(
    rows, q: int, unknown, usable, read_sum, code: RowCode, decode_row
) -> tuple[Word, list[int]]:
    """Rebuild the rows listed in unknown; return the repaired word and the
    syndromes of all its rows.

    The known rows' syndromes, code.syndrome(row), and the sums read_sum(j)
    of the first len(unknown) usable syndrome indices j leave one
    Vandermonde solve mod code.modulus for the unknown rows' syndromes
    (code.solve: a multiply by the system's inverse, which code keeps per
    unknown rows and indices); with no unknown row there is no solve.
    Each solved residue must lie below code.lift_bound, the range of a true
    row syndrome, and decode_row(i, residue) then rebuilds row i, whose
    returned syndrome is that of the decoded row, not the residue: a caller
    that re-encodes or certifies from them checks the row decoder, not
    trusts it.  Too few usable indices, a residue that does not lift and a
    word with an invalid column are DecodeFailures.
    """
    chosen = list(usable)[: len(unknown)]
    if len(chosen) < len(unknown):
        raise DecodeFailure("fewer intact syndrome blocks than dirty rows; breach")
    values = [None if i in unknown else code.syndrome(row) for i, row in enumerate(rows)]
    rows = list(rows)
    if unknown:
        sums = [read_sum(j) for j in chosen]
        for i, value in zip(unknown, code.solve(values, chosen, sums)):
            if value >= code.lift_bound:
                raise DecodeFailure("solved syndrome residue does not lift; breach")
            rows[i] = decode_row(i, value)
            values[i] = code.syndrome(rows[i])
    return out_of_model(Word._of_rows, tuple(rows), q), values
