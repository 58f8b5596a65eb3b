"""Tests for the shared algebra helpers."""

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from composite_dna import algebra
from composite_dna._codec import RowCode
from composite_dna.algebra import (
    SingularMatrixError,
    _reference_cw_rank,
    _reference_cw_unrank,
    all_submatrices_invertible,
    are_digits,
    compose_base,
    cw_rank,
    cw_unrank,
    det,
    digit_width,
    enumerate_ssts,
    expand_base,
    f_threshold,
    is_prime,
    next_prime_bertrand,
    partition_is_valid,
    schur_eval,
    smallest_prime_at_least,
    solve_mod_p,
    vandermonde_shape_det,
)
from composite_dna.alphabet import Word
from composite_dna.channel import Plan, apply_errors, sub_total
from composite_dna.codes_deletion import MarkerSpec, c1d_encode
from composite_dna.codes_substitution import (
    C2SSpec, DollSpec, cecc1_encode, enc_doll, hamming_build,
)
from composite_dna.vt_core import lme_encode


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

def test_is_prime_matches_sympy():
    for n in range(0, 500):
        assert is_prime(n) == sympy.isprime(n)


def test_next_prime_bertrand():
    assert next_prime_bertrand(4) == 5
    assert next_prime_bertrand(5) == 7
    assert next_prime_bertrand(6) == 7
    assert next_prime_bertrand(12) == 13
    for m in range(2, 200):
        p = next_prime_bertrand(m)
        assert m < p < 2 * m and sympy.isprime(p)
        assert p == sympy.nextprime(m)
    with pytest.raises(ValueError):
        next_prime_bertrand(1)


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(3) == 3
    assert smallest_prime_at_least(4) == 5
    assert smallest_prime_at_least(14) == 17
    with pytest.raises(ValueError):
        smallest_prime_at_least(1)


# ---------------------------------------------------------------------------
# base expansions
# ---------------------------------------------------------------------------

def test_expand_base_known_values():
    assert expand_base(3, 2, 2) == (1, 1)
    assert expand_base(4, 2, 3) == (0, 0, 1)
    assert expand_base(2, 3, 1) == (2,)
    assert expand_base(0, 5, 0) == ()
    with pytest.raises(ValueError):
        expand_base(5, 2, 2)


@pytest.mark.parametrize("base", [2, 3, 4, 7, 256])
@pytest.mark.parametrize("width", [128, 129, 300, 1000])
def test_expand_base_splits_a_long_value_into_the_same_digits(base, width):
    """Above 128 digits expand_base splits the value in halves; the digits
    are still value // base**i % base, and compose_base takes them back."""
    value = random.Random(base * width).randrange(base**width)
    digits = expand_base(value, base, width)
    assert digits == tuple(value // base**i % base for i in range(width))
    assert compose_base(digits, base) == value
    assert expand_base(0, 1, width) == (0,) * width


def test_expand_base_in_base_one_has_only_zero():
    assert expand_base(0, 1, 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        expand_base(1, 1, 2)


def test_digit_width():
    assert digit_width(2, 1) == 0
    assert digit_width(2, 2) == 1
    assert digit_width(3, 5) == 2
    assert digit_width(3, 9) == 2
    assert digit_width(3, 10) == 3


@given(st.integers(2, 8), st.integers(0, 10_000))
def test_expand_compose_round_trip(base, value):
    width = digit_width(base, value + 1)
    digits = expand_base(value, base, width)
    assert compose_base(digits, base) == value
    assert len(digits) == width


# Entry points that take digits from a caller, each with the message it gives
# a digit outside its range.  A digit that is no int (1.5) once passed some of
# them, which returned a wrong word or a non-word, and made others raise
# TypeError; every one now applies are_digits.
NON_INT_DIGIT = {
    "enc_doll": (
        lambda: enc_doll((1.5, 1.5), DollSpec(2, 2, 4)), "message symbols must lie in [0, 3)",
    ),
    "lme_encode": (
        lambda: lme_encode((1.5, 0, 0, 0, 0), 0, 3, 8), "message is not over Sigma_3",
    ),
    "hamming_encode": (
        lambda: hamming_build(5, 3).encode((1.5, 0)), "message symbols must lie in F_3",
    ),
    "compose_base": (lambda: compose_base((0.5, 1), 2), "digit 0.5 out of range for base 2"),
    "Word": (lambda: Word(2, 2, (0, 1.5)), "rank 1.5 out of range for Phi_{2,2} (size 3)"),
    "c1d_encode": (
        lambda: c1d_encode((0, 1.5, 0), 0, 2, 5), "rank 1.5 out of range for Phi_{2,2} (size 3)",
    ),
    "cecc1_encode": (
        lambda: cecc1_encode((1.5, 0, 0, 0), 0, 2, 7), "message is not over Sigma_3",
    ),
    "apply_errors": (
        lambda: apply_errors(Word(2, 2, (0, 1)), sub_total(1), Plan(((0, 0, 1.5),))),
        "substituted value 1.5 outside Sigma_2",
    ),
}


@pytest.mark.parametrize("entry", NON_INT_DIGIT)
def test_entry_points_refuse_a_digit_that_is_no_int(entry):
    call, message = NON_INT_DIGIT[entry]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


# Arguments outside an entry point's domain, each with the message it gives.
OUT_OF_DOMAIN = {
    "digit_width": (lambda: digit_width(1, 5), "need base >= 2 and bound >= 1, got 1, 5"),
    "cw_unrank": (lambda: cw_unrank(1, 2, 3), "need 0 <= w <= n, got w=3, n=2"),
    "enumerate_ssts": (lambda: list(enumerate_ssts((1,), -1)), "alphabet size s must be >= 0"),
    "vandermonde-not-a-partition": (
        lambda: vandermonde_shape_det((1, 2), (1, 2)), "not a partition: (1, 2)",
    ),
    "vandermonde-lengths": (
        lambda: vandermonde_shape_det((1,), (1, 2)), "shape and point must have equal length",
    ),
    "solve-not-square": (
        lambda: solve_mod_p([[1, 2]], [1], 5), "solve_mod_p expects a square system",
    ),
    "solve-modulus": (lambda: solve_mod_p([[1]], [1], 1), "modulus must be >= 2, got 1"),
    "all_submatrices_invertible": (
        lambda: all_submatrices_invertible(2, 1, 5), "need 2 <= t <= k, got t=1, k=2",
    ),
    "RowCode.solve-sums": (
        lambda: RowCode(None, 37, 37).solve([None, 1], (0, 1), [3]),
        "need one power sum per exponent, got 1 for 2",
    ),
    "RowCode.solve-extra-sums": (
        lambda: RowCode(None, 37, 37).solve([None, 1], (0,), [3, 9]),
        "need one power sum per exponent, got 2 for 1",
    ),
}


@pytest.mark.parametrize("entry", OUT_OF_DOMAIN)
def test_entry_points_refuse_arguments_outside_their_domain(entry):
    call, message = OUT_OF_DOMAIN[entry]
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "digits, base, expected",
    [
        ((), 2, True), ((0, 1, 1), 2, True), (b"\x00\x02", 3, True), ((True, 0), 2, True),
        ((0, 2), 2, False), ((-1,), 2, False), ((1.0,), 2, False), (("1",), 2, False),
        ((299, 0), 300, True), ((300,), 300, False), ((-1,), 300, False), ((1.0,), 300, False),
        ((10**12,), 10**12 + 1, True),
        # a bytes row is tested by one translate that deletes range(base)
        (b"\x00\x03", 3, False), (b"\xff", 255, False), (b"\xff", 256, True),
        (b"\xff\x00", 300, True), (b"", 0, True), (b"\x00", 0, False), (b"\x00", -1, False),
    ],
)
def test_are_digits(digits, base, expected):
    assert are_digits(digits, base) is expected


# ---------------------------------------------------------------------------
# constant-weight ranking
# ---------------------------------------------------------------------------

def test_cw_rank_known_values():
    assert cw_rank((1, 0, 0)) == 1
    assert cw_rank((1, 0, 1)) == 2
    assert cw_rank((0, 1, 1)) == 3
    assert cw_unrank(3, 3, 2) == (0, 1, 1)
    assert cw_unrank(1, 3, 1) == (1, 0, 0)


def test_cw_rank_validation():
    with pytest.raises(ValueError):
        cw_rank((1, 0, 1), w=1)
    with pytest.raises(ValueError):
        cw_rank((2, 0))
    with pytest.raises(ValueError):
        cw_unrank(0, 4, 2)
    with pytest.raises(ValueError):
        cw_unrank(comb(4, 2) + 1, 4, 2)


@pytest.mark.parametrize("bits", ["101", ("1", 0), (1, 0.5), (-1, 1), (1, 2)])
def test_cw_rank_takes_only_0_1_bits(bits):
    # digit strings were int()-converted before, and ranked
    with pytest.raises(ValueError, match="bits must be 0/1"):
        cw_rank(bits)
    assert cw_rank((True, False, True)) == cw_rank((1, 0, 1)) == 2


@pytest.mark.parametrize("n", range(1, 8))
def test_cw_bijection(n):
    for w in range(0, n + 1):
        seqs = [bits for bits in product((0, 1), repeat=n) if sum(bits) == w]
        ranks = sorted(cw_rank(bits) for bits in seqs)
        assert ranks == list(range(1, comb(n, w) + 1))
        for bits in seqs:
            assert cw_unrank(cw_rank(bits), n, w) == bits


def test_cw_rank_and_unrank_agree_with_their_references_exhaustively():
    """The incremental binomials give the ranks and words that binomials
    built from scratch give: every word and every index for n <= 12."""
    for n in range(13):
        for bits in product((0, 1), repeat=n):
            assert cw_rank(bits) == _reference_cw_rank(bits), bits
        for w in range(n + 1):
            for index in range(1, comb(n, w) + 1):
                assert cw_unrank(index, n, w) == _reference_cw_unrank(index, n, w)


def test_cw_rank_and_unrank_at_long_length_build_at_most_two_binomials(monkeypatch):
    """At n = 1024 each binomial comes from the last one, so cw_unrank and
    cw_rank together call comb at most twice, where one comb call per
    position (or per one) rebuilt an O(n)-bit number each time."""
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return comb(n, k)

    rng = random.Random(1024)
    for w in (1, 341, 512, 1023):
        index = rng.randrange(1, comb(1024, w) + 1)
        expected = _reference_cw_unrank(index, 1024, w)
        monkeypatch.setattr(algebra, "comb", counting)
        calls.clear()
        bits = cw_unrank(index, 1024, w)
        assert cw_rank(bits, w) == index
        monkeypatch.undo()
        assert len(calls) <= 2 and bits == expected


# ---------------------------------------------------------------------------
# tableaux and Schur polynomials
# ---------------------------------------------------------------------------

def hook_content_count(shape, s):
    '''independent SST count via the hook content formula'''
    shape = tuple(x for x in shape)
    conj = [sum(1 for row in shape if row > c) for c in range(shape[0] if shape else 0)]
    total = Fraction(1)
    for r, length in enumerate(shape):
        for c in range(length):
            hook = (length - c - 1) + (conj[c] - r - 1) + 1
            total *= Fraction(s + c - r, hook)
    assert total.denominator == 1
    return total.numerator


def test_sst_known_values():
    # shape (2,1,0) with 3 letters: 8 tableaux
    assert len(enumerate_ssts((2, 1, 0), 3)) == 8
    assert schur_eval((2, 1, 0), (1, 1, 1)) == 8
    # zero partition: the single empty tableau
    assert len(enumerate_ssts((0, 0), 2)) == 1
    assert schur_eval((0, 0), (5, 7)) == 1


def test_sst_structure():
    tabs = enumerate_ssts((2, 1), 3)
    assert len(tabs) == 8
    for tab in tabs:
        (a, b), (c,) = tab
        assert a <= b and a < c


@pytest.mark.parametrize(
    "shape,s",
    [((1,), 4), ((2,), 3), ((1, 1), 3), ((2, 1), 3), ((2, 2), 3), ((3, 1), 4), ((2, 1, 1), 4)],
)
def test_sst_count_matches_hook_content(shape, s):
    assert len(enumerate_ssts(shape, s)) == hook_content_count(shape, s)


def test_partition_validation():
    assert partition_is_valid((3, 1, 0))
    assert not partition_is_valid((1, 2))
    assert not partition_is_valid((1, -1))
    with pytest.raises(ValueError):
        enumerate_ssts((1, 2), 3)


def test_vandermonde_shape_det_known_values():
    assert vandermonde_shape_det((0, 0), (1, 2), 5) == 1
    # det [[1,1],[1,4]] = 3 = s_(1,0)(1,2) * det V_0
    assert vandermonde_shape_det((1, 0), (1, 2), 5) == 3
    assert vandermonde_shape_det((1, 0), (1, 2)) == 3


@settings(max_examples=60)
@given(st.data())
def test_schur_division_identity(data):
    s = data.draw(st.integers(1, 3), label="s")
    shape = tuple(
        sorted(
            data.draw(st.lists(st.integers(0, 3), min_size=s, max_size=s), label="shape"),
            reverse=True,
        )
    )
    p = data.draw(st.sampled_from([5, 7, 11, 13]), label="p")
    xs = tuple(data.draw(st.lists(st.integers(1, 12), min_size=s, max_size=s, unique=True), label="xs"))
    left = vandermonde_shape_det(shape, xs, p)
    v0 = vandermonde_shape_det((0,) * s, xs, p)
    right = (schur_eval(shape, xs) * v0) % p
    assert left == right


# ---------------------------------------------------------------------------
# linear algebra: Bareiss determinant and modular solve
# ---------------------------------------------------------------------------

def leibniz_det(matrix):
    """The permutation-sum determinant: an oracle independent of elimination."""
    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(matrix[i][perm[i]] for i in range(n))
    return total


def test_det_matches_leibniz():
    rng = random.Random(17)
    for n in range(6):
        for _ in range(40):
            matrix = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n and rng.random() < 0.5:
                # a zero leading pivot forces a row swap
                matrix[0][0] = 0
            assert det(matrix) == leibniz_det(matrix)
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[0, 0], [3, 4]]) == 0
    assert det([]) == 1
    with pytest.raises(ValueError):
        det([[1, 2]])


def test_solve_mod_p():
    # x + y = 3, x + 2y = 5 over F_7 -> x = 1, y = 2
    assert solve_mod_p([[1, 1], [1, 2]], [3, 5], 7) == [1, 2]


def test_solve_mod_p_singular():
    with pytest.raises(SingularMatrixError):
        solve_mod_p([[1, 1], [2, 2]], [1, 2], 5)
    # invertible over Q but singular mod 3
    with pytest.raises(SingularMatrixError):
        solve_mod_p([[1, 1], [1, 4]], [0, 0], 3)


def test_solve_mod_p_composite_modulus():
    for b in range(-9, 18):
        assert solve_mod_p([[1]], [b], 9) == [b % 9]
    assert solve_mod_p([[2]], [1], 9) == [5]
    # 3 is no unit mod 9
    with pytest.raises(SingularMatrixError):
        solve_mod_p([[3]], [3], 9)
    # the determinant -5 is a unit mod 6, but no entry of column 0 is: larger
    # systems over a composite modulus are refused before any elimination
    with pytest.raises(ValueError, match="only 1 x 1 systems over a composite") as info:
        solve_mod_p([[2, 3], [3, 2]], [1, 1], 6)
    assert not isinstance(info.value, SingularMatrixError)


def test_solve_mod_p_takes_several_right_hand_sides(monkeypatch):
    # one primality test and one elimination serve every right-hand side;
    # against the identity the solution is the inverse
    tested = []
    monkeypatch.setattr(algebra, "is_prime", lambda n: tested.append(n) or is_prime(n))
    matrix = [[1, 1], [1, 2]]
    assert solve_mod_p(matrix, [[1, 0], [0, 1]], 7) == [[2, 6], [6, 1]]
    assert tested == [7]
    both = solve_mod_p(matrix, [[3, 1], [5, 0]], 7)
    assert [list(c) for c in zip(*both)] == [solve_mod_p(matrix, b, 7) for b in ([3, 5], [1, 0])]
    assert solve_mod_p([[2]], [[1, 4]], 9) == [[5, 2]]
    with pytest.raises(SingularMatrixError, match="no unit pivot in column 1 mod 5"):
        solve_mod_p([[1, 1], [2, 2]], [[1, 0], [0, 1]], 5)


@settings(max_examples=40)
@given(st.data())
def test_solve_mod_p_recovers_solution(data):
    p = data.draw(st.sampled_from([5, 7, 11]))
    n = data.draw(st.integers(1, 4))
    matrix = [
        data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
        for _ in range(n)
    ]
    x = data.draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    rhs = [sum(a * b for a, b in zip(row, x)) % p for row in matrix]
    if det(matrix) % p == 0:
        with pytest.raises(SingularMatrixError):
            solve_mod_p(matrix, rhs, p)
    else:
        assert solve_mod_p(matrix, rhs, p) == [v % p for v in x]


def outcome(func, *args):
    """func(*args), or the type and message of the ValueError it raised."""
    try:
        return func(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def explicit_power_sum_solve(values, exponents, sums, p):
    """The Vandermonde system of RowCode.solve written out, the known
    rows' part of each sum subtracted, and handed to solve_mod_p."""
    unknown = [i for i, v in enumerate(values) if v is None]
    matrix = [[pow(i + 1, j, p) for i in unknown] for j in exponents]
    rhs = [
        s - sum(pow(i + 1, j, p) * v for i, v in enumerate(values) if v is not None)
        for s, j in zip(sums, exponents)
    ]
    return solve_mod_p(matrix, rhs, p)


def power_sum_outcomes(k, t, p, rng, tables):
    """For every set of unknown rows among k and every equally large set of
    exponents below t: the explicit solve's outcome, and that of
    tables.solve (tables a RowCode mod p) on its first and second call for
    that system."""
    for size in range(1, t + 1):
        for unknown in combinations(range(k), size):
            for exponents in combinations(range(t), size):
                values = [None if i in unknown else rng.randrange(p) for i in range(k)]
                sums = [rng.randrange(p) for _ in exponents]
                args = (values, list(exponents), sums, p)
                yield (
                    outcome(explicit_power_sum_solve, *args),
                    outcome(tables.solve, *args[:3]),
                    outcome(tables.solve, *args[:3]),
                )


def spec_primes(k, t):
    """The moduli that the marker codes (q = 2, 3) and C2S pick for a few
    payload lengths at (k, t)."""
    floor = f_threshold(k, t)
    primes = {MarkerSpec(q, k, t, m).p for q in (2, 3) for m in (floor, 3 * floor + 5)}
    return primes | {C2SSpec(q, k, t, m).p for q in (2, 4) for m in (1, 40, 300)}


def test_cached_power_sum_solve_matches_the_explicit_solve():
    """At every spec prime for 2 <= t <= k <= 6, every subsystem is
    invertible (p > f(k, t)), and the multiply by the cached inverse gives
    solve_mod_p's solution, cold and warm."""
    rng = random.Random(32)
    systems = 0
    for k in range(2, 7):
        for t in range(2, k + 1):
            for p in sorted(spec_primes(k, t)):
                tables = RowCode(None, p, p)
                for explicit, cold, warm in power_sum_outcomes(k, t, p, rng, tables):
                    assert isinstance(explicit, list), (k, t, p, explicit)
                    assert cold == warm == explicit, (k, t, p)
                    systems += 1
    assert systems > 9_000


def test_cached_power_sum_solve_over_a_composite_modulus():
    """The 1 x 1 systems of the single-row codes, whose modulus n + 1 (c1d)
    or qn (cong-qary-1) need not be prime: exponent 0 is the system [[1]];
    exponent 1 gives an entry i + 1 that may be no unit, so some refuse."""
    rng = random.Random(1)
    moduli = {n + 1 for n in range(3, 12)} | {q * n for q in (3, 4, 5) for n in range(3, 9)}
    refused = 0
    for modulus in sorted(moduli):
        tables = RowCode(None, modulus, modulus)
        for k in (2, 3, 4):
            for i in range(k):
                for j in (0, 1):
                    values = [None if r == i else rng.randrange(3 * modulus) for r in range(k)]
                    args = (values, [j], [rng.randrange(-modulus, modulus)], modulus)
                    explicit = outcome(explicit_power_sum_solve, *args)
                    assert outcome(tables.solve, *args[:3]) == explicit
                    assert outcome(tables.solve, *args[:3]) == explicit
                    refused += not isinstance(explicit, list)
    assert refused > 0


def test_singular_power_sum_systems_raise_on_every_call():
    """At k = t = 4 and p = 37 some square subsystem is singular; its solve
    raises solve_mod_p's SingularMatrixError on the first and the second
    call, and no inverse is cached for it."""
    assert not all_submatrices_invertible(4, 4, 37)
    tables = RowCode(None, 37, 37)
    singular = solved = 0
    for explicit, cold, warm in power_sum_outcomes(4, 4, 37, random.Random(37), tables):
        assert cold == warm == explicit
        if isinstance(explicit, list):
            solved += 1
        else:
            assert explicit[0] is SingularMatrixError
            assert explicit[1].startswith("no unit pivot in column")
            singular += 1
    assert singular and solved
    assert len(tables._inverses) == solved


# ---------------------------------------------------------------------------
# f(k, t) and the submatrix invertibility threshold
# ---------------------------------------------------------------------------

def test_f_threshold_known_values():
    assert f_threshold(3, 2) == 3
    assert f_threshold(5, 3) == 10
    assert f_threshold(4, 4) == 4096
    with pytest.raises(ValueError):
        f_threshold(2, 3)


def test_all_submatrices_invertible_known_values():
    assert all_submatrices_invertible(3, 2, 5) is True
    assert all_submatrices_invertible(2, 2, 3) is True
    assert all_submatrices_invertible(4, 2, 3) is False


def test_all_submatrices_invertible_needs_a_prime():
    with pytest.raises(ValueError, match="not prime"):
        all_submatrices_invertible(3, 2, 6)


def test_invertibility_beyond_threshold():
    for k in range(2, 6):
        for t in range(2, k + 1):
            p = smallest_prime_at_least(f_threshold(k, t) + 1)
            assert all_submatrices_invertible(k, t, p), (k, t, p)


if __name__ == "__main__":
    pytest.main([__file__, "-v"])
