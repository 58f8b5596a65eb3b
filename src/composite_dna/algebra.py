"""Number-theoretic and combinatorial helpers shared by the code constructions.

Contents: primality and Bertrand-interval prime search, the one digit rule
(are_digits) that the row kernels, the encoders and Word apply, the one
integer log (digit_width), base-Q expansions of a given width (the check
blocks of the systematic codes) and the one Horner loop that composes
them back (compose, which compose_base calls after its digit check),
ranking/unranking of constant-weight binary sequences,
semistandard tableau enumeration with Schur polynomial evaluation,
shape-shifted Vandermonde determinants, one linear-algebra kernel pair (an
exact Bareiss determinant and a Gauss-Jordan solve over Z/m with unit
pivots, the one elimination of the package: _codec.RowCode inverts each
Vandermonde system of its power sums with it), and the threshold function
f(k, t) under which every square submatrix of the syndrome coefficient
matrix [i^(j-1)] is invertible mod p.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, count
from math import comb, gcd
from operator import index


class SingularMatrixError(ValueError):
    """Raised when a linear system mod m has no unit pivot in some column."""


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    """Whether n is prime, by trial division; each verdict is cached, so a
    spec's fixed modulus is divided out once however often it is checked."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_from(p: int) -> int:
    """The least prime >= p."""
    while not is_prime(p):
        p += 1
    return p


def next_prime_bertrand(m: int) -> int:
    """Smallest prime p with m < p < 2m (exists for m >= 2 by Bertrand)."""
    if m < 2:
        raise ValueError(f"Bertrand interval needs m >= 2, got {m}")
    return _prime_from(m + 1)


def smallest_prime_at_least(m: int) -> int:
    """Smallest prime p >= m (m >= 2)."""
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    return _prime_from(m)


# ---------------------------------------------------------------------------
# digits and fixed-width base expansions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _digit_set(base: int) -> frozenset:
    return frozenset(range(base))


_BYTES = bytes(range(256))


def are_digits(digits, base: int) -> bool:
    """Whether every entry of digits is a digit of base `base`: an int
    (operator.index takes it, so not 1.5, 1.0 or '1') in range(base).
    A bytes row holds ints only, so one translate that deletes range(base)
    is its range test.  Otherwise a base that fits a byte tests the digits
    against a cached set of range(base); a larger one compares their
    distinct values with 0 and base, so no set grows with the base."""
    if isinstance(digits, bytes):
        return not digits.translate(None, _BYTES[: max(base, 0)])
    try:
        if base <= 256:
            return _digit_set(base).issuperset(map(index, digits))
        values = set(map(index, digits))
    except TypeError:  # a digit that is no int
        return False
    return not values or (min(values) >= 0 and max(values) < base)


def digit_width(base: int, bound: int) -> int:
    """ceil(log_base(bound)): smallest D with base**D >= bound (bound >= 1)."""
    if base < 2 or bound < 1:
        raise ValueError(f"need base >= 2 and bound >= 1, got {base}, {bound}")
    width, reach = 0, 1
    while reach < bound:
        reach *= base
        width += 1
    return width


def expand_base(value: int, base: int, width: int) -> tuple[int, ...]:
    """The width LSD-first base digits of value, 0 <= value < base**width.
    Base 1 has the one value 0, whose digits are width zeros."""
    if not 0 <= value < base**width:
        raise ValueError(f"value {value} out of [0, {base**width})")
    return _expand(value, base, width)


def _expand(value: int, base: int, width: int) -> tuple[int, ...]:
    """expand_base unchecked.  Above 128 digits the value is split at
    base**(width // 2) and each half expanded (a divide-and-conquer radix
    conversion, Knuth, TAOCP Vol. 2, 4.4), so a long expansion takes a few
    big divisions in C, not one Python step per digit on the whole value."""
    if width > 128:
        half = width // 2
        high, low = divmod(value, base**half)
        return _expand(low, base, half) + _expand(high, base, width - half)
    digits = []
    for _ in range(width):
        digits.append(value % base)
        value //= base
    return tuple(digits)


def compose_base(digits, base: int) -> int:
    """Inverse of expand_base (LSD-first); every digit must pass are_digits."""
    digits = tuple(digits)
    if not are_digits(digits, base):
        bad = next(d for d in reversed(digits) if not are_digits((d,), base))
        raise ValueError(f"digit {bad} out of range for base {base}")
    return compose(digits, base)


def compose(digits, base: int) -> int:
    """compose_base unchecked, for digits that the caller built or checked:
    the value of digits, least significant first, by one Horner loop."""
    value = 0
    for d in reversed(digits):
        value = value * base + d
    return value


# ---------------------------------------------------------------------------
# constant-weight ranking (lexicographic, 1-based)
# ---------------------------------------------------------------------------

def cw_rank(bits, w: int | None = None) -> int:
    """Rank of a constant-weight binary sequence among its weight class.

    The rank of a with ones at positions i_1 < ... < i_w (1-indexed) is
    1 + sum_j binom(i_j - 1, j); ranks run from 1 to binom(n, w).  Cover's
    enumerative code, read from the last position down: one comb call
    gives binom(n - 1, w), and each position takes the next binomial from
    the last by one multiply and one exact divide, so no binomial is built
    from scratch.
    """
    bits = tuple(bits)
    if not set(bits) <= {0, 1}:
        raise ValueError("bits must be 0/1")
    left = bits.count(1)
    if w is not None and w != left:
        raise ValueError(f"declared weight {w} != actual weight {left}")
    if not left:
        return 1
    first = bits.index(1)
    rank, binom = 1, comb(len(bits) - 1, left)  # binom(pos, left)
    for pos in range(len(bits) - 1, first, -1):
        if bits[pos]:
            rank += binom
            binom = binom * left // pos
            left -= 1
        else:
            binom = binom * (pos - left) // pos
    return rank + binom  # the first one's binom(first, 1)


def cw_unrank(index: int, n: int, w: int) -> tuple[int, ...]:
    """Inverse of cw_rank: the index-th weight-w sequence of length n, by
    the same walk down the positions with the same binomial updates."""
    if not 0 <= w <= n:
        raise ValueError(f"need 0 <= w <= n, got w={w}, n={n}")
    total = comb(n, w)
    if not 1 <= index <= total:
        raise ValueError(f"index {index} out of [1, binom({n},{w})]")
    temp, left, bits = index - 1, w, [0] * n
    binom = total * (n - w) // n if n else 0  # binom(pos, left) at pos = n - 1
    for pos in range(n - 1, 0, -1):
        if temp >= binom:
            bits[pos] = 1
            temp -= binom
            binom = binom * left // pos
            left -= 1
        else:
            binom = binom * (pos - left) // pos
    if left:  # one one is left, and position 0 holds it
        bits[0] = 1
    return tuple(bits)


def _reference_cw_rank(bits) -> int:
    """cw_rank of 0/1 bits with every binomial built by comb, one per one:
    the oracle its tests compare against."""
    return 1 + sum(map(comb, compress(count(), bits), count(1)))


def _reference_cw_unrank(index: int, n: int, w: int) -> tuple[int, ...]:
    """cw_unrank of a valid index with every binomial built by comb, up to
    two per position: the oracle its tests compare against."""
    temp, left, bits = index - 1, w, [0] * n
    for pos in range(n - 1, -1, -1):
        if left and temp >= comb(pos, left):
            bits[pos] = 1
            temp -= comb(pos, left)
            left -= 1
    return tuple(bits)


# ---------------------------------------------------------------------------
# semistandard tableaux and Schur polynomials
# ---------------------------------------------------------------------------

def partition_is_valid(shape) -> bool:
    """weakly decreasing nonnegative integer tuple"""
    shape = tuple(shape)
    return all(isinstance(x, int) and x >= 0 for x in shape) and all(
        shape[i] >= shape[i + 1] for i in range(len(shape) - 1)
    )


def enumerate_ssts(shape, s: int):
    """All semistandard tableaux of the given shape with entries in [1, s].

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Zero-length rows are allowed (they contribute nothing).
    """
    shape = tuple(shape)
    if not partition_is_valid(shape):
        raise ValueError(f"not a partition: {shape}")
    if s < 0:
        raise ValueError("alphabet size s must be >= 0")
    cells = [(r, c) for r, length in enumerate(shape) for c in range(length)]
    tableau = [[0] * length for length in shape]
    out = []

    def fill(idx):
        if idx == len(cells):
            out.append(tuple(tuple(row) for row in tableau))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = max(lo, tableau[r][c - 1])  # weak along the row
        if r > 0:
            lo = max(lo, tableau[r - 1][c] + 1)  # strict down the column
        for val in range(lo, s + 1):
            tableau[r][c] = val
            fill(idx + 1)
        tableau[r][c] = 0

    fill(0)
    return out


def schur_eval(shape, xs) -> Fraction | int:
    """Schur polynomial s_shape evaluated at the point xs, by direct SST sum."""
    xs = tuple(xs)
    total = 0
    for tab in enumerate_ssts(shape, len(xs)):
        term = 1
        for row in tab:
            for val in row:
                term *= xs[val - 1]
        total += term
    return total


def vandermonde_shape_det(shape, xs, p: int | None = None) -> int:
    """Determinant of the shape-shifted Vandermonde matrix V_shape.

    Row i (i = 1..s, counting from the bottom exponent up) of V_shape is
    (x_1^(e_i), ..., x_s^(e_i)) with e_i = shape[s-i] + i - 1, so the zero
    shape gives the classical Vandermonde matrix.  Exact integer value, or
    reduced mod p when p is given.
    """
    shape = tuple(shape)
    xs = tuple(xs)
    if not partition_is_valid(shape):
        raise ValueError(f"not a partition: {shape}")
    if len(shape) != len(xs):
        raise ValueError("shape and point must have equal length")
    s = len(xs)
    exponents = [shape[s - 1 - i] + i for i in range(s)]
    value = det([[x ** e for x in xs] for e in exponents])
    return value % p if p is not None else value


# ---------------------------------------------------------------------------
# linear algebra: one exact determinant, one modular solve
# ---------------------------------------------------------------------------

def det(matrix) -> int:
    """Exact determinant of a square integer matrix by Bareiss's
    fraction-free elimination: every division is exact."""
    m = [list(row) for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("det expects a square matrix")
    sign, prev = 1, 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        head = m[col]
        for row in m[col + 1 :]:
            for c in range(col + 1, n):
                row[c] = (row[c] * head[col] - row[col] * head[c]) // prev
        prev = head[col]
    return sign * prev


def solve_mod_p(matrix, rhs, p: int) -> list:
    """Solve A x = b over Z/p by Gauss-Jordan elimination with unit pivots.

    rhs is b, a list of ints, or several right-hand sides at once: a list
    of rows, one per equation, such as the identity, whose solution is the
    inverse of A.  The solution has the shape of rhs, and one elimination
    serves every right-hand side.

    Over a prime p every nonzero pivot is a unit, so this is the usual solve
    over F_p, and SingularMatrixError means A is singular.  A composite p is
    accepted only for a 1 x 1 system (the single-row codes solve [[1]]),
    where SingularMatrixError means the entry is no unit; a larger system
    over a composite p is a ValueError, since an invertible A need not offer
    a unit pivot in every column there.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or len(rhs) != n:
        raise ValueError("solve_mod_p expects a square system")
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if n > 1 and not is_prime(p):
        raise ValueError(
            "solve_mod_p solves only 1 x 1 systems over a composite modulus, "
            f"got {n} x {n} mod {p}"
        )
    several = n > 0 and not isinstance(rhs[0], int)
    aug = [
        [x % p for x in row] + [x % p for x in (b if several else (b,))]
        for row, b in zip(matrix, rhs)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if gcd(aug[r][col], p) == 1), None)
        if pivot is None:
            raise SingularMatrixError(f"no unit pivot in column {col} mod {p}")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [(a - factor * b) % p for a, b in zip(aug[r], aug[col])]
    return [row[n:] if several else row[n] for row in aug]


# ---------------------------------------------------------------------------
# the f(k, t) threshold
# ---------------------------------------------------------------------------

def f_threshold(k: int, t: int) -> int:
    """Threshold f(k, t): for any prime p > f(k, t), every square submatrix
    of the t x k matrix [i^(j-1)] (j = 1..t, i = 1..k) is invertible mod p.

    Piecewise: k for t = 2; 2k for t = 3; for t >= 4,
    t^binom(s0, 2) * k^(s0 (t - s0)) with
    s0 = min(floor((t-1) ln k / (2 ln k - ln t)) + 1, t - 1).
    """
    if not 2 <= t <= k:
        raise ValueError(f"need 2 <= t <= k, got t={t}, k={k}")
    if t == 2:
        return k
    if t == 3:
        return 2 * k
    # floor((t-1) ln k / (2 ln k - ln t)) via exact integer comparisons:
    # j <= (t-1) ln k / (2 ln k - ln t)  <=>  k^(2j) <= k^(t-1) * t^j
    j = 0
    while k ** (2 * (j + 1)) <= k ** (t - 1) * t ** (j + 1):
        j += 1
    s0 = min(j + 1, t - 1)
    return t ** comb(s0, 2) * k ** (s0 * (t - s0))


def all_submatrices_invertible(k: int, t: int, p: int) -> bool:
    """Exhaustively check every s x s submatrix of [i^(j-1)] mod p, s = 1..t."""
    if not 2 <= t <= k:
        raise ValueError(f"need 2 <= t <= k, got t={t}, k={k}")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    rows = [[pow(i, j, p) for i in range(1, k + 1)] for j in range(t)]
    for s in range(1, t + 1):
        for row_sel in combinations(range(t), s):
            for col_sel in combinations(range(k), s):
                sub = [[rows[r][c] for c in col_sel] for r in row_sel]
                if det(sub) % p == 0:
                    return False
    return True
