"""Upper-bound calculators for substitution and deletion composite codes.

Two kinds of results are produced:

* exact sphere-packing style bounds (rational, with a meaningful floor), and
* asymptotic bounds that report only the leading term of an (1+o(1)) estimate
  — these are flagged asymptotic=True and are table generators, not finite-n
  guarantees.

Each substitution bound states only its own preconditions and denominator.
``_sphere_packing`` makes every exact report, Q^n / (C(n, h) c^h + 1), and
``_leading_term`` every asymptotic one, Q^(n+e) prod_v v^v / (D n^e) over
the nonzero budgets v.  Both sit behind one parameter check, ``_check``:
q >= 2, k >= 1, n >= 1, and a per-row budget list holds exactly k budgets.
The per-row asymptotic bounds read their budgets through one more step,
``_nonzero_profile``, which also refuses negative and all-zero budgets and
gives the nonzero rows and their values.
Every input outside that domain is a ValueError that names the parameter.

All arithmetic is exact (integers and fractions.Fraction); nothing here
touches floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, prod

from .alphabet import alphabet_size


@dataclass(frozen=True)
class BoundReport:
    family: str
    value: Fraction
    asymptotic: bool
    params: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value <= 0:
            raise ValueError("bounds are positive by construction")

    @property
    def floor(self) -> int:
        """Largest integer code size compatible with the bound."""
        return self.value.numerator // self.value.denominator


def _check(q: int, k: int, n: int, budgets=None):
    """Reject parameters outside q >= 2, k >= 1, n >= 1 and one budget per row."""
    for name, value, low in (("q", q, 2), ("k", k, 1), ("n", n, 1)):
        if value < low:
            raise ValueError(f"need {name} >= {low}, got {name}={value}")
    if budgets is not None and len(budgets) != k:
        raise ValueError(f"expected {k} budgets, got {len(budgets)}")


def _nonzero_profile(q: int, k: int, n: int, budgets):
    """(budgets, rows, values): the per-row budgets as a tuple, checked
    (_check, nonnegative, not all zero), and the 1-indexed sorted rows of
    the nonzero ones with their values."""
    budgets = tuple(budgets)
    _check(q, k, n, budgets)
    if any(b < 0 for b in budgets):
        raise ValueError("budgets must be nonnegative")
    rows = [i + 1 for i, b in enumerate(budgets) if b > 0]
    if not rows:
        raise ValueError("all budgets are zero")
    return budgets, rows, [budgets[i - 1] for i in rows]


def _gap_run_set(rows):
    """R = {1 < j < m : l_j - l_{j-1} = 1}, with j indexing the sorted rows."""
    m = len(rows)
    return {j for j in range(2, m) if rows[j - 1] - rows[j - 2] == 1}


def _blockwise_denominator(q: int, rows, values, m0: int) -> int:
    """The blockwise leading term's denominator: the nonzero rows split into
    s = m // m0 full blocks of m0 rows and a remainder of r = m % m0; each
    full block has its own gap set, its last row collects a (q-1) factor per
    budget unit and its other rows a C(q, m0) factor, the remainder rows a
    C(q, r) factor.  One block of all m rows is the general bound's."""
    s, r = divmod(len(rows), m0)
    starts = range(0, s * m0, m0)
    R = sum(len(_gap_run_set(rows[i : i + m0])) for i in starts)
    e_tail = sum(values[i + m0 - 1] for i in starts)  # last row of each full block
    e_body = sum(values[: s * m0]) - e_tail  # remaining budgets inside full blocks
    e_rest = sum(values[s * m0 :])
    return 2**R * (q - 1) ** e_tail * comb(q, m0) ** e_body * comb(q, r) ** e_rest


def _sphere_packing(family: str, q: int, k: int, n: int, h: int, c: int, **params):
    """Q^n / (C(n, h) * c^h + 1): at least C(n, h) c^h neighbours per codeword."""
    _check(q, k, n)
    value = Fraction(alphabet_size(q, k) ** n, comb(n, h) * c**h + 1)
    return BoundReport(family, value, False, {"q": q, "k": k, "n": n, **params})


def _leading_term(family: str, q: int, k: int, n: int, values, denom: int, **params):
    """Q^(n+e) * prod_v v^v / (denom * n^e), e = sum(values): an asymptotic term."""
    _check(q, k, n)
    e = sum(values)
    numer = alphabet_size(q, k) ** (n + e) * prod(v**v for v in values)
    value = Fraction(numer, denom * n**e)
    return BoundReport(family, value, True, {"q": q, "k": k, "n": n, **params})


# ---------------------------------------------------------------------------
# exact sphere-packing bounds (substitutions)
# ---------------------------------------------------------------------------

def sp_bound_per_row(q: int, k: int, n: int, budgets) -> BoundReport:
    """Sphere packing with per-row budgets e_1 >= ... >= e_k >= 1.

    Only the smallest budget e_k enters: every codeword has at least
    C(n, e_k) * (sum_{l=1}^{q-1} C(l+k-1, l))^{e_k} valid neighbours.
    """
    budgets = tuple(budgets)
    _check(q, k, n, budgets)
    if any(budgets[i] < budgets[i + 1] for i in range(k - 1)):
        raise ValueError("budgets must be sorted nonincreasingly")
    if budgets[-1] < 1:
        raise ValueError("all budgets must be >= 1")
    ek = budgets[-1]
    if ek > n:
        raise ValueError(f"smallest budget {ek} exceeds the length {n}")
    per_column = sum(comb(l + k - 1, l) for l in range(1, q))
    return _sphere_packing("sp-per-row", q, k, n, ek, per_column, budgets=budgets)


def sp_bound_total(q: int, k: int, n: int, e: int) -> BoundReport:
    """Sphere packing for a total substitution budget e >= 1."""
    if e < 1:
        raise ValueError("total budget must be >= 1")
    if e > k * n:
        raise ValueError(f"budget {e} exceeds the {k}x{n} grid")
    return _sphere_packing("sp-total", q, k, n, e, q - 1, e=e)


# ---------------------------------------------------------------------------
# asymptotic substitution bounds
# ---------------------------------------------------------------------------

def asym_bound_total(q: int, k: int, n: int, e: int, l: int) -> BoundReport:
    """Leading term for total-budget codes with a free parameter 1 <= l <= q-1."""
    if not 1 <= l <= q - 1:
        raise ValueError(f"l must lie in [1, {q - 1}], got {l}")
    if e < 1:
        raise ValueError("need e >= 1")
    Q = alphabet_size(q, k)
    n0 = Q - (q - l) * alphabet_size(l, k - 1) - alphabet_size(l, k)
    if n0 <= 0:
        raise ValueError(f"n0 = {n0} must be positive")
    denom = (n0 * (q - 1 + l)) ** e
    return _leading_term("asym-total", q, k, n, (e,), denom, e=e, l=l, n0=n0)


def best_asym_total(q: int, k: int, n: int, e: int) -> BoundReport:
    """Sweep l and keep the smallest asym_bound_total (ties go to smaller l)."""
    _check(q, k, n)
    reports = [asym_bound_total(q, k, n, e, l) for l in range(1, q)]
    return min(reports, key=lambda report: report.value)


def asym_bound_general(q: int, k: int, n: int, budgets) -> BoundReport:
    """Leading term for per-row budgets with m = #nonzero rows, 1 <= m <= q."""
    budgets, rows, values = _nonzero_profile(q, k, n, budgets)
    m = len(rows)
    if m > q:
        raise ValueError(f"m={m} nonzero budgets exceed q={q}; use bound_m_gt_q")
    denom = _blockwise_denominator(q, rows, values, m)
    R = sorted(_gap_run_set(rows))
    return _leading_term("asym-general", q, k, n, values, denom, budgets=budgets, m=m, R=R)


def asym_bound_thm3(q: int, k: int, n: int, budgets, variant: str) -> BoundReport:
    """Sharper leading terms under extra structure on the nonzero rows.

    variant "i":   m >= 2 and the last two nonzero rows are adjacent;
    variant "ii":  exactly one nonzero budget;
    variant "iii": exactly two nonzero budgets on adjacent rows.
    """
    budgets, rows, values = _nonzero_profile(q, k, n, budgets)
    m = len(rows)
    e = sum(values)
    adjacent_tail = m >= 2 and rows[-1] - rows[-2] == 1
    if variant == "i":
        if m < 2:
            raise ValueError("variant i needs m >= 2")
        if not adjacent_tail:
            raise ValueError("variant i needs the last two nonzero rows adjacent")
        denom = 2 ** len(_gap_run_set(rows)) * comb(q, m) ** e
    elif variant == "ii":
        if m != 1:
            raise ValueError("variant ii needs exactly one nonzero budget")
        denom = (q * (q - 1)) ** e
    elif variant == "iii":
        if m != 2:
            raise ValueError("variant iii needs exactly two nonzero budgets")
        if not adjacent_tail:
            raise ValueError("variant iii needs the two nonzero rows adjacent")
        denom = (comb(q, 2) + 1) ** e
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _leading_term(
        f"asym-structured-{variant}", q, k, n, values, denom, budgets=budgets, m=m
    )


def asym_bound_even_e(q: int, k: int, n: int, e: int) -> BoundReport:
    """Leading term for even total budgets: denominator (q^2-q+2)^e n^e."""
    if e <= 0 or e % 2:
        raise ValueError("e must be even and positive")
    return _leading_term("asym-even-total", q, k, n, (e,), (q * q - q + 2) ** e, e=e)


def bound_m_gt_q(q: int, k: int, n: int, budgets, m0: int) -> BoundReport:
    """Blockwise extension when more than q rows carry a nonzero budget.

    The m nonzero rows are split into s = m // m0 full blocks of size m0 plus
    a remainder of r = m % m0 rows (_blockwise_denominator).
    """
    if not 2 <= m0 <= q:
        raise ValueError(f"m0 must lie in [2, {q}], got {m0}")
    budgets, rows, values = _nonzero_profile(q, k, n, budgets)
    m = len(rows)
    if m <= q:
        raise ValueError(f"m={m} <= q={q}: use asym_bound_general")
    s, r = divmod(m, m0)
    denom = _blockwise_denominator(q, rows, values, m0)
    return _leading_term(
        "asym-blockwise", q, k, n, values, denom, budgets=budgets, m0=m0, s=s, r=r
    )


# ---------------------------------------------------------------------------
# deletion bounds (single deletion in the first row, binary)
# ---------------------------------------------------------------------------

def t_count(n: int, k: int, w: int) -> int:
    """Chains s_1 <= s_2 <= ... <= s_k over insertions into a weight-w sequence."""
    if not 0 <= w <= n - 1:
        raise ValueError(f"need 0 <= w <= n-1, got w={w}, n={n}")
    return k ** (n - w) + w * (k - 1) * k ** (n - w - 1)


def c_count(n: int, r: int, w: int) -> int:
    """Binary sequences of length n with exactly r runs and weight w."""
    if r < 1 or not 0 <= w <= n:
        raise ValueError("need r >= 1 and 0 <= w <= n")
    if r == 1:
        return 1 if w in (0, n) else 0
    if not 0 < w < n:
        return 0
    hi, lo = -(-r // 2) - 1, r // 2 - 1
    return comb(w - 1, hi) * comb(n - w - 1, lo) + comb(w - 1, lo) * comb(n - w - 1, hi)


def v_size(k: int, n: int) -> int:
    """Size of the single-first-row-deletion error space over Phi_{2,k}^n."""
    if n < 2:
        raise ValueError("need n >= 2")
    return k * (k + 1) ** (n - 1) + (k - 1) * (k + 1) ** (n - 2) * (n - 1)


def gspb_deletion_bound(n: int, k: int) -> BoundReport:
    """Generalized sphere packing against one deletion in the first row."""
    if n < 2:
        raise ValueError("need n >= 2")
    total = Fraction(0)
    for w in range(n):
        t = t_count(n, k, w)
        for r in range(1, 2 * w + 2):
            c = c_count(n - 1, r, w)
            if c:
                total += Fraction(c * t, r)
    return BoundReport("gspb-deletion", total, False, {"n": n, "k": k})


def m_qk(q: int, k: int) -> Fraction:
    """Limit fraction of positions that survive a run-length argument."""
    if q < 2 or k < 2:
        raise ValueError("need q, k >= 2")
    Q = alphabet_size(q, k)
    hits = sum(comb(k + q - a - 2, k - 1) ** 2 for a in range(q))
    return 1 - Fraction(hits, Q * Q)


def asym_deletion_bound(k: int, n: int) -> BoundReport:
    """Leading term v_size(k, n)/n / m_qk(2, k) for one first-row deletion;
    1 / m_qk(2, k) = (k+1)^2/(2k)."""
    if k < 2:
        raise ValueError("need k >= 2")
    value = Fraction(v_size(k, n), n) / m_qk(2, k)
    return BoundReport("asym-deletion", value, True, {"k": k, "n": n})
