"""Bound-calculator tests: enumeration oracles, frozen values, identities."""

from fractions import Fraction
from itertools import product
from math import comb, prod

import pytest

from composite_dna.bounds import (
    BoundReport,
    asym_bound_even_e,
    asym_bound_general,
    asym_bound_thm3,
    asym_bound_total,
    asym_deletion_bound,
    best_asym_total,
    bound_m_gt_q,
    c_count,
    gspb_deletion_bound,
    m_qk,
    sp_bound_per_row,
    sp_bound_total,
    t_count,
    v_size,
)


def runs_of(x):
    return sum(1 for i, v in enumerate(x) if i == 0 or v != x[i - 1])


def oracle_c_count(n, r, w):
    """Count binary sequences with exactly r runs and weight w by enumeration."""
    return sum(
        1
        for x in product((0, 1), repeat=n)
        if sum(x) == w and runs_of(x) == r
    )


def oracle_t_count(n, k, y):
    """Count chains (s_2..s_k) dominating some single-insertion parent of y."""
    parents = {
        y[:i] + (b,) + y[i:] for i in range(len(y) + 1) for b in (0, 1)
    }

    def dominating(chain):
        return any(
            all(p[j] <= chain[0][j] for j in range(n)) for p in parents
        ) and all(
            all(chain[i][j] <= chain[i + 1][j] for j in range(n))
            for i in range(len(chain) - 1)
        )

    count = 0
    for chain in product(product((0, 1), repeat=n), repeat=k - 1):
        if dominating(chain):
            count += 1
    return count


# ---------------------------------------------------------------------------
# exact sphere packing
# ---------------------------------------------------------------------------

def test_sp_per_row_frozen():
    assert sp_bound_per_row(2, 2, 2, (1, 1)).value == Fraction(9, 5)
    assert sp_bound_per_row(2, 3, 4, (1, 1, 1)).value == Fraction(256, 13)
    # e_k = n boundary exercises the C(n, n) = 1 path
    assert sp_bound_per_row(2, 2, 2, (2, 2)).value == Fraction(9, 5)
    assert sp_bound_per_row(2, 2, 2, (1, 1)).floor == 1


def test_sp_per_row_validation():
    with pytest.raises(ValueError):
        sp_bound_per_row(2, 2, 4, (1, 2))  # not nonincreasing
    with pytest.raises(ValueError):
        sp_bound_per_row(2, 2, 4, (1, 0))  # zero budget
    with pytest.raises(ValueError):
        sp_bound_per_row(2, 3, 4, (1, 1))  # wrong arity
    # outside the shared domain q >= 2, k >= 1, n >= 1
    with pytest.raises(ValueError, match="need k >= 1, got k=0"):
        sp_bound_per_row(2, 0, 3, ())
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        sp_bound_per_row(2, 1, 0, (1,))
    with pytest.raises(ValueError, match="need q >= 2, got q=1"):
        sp_bound_per_row(1, 1, 2, (1,))


def test_sp_total_frozen():
    assert sp_bound_total(2, 2, 2, 1).value == 3
    assert sp_bound_total(2, 2, 2, 1).floor == 3
    assert sp_bound_total(3, 2, 2, 1).value == Fraction(36, 5)
    with pytest.raises(ValueError):
        sp_bound_total(2, 2, 4, 0)
    with pytest.raises(ValueError, match="need q >= 2, got q=1"):
        sp_bound_total(1, 2, 2, 1)  # a one-letter alphabet


def test_sp_bounds_are_not_asymptotic():
    assert not sp_bound_total(2, 2, 4, 1).asymptotic
    assert not sp_bound_per_row(2, 2, 4, (1, 1)).asymptotic
    assert not gspb_deletion_bound(4, 2).asymptotic
    assert asym_deletion_bound(2, 4).asymptotic


# ---------------------------------------------------------------------------
# asymptotic substitution bounds
# ---------------------------------------------------------------------------

def test_asym_total_frozen():
    rep = asym_bound_total(2, 2, 100, 1, 1)
    assert rep.params["n0"] == 1  # 3 - Q_{1,1} - Q_{1,2} = 3 - 1 - 1
    assert rep.value == Fraction(3**101, 200)
    assert rep.asymptotic
    with pytest.raises(ValueError):
        asym_bound_total(2, 2, 100, 1, 2)  # l must be <= q-1


def test_best_asym_total_sweeps_l():
    best = best_asym_total(3, 2, 100, 1)
    assert best.params["l"] == 1  # n0(l=1) = 3 beats n0(l=2) = 1 here
    everything = [asym_bound_total(3, 2, 100, 1, l) for l in (1, 2)]
    assert best.value == min(r.value for r in everything)
    with pytest.raises(ValueError, match="need q >= 2, got q=1"):
        best_asym_total(1, 2, 4, 1)  # no l to sweep


def test_asym_general_frozen():
    # two adjacent unit budgets at q = k = 2: 3^{n+2}/n^2
    rep = asym_bound_general(2, 2, 10, (1, 1))
    assert rep.value == Fraction(3**12, 100)
    assert rep.params["R"] == []
    # single nonzero budget degenerates to a (q-1)^e term
    rep = asym_bound_general(2, 2, 10, (0, 2))
    assert rep.value == Fraction(3**12 * 4, 100)


def test_asym_general_gap_run_factor():
    # rows (1,2,3) at q=3: j=2 is an interior adjacent gap, so |R| = 1
    rep = asym_bound_general(3, 3, 10, (1, 1, 1))
    assert rep.params["R"] == [2]
    Q = 10  # C(5, 2)
    # 2^{|R|} * (q-1)^1 * C(3,3)^2 * n^3 = 2 * 2 * 1 * 1000
    assert rep.value == Fraction(Q**13, 4000)


def test_asym_general_is_the_blockwise_bound_with_one_block():
    """Over the 2296 per-row profiles with budgets in {0, 1, 2}, k <= 6,
    q <= 5 and 2 <= m <= q nonzero rows, the general bound, which shares
    bound_m_gt_q's blockwise denominator, keeps its single-block form
    2^|R| (q-1)^{e_last} C(q, m)^{e - e_last}."""
    n, profiles = 7, 0
    for q, k in product(range(2, 6), range(2, 7)):
        Q = comb(q + k - 1, k)
        for budgets in product((0, 1, 2), repeat=k):
            rows = [i + 1 for i, b in enumerate(budgets) if b]
            if not 2 <= len(rows) <= q:
                continue
            profiles += 1
            values = [budgets[i - 1] for i in rows]
            e, last, m = sum(values), values[-1], len(rows)
            gaps = [j for j in range(2, m) if rows[j - 1] - rows[j - 2] == 1]
            denom = 2 ** len(gaps) * (q - 1) ** last * comb(q, m) ** (e - last) * n**e
            numer = Q ** (n + e) * prod(v**v for v in values)
            rep = asym_bound_general(q, k, n, budgets)
            assert (rep.value, rep.params["R"]) == (Fraction(numer, denom), gaps)
    assert profiles == 2296


def test_asym_general_validation():
    with pytest.raises(ValueError):
        asym_bound_general(2, 2, 10, (0, 0))
    with pytest.raises(ValueError, match="bound_m_gt_q"):
        asym_bound_general(2, 3, 10, (1, 1, 1))
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        asym_bound_general(2, 2, 0, (1, 0))
    with pytest.raises(ValueError, match="need q >= 2, got q=1"):
        asym_bound_general(1, 2, 3, (1, 0))
    with pytest.raises(ValueError, match="need k >= 1, got k=0"):
        asym_bound_general(2, 0, 2, (1,))
    with pytest.raises(ValueError, match="expected 3 budgets, got 4"):
        asym_bound_general(3, 3, 5, (1, 0, 1, 1))
    with pytest.raises(ValueError, match="expected 2 budgets, got 1"):
        asym_bound_general(2, 2, 5, (1,))


def test_asym_thm3_frozen():
    # (ii): one nonzero budget, q=2, e=1
    rep = asym_bound_thm3(2, 2, 10, (1, 0), "ii")
    assert rep.value == Fraction(3**11, 20)
    # (iii): q=k=2, budgets (1,1): 3^{n+2}/(2n)^2
    rep = asym_bound_thm3(2, 2, 10, (1, 1), "iii")
    assert rep.value == Fraction(3**12, 400)
    # (i): adjacent tail rows at q=3, k=3
    rep = asym_bound_thm3(3, 3, 10, (0, 1, 1), "i")
    assert rep.value == Fraction(10**12, 900)


def test_asym_thm3_preconditions():
    with pytest.raises(ValueError):
        asym_bound_thm3(2, 2, 10, (1, 0), "i")  # m = 1
    with pytest.raises(ValueError):
        asym_bound_thm3(2, 3, 10, (1, 0, 1), "iii")  # rows not adjacent
    with pytest.raises(ValueError):
        asym_bound_thm3(2, 2, 10, (1, 1), "iv")
    with pytest.raises(ValueError, match="expected 2 budgets, got 3"):
        asym_bound_thm3(2, 2, 10, (1, 0, 1), "i")
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        asym_bound_thm3(2, 2, 0, (1, 0), "ii")
    # thm3 (iii) sharpens the general bound when it applies
    sharp = asym_bound_thm3(2, 2, 50, (1, 1), "iii")
    loose = asym_bound_general(2, 2, 50, (1, 1))
    assert sharp.value < loose.value


def test_asym_even_e():
    assert asym_bound_even_e(2, 2, 10, 2).value == Fraction(3**12 * 4, 1600)
    assert asym_bound_even_e(3, 2, 10, 2).value == Fraction(6**12 * 4, (8 * 10) ** 2)
    with pytest.raises(ValueError):
        asym_bound_even_e(2, 2, 10, 1)
    with pytest.raises(ValueError, match="need k >= 1, got k=0"):
        asym_bound_even_e(2, 0, 10, 2)
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        asym_bound_even_e(2, 2, 0, 2)


def test_bound_m_gt_q_frozen():
    # q=2, k=3, budgets (1,1,1), m0=2: s=1 block, remainder r=1 -> 4^{n+3}/(2 n^3)
    rep = bound_m_gt_q(2, 3, 10, (1, 1, 1), 2)
    assert rep.value == Fraction(4**13, 2000)
    assert (rep.params["s"], rep.params["r"]) == (1, 1)
    # empty remainder: all four rows pair up, C(q, 0)^0 = 1
    rep = bound_m_gt_q(2, 4, 10, (1, 1, 1, 1), 2)
    assert rep.value == Fraction(5**14, 10**4)
    assert rep.params["r"] == 0


def test_bound_m_gt_q_validation():
    with pytest.raises(ValueError, match="asym_bound_general"):
        bound_m_gt_q(4, 4, 10, (1, 1, 0, 0), 2)
    with pytest.raises(ValueError):
        bound_m_gt_q(2, 3, 10, (1, 1, 1), 1)
    with pytest.raises(ValueError):
        bound_m_gt_q(2, 3, 10, (1, 1, 1), 3)
    with pytest.raises(ValueError, match="expected 3 budgets, got 4"):
        bound_m_gt_q(2, 3, 10, (1, 1, 1, 1), 2)
    with pytest.raises(ValueError, match="need n >= 1, got n=0"):
        bound_m_gt_q(2, 3, 0, (1, 1, 1), 2)


# ---------------------------------------------------------------------------
# deletion-side quantities
# ---------------------------------------------------------------------------

def test_t_count_frozen():
    assert t_count(3, 2, 1) == 6
    assert t_count(3, 3, 2) == 7
    assert t_count(4, 2, 0) == 2**4
    with pytest.raises(ValueError):
        t_count(3, 2, 3)


def test_t_count_matches_enumeration():
    for n in (2, 3, 4, 5):
        for k in (2, 3):
            for w in range(n):
                for y in product((0, 1), repeat=n - 1):
                    if sum(y) != w:
                        continue
                    assert oracle_t_count(n, k, y) == t_count(n, k, w), (n, k, y)


def test_c_count_frozen():
    assert c_count(3, 1, 0) == 1
    assert c_count(3, 2, 1) == 2
    assert c_count(3, 1, 1) == 0
    assert c_count(5, 3, 2) == oracle_c_count(5, 3, 2)


def test_c_count_matches_enumeration():
    for n in range(1, 9):
        for w in range(n + 1):
            for r in range(1, n + 1):
                assert c_count(n, r, w) == oracle_c_count(n, r, w), (n, r, w)


def test_c_count_partitions_all_sequences():
    for n in range(1, 11):
        total = sum(
            c_count(n, r, w) for w in range(n + 1) for r in range(1, n + 1)
        )
        assert total == 2**n


def test_v_size_frozen():
    assert v_size(2, 3) == 24
    assert v_size(3, 3) == 64
    for k in (2, 3, 4, 5):
        assert v_size(k, 2) == k * (k + 1) + (k - 1)
    with pytest.raises(ValueError):
        v_size(2, 1)


def test_gspb_identity_and_lower_bound():
    # sum_w sum_r c(n-1;r;w) t(n,k;w) counts the whole error space
    for k in range(2, 6):
        for n in range(2, 13):
            identity = sum(
                c_count(n - 1, r, w) * t_count(n, k, w)
                for w in range(n)
                for r in range(1, 2 * w + 2)
            )
            assert identity == v_size(k, n), (n, k)
            rep = gspb_deletion_bound(n, k)
            assert rep.value >= Fraction(v_size(k, n), max(n - 1, 1))


def test_gspb_frozen_small_case():
    # n=2, k=2 by hand: w=0 gives 4/1, w=1 gives 3/1
    assert gspb_deletion_bound(2, 2).value == 7


def test_m_qk_frozen():
    assert m_qk(2, 2) == Fraction(4, 9)
    assert m_qk(3, 2) == Fraction(11, 18)
    for k in range(2, 7):
        assert m_qk(2, k) == Fraction(2 * k, (k + 1) ** 2)


def test_asym_deletion_bound():
    # v_size(k, 6)/6 over m_qk(2, k) = 2k/(k+1)^2, pinned at k = 2..8
    pinned = {
        2: Fraction(2673, 8), 3: Fraction(22528, 9), 4: Fraction(546875, 48),
        5: Fraction(38880), 6: Fraction(7882483, 72), 7: Fraction(5636096, 21),
        8: Fraction(18954729, 32),
    }
    assert {k: asym_deletion_bound(k, 6).value for k in range(2, 9)} == pinned
    rep = asym_deletion_bound(2, 100)
    assert rep.value == Fraction(9, 4) * Fraction(v_size(2, 100), 100)
    # leading-term ratio against (k-1)(k+1)^n/(2k) approaches 1
    for k in (2, 3):
        n = 500
        reference = Fraction((k - 1) * (k + 1) ** n, 2 * k)
        ratio = asym_deletion_bound(k, n).value / reference
        assert abs(float(ratio) - 1) < 0.02


def test_bound_report_validation():
    with pytest.raises(ValueError):
        BoundReport("x", Fraction(0), False)
    rep = BoundReport("x", Fraction(7, 2), False, {"n": 3})
    assert rep.floor == 3
