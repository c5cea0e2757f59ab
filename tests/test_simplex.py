import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gridcomm.simplex import TOL, LPStatus, _leaving_row, solve_inequality_lp

from conftest import lp_vertex_oracle, reference_inequality_lp


def test_simple_box_minimum():
    # min x subject to -1 <= x <= 3
    c = np.array([1.0])
    a = np.array([[1.0], [-1.0]])
    b = np.array([3.0, 1.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0, abs=1e-9)
    assert res.x[0] == pytest.approx(-1.0, abs=1e-9)


def test_two_variable_vertex():
    # min -x - 2y s.t. x + y <= 4, x <= 3, y <= 2, x >= 0, y >= 0
    c = np.array([-1.0, -2.0])
    a = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([4.0, 3.0, 2.0, 0.0, 0.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.x == pytest.approx([2.0, 2.0], abs=1e-9)
    assert res.objective == pytest.approx(-6.0, abs=1e-9)


def test_negative_rhs_needs_phase_one():
    # Feasible set {x >= 2, x <= 5}; the x >= 2 row arrives as -x <= -2.
    c = np.array([1.0])
    a = np.array([[-1.0], [1.0]])
    b = np.array([-2.0, 5.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.x[0] == pytest.approx(2.0, abs=1e-9)


def test_infeasible_detected():
    # x <= 1 and x >= 3 cannot hold together.
    c = np.array([1.0])
    a = np.array([[1.0], [-1.0]])
    b = np.array([1.0, -3.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.INFEASIBLE
    assert res.x is None and res.objective is None


def test_unbounded_detected():
    # min -x with only x >= 0.
    c = np.array([-1.0])
    a = np.array([[-1.0]])
    b = np.array([0.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.UNBOUNDED


def test_unbounded_after_phase_one():
    # Phase 1 is required (negative rhs) and the region is then unbounded
    # above; a frozen artificial column must not mask the ray.
    c = np.array([-1.0])
    a = np.array([[-1.0]])
    b = np.array([-2.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.UNBOUNDED


def test_free_variable_goes_negative():
    # min x + y s.t. x >= -4 (as -x <= 4), y >= 1, x + y <= 10
    c = np.array([1.0, 1.0])
    a = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
    b = np.array([4.0, -1.0, 10.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.x == pytest.approx([-4.0, 1.0], abs=1e-9)


def test_degenerate_vertex_terminates():
    # Three constraints meet at the optimum (0, 0); Bland's rule must not cycle.
    c = np.array([-1.0, -1.0])
    a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    b = np.array([0.0, 0.0, 0.0, 0.0, 0.0])
    res = solve_inequality_lp(c, a, b)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_inequality_lp(np.ones(2), np.ones((3, 3)), np.ones(3))
    with pytest.raises(ValueError):
        solve_inequality_lp(np.ones(3), np.ones((2, 3)), np.ones(4))


def test_matches_vertex_oracle_on_random_boxed_lps():
    rng = np.random.default_rng(41)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        a_rand = rng.normal(size=(m, n))
        b_rand = rng.normal(size=m) + 1.0
        # A surrounding box keeps every instance bounded.
        a = np.vstack([a_rand, np.eye(n), -np.eye(n)])
        b = np.concatenate([b_rand, np.full(n, 5.0), np.full(n, 5.0)])
        c = rng.normal(size=n)

        res = solve_inequality_lp(c, a, b)
        oracle = lp_vertex_oracle(c, a, b)
        if oracle is None:
            assert res.status is LPStatus.INFEASIBLE
            continue
        assert res.status is LPStatus.OPTIMAL
        assert res.objective == pytest.approx(oracle[0], abs=1e-7)
        assert np.all(a @ res.x <= b + 1e-9)
        checked += 1
    assert checked >= 25


def test_residual_feasibility_at_optimum():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n, m = 3, 6
        a = np.vstack([rng.normal(size=(m, n)), np.eye(n), -np.eye(n)])
        b = np.concatenate([np.abs(rng.normal(size=m)) + 0.5, np.full(2 * n, 4.0)])
        c = rng.normal(size=n)
        res = solve_inequality_lp(c, a, b)
        assert res.status is LPStatus.OPTIMAL
        assert np.max(a @ res.x - b) <= 1e-9


def control_shaped_lp(seed: int, m: int, n: int, quantized: bool, boxed: bool):
    """An LP shaped like the control LPs: dense sensitivity rows beside unit
    and coupling rows, built around a feasible point z0 with zero entries,
    so some right-hand sides are negative and some exactly zero (a
    degenerate vertex). Duplicate rows and rows that are exact multiples of
    others make exact ratio ties; quantized entries make ties in the costs
    too. About one in five instances gets a contradictory pair of rows."""
    rng = np.random.default_rng(seed)

    def values(size):
        if quantized:
            return rng.integers(-4, 5, size=size) / 4.0
        return rng.normal(size=size)

    a = values((m, n))
    a[rng.random((m, n)) < 0.3] = 0.0
    for i in np.flatnonzero(rng.random(m) < 0.4):
        j = int(rng.integers(n))
        a[i] = 0.0
        if rng.random() < 0.5:
            a[i, j] = rng.choice([-1.0, 1.0])
        else:
            a[i, j], a[i, -1] = (-1.0, 1.0) if rng.random() < 0.5 else (1.0, -1.0)
    if boxed:
        a[-2 * n :] = np.vstack([np.eye(n), -np.eye(n)])
    z0 = values(n)
    z0[rng.random(n) < 0.4] = 0.0
    slack = np.abs(values(m))
    slack[rng.random(m) < 0.3] = 0.0
    b = a @ z0 + slack
    if boxed:
        b[-2 * n :] = 3.0 + np.abs(np.concatenate([z0, z0]))
    for i in range(1, m - 2 * n):
        roll = rng.random()
        if roll < 0.1:
            a[i], b[i] = a[i - 1], b[i - 1]
        elif roll < 0.2:
            a[i], b[i] = 2.0 * a[i - 1], 2.0 * b[i - 1]
    if rng.random() < 0.2:
        i = int(rng.integers(m - 1))
        a[i + 1], b[i + 1] = -a[i], -b[i] - 1.0
    return values(n), a, b


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(20, 130),
    n=st.integers(1, 8),
    quantized=st.booleans(),
    boxed=st.booleans(),
)
def test_pivots_match_scalar_scan_bit_for_bit(seed, m, n, quantized, boxed):
    """The vectorized pivots are Bland's pivots of a scalar scan: the same
    status, and x and objective equal to the last bit, signed zeros
    included."""
    c, a, b = control_shaped_lp(seed, m, n, quantized, boxed)
    got, want = solve_inequality_lp(c, a, b), reference_inequality_lp(c, a, b)
    assert got.status is want.status
    if want.x is None:
        assert got.x is None and got.objective is None
    else:
        assert got.x.tobytes() == want.x.tobytes()
        assert np.float64(got.objective).tobytes() == np.float64(want.objective).tobytes()


# ---------------------------------------------------------------------------
# the leaving row without the fold against the full fold


def full_fold(rows, ratios, basic) -> int:
    """Bland's leaving row as a scalar scan over every candidate row."""
    leaving, best_ratio, best_basic = -1, np.inf, -1
    for i, ratio, b in zip(rows, ratios, basic):
        if ratio < best_ratio - TOL or (abs(ratio - best_ratio) <= TOL and (leaving < 0 or b < best_basic)):
            leaving, best_ratio, best_basic = i, ratio, b
    return leaving


@st.composite
def chained_ratios(draw):
    """Candidate rows (ascending) with ratios in chains of near-ties: each
    ratio a drawn step above the one before, most steps within TOL or
    2·TOL of it, some far, dealt to the rows in a drawn order; the basic
    variables are distinct and random."""
    n = draw(st.integers(1, 30))
    steps = st.one_of(
        st.floats(0.0, 2.5), st.sampled_from([0.0, 1.0, 2.0]), st.floats(2.0, 2.0 + 1e-6), st.floats(2.5, 1e6)
    )
    base = draw(st.sampled_from([0.0, 1.0, 0.37]) | st.floats(-1e-9, 100.0))
    ascending = base + np.cumsum([0.0] + draw(st.lists(steps, min_size=n - 1, max_size=n - 1))) * TOL
    ratios = np.array(draw(st.permutations(ascending.tolist())))
    rows = np.array(sorted(draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True))))
    basic = np.array(draw(st.lists(st.integers(0, 400), min_size=n, max_size=n, unique=True)))
    return rows, ratios, basic


CHAIN = (np.arange(4), np.array([0.0, 0.9, 1.8, 2.7]) * TOL, np.array([4, 3, 2, 1]))  # climbs past min + TOL
ABOVE_A_GAP = (np.arange(4), np.array([4.0, 0.0, 0.9, 1.8]) * TOL, np.array([1, 4, 3, 2]))  # first row can't win
LONE_MINIMUM = (np.arange(3), np.array([5.0, 0.0, 2.5]) * TOL, np.array([0, 2, 1]))  # no fold needed


@settings(max_examples=150, deadline=None)
@given(chained_ratios())
@example(CHAIN)
@example(ABOVE_A_GAP)
@example(LONE_MINIMUM)
@example((np.arange(0), np.zeros(0), np.zeros(0, dtype=int)))
def test_leaving_row_matches_the_full_fold(candidates):
    rows, ratios, basic = candidates
    assert _leaving_row(rows, ratios, basic) == full_fold(rows.tolist(), ratios.tolist(), basic.tolist())
