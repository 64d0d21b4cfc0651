"""Constants, schedules, and configuration validation.

The closed-form constants are checked against an independent high-precision
evaluation (mpmath at 40 digits) and against frozen decimal literals, so a
regression in either the formula or the float evaluation order shows up.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from driftvote import (
    AdaptiveConfig,
    WindowSchedule,
    error_budget,
    selection_overhead,
    statistical_error,
    union_bound_constant,
)

mp.mp.dps = 40


def mp_union_bound(n, m, delta):
    return mp.sqrt(2 * mp.log((2 * m - 1) * n * (n - 1) / mp.mpf(delta)))


def mp_overhead(schedule, beta):
    ratios = [mp.sqrt(mp.mpf(a) / b) for a, b in zip(schedule.sizes, schedule.sizes[1:])]
    g, big_g = min(ratios), max(ratios)
    beta = mp.mpf(beta)
    scale = 2 * beta + 2
    return 1 + max(scale / (g * (1 - big_g)), scale / (beta * (1 - big_g)))


def test_union_bound_constant_against_high_precision():
    for n, m, delta in [(3, 20, 0.1), (3, 2, 0.5), (5, 14, 0.05), (8, 20, 0.9)]:
        got = union_bound_constant(n, m, delta)
        want = float(mp_union_bound(n, m, delta))
        assert got == pytest.approx(want, abs=1e-12)


def test_union_bound_constant_frozen_values():
    # independently derived and frozen before implementation
    assert union_bound_constant(3, 20, 0.1) == pytest.approx(3.9390116040326023, abs=1e-12)
    assert union_bound_constant(3, 2, 0.5) == pytest.approx(2.6771323980917007, abs=1e-12)


def test_union_bound_constant_validation():
    with pytest.raises(ValueError):
        union_bound_constant(2, 20, 0.1)
    with pytest.raises(ValueError):
        union_bound_constant(3, 1, 0.1)
    with pytest.raises(ValueError):
        union_bound_constant(3, 20, 0.0)
    with pytest.raises(ValueError):
        union_bound_constant(3, 20, 1.0)


@pytest.mark.parametrize("bad", [3.5, 3.0, True, "3"])
def test_theory_counts_must_be_integers(bad):
    # a float or bool count once gave a number (3.4228 for n = 3.5, m = 2.5,
    # and 1.0 for r = True); it is refused like the ladder's sizes are
    with pytest.raises(ValueError, match="must be an integer"):
        union_bound_constant(bad, 20, 0.1)
    with pytest.raises(ValueError, match="must be an integer"):
        union_bound_constant(3, bad, 0.1)
    with pytest.raises(ValueError, match="a window size must be an integer"):
        statistical_error(bad, 1.0)


def test_theory_counts_take_numpy_integers():
    for kind in (np.int8, np.uint16, np.int64):
        assert union_bound_constant(kind(3), kind(20), 0.1) == union_bound_constant(3, 20, 0.1)
        assert statistical_error(kind(4), 2.5) == statistical_error(4, 2.5) == 1.25


def test_statistical_error_values_and_monotonicity():
    a = union_bound_constant(3, 20, 0.1)
    assert statistical_error(1, a) == a
    assert statistical_error(4, a) == pytest.approx(a / 2, abs=1e-15)
    vals = [statistical_error(r, a) for r in (1, 2, 4, 8, 1024)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        statistical_error(0, a)


def test_doubling_schedule_shape():
    s = WindowSchedule.doubling(20)
    assert s.m == 20
    assert s.sizes[0] == 1 and s.max_size == 2**19
    assert s.sizes == tuple(2**k for k in range(20))
    assert s.min_ratio == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert s.max_ratio == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_schedule_ratios_nonuniform():
    s = WindowSchedule((1, 2, 8))
    assert s.min_ratio == pytest.approx(0.5, abs=1e-15)  # sqrt(2/8)
    assert s.max_ratio == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert 0.0 < s.min_ratio <= s.max_ratio < 1.0


def test_schedule_validation():
    with pytest.raises(ValueError):
        WindowSchedule((4,))
    with pytest.raises(ValueError):
        WindowSchedule((4, 4))
    with pytest.raises(ValueError):
        WindowSchedule((8, 4))
    with pytest.raises(ValueError):
        WindowSchedule((0, 4))
    with pytest.raises(ValueError):
        WindowSchedule((1, 2.0, 4))
    with pytest.raises(ValueError):
        WindowSchedule.doubling(1)


def test_schedule_stores_numpy_integers_as_python_ints():
    s = WindowSchedule(np.array([1, 3, 9]))
    assert s.sizes == (1, 3, 9) and {type(r) for r in s.sizes} == {int}
    assert s == WindowSchedule((1, 3, 9)) and hash(s) == hash(WindowSchedule((1, 3, 9)))


def test_selection_overhead_frozen_values():
    s = WindowSchedule.doubling(20)
    # frozen from 40-digit evaluation of the full two-argument max
    assert selection_overhead(s, 0.1) == pytest.approx(76.11269837220809, abs=1e-11)
    assert selection_overhead(s, math.sqrt(2) - 1) == pytest.approx(
        24.313708498984760, abs=1e-11
    )


def test_selection_overhead_against_high_precision():
    for sizes in [(1, 2, 4, 8), (1, 3, 9, 27, 81), (2, 5, 13, 64)]:
        s = WindowSchedule(sizes)
        for beta in (0.05, 0.1, math.sqrt(2) - 1, 1.0, 3.0):
            assert selection_overhead(s, beta) == pytest.approx(
                float(mp_overhead(s, beta)), rel=1e-12
            )


def test_selection_overhead_minimized_at_schedule_ratio():
    # for a uniform-ratio ladder the two max arguments balance at beta = ratio
    s = WindowSchedule.doubling(12)
    ratio = s.min_ratio
    at_ratio = selection_overhead(s, ratio)
    for beta in (ratio / 4, ratio / 2, ratio * 1.5, ratio * 3):
        assert selection_overhead(s, beta) >= at_ratio - 1e-12


def test_selection_overhead_validation():
    s = WindowSchedule.doubling(4)
    with pytest.raises(ValueError):
        selection_overhead(s, 0.0)
    with pytest.raises(ValueError):
        selection_overhead(s, -0.5)
    # NaN passes a `beta <= 0` test, and an infinite beta gives an infinite overhead
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            selection_overhead(s, beta)


def test_adaptive_config_defaults():
    cfg = AdaptiveConfig(n=3)
    assert cfg.schedule.sizes == tuple(2**k for k in range(20))
    assert (cfg.beta, cfg.delta) == (0.1, 0.1)
    assert (cfg.clip_lo, cfg.clip_hi) == (0.1, 0.9)
    assert cfg.bound_const == pytest.approx(3.9390116040326023, abs=1e-12)
    assert cfg.overhead == pytest.approx(76.11269837220809, abs=1e-11)


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(n=2)
    # a count that is no integer, a bool included, is no labeler count
    for n in (3.5, 4.0, True, np.True_, "3"):
        with pytest.raises(ValueError, match="n must be an integer"):
            AdaptiveConfig(n=n)
    for n in (2, np.int64(2)):
        with pytest.raises(ValueError, match=f"need at least 3 labelers, got n={n}"):
            AdaptiveConfig(n=n)
    assert AdaptiveConfig(n=np.int64(4)).bound_const == AdaptiveConfig(n=4).bound_const
    with pytest.raises(ValueError):
        AdaptiveConfig(n=3, beta=0.0)
    for beta in (math.nan, math.inf):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            AdaptiveConfig(n=3, beta=beta)
    with pytest.raises(ValueError):
        AdaptiveConfig(n=3, delta=1.5)
    with pytest.raises(ValueError):
        AdaptiveConfig(n=3, clip_lo=0.6)
    with pytest.raises(ValueError):
        AdaptiveConfig(n=3, clip_hi=0.4)


def test_error_budget_contents():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(5))
    budget = error_budget(cfg)
    assert set(budget.statistical) == set(cfg.schedule.sizes)
    vals = [budget.statistical[r] for r in cfg.schedule.sizes]
    assert all(v > 0 for v in vals)
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert budget.overhead > 1.0
    assert budget.margin is None and budget.recovery_prefactor is None


def test_error_budget_margin_prefactor():
    cfg = AdaptiveConfig(n=3, schedule=WindowSchedule.doubling(5))
    budget = error_budget(cfg, margin=0.2)
    assert budget.recovery_prefactor == pytest.approx(2.5 * cfg.overhead / 0.04, rel=1e-12)
    with pytest.raises(ValueError):
        error_budget(cfg, margin=0.0)
    with pytest.raises(ValueError):
        error_budget(cfg, margin=0.7)
