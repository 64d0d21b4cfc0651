"""Constants, schedules, and configuration validation.

The closed-form constants are checked against an independent high-precision
evaluation (mpmath at 40 digits) and against frozen decimal literals, so a
regression in either the formula or the float evaluation order shows up.
"""

import copy
import dataclasses
import math
import pickle
from array import array

import mpmath as mp
import numpy as np
import pytest

from driftvote import (
    AccuracyEstimate,
    AdaptiveConfig,
    BlockSpec,
    ErrorBudget,
    GapProbe,
    Reports,
    RunSummary,
    Stream,
    SyntheticStreamConfig,
    WindowDecision,
    WindowSchedule,
    correlation_from_accuracies,
    drift_threshold,
    error_budget,
    recover_accuracies,
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
    # a value that is no real number, a bool included, is named by its field
    for name in ("beta", "delta", "clip_lo", "clip_hi"):
        for bad in (True, np.True_, "0.1", None, 0.5 + 0j, np.complex128(0.5)):
            with pytest.raises(ValueError, match=f"^{name} must be a real number, got "):
                AdaptiveConfig(n=3, **{name: bad})
    # Python and numpy ints and floats are kept as given
    values = dict(beta=1, delta=np.float64(0.1), clip_lo=np.float32(0.25), clip_hi=np.float16(0.75))
    cfg = AdaptiveConfig(n=3, **values)
    assert all(getattr(cfg, name) is value for name, value in values.items())
    assert AdaptiveConfig(n=3, beta=np.int64(1)).thresholds == AdaptiveConfig(n=3, beta=1.0).thresholds


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


HUGE = 10**400  # a Python int no float holds


#: calls whose number is hostile, by case, with the name the error gives
HOSTILE = {
    "config-huge-beta": ("beta", lambda: AdaptiveConfig(n=3, beta=HUGE)),
    "config-huge-delta": ("delta", lambda: AdaptiveConfig(n=3, delta=-HUGE)),
    "config-huge-clip": ("clip_hi", lambda: AdaptiveConfig(n=3, clip_hi=HUGE)),
    "overhead-huge-beta": ("beta", lambda: selection_overhead(WindowSchedule.doubling(3), HUGE)),
    "threshold-huge-beta": ("beta", lambda: drift_threshold(1, 2, HUGE, 1.0)),
    "threshold-str-const": ("bound_const", lambda: drift_threshold(1, 2, 0.1, "1")),
    "statistical-str-const": ("bound_const", lambda: statistical_error(4, "1")),
    "statistical-huge-const": ("bound_const", lambda: statistical_error(4, HUGE)),
    "union-str-delta": ("delta", lambda: union_bound_constant(3, 3, "0.1")),
    "budget-str-margin": ("margin", lambda: error_budget(AdaptiveConfig(3), margin="0.1")),
    "budget-huge-margin": ("margin", lambda: error_budget(AdaptiveConfig(3), margin=HUGE)),
    "recover-str-clip": (
        "clip_lo", lambda: recover_accuracies(correlation_from_accuracies([0.8] * 3), clip_lo="0.1")
    ),
}


@pytest.mark.parametrize("name, call", list(HOSTILE.values()), ids=list(HOSTILE))
def test_theory_numbers_name_a_hostile_number(name, call):
    # an int too large for a float once constructed and overflowed at first
    # use, and a str raised TypeError from a comparison
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call()


def test_theory_numbers_take_ints_a_float_holds():
    assert statistical_error(4, 2**1000) == 2.0**999
    assert drift_threshold(1, 2, np.float64(0.5), np.int64(2)) == drift_threshold(1, 2, 0.5, 2.0)
    assert AdaptiveConfig(n=3, beta=10**300).beta == 10**300


_VOTES = np.array([[1, -1, 1]], dtype=np.int8)
_ONE = np.array([1], dtype=np.int8)
_BLOCK = np.array([0], dtype=np.int32)
_WINDOW = np.array([4])
_P = np.array([[0.5, 0.75, 0.9]])
_RAW, _CLIPPED = np.array([0.95, 0.5]), np.array([0.9, 0.5])

#: every record of the library: its class, its fields in order, values for
#: all of them, the defaults of the trailing ones, its ``repr`` of those
#: values, and how it compares ("frozen": by fields, hashable and frozen;
#: "fields": by fields, unhashable; "identity")
RECORDS = {
    "WindowSchedule": (
        WindowSchedule, ("sizes",), ((1, 3, 9),), (),
        "WindowSchedule(sizes=(1, 3, 9))", "frozen",
    ),
    "AdaptiveConfig": (
        AdaptiveConfig, ("n", "schedule", "beta", "delta", "clip_lo", "clip_hi"),
        (4, WindowSchedule((1, 2, 4)), 0.2, 0.05, 0.2, 0.8),
        (WindowSchedule.doubling(20), 0.1, 0.1, 0.1, 0.9),
        "AdaptiveConfig(n=4, schedule=WindowSchedule(sizes=(1, 2, 4)), beta=0.2, delta=0.05,"
        " clip_lo=0.2, clip_hi=0.8)", "frozen",
    ),
    "ErrorBudget": (
        ErrorBudget, ("overhead", "bound_const", "margin", "statistical"),
        (1.5, 2.0, None, {1: 2.0}), (),
        "ErrorBudget(overhead=1.5, bound_const=2.0, margin=None, statistical={1: 2.0})", "frozen",
    ),
    "Stream": (
        Stream, ("votes", "truth", "block"), (_VOTES, _ONE, _BLOCK), (None, None),
        "Stream(votes=array([[ 1, -1,  1]], dtype=int8), truth=array([1], dtype=int8),"
        " block=array([0], dtype=int32))", "fields",
    ),
    "Reports": (
        Reports, ("prediction", "window", "p_hat", "weights", "truth", "stop_reason"),
        (_ONE, _WINDOW, _P, _P, _ONE, _ONE), (None,) * 5,
        "Reports(prediction=array([1], dtype=int8), window=array([4]),"
        " p_hat=array([[0.5 , 0.75, 0.9 ]]), weights=array([[0.5 , 0.75, 0.9 ]]),"
        " truth=array([1], dtype=int8), stop_reason=array([1], dtype=int8))", "identity",
    ),
    "RunSummary": (
        RunSummary, ("steps", "accuracy", "f1", "histogram", "rolling"),
        (2, 0.5, 0.4, {1: 2}, array("d", [0.5, 1.0])), (),
        "RunSummary(steps=2, accuracy=0.5, f1=0.4, histogram={1: 2},"
        " rolling=array('d', [0.5, 1.0]))", "fields",
    ),
    "BlockSpec": (
        BlockSpec, ("length", "accuracies"), (10, (0.9, 0.8, 0.7)), (),
        "BlockSpec(length=10, accuracies=(0.9, 0.8, 0.7))", "frozen",
    ),
    "SyntheticStreamConfig": (
        SyntheticStreamConfig, ("blocks", "seed", "n"), ((BlockSpec(10, (0.9, 0.8, 0.7)),), 0, 3), (),
        "SyntheticStreamConfig(blocks=(BlockSpec(length=10, accuracies=(0.9, 0.8, 0.7)),),"
        " seed=0, n=3)", "frozen",
    ),
    "WindowDecision": (
        WindowDecision, ("chosen_index", "window", "stop_reason", "probes"),
        (1, 2, "horizon_reached", (GapProbe(1, 1, 2, 0.5, 0.25),)), (),
        "WindowDecision(chosen_index=1, window=2, stop_reason='horizon_reached',"
        " probes=(GapProbe(index=1, window=1, next_window=2, gap=0.5, threshold=0.25),))", "frozen",
    ),
    "AccuracyEstimate": (
        AccuracyEstimate, ("raw", "accuracies", "window"), (_RAW, _CLIPPED, 4), (),
        "AccuracyEstimate(raw=array([0.95, 0.5 ]), accuracies=array([0.9, 0.5]), window=4)", "frozen",
    ),
}


@pytest.fixture(params=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_records_build_by_position_name_and_default(record):
    cls, names, values, defaults, text, _ = record
    for r in (cls(*values), cls(**dict(zip(names, values)))):
        assert list(vars(r)) == list(names) and repr(r) == text
    required = len(names) - len(defaults)
    bare = cls(*values[:required])
    assert all(getattr(bare, name) == value for name, value in zip(names[required:], defaults))
    for bad in (
        lambda: cls(*values[:required - 1]),  # a missing argument
        lambda: cls(*values, None),  # one too many
        lambda: cls(*values, no_such_field=1),
        lambda: cls(*values, **{names[0]: values[0]}),  # given twice
    ):
        with pytest.raises(TypeError):
            bad()
    assert AdaptiveConfig(3).schedule == WindowSchedule.doubling(20)


def test_record_repr_is_pinned(record):
    cls, _, values, _, text, _ = record
    assert repr(cls(*values)) == text


def test_records_compare_by_their_kind(record):
    cls, names, values, _, _, kind = record
    r, twin = cls(*values), cls(*values)
    other = copy.copy(r)
    other.__dict__[names[-1]] = object()
    assert r.__eq__(values) is NotImplemented and r != values
    if kind == "identity":
        assert r == r and r != twin and hash(r) != hash(twin)
        return
    assert r == twin and r != other
    if kind == "fields":
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)
        return
    try:
        want = hash(values)
    except TypeError:  # a field that is an array or a dict
        with pytest.raises(TypeError, match="unhashable"):
            hash(r)
    else:
        assert hash(r) == hash(twin) == want


def test_frozen_records_refuse_writes(record):
    cls, names, values, _, _, kind = record
    r = cls(*values)
    if kind != "frozen":
        setattr(r, names[0], values[0])
        delattr(r, names[-1])
        assert names[-1] not in vars(r)
        return
    for name in (names[0], names[-1], "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(r, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(r, name)
    assert repr(r) == repr(cls(*values))


def test_records_copy_and_pickle(record):
    cls, names, values, _, text, kind = record
    r = cls(*values)
    for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and list(vars(twin)) == list(names) and repr(twin) == text
    if kind != "identity":
        assert copy.copy(r) == r


def test_replace_rebuilds_through_the_checks(record):
    from driftvote.core import replace

    cls, names, values, _, text, _ = record
    r = cls(*values)
    assert cls._fields == names
    same = replace(r)
    assert type(same) is cls and same is not r and repr(same) == text
    assert repr(replace(r, **{names[-1]: values[-1]})) == text
    with pytest.raises(TypeError):
        replace(r, no_such_field=1)
    with pytest.raises(ValueError, match="beta must be positive and finite"):
        replace(AdaptiveConfig(3), beta=-1.0)
    with pytest.raises(ValueError, match="need at least 3 labelers"):
        replace(AdaptiveConfig(3), n=2)


def test_the_record_table_holds_every_record():
    from driftvote import adaptive, core, driftgen, metrics, triplet  # noqa: F401  (each defines records)

    assert {cls.__name__ for cls in core._Record.__subclasses__()} == set(RECORDS)
