import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_lsvi.penalty import MODES, PenaltyLedger, penalized_argmax


# ---------------------------------------------------------------------------
# Rectified update
# ---------------------------------------------------------------------------

def test_rectified_safe_cost_adds_nothing():
    ledger = PenaltyLedger(1, "rectified")
    ledger.end_episode([-1.0], k=1)
    assert ledger.z[0] == 1.0


def test_rectified_positive_cost_accumulates():
    ledger = PenaltyLedger(1, "rectified")
    ledger.end_episode([0.5], k=1)
    assert ledger.z[0] == 1.5


def test_rectified_floor_activates():
    ledger = PenaltyLedger(1, "rectified")
    ledger.z[0] = 3.0
    ledger.end_episode([-0.2], k=10)
    assert ledger.z[0] == 10.0


def test_rectified_initialized_at_one():
    ledger = PenaltyLedger(4, "rectified")
    assert np.all(ledger.z == 1.0)


def test_rectified_floor_and_monotone_invariants():
    rng = np.random.default_rng(0)
    ledger = PenaltyLedger(3, "rectified")
    prev = ledger.z.copy()
    for k in range(1, 100):
        costs = rng.uniform(-1, 1, size=3)
        ledger.end_episode(costs, k)
        assert np.all(ledger.z >= k)
        assert np.all(ledger.z >= prev - 1e-12)
        prev = ledger.z.copy()


# ---------------------------------------------------------------------------
# Virtual queue update
# ---------------------------------------------------------------------------

def test_virtual_queue_floor_at_zero():
    ledger = PenaltyLedger(1, "virtual_queue")
    ledger.end_episode([-1.0], k=1)
    assert ledger.z[0] == 0.0


def test_virtual_queue_signed_decrement():
    ledger = PenaltyLedger(1, "virtual_queue")
    ledger.z[0] = 2.0
    ledger.end_episode([-0.5], k=1)
    assert ledger.z[0] == 1.5


def test_virtual_queue_alternating_costs_oscillate():
    ledger = PenaltyLedger(1, "virtual_queue")
    seen = []
    for i in range(10):
        ledger.end_episode([1.0 if i % 2 == 0 else -1.0], k=i + 1)
        seen.append(ledger.z[0])
    assert seen == [1.0, 0.0] * 5


def test_virtual_queue_cancellation_is_possible():
    # A sequence with positive rectified mass can still end with Z = 0.
    ledger = PenaltyLedger(1, "virtual_queue")
    costs = [1.0, -1.0] * 5
    positive_mass = sum(max(c, 0.0) for c in costs)
    for k, c in enumerate(costs, start=1):
        ledger.end_episode([c], k)
    assert positive_mass == 5.0
    assert ledger.z[0] == 0.0


def test_off_mode_stays_zero():
    ledger = PenaltyLedger(3, "off")
    ledger.end_episode([1.0, 1.0, 1.0], k=5)
    assert np.all(ledger.z == 0.0)


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        PenaltyLedger(2, "lagrangian")


def test_cost_range_validated():
    ledger = PenaltyLedger(1, "rectified")
    with pytest.raises(ValueError):
        ledger.end_episode([1.5], k=1)


@pytest.mark.parametrize("mode", MODES)
def test_end_episode_rejects_a_nan_cost(mode):
    ledger = PenaltyLedger(2, mode)
    ledger.end_episode([0.5, -0.5], k=1)
    before = ledger.z.copy()
    with pytest.raises(ValueError, match=r"outside \[-1, 1\]"):
        ledger.end_episode([np.nan, 0.0], k=2)
    assert np.array_equal(ledger.z, before)


@pytest.mark.parametrize("mode", MODES)
def test_end_episode_rejects_a_cost_list_of_the_wrong_length(mode):
    # One cost for H = 3 would leave Z_2 and Z_3 below the floor k = 5.
    ledger = PenaltyLedger(3, mode)
    before = ledger.z.copy()
    for costs in ([0.5], [0.5] * 4):
        with pytest.raises(ValueError, match="horizon 3"):
            ledger.end_episode(costs, k=5)
    assert np.array_equal(ledger.z, before)


def _scalar_recurrence(mode, horizon, episodes):
    """Z after each episode, one step and one Python float at a time."""
    z = [1.0 if mode == "rectified" else 0.0] * horizon
    history = []
    for k, costs in enumerate(episodes, start=1):
        for h, g in enumerate(costs):
            if mode == "rectified":
                z[h] = max(z[h] + max(g, 0.0), float(k))
            elif mode == "virtual_queue":
                z[h] = max(z[h] + g, 0.0)
        history.append(np.array(z))
    return history


COSTS = st.floats(min_value=-1.0, max_value=1.0)


@settings(max_examples=80, deadline=None)
@given(mode=st.sampled_from(MODES), data=st.data(),
       horizon=st.integers(min_value=1, max_value=5))
def test_end_episode_equals_scalar_recurrences_bitwise(mode, horizon, data):
    episodes = data.draw(st.lists(st.lists(COSTS, min_size=horizon,
                                           max_size=horizon),
                                  min_size=1, max_size=12))
    ledger = PenaltyLedger(horizon, mode)
    for k, (costs, want) in enumerate(
            zip(episodes, _scalar_recurrence(mode, horizon, episodes)), start=1):
        ledger.end_episode(costs, k)
        assert ledger.z.tobytes() == want.tobytes()
        if mode == "rectified":
            assert np.all(ledger.z >= k)


# ---------------------------------------------------------------------------
# Penalized argmax
# ---------------------------------------------------------------------------

def test_argmax_zero_penalty_is_plain_argmax():
    a = penalized_argmax(np.array([1.0, 3.0, 2.0]),
                         np.array([0.9, 0.9, 0.9]), z=0.0)
    assert a == 1


def test_argmax_hand_computed_case():
    q = np.array([5.0, 4.0])
    ghat = np.array([0.5, -1.0])
    a = penalized_argmax(q, ghat, z=10.0)
    # objectives are (0, 4): the penalty eliminates the Q-greedy action
    assert a == 1


def test_argmax_all_safe_ignores_z():
    q = np.array([2.0, 7.0, 4.0])
    ghat = np.array([-0.1, -0.5, -0.9])
    for z in (0.0, 1.0, 1e9):
        assert penalized_argmax(q, ghat, z) == 1


def test_argmax_ties_break_low_index():
    assert penalized_argmax(np.array([1.0, 1.0]), np.array([-1.0, -1.0]), 3.0) == 0


def test_argmax_constant_shift_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = rng.normal(size=5)
        g = rng.uniform(-1, 1, size=5)
        z = float(rng.uniform(0, 10))
        assert penalized_argmax(q, g, z) == penalized_argmax(q + 7.3, g, z)


def test_argmax_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        penalized_argmax(np.array([]), np.array([]), 1.0)
    with pytest.raises(ValueError):
        penalized_argmax(np.array([1.0]), np.array([1.0, 2.0]), 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_argmax_rejects_a_non_finite_z(bad):
    # Q - NaN*max(ghat, 0) is NaN in every entry, and the argmax of NaNs is
    # 0 for every row; inf*0 is NaN where ghat <= 0.
    q = np.array([[1.0, 3.0, 4.0], [5.0, 1.0, 0.0]])
    ghat = np.array([[-1.0, 0.0, 0.5], [0.0, -1.0, 1.0]])
    assert penalized_argmax(q, ghat, 1.0).tolist() == [2, 0]
    with pytest.raises(ValueError, match="penalty factor z=.* is not finite"):
        penalized_argmax(q, ghat, bad)


# Small integers make ties common, so the tie rule is exercised.
SMALL = st.integers(min_value=-3, max_value=3).map(float)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), shape=st.lists(st.integers(min_value=1, max_value=4),
                                      min_size=1, max_size=3),
       z=st.sampled_from([0.0, 0.5, 1.0, 7.0]))
def test_argmax_on_a_table_equals_the_argmax_of_each_row(data, shape, z):
    size = int(np.prod(shape))
    q = np.array(data.draw(st.lists(SMALL, min_size=size, max_size=size))).reshape(shape)
    ghat = np.array(data.draw(st.lists(SMALL, min_size=size, max_size=size))).reshape(shape)
    got = penalized_argmax(q, ghat, z)
    assert got.shape == tuple(shape[:-1])
    for index in np.ndindex(*shape[:-1]):
        objective = [qa - z * max(ga, 0.0) for qa, ga in zip(q[index], ghat[index])]
        assert got[index] == objective.index(max(objective))


@pytest.mark.parametrize("k", [math.nan, math.inf, 1.5, 2.0, 0, -3, True, np.True_,
                               np.float64(2.0)],
                         ids=["nan", "inf", "fraction", "float", "zero", "negative",
                              "bool", "numpy-bool", "numpy-float"])
@pytest.mark.parametrize("mode", MODES)
def test_end_episode_rejects_an_index_that_is_not_an_integer_of_at_least_one(mode, k):
    # k = NaN would set every Z_h to NaN, under which the penalized argmax
    # picks action 0 everywhere; inf, 1.5 and True would floor Z_h at inf,
    # 1.5 and 1.
    ledger = PenaltyLedger(2, mode)
    ledger.end_episode([0.5, -0.5], k=1)
    before = ledger.z.copy()
    with pytest.raises(ValueError, match="episode index must be an integer >= 1"):
        ledger.end_episode([0.5, 0.5], k)
    assert ledger.z.tobytes() == before.tobytes()


@pytest.mark.parametrize("k", [np.int64(2), np.int32(2), np.uint8(2)],
                         ids=["int64", "int32", "uint8"])
def test_end_episode_accepts_a_numpy_integer_index(k):
    ledger, ref = PenaltyLedger(2, "rectified"), PenaltyLedger(2, "rectified")
    ledger.end_episode([0.5, -0.5], k)
    ref.end_episode([0.5, -0.5], 2)
    assert ledger.z.tobytes() == ref.z.tobytes()
