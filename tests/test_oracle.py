import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from safe_lsvi.envs import (DEFAULT_LAKE_MAP, TabularCmdp, build_frozen_lake,
                            build_hard_instance, build_synthetic_linear,
                            frozen_lake_from_grid, step)
from safe_lsvi.oracle import PolicyRows, constrained_dp, policy_eval, value_iteration

from dense_reference import backup_q, brute_force_enumerate
from test_output_bytes import blas_core


def random_cmdp(rng, S, A, H, ensure_feasible=True):
    P = rng.random((H, S, A, S)) + 0.05
    P /= P.sum(axis=-1, keepdims=True)
    R = rng.random((H, S, A))
    G = rng.uniform(-1, 1, size=(H, S, A))
    if ensure_feasible:
        for h in range(H):
            for s in range(S):
                if G[h, s].min() > 0:
                    G[h, s, rng.integers(A)] = -rng.uniform(0.1, 1.0)
    return TabularCmdp(S, A, H, P, R, G)


# ---------------------------------------------------------------------------
# constrained_dp
# ---------------------------------------------------------------------------

def test_dp_constraint_eliminates_better_arm():
    P = np.ones((1, 1, 2, 1))
    R = np.array([[[0.3, 0.9]]])
    G = np.array([[[-1.0, 1.0]]])
    cmdp = TabularCmdp(1, 2, 1, P, R, G)
    policy, v = constrained_dp(cmdp)
    assert policy[0, 0] == 0
    assert v[0, 0] == pytest.approx(0.3)


def test_dp_vacuous_constraint_equals_value_iteration():
    rng = np.random.default_rng(0)
    cmdp = random_cmdp(rng, 3, 3, 4)
    cmdp.cost_mean[:] = -np.abs(cmdp.cost_mean)
    policy, v = constrained_dp(cmdp)
    assert np.abs(v - value_iteration(cmdp)).max() <= 1e-12


def test_dp_matches_brute_force_4state():
    rng = np.random.default_rng(5)
    cmdp = random_cmdp(rng, 4, 3, 3)
    policy, v = constrained_dp(cmdp)
    _, bf_value = brute_force_enumerate(cmdp, safe_only=True)
    assert abs(v[0, cmdp.initial_state] - bf_value) <= 1e-10
    q = backup_q(cmdp, v)
    rows = np.arange(4)
    for h in range(3):
        q_ref = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        assert np.abs(q[h] - q_ref).max() <= 1e-10
        # v is the backup read at the policy's actions.
        assert v[h].tobytes() == q[h, rows, policy[h]].tobytes()
        for s in range(4):
            assert cmdp.cost_mean[h, s, policy[h, s]] <= 0


def _constrained_dp_loop(cmdp):
    """Reference: the safe argmax one state at a time."""
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    v = np.zeros((H + 1, S))
    q = np.zeros((H, S, A))
    policy = np.zeros((H, S), dtype=np.int64)
    for h in range(H - 1, -1, -1):
        q[h] = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        for s in range(S):
            allowed = np.flatnonzero(cmdp.cost_mean[h, s] <= 0.0)
            a = allowed[np.argmax(q[h, s, allowed])]
            policy[h, s] = a
            v[h, s] = q[h, s, a]
    return policy, v, q


def _tied_cmdps(seed):
    """200 random CMDPs of up to 4 states, actions and steps whose rewards
    from a few levels and, in about half, deterministic rows tie many
    actions."""
    rng = np.random.default_rng(seed)
    for _ in range(200):
        S, A, H = (int(x) for x in rng.integers(1, 5, size=3))
        cmdp = random_cmdp(rng, S, A, H)
        cmdp.reward[:] = rng.integers(0, 3, size=cmdp.reward.shape) / 2.0
        if rng.uniform() < 0.5:
            cmdp.transition[:] = np.eye(S)[rng.integers(S, size=(H, S, A))]
        yield cmdp


def test_dp_equals_the_per_state_loop_bitwise():
    for cmdp in _tied_cmdps(31):
        policy, v = constrained_dp(cmdp)
        ref_policy, ref_v, ref_q = _constrained_dp_loop(cmdp)
        assert np.array_equal(policy, ref_policy)
        assert v.tobytes() == ref_v.tobytes()
        assert backup_q(cmdp, v).tobytes() == ref_q.tobytes()


def _value_iteration_loop(cmdp):
    """Reference: each state's maximum, one state at a time."""
    H, S = cmdp.horizon, cmdp.num_states
    v = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        q = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        for s in range(S):
            v[h, s] = q[s].max()
    return v


def test_value_iteration_equals_the_per_state_max_loop_bitwise():
    # value_iteration is the safe backup with every action safe: the argmax
    # of a row picks its maximum, ties included.
    for cmdp in _tied_cmdps(37):
        assert value_iteration(cmdp).tobytes() == _value_iteration_loop(cmdp).tobytes()


def test_dp_infeasible_raises_with_location():
    P = np.ones((2, 1, 1, 1))
    R = np.zeros((2, 1, 1))
    G = np.array([[[-1.0]], [[-1.0]]])
    cmdp = TabularCmdp(1, 1, 2, P, R, G)
    cmdp.cost_mean[1, 0, 0] = 0.5  # mutate after validation
    with pytest.raises(ValueError, match=r"h=1, s=0"):
        constrained_dp(cmdp)


# ---------------------------------------------------------------------------
# policy_eval
# ---------------------------------------------------------------------------

def test_policy_eval_single_step():
    rng = np.random.default_rng(1)
    cmdp = random_cmdp(rng, 3, 2, 1)
    policy = np.array([[1, 0, 1]])
    v = policy_eval(cmdp, policy)
    assert v.shape == (2, 3) and not v[1].any()
    for s in range(3):
        assert v[0, s] == pytest.approx(cmdp.reward[0, s, policy[0, s]])


def test_policy_eval_deterministic_chain():
    S, H = 4, 3
    P = np.zeros((H, S, 1, S))
    for s in range(S):
        P[:, s, 0, min(s + 1, S - 1)] = 1.0
    R = np.zeros((H, S, 1))
    R[0, 0, 0], R[1, 1, 0], R[2, 2, 0] = 0.1, 0.2, 0.3
    cmdp = TabularCmdp(S, 1, H, P, R, -np.ones((H, S, 1)))
    v = policy_eval(cmdp, np.zeros((H, S), dtype=int))
    assert v[0, 0] == pytest.approx(0.6)


def test_policy_eval_matches_monte_carlo():
    rng = np.random.default_rng(3)
    cmdp = random_cmdp(rng, 2, 2, 2)
    policy = np.array([[0, 1], [1, 0]])
    v = policy_eval(cmdp, policy)

    n = 100_000
    sim_rng = np.random.default_rng(99)
    states = np.zeros(n, dtype=int)
    totals = np.zeros(n)
    for h in range(cmdp.horizon):
        actions = policy[h, states]
        totals += cmdp.reward[h, states, actions]
        cum = np.cumsum(cmdp.transition[h], axis=-1)
        u = sim_rng.random(n)
        rows = cum[states, actions]
        states = (u[:, None] > rows).sum(axis=1)
    mc = totals.mean()
    se = totals.std(ddof=1) / np.sqrt(n)
    assert abs(mc - v[0, 0]) <= 3.0 * se


def test_policy_eval_bellman_residual():
    rng = np.random.default_rng(8)
    cmdp = random_cmdp(rng, 3, 3, 4)
    policy = rng.integers(0, 3, size=(4, 3))
    v = policy_eval(cmdp, policy)
    rows = np.arange(3)
    for h in range(4):
        q = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        residual = v[h] - q[rows, policy[h]]
        assert np.abs(residual).max() <= 1e-10


def test_policy_eval_rejects_bad_shape():
    rng = np.random.default_rng(2)
    cmdp = random_cmdp(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        policy_eval(cmdp, np.zeros((3, 2), dtype=int))


def test_policy_eval_rejects_a_negative_action():
    # Without the check, -1 would index the last action.
    cmdp = random_cmdp(np.random.default_rng(2), 2, 3, 2)
    with pytest.raises(ValueError, match=r"integer actions in \[0, 3\)"):
        policy_eval(cmdp, np.array([[0, 1], [-1, 2]]))


def test_policy_eval_rejects_an_action_past_the_last():
    cmdp = random_cmdp(np.random.default_rng(2), 2, 3, 2)
    with pytest.raises(ValueError, match=r"integer actions in \[0, 3\)"):
        policy_eval(cmdp, np.array([[0, 3], [1, 2]]))


def test_policy_eval_rejects_a_float_policy():
    # Without the check, 0.7 would be cut to action 0.
    cmdp = random_cmdp(np.random.default_rng(2), 2, 3, 2)
    with pytest.raises(ValueError, match=r"integer actions in \[0, 3\)"):
        policy_eval(cmdp, np.array([[0.7, 1.0], [0.0, 2.0]]))


@functools.cache
def _env(name):
    if name == "frozen_lake":
        return frozen_lake_from_grid(DEFAULT_LAKE_MAP, 15)[0]
    if name == "synthetic_linear":
        return build_synthetic_linear(8, 5, 0)[0]
    return build_hard_instance(13, 3, 216)[0]


def _full_table_eval(cmdp, policy):
    """Reference: the whole (S, A) backup r_h + P_h v_{h+1} per step, read
    at the policy's actions."""
    H, S = policy.shape
    v = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        q = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        v[h] = q[np.arange(S), policy[h]]
    return v


@settings(max_examples=30, deadline=None)
@given(env=st.sampled_from(["frozen_lake", "synthetic_linear", "hard_instance"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_policy_eval_equals_the_full_table_backup_bitwise(env, seed):
    cmdp = _env(env)
    policy = np.random.default_rng(seed).integers(
        cmdp.num_actions, size=(cmdp.horizon, cmdp.num_states))
    # Both go through BLAS: equal on the Haswell and SkylakeX kernels, not
    # on pre-Haswell ones (Prescott, Sandybridge).
    assert policy_eval(cmdp, policy).tobytes() == _full_table_eval(cmdp, policy).tobytes(), \
        f"policy_eval differs from the full-table backup (OpenBLAS core {blas_core()})"


def _store_cmdp(kind, rng, seed):
    """A CMDP for the store tests: a random one of up to 12 states, one of
    the tied ones, or the lake."""
    if kind == "random":
        S, A, H = int(rng.integers(1, 13)), int(rng.integers(1, 6)), int(rng.integers(1, 6))
        return random_cmdp(rng, S, A, H)
    if kind == "tied":
        return next(_tied_cmdps(seed))
    return _env(kind)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "tied", "frozen_lake"]),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       moves=st.lists(st.sampled_from(["repeat", "one", "step", "new"]),
                      min_size=1, max_size=12))
def test_a_store_serves_any_policy_sequence_bitwise(kind, seed, moves):
    # One store, fed repeats, one-entry changes, whole-step changes and
    # all-new policies (the first policy is new too), each changed in place
    # as dense_reference.brute_force_enumerate does, gives every time the
    # bytes of a fresh evaluation.
    rng = np.random.default_rng(seed)
    cmdp = _store_cmdp(kind, rng, seed)
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    rows = PolicyRows(cmdp)
    policy = rng.integers(A, size=(H, S))
    for move in moves:
        if move == "one":
            policy[rng.integers(H), rng.integers(S)] = rng.integers(A)
        elif move == "step":
            policy[rng.integers(H)] = rng.integers(A, size=S)
        elif move == "new":
            policy[:] = rng.integers(A, size=(H, S))
        v = policy_eval(cmdp, policy, rows)
        assert v.tobytes() == policy_eval(cmdp, policy).tobytes(), move


BAD_POLICIES = {
    "wrong-shape": lambda p, A: p[:, :-1],
    "negative": lambda p, A: np.where(np.arange(p.size).reshape(p.shape) == 1, -1, p),
    "past-the-last": lambda p, A: np.where(np.arange(p.size).reshape(p.shape) == 1, A, p),
    "float": lambda p, A: p.astype(float),
    "bool": lambda p, A: p.astype(bool),
}


@pytest.mark.parametrize("bad", list(BAD_POLICIES))
def test_an_invalid_policy_leaves_the_store_exact(bad):
    # The whole policy is checked before the store changes: the next call,
    # with the last policy or another, is still exact.
    rng = np.random.default_rng(3)
    cmdp = random_cmdp(rng, 3, 3, 2)
    rows = PolicyRows(cmdp)
    first = rng.integers(3, size=(2, 3))
    policy_eval(cmdp, first, rows)
    with pytest.raises(ValueError, match="policy must"):
        policy_eval(cmdp, BAD_POLICIES[bad](first, 3), rows)
    for policy in (first, (first + 1) % 3):
        assert policy_eval(cmdp, policy, rows).tobytes() == \
            policy_eval(cmdp, policy).tobytes()


def test_a_store_of_another_cmdp_is_rejected():
    # An equal copy is another CMDP too: the store holds no check of the
    # arrays, only of which CMDP it serves.
    cmdp = random_cmdp(np.random.default_rng(4), 2, 2, 2)
    rows = PolicyRows(cmdp)
    policy = np.zeros((2, 2), dtype=int)
    with pytest.raises(ValueError, match="another CMDP"):
        policy_eval(dataclasses.replace(cmdp), policy, rows)


def test_a_lake_evaluation_that_changes_one_entry_gathers_in_place():
    # The lake's tables are read-only views of its one step.  A call that
    # changes one (h, s) gathers that row from the view as it is; a reshape
    # of the view to rows would copy all H steps, 4.8 MB.
    cmdp = _env("frozen_lake")
    assert cmdp.transition.strides[0] == 0 and cmdp.transition.nbytes > 4 << 20
    rows = PolicyRows(cmdp)
    policy = np.zeros((cmdp.horizon, cmdp.num_states), dtype=np.int64)
    policy_eval(cmdp, policy, rows)
    policy[7, 42] = 3
    tracemalloc.start()
    try:
        v = policy_eval(cmdp, policy, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert v.tobytes() == policy_eval(cmdp, policy).tobytes()


TABLES = ("transition", "reward", "cost_mean")


def _one_step_cmdp(kind, rng, H):
    """A CMDP whose H steps repeat one step as read-only views: a random one
    of 1-4 states and actions with tied rewards, a random lake of up to 4x4
    cells, or the default lake."""
    if kind == "default-lake":
        return _env("frozen_lake")
    if kind == "lake":
        width, height = int(rng.integers(2, 5)), int(rng.integers(1, 5))
        n = width * height
        goal, start = (int(x) for x in rng.integers(n, size=2))
        hazards = set(rng.choice(n, size=int(rng.integers(n)), replace=False).tolist())
        try:
            return build_frozen_lake(width, height, hazards - {goal}, goal, H, start)[0]
        except ValueError:  # a cell whose every move meets a hazard
            return build_frozen_lake(width, height, set(), goal, H, start)[0]
    S, A = (int(x) for x in rng.integers(1, 5, size=2))
    one = random_cmdp(rng, S, A, 1)
    one.reward[:] = rng.integers(0, 4, size=one.reward.shape) / 3.0  # ties
    return dataclasses.replace(one, horizon=H, **{
        name: np.broadcast_to(getattr(one, name), (H, *getattr(one, name).shape[1:]))
        for name in TABLES})


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["random", "lake", "default-lake"]), H=st.integers(1, 6),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_the_oracle_reads_a_repeated_step_as_its_dense_copy_bitwise(kind, H, seed):
    # constrained_dp, value_iteration and a store's policy_eval calls give
    # the same bytes on the views as on a dense copy of all H steps.
    rng = np.random.default_rng(seed)
    view = _one_step_cmdp(kind, rng, H)
    assert all(getattr(view, name).strides[0] == 0 for name in TABLES)
    dense = dataclasses.replace(view, **{name: getattr(view, name).copy() for name in TABLES})
    (policy, v), (dense_policy, dense_v) = constrained_dp(view), constrained_dp(dense)
    assert np.array_equal(policy, dense_policy) and v.tobytes() == dense_v.tobytes()
    assert value_iteration(view).tobytes() == value_iteration(dense).tobytes()
    H, S, A = view.horizon, view.num_states, view.num_actions
    stores = PolicyRows(view), PolicyRows(dense)
    for _ in range(4):
        assert policy_eval(view, policy, stores[0]).tobytes() == \
            policy_eval(dense, policy, stores[1]).tobytes()
        assert stores[0].transition.tobytes() == stores[1].transition.tobytes()
        assert stores[0].reward.tobytes() == stores[1].reward.tobytes()
        policy = policy.copy()
        policy[rng.integers(H), rng.integers(S)] = rng.integers(A)


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_counts_policies():
    rng = np.random.default_rng(4)
    cmdp = random_cmdp(rng, 1, 2, 2)
    cmdp.cost_mean[:] = -1.0
    policy, value = brute_force_enumerate(cmdp, safe_only=False)
    assert policy.shape == (2, 1)
    # 2 actions, 1 state, 2 steps: 4 candidate policies, best is the argmax
    best = max(policy_eval(cmdp, np.array([[a0], [a1]]))[0, 0]
               for a0 in range(2) for a1 in range(2))
    assert value == pytest.approx(best)


def test_brute_force_cap():
    rng = np.random.default_rng(6)
    cmdp = random_cmdp(rng, 4, 4, 6)
    with pytest.raises(ValueError, match="cap"):
        brute_force_enumerate(cmdp, safe_only=False)


def test_brute_force_vacuous_safety_same_optimum():
    rng = np.random.default_rng(7)
    cmdp = random_cmdp(rng, 2, 2, 3)
    cmdp.cost_mean[:] = -np.abs(cmdp.cost_mean)
    _, v_safe = brute_force_enumerate(cmdp, safe_only=True)
    _, v_all = brute_force_enumerate(cmdp, safe_only=False)
    assert v_safe == pytest.approx(v_all, abs=1e-12)


def test_dp_equals_brute_force_battery():
    rng = np.random.default_rng(10)
    for trial in range(15):
        S = int(rng.integers(2, 4))
        A = int(rng.integers(2, 4))
        H = int(rng.integers(1, 4))
        if (A ** (S * H)) > 10 ** 5:
            continue
        cmdp = random_cmdp(rng, S, A, H)
        _, v = constrained_dp(cmdp)
        _, bf_value = brute_force_enumerate(cmdp, safe_only=True)
        assert abs(v[0, cmdp.initial_state] - bf_value) <= 1e-10


# Cost means on a grid that holds 0.0, so that the safe set's boundary
# (mean cost <= 0 is safe) is met exactly.
COST_LEVELS = np.array([-1.0, -0.5, 0.0, 0.5, 1.0])


@settings(max_examples=60, deadline=None)
@given(S=st.integers(1, 4), A=st.integers(1, 4), H=st.integers(1, 4),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_the_oracle_equals_enumeration_on_tiny_cmdps(S, A, H, seed):
    # Every deterministic policy of a CMDP with at most 4096 of them, against
    # the one optimal backup: the best safe policy's value is
    # constrained_dp's v[0, s0], which policy_eval of its policy gives too,
    # and the best of all policies is value_iteration's.
    assume(A ** (S * H) <= 4096)
    rng = np.random.default_rng(seed)
    cmdp = random_cmdp(rng, S, A, H)
    cmdp.reward[:] = rng.integers(0, 4, size=cmdp.reward.shape) / 3.0  # ties
    cmdp.cost_mean[:] = rng.choice(COST_LEVELS, size=cmdp.cost_mean.shape)
    safe = rng.integers(A, size=(H, S))  # one safe action per (h, s) at least
    cmdp.cost_mean[np.arange(H)[:, None], np.arange(S), safe] = \
        rng.choice(COST_LEVELS[:3], size=(H, S))
    s0 = cmdp.initial_state
    policy, v = constrained_dp(cmdp)
    _, bf_safe = brute_force_enumerate(cmdp, safe_only=True)
    assert abs(v[0, s0] - bf_safe) <= 1e-12
    assert (cmdp.cost_mean[np.arange(H)[:, None], np.arange(S), policy] <= 0.0).all()
    assert abs(policy_eval(cmdp, policy)[0, s0] - v[0, s0]) <= 1e-12
    _, bf_all = brute_force_enumerate(cmdp, safe_only=False)
    assert abs(value_iteration(cmdp)[0, s0] - bf_all) <= 1e-12


def test_safe_optimum_never_exceeds_unconstrained():
    rng = np.random.default_rng(20)
    for _ in range(10):
        cmdp = random_cmdp(rng, 3, 3, 3)
        _, v = constrained_dp(cmdp)
        v_unc = value_iteration(cmdp)
        assert np.all(v[0] <= v_unc[0] + 1e-12)
