import numpy as np
import pytest

from safe_lsvi.envs import TabularCmdp, build_frozen_lake, build_synthetic_linear, step
from safe_lsvi.oracle import (brute_force_enumerate, constrained_dp,
                              policy_eval, value_iteration)


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
    policy, tab = constrained_dp(cmdp)
    assert policy[0, 0] == 0
    assert tab.v[0, 0] == pytest.approx(0.3)


def test_dp_vacuous_constraint_equals_value_iteration():
    rng = np.random.default_rng(0)
    cmdp = random_cmdp(rng, 3, 3, 4)
    cmdp.cost_mean[:] = -np.abs(cmdp.cost_mean)
    policy, tab = constrained_dp(cmdp)
    assert np.abs(tab.v - value_iteration(cmdp)).max() <= 1e-12


def test_dp_matches_brute_force_4state():
    rng = np.random.default_rng(5)
    cmdp = random_cmdp(rng, 4, 3, 3)
    policy, tab = constrained_dp(cmdp)
    _, bf_value = brute_force_enumerate(cmdp, safe_only=True)
    assert abs(tab.v[0, cmdp.initial_state] - bf_value) <= 1e-10
    for h in range(3):
        q_ref = cmdp.reward[h] + cmdp.transition[h] @ tab.v[h + 1]
        assert np.abs(tab.q[h] - q_ref).max() <= 1e-10
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


def test_dp_equals_the_per_state_loop_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(200):
        S, A, H = (int(x) for x in rng.integers(1, 5, size=3))
        cmdp = random_cmdp(rng, S, A, H)
        # Rewards from a few levels and deterministic rows tie many actions.
        cmdp.reward[:] = rng.integers(0, 3, size=cmdp.reward.shape) / 2.0
        if rng.uniform() < 0.5:
            cmdp.transition[:] = np.eye(S)[rng.integers(S, size=(H, S, A))]
        policy, tab = constrained_dp(cmdp)
        ref_policy, ref_v, ref_q = _constrained_dp_loop(cmdp)
        assert np.array_equal(policy, ref_policy)
        assert tab.v.tobytes() == ref_v.tobytes()
        assert tab.q.tobytes() == ref_q.tobytes()


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
    tab = policy_eval(cmdp, policy)
    for s in range(3):
        assert tab.v[0, s] == pytest.approx(cmdp.reward[0, s, policy[0, s]])


def test_policy_eval_deterministic_chain():
    S, H = 4, 3
    P = np.zeros((H, S, 1, S))
    for s in range(S):
        P[:, s, 0, min(s + 1, S - 1)] = 1.0
    R = np.zeros((H, S, 1))
    R[0, 0, 0], R[1, 1, 0], R[2, 2, 0] = 0.1, 0.2, 0.3
    cmdp = TabularCmdp(S, 1, H, P, R, -np.ones((H, S, 1)))
    tab = policy_eval(cmdp, np.zeros((H, S), dtype=int))
    assert tab.v[0, 0] == pytest.approx(0.6)


def test_policy_eval_matches_monte_carlo():
    rng = np.random.default_rng(3)
    cmdp = random_cmdp(rng, 2, 2, 2)
    policy = np.array([[0, 1], [1, 0]])
    tab = policy_eval(cmdp, policy)

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
    assert abs(mc - tab.v[0, 0]) <= 3.0 * se


def test_policy_eval_bellman_residual():
    rng = np.random.default_rng(8)
    cmdp = random_cmdp(rng, 3, 3, 4)
    policy = rng.integers(0, 3, size=(4, 3))
    tab = policy_eval(cmdp, policy)
    for h in range(4):
        residual = tab.q[h] - (cmdp.reward[h] + cmdp.transition[h] @ tab.v[h + 1])
        assert np.abs(residual).max() <= 1e-10


def test_policy_eval_rejects_bad_shape():
    rng = np.random.default_rng(2)
    cmdp = random_cmdp(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        policy_eval(cmdp, np.zeros((3, 2), dtype=int))


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
    best = max(policy_eval(cmdp, np.array([[a0], [a1]])).v[0, 0]
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
        _, tab = constrained_dp(cmdp)
        _, bf_value = brute_force_enumerate(cmdp, safe_only=True)
        assert abs(tab.v[0, cmdp.initial_state] - bf_value) <= 1e-10


def test_safe_optimum_never_exceeds_unconstrained():
    rng = np.random.default_rng(20)
    for _ in range(10):
        cmdp = random_cmdp(rng, 3, 3, 3)
        _, tab = constrained_dp(cmdp)
        v_unc = value_iteration(cmdp)
        assert np.all(tab.v[0] <= v_unc[0] + 1e-12)
