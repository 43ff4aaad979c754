"""Exact solvers on known tabular CMDPs.

The comparator policy for regret is the optimal policy among those that pick
a nonpositive-mean-cost action at every (step, state); it comes from plain
backward induction with the maximization restricted to the safe action set.

One backward induction, _backup, gives both optima: constrained_dp
restricts each (h, s) to its safe actions and value_iteration lets every
action count as safe.  It forms one step's (S, A) table r_h + P_h v_{h+1} at
a time and keeps only the values and the policy.  Evaluating a fixed policy
needs one action per state, so policy_eval backs up along the (S, S)
transition rows of the chosen actions alone: per step one (S, S)
matrix-vector product instead of the (S, A, S) one.  Each entry of v is
the dot product of one transition row with v_{h+1} either way; both
products still go through BLAS, so their bits are those of the OpenBLAS
kernel in use.

The rows come from a PolicyRows store: the (H, S, S) transition rows and
(H, S) rewards of the policy it last served, H*S*S floats.  Each call
re-gathers only the (h, s) whose action differs from that policy, indexing
the CMDP's tables at those (h, s, a) in place: a table that repeats one
step as a read-only view (the lake's) is read as it is and never copied
whole.  The backup reads the store's C-contiguous (S, S) blocks, which hold
the bytes of the gathered rows.  A run's successive policies differ in a
few (h, s), so it keeps one store for all its evaluations.  A store serves
the one CMDP it was made for, whose arrays must not change while it is in
use; another CMDP's store is rejected.
"""

from __future__ import annotations

import numpy as np

from .envs import TabularCmdp


def _backup(cmdp: TabularCmdp, safe: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward induction with the maximization at each (h, s) restricted
    to the actions where safe[h, s] holds: the one optimal backup.  Returns
    (policy, v), v (H+1, S) with v[H] = 0."""
    H, S = cmdp.horizon, cmdp.num_states
    v = np.zeros((H + 1, S))
    policy = np.zeros((H, S), dtype=np.int64)
    rows = np.arange(S)
    for h in range(H - 1, -1, -1):
        stuck = np.flatnonzero(~safe[h].any(axis=1))
        if stuck.size:
            raise ValueError(f"no safe action at (h={h}, s={stuck[0]})")
        q = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        # Unsafe entries become -inf, so argmax picks the first safe maximum.
        policy[h] = np.where(safe[h], q, -np.inf).argmax(axis=1)
        v[h] = q[rows, policy[h]]
    return policy, v


def constrained_dp(cmdp: TabularCmdp) -> tuple[np.ndarray, np.ndarray]:
    """Backward induction restricted at each (h, s) to actions with mean cost
    <= 0 (exact comparison, no tolerance).  Returns (policy, v) where
    policy[h, s] is the safe argmax, ties broken by lowest action index, and
    v (H+1, S) its values.  Raises if some state has no safe action.
    """
    return _backup(cmdp, cmdp.cost_mean <= 0.0)


def value_iteration(cmdp: TabularCmdp) -> np.ndarray:
    """Unconstrained optimal values, shape (H+1, S): the same backup with
    every action safe, so each v[h, s] is its row's maximum."""
    return _backup(cmdp, np.ones(cmdp.cost_mean.shape, dtype=bool))[1]


class PolicyRows:
    """The evaluated policy's rows of one CMDP: for the (H, S) policy that
    policy_eval served last, transition (H, S, S) holds
    cmdp.transition[h, s, policy[h, s]] and reward (H, S)
    cmdp.reward[h, s, policy[h, s]].  policy starts at -1, so the first call
    gathers every row."""

    def __init__(self, cmdp: TabularCmdp):
        H, S = cmdp.horizon, cmdp.num_states
        self.cmdp = cmdp
        self.policy = np.full((H, S), -1, dtype=np.int64)
        self.transition = np.zeros((H, S, S))
        self.reward = np.zeros((H, S))


def policy_eval(cmdp: TabularCmdp, policy: np.ndarray,
                rows: PolicyRows | None = None) -> np.ndarray:
    """Exact expected values v (H+1, S) of a deterministic policy, v[H] = 0,
    by backward induction along the policy's actions:
    v[h, s] = r[h, s, pi(s)] + P[h, s, pi(s)] @ v[h+1].  policy is (H, S) of
    integer actions in [0, A); anything else is rejected before the store
    changes, since a negative action would wrap around to another one and a
    float would be cut to an integer.  rows is the PolicyRows store to
    update and read, made for cmdp; without one a fresh store is made."""
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    policy = np.asarray(policy)
    if policy.shape != (H, S):
        raise ValueError(f"policy must have shape {(H, S)}")
    if policy.dtype.kind not in "iu" or not 0 <= policy.min() <= policy.max() < A:
        raise ValueError(f"policy must hold integer actions in [0, {A})")
    if rows is None:
        rows = PolicyRows(cmdp)
    elif rows.cmdp is not cmdp:
        raise ValueError("the PolicyRows store was made for another CMDP")
    # The changed (h, s) as flat indices h*S + s, gathered from the CMDP's
    # arrays in place: a reshape would copy a broadcast view whole.
    changed = np.flatnonzero(policy != rows.policy)
    h, s = divmod(changed, S)
    actions = policy[h, s]
    rows.transition.reshape(H * S, S)[changed] = cmdp.transition[h, s, actions]
    rows.reward.ravel()[changed] = cmdp.reward[h, s, actions]
    rows.policy.ravel()[changed] = actions
    v = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        v[h] = rows.reward[h] + rows.transition[h] @ v[h + 1]
    return v
