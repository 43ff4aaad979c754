"""Exact solvers on known tabular CMDPs.

The comparator policy for regret is the optimal policy among those that pick
a nonpositive-mean-cost action at every (step, state); it comes from plain
backward induction with the maximization restricted to the safe action set.
Brute-force policy enumeration provides an independent cross-check.

One backward induction, _backup, gives both optima: constrained_dp
restricts each (h, s) to its safe actions and value_iteration lets every
action count as safe.  It forms the whole (S, A) table r_h + P_h v_{h+1} per
step.  Evaluating a fixed policy needs one action per state, so policy_eval
gathers the (S, S) transition rows of the chosen actions and backs up along
them alone: per step one (S, S) matrix-vector product instead of the
(S, A, S) one.  Each entry of v is the dot product of one transition row with
v_{h+1} either way; both products still go through BLAS, so their bits are
those of the OpenBLAS kernel in use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .envs import TabularCmdp

ENUMERATION_CAP = 10 ** 6


@dataclass
class ValueTable:
    """v has shape (H+1, S) with v[H] = 0; q has shape (H, S, A) and satisfies
    q = r + P v_{h+1} exactly as computed."""

    v: np.ndarray
    q: np.ndarray


def _backup(cmdp: TabularCmdp, safe: np.ndarray) -> tuple[np.ndarray, ValueTable]:
    """Backward induction with the maximization at each (h, s) restricted
    to the actions where safe[h, s] holds: the one optimal backup."""
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    v = np.zeros((H + 1, S))
    q = np.zeros((H, S, A))
    policy = np.zeros((H, S), dtype=np.int64)
    rows = np.arange(S)
    for h in range(H - 1, -1, -1):
        stuck = np.flatnonzero(~safe[h].any(axis=1))
        if stuck.size:
            raise ValueError(f"no safe action at (h={h}, s={stuck[0]})")
        q[h] = cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
        # Unsafe entries become -inf, so argmax picks the first safe maximum.
        policy[h] = np.where(safe[h], q[h], -np.inf).argmax(axis=1)
        v[h] = q[h, rows, policy[h]]
    return policy, ValueTable(v=v, q=q)


def constrained_dp(cmdp: TabularCmdp) -> tuple[np.ndarray, ValueTable]:
    """Backward induction restricted at each (h, s) to actions with mean cost
    <= 0 (exact comparison, no tolerance).  Returns (policy, values) where
    policy[h, s] is the safe argmax, ties broken by lowest action index.
    Raises if some state has no safe action.
    """
    return _backup(cmdp, cmdp.cost_mean <= 0.0)


def value_iteration(cmdp: TabularCmdp) -> np.ndarray:
    """Unconstrained optimal values, shape (H+1, S): the same backup with
    every action safe, so each v[h, s] is its row's maximum."""
    return _backup(cmdp, np.ones(cmdp.cost_mean.shape, dtype=bool))[1].v


def policy_eval(cmdp: TabularCmdp, policy: np.ndarray) -> np.ndarray:
    """Exact expected values v (H+1, S) of a deterministic policy, v[H] = 0,
    by backward induction along the policy's actions:
    v[h, s] = r[h, s, pi(s)] + P[h, s, pi(s)] @ v[h+1].  policy is (H, S) of
    integer actions in [0, A); anything else is rejected, since a negative
    action would wrap around to another one and a float would be cut to an
    integer."""
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    policy = np.asarray(policy)
    if policy.shape != (H, S):
        raise ValueError(f"policy must have shape {(H, S)}")
    if policy.dtype.kind not in "iu" or not 0 <= policy.min() <= policy.max() < A:
        raise ValueError(f"policy must hold integer actions in [0, {A})")
    v = np.zeros((H + 1, S))
    rows = np.arange(S)
    for h in range(H - 1, -1, -1):
        a = policy[h]
        v[h] = cmdp.reward[h, rows, a] + cmdp.transition[h, rows, a] @ v[h + 1]
    return v


def brute_force_enumerate(cmdp: TabularCmdp,
                          safe_only: bool = True) -> tuple[np.ndarray, float]:
    """Exhaustively evaluate every deterministic policy (optionally restricted
    to safe actions) and return the best one with its initial-state value.
    The enumeration count is capped at 10^6.
    """
    H, S = cmdp.horizon, cmdp.num_states
    slots = [(h, s) for h in range(H) for s in range(S)]
    if safe_only:
        choices = []
        for h, s in slots:
            allowed = np.flatnonzero(cmdp.cost_mean[h, s] <= 0.0)
            if allowed.size == 0:
                raise ValueError(f"no safe action at (h={h}, s={s})")
            choices.append(allowed.tolist())
    else:
        choices = [list(range(cmdp.num_actions))] * len(slots)
    count = 1
    for c in choices:
        count *= len(c)
        if count > ENUMERATION_CAP:
            raise ValueError(f"policy count exceeds cap {ENUMERATION_CAP}")

    best_value = -np.inf
    best_policy = None
    policy = np.zeros((H, S), dtype=np.int64)
    for assignment in product(*choices):
        for (h, s), a in zip(slots, assignment):
            policy[h, s] = a
        value = policy_eval(cmdp, policy)[0, cmdp.initial_state]
        if value > best_value:
            best_value = value
            best_policy = policy.copy()
    return best_policy, float(best_value)
