"""Exact solvers on known tabular CMDPs.

The comparator policy for regret is the optimal policy among those that pick
a nonpositive-mean-cost action at every (step, state); it comes from plain
backward induction with the maximization restricted to the safe action set.
Brute-force policy enumeration provides an independent cross-check.
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


def _q_layer(cmdp: TabularCmdp, h: int, v_next: np.ndarray) -> np.ndarray:
    return cmdp.reward[h] + cmdp.transition[h] @ v_next


def constrained_dp(cmdp: TabularCmdp) -> tuple[np.ndarray, ValueTable]:
    """Backward induction restricted at each (h, s) to actions with mean cost
    <= 0 (exact comparison, no tolerance).  Returns (policy, values) where
    policy[h, s] is the safe argmax, ties broken by lowest action index.
    Raises if some state has no safe action.
    """
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    safe = cmdp.cost_mean <= 0.0
    v = np.zeros((H + 1, S))
    q = np.zeros((H, S, A))
    policy = np.zeros((H, S), dtype=np.int64)
    rows = np.arange(S)
    for h in range(H - 1, -1, -1):
        stuck = np.flatnonzero(~safe[h].any(axis=1))
        if stuck.size:
            raise ValueError(f"no safe action at (h={h}, s={stuck[0]})")
        q[h] = _q_layer(cmdp, h, v[h + 1])
        # Unsafe entries become -inf, so argmax picks the first safe maximum.
        policy[h] = np.where(safe[h], q[h], -np.inf).argmax(axis=1)
        v[h] = q[h, rows, policy[h]]
    return policy, ValueTable(v=v, q=q)


def value_iteration(cmdp: TabularCmdp) -> np.ndarray:
    """Unconstrained optimal values, shape (H+1, S)."""
    H, S = cmdp.horizon, cmdp.num_states
    v = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        v[h] = _q_layer(cmdp, h, v[h + 1]).max(axis=1)
    return v


def policy_eval(cmdp: TabularCmdp, policy: np.ndarray) -> ValueTable:
    """Exact expected values of a deterministic policy, by backward induction."""
    H, S, A = cmdp.horizon, cmdp.num_states, cmdp.num_actions
    policy = np.asarray(policy, dtype=np.int64)
    if policy.shape != (H, S):
        raise ValueError(f"policy must have shape {(H, S)}")
    v = np.zeros((H + 1, S))
    q = np.zeros((H, S, A))
    rows = np.arange(S)
    for h in range(H - 1, -1, -1):
        q[h] = _q_layer(cmdp, h, v[h + 1])
        v[h] = q[h, rows, policy[h]]
    return ValueTable(v=v, q=q)


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
        value = policy_eval(cmdp, policy).v[0, cmdp.initial_state]
        if value > best_value:
            best_value = value
            best_policy = policy.copy()
    return best_policy, float(best_value)
