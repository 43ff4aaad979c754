"""Reference computations shared by the tests, apart from the package.

The package keeps only what a run reads.  What the tests need beyond it
lives here:

- reference_lines_4_to_9, the LSVI backward sweep with dense solves, which
  rebuilds each step's Gram matrix and regression target from the episode
  history, independently of the incremental statistics in lsvi.py;
- brute_force_enumerate, every deterministic policy evaluated exactly: an
  independent cross-check of the oracle's dynamic programming;
- tables the run does not keep, rebuilt with the package's own expressions
  so that bitwise checks stay bitwise: the oracle's (H, S, A) backup
  (backup_q), a plan's clipped Q table (plan_q_table), a cost model's mean
  and width (estimate) and a GP's information gain (info_gain);
- the linear parametrizations of the two synthetic builders, derived from
  their definitions apart from the builders (hard_instance_params,
  synthetic_theta);
- reference_frozen_lake, the frozen lake built by a Python loop over
  (cell, action) pairs, against which the array builder is checked byte
  for byte.
"""

import math
from itertools import product
from types import SimpleNamespace

import numpy as np

from safe_lsvi.envs import _MOVES, _ORTHO, TabularCmdp, _check_count
from safe_lsvi.oracle import PolicyRows, policy_eval

ENUMERATION_CAP = 10 ** 6


def reference_lines_4_to_9(history, feats, S, A, H, lam, beta, ghat, z):
    """Straight-line reimplementation of the backward sweep with dense solves.

    history holds one list of H (s, a, reward, cost, next_state) tuples per
    episode; ghat (H, S, A) and z (H,) give the penalty.  Returns the
    weights (H, d), the clipped Q tables (H, S, A) and the policy (H, S).
    """
    d = feats.shape[1]
    q_tables = np.zeros((H, S, A))
    weights = np.zeros((H, d))
    policy = np.zeros((H, S), dtype=int)
    v_next = np.zeros(S)
    for h in range(H - 1, -1, -1):
        lam_mat = lam * np.eye(d)
        target_vec = np.zeros(d)
        for episode in history:
            s, a, r, _, s_next = episode[h]
            phi = feats[s * A + a]
            lam_mat += np.outer(phi, phi)
            target_vec += phi * (r + v_next[s_next])
        w = np.linalg.solve(lam_mat, target_vec)
        inv = np.linalg.inv(lam_mat)
        for s in range(S):
            for a in range(A):
                phi = feats[s * A + a]
                q_tables[h, s, a] = min(w @ phi + beta * math.sqrt(phi @ inv @ phi), H)
        objective = q_tables[h] - z[h] * np.maximum(ghat[h], 0.0)
        policy[h] = objective.argmax(axis=1)
        v_next = q_tables[h][np.arange(S), policy[h]]
        weights[h] = w
    return weights, q_tables, policy


def brute_force_enumerate(cmdp, safe_only=True):
    """Exhaustively evaluate every deterministic policy (optionally restricted
    to safe actions, mean cost <= 0) and return the best one with its
    initial-state value.  The enumeration count is capped at 10^6.
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
    if math.prod(map(len, choices)) > ENUMERATION_CAP:
        raise ValueError(f"policy count exceeds cap {ENUMERATION_CAP}")

    best_value = -np.inf
    best_policy = None
    policy = np.zeros((H, S), dtype=np.int64)
    # Successive assignments differ in their trailing slots only, so one
    # store re-gathers few rows per policy.
    rows = PolicyRows(cmdp)
    for assignment in product(*choices):
        for (h, s), a in zip(slots, assignment):
            policy[h, s] = a
        value = policy_eval(cmdp, policy, rows)[0, cmdp.initial_state]
        if value > best_value:
            best_value = value
            best_policy = policy.copy()
    return best_policy, float(best_value)


def backup_q(cmdp, v):
    """The (H, S, A) table r_h + P_h v_{h+1} of the oracle's backup for its
    values v (H+1, S), step by step with the oracle's expression."""
    return np.stack([cmdp.reward[h] + cmdp.transition[h] @ v[h + 1]
                     for h in range(cmdp.horizon)])


def plan_q_table(learner, plan):
    """The clipped optimistic Q table (H, S, A) of the learner's plan,
    min(<w_h, phi> + beta * ||phi||_{Lambda_h^-1}, H), with the backward
    pass's expression, from the plan's weights and the learner's statistics
    (unchanged since the plan was made)."""
    fmap, bonus = learner.fmap, learner.beta * learner.stats.roots()
    return np.stack([np.minimum(fmap.gather(fmap.dot(w) + bonus[h]), float(learner.H))
                     for h, w in enumerate(plan.weights)])


def estimate(model, h):
    """A cost model's posterior mean and confidence width of step h, two
    (S, A) tables gathered from its one pass _mean_width(), so that
    lcb_table(h) == mean - width bit for bit."""
    mean, width = model._mean_width()
    return model.fmap.gather(mean[h]), model.fmap.gather(width[h])


def info_gain(model, h):
    """A GP cost model's realized information gain
    0.5 * ln det(I + lam^-1 KER) of step h, as its widths read it."""
    return model._moments()[2][h]


def gp_kernel(model):
    """A GP cost model's kernel k(A, B) -> (n, m), evaluated from its
    pointwise kernel as costs.make_kernel evaluates it."""
    def kern(a, b):
        a, b = np.atleast_2d(a), np.atleast_2d(b)
        return model._k(np.einsum("ij,ij->i", a, a)[:, None],
                        np.einsum("ij,ij->i", b, b)[None, :], a @ b.T)
    return kern


def hard_instance_params(d, horizon, episodes, u_signs=None):
    """The hard instance's linear parametrization, from its definition: the
    leak delta = 1/H, the gap sqrt(delta/K)/(4 sqrt 2), u_h = gap * u_signs[h],
    the sign-vector actions in lexicographic order of (-1, +1), the feature
    scales alpha = 1/sqrt(1 + gap (d-1)) and beta = sqrt(gap) alpha, the
    measures mu (H, d+1, S), mu[h][:, x'] that of state x' with the
    stay-on-chain mass on the step-h successor, and the reward parameter
    theta = e_d."""
    H, S = horizon, horizon + 2
    chain_next, reward_state = np.arange(1, H + 1), H + 1
    delta = 1.0 / H
    gap = math.sqrt(delta / episodes) / (4.0 * math.sqrt(2.0))
    signs = np.ones((H, d - 1)) if u_signs is None else np.asarray(u_signs, dtype=float)
    u = gap * signs
    alpha = 1.0 / math.sqrt(1.0 + gap * (d - 1))
    beta = math.sqrt(gap) * alpha
    mu = np.zeros((H, d + 1, S))
    mu[np.arange(H), 0, chain_next] = (1.0 - delta) / alpha
    mu[np.arange(H), 1:d, chain_next] = -u / beta
    mu[:, 0, reward_state] = delta / alpha
    mu[:, 1:d, reward_state] = u / beta
    mu[:, d, reward_state] = 1.0
    theta = np.zeros(d + 1)
    theta[d] = 1.0
    return SimpleNamespace(alpha=alpha, beta=beta, delta=delta, gap=gap, u=u,
                           actions=np.array(list(product((-1.0, 1.0), repeat=d - 1))),
                           mu=mu, theta=theta)


def synthetic_theta(cmdp, d):
    """The synthetic task's cost parameters theta (H, d): its one-hot
    features put (s, a) at column s*A + a, so theta_h is step h's cost table
    flattened, and 0 on the padding column when d is odd."""
    H, cells = cmdp.horizon, cmdp.num_states * cmdp.num_actions
    theta = np.zeros((H, d))
    theta[:, :cells] = cmdp.cost_mean.reshape(H, cells)
    return theta


def reference_frozen_lake(width, height, hazard_cells, goal_cell, horizon,
                          start_cell=0):
    """envs.build_frozen_lake's lake, built one (cell, action) pair at a
    time: each row adds the intended move's 0.9 and then each orthogonal
    slip's 0.05, in _ORTHO's order, to a row of zeros.  It checks its cells
    as the builder does, with the same messages, but takes a cell of any
    type that int() and comparison accept."""
    n = width * height
    if n < 2:
        raise ValueError("grid must have at least 2 cells")
    _check_count("horizon", horizon)
    hazards = set(int(c) for c in hazard_cells)
    if goal_cell in hazards:
        raise ValueError("goal cell cannot be a hazard")
    for c in hazards | {goal_cell, start_cell}:
        if not 0 <= c < n:
            raise ValueError(f"cell {c} outside {width}x{height} grid")

    def dest(cell, direction):
        # Deterministic destination: off-grid moves stay put, goal absorbs.
        if cell == goal_cell:
            return cell
        r, c = divmod(cell, width)
        dr, dc = _MOVES[direction]
        r2, c2 = r + dr, c + dc
        if not (0 <= r2 < height and 0 <= c2 < width):
            return cell
        return r2 * width + c2

    P = np.zeros((horizon, n, 4, n))
    R = np.zeros((horizon, n, 4))
    G = np.zeros((horizon, n, 4))
    for s in range(n):
        for a in range(4):
            if s == goal_cell:
                P[0, s, a, s] = 1.0
            else:
                P[0, s, a, dest(s, a)] += 0.9
                for o in _ORTHO[a]:
                    P[0, s, a, dest(s, o)] += 0.05
            G[0, s, a] = 1.0 if dest(s, a) in hazards else -1.0
        R[0, s, :] = 1.0 if s == goal_cell else 0.01 / 6.0
    P[:] = P[0]
    R[:] = R[0]
    G[:] = G[0]
    return TabularCmdp(num_states=n, num_actions=4, horizon=horizon,
                       transition=P, reward=R, cost_mean=G,
                       initial_state=start_cell, reward_scale=6.0)
