"""Reference LSVI backward sweep with dense solves, shared by the tests.

It rebuilds each step's Gram matrix and regression target from the episode
history, solves them directly, and takes the penalized argmax of each
state's row, independently of the incremental statistics in lsvi.py.
"""

import math

import numpy as np


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
