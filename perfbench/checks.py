"""Correctness checks computed apart from the program.

Each check takes the program's outputs plus the ground-truth CMDP and returns
a list of failure messages (empty when the output is correct).  The
reference computations here -- masked backward induction, forward propagation
of the state distribution, batch ridge solves and a dense GP posterior -- are
written independently of safe_lsvi's own solvers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

VALUE_TOL = 1e-9  # exact-arithmetic identities, up to summation order
FIT_TOL = 1e-8  # incremental statistics against a batch solve
GROWTH_LIMIT = 0.85  # sublinear growth required by criteria 2-3

CSV_HEADER = "episode,reward,hard_violation,cum_regret,cum_violation"


def _close(a, b, tol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(
        np.all(np.abs(a - b) <= tol * np.maximum(1.0, np.abs(b))))


# ---------------------------------------------------------------------------
# Every timed run
# ---------------------------------------------------------------------------

def check_results_csv(text: str, metrics, episodes: int) -> list:
    """K rows numbered 1..K, the per-episode columns equal the returned
    metrics, and each cumulative column is the running sum of its
    per-episode series."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"results.csv header is {lines[:1]!r}"]
    rows = [ln.split(",") for ln in lines[1:]]
    if len(rows) != episodes or any(len(r) != 5 for r in rows):
        return [f"results.csv has {len(rows)} rows (want {episodes} of 5 fields)"]
    if [int(r[0]) for r in rows] != list(range(1, episodes + 1)):
        return ["results.csv episodes are not numbered 1..K"]
    cols = np.array([[float(x) for x in r[1:]] for r in rows])
    reward, violation, cum_regret, cum_violation = cols.T
    errors = []
    for name, col, ref in (("reward", reward, metrics.rewards),
                           ("hard_violation", violation, metrics.violations)):
        if not np.array_equal(col, np.asarray(ref, dtype=float)):
            errors.append(f"results.csv {name} differs from the returned series")
    for name, col, inc in (("cum_regret", cum_regret, metrics.regret_inc),
                           ("cum_violation", cum_violation, violation)):
        running, total = np.empty(episodes), 0.0
        for i, x in enumerate(inc):
            total += float(x)
            running[i] = total
        if not _close(col, running, VALUE_TOL):
            bad = int(np.argmax(np.abs(col - running)))
            errors.append(f"{name}[{bad + 1}] = {col[bad]!r} is not the running "
                          f"sum {running[bad]!r}")
    return errors


def check_no_cancellation(metrics) -> list:
    """hard_violation >= max(signed cost, 0) in every episode."""
    v = np.asarray(metrics.violations, dtype=float)
    floor = np.maximum(np.asarray(metrics.signed_costs, dtype=float), 0.0)
    bad = np.flatnonzero(v < floor - 1e-12)
    return [f"episode {bad[0] + 1}: violation {v[bad[0]]!r} < max(signed, 0) "
            f"{floor[bad[0]]!r}"] if bad.size else []


def safe_optimum(cmdp) -> np.ndarray:
    """Optimal safe values (H+1, S) by backward induction over the actions
    with mean cost <= 0."""
    H, S = cmdp.horizon, cmdp.num_states
    v = np.zeros((H + 1, S))
    for h in range(H - 1, -1, -1):
        q = cmdp.reward[h] + np.einsum("sat,t->sa", cmdp.transition[h], v[h + 1])
        v[h] = np.where(cmdp.cost_mean[h] <= 0.0, q, -np.inf).max(axis=1)
    return v


def check_optimum(v_safe: float, metrics) -> list:
    got = metrics.summary["optimal_safe_value"]
    if not _close(got, v_safe, VALUE_TOL):
        return [f"optimal_safe_value {got!r} != masked backward induction {v_safe!r}"]
    return []


def check_regret_nonnegative(metrics) -> list:
    inc = np.asarray(metrics.regret_inc, dtype=float)
    bad = np.flatnonzero(inc < -VALUE_TOL)
    return [f"episode {bad[0] + 1}: regret increment {inc[bad[0]]!r} < 0 on an "
            f"aligned environment"] if bad.size else []


def growth_exponent(series) -> float:
    """Least-squares slope of log(cum[k]) against log(k) over the second half
    of the episodes, keeping positive entries; 0 when fewer than two are."""
    series = np.asarray(series, dtype=float)
    k = np.arange(len(series) // 2, len(series)) + 1.0
    vals = series[len(series) // 2:]
    keep = vals > 0.0
    if keep.sum() < 2:
        return 0.0
    x, y = np.log(k[keep]), np.log(vals[keep])
    x0, y0 = x - x.mean(), y - y.mean()
    return float(x0 @ y0 / (x0 @ x0))


def check_growth(metrics) -> list:
    errors = []
    for name, series in (("violation", metrics.cum_violation),
                         ("regret", metrics.cum_regret)):
        a = growth_exponent(series)
        if not a <= GROWTH_LIMIT:
            errors.append(f"cumulative {name} grows like k^{a:.3f} "
                          f"(need <= {GROWTH_LIMIT})")
    return errors


# ---------------------------------------------------------------------------
# The traced run: checks against what the layers were seen to do
# ---------------------------------------------------------------------------

def policy_value(cmdp, policy) -> float:
    """Expected return of a deterministic policy from the initial state, by
    forward propagation of the state distribution."""
    rows = np.arange(cmdp.num_states)
    dist = np.zeros(cmdp.num_states)
    dist[cmdp.initial_state] = 1.0
    total = 0.0
    for h in range(cmdp.horizon):
        a = policy[h]
        total += float(dist @ cmdp.reward[h, rows, a])
        dist = dist @ cmdp.transition[h, rows, a]
    return total


def check_policy_regret(cmdp, v_safe: float, policies, metrics) -> list:
    if len(policies) != len(metrics.regret_inc):
        return [f"captured {len(policies)} policies for "
                f"{len(metrics.regret_inc)} episodes"]
    for k, policy in enumerate(policies):
        want = v_safe - policy_value(cmdp, policy)
        if not _close(metrics.regret_inc[k], want, VALUE_TOL):
            return [f"episode {k + 1}: regret increment {metrics.regret_inc[k]!r} "
                    f"!= forward-propagated {want!r}"]
    return []


def check_trajectories(cmdp, steps, policies, metrics) -> list:
    """Each captured trajectory follows its episode's policy, chains from the
    initial state, and its hard_violation is the sum of the positive true
    mean costs along it.  steps holds (h, state, action, reward, cost,
    next_state) per call of envs.step."""
    H, K = cmdp.horizon, len(metrics.violations)
    if len(steps) != H * K:
        return [f"captured {len(steps)} steps for {K} episodes of {H}"]
    for k in range(K):
        state, total = cmdp.initial_state, 0.0
        for h in range(H):
            step_h, s, a, _, _, nxt = steps[k * H + h]
            if step_h != h or s != state or a != policies[k][h, s]:
                return [f"episode {k + 1} step {h}: trajectory does not follow "
                        f"the episode's policy"]
            total += max(float(cmdp.cost_mean[h, s, a]), 0.0)
            state = nxt
        if not _close(metrics.violations[k], total, 1e-12):
            return [f"episode {k + 1}: hard_violation {metrics.violations[k]!r} "
                    f"!= positive true costs along the trajectory {total!r}"]
    return []


def check_penalty_floor(z_after) -> list:
    """After episode k every rectified factor Z_h is at least k.
    z_after holds (k, Z) pairs."""
    for k, z in z_after:
        if np.min(z) < k:
            return [f"after episode {k}: min Z_h = {np.min(z)!r} < {k}"]
    return []


def _design(fmap, cmdp, steps, h: int, episodes: int):
    """Feature rows and step records at step h for episodes 1..episodes."""
    recs = [steps[k * cmdp.horizon + h] for k in range(episodes)]
    rows = [s * cmdp.num_actions + a for _, s, a, _, _, _ in recs]
    return fmap.flat[rows], recs


def check_final_weights(config, cmdp, fmap, steps, plan) -> list:
    """The last episode's regression weights equal a batch ridge solve on
    episodes 1..K-1 with targets r + V_{h+1}(x') from the same plan."""
    H, K, d = cmdp.horizon, config.episodes, fmap.dim
    for h in range(H):
        phi, recs = _design(fmap, cmdp, steps, h, K - 1)
        v_next = plan.v_table[h + 1] if h + 1 < H else np.zeros(cmdp.num_states)
        y = np.array([r + v_next[nxt] for _, _, _, r, _, nxt in recs])
        gram = config.lam * np.eye(d) + phi.T @ phi
        w = np.linalg.solve(gram, phi.T @ y)
        if not _close(plan.weights[h], w, FIT_TOL):
            err = np.max(np.abs(plan.weights[h] - w))
            return [f"step {h}: learner weights differ from the batch ridge "
                    f"solve by {err:.3e}"]
    return []


def ridge_width(lam: float, d: int, k: int, p: float) -> float:
    """sqrt(lam d) + sqrt(d log((1 + k/lam)/p))."""
    return math.sqrt(lam * d) + math.sqrt(d * math.log((1.0 + k / lam) / p))


def gp_width(gamma: float, p: float) -> float:
    """1 + sqrt(2 (gamma + 1 + ln(2/p)))."""
    return 1.0 + math.sqrt(2.0 * (gamma + 1.0 + math.log(2.0 / p)))


def linear_lcb(config, cmdp, fmap, steps, h: int) -> np.ndarray:
    """Batch ridge fit of the observed costs with the closed-form width at
    episode index K."""
    K, d = config.episodes, fmap.dim
    phi, recs = _design(fmap, cmdp, steps, h, K - 1)
    g = np.array([rec[4] for rec in recs])
    gram = config.lam * np.eye(d) + phi.T @ phi
    feats = fmap.flat
    theta = np.linalg.solve(gram, phi.T @ g)
    quad = np.einsum("nd,dn->n", feats, np.linalg.solve(gram, feats.T))
    beta = config.cost_width_scale * ridge_width(config.lam, d, K,
                                                 config.p / cmdp.horizon)
    return (feats @ theta - beta * np.sqrt(np.maximum(quad, 0.0))).reshape(
        cmdp.num_states, cmdp.num_actions)


def gp_lcb(config, cmdp, fmap, steps, h: int) -> np.ndarray:
    """Dense GP posterior (squared-exponential kernel, noise 1 + 2/K) with
    the information-gain width."""
    K = config.episodes
    x, recs = _design(fmap, cmdp, steps, h, K - 1)
    g = np.array([rec[4] for rec in recs])
    feats = fmap.flat
    noise = 1.0 + 2.0 / K
    scale = 2.0 * config.lengthscale ** 2
    kxx = np.exp(-cdist(x, x, "sqeuclidean") / scale) + noise * np.eye(len(x))
    kfx = np.exp(-cdist(feats, x, "sqeuclidean") / scale)
    mean = kfx @ np.linalg.solve(kxx, g)
    var = 1.0 - np.einsum("fn,nf->f", kfx, np.linalg.solve(kxx, kfx.T))
    gamma = 0.5 * (np.linalg.slogdet(kxx)[1] - len(x) * math.log(noise))
    beta = config.cost_width_scale * gp_width(gamma, config.p / cmdp.horizon)
    return (mean - beta * np.sqrt(np.maximum(var, 0.0))).reshape(
        cmdp.num_states, cmdp.num_actions)


def check_final_lcb(config, cmdp, fmap, steps, lcb_tables) -> list:
    """The LCB tables of the last episode equal a batch ridge solve (linear)
    or a dense GP posterior (GP) on episodes 1..K-1."""
    ref = linear_lcb if config.cost_model == "linear" else gp_lcb
    if sorted(h for h, _ in lcb_tables) != list(range(cmdp.horizon)):
        return ["the last episode did not query one LCB table per step"]
    for h, table in lcb_tables:
        want = ref(config, cmdp, fmap, steps, h)
        if not _close(table, want, FIT_TOL):
            err = np.max(np.abs(table - want))
            return [f"step {h}: LCB table differs from the batch reference by "
                    f"{err:.3e}"]
    return []
