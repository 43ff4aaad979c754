"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (run pytest with -s to see them all).
The benchmark configurations pin tuned bonus scales: the theoretical
schedules are far too conservative at desk scale, and both the Q bonus and
the cost width expose explicit overrides for exactly this reason.
"""

import hashlib
import math
from concurrent.futures import ProcessPoolExecutor
from itertools import product

import numpy as np
import pytest

import safe_lsvi as sl
from safe_lsvi.bench import (ExperimentConfig, emit_results, fit_growth_exponent,
                             run_experiment)
from safe_lsvi.costs import GpCostModel, LinearCostModel, make_kernel
from safe_lsvi.envs import build_hard_instance, build_synthetic_linear
from safe_lsvi.lsvi import GramState
from safe_lsvi.oracle import brute_force_enumerate, constrained_dp

SEEDS = range(5)

# Benchmark bonus scales (see README): beta at the achievable-value scale for
# the gridworld, beta = H for the small synthetic tasks, and a cost width
# shrunk two orders below the closed form so hazards get flagged within a
# handful of visits.
LAKE = dict(beta_override=1.0, cost_width_scale=0.02)
SYNTH = dict(beta_override=5.0, cost_width_scale=0.1)


def _report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _placeholder_map(d: int) -> sl.FeatureMap:
    """A dense (not one-hot) map of dimension d, for the GP checks that
    observe points off it: the dense GP reads its map only for the cached
    posterior over the map's rows."""
    return sl.FeatureMap(d, np.full((1, 1, d), 0.5 / math.sqrt(d)))


LAKE_AGENTS = ("lsvi_ae", "lsvi", "lsvi_primal")

# sha256 of results.csv of each agent's seed-0 criterion-1 cell, the run of
# safe-lsvi --env frozen_lake --episodes 1000 --beta-override 1.0
# --cost-width-scale 0.02 --seed 0 --agent <agent>.
LAKE_K1000_DIGESTS = {
    "lsvi_ae": "3609ca772363b832ca30e868004558a87321135e9a92b1599c55a810cccdfc53",
    "lsvi": "e5aa5fd4aec84ee3465ef726d958c5fc0afc2d4559fa12811d7467959f26bd5e",
    "lsvi_primal": "10cacdbda152667a25d2b927d353cc2c41fbd98d17d1257c1e42aa03411e2eba",
}


@pytest.fixture(scope="module")
def lake_cells(tmp_path_factory):
    """The 15 criterion-1 cells, each run once: (agent, seed) -> (mean reward
    of the last 100 episodes, cumulative violation, sha256 of results.csv
    for seed 0 and None otherwise)."""
    cells = {}
    for agent, seed in product(LAKE_AGENTS, SEEDS):
        cfg = ExperimentConfig(env="frozen_lake", agent=agent, episodes=1000,
                               horizon=15, seed=seed, **LAKE)
        m = run_experiment(cfg)
        digest = None
        if seed == 0:
            path = emit_results(m, cfg, tmp_path_factory.mktemp(f"lake-{agent}"))
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        cells[agent, seed] = (m.rewards[-100:].mean(), m.cum_violation[-1], digest)
    return cells


def test_criterion_1_frozen_lake_reproduction(lake_cells):
    rewards = {a: [] for a in LAKE_AGENTS}
    violations = {a: [] for a in LAKE_AGENTS}
    for (agent, _), (reward, violation, _) in lake_cells.items():
        rewards[agent].append(reward)
        violations[agent].append(violation)
    reward_ratio = np.mean(rewards["lsvi_ae"]) / np.mean(rewards["lsvi"])
    viol_vs_lsvi = np.mean(violations["lsvi_ae"]) / np.mean(violations["lsvi"])
    viol_vs_primal = (np.mean(violations["lsvi_ae"])
                      / np.mean(violations["lsvi_primal"]))
    # the unconstrained baseline violates strictly more on every single seed
    per_seed = all(ae < base for ae, base in zip(violations["lsvi_ae"],
                                                 violations["lsvi"]))
    ok = reward_ratio >= 0.9 and viol_vs_lsvi <= 0.5 and viol_vs_primal <= 0.8 \
        and per_seed
    assert _report(
        "criterion-1", ok,
        f"reward ratio {reward_ratio:.3f} (need >= 0.9), "
        f"violation vs lsvi {viol_vs_lsvi:.3f} (need <= 0.5), "
        f"vs primal {viol_vs_primal:.3f} (need <= 0.8), per-seed strict: "
        f"{per_seed}")


def test_lake_k1000_results_are_pinned(lake_cells):
    for agent, expected in LAKE_K1000_DIGESTS.items():
        digest = lake_cells[agent, 0][2]
        assert digest == expected, \
            f"results.csv of the K=1000 lake cell {agent} seed 0 changed: {digest}"


def _synth_cell(seed):
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae",
                           episodes=2000, horizon=5, dim=8, seed=seed, **SYNTH)
    m = run_experiment(cfg)
    return (fit_growth_exponent(m.cum_violation),
            fit_growth_exponent(m.cum_regret))

@pytest.fixture(scope="module")
def synth_exponents():
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_synth_cell, SEEDS))


def test_criterion_2_sublinear_violation(synth_exponents):
    worst = max(v for v, _ in synth_exponents)
    assert _report("criterion-2", worst <= 0.85,
                   f"max violation exponent {worst:.3f} (need <= 0.85)")


def test_criterion_3_sublinear_regret(synth_exponents):
    worst = max(r for _, r in synth_exponents)
    assert _report("criterion-3", worst <= 0.85,
                   f"max regret exponent {worst:.3f} (need <= 0.85)")


def test_criterion_4_condition_one_optimism():
    p = 0.1
    # linear estimator against known linear ground truth, noisy observations
    lin_over = lin_uncov = lin_total = 0
    for seed in range(20):
        cmdp, fmap, _ = build_synthetic_linear(8, 3, seed=seed, cost_noise=0.1)
        rng = np.random.default_rng(seed + 10_000)
        model = LinearCostModel(fmap, cmdp.horizon, lam=1.0, p=p)
        for _ in range(500):
            h = int(rng.integers(cmdp.horizon))
            s = int(rng.integers(cmdp.num_states))
            a = int(rng.integers(cmdp.num_actions))
            obs = float(np.clip(cmdp.cost_mean[h, s, a] + rng.normal(0, 0.1),
                                -1, 1))
            model.observe(h, s * cmdp.num_actions + a, obs)
        for h, s, a in product(range(cmdp.horizon), range(cmdp.num_states),
                               range(cmdp.num_actions)):
            est = model.predict(h, fmap.table[s, a])
            true = cmdp.cost_mean[h, s, a]
            lin_total += 1
            lin_over += int(est.value > true)
            lin_uncov += int(true - est.value > est.width_two_sided)

    # GP estimator against a function sampled from its own prior
    kern = make_kernel("sqexp", 0.5)
    gp_over = gp_uncov = gp_total = 0
    for seed in range(20):
        rng = np.random.default_rng(seed + 20_000)
        pts = rng.uniform(-1, 1, size=(40, 2))
        cov = kern(pts, pts) + 1e-10 * np.eye(40)
        truth = np.clip(np.linalg.cholesky(cov) @ rng.normal(size=40), -1, 1)
        model = GpCostModel("sqexp", total_episodes=25, horizon=1,
                            lengthscale=0.5, p=p, feature_map=_placeholder_map(2))
        for i in range(25):
            model.observe(0, pts[i], float(truth[i]))
        for i in range(25, 40):
            est = model.predict(0, pts[i])
            gp_total += 1
            gp_over += int(est.value > truth[i])
            gp_uncov += int(truth[i] - est.value > est.width_two_sided)

    rates = (lin_over / lin_total, lin_uncov / lin_total,
             gp_over / gp_total, gp_uncov / gp_total)
    ok = all(r <= p for r in rates)
    assert _report("criterion-4", ok,
                   "over/uncovered rates linear ({:.3f}, {:.3f}) "
                   "gp ({:.3f}, {:.3f}), all need <= 0.1".format(*rates))


def test_criterion_5_oracle_equivalence():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = 0.0
    while checked < 50:
        S = int(rng.integers(2, 4))
        A = int(rng.integers(2, 4))
        H = int(rng.integers(1, 4))
        if A ** (S * H) > 200_000:
            continue
        P = rng.random((H, S, A, S)) + 0.05
        P /= P.sum(axis=-1, keepdims=True)
        R = rng.random((H, S, A))
        G = rng.uniform(-1, 1, size=(H, S, A))
        for h, s in product(range(H), range(S)):
            if G[h, s].min() > 0:
                G[h, s, rng.integers(A)] = -rng.uniform(0.1, 1.0)
        cmdp = sl.TabularCmdp(S, A, H, P, R, G)
        _, tab = constrained_dp(cmdp)
        _, bf_value = brute_force_enumerate(cmdp, safe_only=True)
        worst = max(worst, abs(tab.v[0, cmdp.initial_state] - bf_value))
        checked += 1
    assert _report("criterion-5", worst <= 1e-10,
                   f"max |DP - brute force| over 50 instances = {worst:.2e} "
                   f"(need <= 1e-10)")


def test_criterion_6_numerical_identities():
    rng = np.random.default_rng(77)

    # rank-one Gram inverse vs dense inverse
    gram_err = 0.0
    for _ in range(10):
        d = int(rng.integers(2, 10))
        feats = np.zeros((60, d))
        for i in range(60):
            phi = rng.normal(size=d)
            phi /= max(np.linalg.norm(phi), 1.0) / rng.uniform(0.1, 1.0)
            feats[i] = phi
        g = GramState(sl.FeatureMap(d, feats.reshape(60, 1, d)), 1.0)
        gram = np.eye(d)  # lam*I + sum phi phi^T, built here from the samples
        for row, phi in enumerate(feats):
            g.update(row)
            gram += np.outer(phi, phi)
        gram_err = max(gram_err, np.abs(g.inv - np.linalg.inv(gram)).max())

    # GP with linear kernel vs primal ridge mean
    ridge_err = 0.0
    gp = GpCostModel("linear", total_episodes=50, horizon=1,
                     feature_map=_placeholder_map(4))
    points, costs = np.zeros((30, 4)), []
    for i in range(30):
        y = rng.normal(size=4)
        y /= np.linalg.norm(y)
        points[i] = y
        costs.append(float(np.clip(rng.normal(0, 0.4), -1, 1)))
    # The ridge model observes the points as the rows of its map, the GP as
    # points.
    ridge = LinearCostModel(sl.FeatureMap(4, points.reshape(30, 1, 4)), horizon=1,
                            lam=gp.lam)
    for row, (y, cost) in enumerate(zip(points, costs)):
        gp.observe(0, y, cost)
        ridge.observe(0, row, cost)
    for _ in range(20):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        ridge_err = max(ridge_err,
                        abs(gp.posterior(0, q)[0] - float(q @ ridge.theta(0))))

    # incremental information gain vs batch log det
    info_err = 0.0
    model = GpCostModel("sqexp", total_episodes=60, horizon=1, lengthscale=0.6,
                        feature_map=_placeholder_map(2))
    pts = rng.uniform(-1, 1, size=(30, 2))
    for y in pts:
        model.observe(0, y, float(np.clip(rng.normal(0, 0.3), -1, 1)))
    kern = make_kernel("sqexp", 0.6)
    _, logdet = np.linalg.slogdet(np.eye(30) + kern(pts, pts) / model.lam)
    info_err = abs(model.info_gain(0) - 0.5 * logdet)

    # elliptical potential bound on 100 random sequences
    elliptical_ok = True
    for _ in range(100):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(3, 60))
        feats = rng.normal(size=(k, d))
        feats /= np.maximum(np.linalg.norm(feats, axis=1, keepdims=True), 1.0)
        feats *= rng.uniform(0.05, 1.0, size=(k, 1))
        g = GramState(sl.FeatureMap(d, feats.reshape(k, 1, d)), 1.0)
        for row in range(k):
            g.update(row)
        total = sum(phi @ g.inv @ phi for phi in feats)
        elliptical_ok = elliptical_ok and total <= d + 1e-10

    ok = gram_err <= 1e-8 and ridge_err <= 1e-8 and info_err <= 1e-8 \
        and elliptical_ok
    assert _report(
        "criterion-6", ok,
        f"gram inverse err {gram_err:.2e}, kernel-vs-ridge err {ridge_err:.2e}, "
        f"info gain err {info_err:.2e} (all need <= 1e-8); elliptical bound "
        f"{'holds' if elliptical_ok else 'violated'} on 100 sequences")


def test_criterion_7_penalty_semantics():
    # rectified floor on a live run
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae",
                           episodes=150, horizon=4, dim=6, seed=0, **SYNTH)
    metrics = run_experiment(cfg, record_trace=True)
    floor_ok = all(np.all(snap["z"] >= k)
                   for k, snap in enumerate(metrics.trace, start=1))

    # alternating-cost construction under the virtual queue
    P = np.ones((1, 1, 2, 1))
    R = np.array([[[0.55, 0.30]]])
    G = np.array([[[1.0, -1.0]]])
    cmdp = sl.TabularCmdp(1, 2, 1, P, R, G)
    fmap = sl.one_hot_features(1, 2)
    vq_cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_primal",
                              episodes=600, horizon=1, beta_override=0.2,
                              seed=0)
    vq = run_experiment(vq_cfg, env_override=(cmdp, fmap), record_trace=True)
    exponent = fit_growth_exponent(vq.cum_violation)
    z_tail = [snap["z"][0] for snap in vq.trace[300:]]
    queue_ok = exponent >= 0.9 and min(z_tail) == 0.0

    ok = floor_ok and queue_ok
    assert _report(
        "criterion-7", ok,
        f"Z >= k floor {'holds' if floor_ok else 'violated'}; virtual-queue "
        f"violation exponent {exponent:.3f} (need >= 0.9) with Z returning "
        f"to {min(z_tail):.0f}")


def test_criterion_8_hard_instance_validity():
    cmdp, fmap, pp = build_hard_instance(4, 3, 1000)
    S, A, H = cmdp.num_states, cmdp.num_actions, cmdp.horizon

    norm_err = np.abs(np.linalg.norm(fmap.flat, axis=1) - 1.0).max()

    mu_ok = True
    bound = math.sqrt(4 + 1)
    for signs in product((-1.0, 1.0), repeat=S):
        v = np.array(signs)
        for h in range(H):
            mu_ok = mu_ok and np.linalg.norm(pp.mu[h] @ v) <= bound + 1e-12

    trans_err = max(
        np.abs((fmap.flat @ pp.mu[h]).reshape(S, A, S) - cmdp.transition[h]).max()
        for h in range(H))
    reward_err = max(
        np.abs((fmap.flat @ pp.theta).reshape(S, A) - cmdp.reward[h]).max()
        for h in range(H))

    ok = norm_err <= 1e-12 and mu_ok and trans_err <= 1e-12 \
        and reward_err <= 1e-12
    assert _report(
        "criterion-8", ok,
        f"feature norm err {norm_err:.2e}, transition round-trip "
        f"{trans_err:.2e}, reward round-trip {reward_err:.2e} (all need "
        f"<= 1e-12); measure norm bound {'holds' if mu_ok else 'violated'}")
