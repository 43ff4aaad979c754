import copy
import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_lsvi.costs import LinearCostModel
from safe_lsvi.envs import FeatureMap, StepRecord, one_hot_features
from safe_lsvi.lsvi import GramState, LsviLearner, beta_schedule


def random_unit_features(rng, n, d, scale=1.0):
    x = rng.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * scale


def map_of(rows):
    """A FeatureMap with one action per state whose features are rows."""
    rows = np.asarray(rows, dtype=float)
    return FeatureMap(rows.shape[1], rows.reshape(len(rows), 1, -1))


def gram_of(lam, d, samples):
    """lam*I + sum phi phi^T, built from the samples a GramState was fed."""
    return lam * np.eye(d) + sum((np.outer(phi, phi) for phi in samples),
                                 np.zeros((d, d)))


# ---------------------------------------------------------------------------
# GramState
# ---------------------------------------------------------------------------

def test_gram_init_identity():
    g = GramState(3, 1.0)
    assert np.array_equal(g.inv, np.eye(3))
    assert g.count == 0


def test_gram_init_scaled():
    g = GramState(2, 0.5)
    assert np.allclose(g.inv, 2.0 * np.eye(2))


def test_gram_init_rejects_bad_lam():
    with pytest.raises(ValueError):
        GramState(3, 0.0)
    with pytest.raises(ValueError, match="lam"):
        GramState(3, math.nan)


def test_gram_update_basis_vector_closed_form():
    g = GramState(2, 1.0)
    g.update(np.array([1.0, 0.0]))
    assert g.inv[0, 0] == pytest.approx(0.5)
    assert g.inv[1, 1] == pytest.approx(1.0)


def test_gram_update_matches_dense_inverse():
    rng = np.random.default_rng(0)
    g = GramState(8, 1.0)
    feats = random_unit_features(rng, 50, 8)
    for phi in feats:
        g.update(phi)
    dense = np.linalg.inv(gram_of(1.0, 8, feats))
    assert np.abs(g.inv - dense).max() <= 1e-8


def test_gram_update_zero_feature_noop():
    g = GramState(3, 2.0)
    before_inv = g.inv.copy()
    g.update(np.zeros(3))
    assert np.array_equal(g.inv, before_inv)
    assert g.count == 1


def test_gram_update_rejects_large_norm():
    g = GramState(2, 1.0)
    with pytest.raises(ValueError):
        g.update(np.array([1.5, 0.0]))


@pytest.mark.parametrize("one_hot, message", [
    (True, "unit basis"), (False, "feature norm nan")], ids=["diagonal", "dense"])
def test_gram_update_rejects_a_nan_sample_and_keeps_its_storage(one_hot, message):
    feats = np.eye(3) if one_hot else random_unit_features(
        np.random.default_rng(0), 4, 3)
    g = GramState(3, 1.0, map_of(feats))
    g.update(feats[0])
    inv, quad = g.inv.copy(), g.quad_forms().copy()
    with pytest.raises(ValueError, match=message):
        g.update(np.array([np.nan, 0.0, 0.0]))
    assert g.diagonal == one_hot
    assert np.array_equal(g.inv, inv)
    assert np.array_equal(g.quad_forms(), quad)
    assert g.count == 1


def test_gram_rejects_a_map_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 4, not 3"):
        GramState(3, 1.0, one_hot_features(2, 2))


def test_gram_update_detects_corrupted_inverse():
    g = GramState(2, 1.0)
    g.inv = -np.eye(2)  # cannot arise from valid updates
    with pytest.raises(RuntimeError, match="breakdown"):
        g.update(np.array([1.0, 0.0]))


def test_quad_form_detects_corruption():
    g = GramState(2, 1.0)
    g.inv = -np.eye(2)
    with pytest.raises(RuntimeError, match="negative quadratic form"):
        g.quad_form(np.array([1.0, 0.0]))


@pytest.mark.parametrize("lam, beta, message", [
    (math.nan, 1.0, "lam"), (1.0, math.nan, "beta"), (1.0, -5.0, "beta"),
    (1.0, math.inf, "beta")], ids=["nan-lam", "nan-beta", "negative-beta",
                                   "inf-beta"])
def test_learner_rejects_bad_lam_and_beta(lam, beta, message):
    with pytest.raises(ValueError, match=message):
        LsviLearner(one_hot_features(2, 2), 2, 2, horizon=3, lam=lam, beta=beta)


@pytest.mark.parametrize("S, A, shape", [(2, 2, (4, 1)), (3, 2, (2, 2))],
                         ids=["same-size", "too-few-states"])
def test_learner_rejects_a_map_of_another_shape(S, A, shape):
    fmap = FeatureMap(4, np.eye(4).reshape(*shape, 4))
    with pytest.raises(ValueError, match=re.escape(
            f"covers (S, A) = {shape}, the learner was given {(S, A)}")):
        LsviLearner(fmap, S, A, horizon=2, lam=1.0, beta=1.0)


def test_ingest_rejects_wrong_length():
    fmap = one_hot_features(2, 2)
    learner = LsviLearner(fmap, 2, 2, horizon=3, lam=1.0, beta=1.0)
    with pytest.raises(ValueError, match="trace length"):
        learner.ingest_episode([StepRecord(0, 0, 0.0, -1.0, 0)])


def test_gram_inverse_consistency_random_sequences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(2, 10))
        lam = float(rng.uniform(0.5, 2.0))
        g = GramState(d, lam)
        feats = random_unit_features(rng, 40, d, scale=rng.uniform(0.1, 1.0))
        for phi in feats:
            g.update(phi)
        assert np.abs(g.inv @ gram_of(lam, d, feats) - np.eye(d)).max() <= 1e-8


def test_ridge_weights_zero_targets():
    g = GramState(4, 1.0)
    rng = np.random.default_rng(1)
    for phi in random_unit_features(rng, 10, 4):
        g.update(phi)
    assert np.array_equal(g.solve(np.zeros(4)), np.zeros(4))


def test_ridge_weights_single_sample_closed_form():
    g = GramState(2, 1.0)
    g.update(np.array([1.0, 0.0]))  # one sample with target 1
    assert np.allclose(g.solve(np.array([1.0, 0.0])), [0.5, 0.0])


def test_ridge_weights_match_dense_solve():
    rng = np.random.default_rng(7)
    g = GramState(6, 1.0)
    b = np.zeros(6)
    feats = random_unit_features(rng, 20, 6)
    for phi in feats:
        g.update(phi)
        b += phi * rng.normal()
    dense = np.linalg.solve(gram_of(1.0, 6, feats), b)
    assert np.abs(g.solve(b) - dense).max() <= 1e-8


def test_elliptical_potential_bound():
    # sum_i phi_i^T Lambda_k^{-1} phi_i <= d for the final Gram matrix
    rng = np.random.default_rng(11)
    for trial in range(20):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(5, 80))
        feats = random_unit_features(rng, k, d, scale=rng.uniform(0.2, 1.0))
        g = GramState(d, 1.0)
        for phi in feats:
            g.update(phi)
        total = sum(phi @ g.inv @ phi for phi in feats)
        assert total <= d + 1e-10


def test_bonus_shrinks_along_repeated_direction():
    g = GramState(3, 1.0)
    phi = np.array([0.6, 0.8, 0.0])
    values = []
    for _ in range(15):
        values.append(math.sqrt(g.quad_form(phi)))
        g.update(phi)
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# beta_schedule
# ---------------------------------------------------------------------------

def test_beta_schedule_unit_log():
    # chosen so log(2dHK/p) = log(e) = 1
    assert beta_schedule(1.0, 1, 1, 1, 2.0 / math.e) == pytest.approx(1.0)


def test_beta_schedule_high_precision():
    getcontext().prec = 50
    c, d, H, K, p = 1.0, 2, 3, 100, 0.1
    arg = Decimal(2 * d * H * K) / Decimal(str(p))
    expected = Decimal(c * d * H) * arg.ln().sqrt()
    got = beta_schedule(c, d, H, K, p)
    assert abs(Decimal(got) - expected) < Decimal("1e-12")


def test_beta_schedule_linear_in_c():
    b1 = beta_schedule(1.0, 3, 4, 50, 0.1)
    b2 = beta_schedule(2.0, 3, 4, 50, 0.1)
    assert b2 == pytest.approx(2.0 * b1)


def test_beta_schedule_rejects_bad_p():
    with pytest.raises(ValueError):
        beta_schedule(1.0, 2, 2, 10, 1.5)


# ---------------------------------------------------------------------------
# Optimistic Q-table
# ---------------------------------------------------------------------------

def test_q_value_never_exceeds_cap():
    rng = np.random.default_rng(8)
    d, H = 4, 3
    fmap = one_hot_features(2, 2)
    learner = LsviLearner(fmap, 2, 2, H, 1.0, beta=10.0)
    for k in range(20):
        plan = learner.backward_pass()
        assert plan.q_table.max() <= H + 1e-12
        trace = [StepRecord(int(rng.integers(2)), int(rng.integers(2)),
                            float(rng.uniform(0, 1)), -1.0, int(rng.integers(2)))
                 for _ in range(H)]
        learner.ingest_episode(trace)


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def test_backward_pass_empty_history():
    fmap = one_hot_features(3, 2)
    learner = LsviLearner(fmap, 3, 2, 4, 1.0, beta=1.5)
    plan = learner.backward_pass()
    assert np.array_equal(plan.weights, np.zeros((4, 6)))
    # every Q value is min(beta * ||phi||, H) = 1.5 for unit one-hot features
    assert np.allclose(plan.q_table, 1.5)
    # a bonus far above the horizon clips every value at the cap H = 4
    learner = LsviLearner(fmap, 3, 2, 4, 1.0, beta=8.0)
    plan = learner.backward_pass()
    assert np.array_equal(plan.q_table, np.full((4, 3, 2), 4.0))
    assert np.array_equal(plan.v_table, np.full((4, 3), 4.0))


def _reference_lines_4_to_9(history, feats, S, A, H, lam, beta, ghat, z):
    """Straight-line reimplementation of the backward sweep with dense solves."""
    d = feats.shape[1]
    q_tables = np.zeros((H, S, A))
    weights = np.zeros((H, d))
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
        a_star = objective.argmax(axis=1)
        v_next = q_tables[h][np.arange(S), a_star]
        weights[h] = w
    return weights, q_tables


def test_backward_pass_matches_reference():
    rng = np.random.default_rng(5)
    # one-hot (diagonal statistics) and dense unit-norm features of d = 3
    dense = FeatureMap(3, random_unit_features(rng, 4, 3).reshape(2, 2, 3))
    history = [
        [StepRecord(0, 1, 0.5, -1.0, 1), StepRecord(1, 0, 0.2, -1.0, 0)],
        [StepRecord(0, 0, 0.1, -1.0, 0), StepRecord(0, 1, 0.9, -1.0, 1)],
        [StepRecord(1, 1, 0.7, -1.0, 1), StepRecord(1, 1, 0.3, -1.0, 0)],
    ]
    cases = [(one_hot_features(2, 2), history, 0.8, 1e-10),
             (dense, history, 0.8, 1e-10)]
    for fmap, episodes, beta, tol in cases:
        S, A, _ = fmap.table.shape
        H = len(episodes[0])
        learner = LsviLearner(fmap, S, A, H, 1.0, beta=beta)
        for episode in episodes:
            learner.ingest_episode(episode)
        ghat = -np.ones((H, S, A))
        z = np.zeros(H)
        plan = learner.backward_pass(ghat=ghat, z=z)
        ref_w, ref_q = _reference_lines_4_to_9(episodes, fmap.flat, S, A, H, 1.0,
                                               beta, ghat, z)
        assert np.abs(plan.weights - ref_w).max() <= tol
        assert np.abs(plan.q_table - ref_q).max() <= tol


def test_backward_pass_incremental_matches_dense_rebuild():
    # the incremental statistics after many updates against a Gram rebuilt
    # from the samples and solved densely
    rng = np.random.default_rng(21)
    S, A, H = 3, 2, 3
    fmap = one_hot_features(S, A)
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=1.2)
    episodes = []
    for _ in range(25):
        trace = [StepRecord(int(rng.integers(S)), int(rng.integers(A)),
                            float(rng.uniform(0, 1)), -1.0, int(rng.integers(S)))
                 for _ in range(H)]
        learner.ingest_episode(trace)
        episodes.append(trace)
    plan_incremental = learner.backward_pass()
    dense_w, dense_q = _reference_lines_4_to_9(episodes, fmap.flat, S, A, H, 1.0, 1.2,
                                               np.zeros((H, S, A)), np.zeros(H))
    assert np.abs(plan_incremental.weights - dense_w).max() <= 1e-8
    assert np.abs(plan_incremental.q_table - dense_q).max() <= 1e-8


def test_backward_pass_penalty_dominates():
    S, A, H = 2, 3, 2
    fmap = one_hot_features(S, A)
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=1.0)
    ghat = np.full((H, S, A), 0.5)
    ghat[:, :, 1] = -0.2  # exactly one safe-looking action per state
    z = np.full(H, 1e6)
    plan = learner.backward_pass(ghat=ghat, z=z)
    assert np.all(plan.policy == 1)
    assert np.allclose(plan.v_table, plan.q_table[:, :, 1][np.arange(H)[:, None],
                                                           np.arange(S)[None, :]])


def test_weight_norm_bound_on_generated_runs():
    rng = np.random.default_rng(17)
    S, A, H = 3, 2, 3
    fmap = one_hot_features(S, A)
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=1.0)
    for k in range(1, 60):
        plan = learner.backward_pass()
        bound = learner.weight_norm_bound()
        assert np.linalg.norm(plan.weights, axis=1).max() <= bound
        trace = [StepRecord(int(rng.integers(S)), int(rng.integers(A)),
                            float(rng.uniform(0, 1)), -1.0, int(rng.integers(S)))
                 for _ in range(H)]
        learner.ingest_episode(trace)


def test_overestimation_frequency_small_instances():
    # Q-model with the theory bonus rarely dips below the exact safe optimum.
    from safe_lsvi.bench import ExperimentConfig, run_experiment, build_env
    from safe_lsvi.oracle import constrained_dp
    from safe_lsvi.lsvi import beta_schedule
    from safe_lsvi.envs import build_synthetic_linear, step
    from safe_lsvi.penalty import PenaltyLedger

    p = 0.1
    under = total = 0
    for seed in range(20):
        cmdp, fmap, _ = build_synthetic_linear(4, 3, seed=seed, cost_noise=0.0)
        _, star = constrained_dp(cmdp)
        K = 30
        beta = beta_schedule(1.0, fmap.dim, cmdp.horizon, K, p)
        learner = LsviLearner(fmap, cmdp.num_states, cmdp.num_actions,
                              cmdp.horizon, 1.0, beta)
        cost = LinearCostModel(fmap, cmdp.horizon, p=p)
        ledger = PenaltyLedger(cmdp.horizon, "rectified")
        rng = np.random.default_rng(seed + 1000)
        for k in range(1, K + 1):
            ghat = np.stack([cost.lcb_table(h) for h in range(cmdp.horizon)])
            plan = learner.backward_pass(ghat=ghat, z=ledger.z)
            under += int((plan.q_table < star.q - 1e-9).sum())
            total += plan.q_table.size
            s = cmdp.initial_state
            ep = []
            for h in range(cmdp.horizon):
                a = int(plan.policy[h, s])
                r, c, nxt = step(cmdp, s, a, h, rng)
                cost.observe(h, fmap.flat[s * cmdp.num_actions + a], c)
                ep.append(StepRecord(s, a, r, c, nxt))
                s = nxt
            learner.ingest_episode(ep)
            ledger.end_episode([e.cost for e in ep], k)
    assert under / total <= p


# ---------------------------------------------------------------------------
# Storage forms and shared statistics (property tests)
# ---------------------------------------------------------------------------

LAMS = st.floats(min_value=0.05, max_value=5.0)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _random_episodes(rng, S, A, H, K):
    return [[StepRecord(int(rng.integers(S)), int(rng.integers(A)),
                        float(rng.uniform(0, 1)), float(rng.uniform(-1, 1)),
                        int(rng.integers(S))) for _ in range(H)]
            for _ in range(K)]


def _dense_twin(fmap):
    """fmap with its one-hot structure hidden, so that statistics built on
    it keep dense storage: a reference for the diagonal storage."""
    twin = copy.copy(fmap)
    twin.unit_columns = None
    return twin


@settings(max_examples=60, deadline=None)
@given(lam=LAMS, seed=SEEDS)
def test_diagonal_statistics_equal_dense_bitwise(lam, seed):
    rng = np.random.default_rng(seed)
    S, A, H = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    fmap = one_hot_features(S, A)
    diag = LsviLearner(fmap, S, A, H, lam, beta=float(rng.uniform(0, 3)))
    dense = LsviLearner(_dense_twin(fmap), S, A, H, lam, beta=diag.beta)
    assert all(g.diagonal for g in diag.stats)
    assert not any(g.diagonal for g in dense.stats)
    for episode in _random_episodes(rng, S, A, H, int(rng.integers(0, 20))):
        diag.ingest_episode(episode)
        dense.ingest_episode(episode)
    ghat = rng.uniform(-1, 1, size=(H, S, A))
    z = rng.uniform(0, 5, size=H)
    for g, ref in zip(diag.stats, dense.stats):
        assert np.diag(g.inv).tobytes() == ref.inv.tobytes()
        assert g.quad_forms().tobytes() == ref.quad_forms().tobytes()
        b = rng.normal(size=S * A)
        assert g.solve(b).tobytes() == ref.solve(b).tobytes()
        assert g.count == ref.count
    plan, ref_plan = diag.backward_pass(ghat, z), dense.backward_pass(ghat, z)
    assert plan.weights.tobytes() == ref_plan.weights.tobytes()
    assert plan.q_table.tobytes() == ref_plan.q_table.tobytes()
    assert np.array_equal(plan.policy, ref_plan.policy)


@settings(max_examples=80, deadline=None)
@given(lam=LAMS, seed=SEEDS)
def test_dense_rank_one_updates_equal_the_inverse_of_the_gram(lam, seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
    # Rows of random direction and norm in (0.05, 1): never a unit basis
    # vector, so the storage is dense.
    feats = random_unit_features(rng, n, d) * rng.uniform(0.05, 1.0, size=(n, 1))
    g = GramState(d, lam, map_of(feats))
    assert not g.diagonal
    samples = []
    for _ in range(int(rng.integers(0, 40))):
        if rng.uniform() < 0.5:
            phi = feats[rng.integers(n)]
        else:
            phi = random_unit_features(rng, 1, d)[0] * rng.uniform(0.0, 1.0)
        g.update(phi)
        samples.append(phi)
    dense_inv = np.linalg.inv(gram_of(lam, d, samples))
    assert np.abs(g.inv - dense_inv).max() <= 1e-8
    assert np.abs(g.quad_forms()
                  - np.einsum("nd,de,ne->n", feats, dense_inv, feats)).max() <= 1e-8
    assert g.count == len(samples)


def _feature_map(rng, one_hot, S, A):
    if one_hot:
        return one_hot_features(S, A)
    d = int(rng.integers(2, 6))
    return FeatureMap(dim=d, table=random_unit_features(rng, S * A, d).reshape(S, A, d))


@settings(max_examples=60, deadline=None)
@given(lam=LAMS, seed=SEEDS, one_hot=st.booleans())
def test_cost_model_on_shared_statistics_matches_standalone(lam, seed, one_hot):
    rng = np.random.default_rng(seed)
    S, A, H = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    fmap = _feature_map(rng, one_hot, S, A)
    learner = LsviLearner(fmap, S, A, H, lam, beta=1.0)
    shared = LinearCostModel(fmap, H, lam=lam, stats=learner.stats)
    alone = LinearCostModel(fmap, H, lam=lam)
    for episode in _random_episodes(rng, S, A, H, int(rng.integers(0, 15))):
        for h, rec in enumerate(episode):
            phi = fmap.table[rec.state, rec.action]
            shared.observe(h, phi, rec.cost)
            alone.observe(h, phi, rec.cost)
        learner.ingest_episode(episode)
    for h in range(H):
        assert shared.theta(h).tobytes() == alone.theta(h).tobytes()
        assert shared.lcb_table(h).tobytes() == alone.lcb_table(h).tobytes()


def test_cost_model_rejects_mismatched_statistics():
    fmap = one_hot_features(2, 2)
    learner = LsviLearner(fmap, 2, 2, 3, lam=1.0, beta=1.0)
    with pytest.raises(ValueError, match="shared statistics"):
        LinearCostModel(fmap, 3, lam=2.0, stats=learner.stats)
    with pytest.raises(ValueError, match="shared statistics"):
        LinearCostModel(fmap, 2, lam=1.0, stats=learner.stats)


def test_cost_model_rejects_statistics_of_another_map():
    # Same dimension, other rows: the cost table would report the rows of
    # the map the statistics were built on.
    learner = LsviLearner(one_hot_features(2, 2), 2, 2, 3, lam=1.0, beta=1.0)
    other = FeatureMap(4, np.eye(4)[::-1].reshape(2, 2, 4))
    with pytest.raises(ValueError, match="shared statistics"):
        LinearCostModel(other, 3, lam=1.0, stats=learner.stats)


@pytest.mark.parametrize("phi", [[0.6, 0.8], [0.5, 0.0], [-1.0, 0.0],
                                 [1.0, 1.0], [0.0, 0.0]],
                         ids=["dense", "scaled", "negated", "long", "zero"])
def test_diagonal_statistics_reject_a_sample_off_the_feature_set(phi):
    g = GramState(2, 1.0, one_hot_features(2, 1))
    g.update(np.array([1.0, 0.0]))
    inv = g.inv.copy()
    with pytest.raises(ValueError, match="unit basis"):
        g.update(np.array(phi))
    assert g.diagonal
    assert np.array_equal(g.inv, inv)
    assert g.count == 1


def test_one_hot_check_gives_up_on_dense_rows():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert not GramState(2, 1.0, map_of(feats)).diagonal
    assert GramState(2, 1.0, map_of(feats[:2])).diagonal
    assert not GramState(2, 1.0, map_of([[0.0, 1.0], [0.0, 0.0]])).diagonal
    assert not GramState(2, 1.0, map_of([[-1.0, 0.0]])).diagonal
    assert not GramState(2, 1.0).diagonal
