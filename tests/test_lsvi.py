import copy
import dataclasses
import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from safe_lsvi.costs import GpCostModel, LinearCostModel
from safe_lsvi.envs import FeatureMap, one_hot_features
from safe_lsvi.lsvi import GramState, LsviLearner, beta_schedule
from safe_lsvi.penalty import PenaltyLedger

from dense_reference import backup_q, plan_q_table, reference_lines_4_to_9


def random_unit_features(rng, n, d, scale=1.0):
    x = rng.normal(size=(n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x * scale


def map_of(rows):
    """A FeatureMap with one action per state whose features are rows."""
    rows = np.asarray(rows, dtype=float)
    return FeatureMap(rows.shape[1], rows.reshape(len(rows), 1, -1))


def ingest_steps(learner, steps):
    """Feed the learner one episode given as (s, a, reward, cost,
    next_state) tuples."""
    learner.ingest_episode([s * learner.A + a for s, a, _, _, _ in steps],
                           [r for _, _, r, _, _ in steps],
                           [nxt for _, _, _, _, nxt in steps])


def random_steps(rng, S, A, H):
    """One random episode of (s, a, reward, cost, next_state) tuples."""
    return [(int(rng.integers(S)), int(rng.integers(A)), float(rng.uniform(0, 1)),
             -1.0, int(rng.integers(S))) for _ in range(H)]


def gram_of(lam, d, samples):
    """lam*I + sum phi phi^T, built from the samples a GramState was fed."""
    return lam * np.eye(d) + sum((np.outer(phi, phi) for phi in samples),
                                 np.zeros((d, d)))


# ---------------------------------------------------------------------------
# GramState
# ---------------------------------------------------------------------------

def fed(fmap, lam, rows=()):
    """A GramState of one step over fmap after one episode per row in rows."""
    g = GramState(fmap, lam, 1)
    for row in rows:
        g.update(np.array([row]))
    return g


def test_gram_init_identity():
    g = GramState(map_of(np.zeros((1, 3))), 1.0, 2)
    assert np.array_equal(g.inv, np.stack([np.eye(3)] * 2))
    assert g.count == 0


def test_gram_init_scaled():
    g = fed(map_of(np.zeros((1, 2))), 0.5)
    assert np.allclose(g.inv[0], 2.0 * np.eye(2))


def test_gram_init_rejects_bad_lam():
    fmap = map_of(np.zeros((1, 3)))
    with pytest.raises(ValueError):
        GramState(fmap, 0.0, 1)
    with pytest.raises(ValueError, match="lam"):
        GramState(fmap, math.nan, 1)


# A dense two-row map (not one-hot), so that inv stays (H, d, d).
BASIS_AND_DENSE = [[1.0, 0.0], [0.6, 0.8]]


def test_gram_update_basis_vector_closed_form():
    g = fed(map_of(BASIS_AND_DENSE), 1.0, [0])
    assert g.inv[0, 0, 0] == pytest.approx(0.5)
    assert g.inv[0, 1, 1] == pytest.approx(1.0)


def test_gram_update_takes_one_row_per_step():
    # Each step's inverse moves with its own row only.
    g = GramState(map_of(BASIS_AND_DENSE), 1.0, 2)
    g.update(np.array([0, 1]))
    assert g.count == 1
    assert g.inv[0, 0, 0] == pytest.approx(0.5) and g.inv[0, 1, 1] == 1.0
    assert np.allclose(g.inv[1], np.linalg.inv(np.eye(2) + np.outer([0.6, 0.8], [0.6, 0.8])))
    with pytest.raises(ValueError, match=re.escape("rows must have shape (2,)")):
        g.update(np.array([0]))


def test_gram_update_matches_dense_inverse():
    rng = np.random.default_rng(0)
    feats = random_unit_features(rng, 50, 8)
    g = fed(map_of(feats), 1.0, range(len(feats)))
    dense = np.linalg.inv(gram_of(1.0, 8, feats))
    assert np.abs(g.inv[0] - dense).max() <= 1e-8


def test_gram_update_zero_feature_noop():
    g = fed(map_of(np.zeros((1, 3))), 2.0)
    before_inv = g.inv.copy()
    g.update(np.array([0]))
    assert np.array_equal(g.inv, before_inv)
    assert g.count == 1


def test_gram_update_detects_corrupted_inverse():
    g = GramState(map_of(BASIS_AND_DENSE), 1.0, 2)
    g.inv[1] = -np.eye(2)  # cannot arise from valid updates
    before = g.inv.copy(), g.quad[0].copy()
    with pytest.raises(RuntimeError, match="breakdown"):
        g.update(np.array([0, 0]))
    # The healthy step 0 is left as it was, too.
    assert g.inv.tobytes() == before[0].tobytes()
    assert g.quad[0].tobytes() == before[1].tobytes() and g.count == 0


def test_one_hot_update_stops_when_the_inverse_overflows():
    # 1/lam squared overflowed: the first update warned and left -inf in
    # the inverse, and the denominator check stopped the second.  Such a
    # lam lies outside the range of a positive scale, so the statistics are
    # not built.
    with pytest.raises(ValueError, match=r"lam must lie in \[1e-150, 1e\+150\], not 1e-160"):
        GramState(one_hot_features(2, 1), 1e-160, 1)


@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
def test_gram_breakdown_names_lam(one_hot):
    # lam = 3e-19 is in range, but the first update rounds the inverse at
    # the row to a negative value, so the second one's denominator
    # 1 + phi^T A^-1 phi is negative.
    g = fed(one_hot_features(2, 1) if one_hot else map_of([[0.6, 0.8]]), 3e-19, [0])
    with pytest.raises(RuntimeError, match=r"breakdown: .* \(lam=3e-19\)"):
        g.update(np.array([0]))
    assert g.count == 1


@pytest.mark.parametrize("lam, beta, message", [
    (math.nan, 1.0, "lam"), (1.0, math.nan, "beta"), (1.0, -5.0, "beta"),
    (1.0, math.inf, "beta"), (1.0, True, "beta must be >= 0 and finite"),
    (1.0, np.True_, "beta must be >= 0 and finite"),
    (np.True_, 1.0, "lam must be positive and finite")],
    ids=["nan-lam", "nan-beta", "negative-beta", "inf-beta", "bool-beta",
         "numpy-bool-beta", "numpy-bool-lam"])
def test_learner_rejects_bad_lam_and_beta(lam, beta, message):
    with pytest.raises(ValueError, match=message):
        LsviLearner(one_hot_features(2, 2), 2, 2, horizon=3, lam=lam, beta=beta)


@pytest.mark.parametrize("lam", [math.inf, math.nan, 0.0, -1.0],
                         ids=["inf", "nan", "zero", "negative"])
@pytest.mark.parametrize("build", [
    lambda fmap, lam: GramState(fmap, lam, 2),
    lambda fmap, lam: LsviLearner(fmap, 3, 2, 2, lam, 1.0),
    lambda fmap, lam: LinearCostModel(fmap, 2, lam=lam)],
    ids=["gram", "learner", "linear-cost"])
def test_lam_outside_the_positive_reals_is_rejected(build, lam):
    # With lam = inf every inverse is 0, and a learner would ingest episodes
    # and return all-zero weights.
    with pytest.raises(ValueError, match="lam must be positive"):
        build(one_hot_features(3, 2), lam)


@pytest.mark.parametrize("build", [
    lambda fmap, lam: GramState(fmap, lam, 2),
    lambda fmap, lam: LsviLearner(fmap, 3, 2, 2, lam, 1.0),
    lambda fmap, lam: LinearCostModel(fmap, 2, lam=lam)],
    ids=["gram", "learner", "linear-cost"])
def test_a_bool_lam_is_rejected(build):
    # True compares as 1, and would run as lam = 1.
    with pytest.raises(ValueError, match="lam must be positive"):
        build(one_hot_features(3, 2), True)


@pytest.mark.parametrize("horizon", [0, -1, 2.5, True],
                         ids=["zero", "negative", "fraction", "bool"])
@pytest.mark.parametrize("build", [
    lambda fmap, H: GramState(fmap, 1.0, H),
    lambda fmap, H: LsviLearner(fmap, 3, 2, H, 1.0, 1.0),
    lambda fmap, H: LinearCostModel(fmap, H),
    lambda fmap, H: GpCostModel("linear", 5, H, feature_map=fmap),
    lambda fmap, H: PenaltyLedger(H, "rectified")],
    ids=["gram", "learner", "linear-cost", "gp-cost", "ledger"])
def test_a_horizon_that_is_not_a_positive_integer_is_rejected(build, horizon):
    # Each fails here, naming the horizon: not later, as an H = 0 learner
    # rejecting every episode, nor inside numpy.
    with pytest.raises(ValueError, match="horizon"):
        build(one_hot_features(3, 2), horizon)


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
    good = ([0, 1, 2], [0.0, 0.5, 1.0], [0, 1, 0])
    for i in range(3):
        episode = list(good)
        episode[i] = episode[i][:1]
        with pytest.raises(ValueError, match=re.escape(
                "rows, rewards and next states must have shape (3,)")):
            learner.ingest_episode(*episode)
    assert learner.stats.count == 0


def _learner_arrays(learner):
    """Every array of the learner's state, and its episode count."""
    g = learner.stats
    quad = [] if learner.fmap.one_hot else [g.quad.copy()]
    return [g.inv.copy(), *quad, learner.reward_feats.copy(),
            learner.next_keys.copy(), learner.next_sums.copy(), g.count]


def _assert_episode_rejected(rewards, next_states, message):
    """On a one-hot and a dense map, the episode is rejected with message
    and no array of the learner changes."""
    dense = FeatureMap(3, random_unit_features(np.random.default_rng(0), 4, 3).reshape(2, 2, 3))
    for fmap in (one_hot_features(2, 2), dense):
        learner = LsviLearner(fmap, 2, 2, horizon=2, lam=1.0, beta=1.0)
        learner.ingest_episode([0, 3], [0.5, 0.25], [1, 0])
        before = _learner_arrays(learner)
        with pytest.raises(ValueError, match=re.escape(message)):
            learner.ingest_episode([1, 2], rewards, next_states)
        for old, new in zip(before, _learner_arrays(learner)):
            assert np.asarray(old).tobytes() == np.asarray(new).tobytes()


@pytest.mark.parametrize("next_state", [-1, 2, 0.5], ids=["minus-one", "S", "float"])
def test_ingest_rejects_a_next_state_outside_the_states(next_state):
    # Without the check, -1 would add to the last state's column, and a
    # float would fail the indexed add only after the statistics changed.
    _assert_episode_rejected([0.5, 0.5], [1, next_state], "not all integers in [0, 2)")


def test_ingest_rejects_a_nan_reward():
    # Without the check, the NaN would surface only at the next backward pass.
    _assert_episode_rejected([0.5, math.nan], [0, 1], "rewards [0.5 nan] not all finite")


def test_gram_inverse_consistency_random_sequences():
    rng = np.random.default_rng(42)
    for _ in range(10):
        d = int(rng.integers(2, 10))
        lam = float(rng.uniform(0.5, 2.0))
        feats = random_unit_features(rng, 40, d, scale=rng.uniform(0.1, 1.0))
        g = fed(map_of(feats), lam, range(len(feats)))
        assert np.abs(g.inv[0] @ gram_of(lam, d, feats) - np.eye(d)).max() <= 1e-8


def test_ridge_weights_zero_targets():
    rng = np.random.default_rng(1)
    g = fed(map_of(random_unit_features(rng, 10, 4)), 1.0, range(10))
    assert np.array_equal(g.solve(0, np.zeros(4)), np.zeros(4))


def test_ridge_weights_single_sample_closed_form():
    g = fed(map_of(BASIS_AND_DENSE), 1.0, [0])  # one sample, [1, 0], with target 1
    assert np.allclose(g.solve(0, np.array([1.0, 0.0])), [0.5, 0.0])


def test_ridge_weights_match_dense_solve():
    rng = np.random.default_rng(7)
    b = np.zeros(6)
    feats = random_unit_features(rng, 20, 6)
    g = fed(map_of(feats), 1.0)
    for row, phi in enumerate(feats):
        g.update(np.array([row]))
        b += phi * rng.normal()
    dense = np.linalg.solve(gram_of(1.0, 6, feats), b)
    assert np.abs(g.solve(0, b) - dense).max() <= 1e-8


def test_elliptical_potential_bound():
    # sum_i phi_i^T Lambda_k^{-1} phi_i <= d for the final Gram matrix
    rng = np.random.default_rng(11)
    for trial in range(20):
        d = int(rng.integers(2, 12))
        k = int(rng.integers(5, 80))
        feats = random_unit_features(rng, k, d, scale=rng.uniform(0.2, 1.0))
        g = fed(map_of(feats), 1.0, range(k))
        total = sum(phi @ g.inv[0] @ phi for phi in feats)
        assert total <= d + 1e-10


def test_bonus_shrinks_along_repeated_direction():
    phi = np.array([0.6, 0.8, 0.0])
    g = fed(map_of([phi]), 1.0)
    values = []
    for _ in range(15):
        values.append(math.sqrt(g.quad[0, g.fmap.index[0]]))
        g.update(np.array([0]))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# beta_schedule
# ---------------------------------------------------------------------------

def test_beta_schedule_unit_log():
    # chosen so log(2dHK/p) = log(e) = 1
    assert beta_schedule(1, 1, 1, 2.0 / math.e) == pytest.approx(1.0)


def test_beta_schedule_high_precision():
    getcontext().prec = 50
    d, H, K, p = 2, 3, 100, 0.1
    arg = Decimal(2 * d * H * K) / Decimal(str(p))
    expected = Decimal(d * H) * arg.ln().sqrt()
    got = beta_schedule(d, H, K, p)
    assert abs(Decimal(got) - expected) < Decimal("1e-12")


def test_beta_schedule_rejects_bad_p():
    with pytest.raises(ValueError):
        beta_schedule(2, 2, 10, 1.5)


def test_beta_schedule_names_a_p_so_small_that_2dhk_over_p_overflows():
    # The schedule was inf, and the learner then blamed beta.
    with pytest.raises(ValueError, match=r"2dHK/p must lie in \(1, inf\), not inf "
                                         r"\(p=1e-320\)"):
        beta_schedule(8, 15, 1000, 1e-320)


# ---------------------------------------------------------------------------
# Optimistic Q-table
# ---------------------------------------------------------------------------

def test_q_value_never_exceeds_cap():
    rng = np.random.default_rng(8)
    d, H = 4, 3
    fmap = one_hot_features(2, 2)
    learner = LsviLearner(fmap, 2, 2, H, 1.0, beta=10.0)
    for k in range(20):
        plan = learner.backward_pass(np.zeros((H, 2, 2)), np.zeros(H))
        assert plan_q_table(learner, plan).max() <= H + 1e-12
        ingest_steps(learner, random_steps(rng, 2, 2, H))


# ---------------------------------------------------------------------------
# Backward pass
# ---------------------------------------------------------------------------

def test_backward_pass_empty_history():
    fmap = one_hot_features(3, 2)
    learner = LsviLearner(fmap, 3, 2, 4, 1.0, beta=1.5)
    plan = learner.backward_pass(np.zeros((4, 3, 2)), np.zeros(4))
    assert np.array_equal(plan.weights, np.zeros((4, 6)))
    # every Q value is min(beta * ||phi||, H) = 1.5 for unit one-hot features
    assert np.allclose(plan_q_table(learner, plan), 1.5)
    # a bonus far above the horizon clips every value at the cap H = 4
    learner = LsviLearner(fmap, 3, 2, 4, 1.0, beta=8.0)
    plan = learner.backward_pass(np.zeros((4, 3, 2)), np.zeros(4))
    assert np.array_equal(plan_q_table(learner, plan), np.full((4, 3, 2), 4.0))
    assert np.array_equal(plan.v_table, np.full((4, 3), 4.0))


@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
def test_backward_pass_rejects_non_finite_weights(one_hot):
    # Step 1's reward sums overflow to inf (1e308 + 1e308) and its weights
    # with them; the pass names the first step swept that has them.
    fmap = one_hot_features(2, 2) if one_hot else map_of([[1.0, 0.0], [0.6, 0.8]])
    S, A = fmap.table.shape[:2]
    learner = LsviLearner(fmap, S, A, 3, lam=1.0, beta=1.0)
    with np.errstate(over="ignore"):
        for _ in range(2):
            learner.ingest_episode([0, 0, 0], [0.5, 1e308, 0.5], [0, 0, 0])
    assert not np.isfinite(learner.reward_feats[1]).all()
    with np.errstate(invalid="ignore"), \
            pytest.raises(FloatingPointError, match="non-finite regression weights at step 1"):
        learner.backward_pass(np.zeros((3, S, A)), np.zeros(3))


@pytest.mark.parametrize("tables, z_shape", [
    (3, (3, 2)), (3, (3, 3, 2)), (3, (5,)), (3, (3, 1)), (3, ()), (2, (3,)), (4, (3,))],
    ids=["z-per-action", "z-per-pair", "z-too-long", "z-column", "z-scalar",
         "too-few-tables", "too-many-tables"])
def test_backward_pass_rejects_a_penalty_or_tables_of_another_shape(tables, z_shape):
    # A z of shape (H, A) or (H, S, A) would broadcast into a per-action
    # penalty, another algorithm, and a longer z or ghat would be read in
    # part.  Each is turned down before any work.
    S, A, H = 3, 2, 3
    learner = LsviLearner(one_hot_features(S, A), S, A, H, 1.0, beta=1.0)
    learner.stats.roots = lambda: pytest.fail("the pass began its work")
    with pytest.raises(ValueError, match=r"ghat must hold 3 tables and z have shape \(3,\)"):
        learner.backward_pass([np.zeros((S, A))] * tables, np.zeros(z_shape))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_backward_pass_rejects_a_non_finite_penalty(bad):
    # Q - NaN*max(ghat, 0) is NaN in every entry, so every action would be
    # 0, and inf*0 is NaN where ghat <= 0.  Turned down before any work.
    S, A, H = 3, 2, 3
    learner = LsviLearner(one_hot_features(S, A), S, A, H, 1.0, beta=1.0)
    learner.stats.roots = lambda: pytest.fail("the pass began its work")
    z = np.ones(H)
    z[1] = bad
    with pytest.raises(ValueError, match=r"penalty factors z .* not all finite"):
        learner.backward_pass(np.zeros((H, S, A)), z)


def test_backward_pass_matches_reference():
    rng = np.random.default_rng(5)
    # one-hot (diagonal statistics) and dense unit-norm features of d = 3
    dense = FeatureMap(3, random_unit_features(rng, 4, 3).reshape(2, 2, 3))
    history = [
        [(0, 1, 0.5, -1.0, 1), (1, 0, 0.2, -1.0, 0)],
        [(0, 0, 0.1, -1.0, 0), (0, 1, 0.9, -1.0, 1)],
        [(1, 1, 0.7, -1.0, 1), (1, 1, 0.3, -1.0, 0)],
    ]
    cases = [(one_hot_features(2, 2), history, 0.8, 1e-10),
             (dense, history, 0.8, 1e-10)]
    for fmap, episodes, beta, tol in cases:
        S, A, _ = fmap.table.shape
        H = len(episodes[0])
        learner = LsviLearner(fmap, S, A, H, 1.0, beta=beta)
        for episode in episodes:
            ingest_steps(learner, episode)
        ghat = -np.ones((H, S, A))
        z = np.zeros(H)
        plan = learner.backward_pass(ghat=ghat, z=z)
        ref_w, ref_q, _ = reference_lines_4_to_9(episodes, fmap.flat, S, A, H,
                                                 1.0, beta, ghat, z)
        assert np.abs(plan.weights - ref_w).max() <= tol
        assert np.abs(plan_q_table(learner, plan) - ref_q).max() <= tol


def test_backward_pass_incremental_matches_dense_rebuild():
    # the incremental statistics after many updates against a Gram rebuilt
    # from the samples and solved densely
    rng = np.random.default_rng(21)
    S, A, H = 3, 2, 3
    fmap = one_hot_features(S, A)
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=1.2)
    episodes = []
    for _ in range(25):
        trace = random_steps(rng, S, A, H)
        ingest_steps(learner, trace)
        episodes.append(trace)
    plan_incremental = learner.backward_pass(np.zeros((H, S, A)), np.zeros(H))
    dense_w, dense_q, _ = reference_lines_4_to_9(episodes, fmap.flat, S, A, H, 1.0,
                                                 1.2, np.zeros((H, S, A)), np.zeros(H))
    assert np.abs(plan_incremental.weights - dense_w).max() <= 1e-8
    assert np.abs(plan_q_table(learner, plan_incremental) - dense_q).max() <= 1e-8


def test_backward_pass_penalty_dominates():
    S, A, H = 2, 3, 2
    fmap = one_hot_features(S, A)
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=1.0)
    ghat = np.full((H, S, A), 0.5)
    ghat[:, :, 1] = -0.2  # exactly one safe-looking action per state
    z = np.full(H, 1e6)
    plan = learner.backward_pass(ghat=ghat, z=z)
    assert np.all(plan.policy == 1)
    q_table = plan_q_table(learner, plan)
    assert np.allclose(plan.v_table, q_table[:, :, 1][np.arange(H)[:, None],
                                                      np.arange(S)[None, :]])


def test_weight_norm_bound_on_generated_runs():
    rng = np.random.default_rng(17)
    S, A, H = 3, 2, 3
    fmap = one_hot_features(S, A)
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=1.0)
    for k in range(1, 60):
        plan = learner.backward_pass(np.zeros((H, S, A)), np.zeros(H))
        # 2H sqrt(dk/lam) at episode k, with lam = 1.
        bound = 2.0 * H * math.sqrt(fmap.dim * (learner.stats.count + 1) / 1.0)
        assert np.linalg.norm(plan.weights, axis=1).max() <= bound
        ingest_steps(learner, random_steps(rng, S, A, H))


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
        cmdp, fmap = build_synthetic_linear(4, 3, seed=seed)
        cmdp = dataclasses.replace(cmdp, cost_noise=0.0)
        q_star = backup_q(cmdp, constrained_dp(cmdp)[1])
        K = 30
        beta = beta_schedule(fmap.dim, cmdp.horizon, K, p)
        learner = LsviLearner(fmap, cmdp.num_states, cmdp.num_actions,
                              cmdp.horizon, 1.0, beta)
        cost = LinearCostModel(fmap, cmdp.horizon, p=p)
        ledger = PenaltyLedger(cmdp.horizon, "rectified")
        rng = np.random.default_rng(seed + 1000)
        for k in range(1, K + 1):
            ghat = np.stack([cost.lcb_table(h) for h in range(cmdp.horizon)])
            plan = learner.backward_pass(ghat=ghat, z=ledger.z)
            q_table = plan_q_table(learner, plan)
            under += int((q_table < q_star - 1e-9).sum())
            total += q_table.size
            s = cmdp.initial_state
            ep = []
            for h in range(cmdp.horizon):
                a = int(plan.policy[h, s])
                r, c, nxt = step(cmdp, s, a, h, rng)
                ep.append((s, a, r, c, nxt))
                s = nxt
            ingest_steps(learner, ep)
            cost.observe([s * cmdp.num_actions + a for s, a, _, _, _ in ep],
                         [c for _, _, _, c, _ in ep])
            ledger.end_episode([c for _, _, _, c, _ in ep], k)
    assert under / total <= p


# ---------------------------------------------------------------------------
# Storage forms and shared statistics (property tests)
# ---------------------------------------------------------------------------

LAMS = st.floats(min_value=0.05, max_value=5.0)
SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


def _random_episodes(rng, S, A, H, K):
    """K random episodes, each as arrays (rows, rewards, costs, next_states)
    of shape (H,), with rows[h] = s*A + a."""
    episodes = []
    for _ in range(K):
        steps = [(int(rng.integers(S)) * A + int(rng.integers(A)),
                  float(rng.uniform(0, 1)), float(rng.uniform(-1, 1)),
                  int(rng.integers(S))) for _ in range(H)]
        episodes.append(tuple(np.array(column) for column in zip(*steps)))
    return episodes


def _dense_twin(fmap):
    """fmap with its one-hot structure hidden, so that statistics built on
    it keep dense storage: a reference for the diagonal storage.  The rows
    of a one-hot map are all distinct, so they are their own distinct rows."""
    twin = copy.copy(fmap)
    twin.distinct, twin.distinct_sq_norms = fmap.flat, np.ones(len(fmap.flat))
    twin.index = np.arange(len(fmap.flat))
    return twin


@settings(max_examples=60, deadline=None)
@given(lam=LAMS, seed=SEEDS)
def test_diagonal_statistics_equal_dense_bitwise(lam, seed):
    rng = np.random.default_rng(seed)
    S, A, H = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    fmap = one_hot_features(S, A)
    diag = LsviLearner(fmap, S, A, H, lam, beta=float(rng.uniform(0, 3)))
    dense = LsviLearner(_dense_twin(fmap), S, A, H, lam, beta=diag.beta)
    assert diag.fmap.one_hot and not dense.fmap.one_hot
    for rows, rewards, _, next_states in _random_episodes(rng, S, A, H,
                                                          int(rng.integers(0, 20))):
        diag.ingest_episode(rows, rewards, next_states)
        dense.ingest_episode(rows, rewards, next_states)
    ghat = rng.uniform(-1, 1, size=(H, S, A))
    z = rng.uniform(0, 5, size=H)
    g, ref = diag.stats, dense.stats
    for h in range(H):
        assert np.diag(g.inv[h]).tobytes() == ref.inv[h].tobytes()
        # The twin's rows are its distinct rows: its index is the identity.
        assert g.inv[h][fmap.index].tobytes() == ref.quad[h].tobytes()
        b = rng.normal(size=S * A)
        assert g.solve(h, b).tobytes() == ref.solve(h, b).tobytes()
    assert g.count == ref.count
    plan, ref_plan = diag.backward_pass(ghat, z), dense.backward_pass(ghat, z)
    assert plan.weights.tobytes() == ref_plan.weights.tobytes()
    assert plan_q_table(diag, plan).tobytes() == plan_q_table(dense, ref_plan).tobytes()
    assert np.array_equal(plan.policy, ref_plan.policy)


@settings(max_examples=80, deadline=None)
@given(lam=LAMS, seed=SEEDS)
def test_dense_rank_one_updates_equal_the_inverse_of_the_gram(lam, seed):
    rng = np.random.default_rng(seed)
    d, n = int(rng.integers(1, 8)), int(rng.integers(1, 6))
    # Rows of random direction and norm in (0.05, 1): never a unit basis
    # vector, so the storage is dense.
    feats = random_unit_features(rng, n, d) * rng.uniform(0.05, 1.0, size=(n, 1))
    # Each sample is a row of the map or a draw off it; the draws become
    # extra rows of the map, after the n rows of feats.
    rows, extra = [], []
    for _ in range(int(rng.integers(0, 40))):
        if rng.uniform() < 0.5:
            rows.append(int(rng.integers(n)))
        else:
            rows.append(n + len(extra))
            extra.append(random_unit_features(rng, 1, d)[0] * rng.uniform(0.0, 1.0))
    fmap = map_of(np.vstack([feats] + extra))
    g = fed(fmap, lam, rows)
    assert not g.fmap.one_hot
    samples = fmap.flat[rows]
    dense_inv = np.linalg.inv(gram_of(lam, d, samples))
    assert np.abs(g.inv[0] - dense_inv).max() <= 1e-8
    quad = np.einsum("nd,de,ne->n", fmap.flat, dense_inv, fmap.flat)
    assert np.abs(g.quad[0][fmap.index] - quad).max() <= 1e-8
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
    for rows, rewards, costs, next_states in _random_episodes(
            rng, S, A, H, int(rng.integers(0, 15))):
        learner.ingest_episode(rows, rewards, next_states)
        shared.observe(rows, costs)
        alone.observe(rows, costs)
    for h in range(H):
        assert shared.stats.solve(h, shared.b[h]).tobytes() == \
            alone.stats.solve(h, alone.b[h]).tobytes()
        assert shared.lcb_table(h).tobytes() == alone.lcb_table(h).tobytes()


@settings(max_examples=30, deadline=None)
@given(lam=LAMS, seed=SEEDS, one_hot=st.booleans())
def test_roots_are_one_read_only_array_per_count(lam, seed, one_hot):
    # The learner's bonuses and the widths of a cost model on the same
    # statistics read one array per count; the next update makes a new one
    # and leaves the old one as it was.
    rng = np.random.default_rng(seed)
    S, A, H = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    stats = GramState(_feature_map(rng, one_hot, S, A), lam, H)
    for rows, _, _, _ in _random_episodes(rng, S, A, H, int(rng.integers(1, 6))):
        roots = stats.roots()
        kept = roots.tobytes()
        assert stats.roots() is roots
        assert roots.tobytes() == np.sqrt(np.maximum(stats.quad, 0.0)).tobytes()
        with pytest.raises(ValueError, match="read-only"):
            roots[0, 0] = 0.0
        stats.update(rows)
        assert stats.roots() is not roots
        assert roots.tobytes() == kept


def _assert_target_sums_equal_a_per_step_loop(learner, episodes, v_next):
    """The learner, fed episodes, holds the target sums of a per-step loop
    bit for bit: its keyed next-state sums scattered back into (d, S) per
    step, its reward sums, and its sums against v_next, which run over the
    next states in order, left to right, with no BLAS call."""
    fmap, S, H, d = learner.fmap, learner.S, learner.H, learner.d
    next_feats = [np.zeros((d, S)) for _ in range(H)]
    reward_feats = [np.zeros(d) for _ in range(H)]
    for rows, rewards, next_states in episodes:
        learner.ingest_episode(rows, rewards, next_states)
        for h in range(H):
            phi = fmap.flat[rows[h]]
            next_feats[h][:, next_states[h]] += phi
            reward_feats[h] += phi * rewards[h]
    keys = learner.next_keys
    assert keys.dtype == np.int64 and (np.diff(keys) > 0).all()
    steps, rest = np.divmod(keys, S * d)
    nexts, cols = np.divmod(rest, d)
    scattered = np.zeros((H, d, S))
    scattered[steps, cols, nexts] = learner.next_sums
    for h in range(H):
        assert scattered[h].tobytes() == next_feats[h].tobytes()
        assert learner.reward_feats[h].tobytes() == reward_feats[h].tobytes()
        ordered = np.zeros(d)
        for x in range(S):
            ordered += next_feats[h][:, x] * v_next[x]
        assert learner._next_value_sums(learner._keys_by_step()[h], v_next).tobytes() == \
            ordered.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, one_hot=st.booleans())
def test_episode_target_sums_equal_a_per_step_loop_bitwise(seed, one_hot):
    rng = np.random.default_rng(seed)
    S, A, H = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    fmap = _feature_map(rng, one_hot, S, A)
    learner = LsviLearner(fmap, S, A, H, lam=1.0, beta=1.0)
    episodes = [(rows, rewards, next_states) for rows, rewards, _, next_states
                in _random_episodes(rng, S, A, H, int(rng.integers(1, 15)))]
    _assert_target_sums_equal_a_per_step_loop(learner, episodes,
                                              rng.uniform(-3.0, 3.0, size=S))
    if one_hot:
        # Every key is a count of one or more samples.
        assert learner.next_sums.all()


def test_dense_target_sums_that_cancel_to_zero_equal_a_per_step_loop_bitwise():
    # Rows (a, b) and (a, -b) that move to the same next state: the sum of
    # the second column cancels to exactly 0.0, and its key stays.
    table = np.array([[[0.6, 0.8], [0.6, -0.8]], [[1.0, 0.0], [0.0, 1.0]]])
    learner = LsviLearner(FeatureMap(2, table), 2, 2, horizon=1, lam=1.0, beta=1.0)
    episodes = [([0], [0.5], [1]), ([1], [0.5], [1]), ([3], [0.25], [0])]
    _assert_target_sums_equal_a_per_step_loop(learner, episodes, np.array([-2.0, -3.0]))
    assert learner.next_keys.tolist() == [1, 2, 3]
    assert learner.next_sums.tobytes() == np.array([1.0, 1.2, 0.0]).tobytes()
    assert learner.reward_feats.tobytes() == np.array([[0.6, 0.25]]).tobytes()


def test_cost_model_rejects_mismatched_statistics():
    fmap = one_hot_features(2, 2)
    learner = LsviLearner(fmap, 2, 2, 3, lam=1.0, beta=1.0)
    with pytest.raises(ValueError, match="shared statistics"):
        LinearCostModel(fmap, 3, lam=2.0, stats=learner.stats)
    with pytest.raises(ValueError, match="shared statistics"):
        LinearCostModel(fmap, 2, lam=1.0, stats=learner.stats)


def test_cost_model_rejects_a_bool_lam_on_shared_statistics():
    # True compares equal to the shared lam = 1.0, but is no regularizer.
    fmap = one_hot_features(2, 2)
    learner = LsviLearner(fmap, 2, 2, 3, lam=1.0, beta=1.0)
    with pytest.raises(ValueError, match="lam must be positive and finite"):
        LinearCostModel(fmap, 3, lam=True, stats=learner.stats)


def test_cost_model_rejects_statistics_of_another_map():
    # Same dimension, other rows: the cost table would report the rows of
    # the map the statistics were built on.
    learner = LsviLearner(one_hot_features(2, 2), 2, 2, 3, lam=1.0, beta=1.0)
    other = FeatureMap(4, np.eye(4)[::-1].reshape(2, 2, 4))
    with pytest.raises(ValueError, match="shared statistics"):
        LinearCostModel(other, 3, lam=1.0, stats=learner.stats)


def test_one_hot_check_gives_up_on_dense_rows():
    feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])
    assert not fed(map_of(feats), 1.0).fmap.one_hot
    assert fed(map_of(feats[:2]), 1.0).fmap.one_hot
    assert not fed(map_of([[0.0, 1.0], [0.0, 0.0]]), 1.0).fmap.one_hot
    assert not fed(map_of([[-1.0, 0.0]]), 1.0).fmap.one_hot


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, one_hot=st.booleans(), data=st.data())
def test_backward_pass_at_zero_penalty_is_the_plain_argmax(seed, one_hot, data):
    # Unpenalized LSVI is the penalized argmax at z = 0: whatever the cost
    # table, Q - 0*max(ghat, 0) is Q, so the plan is that of a zero table.
    rng = np.random.default_rng(seed)
    S, A, H = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
    fmap = one_hot_features(S, A) if one_hot else \
        FeatureMap(3, random_unit_features(rng, S * A, 3).reshape(S, A, 3))
    learner = LsviLearner(fmap, S, A, H, 1.0, beta=float(rng.uniform(0, 3)))
    for rows, rewards, _, next_states in _random_episodes(rng, S, A, H,
                                                          int(rng.integers(0, 10))):
        learner.ingest_episode(rows, rewards, next_states)
    ghat = data.draw(arrays(float, (H, S, A),
                            elements=st.floats(allow_nan=False, allow_infinity=False)))
    plan = learner.backward_pass(ghat, np.zeros(H))
    assert np.array_equal(plan.policy, plan_q_table(learner, plan).argmax(axis=2))
    ref = learner.backward_pass(np.zeros((H, S, A)), np.zeros(H))
    for name in ("weights", "v_table", "policy"):
        assert getattr(plan, name).tobytes() == getattr(ref, name).tobytes()
    assert plan_q_table(learner, plan).tobytes() == plan_q_table(learner, ref).tobytes()
