import math
import re
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_lsvi.costs import (GpCostModel, LinearCostModel, gp_beta, make_kernel,
                             tilde_beta)
from safe_lsvi.envs import (FeatureMap, build_hard_instance, build_synthetic_linear,
                            one_hot_features)
from safe_lsvi.lsvi import GramState, LsviLearner

from dense_reference import estimate, gp_kernel, info_gain


def ball_features(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def map_of(rows):
    """A FeatureMap with one action per state whose features are rows."""
    rows = np.asarray(rows, dtype=float)
    return FeatureMap(rows.shape[1], rows.reshape(len(rows), 1, -1))


# ---------------------------------------------------------------------------
# Confidence widths
# ---------------------------------------------------------------------------

def test_tilde_beta_log_one_case():
    # (1 + 0/1) / p = e when p = 1/e, so the value is sqrt(1) + sqrt(1) = 2
    assert tilde_beta(1.0, 1, 0, 1.0 / math.e) == pytest.approx(2.0)


def test_tilde_beta_high_precision():
    getcontext().prec = 50
    lam, d, k, p = 1.0, 4, 100, 0.05
    arg = (Decimal(1) + Decimal(k) / Decimal(str(lam))) / Decimal(str(p))
    expected = (Decimal(str(lam)) * d).sqrt() + (Decimal(d) * arg.ln()).sqrt()
    got = tilde_beta(lam, d, k, p)
    assert abs(Decimal(got) - expected) < Decimal("1e-12")


def test_tilde_beta_monotone_in_k():
    values = [tilde_beta(1.0, 3, k, 0.1) for k in range(0, 200, 10)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_tilde_beta_rejects_bad_argument():
    with pytest.raises(ValueError):
        tilde_beta(1.0, 2, 0, 1.5)


def test_gp_beta_unit_log_case():
    # gamma = 0, p = 2/e makes ln(2/p) = 1: 1 + sqrt(2 * 2) = 3
    assert gp_beta(0.0, 2.0 / math.e) == pytest.approx(3.0)


def test_gp_beta_high_precision():
    getcontext().prec = 50
    gamma, p = 5.0, 0.05
    expected = 1 + (2 * (Decimal(str(gamma)) + 1 + (Decimal(2) / Decimal(str(p))).ln())).sqrt()
    assert abs(Decimal(gp_beta(gamma, p)) - expected) < Decimal("1e-12")


def test_gp_beta_monotone_in_gamma():
    assert gp_beta(6.0, 0.1) > gp_beta(5.0, 0.1)


def test_gp_beta_rejects_bad_inputs():
    with pytest.raises(ValueError):
        gp_beta(-1.0, 0.1)
    with pytest.raises(ValueError):
        gp_beta(1.0, 2.0)


@pytest.mark.parametrize("p", [1e-320, 5e-324], ids=["1e-320", "least-subnormal"])
def test_widths_name_a_p_so_small_that_their_log_argument_overflows(p):
    # (1 + k/lam)/p and 2/p overflow to inf: the widths were inf, and a run
    # stopped on a non-finite cost estimate that did not name p.
    with pytest.raises(ValueError, match=r"must lie in \(1, inf\), not inf .*p="):
        tilde_beta(1.0, 4, 1, p)
    with pytest.raises(ValueError, match=r"2/p must lie in \(1, inf\), not inf \(p="):
        gp_beta(0.0, p)


# ---------------------------------------------------------------------------
# Linear estimator
# ---------------------------------------------------------------------------

def _toy_fmap(rng, S=3, A=2, d=4):
    table = ball_features(rng, S * A, d).reshape(S, A, d)
    return FeatureMap(dim=d, table=table)


def test_linear_no_data_prior():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=2, lam=1.0, p=0.1)
    mean, width = estimate(model, 0)
    assert mean[0, 0] == 0.0
    assert model.lcb_table(0)[0, 0] == pytest.approx(-tilde_beta(1.0, 4, 1, 0.1 / 2))
    assert width[0, 0] == pytest.approx(tilde_beta(1.0, 4, 1, 0.1 / 2))


def test_linear_single_sample_theta():
    fmap = one_hot_features(1, 2)
    model = LinearCostModel(fmap, horizon=1, lam=1.0)
    model.observe([0], [1.0])  # row 0 is [1, 0]
    assert np.allclose(model.stats.solve(0, model.b[0]), [0.5, 0.0])


def test_linear_incremental_matches_batch_ridge():
    rng = np.random.default_rng(2)
    toy = _toy_fmap(rng)
    feats, costs = [], []
    for _ in range(30):
        feats.append(ball_features(rng, 1, 4)[0])
        costs.append(float(np.clip(rng.normal(), -1, 1)))
    # The observed features are rows of the map, after the toy map's rows.
    model = LinearCostModel(map_of(np.vstack([toy.flat] + feats)), horizon=1, lam=1.0)
    for i, cost in enumerate(costs):
        model.observe([len(toy.flat) + i], [cost])
    X = np.array(feats)
    batch = np.linalg.solve(X.T @ X + np.eye(4), X.T @ np.array(costs))
    assert np.abs(model.stats.solve(0, model.b[0]) - batch).max() <= 1e-8


def test_linear_zero_feature_estimate():
    model = LinearCostModel(map_of(np.zeros((1, 4))), horizon=1)
    mean, width = estimate(model, 0)
    assert mean[0, 0] == 0.0 and width[0, 0] == 0.0 and model.lcb_table(0)[0, 0] == 0.0


# A confidence level outside (0, 1), or a width multiplier that is negative,
# infinite or NaN, is rejected when the model is built, not at its first
# lcb_table (a negative multiplier would put the lower bound above the mean).
BAD_WIDTH_SETTINGS = pytest.mark.parametrize("p, width_scale, message", [
    (0.0, 1.0, "p must"), (1.0, 1.0, "p must"), (2.0, 1.0, "p must"),
    (-0.1, 1.0, "p must"), (math.nan, 1.0, "p must"),
    (0.1, -1.0, "width_scale"), (0.1, math.inf, "width_scale"),
    (0.1, math.nan, "width_scale"),
])


@BAD_WIDTH_SETTINGS
def test_linear_rejects_bad_width_settings(p, width_scale, message):
    with pytest.raises(ValueError, match=message):
        LinearCostModel(one_hot_features(2, 2), horizon=2, p=p,
                        width_scale=width_scale)


def test_linear_rejects_out_of_range_cost():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=1)
    with pytest.raises(ValueError):
        model.observe([0], [1.5])


def test_linear_rejects_a_nan_cost_and_keeps_its_state():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=1)
    model.observe([1], [0.5])
    theta, table = model.stats.solve(0, model.b[0]), model.lcb_table(0)
    with pytest.raises(ValueError, match="nan"):
        model.observe([0], [math.nan])
    assert np.array_equal(model.stats.solve(0, model.b[0]), theta)
    assert np.array_equal(model.lcb_table(0), table)


def test_linear_lcb_below_mean():
    rng = np.random.default_rng(9)
    toy = _toy_fmap(rng)
    feats, costs = [], []
    for _ in range(10):
        feats.append(ball_features(rng, 1, 4)[0])
        costs.append(float(rng.uniform(-1, 1)))
    # The observed features are rows of the map, after the toy map's rows.
    fmap = map_of(np.vstack([toy.flat] + feats))
    model = LinearCostModel(fmap, horizon=1)
    for i, cost in enumerate(costs):
        model.observe([len(toy.flat) + i], [cost])
    table = model.lcb_table(0)
    means = (fmap.flat @ model.stats.solve(0, model.b[0])).reshape(table.shape)
    assert np.all(table <= means + 1e-12)


def test_linear_condition_one_frequencies():
    # On environments with known linear costs, the LCB undershoots the truth
    # with frequency >= 1 - p, and the two-sided width covers the error.
    p = 0.1
    over = uncovered = total = 0
    for seed in range(20):
        cmdp, fmap = build_synthetic_linear(8, 3, seed=seed)
        rng = np.random.default_rng(seed + 500)
        model = LinearCostModel(fmap, cmdp.horizon, lam=1.0, p=p)
        # About 500 observations, as ceil(500/H) episodes of one random
        # (s, a) and noise per step.
        for _ in range(math.ceil(500 / cmdp.horizon)):
            rows, obs = [], []
            for h in range(cmdp.horizon):
                s = int(rng.integers(cmdp.num_states))
                a = int(rng.integers(cmdp.num_actions))
                rows.append(s * cmdp.num_actions + a)
                obs.append(float(np.clip(cmdp.cost_mean[h, s, a] + rng.normal(0, 0.1),
                                         -1, 1)))
            model.observe(rows, obs)
        for h in range(cmdp.horizon):
            lcb, (_, width), true = model.lcb_table(h), estimate(model, h), cmdp.cost_mean[h]
            total += true.size
            over += int((lcb > true).sum())
            uncovered += int((true - lcb > 2.0 * width).sum())
    assert over / total <= p
    assert uncovered / total <= p


# ---------------------------------------------------------------------------
# Kernels and GP estimator
# ---------------------------------------------------------------------------

def test_kernel_registry():
    lin = make_kernel("linear")
    a, b = np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]])
    assert lin(a, b)[0, 0] == pytest.approx(0.5)
    se = make_kernel("sqexp", lengthscale=2.0)
    assert se(a, a)[0, 0] == pytest.approx(1.0)
    assert se(a, b)[0, 0] == pytest.approx(math.exp(-0.5 / 8.0))
    with pytest.raises(ValueError):
        make_kernel("matern")


def test_gp_duplicate_point_stays_pd():
    model = GpCostModel("linear", total_episodes=10, horizon=1,
                        feature_map=map_of([[0.6, 0.8]]))
    model.observe([0], [0.2])
    model.observe([0], [0.3])  # no error: the regularizer keeps things PD
    assert model.count == 2


def _posterior(model, h):
    """The GP's posterior mean and standard deviation over the map's rows,
    (S*A,) each: the mean and the width of estimate(model, h), the width
    divided by its multiplier."""
    mean, width = estimate(model, h)
    beta = model.width_scale * gp_beta(info_gain(model, h), model.p / model.H)
    return mean.ravel(), width.ravel() / beta


def test_gp_prior_posterior():
    model = GpCostModel("sqexp", total_episodes=10, horizon=1,
                        feature_map=map_of([[0.1, 0.2]]))
    mean, sigma = _posterior(model, 0)
    assert mean[0] == 0.0
    assert sigma[0] == pytest.approx(1.0)


def test_gp_posterior_shrinks_at_observed_point():
    model = GpCostModel("sqexp", total_episodes=50, horizon=1,
                        feature_map=map_of([[0.5, -0.2]]))
    _, prior_sigma = _posterior(model, 0)
    model.observe([0], [0.4])
    _, post_sigma = _posterior(model, 0)
    assert post_sigma[0] < prior_sigma[0]


# Points drawn from [-1, 1]^2 can leave the unit ball.  A map holds them
# scaled by 1/sqrt(2), and the sqexp lengthscale is scaled alike, so every
# kernel value stays the same up to rounding.
SQRT_HALF = math.sqrt(0.5)


def test_gp_variance_monotone_in_observations():
    rng = np.random.default_rng(6)
    draws = [(rng.uniform(-1, 1, size=2), float(np.clip(rng.normal(), -1, 1)))
             for _ in range(25)]
    # Row 0 is the query, rows 1.. the observed points.
    fmap = map_of(np.vstack([np.zeros(2)] + [y for y, _ in draws]) * SQRT_HALF)
    model = GpCostModel("sqexp", total_episodes=50, horizon=1,
                        lengthscale=0.8 * SQRT_HALF, feature_map=fmap)
    last = _posterior(model, 0)[1][0]
    for row, (_, cost) in enumerate(draws, start=1):
        model.observe([row], [cost])
        sigma = _posterior(model, 0)[1][0]
        assert sigma <= last + 1e-10
        last = sigma


def test_gp_preclamp_variance_not_too_negative():
    rng = np.random.default_rng(13)
    draws = [(ball_features(rng, 1, 3)[0], float(np.clip(rng.normal(0, 0.2), -1, 1)))
             for _ in range(60)]
    model = GpCostModel("linear", total_episodes=200, horizon=1,
                        feature_map=map_of([y for y, _ in draws]))
    for row, (_, cost) in enumerate(draws):
        model.observe([row], [cost])
    # The posterior variance at every observed row, before the clamp at 0.
    assert model.var[0].min() >= -1e-10


def test_gp_kernel_ridge_matches_primal_mean():
    # With the linear kernel and matched regularizer, the GP posterior mean
    # equals the ridge prediction at every query point.
    rng = np.random.default_rng(3)
    d, n, K = 5, 30, 100
    rows = ball_features(rng, 4, d)
    points, costs = [], []
    for _ in range(n):
        points.append(ball_features(rng, 1, d)[0])
        costs.append(float(np.clip(rng.normal(0, 0.4), -1, 1)))
    queries = [ball_features(rng, 1, d)[0] for _ in range(20)]
    # Both models observe the points as rows of one map, after its own four
    # rows; the queries are its last rows.
    fmap = map_of(np.vstack([rows] + points + queries))
    gp = GpCostModel("linear", total_episodes=K, horizon=1, feature_map=fmap)
    ridge = LinearCostModel(fmap, horizon=1, lam=gp.lam)
    for i, cost in enumerate(costs):
        gp.observe([len(rows) + i], [cost])
        ridge.observe([len(rows) + i], [cost])
    gp_mean = estimate(gp, 0)[0].ravel()
    for row, q in enumerate(queries, start=len(rows) + n):
        assert abs(gp_mean[row] - float(q @ ridge.stats.solve(0, ridge.b[0]))) <= 1e-8


def test_gp_lcb_matches_primal_with_aligned_widths():
    # sigma = sqrt(lam) * ||phi||_{Lambda^{-1}} for the linear kernel, so the
    # primal width beta must be gp_beta * sqrt(lam) for the LCBs to coincide.
    rng = np.random.default_rng(14)
    d, K = 4, 64
    points, costs = [], []
    for _ in range(25):
        points.append(ball_features(rng, 1, d)[0])
        costs.append(float(np.clip(rng.normal(0, 0.4), -1, 1)))
    queries = [ball_features(rng, 1, d)[0] for _ in range(10)]
    # Both models observe the points as the first rows of one map; the
    # queries are its last rows.
    fmap = map_of(points + queries)
    gp = GpCostModel("linear", total_episodes=K, horizon=1, p=0.1, feature_map=fmap)
    ridge = LinearCostModel(fmap, horizon=1, lam=gp.lam, p=0.1)
    for row, cost in enumerate(costs):
        gp.observe([row], [cost])
        ridge.observe([row], [cost])
    beta_aligned = gp_beta(info_gain(gp, 0), 0.1 / 1) * math.sqrt(gp.lam)
    table = gp.lcb_table(0).ravel()
    for row, q in enumerate(queries, start=len(points)):
        lhs = table[row]
        rhs = (q @ ridge.stats.solve(0, ridge.b[0])
               - beta_aligned * math.sqrt(q @ ridge.stats.inv[0] @ q))
        assert abs(lhs - rhs) <= 1e-8


def test_gp_prior_lcb():
    model = GpCostModel("sqexp", total_episodes=10, horizon=2, p=0.1,
                        feature_map=map_of([[0.2, 0.2]]))
    assert model.lcb_table(0)[0, 0] == pytest.approx(-gp_beta(0.0, 0.1 / 2))


def test_gp_condition_one_on_gp_sampled_truth():
    # Ground truth drawn from the same prior the estimator assumes; LCB
    # undershoots at held-out queries with frequency >= 1 - p.
    p = 0.1
    kern = make_kernel("sqexp", 0.5)
    over = uncovered = total = 0
    for seed in range(20):
        rng = np.random.default_rng(seed + 300)
        pts = rng.uniform(-1, 1, size=(40, 2))
        cov = kern(pts, pts) + 1e-10 * np.eye(40)
        f = np.linalg.cholesky(cov) @ rng.normal(size=40)
        f = np.clip(f, -1, 1)
        train, test = np.arange(25), np.arange(25, 40)
        model = GpCostModel("sqexp", total_episodes=25, horizon=1,
                            lengthscale=0.5 * SQRT_HALF, p=p,
                            feature_map=map_of(pts * SQRT_HALF))
        for i in train:
            model.observe([i], [f[i]])
        lcb, width = model.lcb_table(0).ravel()[test], estimate(model, 0)[1].ravel()[test]
        total += len(test)
        over += int((lcb > f[test]).sum())
        uncovered += int((f[test] - lcb > 2.0 * width).sum())
    assert over / total <= p
    assert uncovered / total <= p


# ---------------------------------------------------------------------------
# Information gain
# ---------------------------------------------------------------------------

def test_info_gain_empty():
    model = GpCostModel("sqexp", total_episodes=10, horizon=2,
                        feature_map=map_of([[0.3, 0.4]]))
    assert info_gain(model, 0) == 0.0
    assert info_gain(model, 1) == 0.0


def test_info_gain_single_unit_kernel_point():
    K = 2
    model = GpCostModel("sqexp", total_episodes=K, horizon=1,
                        feature_map=map_of([[0.0, 0.0]]))
    model.observe([0], [0.1])
    lam = 1.0 + 2.0 / K
    assert info_gain(model, 0) == pytest.approx(0.5 * math.log(1.0 + 1.0 / lam))


def test_info_gain_matches_dense_logdet():
    rng = np.random.default_rng(12)
    pts = rng.uniform(-1, 1, size=(30, 2))
    model = GpCostModel("sqexp", total_episodes=60, horizon=1,
                        lengthscale=0.6 * SQRT_HALF, feature_map=map_of(pts * SQRT_HALF))
    for row in range(30):
        model.observe([row], [np.clip(rng.normal(0, 0.3), -1, 1)])
    kern = make_kernel("sqexp", 0.6)
    _, logdet = np.linalg.slogdet(np.eye(30) + kern(pts, pts) / model.lam)
    assert abs(info_gain(model, 0) - 0.5 * logdet) <= 1e-8


def test_info_gain_nondecreasing():
    rng = np.random.default_rng(15)
    draws = [(ball_features(rng, 1, 3)[0], float(np.clip(rng.normal(), -1, 1)))
             for _ in range(20)]
    model = GpCostModel("linear", total_episodes=40, horizon=1,
                        feature_map=map_of([y for y, _ in draws]))
    last = 0.0
    for row, (_, cost) in enumerate(draws):
        model.observe([row], [cost])
        gamma = info_gain(model, 0)
        assert gamma >= last - 1e-10
        last = gamma


@BAD_WIDTH_SETTINGS
@pytest.mark.parametrize("one_hot", [True, False])
def test_gp_rejects_bad_width_settings(p, width_scale, message, one_hot):
    fmap = one_hot_features(2, 2) if one_hot else map_of([[0.3, 0.4]])
    with pytest.raises(ValueError, match=message):
        GpCostModel("sqexp", total_episodes=5, horizon=2, p=p,
                    width_scale=width_scale, feature_map=fmap)


def test_gp_rejects_out_of_range_cost():
    model = GpCostModel("sqexp", total_episodes=10, horizon=1,
                        feature_map=map_of([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        model.observe([0], [-1.2])


def test_gp_rejects_a_nan_cost_and_keeps_its_state():
    fmap = one_hot_features(2, 2)
    model = GpCostModel("sqexp", total_episodes=5, horizon=1, feature_map=fmap)
    model.observe([1], [0.5])
    counts, sums, table = model.n.copy(), model.G.copy(), model.lcb_table(0)
    with pytest.raises(ValueError, match="nan"):
        model.observe([0], [math.nan])
    assert model.count == 1
    assert model.n.tobytes() == counts.tobytes()
    assert model.G.tobytes() == sums.tobytes()
    assert model.lcb_table(0).tobytes() == table.tobytes()


@pytest.mark.parametrize("point, error", [
    (np.array([0.0, 1.0, 0.0, 0.0]), (TypeError, "row index .* is not an integer")),
    ([1.0, 0.0, 0.0, 0.0], (TypeError, "row index .* is not an integer")),
    (1.0, (ValueError, r"must have shape \(4,\)")),
    (np.array(2.0), (ValueError, r"must have shape \(4,\)"))],
    ids=["array", "list", "float", "0-d array"])
def test_one_hot_gp_rejects_a_point_and_keeps_its_state(point, error):
    # A feature vector of d = H = 4 in place of the episode's rows.
    fmap = one_hot_features(2, 2)
    model = GpCostModel("sqexp", total_episodes=5, horizon=4, feature_map=fmap)
    model.observe([1, 3, 0, 2], [0.5, -0.25, 0.0, 1.0])
    before = [x.tobytes() for x in (model.n, model.G)], model.count
    with pytest.raises(error[0], match=error[1]):
        model.observe(point, [0.5] * 4)
    assert ([x.tobytes() for x in (model.n, model.G)], model.count) == before


def test_one_hot_gp_observes_one_row_at_a_time():
    # One row per step: an array of rows at a step fails the episode's shape.
    model = GpCostModel("sqexp", total_episodes=5, horizon=1,
                        feature_map=one_hot_features(2, 2))
    with pytest.raises(ValueError, match=r"must have shape \(1,\)"):
        model.observe(np.array([0, 1]), [0.5, 0.5])
    assert model.count == 0 and not model.n.any() and not model.G.any()


def test_one_hot_gp_rejects_a_kernel_not_finite_on_unit_vectors():
    # At so small a lengthscale k(e_j, e_j) is 0 * inf = nan.
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        GpCostModel("sqexp", total_episodes=5, horizon=1, lengthscale=1e-160,
                    feature_map=one_hot_features(2, 2))


def test_dense_gp_rejects_a_kernel_not_finite_on_the_feature_set():
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        GpCostModel("sqexp", total_episodes=5, horizon=1, lengthscale=1e-160,
                    feature_map=_toy_fmap(np.random.default_rng(0)))


@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
@pytest.mark.parametrize("K", [2.5, 2.0, True, 0], ids=["fraction", "float", "bool", "zero"])
def test_gp_rejects_an_episode_count_that_is_not_a_positive_integer(K, one_hot):
    # K = 2.5 would build with lam = 1.8 and, its cap count == K never met,
    # accept any number of episodes.
    fmap = one_hot_features(3, 2) if one_hot else _toy_fmap(np.random.default_rng(0))
    with pytest.raises(ValueError, match="total_episodes must be"):
        GpCostModel("linear", K, 2, feature_map=fmap)


def test_gp_takes_a_numpy_integer_episode_count_and_holds_that_many():
    model = GpCostModel("linear", np.int64(2), 1, feature_map=one_hot_features(3, 2))
    model.observe([0], [0.5])
    model.observe([1], [0.5])
    with pytest.raises(ValueError, match="already holds K=2 episodes"):
        model.observe([2], [0.5])


@pytest.mark.parametrize("lengthscale", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
def test_sqexp_rejects_a_lengthscale_outside_the_positive_reals(lengthscale):
    # nan gave an all-nan kernel, inf a constant 1 (a one-hot GP with a = 0).
    with pytest.raises(ValueError, match="lengthscale must be positive"):
        make_kernel("sqexp", lengthscale)
    with pytest.raises(ValueError, match="lengthscale must be positive"):
        GpCostModel("sqexp", 5, 1, lengthscale=lengthscale,
                    feature_map=one_hot_features(3, 2))


@pytest.mark.parametrize("lengthscale", [5e-324, 1e-200, 1e-160, 5e-155, 9.5e153,
                                         1e200, 1.7e308],
                         ids=["least-subnormal", "1e-200", "1e-160", "5e-155",
                              "9.5e153", "1e200", "1.7e308"])
def test_sqexp_rejects_a_lengthscale_whose_inverse_square_is_not_finite(lengthscale):
    # 1/(2 l^2) was a ZeroDivisionError at 1e-200, an OverflowError at 1e200,
    # and at 1e-160 an inf that made k(x, x) = 0 * inf = nan.
    with pytest.raises(ValueError, match="lengthscale .* not finite"):
        make_kernel("sqexp", lengthscale)
    # The ends of the range of a positive scale are accepted, with
    # k(x, x) = 1 exactly.
    x = np.array([[1.0, 0.0]])
    for inside in (1e-150, 1e150):
        assert make_kernel("sqexp", inside)(x, x)[0, 0] == 1.0


@pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np-True"])
@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
def test_cost_models_reject_a_bool_for_a_real_setting(value, one_hot):
    # A bool compares as 0 or 1: width_scale=True and lengthscale=True ran
    # as 1.0, and width_scale=False as 0.0.
    fmap = one_hot_features(2, 2) if one_hot else map_of([[0.3, 0.4]])
    builds = {
        "width_scale": [lambda: LinearCostModel(fmap, 3, width_scale=value),
                        lambda: GpCostModel("sqexp", 10, 3, width_scale=value,
                                            feature_map=fmap)],
        "lengthscale": [lambda: GpCostModel("sqexp", 10, 3, lengthscale=value,
                                            feature_map=fmap),
                        lambda: make_kernel("sqexp", value)]}
    for message, makers in builds.items():
        for make in makers:
            with pytest.raises(ValueError, match=message):
                make()


def _array_bytes(model):
    """Bytes of every array a model holds, in lists of arrays too."""
    return sum(x.nbytes for v in vars(model).values()
               for x in (v if isinstance(v, list) else [v]) if isinstance(x, np.ndarray))


def test_one_hot_gp_memory_does_not_depend_on_k():
    fmap = one_hot_features(100, 4)
    big = GpCostModel("sqexp", total_episodes=10 ** 6, horizon=15, feature_map=fmap)
    small = GpCostModel("sqexp", total_episodes=10, horizon=15, feature_map=fmap)
    assert _array_bytes(big) == _array_bytes(small) <= 3 * 15 * fmap.dim * 8


def test_dense_gp_memory_is_linear_in_k():
    # Each extra episode adds, per step, one row of the cross factor over
    # the U distinct rows: no K x K array is kept, and a repeated row costs
    # nothing.
    fmap = _toy_fmap(np.random.default_rng(0), S=5, A=3)
    repeated = FeatureMap(fmap.dim, np.repeat(fmap.table[:1], 5, axis=0))
    H, episodes = 4, (1, 2, 10, 100)
    for fmap, U in ((fmap, 15), (repeated, 3)):
        assert len(fmap.distinct) == U
        sizes = [_array_bytes(GpCostModel("sqexp", total_episodes=K, horizon=H,
                                          feature_map=fmap)) for K in episodes]
        assert [size - sizes[0] for size in sizes] == \
            [(K - 1) * H * U * 8 for K in episodes]


def test_dense_gp_information_gain_of_uninformative_observations_is_zero():
    # Under the linear kernel a zero row has k(y, y) = 0: each observation
    # of it adds log(lam) to the log-determinant and takes log(lam) off
    # again, which rounded to -2.8e-16 here, and gp_beta rejects a
    # negative gain.
    model = GpCostModel("linear", total_episodes=10, horizon=1,
                        feature_map=map_of([[0.0, 0.0], [0.6, 0.0]]))
    for _ in range(10):
        model.observe([0], [0.1])
    assert info_gain(model, 0) == 0.0
    assert model.lcb_table(0)[0, 0] == 0.0  # no prior variance at a zero row


def test_gp_step_holds_at_most_k_points():
    # Each episode adds one point to every step, and the model holds at
    # most K episodes.
    K = 3
    model = GpCostModel("sqexp", total_episodes=K, horizon=2,
                        feature_map=map_of([[0.6, 0.8]]))
    for _ in range(K):
        model.observe([0, 0], [0.1, 0.1])
    state = ("Z", "mean", "var", "logdet")
    before = [getattr(model, name).tobytes() for name in state]
    with pytest.raises(ValueError, match="already holds K=3 episodes"):
        model.observe([0, 0], [0.1, 0.1])
    assert model.count == K
    assert [getattr(model, name).tobytes() for name in state] == before


def test_gp_requires_a_feature_map():
    with pytest.raises(TypeError, match="feature_map"):
        GpCostModel("sqexp", total_episodes=10, horizon=1)


# ---------------------------------------------------------------------------
# The cached GP posterior over the feature set (property tests)
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
GP_KERNELS = st.sampled_from([("linear", 1.0), ("sqexp", 0.3), ("sqexp", 0.7),
                              ("sqexp", 1.0), ("sqexp", 2.5)])


def _observe_episodes(model, rng, num_episodes, draw_row, on_episode=None):
    """Feed model num_episodes random episodes, step h's row drawn by
    draw_row() and its cost uniform in [-1, 1], calling on_episode(model),
    when given, after each.  Returns each step's (features, costs)."""
    data = [([], []) for _ in range(model.H)]
    for _ in range(num_episodes):
        rows = np.array([draw_row() for _ in range(model.H)])
        costs = rng.uniform(-1, 1, size=model.H)
        model.observe(rows, costs)
        if on_episode is not None:
            on_episode(model)
        for h, (points, step_costs) in enumerate(data):
            points.append(model.fmap.flat[rows[h]])
            step_costs.append(float(costs[h]))
    return data


def _observed_gp(rng, kernel, lengthscale, horizon, on_episode=None):
    """A GP cost model on a small feature map after random episodes over
    its rows, repeats included, calling on_episode(model), when given,
    after each.  Returns the model and each step's (points, costs)."""
    S, A, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    table = ball_features(rng, S * A, d) * rng.uniform(0.2, 1.0, size=(S * A, 1))
    fmap = FeatureMap(dim=d, table=table.reshape(S, A, d))
    # The model holds at most K episodes, so K is drawn no smaller than
    # their number.
    num_episodes = int(rng.integers(0, 21))
    model = GpCostModel(kernel, total_episodes=int(rng.integers(max(num_episodes, 1), 50)),
                        horizon=horizon, lengthscale=lengthscale,
                        p=float(rng.uniform(0.01, 0.5)),
                        width_scale=float(rng.uniform(0.0, 2.0)), feature_map=fmap)
    return model, _observe_episodes(model, rng, num_episodes, lambda: rng.integers(S * A),
                                    on_episode)


def _dense_gp_posterior(model, points, costs, Y):
    """Posterior mean and variance at the rows of Y and the information
    gain, dense: np.linalg.solve on K(X, X) + lam*I, and slogdet."""
    kern, lam = gp_kernel(model), model.lam
    prior = np.diag(kern(Y, Y))
    if not points:
        return np.zeros(len(Y)), prior, 0.0
    x, g = np.array(points), np.array(costs)
    kxx = kern(x, x) + lam * np.eye(len(x))
    kyx = kern(Y, x)
    mean = kyx @ np.linalg.solve(kxx, g)
    var = prior - np.einsum("fn,nf->f", kyx, np.linalg.solve(kxx, kyx.T))
    gamma = 0.5 * (np.linalg.slogdet(kxx)[1] - len(x) * math.log(lam))
    return mean, var, gamma


def _dense_gp_lcb(model, points, costs):
    """The LCB table from a dense posterior over the feature set."""
    mean, var, gamma = _dense_gp_posterior(model, points, costs, model.fmap.flat)
    beta = model.width_scale * gp_beta(gamma, model.p / model.H)
    S, A, _ = model.fmap.table.shape
    return (mean - beta * np.sqrt(np.maximum(var, 0.0))).reshape(S, A)


def _assert_posterior_and_estimate(model, h, table, points, costs, tol):
    """The mean of estimate(model, h) and its width over the multiplier
    match the dense posterior's mean and standard deviation at every row to
    tol, and mean - width is the LCB table, bit for bit."""
    mean, var, _ = _dense_gp_posterior(model, points, costs, model.fmap.flat)
    got_mean, got_sigma = _posterior(model, h)
    assert np.abs(got_mean - mean).max() <= tol
    assert np.abs(got_sigma - np.sqrt(np.maximum(var, 0.0))).max() <= tol
    est_mean, width = estimate(model, h)
    assert (est_mean - width).tobytes() == table.tobytes()


@settings(max_examples=80, deadline=None)
@given(kernel=GP_KERNELS, seed=SEEDS)
def test_gp_lcb_table_equals_dense_posterior_and_estimate(kernel, seed):
    rng = np.random.default_rng(seed)
    model, data = _observed_gp(rng, *kernel, horizon=2)
    assert not model.fmap.one_hot
    k, calls = model._k, []

    def counted(*args):
        calls.append(args)
        return k(*args)
    model._k = counted
    tables = [model.lcb_table(h) for h in range(model.H)]
    model._k = k
    assert calls == []  # served from the cache, without a kernel call
    for h, (table, (points, costs)) in enumerate(zip(tables, data)):
        assert np.abs(table - _dense_gp_lcb(model, points, costs)).max() <= 1e-8
        _assert_posterior_and_estimate(model, h, table, points, costs, 1e-8)


@settings(max_examples=80, deadline=None)
@given(kernel=GP_KERNELS, seed=SEEDS)
def test_dense_gp_variance_stays_within_its_prior(kernel, seed):
    # An observation's squared pivot is the cached posterior variance at its
    # row plus lam, and nothing checks it at run time: the variance staying
    # in [0, k(y, y)] up to rounding keeps every squared pivot above
    # lam = 1 + 2/K > 1, repeated rows included.
    variances = []
    model, _ = _observed_gp(np.random.default_rng(seed), *kernel, horizon=2,
                            on_episode=lambda m: variances.append(m.var.copy()))
    assert not model.fmap.one_hot
    prior = np.diag(gp_kernel(model)(model.fmap.distinct, model.fmap.distinct))
    for var in variances:
        assert var.min() >= -1e-12
        assert (var <= prior + 1e-12).all()
        assert (var + model.lam > 1.0).all()


ONE_HOT_KERNELS = st.sampled_from([(kernel, lengthscale) for kernel in ("linear", "sqexp")
                                   for lengthscale in (0.3, 1.0, 2.5, 1e9)])


@settings(max_examples=100, deadline=None)
@given(kernel=ONE_HOT_KERNELS, seed=SEEDS)
def test_one_hot_gp_count_posterior_equals_dense_posteriors(kernel, seed):
    rng = np.random.default_rng(seed)
    # d < S*A maps several rows to one column; d > S*A leaves columns unused.
    S, A = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    d = int(rng.integers(1, S * A + 3))
    fmap = FeatureMap(dim=d, table=np.eye(d)[rng.integers(d, size=S * A)].reshape(S, A, d))
    num_episodes, horizon = int(rng.integers(0, 21)), 2
    model = GpCostModel(kernel[0], total_episodes=int(rng.integers(max(num_episodes, 1), 50)),
                        horizon=horizon, lengthscale=kernel[1],
                        p=float(rng.uniform(0.01, 0.5)),
                        width_scale=float(rng.uniform(0.0, 2.0)), feature_map=fmap)
    assert model.fmap.one_hot
    if kernel == ("sqexp", 1e9):
        assert model._a == 0.0  # c rounds to 1: the formulas must not divide by a
    # Rows drawn from a few favourites, so repeats are common.
    favourites = rng.integers(S * A, size=int(rng.integers(1, 4)))
    data = _observe_episodes(model, rng, num_episodes, lambda: int(
        rng.choice(favourites) if rng.uniform() < 0.5 else rng.integers(S * A)))
    calls = []

    def counted(f):
        def call(*args):
            calls.append(args)
            return f(*args)
        return call
    k = model._k
    model._k = counted(k)
    tables = [model.lcb_table(h) for h in range(horizon)]
    model._k = k
    assert calls == []  # no kernel call
    for h, (table, (points, costs)) in enumerate(zip(tables, data)):
        assert model.count == len(points)
        assert np.abs(table - _dense_gp_lcb(model, points, costs)).max() <= 1e-10
        _, _, gamma = _dense_gp_posterior(model, points, costs, fmap.flat)
        assert abs(info_gain(model, h) - gamma) <= 1e-10
        _assert_posterior_and_estimate(model, h, table, points, costs, 1e-10)


# ---------------------------------------------------------------------------
# One pass for every step, once per data version
# ---------------------------------------------------------------------------

def _count_moments_of_step(model, h):
    """Step h's posterior mean, variance and information gain on the
    one-hot GP's count path, evaluated for that step alone by the closed
    forms of GpCostModel._moments."""
    a, c, lam, n = model._a, model._c, model.lam, model.n[h]
    w = 1.0 / (a * n + lam)
    g = model.G[h] * w
    t = c * float((n * w).sum())
    s = c / (1.0 + t)
    e = lam * w
    gain = 0.5 * (float(np.log1p(n * (a / lam)).sum()) + math.log1p(t))
    return a * g + (s * float(g.sum())) * e, a * e + s * e * e, gain


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, horizon=st.sampled_from([1, 3, 15]), kernel=GP_KERNELS)
def test_all_steps_pass_equals_a_per_step_evaluation_bitwise(seed, horizon, kernel):
    # One-hot maps, where the last column is never observed (n_j = G_j = 0)
    # whenever there are two or more.
    rng = np.random.default_rng(seed)
    S, A = int(rng.integers(1, 13)), int(rng.integers(1, 5))
    fmap, K = one_hot_features(S, A), int(rng.integers(1, 25))
    name, lengthscale = kernel
    gp = GpCostModel(name, K, horizon, lengthscale=lengthscale,
                     p=float(rng.uniform(0.01, 0.5)),
                     width_scale=float(rng.uniform(0.0, 2.0)), feature_map=fmap)
    gram = GramState(fmap, float(rng.uniform(0.05, 5.0)), horizon)
    for _ in range(int(rng.integers(0, K + 1))):
        rows = rng.integers(max(S * A - 1, 1), size=horizon)
        gp.observe(rows, rng.uniform(-1, 1, size=horizon))
        gram.update(rows)
    mean, var, gains = gp._moments()
    roots = gram.roots()
    for h in range(horizon):
        step_mean, step_var, step_gain = _count_moments_of_step(gp, h)
        assert mean[h].tobytes() == step_mean.tobytes()
        assert var[h].tobytes() == step_var.tobytes()
        assert np.float64(gains[h]).tobytes() == np.float64(step_gain).tobytes()
        width = gp.width_scale * gp_beta(step_gain, gp.p / horizon) * \
            np.sqrt(np.maximum(step_var, 0.0))
        assert gp.lcb_table(h).tobytes() == fmap.gather(step_mean - width).tobytes()
        assert roots[h].tobytes() == np.sqrt(np.maximum(gram.inv[h], 0.0)).tobytes()


def _random_episode(rng, S, A, H):
    """rows, rewards, next states and costs of one random episode."""
    return (rng.integers(S * A, size=H), rng.uniform(0, 1, size=H),
            rng.integers(S, size=H), rng.uniform(-1, 1, size=H))


@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
def test_shared_statistics_table_follows_the_learner_ingest(one_hot):
    # The learner's ingest alone changes the shared statistics: the table
    # read after it is that of a model built fresh on the same history.
    rng = np.random.default_rng(3)
    S, A, H = 3, 2, 4
    fmap = one_hot_features(S, A) if one_hot else _toy_fmap(rng, S=S, A=A, d=3)
    learner = LsviLearner(fmap, S, A, H, lam=1.0, beta=1.0)
    model = LinearCostModel(fmap, H, stats=learner.stats)
    costs = []
    for _ in range(3):
        rows, rewards, nexts, step_costs = _random_episode(rng, S, A, H)
        learner.ingest_episode(rows, rewards, nexts)
        model.observe(rows, step_costs)
        costs.append((rows, step_costs))
    before = [model.lcb_table(h).copy() for h in range(H)]
    rows, rewards, nexts, _ = _random_episode(rng, S, A, H)
    learner.ingest_episode(rows, rewards, nexts)
    fresh = LinearCostModel(fmap, H, stats=learner.stats)
    for rows, step_costs in costs:
        fresh.observe(rows, step_costs)
    after = [model.lcb_table(h) for h in range(H)]
    assert any(a.tobytes() != b.tobytes() for a, b in zip(after, before))
    for h in range(H):
        assert after[h].tobytes() == fresh.lcb_table(h).tobytes()
        mean, width = estimate(model, h)
        assert after[h].tobytes() == (mean - width).tobytes()


@pytest.mark.parametrize("name", ["linear", "gp"])
@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
def test_a_table_is_read_only_and_follows_each_observe(name, one_hot):
    fmap = one_hot_features(2, 2) if one_hot else \
        _toy_fmap(np.random.default_rng(0), S=2, A=2)
    model = LinearCostModel(fmap, 2) if name == "linear" else \
        GpCostModel("sqexp", 4, 2, feature_map=fmap)
    model.observe(np.array([1, 3]), np.array([0.5, -0.25]))
    table = model.lcb_table(0)
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 0.0
    assert model.lcb_table(0) is not table  # each read is a new view
    kept = table.copy()
    model.observe(np.array([1, 2]), np.array([0.75, 0.5]))
    assert model.lcb_table(0).tobytes() != kept.tobytes()
    # The rebuilt pass is new arrays: the table handed out before is unchanged.
    assert table.tobytes() == kept.tobytes()


@pytest.mark.parametrize("name", ["linear", "gp"])
@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
def test_a_non_finite_table_raises_and_is_not_kept(name, one_hot):
    # Widths of scale 1e308 overflow to inf.  The table is checked when it
    # is made, and a failed build keeps nothing: the next read makes and
    # checks it again, and the mean and width stay readable.
    fmap = one_hot_features(2, 2) if one_hot else \
        _toy_fmap(np.random.default_rng(0), S=2, A=2)
    model = LinearCostModel(fmap, 2, width_scale=1e308) if name == "linear" else \
        GpCostModel("sqexp", 4, 2, width_scale=1e308, feature_map=fmap)
    model.observe(np.array([1, 3]), np.array([0.5, -0.25]))
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(2):
            with pytest.raises(FloatingPointError,
                               match="non-finite cost estimate at episode 2"):
                model.lcb_table(0)
        mean, width = estimate(model, 0)
    assert np.isfinite(mean).all() and np.isinf(width).any()


# ---------------------------------------------------------------------------
# Dense maps over their distinct rows (property tests)
# ---------------------------------------------------------------------------

def _repeated_row_map(rng):
    """A dense feature map whose rows repeat: each row is drawn from a small
    pool, some states copy an earlier state's rows, and about half the
    pools hold a row with a 0.0 beside its twin with -0.0 there."""
    S, A, d = int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    size = int(rng.integers(1, 5))
    pool = ball_features(rng, size, d) * rng.uniform(0.2, 0.9, size=(size, 1))
    if rng.uniform() < 0.5:
        zero = pool[:1].copy()
        zero[0, 0] = 0.0
        twin = zero.copy()
        twin[0, 0] = -0.0
        pool = np.vstack([pool, zero, twin])
    table = pool[rng.integers(len(pool), size=(S, A))]
    for s in range(1, S):
        if rng.uniform() < 0.3:
            table[s] = table[rng.integers(s)]
    return FeatureMap(dim=d, table=table)


def _first_occurrences(rows):
    """Reference grouping of rows by their bytes: the first occurrence of
    each distinct row, in order, and each row's position among them."""
    seen, first, index = {}, [], []
    for i, row in enumerate(rows):
        if row.tobytes() not in seen:
            seen[row.tobytes()] = len(first)
            first.append(i)
        index.append(seen[row.tobytes()])
    return np.array(first), np.array(index)


class _FullRowGram:
    """Dense design statistics with the quadratic form of every row of the
    map, downdated over all S*A rows: a reference for the statistics over
    the distinct rows."""

    def __init__(self, fmap, lam):
        self.flat = fmap.flat
        self.inv = np.eye(fmap.dim) / lam
        self.quad = np.einsum("nd,nd->n", self.flat, self.flat) / lam
        self.count = 0

    def update(self, row):
        phi = self.flat[row]
        v = self.inv @ phi
        denom = 1.0 + phi @ v
        self.inv -= np.outer(v, v) / denom
        proj = self.flat @ v
        self.quad -= proj * proj / denom
        self.count += 1

    def bounds(self, w, scale):
        return self.flat @ w + scale * np.sqrt(np.maximum(self.quad, 0.0))


def _full_row_gp_lcb(model, observations):
    """The dense GP's LCBs by its cross-factor recursion run over all S*A
    rows of the map, for one step's (row, cost) observations: a reference
    for the recursion over the distinct rows."""
    flat, lam, kern = model.fmap.flat, model.lam, gp_kernel(model)
    Z, alpha = np.zeros((0, len(flat))), np.zeros(0)
    mean, var, logdet = np.zeros(len(flat)), np.diag(kern(flat, flat)).copy(), 0.0
    for row, cost in observations:
        y = flat[row]
        z = Z[:, row]
        diag = math.sqrt(float(kern(y, y)[0, 0]) + lam - z @ z)
        a = (cost - z @ alpha) / diag
        r = (kern(y, flat)[0] - z @ Z) / diag
        Z, alpha = np.vstack([Z, r]), np.append(alpha, a)
        mean += a * r
        var -= r * r
        logdet += 2.0 * math.log(diag)
    gamma = max(0.5 * (logdet - len(observations) * math.log(lam)), 0.0)
    beta = model.width_scale * gp_beta(gamma, model.p / model.H)
    return mean - beta * np.sqrt(np.maximum(var, 0.0))


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS)
def test_distinct_row_statistics_equal_full_row_references(seed):
    rng = np.random.default_rng(seed)
    fmap = _repeated_row_map(rng)
    flat, d, H = fmap.flat, fmap.dim, 2
    assert fmap.distinct is not None
    first, index = _first_occurrences(flat)
    assert np.array_equal(fmap.index, index)
    assert fmap.distinct.tobytes() == flat[first].tobytes()
    assert fmap.distinct[fmap.index].tobytes() == flat.tobytes()

    lam, num_episodes = float(rng.uniform(0.1, 3.0)), int(rng.integers(0, 15))
    linear = LinearCostModel(fmap, H, lam=lam, p=float(rng.uniform(0.01, 0.5)),
                             width_scale=float(rng.uniform(0.0, 2.0)))
    kernel, lengthscale = [("linear", 1.0), ("sqexp", 0.5), ("sqexp", 1.5)][rng.integers(3)]
    gp = GpCostModel(kernel, total_episodes=max(num_episodes, 1), horizon=H,
                     lengthscale=lengthscale, p=float(rng.uniform(0.01, 0.5)),
                     width_scale=float(rng.uniform(0.0, 2.0)), feature_map=fmap)
    grams, b, data = [_FullRowGram(fmap, lam) for _ in range(H)], np.zeros((H, d)), [[], []]
    for _ in range(num_episodes):
        rows, costs = rng.integers(len(flat), size=H), rng.uniform(-1, 1, size=H)
        linear.observe(rows, costs)
        gp.observe(rows, costs)
        for h, row in enumerate(rows):
            grams[h].update(row)
            b[h] += flat[row] * costs[h]
            data[h].append((row, costs[h]))
    # One (U, d) array of distinct rows, shared by every statistic over the map.
    assert linear.stats.fmap is fmap
    for h, ref in enumerate(grams):
        w, scale = rng.normal(size=d), float(rng.uniform(-3.0, 3.0))
        mean, root = fmap.dot(w), linear.stats.roots()[h]
        bounds = fmap.gather(mean + scale * root).ravel()
        assert np.abs(bounds - ref.bounds(w, scale)).max() <= 1e-12
        beta = linear.width_scale * tilde_beta(lam, d, ref.count + 1, linear.p / H)
        lcb = linear.lcb_table(h).ravel()
        assert np.abs(lcb - ref.bounds(ref.inv @ b[h], -beta)).max() <= 1e-12
        gp_lcb = gp.lcb_table(h).ravel()
        assert np.abs(gp_lcb - _full_row_gp_lcb(gp, data[h])).max() <= 1e-12
        # Equal rows share one distinct row, so their entries have equal bits.
        for values in (bounds, lcb, gp_lcb):
            assert values.tobytes() == values[first][index].tobytes()


def _assert_linear_estimate(model, h, X, costs):
    """estimate(model, h) matches a batch ridge fit on the step's observed
    features X and costs at every row to 1e-10, and its mean - width is the
    LCB table, bit for bit."""
    flat, table = model.fmap.flat, model.lcb_table(h)
    d, lam = model.fmap.dim, model.stats.lam
    X, costs = np.reshape(X, (-1, d)), np.array(costs)
    gram = lam * np.eye(d) + X.T @ X
    beta = model.width_scale * tilde_beta(lam, d, len(costs) + 1, model.p / model.H)
    mean = flat @ np.linalg.solve(gram, X.T @ costs)
    width = beta * np.sqrt(np.einsum("nd,de,ne->n", flat, np.linalg.inv(gram), flat))
    got_mean, got_width = estimate(model, h)
    assert np.abs(got_mean.ravel() - mean).max() <= 1e-10
    assert np.abs(got_width.ravel() - width).max() <= 1e-10
    assert (got_mean - got_width).tobytes() == table.tobytes()


def _observed_linear(rng, fmap, horizon, num_episodes=None):
    """A linear cost model on fmap after random episodes over its rows
    (num_episodes of them, or 0 to 14).  Returns the model and each step's
    (features, costs)."""
    model = LinearCostModel(fmap, horizon, lam=float(rng.uniform(0.1, 3.0)),
                            p=float(rng.uniform(0.01, 0.5)),
                            width_scale=float(rng.uniform(0.0, 2.0)))
    num_episodes = int(rng.integers(0, 15)) if num_episodes is None else num_episodes
    return model, _observe_episodes(model, rng, num_episodes,
                                    lambda: int(rng.integers(len(fmap.flat))))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, one_hot=st.booleans())
def test_linear_estimate_is_its_lcb_table(seed, one_hot):
    rng = np.random.default_rng(seed)
    fmap = one_hot_features(int(rng.integers(1, 5)), int(rng.integers(1, 4))) \
        if one_hot else _repeated_row_map(rng)
    model, data = _observed_linear(rng, fmap, horizon=2)
    for h, (X, costs) in enumerate(data):
        _assert_linear_estimate(model, h, X, costs)


def test_linear_estimate_is_its_lcb_table_on_the_hard_instance():
    # Dense rows, most of them repeated: an estimate with its own dot
    # product and quadratic form per row would differ from the table in the
    # last bits here.
    _, fmap = build_hard_instance(5, 3, 40)
    model, data = _observed_linear(np.random.default_rng(0), fmap, horizon=3, num_episodes=10)
    for h, (X, costs) in enumerate(data):
        assert X  # every step holds observations
        _assert_linear_estimate(model, h, X, costs)


# ---------------------------------------------------------------------------
# Whole episodes against a per-step loop (property tests)
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, one_hot=st.booleans())
def test_episode_updates_equal_a_per_step_loop_bitwise(seed, one_hot):
    rng = np.random.default_rng(seed)
    H, K = int(rng.integers(1, 5)), int(rng.integers(1, 12))
    fmap = one_hot_features(int(rng.integers(1, 5)), int(rng.integers(1, 4))) \
        if one_hot else _repeated_row_map(rng)
    lam = float(rng.uniform(0.1, 3.0))
    kernel, lengthscale = [("linear", 1.0), ("sqexp", 0.5), ("sqexp", 1.5)][rng.integers(3)]
    linear = LinearCostModel(fmap, H, lam=lam)
    gp = GpCostModel(kernel, total_episodes=K, horizon=H, lengthscale=lengthscale,
                     feature_map=fmap)
    # The reference: each step's arrays of their own, updated one sample at
    # a time, in the order and with the operands of a per-step update.
    d, flat, k_fn = fmap.dim, fmap.flat, gp._k
    cols = fmap.index
    inv = [np.ones(d) / lam if one_hot else np.eye(d) / lam for _ in range(H)]
    b = [np.zeros(d) for _ in range(H)]
    if one_hot:
        n, G = np.zeros((H, d), dtype=int), np.zeros((H, d))
    else:
        F, f_sq = fmap.distinct, fmap.distinct_sq_norms
        quad = [f_sq / lam for _ in range(H)]
        Z, logdet = np.zeros((H, K, len(F))), np.zeros(H)
        mean, var = np.zeros((H, len(F))), np.tile(k_fn(f_sq, f_sq, f_sq), (H, 1))
    episodes = int(rng.integers(0, K + 1))
    for k in range(episodes):
        rows, costs = rng.integers(len(flat), size=H), rng.uniform(-1, 1, size=H)
        linear.observe(rows, costs)
        gp.observe(rows, costs)
        for h in range(H):
            row, cost = int(rows[h]), float(costs[h])
            phi, i = flat[row], cols[row]
            b[h] += phi * cost
            if one_hot:
                vj = float(inv[h][i])
                inv[h][i] -= vj * vj / (1.0 + vj)
                n[h, i] += 1
                G[h, i] += cost
                continue
            v = inv[h] @ phi
            denom = 1.0 + float(phi @ v)
            inv[h] -= np.outer(v, v) / denom
            proj = F @ v
            quad[h] -= proj * proj / denom
            diag = math.sqrt(float(var[h, i]) + gp.lam)
            a = (cost - float(mean[h, i])) / diag
            r = (k_fn(f_sq[i], f_sq, F @ phi) - Z[h, :k, i] @ Z[h, :k]) / diag
            Z[h, k] = r
            mean[h] += a * r
            var[h] -= r * r
            logdet[h] += 2.0 * math.log(diag)
    g = linear.stats
    assert g.count == gp.count == episodes
    assert g.inv.tobytes() == np.stack(inv).tobytes()
    assert linear.b.tobytes() == np.stack(b).tobytes()
    for h in range(H):
        got, ref = (g.inv[h], inv[h]) if one_hot else (g.quad[h], quad[h])
        assert got[cols].tobytes() == ref[cols].tobytes()
    if one_hot:
        assert gp.n.tobytes() == n.tobytes() and gp.G.tobytes() == G.tobytes()
        return
    for name, ref in dict(Z=Z, mean=mean, var=var, logdet=logdet).items():
        assert getattr(gp, name).tobytes() == ref.tobytes(), name


# ---------------------------------------------------------------------------
# Malformed episodes
# ---------------------------------------------------------------------------

def _gram_arrays(g):
    """The inverses, the cached quadratic forms of a dense map and the
    episode count of a GramState."""
    return [g.inv.copy()] + ([] if g.fmap.one_hot else [g.quad.copy()]) + [g.count]


def _episode_entry_point(name, fmap, K=4):
    """observe(rows, costs) of an episode of two steps through one entry
    point on fresh statistics over fmap, and a snapshot of every array and
    count it changes.  The learner takes the costs as its rewards."""
    if name == "gram":
        g = GramState(fmap, 1.0, 2)
        return (lambda rows, costs: g.update(rows), lambda: _gram_arrays(g))
    if name == "learner":
        lr = LsviLearner(fmap, 2, 2, horizon=2, lam=1.0, beta=1.0)
        return (lambda rows, costs: lr.ingest_episode(rows, costs, [0, 1]),
                lambda: _gram_arrays(lr.stats) + [lr.reward_feats.copy(),
                                                  lr.next_keys.copy(), lr.next_sums.copy()])
    if name == "gp":
        m = GpCostModel("sqexp", total_episodes=K, horizon=2, feature_map=fmap)
        state = ("n", "G") if fmap.one_hot else ("Z", "mean", "var", "logdet")
        return m.observe, lambda: [getattr(m, name).copy() for name in state] + [m.count]
    stats = GramState(fmap, 1.0, 2) if name == "linear-shared" else None
    m = LinearCostModel(fmap, horizon=2, stats=stats)
    return m.observe, lambda: [m.b.copy(), m.stats.inv.copy(), m.stats.count]


BAD_ROWS = {"bool": [True, True], "float": [1.0, 1.0],
            "float-array": np.array([1.0, 1.0])}
# name -> (rows, costs, entry points, error)
BAD_EPISODES = {
    "minus-one": ([2, -1], [0.5, 0.5], None, (IndexError, r"row -1 outside \[0, 4\)")),
    "S*A": ([2, 4], [0.5, 0.5], None, (IndexError, r"row 4 outside \[0, 4\)")),
    **{name: (rows, [0.5, 0.5], None,
              (TypeError, r"row index array\(.*\) is not an integer"))
       for name, rows in BAD_ROWS.items()},
    "list": ([[2], [1]], [0.5, 0.5], None, (ValueError, r"must have shape \(2,\)")),
    "one-step": ([2], [0.5, 0.5], None, (ValueError, r"must have shape \(2,\)")),
    "nan-cost": ([2, 1], [0.5, math.nan], ("linear-owned", "linear-shared", "gp"),
                 (ValueError, r"costs \[0.5 +nan\] not all in \[-1, 1\]")),
    "nan-reward": ([2, 1], [0.5, math.nan], ("learner",),
                   (ValueError, r"rewards \[0.5 +nan\] not all finite")),
    "episode-K+1": ([2, 1], [0.5, 0.5], ("gp",),
                    (ValueError, "already holds K=1 episodes")),
}
ENTRY_POINTS = ("gram", "linear-owned", "linear-shared", "gp", "learner")


@pytest.mark.parametrize("entry, one_hot, bad", [
    pytest.param(entry, one_hot, bad, id=f"{entry}-{'one-hot' if one_hot else 'dense'}-{bad}")
    for entry in ENTRY_POINTS for one_hot in (True, False)
    for bad, (_, _, entries, _) in BAD_EPISODES.items() if entry in (entries or ENTRY_POINTS)])
def test_a_row_outside_the_map_is_rejected_and_changes_nothing(entry, one_hot, bad):
    fmap = one_hot_features(2, 2) if one_hot else \
        _toy_fmap(np.random.default_rng(0), S=2, A=2)
    rows, costs, _, error = BAD_EPISODES[bad]
    observe, snapshot = _episode_entry_point(entry, fmap, K=1 if bad == "episode-K+1" else 4)
    observe(np.array([1, 3]), np.array([0.5, -0.25]))
    before = snapshot()
    with pytest.raises(error[0], match=error[1]):
        observe(rows, costs)
    for old, new in zip(before, snapshot()):
        assert np.asarray(old).tobytes() == np.asarray(new).tobytes()


# ---------------------------------------------------------------------------
# Step indices
# ---------------------------------------------------------------------------

def _step_queries(fmap):
    """Every public query by step h, on fresh statistics of two steps over
    fmap: name -> query(h)."""
    g = GramState(fmap, 1.0, 2)
    linear = LinearCostModel(fmap, horizon=2)
    gp = GpCostModel("sqexp", total_episodes=4, horizon=2, feature_map=fmap)
    w = np.zeros(fmap.dim)
    return {"gram.solve": lambda h: g.solve(h, w),
            "linear.lcb_table": linear.lcb_table, "gp.lcb_table": gp.lcb_table}


@pytest.mark.parametrize("query", list(_step_queries(one_hot_features(2, 2))))
@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
@pytest.mark.parametrize("h", [-1, 2])
def test_a_step_outside_the_horizon_is_rejected(query, one_hot, h):
    # Without the check, h = -1 would answer for the last step.
    fmap = one_hot_features(2, 2) if one_hot else \
        _toy_fmap(np.random.default_rng(0), S=2, A=2)
    with pytest.raises(IndexError, match=rf"step {h} outside \[0, 2\)"):
        _step_queries(fmap)[query](h)
