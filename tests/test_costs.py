import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_lsvi.costs import (CostEstimate, GpCostModel, LinearCostModel,
                             gp_beta, make_kernel, tilde_beta)
from safe_lsvi.envs import FeatureMap, build_synthetic_linear, one_hot_features
from safe_lsvi.lsvi import GramState, LsviLearner


def ball_features(rng, n, d):
    x = rng.normal(size=(n, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def map_of(rows):
    """A FeatureMap with one action per state whose features are rows."""
    rows = np.asarray(rows, dtype=float)
    return FeatureMap(rows.shape[1], rows.reshape(len(rows), 1, -1))


def placeholder_map(d):
    """A dense (not one-hot) map of dimension d, for GP tests that observe
    points off it: the dense GP reads its map only for the cached posterior
    over the map's rows."""
    return map_of(np.full((1, d), 0.5 / math.sqrt(d)))


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


# ---------------------------------------------------------------------------
# Linear estimator
# ---------------------------------------------------------------------------

def _toy_fmap(rng, S=3, A=2, d=4):
    table = ball_features(rng, S * A, d).reshape(S, A, d)
    return FeatureMap(dim=d, table=table)


def test_linear_no_data_prior():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=2, lam=1.0, p=0.1)
    phi = fmap.flat[0]
    est = model.predict(0, phi)
    assert est.mean == 0.0
    assert est.value == pytest.approx(-tilde_beta(1.0, 4, 1, 0.1 / 2))
    assert est.width_two_sided == pytest.approx(2.0 * est.width)


def test_linear_single_sample_theta():
    fmap = one_hot_features(1, 2)
    model = LinearCostModel(fmap, horizon=1, lam=1.0)
    model.observe(0, 0, 1.0)  # row 0 is [1, 0]
    assert np.allclose(model.theta(0), [0.5, 0.0])


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
        model.observe(0, len(toy.flat) + i, cost)
    X = np.array(feats)
    batch = np.linalg.solve(X.T @ X + np.eye(4), X.T @ np.array(costs))
    assert np.abs(model.theta(0) - batch).max() <= 1e-8


def test_linear_zero_feature_estimate():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=1)
    est = model.predict(0, np.zeros(4))
    assert est.mean == 0.0 and est.width == 0.0 and est.value == 0.0


def test_linear_rejects_out_of_range_cost():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=1)
    with pytest.raises(ValueError):
        model.observe(0, 0, 1.5)


def test_linear_rejects_a_nan_cost_and_keeps_its_state():
    fmap = one_hot_features(2, 2)
    model = LinearCostModel(fmap, horizon=1)
    model.observe(0, 1, 0.5)
    theta, table = model.theta(0), model.lcb_table(0)
    with pytest.raises(ValueError, match="nan"):
        model.observe(0, 0, math.nan)
    assert np.array_equal(model.theta(0), theta)
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
    model = LinearCostModel(fmap, horizon=2)
    for i, cost in enumerate(costs):
        model.observe(1, len(toy.flat) + i, cost)
    table = model.lcb_table(1)
    means = (fmap.flat @ model.theta(1)).reshape(table.shape)
    assert np.all(table <= means + 1e-12)


def test_linear_condition_one_frequencies():
    # On environments with known linear costs, the LCB undershoots the truth
    # with frequency >= 1 - p, and the two-sided width covers the error.
    p = 0.1
    over = uncovered = total = 0
    for seed in range(20):
        cmdp, fmap, theta = build_synthetic_linear(8, 3, seed=seed,
                                                   cost_noise=0.1)
        rng = np.random.default_rng(seed + 500)
        model = LinearCostModel(fmap, cmdp.horizon, lam=1.0, p=p)
        for _ in range(500):
            h = int(rng.integers(cmdp.horizon))
            s = int(rng.integers(cmdp.num_states))
            a = int(rng.integers(cmdp.num_actions))
            obs = float(np.clip(cmdp.cost_mean[h, s, a] + rng.normal(0, 0.1),
                                -1, 1))
            model.observe(h, s * cmdp.num_actions + a, obs)
        for h in range(cmdp.horizon):
            for s in range(cmdp.num_states):
                for a in range(cmdp.num_actions):
                    est = model.predict(h, fmap.table[s, a])
                    true = cmdp.cost_mean[h, s, a]
                    total += 1
                    over += int(est.value > true)
                    uncovered += int(true - est.value > est.width_two_sided)
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


def test_gp_first_observation_cholesky():
    K = 4
    model = GpCostModel("sqexp", total_episodes=K, horizon=1,
                        feature_map=placeholder_map(2))
    model.observe(0, np.array([0.3, 0.4]), 0.5)
    assert model.chol[0][0, 0] == pytest.approx(math.sqrt(2.0 + 2.0 / K))


def test_gp_cholesky_matches_dense():
    rng = np.random.default_rng(4)
    model = GpCostModel("sqexp", total_episodes=100, horizon=1, lengthscale=0.7,
                        feature_map=placeholder_map(3))
    pts = rng.uniform(-1, 1, size=(40, 3))
    for y in pts:
        model.observe(0, y, float(np.clip(rng.normal(0, 0.3), -1, 1)))
    kern = make_kernel("sqexp", 0.7)
    dense = np.linalg.cholesky(kern(pts, pts) + model.lam * np.eye(40))
    assert np.abs(model.chol[0] - dense).max() <= 1e-8


def test_gp_duplicate_point_stays_pd():
    model = GpCostModel("linear", total_episodes=10, horizon=1,
                        feature_map=placeholder_map(2))
    y = np.array([0.6, 0.8])
    model.observe(0, y, 0.2)
    model.observe(0, y, 0.3)  # no error: the regularizer keeps things PD
    assert model.num_obs(0) == 2


def test_gp_prior_posterior():
    model = GpCostModel("sqexp", total_episodes=10, horizon=1,
                        feature_map=placeholder_map(2))
    mean, sigma = model.posterior(0, np.array([0.1, 0.2]))
    assert mean == 0.0
    assert sigma == pytest.approx(1.0)


def test_gp_posterior_shrinks_at_observed_point():
    model = GpCostModel("sqexp", total_episodes=50, horizon=1,
                        feature_map=placeholder_map(2))
    y = np.array([0.5, -0.2])
    _, prior_sigma = model.posterior(0, y)
    model.observe(0, y, 0.4)
    _, post_sigma = model.posterior(0, y)
    assert post_sigma < prior_sigma


def test_gp_variance_monotone_in_observations():
    rng = np.random.default_rng(6)
    model = GpCostModel("sqexp", total_episodes=50, horizon=1, lengthscale=0.8,
                        feature_map=placeholder_map(2))
    query = np.array([0.0, 0.0])
    last = model.posterior(0, query)[1]
    for _ in range(25):
        model.observe(0, rng.uniform(-1, 1, size=2),
                      float(np.clip(rng.normal(), -1, 1)))
        sigma = model.posterior(0, query)[1]
        assert sigma <= last + 1e-10
        last = sigma


def test_gp_preclamp_variance_not_too_negative():
    rng = np.random.default_rng(13)
    model = GpCostModel("linear", total_episodes=200, horizon=1,
                        feature_map=placeholder_map(3))
    kern = make_kernel("linear")
    pts = []
    for _ in range(60):
        y = ball_features(rng, 1, 3)[0]
        model.observe(0, y, float(np.clip(rng.normal(0, 0.2), -1, 1)))
        pts.append(y)
    from scipy.linalg import solve_triangular
    for y in pts:
        kvec = kern(np.array(pts), y[None, :])[:, 0]
        z = solve_triangular(model.chol[0], kvec, lower=True)
        raw = float(kern(y[None, :], y[None, :])[0, 0]) - float(z @ z)
        assert raw >= -1e-10


def test_gp_kernel_ridge_matches_primal_mean():
    # With the linear kernel and matched regularizer, the GP posterior mean
    # equals the ridge prediction at every query point.
    rng = np.random.default_rng(3)
    d, n, K = 5, 30, 100
    gp = GpCostModel("linear", total_episodes=K, horizon=1,
                     feature_map=placeholder_map(5))
    rows = ball_features(rng, 4, d)
    points, costs = [], []
    for _ in range(n):
        points.append(ball_features(rng, 1, d)[0])
        costs.append(float(np.clip(rng.normal(0, 0.4), -1, 1)))
    # The ridge model observes the points as rows of its map, after its
    # own four rows; the GP observes them as points.
    ridge = LinearCostModel(map_of(np.vstack([rows] + points)), horizon=1, lam=gp.lam)
    for i, (y, cost) in enumerate(zip(points, costs)):
        gp.observe(0, y, cost)
        ridge.observe(0, len(rows) + i, cost)
    for _ in range(20):
        q = ball_features(rng, 1, d)[0]
        gp_mean, _ = gp.posterior(0, q)
        assert abs(gp_mean - float(q @ ridge.theta(0))) <= 1e-8


def test_gp_lcb_matches_primal_with_aligned_widths():
    # sigma = sqrt(lam) * ||phi||_{Lambda^{-1}} for the linear kernel, so the
    # primal width beta must be gp_beta * sqrt(lam) for the LCBs to coincide.
    rng = np.random.default_rng(14)
    d, K = 4, 64
    gp = GpCostModel("linear", total_episodes=K, horizon=1, p=0.1,
                     feature_map=placeholder_map(4))
    points, costs = [], []
    for _ in range(25):
        points.append(ball_features(rng, 1, d)[0])
        costs.append(float(np.clip(rng.normal(0, 0.4), -1, 1)))
    # The ridge model observes the points as the rows of its map.
    ridge = LinearCostModel(map_of(points), horizon=1, lam=gp.lam, p=0.1)
    for i, (y, cost) in enumerate(zip(points, costs)):
        gp.observe(0, y, cost)
        ridge.observe(0, i, cost)
    beta_aligned = gp_beta(gp.info_gain(0), 0.1 / 1) * math.sqrt(gp.lam)
    for _ in range(10):
        q = ball_features(rng, 1, d)[0]
        lhs = gp.predict(0, q).value
        rhs = (q @ ridge.theta(0)
               - beta_aligned * math.sqrt(ridge.stats[0].quad_form(q)))
        assert abs(lhs - rhs) <= 1e-8


def test_gp_prior_lcb():
    model = GpCostModel("sqexp", total_episodes=10, horizon=2, p=0.1,
                        feature_map=placeholder_map(2))
    est = model.predict(0, np.array([0.2, 0.2]))
    assert est.value == pytest.approx(-gp_beta(0.0, 0.1 / 2))


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
                            lengthscale=0.5, p=p, feature_map=placeholder_map(2))
        for i in train:
            model.observe(0, pts[i], float(f[i]))
        for i in test:
            est = model.predict(0, pts[i])
            total += 1
            over += int(est.value > f[i])
            uncovered += int(f[i] - est.value > est.width_two_sided)
    assert over / total <= p
    assert uncovered / total <= p


# ---------------------------------------------------------------------------
# Information gain
# ---------------------------------------------------------------------------

def test_info_gain_empty():
    model = GpCostModel("sqexp", total_episodes=10, horizon=2,
                        feature_map=placeholder_map(2))
    assert model.info_gain(0) == 0.0
    assert model.info_gain(1) == 0.0


def test_info_gain_single_unit_kernel_point():
    K = 2
    model = GpCostModel("sqexp", total_episodes=K, horizon=1,
                        feature_map=placeholder_map(2))
    model.observe(0, np.array([0.0, 0.0]), 0.1)
    lam = 1.0 + 2.0 / K
    assert model.info_gain(0) == pytest.approx(0.5 * math.log(1.0 + 1.0 / lam))


def test_info_gain_matches_dense_logdet():
    rng = np.random.default_rng(12)
    model = GpCostModel("sqexp", total_episodes=60, horizon=1, lengthscale=0.6,
                        feature_map=placeholder_map(2))
    pts = rng.uniform(-1, 1, size=(30, 2))
    for y in pts:
        model.observe(0, y, float(np.clip(rng.normal(0, 0.3), -1, 1)))
    kern = make_kernel("sqexp", 0.6)
    _, logdet = np.linalg.slogdet(np.eye(30) + kern(pts, pts) / model.lam)
    assert abs(model.info_gain(0) - 0.5 * logdet) <= 1e-8


def test_info_gain_nondecreasing():
    rng = np.random.default_rng(15)
    model = GpCostModel("linear", total_episodes=40, horizon=1,
                        feature_map=placeholder_map(3))
    last = 0.0
    for _ in range(20):
        model.observe(0, ball_features(rng, 1, 3)[0],
                      float(np.clip(rng.normal(), -1, 1)))
        gamma = model.info_gain(0)
        assert gamma >= last - 1e-10
        last = gamma


def test_gp_rejects_out_of_range_cost():
    model = GpCostModel("sqexp", total_episodes=10, horizon=1,
                        feature_map=placeholder_map(2))
    with pytest.raises(ValueError):
        model.observe(0, np.array([0.0, 0.0]), -1.2)


def test_gp_rejects_a_nan_cost_and_keeps_its_state():
    fmap = one_hot_features(2, 2)
    model = GpCostModel("sqexp", total_episodes=5, horizon=1, feature_map=fmap)
    model.observe(0, 1, 0.5)
    counts, sums, table = model.n.copy(), model.G.copy(), model.lcb_table(0)
    with pytest.raises(ValueError, match="nan"):
        model.observe(0, 0, math.nan)
    assert model.num_obs(0) == 1
    assert model.n.tobytes() == counts.tobytes()
    assert model.G.tobytes() == sums.tobytes()
    assert model.lcb_table(0).tobytes() == table.tobytes()


@pytest.mark.parametrize("point", [np.array([0.0, 1.0, 0.0, 0.0]), [1.0, 0.0, 0.0, 0.0],
                                   1.0, np.array(2.0)],
                         ids=["array", "list", "float", "0-d array"])
def test_one_hot_gp_rejects_a_point_and_keeps_its_state(point):
    fmap = one_hot_features(2, 2)
    model = GpCostModel("sqexp", total_episodes=5, horizon=2, feature_map=fmap)
    model.observe(0, 1, 0.5)
    model.observe(1, 3, -0.25)
    before = [x.tobytes() for x in (model.n, model.G, model.count)]
    with pytest.raises(TypeError, match="one-hot .* by index, not points"):
        model.observe(0, point, 0.5)
    assert [x.tobytes() for x in (model.n, model.G, model.count)] == before


def test_one_hot_gp_rejects_a_kernel_not_finite_on_unit_vectors():
    # At so small a lengthscale k(e_j, e_j) is 0 * inf = nan.
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        GpCostModel("sqexp", total_episodes=5, horizon=1, lengthscale=1e-160,
                    feature_map=one_hot_features(2, 2))


def test_one_hot_gp_memory_does_not_depend_on_k():
    fmap = one_hot_features(100, 4)

    def array_bytes(model):
        return sum(x.nbytes for x in vars(model).values() if isinstance(x, np.ndarray))
    big = GpCostModel("sqexp", total_episodes=10 ** 6, horizon=15, feature_map=fmap)
    small = GpCostModel("sqexp", total_episodes=10, horizon=15, feature_map=fmap)
    assert array_bytes(big) == array_bytes(small) <= 3 * 15 * fmap.dim * 8


def test_gp_step_holds_at_most_k_points():
    K = 3
    model = GpCostModel("sqexp", total_episodes=K, horizon=2,
                        feature_map=placeholder_map(2))
    y = np.array([0.6, 0.8])
    for _ in range(K):
        model.observe(0, y, 0.1)
    with pytest.raises(ValueError, match=r"step 0 .*K=3"):
        model.observe(0, y, 0.1)
    assert model.num_obs(0) == K
    for _ in range(K):  # the other step still takes its K points
        model.observe(1, y, 0.1)
    assert model.num_obs(1) == K


def test_gp_requires_a_feature_map():
    with pytest.raises(TypeError, match="feature_map"):
        GpCostModel("sqexp", total_episodes=10, horizon=1)


# ---------------------------------------------------------------------------
# The cached GP posterior over the feature set (property tests)
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)
GP_KERNELS = st.sampled_from([("linear", 1.0), ("sqexp", 0.3), ("sqexp", 0.7),
                              ("sqexp", 1.0), ("sqexp", 2.5)])


def _observed_gp(rng, kernel, lengthscale, horizon):
    """A GP cost model on a small feature map after a random observe
    sequence: mostly rows of the map, repeats included, some points off it.
    Returns the model and each step's (points, costs)."""
    S, A, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    table = ball_features(rng, S * A, d) * rng.uniform(0.2, 1.0, size=(S * A, 1))
    fmap = FeatureMap(dim=d, table=table.reshape(S, A, d))
    # Each step holds at most K points, so K is drawn no smaller than the
    # number of observations.
    num_obs = int(rng.integers(0, 40))
    model = GpCostModel(kernel, total_episodes=int(rng.integers(max(num_obs, 1), 50)),
                        horizon=horizon, lengthscale=lengthscale,
                        p=float(rng.uniform(0.01, 0.5)),
                        width_scale=float(rng.uniform(0.0, 2.0)), feature_map=fmap)
    data = [([], []) for _ in range(horizon)]
    for _ in range(num_obs):
        h = int(rng.integers(horizon))
        if rng.uniform() < 0.8:
            y = rng.integers(S * A)  # a row, passed by index as the run does
            point = fmap.flat[y]
        else:
            y = point = ball_features(rng, 1, d)[0] * rng.uniform(0.0, 1.0)
        cost = float(rng.uniform(-1, 1))
        model.observe(h, y, cost)
        data[h][0].append(point)
        data[h][1].append(cost)
    return model, data


def _dense_gp_posterior(model, points, costs, Y):
    """Posterior mean and variance at the rows of Y and the information
    gain, dense: np.linalg.solve on K(X, X) + lam*I, and slogdet."""
    kern, lam = model.kern, model.lam
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


@settings(max_examples=80, deadline=None)
@given(kernel=GP_KERNELS, seed=SEEDS)
def test_gp_lcb_table_equals_dense_and_cholesky_posteriors(kernel, seed):
    rng = np.random.default_rng(seed)
    model, data = _observed_gp(rng, *kernel, horizon=2)
    kern, calls = model.kern, []

    def counted(a, b):
        calls.append((a, b))
        return kern(a, b)
    model.kern = counted
    tables = [model.lcb_table(h) for h in range(model.H)]
    model.kern = kern
    assert calls == []  # served from the cache, without a kernel call
    S, A, _ = model.fmap.table.shape
    for h, (table, (points, costs)) in enumerate(zip(tables, data)):
        assert np.abs(table - _dense_gp_lcb(model, points, costs)).max() <= 1e-8
        mean, sigma = model.posterior_batch(h, model.fmap.flat)
        beta = model.width_scale * gp_beta(model.info_gain(h), model.p / model.H)
        assert np.abs(table - (mean - beta * sigma).reshape(S, A)).max() <= 1e-8


@settings(max_examples=60, deadline=None)
@given(kernel=GP_KERNELS, seed=SEEDS)
def test_gp_fed_row_indices_equals_gp_fed_their_vectors(kernel, seed):
    rng = np.random.default_rng(seed)
    S, A, d = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
    table = ball_features(rng, S * A, d) * rng.uniform(0.2, 1.0, size=(S * A, 1))
    fmap = FeatureMap(dim=d, table=table.reshape(S, A, d))
    K, horizon = int(rng.integers(1, 30)), 2
    by_row, by_vector = (GpCostModel(kernel[0], total_episodes=K, horizon=horizon,
                                     lengthscale=kernel[1], feature_map=fmap)
                         for _ in range(2))
    for _ in range(int(rng.integers(0, 2 * K + 1))):
        h = int(rng.integers(horizon))
        if by_row.num_obs(h) == K:
            continue
        row, cost = rng.integers(S * A), float(rng.uniform(-1, 1))
        by_row.observe(h, row, cost)
        by_vector.observe(h, fmap.flat[row].copy(), cost)
    for h in range(horizon):
        for name in ("X", "L", "alpha", "Z"):
            assert getattr(by_row, name)[h].tobytes() == \
                getattr(by_vector, name)[h].tobytes(), name
    for name in ("mean", "var", "logdet"):
        assert getattr(by_row, name).tobytes() == getattr(by_vector, name).tobytes(), name


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
    num_obs, horizon = int(rng.integers(0, 40)), 2
    model = GpCostModel(kernel[0], total_episodes=int(rng.integers(max(num_obs, 1), 50)),
                        horizon=horizon, lengthscale=kernel[1],
                        p=float(rng.uniform(0.01, 0.5)),
                        width_scale=float(rng.uniform(0.0, 2.0)), feature_map=fmap)
    assert model.one_hot
    if kernel == ("sqexp", 1e9):
        assert model._a == 0.0  # c rounds to 1: the formulas must not divide by a
    # Rows drawn from a few favourites, so repeats are common.
    favourites = rng.integers(S * A, size=int(rng.integers(1, 4)))
    data = [([], []) for _ in range(horizon)]
    for _ in range(num_obs):
        h = int(rng.integers(horizon))
        row = int(rng.choice(favourites) if rng.uniform() < 0.5 else rng.integers(S * A))
        cost = float(rng.uniform(-1, 1))
        model.observe(h, row, cost)
        data[h][0].append(fmap.flat[row])
        data[h][1].append(cost)
    calls = []

    def counted(f):
        def call(*args):
            calls.append(args)
            return f(*args)
        return call
    kern, k = model.kern, model._k
    model.kern, model._k = counted(kern), counted(k)
    tables = [model.lcb_table(h) for h in range(horizon)]
    model.kern, model._k = kern, k
    assert calls == []  # no kernel call, neither through kern nor pointwise
    Y = np.vstack([fmap.flat, ball_features(rng, 5, d) * rng.uniform(0, 1, size=(5, 1))])
    for h, (table, (points, costs)) in enumerate(zip(tables, data)):
        assert model.num_obs(h) == len(points)
        assert np.abs(table - _dense_gp_lcb(model, points, costs)).max() <= 1e-10
        mean, var, gamma = _dense_gp_posterior(model, points, costs, Y)
        assert abs(model.info_gain(h) - gamma) <= 1e-10
        got_mean, got_sigma = model.posterior_batch(h, Y)
        assert np.abs(got_mean - mean).max() <= 1e-10
        assert np.abs(got_sigma - np.sqrt(np.maximum(var, 0.0))).max() <= 1e-10


# ---------------------------------------------------------------------------
# Row indices out of range
# ---------------------------------------------------------------------------

def _row_entry_point(name, fmap):
    """observe(row) through one entry point on fresh statistics over fmap,
    and a snapshot of every array and count it changes."""
    if name == "gram":
        g = GramState(fmap, 1.0)
        return g.update, lambda: (g.inv.copy(), g.quad_forms().copy(), g.count)
    if name == "learner":
        # An episode of two steps whose last row is the one tried.
        lr = LsviLearner(fmap, 2, 2, horizon=2, lam=1.0, beta=1.0)
        return (lambda row: lr.ingest_episode([2, row], [0.5, 0.5], [0, 1]),
                lambda: [x.copy() for g in lr.stats for x in (g.inv, g.quad_forms())]
                + [[g.count for g in lr.stats], lr.reward_feats.copy(),
                   lr.next_feats.copy()])
    if name == "gp":
        m = GpCostModel("sqexp", total_episodes=4, horizon=1, feature_map=fmap)
        state = ("n", "G") if m.one_hot else ("X", "L", "alpha", "Z", "mean", "var",
                                               "logdet")
        return (lambda row: m.observe(0, row, 0.5),
                lambda: [np.array(getattr(m, name)) for name in state] + [m.num_obs(0)])
    stats = [GramState(fmap, 1.0)] if name == "linear-shared" else None
    m = LinearCostModel(fmap, horizon=1, stats=stats)
    return (lambda row: m.observe(0, row, 0.5),
            lambda: (m.b[0].copy(), m.stats[0].inv.copy(), m.stats[0].count))


@pytest.mark.parametrize("row", [-1, 4], ids=["minus-one", "S*A"])
@pytest.mark.parametrize("one_hot", [True, False], ids=["one-hot", "dense"])
@pytest.mark.parametrize("entry", ["gram", "linear-owned", "linear-shared", "gp",
                                   "learner"])
def test_a_row_outside_the_map_is_rejected_and_changes_nothing(entry, one_hot, row):
    fmap = one_hot_features(2, 2) if one_hot else \
        _toy_fmap(np.random.default_rng(0), S=2, A=2)
    observe, snapshot = _row_entry_point(entry, fmap)
    observe(1)
    before = snapshot()
    with pytest.raises(IndexError, match=rf"row {row} outside \[0, 4\)"):
        observe(row)
    for old, new in zip(before, snapshot()):
        assert np.asarray(old).tobytes() == np.asarray(new).tobytes()
