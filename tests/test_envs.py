import dataclasses
import hashlib
import math
import re
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from safe_lsvi.envs import (DEFAULT_LAKE_MAP, ROW_SUM_TOL, FeatureMap, TabularCmdp,
                            _row_keys, build_frozen_lake, build_hard_instance,
                            build_synthetic_linear, frozen_lake_from_grid, step)
from safe_lsvi.lsvi import GramState

from dense_reference import hard_instance_params, reference_frozen_lake, synthetic_theta


# ---------------------------------------------------------------------------
# Frozen lake
# ---------------------------------------------------------------------------

def test_lake_feature_dimension_10x10():
    cmdp, fmap = build_frozen_lake(10, 10, {11, 17}, goal_cell=55, horizon=15)
    assert cmdp.num_states == 100
    assert fmap.dim == 400
    norms = np.linalg.norm(fmap.flat, axis=1)
    assert np.allclose(norms, 1.0)


def test_lake_hazard_free_grid_all_safe():
    cmdp, _ = build_frozen_lake(2, 1, set(), goal_cell=1, horizon=3)
    assert np.all(cmdp.cost_mean == -1.0)


def _reference_lake_transitions(width, height, goal):
    """Independent constructor: build rows by explicit cell enumeration."""
    size = width * height
    moves = {0: (-1, 0), 1: (1, 0), 2: (0, -1), 3: (0, 1)}
    ortho = {0: (2, 3), 1: (2, 3), 2: (0, 1), 3: (0, 1)}
    P = np.zeros((size, 4, size))
    for s in range(size):
        if s == goal:
            P[s, :, s] = 1.0
            continue
        r, c = divmod(s, width)
        for a in range(4):
            for direction, prob in [(a, 0.9), (ortho[a][0], 0.05), (ortho[a][1], 0.05)]:
                dr, dc = moves[direction]
                rr, cc = r + dr, c + dc
                target = rr * width + cc if 0 <= rr < height and 0 <= cc < width else s
                P[s, a, target] += prob
    return P


def test_lake_transitions_match_reference_3x3():
    cmdp, _ = build_frozen_lake(3, 3, {4}, goal_cell=8, horizon=2)
    ref = _reference_lake_transitions(3, 3, 8)
    for h in range(2):
        assert np.abs(cmdp.transition[h] - ref).max() < 1e-15
    # corner cell 0, action right assigns 0.9 to the intended cell 1
    assert cmdp.transition[0, 0, 3, 1] == pytest.approx(0.9)
    assert cmdp.transition[0, 0, 3].sum() == pytest.approx(1.0, abs=1e-12)


def test_lake_rows_sum_and_feasible():
    cmdp, _ = build_frozen_lake(4, 4, {5, 10}, goal_cell=15, horizon=5)
    sums = cmdp.transition.sum(axis=-1)
    assert np.abs(sums - 1.0).max() <= 1e-12
    assert cmdp.transition.min() >= 0.0
    assert (cmdp.cost_mean <= 0).any(axis=2).all()


def test_lake_cost_uses_intended_destination():
    # hazard at cell 4 = (1,1) on a 3x3 grid
    cmdp, _ = build_frozen_lake(3, 3, {4}, goal_cell=8, horizon=1)
    assert cmdp.cost_mean[0, 1, 1] == 1.0   # down from (0,1) into the hazard
    assert cmdp.cost_mean[0, 3, 3] == 1.0   # right from (1,0) into the hazard
    assert cmdp.cost_mean[0, 1, 0] == -1.0  # up from (0,1) stays in place
    # from the hazard cell itself, moving away is safe
    assert cmdp.cost_mean[0, 4, 0] == -1.0


def test_lake_reward_rescaled():
    cmdp, _ = build_frozen_lake(3, 3, set(), goal_cell=8, horizon=2)
    assert cmdp.reward[0, 8, 0] == 1.0
    assert cmdp.reward[0, 3, 2] == pytest.approx(0.01 / 6.0)
    assert cmdp.reward_scale == 6.0


def test_lake_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_frozen_lake(3, 3, {8}, goal_cell=8, horizon=2)
    with pytest.raises(ValueError):
        build_frozen_lake(1, 1, set(), goal_cell=0, horizon=2)


@pytest.mark.parametrize("cells, bad", [
    (dict(goal_cell=22.5), "22.5"),
    (dict(goal_cell=True), "True"),
    (dict(start_cell=1.5), "1.5"),
    (dict(hazard_cells={7, 2.7}), "2.7"),
], ids=["fractional-goal", "bool-goal", "fractional-start", "fractional-hazard"])
def test_lake_rejects_a_cell_that_is_not_an_integer(cells, bad):
    # Each of these used to build some other lake: one without a goal, the
    # goal at cell 1, initial_state 1.5 and a hazard at cell 2.
    args = dict(hazard_cells={7}, goal_cell=24, start_cell=0) | cells
    with pytest.raises(ValueError, match=f"cell {re.escape(bad)} is not an integer"):
        build_frozen_lake(5, 5, horizon=3, **args)


def test_lake_takes_numpy_integer_cells():
    cmdp, _ = build_frozen_lake(5, 5, [np.int64(7)], goal_cell=np.int32(24),
                                horizon=np.int64(3), start_cell=np.uint8(1))
    ref, _ = build_frozen_lake(5, 5, {7}, goal_cell=24, horizon=3, start_cell=1)
    assert cmdp.initial_state == 1
    for name in ("transition", "reward", "cost_mean"):
        assert getattr(cmdp, name).tobytes() == getattr(ref, name).tobytes()


@st.composite
def lake_arguments(draw):
    """build_frozen_lake's arguments on grids of 1-7 x 1-7 cells, H <= 3: a
    goal and a start one cell beyond either end of the grid at times, a goal
    among the hazards, a 1x1 grid or H = 0 make some draws invalid."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    n = width * height
    hazards = draw(st.sets(st.integers(0, n - 1), max_size=n // 2))
    goal, start = draw(st.integers(-1, n)), draw(st.integers(-1, n))
    return width, height, hazards, goal, draw(st.integers(0, 3)), start


@settings(max_examples=300, deadline=None)
@given(args=lake_arguments())
@example(args=(1, 5, {1}, 4, 2, 0))
@example(args=(6, 1, {2}, 0, 3, 5))
@example(args=(1, 2, set(), 1, 1, 0))
def test_lake_builder_equals_the_reference_loop(args):
    try:
        ref = reference_frozen_lake(*args)
    except ValueError as error:
        with pytest.raises(ValueError) as raised:
            build_frozen_lake(*args)
        assert str(raised.value) == str(error)
        return
    cmdp, _ = build_frozen_lake(*args)
    for name in ("transition", "reward", "cost_mean"):
        built, expected = getattr(cmdp, name), getattr(ref, name)
        assert built.shape == expected.shape and built.tobytes() == expected.tobytes()
    assert cmdp.initial_state == ref.initial_state


# sha256 of the default 10x10 lake's tables at H = 15, so that a change to
# the builder that moves a byte is named here and not only by run digests.
DEFAULT_LAKE_SHA256 = {
    "transition": "e23944925377667ab98a5f8c98b4a760a3328592a306bbbf970fb4bd7712a72a",
    "reward": "7589d023d35614c9ffda683d2e64165b0f822ad6c5b0ebd12f049f4105a7215c",
    "cost_mean": "32b47b6f03764174e2e744e537539ecdbe84469eb9d957e5973764b51c014963",
}


def test_default_lake_tables_keep_their_bytes():
    text = DEFAULT_LAKE_MAP.replace("\n", "")
    hazards = {i for i, ch in enumerate(text) if ch == "H"}
    cmdp, _ = frozen_lake_from_grid(DEFAULT_LAKE_MAP, horizon=15)
    ref = reference_frozen_lake(10, 10, hazards, text.index("G"), 15, text.index("S"))
    for name, digest in DEFAULT_LAKE_SHA256.items():
        table = getattr(cmdp, name)
        # One step stored once: a read-only view whose step axis has stride 0.
        assert table.strides[0] == 0 and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 0.0
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest
        assert hashlib.sha256(getattr(ref, name).tobytes()).hexdigest() == digest


def test_grid_parsing_roundtrip():
    text = "S.H\n..G\n"
    cmdp, fmap = frozen_lake_from_grid(text, horizon=4)
    assert cmdp.num_states == 6
    assert cmdp.initial_state == 0
    assert cmdp.cost_mean[0, 1, 3] == 1.0  # right from (0,1) into hazard (0,2)
    assert cmdp.cost_mean[0, 4, 3] == -1.0


def test_grid_parsing_errors():
    with pytest.raises(ValueError):
        frozen_lake_from_grid("S.\n..", horizon=3)  # no goal
    with pytest.raises(ValueError):
        frozen_lake_from_grid("SG\nS.", horizon=3)  # duplicate start
    with pytest.raises(ValueError):
        frozen_lake_from_grid("SG\n.x", horizon=3)  # unknown char


def test_default_map_parses():
    cmdp, fmap = frozen_lake_from_grid(DEFAULT_LAKE_MAP, horizon=15)
    assert cmdp.num_states == 100
    assert fmap.dim == 400


# ---------------------------------------------------------------------------
# step()
# ---------------------------------------------------------------------------

def test_step_goal_absorbing():
    cmdp, _ = build_frozen_lake(3, 3, set(), goal_cell=4, horizon=3)
    rng = np.random.default_rng(0)
    for _ in range(50):
        _, _, nxt = step(cmdp, 4, 2, 1, rng)
        assert nxt == 4


def test_step_noiseless_cost_is_mean():
    cmdp, _ = build_frozen_lake(3, 3, {4}, goal_cell=8, horizon=2)
    rng = np.random.default_rng(1)
    _, cost, _ = step(cmdp, 1, 1, 0, rng)
    assert cost == cmdp.cost_mean[0, 1, 1]


def test_step_frequencies_match_row():
    cmdp, _ = build_frozen_lake(3, 3, set(), goal_cell=8, horizon=2)
    rng = np.random.default_rng(123)
    n = 100_000
    counts = np.zeros(cmdp.num_states)
    for _ in range(n):
        _, _, nxt = step(cmdp, 0, 3, 0, rng)
        counts[nxt] += 1
    row = cmdp.transition[0, 0, 3]
    for s_next in range(cmdp.num_states):
        p = row[s_next]
        sigma = np.sqrt(max(p * (1 - p) * n, 1.0))
        assert abs(counts[s_next] - p * n) <= 3.0 * sigma + 1.0


def test_step_rejects_out_of_range():
    cmdp, _ = build_frozen_lake(2, 2, set(), goal_cell=3, horizon=2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        step(cmdp, 0, 0, 5, rng)
    with pytest.raises(ValueError):
        step(cmdp, 9, 0, 0, rng)


def test_step_noise_clipped_and_zero_mean():
    cmdp, _ = build_frozen_lake(2, 2, {1}, goal_cell=3, horizon=2)
    cmdp = dataclasses.replace(cmdp, cost_noise=0.3)
    rng = np.random.default_rng(5)
    draws = np.array([step(cmdp, 0, 3, 0, rng)[1] for _ in range(4000)])
    assert draws.max() <= 1.0 and draws.min() >= -1.0
    # true mean +1, clipping pulls the average below it but noise is centered
    assert abs(draws.mean() - draws.clip(-1, 1).mean()) < 1e-12


def test_simulation_deterministic_given_seed():
    cmdp, _ = build_frozen_lake(4, 4, {5}, goal_cell=15, horizon=6)

    def run(seed):
        rng = np.random.default_rng(seed)
        s, out = cmdp.initial_state, []
        for h in range(cmdp.horizon):
            r, c, nxt = step(cmdp, s, (h + s) % 4, h, rng)
            out.append((s, (h + s) % 4, r, c, nxt))
            s = nxt
        return out

    assert run(42) == run(42)
    assert run(42) != run(43)


# ---------------------------------------------------------------------------
# Synthetic linear CMDP
# ---------------------------------------------------------------------------

def test_synthetic_cost_is_inner_product():
    cmdp, fmap = build_synthetic_linear(4, 3, seed=7)
    theta = synthetic_theta(cmdp, 4)
    for h in range(3):
        recomputed = (fmap.flat @ theta[h]).reshape(cmdp.num_states,
                                                    cmdp.num_actions)
        assert np.abs(recomputed - cmdp.cost_mean[h]).max() < 1e-15


def test_synthetic_feasible_every_state():
    for seed in range(6):
        cmdp, _ = build_synthetic_linear(4, 3, seed=seed)
        assert (cmdp.cost_mean <= 0).any(axis=2).all()


def test_synthetic_costs_bounded():
    cmdp, _ = build_synthetic_linear(4, 3, seed=7)
    theta = synthetic_theta(cmdp, 4)
    assert np.abs(cmdp.cost_mean).max() <= 1.0
    assert all(np.linalg.norm(theta[h]) <= np.sqrt(4) for h in range(3))


def test_synthetic_deterministic_per_seed():
    a = build_synthetic_linear(6, 2, seed=11)
    b = build_synthetic_linear(6, 2, seed=11)
    assert np.array_equal(a[0].transition, b[0].transition)
    assert np.array_equal(a[0].reward, b[0].reward)
    assert np.array_equal(a[0].cost_mean, b[0].cost_mean)


def test_synthetic_rejects_small_dimension():
    with pytest.raises(ValueError):
        build_synthetic_linear(1, 3, seed=0)


def test_synthetic_safe_optimum_matches_unconstrained():
    from safe_lsvi.oracle import constrained_dp, value_iteration
    cmdp, _ = build_synthetic_linear(8, 5, seed=3)
    _, v = constrained_dp(cmdp)
    assert v[0, cmdp.initial_state] == value_iteration(cmdp)[0, cmdp.initial_state]


# ---------------------------------------------------------------------------
# Hard lower-bound instance
# ---------------------------------------------------------------------------

def test_hard_instance_feature_norms_exactly_one():
    cmdp, fmap = build_hard_instance(4, 3, 1000)
    norms = np.linalg.norm(fmap.flat, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_hard_instance_rows_sum_to_one():
    cmdp, _ = build_hard_instance(4, 3, 1000)
    assert np.abs(cmdp.transition.sum(axis=-1) - 1.0).max() <= 1e-12


# (d, H, K): the size the tests use most, and two more up to d = 13
# (4096 actions) at the smallest K the builder accepts.
HARD_SIZES = pytest.mark.parametrize("d, H, K", [(4, 3, 1000), (8, 4, 98), (13, 3, 216)])


@HARD_SIZES
def test_hard_instance_transition_roundtrip(d, H, K):
    # The rows are <phi, mu_h> for the parametrization derived from the
    # definition, at every (h, state, action).
    cmdp, fmap = build_hard_instance(d, H, K)
    pp = hard_instance_params(d, H, K)
    S, A = cmdp.num_states, cmdp.num_actions
    for h in range(cmdp.horizon):
        via_features = (fmap.flat @ pp.mu[h]).reshape(S, A, S)
        assert np.abs(via_features - cmdp.transition[h]).max() <= 1e-12


@HARD_SIZES
def test_hard_instance_reward_roundtrip(d, H, K):
    cmdp, fmap = build_hard_instance(d, H, K)
    pp = hard_instance_params(d, H, K)
    via_features = (fmap.flat @ pp.theta).reshape(cmdp.num_states,
                                                  cmdp.num_actions)
    for h in range(cmdp.horizon):
        assert np.abs(via_features - cmdp.reward[h]).max() <= 1e-12


def test_hard_instance_measure_norm_bound():
    cmdp, _ = build_hard_instance(4, 3, 1000)
    pp = hard_instance_params(4, 3, 1000)
    bound = np.sqrt(4 + 1)
    for signs in product((-1.0, 1.0), repeat=cmdp.num_states):
        v = np.array(signs)
        for h in range(cmdp.horizon):
            assert np.linalg.norm(pp.mu[h] @ v) <= bound + 1e-12


def test_hard_instance_chain_dynamics_on_diagonal():
    cmdp, _ = build_hard_instance(4, 3, 1000)
    pp = hard_instance_params(4, 3, 1000)
    H = cmdp.horizon
    reward_state = cmdp.num_states - 1
    for h in range(H):
        leak = pp.delta + pp.actions @ pp.u[h]
        assert np.allclose(cmdp.transition[h, h, :, reward_state], leak)
        assert np.allclose(cmdp.transition[h, h, :, h + 1], 1.0 - leak)
    # rewarding state is absorbing at every step
    for h in range(H):
        assert np.all(cmdp.transition[h, reward_state, :, reward_state] == 1.0)


def test_hard_instance_costs():
    cmdp, _ = build_hard_instance(4, 3, 1000)
    pp = hard_instance_params(4, 3, 1000)
    for h in range(cmdp.horizon):
        best = int(np.argmax(pp.actions @ pp.u[h]))
        assert np.all(cmdp.cost_mean[h, :3, best] == 0.0)
        others = np.delete(cmdp.cost_mean[h, :3], best, axis=1)
        assert np.all(others == 1.0)
        assert np.all(cmdp.cost_mean[h, 3:] == 0.0)


def test_hard_instance_sign_vectors_and_distinct_rows():
    H = 3
    for d in range(4, 14):
        _, fmap = build_hard_instance(d, H, math.ceil((d - 1) ** 2 * H / 2))
        expected = np.array(list(product((-1.0, 1.0), repeat=d - 1)))
        # The actions in itertools.product order: the signs of every chain
        # state's middle features.
        assert np.sign(fmap.table[:H + 1, :, 1:d]).tobytes() == \
            np.broadcast_to(expected, (H + 1,) + expected.shape).tobytes()
        # Every state but the rewarding one has the features (alpha, beta*a,
        # 0); the rewarding state's are all the last basis vector.  The
        # distinct rows keep their old positions: the first state's rows,
        # then the rewarding state's first row.
        A = 2 ** (d - 1)
        assert len(fmap.distinct) == A + 1
        assert fmap.distinct.tobytes() == fmap.flat[np.r_[:A, (H + 1) * A]].tobytes()
        assert fmap.distinct[fmap.index].tobytes() == fmap.flat.tobytes()
        # The hash keys alone tell the distinct rows apart, so the map is
        # not grouped by bytes, the slower way.
        assert len(np.unique(_row_keys(fmap.flat))) == A + 1


@pytest.mark.parametrize("build", [
    lambda: build_frozen_lake(3, 3, {4}, goal_cell=8, horizon=2),
    lambda: frozen_lake_from_grid(DEFAULT_LAKE_MAP, 3),
    lambda: build_synthetic_linear(5, 3, seed=0),
    lambda: build_hard_instance(4, 3, 1000)], ids=["lake", "lake-map", "synthetic", "hard"])
def test_every_builder_returns_a_cmdp_and_its_feature_map(build):
    # bench.build_env unpacks every builder one way.
    cmdp, fmap = build()
    assert isinstance(cmdp, TabularCmdp) and isinstance(fmap, FeatureMap)
    assert fmap.table.shape[:2] == (cmdp.num_states, cmdp.num_actions)


@pytest.mark.parametrize("horizon", [2.5, True, np.float64(3.0), 0],
                         ids=["float", "bool", "numpy-float", "zero"])
@pytest.mark.parametrize("build", [
    lambda H: build_frozen_lake(3, 3, {4}, goal_cell=8, horizon=H),
    lambda H: build_synthetic_linear(4, H, seed=0),
    lambda H: build_hard_instance(4, H, 1000)], ids=["lake", "synthetic", "hard"])
def test_builders_reject_a_bad_horizon(build, horizon):
    with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
        build(horizon)


def test_hard_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_hard_instance(3, 3, 1000)  # d too small
    with pytest.raises(ValueError):
        build_hard_instance(4, 2, 1000)  # horizon too small
    with pytest.raises(ValueError):
        build_hard_instance(4, 3, 5)  # too few episodes
    with pytest.raises(ValueError):
        build_hard_instance(15, 3, 10 ** 6)  # action cap


@pytest.mark.parametrize("episodes", [math.nan, math.inf, 216.5, True],
                         ids=["nan", "inf", "fraction", "bool"])
def test_hard_instance_rejects_episodes_that_are_no_count(episodes):
    # NaN passed K < k_min and failed late, on the feature norms; inf built
    # an instance with gap 0, and 216.5 built one too.
    with pytest.raises(ValueError, match="episodes must be an integer >= 1"):
        build_hard_instance(4, 3, episodes)


def test_hard_instance_custom_signs():
    signs = -np.ones((3, 3))
    cmdp, _ = build_hard_instance(4, 3, 1000, u_signs=signs)
    pp = hard_instance_params(4, 3, 1000, u_signs=signs)
    # u = -gap: the leak follows <u, a>, and the all -1 action is the safe one.
    reward_state = cmdp.num_states - 1
    for h in range(cmdp.horizon):
        leak = pp.delta + pp.actions @ pp.u[h]
        assert np.allclose(cmdp.transition[h, h, :, reward_state], leak)
        assert np.all(cmdp.cost_mean[h, :3, 0] == 0.0)
        assert np.all(cmdp.cost_mean[h, :3, 1:] == 1.0)
    with pytest.raises(ValueError):
        build_hard_instance(4, 3, 1000, u_signs=np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Validation of the container itself
# ---------------------------------------------------------------------------

def test_cmdp_rejects_bad_rows():
    P = np.full((1, 2, 2, 2), 0.4)
    R = np.zeros((1, 2, 2))
    G = -np.ones((1, 2, 2))
    with pytest.raises(ValueError):
        TabularCmdp(2, 2, 1, P, R, G)


@pytest.mark.parametrize("excess, ok", [(1e-11, False), (1e-13, True)],
                         ids=["1e-11", "1e-13"])
def test_cmdp_row_sum_tolerance(excess, ok):
    # One row sums to 1 + excess: rejected beyond the 1e-12 tolerance,
    # accepted within it.
    P = np.full((2, 2, 3, 2), 0.5)
    P[1, 0, 2, 1] += excess
    tables = dict(transition=P, reward=np.zeros((2, 2, 3)), cost_mean=-np.ones((2, 2, 3)))
    if ok:
        TabularCmdp(2, 3, 2, **tables)
    else:
        with pytest.raises(ValueError, match="sum to 1"):
            TabularCmdp(2, 3, 2, **tables)


@pytest.mark.parametrize("field, value, message", [
    ("num_states", 100.0, "num_states must be an integer >= 1"),
    ("num_actions", np.float64(4), "num_actions must be an integer >= 1"),
    ("horizon", 3.0, "horizon must be an integer >= 1"),
    ("initial_state", True, "initial_state must be an integer"),
    ("initial_state", 1.5, "initial_state must be an integer"),
    ("initial_state", 2.0, "initial_state must be an integer"),
], ids=["float-states", "numpy-float-actions", "float-horizon",
        "bool-start", "fractional-start", "float-start"])
def test_cmdp_rejects_a_float_or_bool_integer_field(field, value, message):
    # Each equals or compares as an integer, so the shape and range checks
    # let it through and a run failed late, with a TypeError or IndexError.
    cmdp, _ = build_frozen_lake(10, 10, {11}, goal_cell=55, horizon=3)
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(cmdp, **{field: value})


@pytest.mark.parametrize("field", ["cost_noise", "reward_scale"])
@pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "numpy-bool"])
def test_cmdp_rejects_a_bool_scale(field, value):
    # True compares as 1: cost_noise=True ran with noise of scale 1.0.
    cmdp, _ = build_frozen_lake(3, 3, {1}, goal_cell=8, horizon=2)
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(cmdp, **{field: value})


def test_cmdp_rejects_infeasible_state():
    P = np.zeros((1, 2, 2, 2))
    P[..., 0] = 1.0
    R = np.zeros((1, 2, 2))
    G = -np.ones((1, 2, 2))
    G[0, 1, :] = 0.5
    with pytest.raises(ValueError, match="no safe action"):
        TabularCmdp(2, 2, 1, P, R, G)


def _nan_at(name, index):
    def edit(tables):
        tables[name][index] = np.nan
    return edit


@pytest.mark.parametrize("edit, message", [
    (_nan_at("transition", (0, 1, 0, 1)), "sum to 1"),
    (_nan_at("reward", (0, 0, 1)), "rewards"),
    (_nan_at("cost_mean", (0, 1, 1)), "cost means"),
    (lambda tables: tables.update(cost_noise=np.nan), "cost_noise"),
    (lambda tables: tables.update(cost_noise=np.inf), "cost_noise"),
    (lambda tables: tables.update(reward_scale=np.nan), "reward_scale"),
    (lambda tables: tables.update(reward_scale=np.inf), "reward_scale"),
], ids=["transition", "reward", "cost-mean", "cost-noise-nan", "cost-noise-inf",
        "reward-scale-nan", "reward-scale-inf"])
def test_cmdp_rejects_nan(edit, message):
    P = np.zeros((1, 2, 2, 2))
    P[..., 0] = 1.0
    tables = dict(transition=P, reward=np.zeros((1, 2, 2)),
                  cost_mean=-np.ones((1, 2, 2)))
    TabularCmdp(2, 2, 1, **tables)
    edit(tables)
    with pytest.raises(ValueError, match=message):
        TabularCmdp(2, 2, 1, **tables)


def _one_step_tables():
    """A valid (transition, reward, cost_mean) of H = 2, S = 1, A = 2."""
    return dict(transition=np.ones((2, 1, 2, 1)), reward=np.zeros((2, 1, 2)),
                cost_mean=-np.ones((2, 1, 2)))


@pytest.mark.parametrize("name, value", [
    ("transition", np.ones((2, 1, 2, 1), dtype=np.int64)),
    ("transition", np.ones((2, 1, 2, 1), dtype=bool)),
    ("transition", [[[[1.0], [1.0]]], [[[1.0], [1.0]]]]),
    ("cost_mean", np.full((2, 1, 2), -1.0 + 0j)),
    ("reward", np.zeros((2, 1, 2), dtype=np.int64)),
], ids=["int-transition", "bool-transition", "list-transition", "complex-cost",
        "int-reward"])
def test_cmdp_rejects_a_table_that_is_not_a_real_float_array(name, value):
    # An integer or bool transition used to fail inside the row-sum check
    # with numpy's casting error, a list with an AttributeError, and a
    # complex cost or an integer reward was accepted.
    TabularCmdp(1, 2, 2, **_one_step_tables())
    with pytest.raises(ValueError, match=f"{name} must be a real floating-point numpy array"):
        TabularCmdp(1, 2, 2, **(_one_step_tables() | {name: value}))


STEP_DEFECTS = ("valid", "row-sum", "negative", "nan", "reward", "cost", "no-safe-action")


@st.composite
def one_step(draw):
    """One step's (P, R, G) of 1-4 states and actions, valid or with one
    defect, and the start of the message that rejects it (None if valid)."""
    defect = draw(st.sampled_from(STEP_DEFECTS))
    S = draw(st.integers(2 if defect == "negative" else 1, 4))
    A = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    P = rng.random((S, A, S)) + 0.05
    P /= P.sum(axis=-1, keepdims=True)
    R = rng.random((S, A))
    G = rng.uniform(-1.0, 1.0, size=(S, A))
    G[np.arange(S), rng.integers(A, size=S)] = -0.5
    s, a, t = (int(rng.integers(n)) for n in (S, A, S))
    message = {"row-sum": "transition rows must sum to 1",
               "negative": "transition rows must be nonnegative",
               "reward": "rewards must lie", "cost": "cost means must lie",
               "no-safe-action": f"no safe action at (h=0, s={s})"}.get(defect)
    if defect == "row-sum":
        P[s, a, t] += 10 * ROW_SUM_TOL
    elif defect == "negative":
        P[s, a] = 0.0
        P[s, a, t], P[s, a, (t + 1) % S] = -0.25, 1.25
    elif defect == "nan":
        table, message = draw(st.sampled_from([(P, "transition rows must sum to 1"),
                                               (R, "rewards must lie"),
                                               (G, "cost means must lie")]))
        table[(s, a, t)[:table.ndim]] = np.nan
    elif defect == "reward":
        R[s, a] = 1.5
    elif defect == "cost":
        G[s, a] = -1.5
    elif defect == "no-safe-action":
        G[s] = 0.5
    return (P, R, G), message


@settings(max_examples=300, deadline=None)
@given(step=one_step(), H=st.integers(1, 5))
def test_a_repeated_step_is_checked_once_as_its_dense_copy(step, H):
    # The H steps of a broadcast view are its first step's memory, checked
    # once: it is accepted or rejected, with the same message, as the dense
    # copy checked over all H steps.
    (P, R, G), message = step
    S, A = R.shape
    views = [np.broadcast_to(x, (H, *x.shape)) for x in (P, R, G)]
    assert all(v.strides[0] == 0 and not v.flags.writeable for v in views)
    dense = [v.copy() for v in views]
    if message is None:
        TabularCmdp(S, A, H, *views)
        TabularCmdp(S, A, H, *dense)
        return
    with pytest.raises(ValueError, match=re.escape(message)) as from_view:
        TabularCmdp(S, A, H, *views)
    with pytest.raises(ValueError) as from_dense:
        TabularCmdp(S, A, H, *dense)
    assert str(from_view.value) == str(from_dense.value)


@pytest.mark.parametrize("name, axis, message", [
    ("transition", 1, "sum to 1"), ("transition", 2, "sum to 1"),
    ("transition", 3, "sum to 1"), ("reward", 1, "rewards"), ("reward", 2, "rewards"),
    ("cost_mean", 1, r"no safe action at \(h=2, s=0\)"),
    ("cost_mean", 2, r"no safe action at \(h=2, s=0\)"),
])
def test_a_table_with_stride_zero_off_the_step_axis_is_checked_whole(name, axis, message):
    # Three distinct steps, each repeated along another axis by a broadcast
    # view: only the last step is invalid, and the check finds it.
    tables = dict(transition=np.full((3, 2, 2, 2), 0.5), reward=np.full((3, 2, 2), 0.5),
                  cost_mean=np.full((3, 2, 2), -0.5))
    TabularCmdp(2, 2, 3, **tables)
    one = tables[name].take([0], axis=axis)
    one[-1] = {"transition": 0.6, "reward": 1.5, "cost_mean": 0.5}[name]
    view = np.broadcast_to(one, tables[name].shape)
    assert view.strides[axis] == 0 and view.strides[0] != 0
    with pytest.raises(ValueError, match=message):
        TabularCmdp(2, 2, 3, **(tables | {name: view}))


def test_feature_map_rejects_nan_rows():
    # A NaN entry, and a row of norm 1.5.
    for value in (np.nan, 1.5):
        table = np.eye(4).reshape(2, 2, 4)
        table[1, 0, 2] = value
        with pytest.raises(ValueError, match="feature norms"):
            FeatureMap(dim=4, table=table)


ROW_KINDS = ("unit", "scaled", "negated", "zero", "dense", "nearly_unit")


@st.composite
def feature_tables(draw):
    """(S, A, d) tables mixing unit basis rows (repeats included) with
    0.5 * e_j, -e_j, zero and dense rows, and e_j plus 1e-5 in another
    column (its norm is within the map's slack); about half are all unit
    rows."""
    S, A, d = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 5))
    n = S * A
    if draw(st.booleans()):
        kinds = ["unit"] * n
    else:
        kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=n, max_size=n))
    rows = np.zeros((n, d))
    for i, kind in enumerate(kinds):
        j = draw(st.integers(0, d - 1))
        if kind == "dense":
            v = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
            rows[i] = v / max(1.0, float(np.linalg.norm(v)))
        elif kind == "nearly_unit":
            rows[i, j] = 1.0
            if d > 1:
                rows[i, (j + 1) % d] = 1e-5
        elif kind != "zero":
            rows[i, j] = {"unit": 1.0, "scaled": 0.5, "negated": -1.0}[kind]
    return rows.reshape(S, A, d)


@settings(max_examples=150, deadline=None)
@given(table=feature_tables())
def test_feature_map_finds_its_structure_once(table):
    fmap = FeatureMap(dim=table.shape[2], table=table)
    rows = table.reshape(-1, table.shape[2])
    assert np.array_equal(fmap.flat, rows)
    one_hot = all(np.count_nonzero(row) == 1 and row.max() == 1.0 for row in rows)
    assert (fmap.distinct is None) == one_hot
    if one_hot:
        assert np.array_equal(rows[np.arange(len(rows)), fmap.index],
                              np.ones(len(rows)))
    else:
        assert fmap.distinct[fmap.index].tobytes() == rows.tobytes()
        assert len({row.tobytes() for row in fmap.distinct}) == len(fmap.distinct)
        expected_sq = [math.fsum(x * x for x in row) for row in fmap.distinct]
        assert np.allclose(fmap.distinct_sq_norms, expected_sq, rtol=1e-14, atol=0.0)
    g = GramState(fmap, 1.0, len(rows))
    assert (g.inv.ndim == 2) == one_hot
    g.update(np.arange(len(rows)))  # every row of the map is a sample its statistics take
    assert g.count == 1


def test_episode_trace_chains():
    cmdp, _ = build_frozen_lake(3, 3, set(), goal_cell=8, horizon=4)
    rng = np.random.default_rng(9)
    s = cmdp.initial_state
    trace = []
    for h in range(cmdp.horizon):
        _, _, nxt = step(cmdp, s, 1, h, rng)
        trace.append((s, nxt))
        s = nxt
    assert len(trace) == cmdp.horizon
    for (_, a_next), (b_state, _) in zip(trace, trace[1:]):
        assert a_next == b_state
