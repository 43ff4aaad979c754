import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_lsvi.envs import (DEFAULT_LAKE_MAP, FeatureMap, StepRecord, TabularCmdp,
                            build_frozen_lake, build_hard_instance,
                            build_synthetic_linear, frozen_lake_from_grid, step)
from safe_lsvi.lsvi import GramState


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
    cmdp, _ = build_frozen_lake(2, 2, {1}, goal_cell=3, horizon=2,
                                cost_noise=0.3)
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
            out.append(StepRecord(s, (h + s) % 4, r, c, nxt))
            s = nxt
        return out

    assert run(42) == run(42)
    assert run(42) != run(43)


# ---------------------------------------------------------------------------
# Synthetic linear CMDP
# ---------------------------------------------------------------------------

def test_synthetic_cost_is_inner_product():
    cmdp, fmap, theta = build_synthetic_linear(4, 3, seed=7)
    for h in range(3):
        recomputed = (fmap.flat @ theta[h]).reshape(cmdp.num_states,
                                                    cmdp.num_actions)
        assert np.abs(recomputed - cmdp.cost_mean[h]).max() < 1e-15


def test_synthetic_feasible_every_state():
    for seed in range(6):
        cmdp, _, _ = build_synthetic_linear(4, 3, seed=seed)
        assert (cmdp.cost_mean <= 0).any(axis=2).all()


def test_synthetic_costs_bounded():
    cmdp, _, theta = build_synthetic_linear(4, 3, seed=7)
    assert np.abs(cmdp.cost_mean).max() <= 1.0
    assert all(np.linalg.norm(theta[h]) <= np.sqrt(4) for h in range(3))


def test_synthetic_deterministic_per_seed():
    a = build_synthetic_linear(6, 2, seed=11)
    b = build_synthetic_linear(6, 2, seed=11)
    assert np.array_equal(a[0].transition, b[0].transition)
    assert np.array_equal(a[0].reward, b[0].reward)
    assert np.array_equal(a[2], b[2])


def test_synthetic_rejects_small_dimension():
    with pytest.raises(ValueError):
        build_synthetic_linear(1, 3, seed=0)


def test_synthetic_safe_optimum_matches_unconstrained():
    from safe_lsvi.oracle import constrained_dp, value_iteration
    cmdp, _, _ = build_synthetic_linear(8, 5, seed=3)
    _, tab = constrained_dp(cmdp)
    assert tab.v[0, cmdp.initial_state] == value_iteration(cmdp)[0, cmdp.initial_state]


# ---------------------------------------------------------------------------
# Hard lower-bound instance
# ---------------------------------------------------------------------------

def test_hard_instance_feature_norms_exactly_one():
    cmdp, fmap, _ = build_hard_instance(4, 3, 1000)
    norms = np.linalg.norm(fmap.flat, axis=1)
    assert np.abs(norms - 1.0).max() <= 1e-12


def test_hard_instance_rows_sum_to_one():
    cmdp, _, _ = build_hard_instance(4, 3, 1000)
    assert np.abs(cmdp.transition.sum(axis=-1) - 1.0).max() <= 1e-12


def test_hard_instance_transition_roundtrip():
    cmdp, fmap, pp = build_hard_instance(4, 3, 1000)
    S, A = cmdp.num_states, cmdp.num_actions
    for h in range(cmdp.horizon):
        via_features = (fmap.flat @ pp.mu[h]).reshape(S, A, S)
        assert np.abs(via_features - cmdp.transition[h]).max() <= 1e-12


def test_hard_instance_reward_roundtrip():
    cmdp, fmap, pp = build_hard_instance(4, 3, 1000)
    via_features = (fmap.flat @ pp.theta).reshape(cmdp.num_states,
                                                  cmdp.num_actions)
    for h in range(cmdp.horizon):
        assert np.abs(via_features - cmdp.reward[h]).max() <= 1e-12


def test_hard_instance_measure_norm_bound():
    cmdp, _, pp = build_hard_instance(4, 3, 1000)
    bound = np.sqrt(4 + 1)
    for signs in product((-1.0, 1.0), repeat=cmdp.num_states):
        v = np.array(signs)
        for h in range(cmdp.horizon):
            assert np.linalg.norm(pp.mu[h] @ v) <= bound + 1e-12


def test_hard_instance_chain_dynamics_on_diagonal():
    cmdp, _, pp = build_hard_instance(4, 3, 1000)
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
    cmdp, _, pp = build_hard_instance(4, 3, 1000)
    for h in range(cmdp.horizon):
        best = int(np.argmax(pp.actions @ pp.u[h]))
        assert np.all(cmdp.cost_mean[h, :3, best] == 0.0)
        others = np.delete(cmdp.cost_mean[h, :3], best, axis=1)
        assert np.all(others == 1.0)
        assert np.all(cmdp.cost_mean[h, 3:] == 0.0)


def test_hard_instance_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_hard_instance(3, 3, 1000)  # d too small
    with pytest.raises(ValueError):
        build_hard_instance(4, 2, 1000)  # horizon too small
    with pytest.raises(ValueError):
        build_hard_instance(4, 3, 5)  # too few episodes
    with pytest.raises(ValueError):
        build_hard_instance(15, 3, 10 ** 6)  # action cap


def test_hard_instance_custom_signs():
    signs = -np.ones((3, 3))
    cmdp, _, pp = build_hard_instance(4, 3, 1000, u_signs=signs)
    assert np.all(pp.u == -pp.gap)
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


def test_feature_map_rejects_nan_rows():
    table = np.eye(4).reshape(2, 2, 4)
    table[1, 0, 2] = np.nan
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
    expected_sq = [math.fsum(x * x for x in row) for row in rows]
    assert np.allclose(fmap.sq_norms, expected_sq, rtol=1e-14, atol=0.0)
    one_hot = all(np.count_nonzero(row) == 1 and row.max() == 1.0 for row in rows)
    assert (fmap.unit_columns is not None) == one_hot
    if one_hot:
        assert np.array_equal(rows[np.arange(len(rows)), fmap.unit_columns],
                              np.ones(len(rows)))
    g = GramState(fmap.dim, 1.0, fmap)
    assert g.diagonal == one_hot
    for row in rows:  # every row of the map is a sample its statistics take
        g.update(row)
    assert g.count == len(rows)


def test_episode_trace_chains():
    cmdp, _ = build_frozen_lake(3, 3, set(), goal_cell=8, horizon=4)
    rng = np.random.default_rng(9)
    s = cmdp.initial_state
    trace = []
    for h in range(cmdp.horizon):
        r, c, nxt = step(cmdp, s, 1, h, rng)
        trace.append(StepRecord(s, 1, r, c, nxt))
        s = nxt
    assert len(trace) == cmdp.horizon
    for a, b in zip(trace, trace[1:]):
        assert a.next_state == b.state
