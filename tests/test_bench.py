import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safe_lsvi.bench import (AGENTS, COST_MODELS, ENVS, ExperimentConfig,
                             Metrics, emit_results, fit_growth_exponent,
                             run_experiment)
from safe_lsvi.costs import KERNELS, tilde_beta
from safe_lsvi.envs import (TabularCmdp, build_synthetic_linear,
                            one_hot_features)


def alternating_cost_env():
    """One state, two actions, H = 1: the higher-reward action is unsafe.

    Under the virtual-queue update the penalty drains as fast as it grows,
    so the agent alternates between the two actions forever.
    """
    P = np.ones((1, 1, 2, 1))
    R = np.array([[[0.55, 0.30]]])
    G = np.array([[[1.0, -1.0]]])
    cmdp = TabularCmdp(1, 2, 1, P, R, G)
    return cmdp, one_hot_features(1, 2)


# ---------------------------------------------------------------------------
# fit_growth_exponent
# ---------------------------------------------------------------------------

def test_exponent_linear_series():
    k = np.arange(1, 501, dtype=float)
    assert fit_growth_exponent(k) == pytest.approx(1.0, abs=0.01)


def test_exponent_sqrt_series():
    k = np.arange(1, 501, dtype=float)
    assert fit_growth_exponent(np.sqrt(k)) == pytest.approx(0.5, abs=0.01)


def test_exponent_noisy_power_law():
    rng = np.random.default_rng(0)
    k = np.arange(1, 2001, dtype=float)
    series = 3.0 * k ** 0.7 + rng.normal(0, 0.1, size=k.size) * k ** 0.7
    assert fit_growth_exponent(series) == pytest.approx(0.7, abs=0.05)


def test_exponent_degenerate_series():
    assert fit_growth_exponent(np.zeros(200)) == 0.0


def test_exponent_rejects_short_series():
    with pytest.raises(ValueError):
        fit_growth_exponent(np.ones(50))


# ---------------------------------------------------------------------------
# Config round trip and validation
# ---------------------------------------------------------------------------

def test_config_roundtrip_lossless():
    config = ExperimentConfig(env="frozen_lake", agent="lsvi_primal",
                              episodes=123, horizon=7, p=0.05, lam=0.5,
                              c_beta=2.0, beta_override=1.25,
                              cost_model="gp", kernel="sqexp", lengthscale=0.7,
                              cost_width_scale=0.02, dim=6,
                              map_text="S.H\n..G", seed=99, out="/tmp/x")
    back = ExperimentConfig.from_text(config.to_text())
    assert back == config


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("bogus=1\n")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(agent="sarsa").validate()
    with pytest.raises(ValueError):
        ExperimentConfig(p=1.5).validate()
    with pytest.raises(ValueError):
        ExperimentConfig(lam=0.0).validate()
    with pytest.raises(ValueError, match="beta_override"):
        ExperimentConfig(beta_override=-1.0).validate()
    with pytest.raises(ValueError, match="c_beta"):
        ExperimentConfig(c_beta=-0.5).validate()
    # NaN and infinities fail every numeric check
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="lambda"):
            ExperimentConfig(lam=bad).validate()
        with pytest.raises(ValueError, match="c_beta"):
            ExperimentConfig(c_beta=bad).validate()
        with pytest.raises(ValueError, match="beta_override"):
            ExperimentConfig(beta_override=bad).validate()
        with pytest.raises(ValueError, match="cost_width_scale"):
            ExperimentConfig(cost_width_scale=bad).validate()
        with pytest.raises(ValueError, match="lengthscale"):
            ExperimentConfig(cost_model="gp", kernel="sqexp",
                             lengthscale=bad).validate()
        with pytest.raises(ValueError, match="p must"):
            ExperimentConfig(p=bad).validate()
    with pytest.raises(ValueError, match="lengthscale must be positive"):
        ExperimentConfig(cost_model="gp", kernel="sqexp", lengthscale=0.0).validate()
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1).validate()
    # config text: a repeated key, or a value its field cannot take, is named
    with pytest.raises(ValueError, match="'episodes' given twice"):
        ExperimentConfig.from_text("episodes=3\nepisodes=4\n")
    with pytest.raises(ValueError, match="config key 'episodes': .*'1.5'"):
        ExperimentConfig.from_text("episodes=1.5\n")
    with pytest.raises(ValueError, match="config key 'lam': .*'small'"):
        ExperimentConfig.from_text("lam=small\n")
    # settings that the chosen models never read
    with pytest.raises(ValueError, match="kernel"):
        ExperimentConfig(kernel="sqexp").validate()
    with pytest.raises(ValueError, match="lengthscale"):
        ExperimentConfig(lengthscale=0.5).validate()
    with pytest.raises(ValueError, match="lengthscale"):
        ExperimentConfig(cost_model="gp", kernel="linear", lengthscale=0.5).validate()
    with pytest.raises(ValueError, match="map_text"):
        ExperimentConfig(env="synthetic_linear", map_text="S.G").validate()
    with pytest.raises(ValueError, match="dim"):
        ExperimentConfig(env="frozen_lake", dim=3).validate()
    with pytest.raises(ValueError, match="cost_model"):
        ExperimentConfig(agent="lsvi", cost_model="gp", kernel="sqexp").validate()
    with pytest.raises(ValueError, match="cost_model"):
        ExperimentConfig(agent="lsvi", cost_model="gp").validate()
    with pytest.raises(ValueError, match="c_beta"):
        ExperimentConfig(beta_override=1.0, c_beta=7.0).validate()
    with pytest.raises(ValueError, match="p is not read"):
        ExperimentConfig(agent="lsvi", beta_override=1.0, p=0.3).validate()
    # One lake config serves all three agents: plain lsvi accepts (and never
    # reads) the cost width scale.
    ExperimentConfig(agent="lsvi", cost_width_scale=0.02).validate()
    ExperimentConfig(env="synthetic_linear", dim=3).validate()
    # without an override the schedule reads c_beta and p; the other agents
    # read p in their cost width
    ExperimentConfig(agent="lsvi", c_beta=7.0, p=0.3).validate()
    ExperimentConfig(agent="lsvi_ae", beta_override=1.0, p=0.3).validate()
    ExperimentConfig(cost_model="gp", kernel="sqexp", lengthscale=0.5,
                     map_text="S.G").validate()


# Canonical values: what to_text writes and from_text reads back unchanged
# (no surrounding whitespace, no line breaks, no ';' inside map_text).
FINITE = st.floats(allow_nan=False, allow_infinity=False)
WORD = st.text(alphabet="abcxyz019_-./", min_size=1, max_size=12)
MAPS = st.lists(st.text(alphabet="SGH.", min_size=1, max_size=6),
                min_size=1, max_size=4).map("\n".join)


@settings(max_examples=100, deadline=None)
@given(env=st.sampled_from(ENVS), agent=st.sampled_from(AGENTS),
       episodes=st.integers(), horizon=st.integers(), p=FINITE, lam=FINITE,
       c_beta=FINITE, beta_override=st.none() | FINITE,
       cost_model=st.sampled_from(COST_MODELS),
       kernel=st.sampled_from(KERNELS), lengthscale=FINITE,
       cost_width_scale=FINITE, dim=st.integers(), map_text=st.none() | MAPS,
       seed=st.integers(min_value=0), out=st.none() | WORD)
def test_config_text_roundtrip_on_canonical_values(**values):
    config = ExperimentConfig(**values)
    assert ExperimentConfig.from_text(config.to_text()) == config


# ---------------------------------------------------------------------------
# run_experiment basics
# ---------------------------------------------------------------------------

def test_single_episode_increments():
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=1,
                           horizon=3, dim=4, beta_override=1.0, seed=5)
    metrics = run_experiment(cfg)
    assert metrics.regret_inc[0] >= -1e-9
    assert metrics.violations[0] >= 0.0


def test_run_deterministic_given_config_and_seed():
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=40,
                           horizon=3, dim=4, beta_override=1.0, seed=7)
    m1 = run_experiment(cfg)
    m2 = run_experiment(cfg)
    assert np.array_equal(m1.rewards, m2.rewards)
    assert np.array_equal(m1.cum_violation, m2.cum_violation)
    assert np.array_equal(m1.cum_regret, m2.cum_regret)


def test_regret_increments_nonnegative_on_aligned_envs():
    for env, dim, horizon in (("synthetic_linear", 4, 3), ("hard_instance", 4, 3)):
        for agent in ("lsvi_ae", "lsvi", "lsvi_primal"):
            cfg = ExperimentConfig(env=env, agent=agent, episodes=60,
                                   horizon=horizon, dim=dim, beta_override=1.0,
                                   cost_width_scale=0.1, seed=3)
            metrics = run_experiment(cfg)
            assert metrics.regret_inc.min() >= -1e-9, (env, agent)


def test_no_cancellation_bound_on_every_run():
    for agent in ("lsvi_ae", "lsvi", "lsvi_primal"):
        cfg = ExperimentConfig(env="synthetic_linear", agent=agent, episodes=50,
                               horizon=4, dim=4, beta_override=1.0, seed=2)
        m = run_experiment(cfg)
        assert m.cum_violation[-1] >= max(0.0, m.signed_costs.sum()) - 1e-12


@settings(max_examples=25, deadline=None)
@given(agent=st.sampled_from(AGENTS), seed=st.integers(0, 2 ** 32 - 1),
       env=st.sampled_from(("synthetic_linear", "hard_instance", "frozen_lake")))
def test_violation_never_below_positive_signed_cost_per_episode(agent, seed, env):
    # 14 episodes is the least the hard instance accepts at d=4, H=3.
    lake = env == "frozen_lake"
    cfg = ExperimentConfig(env=env, agent=agent, episodes=14, horizon=3,
                           dim=8 if lake else 4, beta_override=1.0,
                           cost_width_scale=0.1, seed=seed,
                           map_text="S.H\n..G" if lake else None)
    m = run_experiment(cfg)
    # Both sums run left to right and max(g, 0) >= g term by term, so the
    # bound holds exactly in floating point.
    assert np.all(m.violations >= np.maximum(m.signed_costs, 0.0))


def test_rectified_floor_invariant_on_ae_run():
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=80,
                           horizon=3, dim=4, beta_override=1.0, seed=1)
    metrics = run_experiment(cfg, record_trace=True)
    for k, snap in enumerate(metrics.trace, start=1):
        assert np.all(snap["z"] >= k)


# ---------------------------------------------------------------------------
# Manual transcript of the full episode loop (independent reimplementation)
# ---------------------------------------------------------------------------

def two_state_deterministic_env():
    # action 0 keeps the state, action 1 toggles it; rewards favor toggling
    # from state 0; stepping with action 1 from state 0 is the unsafe move.
    S, A, H = 2, 2, 2
    P = np.zeros((H, S, A, S))
    for h in range(H):
        for s in range(S):
            P[h, s, 0, s] = 1.0
            P[h, s, 1, 1 - s] = 1.0
    R = np.zeros((H, S, A))
    R[:, 0, 1] = 0.9
    R[:, 0, 0] = 0.2
    R[:, 1, 0] = 0.6
    R[:, 1, 1] = 0.1
    G = -np.ones((H, S, A))
    G[:, 0, 1] = 0.8
    cmdp = TabularCmdp(S, A, H, P, R, G)
    return cmdp, one_hot_features(S, A)


def _transcript_reference(cmdp, fmap, K, beta, lam, p, width_scale):
    """Step-by-step reimplementation of the episode loop with dense solves."""
    S, A, H, d = cmdp.num_states, cmdp.num_actions, cmdp.horizon, fmap.dim
    feats = fmap.flat
    z = np.ones(H)
    cost_obs = [[] for _ in range(H)]  # (phi, cost) pairs per step
    out = []
    for k in range(1, K + 1):
        ghat = np.zeros((H, S, A))
        for h in range(H):
            lam_mat = lam * np.eye(d)
            bvec = np.zeros(d)
            for phi, c in cost_obs[h]:
                lam_mat += np.outer(phi, phi)
                bvec += phi * c
            theta = np.linalg.solve(lam_mat, bvec)
            inv = np.linalg.inv(lam_mat)
            width = width_scale * tilde_beta(lam, d, len(cost_obs[h]) + 1, p / H)
            for s in range(S):
                for a in range(A):
                    phi = feats[s * A + a]
                    ghat[h, s, a] = phi @ theta - width * math.sqrt(phi @ inv @ phi)
        # backward sweep over Q
        weights = np.zeros((H, d))
        policy = np.zeros((H, S), dtype=int)
        v_next = np.zeros(S)
        q_tables = np.zeros((H, S, A))
        for h in range(H - 1, -1, -1):
            lam_mat = lam * np.eye(d)
            bvec = np.zeros(d)
            for episode in out:
                s, a, r, s_next = episode["steps"][h]
                phi = feats[s * A + a]
                lam_mat += np.outer(phi, phi)
                bvec += phi * (r + v_next[s_next])
            w = np.linalg.solve(lam_mat, bvec)
            inv = np.linalg.inv(lam_mat)
            for s in range(S):
                for a in range(A):
                    phi = feats[s * A + a]
                    q_tables[h, s, a] = min(w @ phi + beta * math.sqrt(phi @ inv @ phi), H)
            objective = q_tables[h] - z[h] * np.maximum(ghat[h], 0.0)
            policy[h] = objective.argmax(axis=1)
            v_next = q_tables[h][np.arange(S), policy[h]]
            weights[h] = w
        # deterministic rollout
        s = cmdp.initial_state
        steps = []
        actions = []
        for h in range(H):
            a = int(policy[h, s])
            r = float(cmdp.reward[h, s, a])
            c = float(cmdp.cost_mean[h, s, a])
            s_next = int(np.argmax(cmdp.transition[h, s, a]))
            cost_obs[h].append((feats[s * A + a], c))
            steps.append((s, a, r, s_next))
            actions.append(a)
            s = s_next
        for h in range(H):
            observed = cmdp.cost_mean[h, steps[h][0], steps[h][1]]
            z[h] = max(z[h] + max(observed, 0.0), k)
        out.append({"steps": steps, "weights": weights.copy(),
                    "z": z.copy(), "actions": actions})
    return out


def test_episode_loop_matches_manual_transcript():
    cmdp, fmap = two_state_deterministic_env()
    K, beta, lam, p, ws = 3, 0.7, 1.0, 0.1, 1.0
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=K,
                           horizon=cmdp.horizon, beta_override=beta, lam=lam,
                           p=p, cost_width_scale=ws, seed=0)
    metrics = run_experiment(cfg, env_override=(cmdp, fmap), record_trace=True)
    reference = _transcript_reference(cmdp, fmap, K, beta, lam, p, ws)
    for got, want in zip(metrics.trace, reference):
        assert np.abs(got["weights"] - want["weights"]).max() <= 1e-10
        assert np.array_equal(got["z"], want["z"])
        assert got["actions"] == want["actions"]


@pytest.mark.parametrize("cost_model", COST_MODELS)
@pytest.mark.parametrize("horizon", [2, 5])
def test_env_override_with_another_horizon_is_rejected(cost_model, horizon):
    cmdp, fmap, _ = build_synthetic_linear(4, 3, np.random.SeedSequence(0))
    cfg = ExperimentConfig(env="synthetic_linear", dim=4, episodes=3,
                           horizon=horizon, beta_override=1.0,
                           cost_model=cost_model)
    with pytest.raises(ValueError, match=f"horizon 3 .*horizon is {horizon}"):
        run_experiment(cfg, env_override=(cmdp, fmap))


def test_env_override_with_another_feature_table_is_rejected():
    cmdp, _ = alternating_cost_env()
    cfg = ExperimentConfig(env="synthetic_linear", episodes=3, horizon=1,
                           beta_override=1.0)
    with pytest.raises(ValueError, match="feature table"):
        run_experiment(cfg, env_override=(cmdp, one_hot_features(1, 3)))


# ---------------------------------------------------------------------------
# Alternating costs: virtual queue vs rectified penalty
# ---------------------------------------------------------------------------

def test_virtual_queue_linear_hard_violation_bounded_soft():
    cmdp, fmap = alternating_cost_env()
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_primal",
                           episodes=600, horizon=1, beta_override=0.2, seed=0)
    metrics = run_experiment(cfg, env_override=(cmdp, fmap), record_trace=True)
    exponent = fit_growth_exponent(metrics.cum_violation)
    assert exponent >= 0.9
    # the queue keeps returning to zero in the steady state
    z_tail = [snap["z"][0] for snap in metrics.trace[300:]]
    assert min(z_tail) == 0.0
    assert sum(1 for z in z_tail if z == 0.0) > 50
    # soft violation stays bounded while hard violation grows linearly
    soft = np.maximum(np.cumsum(metrics.signed_costs), 0.0)
    assert soft.max() <= 80.0
    assert metrics.cum_violation[-1] >= 200.0
    assert metrics.cum_violation[-1] > soft[-1]


def test_rectified_penalty_stops_alternating_violations():
    cmdp, fmap = alternating_cost_env()
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae",
                           episodes=600, horizon=1, beta_override=0.2, seed=0)
    metrics = run_experiment(cfg, env_override=(cmdp, fmap))
    # violations all but stop once the unsafe action is priced out (the
    # growing confidence width re-opens the estimate at most a few times)
    late_growth = metrics.cum_violation[-1] - metrics.cum_violation[-200]
    assert late_growth <= 3.0
    assert metrics.cum_violation[-1] <= 60.0


# ---------------------------------------------------------------------------
# emit_results
# ---------------------------------------------------------------------------

def test_emit_row_count(tmp_path):
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi", episodes=2,
                           horizon=3, dim=4, beta_override=1.0, seed=0,
                           out=str(tmp_path))
    metrics = run_experiment(cfg)
    path = emit_results(metrics, cfg, tmp_path)
    lines = path.read_text().splitlines()
    assert lines[0] == "episode,reward,hard_violation,cum_regret,cum_violation"
    assert len(lines) == 3


def test_emit_deterministic_bytes(tmp_path):
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=30,
                           horizon=3, dim=4, beta_override=1.0, seed=11)
    a = emit_results(run_experiment(cfg), cfg, tmp_path / "a")
    b = emit_results(run_experiment(cfg), cfg, tmp_path / "b")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a" / "config.txt").read_bytes() == \
        (tmp_path / "b" / "config.txt").read_bytes()


def test_emit_cumulative_columns_reparse(tmp_path):
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=50,
                           horizon=3, dim=4, beta_override=1.0, seed=3)
    path = emit_results(run_experiment(cfg), cfg, tmp_path)
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    regret_sum = violation_sum = 0.0
    prev_regret = 0.0
    for episode, reward, violation, cum_regret, cum_violation in rows:
        violation_sum += float(violation)
        assert violation_sum == float(cum_violation)
        # regret increments are not emitted directly; check monotone structure
        assert float(cum_regret) >= prev_regret - 1e-9
        prev_regret = float(cum_regret)


def test_emit_bad_path_raises():
    cfg = ExperimentConfig(episodes=1)
    metrics = Metrics(rewards=np.zeros(1), violations=np.zeros(1),
                      regret_inc=np.zeros(1), cum_regret=np.zeros(1),
                      cum_violation=np.zeros(1), signed_costs=np.zeros(1),
                      summary={})
    with pytest.raises(OSError):
        emit_results(metrics, cfg, "/proc/does-not-exist/x")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_runs_and_writes(tmp_path, capsys):
    from safe_lsvi.cli import main
    out = tmp_path / "run"
    code = main(["--env", "synthetic_linear", "--agent", "lsvi_ae",
                 "--episodes", "5", "--horizon", "3", "--dim", "4",
                 "--beta-override", "1.0", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert (out / "results.csv").exists()
    assert (out / "config.txt").exists()


def test_cli_config_file_with_flag_override(tmp_path):
    from safe_lsvi.cli import main
    cfg_file = tmp_path / "cfg.txt"
    cfg_file.write_text("env=synthetic_linear\nagent=lsvi\nepisodes=5\n"
                        "horizon=3\ndim=4\nbeta_override=1.0\nseed=2\n")
    out = tmp_path / "out"
    code = main(["--config", str(cfg_file), "--agent", "lsvi_primal",
                 "--out", str(out)])
    assert code == 0
    assert "agent=lsvi_primal" in (out / "config.txt").read_text()


def test_cli_rejects_bad_input(capsys):
    from safe_lsvi.cli import main
    code = main(["--env", "synthetic_linear", "--episodes", "0"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--beta-override", "-1.0"], "beta_override"),
    (["--c-beta", "-0.5"], "c_beta"),
    (["--kernel", "sqexp"], "kernel"),
    (["--lengthscale", "0.5"], "lengthscale"),
    (["--map", "MAP"], "map_text"),
    (["--env", "frozen_lake"], "dim"),
    (["--agent", "lsvi", "--cost-model", "gp", "--kernel", "sqexp",
      "--lengthscale", "0.3"], "cost_model"),
    (["--beta-override", "1.0", "--c-beta", "7"], "c_beta"),
    (["--agent", "lsvi", "--beta-override", "1.0", "--p", "0.3"], "p is not read"),
    (["--beta-override", "inf"], "beta_override"),
    (["--cost-model", "gp", "--kernel", "sqexp", "--lengthscale", "inf"],
     "lengthscale"),
    (["--lambda", "nan"], "lambda"),
    (["--beta-override", "nan"], "beta_override"),
    (["--c-beta", "nan"], "c_beta"),
    (["--cost-width-scale", "nan"], "cost_width_scale"),
    (["--cost-width-scale", "inf"], "cost_width_scale"),
    (["--cost-model", "gp", "--kernel", "sqexp", "--lengthscale", "nan"],
     "lengthscale"),
    (["--seed", "-1"], "seed"),
    (["--config", "CONFIG:episodes=3\nepisodes=4\n"], "'episodes' given twice"),
    (["--config", "CONFIG:episodes=1.5\n"], "config key 'episodes'"),
    (["--env", "frozen_lake", "--dim", "8", "--map", "EMPTY_MAP"], "empty map"),
    (["--env", "frozen_lake", "--dim", "8", "--map", ""], "Is a directory"),
    (["--env", "frozen_lake", "--dim", "8", "--config", "CONFIG:map_text=\n"],
     "empty map"),
    (["--config", "CONFIG:out=\n"], "out must name a directory"),
    (["--out", ""], "out must name a directory"),
    (["--out", "  "], "out must name a directory"),
], ids=["negative-beta-override", "negative-c-beta", "kernel-with-linear-costs",
        "lengthscale-with-linear-costs", "map-with-synthetic-env",
        "dim-with-frozen-lake", "gp-costs-with-lsvi",
        "c-beta-with-beta-override", "p-with-lsvi-and-beta-override",
        "inf-beta-override", "inf-lengthscale", "nan-lambda",
        "nan-beta-override", "nan-c-beta", "nan-cost-width-scale",
        "inf-cost-width-scale", "nan-lengthscale", "negative-seed",
        "config-key-twice", "config-float-episodes", "empty-map-file",
        "empty-map-path", "config-empty-map", "config-empty-out", "empty-out",
        "blank-out"])
def test_cli_rejects_flags_that_would_run_silently(flags, message, tmp_path,
                                                   tmp_path_factory,
                                                   monkeypatch, capsys):
    from safe_lsvi.cli import main
    inputs = tmp_path_factory.mktemp("inputs")
    (inputs / "map.txt").write_text("S.H\n..G\n")
    (inputs / "empty.txt").write_text("")

    def resolve(flag):
        # MAP names a map file, EMPTY_MAP an empty file, CONFIG:<text> a
        # config file holding <text>.
        if flag == "MAP":
            return str(inputs / "map.txt")
        if flag == "EMPTY_MAP":
            return str(inputs / "empty.txt")
        if flag.startswith("CONFIG:"):
            (inputs / "cfg.txt").write_text(flag[len("CONFIG:"):])
            return str(inputs / "cfg.txt")
        return flag
    flags = [resolve(f) for f in flags]
    monkeypatch.chdir(tmp_path)
    code = main(["--env", "synthetic_linear", "--episodes", "3", "--horizon", "3",
                 "--dim", "4"] + flags)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_map_file(tmp_path):
    from safe_lsvi.cli import main
    map_file = tmp_path / "map.txt"
    map_file.write_text("S.H\n..G\n")
    out = tmp_path / "out"
    code = main(["--env", "frozen_lake", "--agent", "lsvi", "--episodes", "5",
                 "--horizon", "4", "--beta-override", "1.0",
                 "--map", str(map_file), "--seed", "0", "--out", str(out)])
    assert code == 0


def test_readme_lists_every_cli_flag():
    from safe_lsvi.cli import build_parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("\nFlags: ")
    paragraph = readme[start:readme.index("\n\n", start)]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    flags = {opt for action in build_parser()._actions
             for opt in action.option_strings} - {"-h", "--help"}
    assert documented == flags


def test_run_with_gp_cost_model():
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_ae", episodes=25,
                           horizon=3, dim=4, beta_override=1.0,
                           cost_model="gp", kernel="sqexp", lengthscale=0.8,
                           cost_width_scale=0.3, seed=4)
    metrics = run_experiment(cfg)
    assert len(metrics.rewards) == 25
    assert np.isfinite(metrics.cum_violation).all()


def test_run_with_gp_linear_kernel():
    cfg = ExperimentConfig(env="synthetic_linear", agent="lsvi_primal",
                           episodes=15, horizon=3, dim=4, beta_override=1.0,
                           cost_model="gp", kernel="linear", seed=6)
    metrics = run_experiment(cfg)
    assert len(metrics.rewards) == 15
