import json
import weakref
from dataclasses import astuple, replace
from pathlib import Path

import numpy as np
import pytest

from swapsched import inference as inf
from swapsched import operators, policynet as pn
from swapsched.bench import GeneratorConfig, generate_instance
from swapsched.schedcore import (ObjectiveConfig, combined_objective, edd_sort, is_permutation,
                                 state_features)


def tiny_net(inst):
    return pn.NetConfig(d_in=2 * inst.n_stations + 2, d_h=8, n_heads=2,
                        n_layers=1, d_ff=16)


def test_run_episode_zero_params_best_nonnegative(inst6, obj_cfg):
    cfg = tiny_net(inst6)
    params = pn.zero_params(cfg)
    for seed in range(4):
        ep = inf.run_episode(inst6, params, cfg, obj_cfg, 10,
                             np.random.default_rng(seed))
        assert ep.best_report.fc >= 0.0
        assert is_permutation(ep.best_perm, inst6.n_jobs)
        assert len(ep.actions) == len(ep.fc_log) == 10


def test_run_episode_greedy_deterministic(inst6, obj_cfg):
    cfg = tiny_net(inst6)
    params = pn.init_params(cfg, seed=1)
    a = inf.run_episode(inst6, params, cfg, obj_cfg, 10,
                        np.random.default_rng(0), greedy=True)
    b = inf.run_episode(inst6, params, cfg, obj_cfg, 10,
                        np.random.default_rng(999), greedy=True)
    assert a.actions == b.actions
    assert np.array_equal(a.best_perm, b.best_perm)


def test_run_episode_replay_matches_log(inst6, obj_cfg):
    cfg = tiny_net(inst6)
    params = pn.init_params(cfg, seed=2)
    ep = inf.run_episode(inst6, params, cfg, obj_cfg, 10, np.random.default_rng(3))
    # replay the logged actions through the operators independently
    perm = edd_sort(inst6)
    sigma0 = perm.copy()
    for action, fc_logged in zip(ep.actions, ep.fc_log):
        perm = operators.swap(perm, action)
        fc = combined_objective(inst6, perm, sigma0, obj_cfg).fc
        assert fc == pytest.approx(fc_logged, abs=1e-12)


def test_run_episode_rejects_width_mismatch(inst6, obj_cfg):
    cfg = pn.NetConfig(d_in=99, d_h=8, n_heads=1, n_layers=1, d_ff=8)
    with pytest.raises(ValueError, match="features"):
        inf.run_episode(inst6, pn.zero_params(cfg), cfg, obj_cfg, 5,
                        np.random.default_rng(0))


def test_multirun_single_run_equals_episode(inst6, obj_cfg):
    net = tiny_net(inst6)
    params = pn.init_params(net, seed=4)
    cfg = inf.InferenceConfig(runs_per_policy=1, step_budget=10, seed=17)
    res = inf.multirun(inst6, params, net, cfg, obj_cfg)
    ep = inf.run_episode(inst6, params, net, obj_cfg, 10,
                         np.random.default_rng(np.random.SeedSequence([17, 0])))
    assert res.per_run_fc == [ep.best_report.fc]
    assert np.array_equal(res.best_perm, ep.best_perm)
    assert res.steps == 10


def test_multirun_more_runs_never_worse(inst6, obj_cfg):
    net = tiny_net(inst6)
    params = pn.init_params(net, seed=5)
    best = {}
    for runs in (3, 7, 15):
        cfg = inf.InferenceConfig(runs_per_policy=runs, step_budget=10, seed=23)
        best[runs] = inf.multirun(inst6, params, net, cfg, obj_cfg).best_report.fc
    # shared per-run streams make larger run counts a superset
    assert best[7] >= best[3]
    assert best[15] >= best[7]


def test_multirun_reproducible(inst6, obj_cfg):
    net = tiny_net(inst6)
    params = pn.init_params(net, seed=6)
    cfg = inf.InferenceConfig(runs_per_policy=5, step_budget=10, seed=31)
    a = inf.multirun(inst6, params, net, cfg, obj_cfg)
    b = inf.multirun(inst6, params, net, cfg, obj_cfg)
    assert a.per_run_fc == b.per_run_fc
    assert np.array_equal(a.best_perm, b.best_perm)
    assert json.dumps(a.to_record(), sort_keys=True) == json.dumps(b.to_record(), sort_keys=True)


@pytest.fixture
def checkpoints(tmp_path, inst6):
    net = tiny_net(inst6)
    paths = []
    for step, seed in ((100, 7), (200, 8), (300, 9)):
        p = tmp_path / f"ckpt_{step:010d}.ckpt"
        pn.save_checkpoint(p, pn.init_params(net, seed=seed), net, training_step=step)
        paths.append(str(p))
    return paths


def test_multipolicy_single_checkpoint_equals_multirun(inst6, obj_cfg, checkpoints):
    cfg = inf.InferenceConfig(runs_per_policy=4, step_budget=10, seed=41)
    params, net, _ = pn.load_checkpoint(checkpoints[0])
    mr = inf.multirun(inst6, params, net, cfg, obj_cfg)
    mp = inf.multipolicy(inst6, checkpoints[:1], cfg, obj_cfg)
    assert mp.per_run_fc == mr.per_run_fc
    assert mp.best_report.fc == mr.best_report.fc


def test_multipolicy_dominates_multirun(inst6, obj_cfg, checkpoints):
    cfg = inf.InferenceConfig(runs_per_policy=4, step_budget=10, seed=43)
    params, net, _ = pn.load_checkpoint(checkpoints[-1])
    mr = inf.multirun(inst6, params, net, cfg, obj_cfg)
    mp = inf.multipolicy(inst6, checkpoints, cfg, obj_cfg)
    assert mp.best_report.fc >= mr.best_report.fc  # superset of runs
    assert mp.steps == 3 * 4 * 10
    assert len(mp.per_policy_best) == 3
    assert len(mp.checkpoint_digests) == 3


def test_multipolicy_record_fields(inst6, obj_cfg, checkpoints):
    cfg = inf.InferenceConfig(runs_per_policy=2, step_budget=10, seed=47)
    rec = inf.multipolicy(inst6, checkpoints, cfg, obj_cfg).to_record()
    for key in ("instance_id", "strategy", "per_run_fc", "best_permutation_1based",
                "objective_report", "steps", "checkpoint_digests", "seed",
                "per_policy_best_fc"):
        assert key in rec
    assert sorted(rec["best_permutation_1based"]) == list(range(1, inst6.n_jobs + 1))
    assert rec["steps"] == 60


def test_select_checkpoints_final_plus_five():
    paths = [f"ckpt_{i:010d}.ckpt" for i in range(0, 900, 100)]
    got = inf.select_checkpoints(paths, n_earlier=5)
    assert got[-1] == paths[-1]
    assert got == paths[3:]
    assert inf.select_checkpoints(paths[:2], n_earlier=5) == paths[:2]


def test_select_checkpoints_counts_earlier_ones_from_zero():
    paths = [f"ckpt_{i:010d}.ckpt" for i in range(0, 700, 100)]
    assert inf.select_checkpoints(paths, n_earlier=0) == paths[-1:]
    assert inf.select_checkpoints(paths, n_earlier=2) == paths[-3:]
    assert inf.select_checkpoints(paths, n_earlier=6) == paths
    assert inf.select_checkpoints(paths, n_earlier=99) == paths
    assert inf.select_checkpoints(paths[:1], n_earlier=0) == paths[:1]
    assert inf.select_checkpoints([], n_earlier=0) == []


@pytest.mark.parametrize("n_earlier", [-1, -2, 2.5, 2.0, True, False, "3", None])
def test_select_checkpoints_rejects_n_earlier_that_is_not_a_count(n_earlier):
    paths = [f"ckpt_{i:010d}.ckpt" for i in range(0, 700, 100)]
    for given in (paths, []):
        with pytest.raises(ValueError, match="n_earlier"):
            inf.select_checkpoints(given, n_earlier=n_earlier)


def test_multipolicy_requires_configs(inst6, obj_cfg, checkpoints):
    with pytest.raises(TypeError):
        inf.multipolicy(inst6, checkpoints)
    with pytest.raises(TypeError):
        inf.multipolicy(inst6, checkpoints, inf.InferenceConfig(runs_per_policy=2))


def test_multipolicy_frees_each_policy_before_the_next_load(inst6, obj_cfg, checkpoints,
                                                          monkeypatch):
    load, previous, alive = pn.load_checkpoint, [], []

    def tracked_load(path):
        alive.extend(ref() is not None for ref in previous)
        out = load(path)
        previous.append(weakref.ref(pn.flat_buffer(out[0])))
        return out

    monkeypatch.setattr(pn, "load_checkpoint", tracked_load)
    inf.multipolicy(inst6, checkpoints, inf.InferenceConfig(runs_per_policy=2, step_budget=3),
                    obj_cfg)
    assert len(previous) == 3
    assert alive and not any(alive)


# ---------------------------------------------------------------------------
# lockstep lanes


def _one_state_rollout(inst, params, net, obj_cfg, budget, rng, greedy):
    """The reference the lanes must reproduce: one state, one forward and one
    ``sample_action`` draw per step, scored by ``combined_objective``."""
    sigma0 = edd_sort(inst)
    perm, actions, fc_log = sigma0.copy(), [], []
    for t in range(budget):
        fm = state_features(inst, perm, obj_cfg, t, budget)
        action, _ = pn.sample_action(pn.forward(params, net, fm.per_job, fm.general), rng,
                                     greedy=greedy)
        perm = operators.swap(perm, action)
        actions.append(action)
        fc_log.append(combined_objective(inst, perm, sigma0, obj_cfg).fc)
    return actions, fc_log


@pytest.mark.parametrize("greedy", [False, True])
def test_lanes_equal_single_episodes(inst6, obj_cfg, greedy):
    net = tiny_net(inst6)
    params = pn.init_params(replace(net, compat_init_gain=1.0), seed=12)
    lanes = inf.run_lanes(inst6, params, net, obj_cfg, 10,
                          [inf._run_rng(61, r) for r in range(7)], greedy=greedy)
    for r, lane in enumerate(lanes):
        ep = inf.run_episode(inst6, params, net, obj_cfg, 10, inf._run_rng(61, r),
                             greedy=greedy)
        assert lane.actions == ep.actions
        assert lane.fc_log == ep.fc_log
        assert lane.best_perm.tolist() == ep.best_perm.tolist()
        assert lane.best_report == ep.best_report
        # lanes draw their uniforms up front; the values equal per-step draws
        assert (lane.actions, lane.fc_log) == _one_state_rollout(
            inst6, params, net, obj_cfg, 10, inf._run_rng(61, r), greedy)


def test_lanes_forward_the_shared_start_state_once(inst6, obj_cfg, monkeypatch):
    forward, rows = pn.forward, []

    def counted(params, cfg, per_job, general, **kwargs):
        rows.append(np.shape(per_job)[0])
        return forward(params, cfg, per_job, general, **kwargs)

    monkeypatch.setattr(pn, "forward", counted)
    net = tiny_net(inst6)
    inf.run_lanes(inst6, pn.init_params(net, seed=15), net, obj_cfg, 10,
                  [inf._run_rng(73, r) for r in range(7)])
    assert rows == [1] + [7] * 9  # 1 + (T - 1) * R states
    inf.run_lanes(inst6, None, None, obj_cfg, 10, [inf._run_rng(73, r) for r in range(7)])
    assert len(rows) == 10  # the uniform policy runs no network


def test_lanes_at_paper_scale_equal_single_episodes(inst20, obj_cfg):
    net = pn.NetConfig(d_in=2 * inst20.n_stations + 2)
    params = pn.init_params(net, seed=13)
    lanes = inf.run_lanes(inst20, params, net, obj_cfg, 4,
                          [inf._run_rng(67, r) for r in range(5)])
    for r, lane in enumerate(lanes):
        ep = inf.run_episode(inst20, params, net, obj_cfg, 4, inf._run_rng(67, r))
        assert (lane.actions, lane.fc_log) == (ep.actions, ep.fc_log)


@pytest.mark.parametrize("policy", ["network", "uniform"])
def test_lane_reports_equal_combined_objective_field_for_field(inst20, policy):
    obj_cfg = ObjectiveConfig(alpha1=0.7, alpha2=0.03)
    net = pn.NetConfig(d_in=2 * inst20.n_stations + 2, d_h=16, n_heads=2, n_layers=1, d_ff=32)
    params = pn.init_params(net, seed=19) if policy == "network" else None
    lanes = inf.run_lanes(inst20, params, net, obj_cfg, 6,
                          [inf._run_rng(83, r) for r in range(30)])
    sigma0 = edd_sort(inst20)
    for lane in lanes:
        want = combined_objective(inst20, lane.best_perm, sigma0, obj_cfg)
        assert [v.hex() for v in astuple(lane.best_report)] == [v.hex() for v in astuple(want)]
        assert lane.best_report.fc == max([0.0] + lane.fc_log)


@pytest.mark.parametrize("field,value", [
    ("runs_per_policy", 2.5), ("runs_per_policy", "30"), ("runs_per_policy", True),
    ("runs_per_policy", 0), ("step_budget", 10.0), ("step_budget", "10"),
    ("step_budget", False), ("step_budget", 0)])
def test_inference_config_rejects_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=field):
        inf.InferenceConfig(**{field: value})


def test_multirun_per_run_fc_is_a_prefix(inst6, obj_cfg):
    net = tiny_net(inst6)
    params = pn.init_params(net, seed=14)
    res = {k: inf.multirun(inst6, params, net,
                           inf.InferenceConfig(runs_per_policy=k, step_budget=10, seed=71),
                           obj_cfg)
           for k in (3, 7)}
    assert res[3].per_run_fc == res[7].per_run_fc[:3]


GOLDEN = Path(__file__).parent / "data" / "inference_golden_paper.json"


def paper_scale_records(tmp_path) -> str:
    """Multirun, multipolicy, greedy and uniform-policy records at N=20, W=12, d_h=128.

    ``GOLDEN`` holds the output of this function from the per-run rollout loop
    that the lockstep lanes replaced.
    """
    inst = generate_instance(GeneratorConfig(seed=11, count=1), 0)
    net = pn.NetConfig(d_in=2 * inst.n_stations + 2)  # d_h=128, 2 heads, 2 layers
    obj = ObjectiveConfig()
    paths = []
    for step, seed, gain in ((100, 21, 0.25), (200, 22, 1.0), (300, 23, 0.5)):
        p = tmp_path / f"ckpt_{step:010d}.ckpt"
        params = pn.init_params(replace(net, compat_init_gain=gain), seed=seed)
        pn.save_checkpoint(p, params, net, training_step=step)  # ``net``: golden digests
        paths.append(str(p))
    cfg = inf.InferenceConfig(runs_per_policy=30, step_budget=10, seed=5)
    params, _, _ = pn.load_checkpoint(paths[-1])
    records = {
        "multirun": inf.multirun(inst, params, net, cfg, obj,
                                 checkpoint_digest=pn.checkpoint_digest(paths[-1])),
        "multipolicy": inf.multipolicy(inst, paths, cfg, obj),
        "greedy": inf.multirun(inst, params, net, replace(cfg, greedy=True, runs_per_policy=3), obj),
        "uniform": inf.multirun(inst, pn.zero_params(net), net, cfg, obj, strategy_name="RAND-MR"),
    }
    return json.dumps({k: v.to_record() for k, v in records.items()}, sort_keys=True, indent=1) + "\n"


def test_paper_scale_records_match_golden(tmp_path):
    assert paper_scale_records(tmp_path) == GOLDEN.read_text()


@pytest.mark.parametrize("gen", [
    dict(n_jobs=6, n_stations=3, due_slack_s=0.0, due_noise_s=500.0, seed=7),  # desk
    dict(seed=11),  # paper: N=20, W=12
], ids=["N6", "N20"])
def test_uniform_multirun_equals_zero_param_network(gen, obj_cfg):
    # RAND-MR draws from the uniform pair matrix without a network; the
    # draws, and so the records, are those of an all-zero network
    inst = generate_instance(GeneratorConfig(**gen, count=1), 0)
    net = pn.NetConfig(d_in=2 * inst.n_stations + 2, d_h=8, n_heads=1, n_layers=1, d_ff=8)
    cfg = inf.InferenceConfig(runs_per_policy=30, step_budget=10, seed=3)
    direct = inf.multirun(inst, None, None, cfg, obj_cfg, strategy_name="RAND-MR")
    network = inf.multirun(inst, pn.zero_params(net), net, cfg, obj_cfg, strategy_name="RAND-MR")
    assert json.dumps(direct.to_record()) == json.dumps(network.to_record())
    rngs = [np.random.default_rng(s) for s in range(4)]
    lanes = inf.run_lanes(inst, None, None, obj_cfg, 10, rngs)
    for r, ep in enumerate(lanes):
        alone = inf.run_episode(inst, pn.zero_params(net), net, obj_cfg, 10,
                                np.random.default_rng(r))
        assert ep.actions == alone.actions and ep.fc_log == alone.fc_log
