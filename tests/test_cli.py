import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from swapsched import bench, cli, inference, policynet, ppo
from swapsched.bench import GeneratorConfig, brute_force_best, generate_instances
from swapsched.schedcore import ObjectiveConfig, load_instance


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


@pytest.fixture
def inst_dir(tmp_path):
    d = tmp_path / "instances"
    generate_instances(GeneratorConfig(n_jobs=5, n_stations=2, due_slack_s=0.0,
                                       due_noise_s=400.0, seed=21, count=3), d)
    return d


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli.main(["frobnicate", "--config", "x.json"]) == 1
    assert "usage" in capsys.readouterr().err


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1


def test_missing_config_file_is_data_error(tmp_path, capsys):
    assert cli.main(["generate", "--config", str(tmp_path / "missing.json")]) == 2
    assert "data error" in capsys.readouterr().err


def test_main_reuses_one_parser_with_unchanged_usage_and_exit_codes(tmp_path, inst_dir,
                                                                    capsys):
    bad = ["validate", "--seed", "x", "--config"]  # a usage error in the subparser
    assert cli.main(bad) == 1
    first = capsys.readouterr().err
    assert cli.main(["validate", "--config",
                     write_cfg(tmp_path, "v.json", {"instance_dir": str(inst_dir)})]) == 0
    assert "OK" in capsys.readouterr().out
    assert cli.main(bad) == 1
    assert capsys.readouterr().err == first and "invalid int value" in first
    assert cli.build_parser() is cli.build_parser()


def test_generate_writes_files_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, "gen.json", {
        "generator": {"n_jobs": 4, "n_stations": 2, "seed": 5, "count": 2},
        "out_dir": str(tmp_path / "out")})
    assert cli.main(["generate", "--config", cfg]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["files"]) == 2
    for name in manifest["files"]:
        assert (tmp_path / "out" / name).exists()


def test_generate_rejects_bad_generator_field(tmp_path):
    cfg = write_cfg(tmp_path, "gen.json", {
        "generator": {"n_jobs": 4, "bogus": 1}, "out_dir": str(tmp_path / "o")})
    assert cli.main(["generate", "--config", cfg]) == 2


def test_validate_ok_and_invalid(tmp_path, inst_dir, capsys):
    cfg = write_cfg(tmp_path, "val.json", {"instance_dir": str(inst_dir)})
    assert cli.main(["validate", "--config", cfg]) == 0
    assert "OK" in capsys.readouterr().out

    bad = {"id": "bad", "station_time_s": 100,
           "jobs": [{"p_s": [150.0], "due_s": 10.0}, {"p_s": [50.0], "due_s": 5.0}]}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    cfg2 = write_cfg(tmp_path, "val2.json", {"instances": [str(bad_path)]})
    assert cli.main(["validate", "--config", cfg2]) == 2
    assert "INVALID" in capsys.readouterr().out


def test_heatmap_subcommand(tmp_path, inst_dir):
    inst_file = sorted(inst_dir.glob("syn-*.json"))[0]
    cfg = write_cfg(tmp_path, "hm.json", {
        "instance": str(inst_file), "permutation": "edd",
        "out_base": str(tmp_path / "hm")})
    assert cli.main(["heatmap", "--config", cfg]) == 0
    assert (tmp_path / "hm.csv").exists() and (tmp_path / "hm.svg").exists()


def test_heatmap_explicit_permutation(tmp_path, inst_dir):
    inst_file = sorted(inst_dir.glob("syn-*.json"))[0]
    cfg = write_cfg(tmp_path, "hm2.json", {
        "instance": str(inst_file), "permutation": [2, 1, 3, 5, 4],
        "out_base": str(tmp_path / "hm2")})
    assert cli.main(["heatmap", "--config", cfg]) == 0


@pytest.mark.parametrize("perm", [[1, 1, 2, 3, 4], [0, 2, 3, 4, 5], [1, 2, 3], [1, 2, 3, 4, 6],
                                  "21345", [1, 2, 3, 4.7, 5], [True, 2, 3, 4, 5],
                                  [1, 2, 3, 4, 10**23]])
def test_heatmap_rejects_non_permutation(tmp_path, inst_dir, capsys, perm):
    # N=5: a repeat, a 0 (wrapped to the last job), a short list, an index past
    # N, a digit string, a float and a bool (each once read as a valid order),
    # and an integer past int64 (once a runtime fault)
    inst_file = sorted(inst_dir.glob("syn-*.json"))[0]
    cfg = write_cfg(tmp_path, "hm3.json", {
        "instance": str(inst_file), "permutation": perm,
        "out_base": str(tmp_path / "hm3")})
    assert cli.main(["heatmap", "--config", cfg]) == 2
    assert "not a valid permutation" in capsys.readouterr().err
    assert not (tmp_path / "hm3.csv").exists() and not (tmp_path / "hm3.svg").exists()


def test_oracle_subcommand(tmp_path, inst_dir, capsys):
    inst_file = sorted(inst_dir.glob("syn-*.json"))[0]
    cfg = write_cfg(tmp_path, "oracle.json", {
        "instance": str(inst_file), "objective_name": "fc",
        "out": str(tmp_path / "oracle.json.out")})
    assert cli.main(["oracle", "--config", cfg]) == 0
    rec = json.loads((tmp_path / "oracle.json.out").read_text())
    assert rec["value"] >= 0.0
    perm, value = brute_force_best(load_instance(inst_file), ObjectiveConfig())
    assert rec["best_permutation_1based"] == [int(j) + 1 for j in perm]
    assert rec["value"] == value


def test_oracle_refuses_too_many_jobs(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("oracle tables built for a refused instance")
    monkeypatch.setattr(bench, "ObjectiveTables", refuse)
    n = bench.ORACLE_MAX_JOBS + 1
    generate_instances(GeneratorConfig(n_jobs=n, n_stations=2, seed=4, count=1), tmp_path / "big")
    cfg = write_cfg(tmp_path, "oracle.json", {
        "instance": str(tmp_path / "big" / "syn-4-0000.json"),
        "out": str(tmp_path / "oracle.json.out")})
    assert cli.main(["oracle", "--config", cfg]) == 2
    assert f"N={n} > {bench.ORACLE_MAX_JOBS}" in capsys.readouterr().err
    assert not (tmp_path / "oracle.json.out").exists()


def test_train_rejects_wide_general_feature(tmp_path, inst_dir, capsys):
    cfg = write_cfg(tmp_path, "train.json", {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16, "d_gen": 2},
        "ppo": {"total_env_steps": 50, "train_batch_size": 50, "minibatch_size": 25},
        "out_dir": str(tmp_path / "run")})
    assert cli.main(["train", "--config", cfg]) == 2
    assert "d_gen" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


# checkpoint_every=-5 is left to test_ppo: at the parent train spun forever on it
@pytest.mark.parametrize("field,value", [
    ("checkpoint_every", 0), ("n_rollout_workers", 0), ("n_rollout_workers", -2),
    ("epochs_per_batch", 0), ("minibatch_size", 0), ("train_batch_size", 0)])
def test_train_rejects_ppo_counts_below_one(tmp_path, inst_dir, capsys, field, value):
    cfg = write_cfg(tmp_path, "train.json", {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "ppo": {"total_env_steps": 50, "train_batch_size": 50, "minibatch_size": 25,
                "epochs_per_batch": 1, field: value},
        "episode": {"step_budget": 5},
        "out_dir": str(tmp_path / "run")})
    assert cli.main(["train", "--config", cfg]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_loads_each_pool_file_once(tmp_path, inst_dir, monkeypatch):
    loaded = []

    def counted(path, _load=bench.load_instance):
        loaded.append(path)
        return _load(path)

    monkeypatch.setattr(bench, "load_instance", counted)
    cfg = write_cfg(tmp_path, "train.json", {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "ppo": {"total_env_steps": 50, "train_batch_size": 50, "minibatch_size": 25},
        "episode": {"step_budget": 5},
        "out_dir": str(tmp_path / "run")})
    assert cli.main(["train", "--config", cfg]) == 0
    assert len(loaded) == 3  # the pool's size: the digest hashes the loaded pool
    exp = json.loads((tmp_path / "run" / "experiment_config.json").read_text())
    assert exp["pool_digest"] == bench.pool_digest(bench.load_pool(inst_dir))


def test_train_and_infer_roundtrip(tmp_path, inst_dir, capsys):
    train_cfg = write_cfg(tmp_path, "train.json", {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "ppo": {"total_env_steps": 50, "train_batch_size": 50,
                "minibatch_size": 25, "epochs_per_batch": 2, "seed": 3},
        "episode": {"step_budget": 5},
        "out_dir": str(tmp_path / "run")})
    assert cli.main(["train", "--config", train_cfg]) == 0
    ckpts = sorted((tmp_path / "run").glob("*.ckpt"))
    assert ckpts

    infer_cfg = write_cfg(tmp_path, "infer.json", {
        "instance_dir": str(inst_dir), "strategy": "mr",
        "checkpoint": str(ckpts[-1]),
        "inference": {"runs_per_policy": 2, "step_budget": 5, "seed": 1},
        "out": str(tmp_path / "results.jsonl")})
    assert cli.main(["infer", "--config", infer_cfg]) == 0
    records = [json.loads(l) for l in open(tmp_path / "results.jsonl")]
    assert len(records) == 3
    assert all(r["steps"] == 10 for r in records)

    # rerun -> byte identical results
    before = (tmp_path / "results.jsonl").read_bytes()
    assert cli.main(["infer", "--config", infer_cfg]) == 0
    assert (tmp_path / "results.jsonl").read_bytes() == before


def test_infer_mpmr_from_checkpoint_dir(tmp_path, inst_dir, monkeypatch):
    train_cfg = write_cfg(tmp_path, "train.json", {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "ppo": {"total_env_steps": 100, "train_batch_size": 50,
                "minibatch_size": 25, "epochs_per_batch": 2,
                "checkpoint_every": 50, "seed": 4},
        "episode": {"step_budget": 5},
        "out_dir": str(tmp_path / "run2")})
    assert cli.main(["train", "--config", train_cfg]) == 0
    infer_cfg = write_cfg(tmp_path, "mpmr.json", {
        "instance_dir": str(inst_dir), "strategy": "mpmr",
        "checkpoint_dir": str(tmp_path / "run2"),
        "inference": {"runs_per_policy": 2, "step_budget": 5, "seed": 1},
        "out": str(tmp_path / "mpmr.jsonl")})
    hashed = []

    def counted(path, _digest=policynet.checkpoint_digest):
        hashed.append(path)
        return _digest(path)

    monkeypatch.setattr(policynet, "checkpoint_digest", counted)
    assert cli.main(["infer", "--config", infer_cfg]) == 0
    recs = [json.loads(l) for l in open(tmp_path / "mpmr.jsonl")]
    assert all(len(r["checkpoint_digests"]) >= 2 for r in recs)
    assert len(recs) > 1 and sorted(hashed) == sorted(set(hashed))  # each file hashed once
    assert len(hashed) == len(recs[0]["checkpoint_digests"])


def test_infer_rejects_checkpoint_paths_in_inference_config(tmp_path, inst_dir, capsys):
    # the checkpoints of an infer run come from "checkpoint(s)"/"checkpoint_dir" only
    net = policynet.NetConfig(d_in=6, d_h=8, n_heads=2, n_layers=1, d_ff=16)
    ckpt = str(tmp_path / "a.ckpt")
    policynet.save_checkpoint(ckpt, policynet.init_params(net, seed=1), net)
    cfg = write_cfg(tmp_path, "mpmr.json", {
        "instance_dir": str(inst_dir), "strategy": "mpmr", "checkpoints": [ckpt],
        "inference": {"runs_per_policy": 2, "step_budget": 3, "checkpoint_paths": [ckpt]},
        "out": str(tmp_path / "mpmr.jsonl")})
    assert cli.main(["infer", "--config", cfg]) == 2
    assert "unknown InferenceConfig field" in capsys.readouterr().err
    assert not (tmp_path / "mpmr.jsonl").exists()


def test_bench_subcommand_without_checkpoints_exits_zero(tmp_path, inst_dir, capsys):
    cfg = write_cfg(tmp_path, "bench.json", {
        "splits": {"test": {"instance_dir": str(inst_dir)}},
        "methods": [{"type": "identity", "name": "EDD"},
                    {"type": "sa", "steps": 30},
                    {"type": "rl_mr", "checkpoint": str(tmp_path / "missing.ckpt")}],
        "out_dir": str(tmp_path / "bench_out"), "seed": 0})
    assert cli.main(["bench", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert "skipping" in err
    assert (tmp_path / "bench_out" / "table.csv").exists()


@pytest.mark.parametrize("method,field", [
    ({"type": "rl_mr", "runs_per_policy": 2}, "checkpoint"),
    ({"type": "rl_mpmr"}, "checkpoints or checkpoint_dir"),
    ({"type": "sa"}, "steps"),
    ({"type": "tabu"}, "unknown type 'tabu'"),
    ({"steps": 30}, "unknown type None"),
], ids=["rl_mr", "rl_mpmr", "sa", "unknown", "untyped"])
def test_bench_rejects_malformed_method_before_writing(tmp_path, inst_dir, capsys, method,
                                                       field):
    cfg = write_cfg(tmp_path, "bench.json", {
        "splits": {"test": {"instance_dir": str(inst_dir)}},
        "methods": [{"type": "identity", "name": "EDD"}, method],
        "out_dir": str(tmp_path / "bench_out"), "seed": 0})
    assert cli.main(["bench", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bench method 2" in err and field in err
    assert not (tmp_path / "bench_out" / "results.jsonl").exists()


def test_seed_override_changes_output(tmp_path, inst_dir):
    base = {"generator": {"n_jobs": 4, "n_stations": 2, "seed": 5, "count": 1},
            "out_dir": str(tmp_path / "s1")}
    cfg = write_cfg(tmp_path, "g.json", base)
    assert cli.main(["generate", "--config", cfg]) == 0
    base["out_dir"] = str(tmp_path / "s2")
    cfg = write_cfg(tmp_path, "g.json", base)
    assert cli.main(["generate", "--config", cfg, "--seed", "6"]) == 0
    m1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())
    assert m1["config_digest"] != m2["config_digest"]


@pytest.fixture
def ckpt_dir(tmp_path):
    d = tmp_path / "ckpts"
    d.mkdir()
    net = policynet.NetConfig(d_in=6, d_h=8, n_heads=2, n_layers=1, d_ff=16)
    params = policynet.init_params(net, seed=1)
    for step in range(0, 700, 100):  # seven checkpoints
        policynet.save_checkpoint(d / f"ckpt_{step:010d}.ckpt", params, net, training_step=step)
    return d


@pytest.mark.parametrize("n_earlier,want", [(0, 1), (2, 3), (10, 7)])
def test_infer_mpmr_n_earlier_selects_final_plus_earlier(tmp_path, inst_dir, ckpt_dir,
                                                         n_earlier, want):
    cfg = write_cfg(tmp_path, "mpmr.json", {
        "instance_dir": str(inst_dir), "strategy": "mpmr", "checkpoint_dir": str(ckpt_dir),
        "n_earlier": n_earlier, "inference": {"runs_per_policy": 2, "step_budget": 2},
        "out": str(tmp_path / "mpmr.jsonl")})
    assert cli.main(["infer", "--config", cfg]) == 0
    recs = [json.loads(l) for l in open(tmp_path / "mpmr.jsonl")]
    assert [len(r["checkpoint_digests"]) for r in recs] == [want] * 3


BAD_N_EARLIER = [-2, 2.5, True, "3"]


@pytest.mark.parametrize("n_earlier", BAD_N_EARLIER)
def test_infer_rejects_bad_n_earlier_before_writing(tmp_path, inst_dir, ckpt_dir, capsys,
                                                     n_earlier):
    cfg = write_cfg(tmp_path, "mpmr.json", {
        "instance_dir": str(inst_dir), "strategy": "mpmr", "checkpoint_dir": str(ckpt_dir),
        "n_earlier": n_earlier, "inference": {"runs_per_policy": 2, "step_budget": 2},
        "out": str(tmp_path / "mpmr.jsonl")})
    assert cli.main(["infer", "--config", cfg]) == 2
    assert "n_earlier" in capsys.readouterr().err
    assert not (tmp_path / "mpmr.jsonl").exists()


@pytest.mark.parametrize("n_earlier", BAD_N_EARLIER)
def test_bench_rejects_bad_n_earlier_before_writing(tmp_path, inst_dir, ckpt_dir, capsys,
                                                    n_earlier):
    cfg = write_cfg(tmp_path, "bench.json", {
        "splits": {"test": {"instance_dir": str(inst_dir)}},
        "methods": [{"type": "rl_mpmr", "checkpoint_dir": str(ckpt_dir),
                     "n_earlier": n_earlier, "runs_per_policy": 2, "step_budget": 2}],
        "out_dir": str(tmp_path / "bench_out"), "seed": 0})
    assert cli.main(["bench", "--config", cfg]) == 2
    assert "n_earlier" in capsys.readouterr().err
    assert not (tmp_path / "bench_out").exists()


BAD_COUNTS = [2.5, "300", True]


@pytest.mark.parametrize("value", BAD_COUNTS)
@pytest.mark.parametrize("method,field", [
    ({"type": "sa"}, "steps"),
    ({"type": "sa", "steps": 30}, "trace_stride"),
    ({"type": "sh", "max_skip": 4}, "window"),
    ({"type": "sh", "window": 4}, "max_skip"),
    ({"type": "random_mr"}, "runs_per_policy"),
    ({"type": "random_mr"}, "step_budget"),
], ids=["sa-steps", "sa-trace_stride", "sh-window", "sh-max_skip", "runs_per_policy",
        "step_budget"])
def test_bench_rejects_a_count_that_is_not_an_integer_before_writing(tmp_path, inst_dir,
                                                                     capsys, method, field,
                                                                     value):
    cfg = write_cfg(tmp_path, "bench.json", {
        "splits": {"test": {"instance_dir": str(inst_dir)}},
        "methods": [{"type": "identity", "name": "EDD"}, {**method, field: value}],
        "out_dir": str(tmp_path / "bench_out"), "seed": 0})
    assert cli.main(["bench", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "bench method 2" in err and field in err
    assert not (tmp_path / "bench_out").exists()


def test_bench_rejects_a_temperature_that_is_not_a_number_before_writing(tmp_path, inst_dir,
                                                                         capsys):
    cfg = write_cfg(tmp_path, "bench.json", {
        "splits": {"test": {"instance_dir": str(inst_dir)}},
        "methods": [{"type": "sa", "steps": 30, "t_max": "72"}],
        "out_dir": str(tmp_path / "bench_out"), "seed": 0})
    assert cli.main(["bench", "--config", cfg]) == 2
    assert "bench method 1 (sa)" in capsys.readouterr().err
    assert not (tmp_path / "bench_out").exists()


@pytest.mark.parametrize("value", BAD_COUNTS)
def test_generate_rejects_a_count_that_is_not_an_integer_before_writing(tmp_path, capsys,
                                                                        value):
    cfg = write_cfg(tmp_path, "gen.json", {
        "generator": {"n_jobs": 4, "n_stations": 2, "count": value},
        "out_dir": str(tmp_path / "out")})
    assert cli.main(["generate", "--config", cfg]) == 2
    assert "count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", BAD_COUNTS)
@pytest.mark.parametrize("section,field", [
    ("ppo", "total_env_steps"), ("ppo", "train_batch_size"), ("ppo", "epochs_per_batch"),
    ("ppo", "checkpoint_every"), ("ppo", "lr_warmup_env_steps"),
    ("ppo", "entropy_warmup_env_steps"), ("ppo", "n_rollout_workers"),
    ("episode", "step_budget")])
def test_train_rejects_a_count_that_is_not_an_integer_before_writing(tmp_path, inst_dir,
                                                                     capsys, section, field,
                                                                     value):
    payload = {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
        "ppo": {"total_env_steps": 50, "train_batch_size": 50, "minibatch_size": 25,
                "epochs_per_batch": 1},
        "episode": {"step_budget": 5},
        "out_dir": str(tmp_path / "run")}
    payload[section][field] = value
    assert cli.main(["train", "--config", write_cfg(tmp_path, "train.json", payload)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", BAD_COUNTS)
@pytest.mark.parametrize("field", ["runs_per_policy", "step_budget"])
def test_infer_rejects_a_count_that_is_not_an_integer_before_writing(tmp_path, inst_dir,
                                                                     ckpt_dir, capsys, field,
                                                                     value):
    inference = {"runs_per_policy": 2, "step_budget": 2, field: value}
    cfg = write_cfg(tmp_path, "mpmr.json", {
        "instance_dir": str(inst_dir), "strategy": "mpmr", "checkpoint_dir": str(ckpt_dir),
        "inference": inference, "out": str(tmp_path / "mpmr.jsonl")})
    assert cli.main(["infer", "--config", cfg]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "mpmr.jsonl").exists()


BAD_SEEDS = [2.5, -1, "3", True]


def _seeded_config(command, tmp_path, inst_dir, ckpt_dir, seed):
    """A small config of ``command`` with ``seed`` in its seed field, and the
    path of the output it writes."""
    if command == "generate":
        out = tmp_path / "out"
        return {"generator": {"n_jobs": 4, "n_stations": 2, "seed": seed},
                "out_dir": str(out)}, out
    if command == "train":
        out = tmp_path / "run"
        return {"instance_dir": str(inst_dir),
                "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
                "ppo": {"total_env_steps": 50, "train_batch_size": 50, "minibatch_size": 25,
                        "epochs_per_batch": 1, "seed": seed},
                "out_dir": str(out)}, out
    if command == "infer":
        out = tmp_path / "mpmr.jsonl"
        return {"instance_dir": str(inst_dir), "strategy": "mpmr",
                "checkpoint_dir": str(ckpt_dir),
                "inference": {"runs_per_policy": 2, "step_budget": 2, "seed": seed},
                "out": str(out)}, out
    out = tmp_path / "bench_out"
    return {"splits": {"test": {"instance_dir": str(inst_dir)}},
            "methods": [{"type": "identity", "name": "EDD"}],
            "out_dir": str(out), "seed": seed}, out


SEEDED_COMMANDS = ["generate", "train", "infer", "bench"]


@pytest.mark.parametrize("seed", BAD_SEEDS)
@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_a_seed_that_is_not_a_count_exits_2_before_writing(tmp_path, inst_dir, ckpt_dir, capsys,
                                                          command, seed):
    payload, out = _seeded_config(command, tmp_path, inst_dir, ckpt_dir, seed)
    assert cli.main([command, "--config", write_cfg(tmp_path, "seeded.json", payload)]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", SEEDED_COMMANDS)
def test_a_negative_seed_override_exits_2_before_writing(tmp_path, inst_dir, ckpt_dir, capsys,
                                                        command):
    payload, out = _seeded_config(command, tmp_path, inst_dir, ckpt_dir, 0)
    cfg = write_cfg(tmp_path, "seeded.json", payload)
    assert cli.main([command, "--config", cfg, "--seed", "-1"]) == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def _patched(payload, place, patch):
    """``payload`` with ``patch`` merged into ``place``: the top level (None),
    a config object such as "ppo", the bench split "a" or a bench rl_mpmr
    method; a None value in ``patch`` deletes its key. Place "array" wraps
    the payload in a JSON array."""
    if place == "array":
        return [payload]
    if place == "split":
        payload["splits"] = {"a": dict(payload["splits"]["test"])}
        target = payload["splits"]["a"]
    elif place == "method":
        payload["methods"] = [{"type": "rl_mpmr", "runs_per_policy": 2, "step_budget": 2}]
        target = payload["methods"][0]
    else:
        target = payload if place is None else payload.setdefault(place, {})
    for key, value in patch.items():
        target.pop(key, None)
        if value is not None:
            target[key] = value
    return payload


MISSING, CKPT_DIR, INST_DIR, CKPTS = "<missing>", "<ckpt_dir>", "<inst_dir>", "<ckpts>"
NUMBER = 999  # above any file descriptor a test holds open


# every case names the config it reads and the field at fault
@pytest.mark.parametrize("command,place,patch,message", [
    ("bench", "split", {"instance_dir": None}, "bench split 'a' needs instances or instance_dir"),
    ("validate", None, {"instance_dir": None}, "config needs instances or instance_dir"),
    ("infer", None, {"strategy": "mr"}, "infer strategy 'mr' needs checkpoint"),
    ("infer", None, {"checkpoint_dir": None},
     "infer strategy 'mpmr' needs checkpoints or checkpoint_dir"),
    ("train", None, {"instances": [], "instance_dir": None}, "config: instances names no"),
    ("infer", None, {"instances": [], "instance_dir": None}, "config: instances names no"),
    ("bench", "split", {"instances": [], "instance_dir": None},
     "bench split 'a': instances names no"),
    ("validate", None, {"instances": [], "instance_dir": INST_DIR}, "config: instances names no"),
    ("train", None, {"instances": [], "instance_dir": INST_DIR}, "config: instances names no"),
    ("validate", None, {"instance_dir": MISSING}, "config: instance_dir"),
    ("infer", None, {"instance_dir": MISSING}, "config: instance_dir"),
    ("validate", None, {"instances": "a.json"}, "config: instances must be a list"),
    ("infer", None, {"instances": "a.json"}, "config: instances must be a list"),
    ("infer", None, {"checkpoints": "a.ckpt"},
     "infer strategy 'mpmr': checkpoints must be a list"),
    ("bench", "method", {"checkpoints": "a.ckpt"},
     "bench method 1 (rl_mpmr): checkpoints must be a list"),
    ("infer", None, {"checkpoints": [], "checkpoint_dir": CKPT_DIR},
     "no checkpoints found"),
    ("train", "objective", {"alpha1": "1"}, "ObjectiveConfig field(s) ['alpha1']"),
    ("train", "ppo", {"clip_param": "0.2"}, "PPOConfig field(s) ['clip_param']"),
    ("train", "ppo", {"lr_start": "5e-4"}, "PPOConfig field(s) ['lr_start']"),
    ("train", "net", {"d_h": "32"}, "NetConfig field(s) ['d_h']"),
    ("train", "episode", {"gamma": "0.9"}, "EpisodeConfig field(s) ['gamma']"),
    ("generate", "generator", {"station_time_s": "208"},
     "GeneratorConfig field(s) ['station_time_s']"),
    ("infer", "inference", {"greedy": "no"},
     "InferenceConfig field(s) ['greedy']: greedy must be true or false"),
    ("generate", "array", {}, "config must be a JSON object"),
    ("bench", "array", {}, "config must be a JSON object"),
    ("heatmap", "array", {}, "config must be a JSON object"),
    ("oracle", "array", {}, "config must be a JSON object"),
    ("bench", None, {"splits": [{"instance_dir": "instances"}]},
     "config: splits must be an object"),
    ("bench", None, {"splits": {"a": "instances"}},
     "bench split 'a' must be an object with instances or instance_dir"),
    ("infer", None, {"checkpoints": CKPTS, "n_earlier": "x"},
     "infer strategy 'mpmr': n_earlier must be an integer >= 0"),
    ("bench", "method", {"checkpoints": CKPTS, "n_earlier": "x"},
     "bench method 1 (rl_mpmr): n_earlier must be an integer >= 0"),
    # a number where a path belongs, which open() would take for a file descriptor
    ("infer", None, {"strategy": "mr", "checkpoint": NUMBER},
     f"infer strategy 'mr': checkpoint must be a path, got {NUMBER}"),
    ("infer", None, {"checkpoint_dir": NUMBER},
     f"infer strategy 'mpmr': checkpoint_dir must be a path, got {NUMBER}"),
    ("bench", None, {"methods": [{"type": "rl_mr", "checkpoint": NUMBER}]},
     "bench method 1 (rl_mr): checkpoint must be a path"),
    ("bench", "method", {"checkpoint_dir": NUMBER},
     "bench method 1 (rl_mpmr): checkpoint_dir must be a path"),
    ("infer", None, {"out": NUMBER}, f"config: out must be a file path, got {NUMBER}"),
    ("train", None, {"resume_from": NUMBER}, "config: resume_from must be a file path"),
    ("oracle", None, {"out": NUMBER}, "config: out must be a file path"),
    ("heatmap", None, {"instance": NUMBER}, "config: instance must be a file path"),
    ("oracle", None, {"instance": NUMBER}, "config: instance must be a file path"),
    ("bench", None, {"methods": ["sa"]}, "bench method 1 must be an object, got 'sa'"),
    ("bench", None, {"methods": {"type": "sa", "steps": 30}},
     "methods must be a list of method objects"),
    # non-finite temperatures, and a ratio the schedule would divide by
    ("bench", None, {"methods": [{"type": "sa", "steps": 30, "t_max": math.inf}]},
     "bench method 1 (sa): t_max must be finite, got inf"),
    # a real-valued field given as JSON text or a bool names the field
    ("bench", None, {"methods": [{"type": "sa", "steps": 30, "t_max": "72"}]},
     "bench method 1 (sa): t_max must be a real number, got '72'"),
    ("bench", None, {"methods": [{"type": "sa", "steps": 30, "t_min": True}]},
     "bench method 1 (sa): t_min must be a real number, got True"),
    ("train", "episode", {"gamma": True},
     "EpisodeConfig field(s) ['gamma']: gamma must be a real number, got True"),
    ("train", "episode", {"gamma": math.nan},
     "EpisodeConfig field(s) ['gamma']: gamma must be finite, got nan"),
    ("bench", None, {"methods": [{"type": "sa", "steps": 30, "t_min": 1e-300, "t_max": 1e300}]},
     "bench method 1 (sa): t_min / t_max underflows to 0"),
    ("generate", None, {"out_dir": NUMBER}, "config: out_dir must be a file path"),
    ("train", None, {"out_dir": NUMBER}, "config: out_dir must be a file path"),
    ("bench", None, {"out_dir": NUMBER}, "config: out_dir must be a file path"),
    ("train", None, {"ppo": 5}, "PPOConfig must be a JSON object, got 5"),
    ("train", None, {"net": 5}, "NetConfig must be a JSON object, got 5"),
    ("generate", None, {"generator": 5}, "GeneratorConfig must be a JSON object, got 5"),
    # each field is checked against its annotation: an int, a finite real
    # number (JSON NaN and Infinity are not), a bool or a string
    ("train", "net", {"d_h": 8.0}, "NetConfig field(s) ['d_h']: d_h must be an integer >= 1"),
    ("train", "net", {"n_heads": 2.0},
     "NetConfig field(s) ['n_heads']: n_heads must be an integer >= 1, got 2.0"),
    ("train", "net", {"n_layers": True},
     "NetConfig field(s) ['n_layers']: n_layers must be an integer >= 1, got True"),
    ("train", "net", {"compat_init_gain": math.nan},
     "NetConfig field(s) ['compat_init_gain']: compat_init_gain must be finite, got nan"),
    ("train", "ppo", {"lr_start": math.nan},
     "PPOConfig field(s) ['lr_start']: lr_start must be finite, got nan"),
    ("train", "ppo", {"adam_eps": math.nan},
     "PPOConfig field(s) ['adam_eps']: adam_eps must be finite, got nan"),
    ("train", "ppo", {"value_coeff": True},
     "PPOConfig field(s) ['value_coeff']: value_coeff must be a real number, got True"),
    ("train", "ppo", {"grad_clip_norm": math.inf},
     "PPOConfig field(s) ['grad_clip_norm']: grad_clip_norm must be finite, got inf"),
    ("train", "objective", {"alpha1": math.nan},
     "ObjectiveConfig field(s) ['alpha1']: alpha1 must be finite, got nan"),
    ("train", "objective", {"tardiness_scale": math.inf},
     "ObjectiveConfig field(s) ['tardiness_scale']: tardiness_scale must be finite, got inf"),
    ("generate", "generator", {"station_time_s": math.nan},
     "GeneratorConfig field(s) ['station_time_s']: station_time_s must be finite, got nan"),
    ("generate", "generator", {"due_noise_s": math.nan},
     "GeneratorConfig field(s) ['due_noise_s']: due_noise_s must be finite, got nan"),
    ("generate", "generator", {"station_time_s": True},
     "GeneratorConfig field(s) ['station_time_s']: station_time_s must be a real number"),
    ("generate", "generator", {"due_slack_s": math.inf},
     "GeneratorConfig field(s) ['due_slack_s']: due_slack_s must be finite, got inf"),
    ("generate", "generator", {"due_slack_s": "10"},
     "GeneratorConfig field(s) ['due_slack_s']: due_slack_s must be a real number, got '10'"),
    ("heatmap", None, {"out_base": NUMBER}, f"config: out_base must be a file path, got {NUMBER}"),
    # a run of no env steps wrote an untrained checkpoint and exited 0
    ("train", "ppo", {"total_env_steps": 0},
     "PPOConfig field(s) ['total_env_steps']: total_env_steps must be an integer >= 1, got 0"),
    ("train", "ppo", {"total_env_steps": -50},
     "PPOConfig field(s) ['total_env_steps']: total_env_steps must be an integer >= 1, got -50"),
    ("train", "ppo", {"lr_warmup_env_steps": -1},
     "PPOConfig field(s) ['lr_warmup_env_steps']: lr_warmup_env_steps must be an integer >= 0"),
    ("train", "ppo", {"entropy_warmup_env_steps": -1},
     "PPOConfig field(s) ['entropy_warmup_env_steps']: entropy_warmup_env_steps must be an "
     "integer >= 0"),
    # a bench method reads only its type's keys; any other was ignored
    ("bench", None, {"methods": [{"type": "sa", "steps": 10, "t_mx": 50}]},
     "bench method 1 (sa) has unknown field(s): t_mx"),
    ("bench", None, {"methods": [{"type": "rl_mr", "checkpoint": "a.ckpt", "n_earlier": 2}]},
     "bench method 1 (rl_mr) has unknown field(s): n_earlier"),
    ("bench", None, {"methods": [{"type": "identity", "name": 5}]},
     "bench method 1 (identity): name must be a string, got 5"),
], ids=["bench", "validate", "infer-mr", "infer-mpmr", "train-empty", "infer-empty",
        "bench-empty", "validate-empty-over-dir", "train-empty-over-dir", "validate-missing-dir",
        "infer-missing-dir", "validate-string", "infer-string", "infer-checkpoints-string",
        "bench-checkpoints-string", "infer-empty-checkpoints-over-dir", "alpha1", "clip_param",
        "lr_start", "d_h", "gamma", "station_time_s", "greedy", "generate-array", "bench-array",
        "heatmap-array", "oracle-array", "bench-splits-array", "bench-split-string",
        "infer-n_earlier-beside-checkpoints", "bench-n_earlier-beside-checkpoints",
        "infer-checkpoint-number", "infer-checkpoint_dir-number", "bench-checkpoint-number",
        "bench-checkpoint_dir-number", "infer-out-number", "train-resume_from-number",
        "oracle-out-number", "heatmap-instance-number", "oracle-instance-number",
        "bench-method-string", "bench-methods-object", "sa-t_max-inf", "sa-t_max-string",
        "sa-t_min-bool", "gamma-bool", "gamma-nan", "sa-ratio-underflow",
        "generate-out_dir-number", "train-out_dir-number", "bench-out_dir-number",
        "train-ppo-number", "train-net-number", "generate-generator-number", "d_h-float",
        "n_heads-float", "n_layers-bool", "compat_init_gain-nan", "lr_start-nan", "adam_eps-nan",
        "value_coeff-bool", "grad_clip_norm-inf", "alpha1-nan", "tardiness_scale-inf",
        "station_time_s-nan", "due_noise_s-nan", "station_time_s-bool", "due_slack_s-inf",
        "due_slack_s-string", "heatmap-out_base-number", "total_env_steps-0",
        "total_env_steps-negative", "lr_warmup_env_steps-negative",
        "entropy_warmup_env_steps-negative", "bench-sa-unknown-key",
        "bench-rl_mr-unknown-key", "bench-name-number"])
def test_a_bad_config_value_exits_2_before_writing(tmp_path, inst_dir, ckpt_dir, capsys,
                                                   monkeypatch, command, place, patch, message):
    monkeypatch.chdir(tmp_path)  # where a path given as a number would be written
    if command == "validate":
        payload, out = {"instance_dir": str(inst_dir)}, None
    elif command in ("heatmap", "oracle"):
        out = tmp_path / "out"
        payload = {"instance": str(bench.pool_files(inst_dir)[0]),
                   "out_base" if command == "heatmap" else "out": str(out)}
    else:
        payload, out = _seeded_config(command, tmp_path, inst_dir, ckpt_dir, 0)
    names = {MISSING: str(tmp_path / "missing"), CKPT_DIR: str(ckpt_dir),
             INST_DIR: str(inst_dir), CKPTS: sorted(str(p) for p in ckpt_dir.glob("*.ckpt"))}
    patch = {k: names.get(v, v) if isinstance(v, str) else v for k, v in patch.items()}
    payload = _patched(payload, place, patch)
    cfg = write_cfg(tmp_path, "bad.json", payload)
    before = sorted(tmp_path.iterdir())
    assert cli.main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert f"data error: {message}" in captured.err
    assert captured.out == ""  # not one instance checked, not one record or table
    assert out is None or not any(tmp_path.glob(f"{out.name}*"))  # heatmap: out.csv, out.svg
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize("command,key", [("infer", "out"), ("infer", "checkpoint"),
                                         ("train", "resume_from")])
def test_an_open_file_descriptor_number_is_not_taken_for_a_path(tmp_path, inst_dir, ckpt_dir,
                                                               capsys, command, key):
    # open() takes an int for a file descriptor of the calling process: it would
    # write into, or read, that file and then close the descriptor
    held = tmp_path / "held.txt"
    held.write_text("held\n")
    payload, out = _seeded_config(command, tmp_path, inst_dir, ckpt_dir, 0)
    if key == "checkpoint":
        payload["strategy"] = "mr"
    with open(held, "r+") as fh:
        payload[key] = fh.fileno()
        assert cli.main([command, "--config", write_cfg(tmp_path, "fd.json", payload)]) == 2
        assert "must be a" in capsys.readouterr().err
        os.fstat(fh.fileno())  # OSError once the descriptor is closed
    assert held.read_text() == "held\n"
    assert not out.exists()


def test_bench_takes_an_empty_checkpoint_list_over_checkpoint_dir_as_a_warning_row(
        tmp_path, inst_dir, ckpt_dir, capsys):
    payload, out = _seeded_config("bench", tmp_path, inst_dir, ckpt_dir, 0)
    payload = _patched(payload, "method", {"checkpoints": [], "checkpoint_dir": str(ckpt_dir)})
    assert cli.main(["bench", "--config", write_cfg(tmp_path, "bench.json", payload)]) == 0
    assert "skipping RL-MPMR" in capsys.readouterr().err
    assert (out / "table.csv").read_text().splitlines()[1:] == ["RL-MPMR,test,,,,,"]


def test_bench_prints_its_missing_checkpoint_warning_once(tmp_path, inst_dir):
    # a subprocess, so an unconfigured logger would write to stderr as well
    payload, out = _seeded_config("bench", tmp_path, inst_dir, None, 0)
    payload["methods"].append({"type": "rl_mr", "checkpoint": str(tmp_path / "missing.ckpt")})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-m", "swapsched.cli", "bench", "--config",
                           write_cfg(tmp_path, "bench.json", payload)],
                          capture_output=True, text=True, env=env, check=False)
    assert done.returncode == 0, done.stderr
    assert [l for l in done.stderr.splitlines() if "skipping" in l] == [
        "warning: skipping RL-MR: checkpoint file(s) missing"]
    assert (out / "table.csv").read_text().splitlines()[-1] == "RL-MR,test,,,,,"


def test_infer_mpmr_reads_a_one_file_checkpoint_set_once(tmp_path, inst_dir, ckpt_dir,
                                                         monkeypatch):
    payload, out = _seeded_config("infer", tmp_path, inst_dir, ckpt_dir, 0)
    payload["checkpoints"] = [str(ckpt_dir / "ckpt_0000000600.ckpt")]
    loads = []

    def counted(path, _load=policynet.load_checkpoint):
        loads.append(path)
        return _load(path)

    monkeypatch.setattr(policynet, "load_checkpoint", counted)
    assert cli.main(["infer", "--config", write_cfg(tmp_path, "mpmr.json", payload)]) == 0
    assert len(out.read_text().splitlines()) == 3
    assert loads == payload["checkpoints"]  # once for 3 instances, not once per instance


def test_validate_checks_exactly_the_files_train_loads(tmp_path, inst_dir, capsys, monkeypatch):
    # a stray instance file the manifest does not list, which train never loads
    (inst_dir / "stray.json").write_text(json.dumps({"id": "stray", "station_time_s": 100,
                                                     "jobs": [{"p_s": [150.0], "due_s": 1.0}]}))
    assert cli.main(["validate", "--config",
                     write_cfg(tmp_path, "v.json", {"instance_dir": str(inst_dir)})]) == 0
    checked = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()]

    loaded = []

    def counted(path, _load=bench.load_instance):
        loaded.append(str(path))
        return _load(path)

    monkeypatch.setattr(bench, "load_instance", counted)
    payload, _ = _seeded_config("train", tmp_path, inst_dir, None, 0)
    payload["episode"] = {"step_budget": 5}
    assert cli.main(["train", "--config", write_cfg(tmp_path, "t.json", payload)]) == 0
    assert checked == loaded and len(loaded) == 3


def _tree_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


@pytest.mark.parametrize("change", ["net", "resume_from"])
def test_a_refused_resume_leaves_the_run_directory_as_it_was(tmp_path, inst_dir, capsys, change):
    payload, run = _seeded_config("train", tmp_path, inst_dir, None, 0)
    payload["episode"] = {"step_budget": 5}
    assert cli.main(["train", "--config", write_cfg(tmp_path, "t.json", payload)]) == 0
    before = _tree_bytes(run)
    payload["ppo"]["total_env_steps"] = 100  # the resumed run goes on
    payload["resume_from"] = str(run / "ckpt_0000000050.ckpt")
    if change == "net":
        payload["net"]["d_h"] = 16
    else:
        payload["resume_from"] = str(run / "ckpt_0000000040.ckpt")
    assert cli.main(["train", "--config", write_cfg(tmp_path, "r.json", payload)]) == 2
    err = capsys.readouterr().err
    assert ("different net config" if change == "net" else "ckpt_0000000040") in err
    assert _tree_bytes(run) == before


# the config dataclasses each subcommand builds from its config file
CONFIG_CLASSES = {
    "generate": [GeneratorConfig],
    "train": [ObjectiveConfig, policynet.NetConfig, ppo.PPOConfig, ppo.EpisodeConfig],
    "infer": [ObjectiveConfig, inference.InferenceConfig],
    "bench": [ObjectiveConfig],
    "oracle": [ObjectiveConfig],
}


@pytest.mark.parametrize("command", sorted(CONFIG_CLASSES))
def test_help_names_every_config_field(command):
    docs = cli.CONFIG_DOCS[command]
    missing = [f"{cls.__name__}.{f.name}" for cls in CONFIG_CLASSES[command]
               for f in fields(cls) if not re.search(rf"\b{f.name}\b", docs)]
    assert missing == []
