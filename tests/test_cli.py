import json
from pathlib import Path

import numpy as np
import pytest

from swapsched import cli, policynet
from swapsched.bench import GeneratorConfig, generate_instances


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


def test_oracle_subcommand(tmp_path, inst_dir, capsys):
    inst_file = sorted(inst_dir.glob("syn-*.json"))[0]
    cfg = write_cfg(tmp_path, "oracle.json", {
        "instance": str(inst_file), "objective_name": "fc",
        "out": str(tmp_path / "oracle.json.out")})
    assert cli.main(["oracle", "--config", cfg]) == 0
    rec = json.loads((tmp_path / "oracle.json.out").read_text())
    assert rec["value"] >= 0.0
    assert sorted(rec["best_permutation_1based"]) == [1, 2, 3, 4, 5]


def test_train_rejects_wide_general_feature(tmp_path, inst_dir, capsys):
    cfg = write_cfg(tmp_path, "train.json", {
        "instance_dir": str(inst_dir),
        "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16, "d_gen": 2},
        "ppo": {"total_env_steps": 50, "train_batch_size": 50, "minibatch_size": 25},
        "out_dir": str(tmp_path / "run")})
    assert cli.main(["train", "--config", cfg]) == 2
    assert "d_gen" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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


def test_infer_mpmr_from_checkpoint_dir(tmp_path, inst_dir):
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
    assert cli.main(["infer", "--config", infer_cfg]) == 0
    recs = [json.loads(l) for l in open(tmp_path / "mpmr.jsonl")]
    assert all(len(r["checkpoint_digests"]) >= 2 for r in recs)


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
