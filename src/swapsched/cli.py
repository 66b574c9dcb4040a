"""Command-line entry point.

Every subcommand reads a JSON config file (``--config``) and accepts a
``--seed`` override. Exit codes: 0 success, 1 usage error, 2 data error
(unreadable/invalid inputs), 3 runtime fault.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bench, inference, policynet, ppo
from .schedcore import (ObjectiveConfig, edd_sort, instance_from_dict, load_instance,
                        validate_instance)

USAGE_ERROR, DATA_ERROR, RUNTIME_ERROR = 1, 2, 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _dataclass_from(cls, data: dict, override_seed=None):
    names = {f.name for f in fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} field(s): {sorted(unknown)}")
    kwargs = dict(data)
    if override_seed is not None and "seed" in names:
        kwargs["seed"] = override_seed
    try:
        return cls(**kwargs)
    except TypeError as exc:  # JSON text or a list where a number belongs
        wrong = [k for k, v in kwargs.items()
                 if isinstance(v, (str, list, dict)) and not isinstance(getattr(cls, k, 0), str)]
        raise ValueError(f"{cls.__name__} field(s) {wrong}: {exc}") from exc


def _load_config(path) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ValueError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config must be a JSON object, not {type(cfg).__name__}: {path}")
    return cfg


def _instance_files(cfg: dict, where: str = "config") -> list:
    """The instance set of a config or bench split, named ``where`` in
    errors: ``instances`` if present, else ``instance_dir``'s pool files."""
    if not isinstance(cfg, dict):
        raise ValueError(f"{where} must be an object with instances or instance_dir, "
                         f"got {cfg!r}")
    if "instances" in cfg:
        key, files = "instances", cfg["instances"]
        if not (isinstance(files, list) and all(isinstance(p, str) for p in files)):
            raise ValueError(f"{where}: instances must be a list of file paths, got {files!r}")
    elif "instance_dir" in cfg:
        key, d = "instance_dir", cfg["instance_dir"]
        if not (isinstance(d, str) and Path(d).is_dir()):
            raise ValueError(f"{where}: instance_dir {d!r} is not a directory")
        files = bench.pool_files(d)
    else:
        raise ValueError(f"{where} needs instances or instance_dir")
    if not files:
        raise ValueError(f"{where}: {key} names no instance files")
    return files


def _objective(cfg: dict) -> ObjectiveConfig:
    return _dataclass_from(ObjectiveConfig, cfg.get("objective", {}))


def cmd_generate(cfg: dict, seed) -> int:
    gen = _dataclass_from(bench.GeneratorConfig, cfg["generator"], override_seed=seed)
    manifest = bench.generate_instances(gen, cfg["out_dir"])
    print(f"wrote {len(manifest['files'])} instance(s) to {cfg['out_dir']} "
          f"(config digest {manifest['config_digest'][:12]})")
    return 0


def cmd_validate(cfg: dict, seed) -> int:
    # the files one by one, not bench.load_pool: invalid ones are reported
    bad = 0
    for path in _instance_files(cfg):
        try:
            data = json.loads(Path(path).read_text())
            inst = instance_from_dict(data)
            violations = validate_instance(inst)
        except (ValueError, OSError, json.JSONDecodeError) as exc:
            print(f"INVALID {path}: {exc}")
            bad += 1
            continue
        if violations:
            bad += 1
            for v in violations:
                print(f"INVALID {path}: job={v.job} workstation={v.workstation}: {v.reason}")
        else:
            print(f"OK {path}")
    return DATA_ERROR if bad else 0


def cmd_train(cfg: dict, seed) -> int:
    pool = bench.load_pool(_instance_files(cfg))
    obj_cfg = _objective(cfg)
    net_raw = dict(cfg.get("net", {}))
    net_raw.setdefault("d_in", 2 * pool[0].n_stations + 2)
    net_cfg = _dataclass_from(policynet.NetConfig, net_raw)
    ppo_cfg = _dataclass_from(ppo.PPOConfig, cfg.get("ppo", {}), override_seed=seed)
    ep_cfg = _dataclass_from(ppo.EpisodeConfig, cfg.get("episode", {}))
    result = ppo.train(pool, net_cfg, ppo_cfg, ep_cfg, obj_cfg, cfg["out_dir"],
                       pool_digest=bench.pool_digest(pool),
                       resume_from=cfg.get("resume_from"))
    print(f"trained {result.env_steps} env steps; final checkpoint {result.final_checkpoint}")
    return 0


def cmd_infer(cfg: dict, seed) -> int:
    pool = bench.load_pool(_instance_files(cfg))
    obj_cfg = _objective(cfg)
    icfg_raw = dict(cfg.get("inference", {}))
    icfg = _dataclass_from(inference.InferenceConfig, icfg_raw, override_seed=seed)
    strategy = cfg.get("strategy", "mr")
    out_path = cfg.get("out", "results.jsonl")
    records = []
    if strategy == "mr":
        if "checkpoint" not in cfg:
            raise ValueError("infer strategy 'mr' needs checkpoint")
        ckpt = cfg["checkpoint"]
        params, net_cfg, _ = policynet.load_checkpoint(ckpt)
        digest = policynet.checkpoint_digest(ckpt)
        for inst in pool:
            records.append(inference.multirun(inst, params, net_cfg, icfg, obj_cfg,
                                              checkpoint_digest=digest).to_record())
    elif strategy == "mpmr":
        paths = inference.checkpoint_files(cfg, "infer strategy 'mpmr'")
        digests, held = {}, {}  # each file hashed once; a set of one is read once
        for inst in pool:
            records.append(inference.multipolicy(inst, paths, icfg, obj_cfg,
                                                 digests=digests, held=held).to_record())
    else:
        raise ValueError(f"unknown strategy {strategy!r} (use 'mr' or 'mpmr')")
    with open(out_path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    print(f"wrote {len(records)} result record(s) to {out_path}")
    return 0


def cmd_bench(cfg: dict, seed) -> int:
    obj_cfg = _objective(cfg)
    if not isinstance(cfg["splits"], dict):
        raise ValueError(f"config: splits must be an object of named instance sets, "
                         f"got {cfg['splits']!r}")
    splits = {name: bench.load_pool(_instance_files(spec, f"bench split {name!r}"))
              for name, spec in cfg["splits"].items()}
    rows = bench.run_benchmark(splits, cfg["methods"], obj_cfg,
                               seed if seed is not None else cfg.get("seed", 0),
                               cfg["out_dir"])
    print(Path(cfg["out_dir"], "table.txt").read_text(), end="")
    return 0


def cmd_heatmap(cfg: dict, seed) -> int:
    inst = load_instance(cfg["instance"])
    perm_spec = cfg.get("permutation", "edd")
    if perm_spec == "edd":
        perm = edd_sort(inst)
    elif (isinstance(perm_spec, list) and all(type(j) is int for j in perm_spec)
          and sorted(perm_spec) == list(range(1, inst.n_jobs + 1))):
        perm = np.array(perm_spec, dtype=np.int64) - 1
    else:  # a digit string, floats, bools, or integers other than 1..N once each
        raise ValueError(f"not a valid permutation of {inst.n_jobs} jobs: {perm_spec!r} "
                         '(use "edd" or a list of 1-based job indices)')
    base = cfg["out_base"]
    bench.export_heatmap(inst, perm, f"{base}.csv", f"{base}.svg")
    print(f"wrote {base}.csv and {base}.svg")
    return 0


def cmd_oracle(cfg: dict, seed) -> int:
    inst = load_instance(cfg["instance"])
    obj_cfg = _objective(cfg)
    objective = cfg.get("objective_name", "fc")
    perm, value = bench.held_karp_best(inst, obj_cfg, objective=objective)
    record = {"instance_id": inst.id, "objective": objective, "value": value,
              "best_permutation_1based": [int(j) + 1 for j in perm]}
    out = json.dumps(record, sort_keys=True)
    if "out" in cfg:
        Path(cfg["out"]).write_text(out + "\n")
    print(out)
    return 0


COMMANDS = {
    "generate": cmd_generate,
    "validate": cmd_validate,
    "train": cmd_train,
    "infer": cmd_infer,
    "bench": cmd_bench,
    "heatmap": cmd_heatmap,
    "oracle": cmd_oracle,
}


_INSTANCE_SET = """\
  instances | instance_dir   a list of instance files, which wins, or else a
                directory: its manifest's files or its *.json (none: exit 2)"""
_CHECKPOINT_SET = """\
  checkpoints | checkpoint_dir   a list, which wins, or else a directory: its
                last *.ckpt by name and the n_earlier (int >= 0, default 5) before;
                none exits 2 in infer, none or a missing file is a bench warning row"""

CONFIG_DOCS = {
    "generate": """\
config fields:
  generator     object: n_jobs, n_stations, station_time_s, p_min_frac,
                due_slack_s, due_noise_s, seed, count
  out_dir       directory for instance files + manifest.json""",
    "validate": f"""\
config fields:
{_INSTANCE_SET}""",
    "train": f"""\
config fields (instances: the training pool):
{_INSTANCE_SET}
  objective     object: alpha1, alpha2, tardiness_scale
  net           object: d_h, n_heads, n_layers, d_ff, compat_init_gain,
                d_gen (must be 1; d_in derived from W)
  ppo           object: clip_param, gae_lambda, train_batch_size,
                minibatch_size, epochs_per_batch, lr_start, lr_end,
                lr_warmup_env_steps, total_env_steps, value_coeff,
                entropy_coeff, entropy_warmup_env_steps, grad_clip_norm,
                checkpoint_every, optimizer, adam_beta1, adam_beta2,
                adam_eps, n_rollout_workers, seed
  episode       object: step_budget, gamma, reward_mode
  out_dir       checkpoints + metrics.jsonl destination
  resume_from   optional checkpoint path to continue exactly""",
    "infer": f"""\
config fields:
{_INSTANCE_SET}
  strategy      "mr" (checkpoint: one path) or "mpmr" (a checkpoint set)
{_CHECKPOINT_SET}
  inference     object: runs_per_policy, step_budget, greedy, seed
  objective     object: alpha1, alpha2, tardiness_scale
  out           result JSONL path""",
    "bench": f"""\
config fields:
  splits        {{name: {{instances|instance_dir}}}}, each read as:
{_INSTANCE_SET}
  methods       list of method objects:
                {{type: identity}} | {{type: sh, window, max_skip}}
                {{type: sa, steps, t_max, t_min, trace_stride}}
                {{type: random_mr, runs_per_policy, step_budget}}
                {{type: rl_mr, checkpoint, runs_per_policy, step_budget}}: a
                checkpoint set of one, skipped as rl_mpmr's set is
                {{type: rl_mpmr, checkpoints|checkpoint_dir, n_earlier, ...}}
{_CHECKPOINT_SET}
  objective     object: alpha1, alpha2, tardiness_scale
  seed          base seed (per-instance streams derived from it)
  out_dir       results.jsonl, table.csv, table.txt, timings.csv""",
    "heatmap": """\
config fields:
  instance      instance file path
  permutation   "edd" or a 1-based job-index list
  out_base      writes <out_base>.csv and <out_base>.svg""",
    "oracle": f"""\
config fields:
  instance        instance file path (N <= {bench.ORACLE_MAX_JOBS})
  objective_name  "fc" | "f1" | "f2"
  objective       object: alpha1, alpha2, tardiness_scale
  out             optional JSON output path""",
}


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; parsing does not modify it."""
    parser = _Parser(prog="swapsched",
                     description="Swap-based improvement heuristics for paced flow-shop scheduling")
    sub = parser.add_subparsers(dest="command")
    helps = {
        "generate": "write synthetic instance files plus a manifest",
        "validate": "check instance files against the data invariants",
        "train": "train the swap policy with PPO and save checkpoints",
        "infer": "run multirun/multipolicy search with trained checkpoints",
        "bench": "run the benchmark protocol over instance splits",
        "heatmap": "export the buffer-time heatmap (CSV + SVG) of a permutation",
        "oracle": f"exact optimum by dynamic programming (N <= {bench.ORACLE_MAX_JOBS})",
    }
    for name, h in helps.items():
        p = sub.add_parser(name, help=h, epilog=CONFIG_DOCS[name],
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the seed field of the config")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return USAGE_ERROR
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    try:
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args.seed)
    except (ValueError, KeyError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except Exception as exc:  # runtime fault
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
