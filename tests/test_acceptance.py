"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Criterion 8 trains a small policy (a few minutes of CPU);
criterion 9 reuses its checkpoints.
"""

import json
import math
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from swapsched import baselines, bench, cli, inference, operators
from swapsched import policynet as pn
from swapsched import ppo
from swapsched.schedcore import (ObjectiveConfig, ObjectiveTables, edd_sort, objective_f1,
                                 objective_f2)

OBJ = ObjectiveConfig()


def _line(n, ok, msg):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {msg}")


class _Criterion:
    def __init__(self, n, msg):
        self.n, self.msg = n, msg

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        _line(self.n, exc_type is None, self.msg)
        return False


# ---------------------------------------------------------------------------
# 1. EDD optimality against exhaustive enumeration


def test_criterion_1_edd_optimality():
    with _Criterion(1, "EDD sort attains the brute-force minimum of f1 "
                       "(50 instances, N in 4..8)"):
        t0 = time.perf_counter()
        count = 0
        for idx in range(50):
            n = 4 + idx % 5
            gen = bench.GeneratorConfig(n_jobs=n, n_stations=3, due_slack_s=0.0,
                                        due_noise_s=700.0, seed=9000 + idx, count=1)
            inst = bench.generate_instance(gen, 0)
            _, best = bench.brute_force_best(inst, OBJ, objective="f1")
            assert objective_f1(inst, edd_sort(inst), OBJ) == best, inst.id
            count += 1
        elapsed = time.perf_counter() - t0
        assert count == 50
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. incremental deltas equal full recomputation


def test_criterion_2_objective_oracle_equivalence():
    with _Criterion(2, "incremental f1/f2 swap deltas match full recomputation "
                       "(1000 random triples, 1e-9 relative)"):
        rng = np.random.default_rng(424242)
        t0 = time.perf_counter()
        for _ in range(1000):
            n = int(rng.integers(2, 21))
            w = int(rng.integers(1, 13))
            tw = float(rng.uniform(50, 300))
            from swapsched.schedcore import Instance, Job
            proc = rng.uniform(0, tw, size=(n, w))
            due = rng.uniform(1, tw * (w + n) * 1.2, size=n)
            inst = Instance([Job(tuple(p), d) for p, d in zip(proc, due)], tw)
            perm = rng.permutation(n)
            i = int(rng.integers(n))
            k = int(rng.integers(n - 1))
            if k >= i:
                k += 1
            swapped = operators.swap(perm, (i, k))
            d1, d2 = ObjectiveTables(inst, OBJ).swap_deltas(perm.tolist(), i, k)
            full1 = objective_f1(inst, swapped, OBJ) - objective_f1(inst, perm, OBJ)
            assert abs(d1 - full1) <= 1e-9 * max(1.0, abs(full1))
            full2 = objective_f2(inst, swapped) - objective_f2(inst, perm)
            assert abs(d2 - full2) <= 1e-9 * max(1.0, abs(full2))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 3. probability-matrix contract and length flexibility


def test_criterion_3_probability_matrix_contract():
    with _Criterion(3, "P >= 0, diag(P) = 0, |sum(P)-1| <= 1e-6 over 100 draws; "
                       "same parameters evaluate on N in {2,5,20,50}"):
        rng = np.random.default_rng(31337)
        cfg = pn.NetConfig(d_in=26, d_h=32, n_heads=2, n_layers=2, d_ff=64)
        draws = 0
        for p_seed in range(25):
            params = pn.init_params(cfg, seed=p_seed)
            for n in (2, 5, 20, 50):
                x = rng.normal(scale=2.0, size=(n, cfg.d_in)).astype(np.float32)
                out = pn.forward(params, cfg, x, float(rng.random()))
                p = out.prob_matrix
                assert np.all(p >= 0)
                assert np.all(np.diag(p) == 0.0)
                assert abs(float(p.sum()) - 1.0) <= 1e-6
                draws += 1
        assert draws == 100


# ---------------------------------------------------------------------------
# 4. gradient check on the PPO composite loss


def test_criterion_4_gradient_check():
    with _Criterion(4, "analytic gradients of the PPO composite loss match "
                       "central finite differences (max rel err < 1e-4)"):
        t0 = time.perf_counter()
        cfg = pn.NetConfig(d_in=8, d_h=8, n_heads=1, n_layers=2, d_ff=16)
        params = pn.init_params(cfg, seed=97, dtype=np.float64)
        rng = np.random.default_rng(98)
        b, n = 4, 3
        feats = [rng.normal(size=(n, cfg.d_in)) for _ in range(b)]
        gens = rng.random(b)
        acts = []
        for _ in range(b):
            i = int(rng.integers(n))
            k = (i + 1 + int(rng.integers(n - 1))) % n
            acts.append(i * n + k)
        acts = np.array(acts)
        logp_old = np.log(rng.uniform(0.05, 0.3, b))
        adv = rng.normal(size=b)
        targets = rng.normal(size=b)
        pcfg = ppo.PPOConfig(value_coeff=0.7, entropy_coeff=0.02,
                             train_batch_size=b, minibatch_size=b)

        _, grads, _ = ppo.ppo_loss_and_grads(params, cfg, feats, gens, acts,
                                             logp_old, adv, targets, pcfg, denom=b)
        vec = pn.flat_buffer(params)
        gvec = pn.flat_buffer(grads)

        def loss_at(v):
            p = pn.flat_views(pn.canonical_blocks(cfg), v)
            loss, _, _ = ppo.ppo_loss_and_grads(p, cfg, feats, gens, acts, logp_old,
                                                adv, targets, pcfg, denom=b,
                                                compute_grads=False)
            return loss

        eps = 1e-3
        max_rel = 0.0
        for i in range(vec.size):
            vp, vm = vec.copy(), vec.copy()
            vp[i] += eps
            vm[i] -= eps
            fd = (loss_at(vp) - loss_at(vm)) / (2 * eps)
            max_rel = max(max_rel, abs(fd - gvec[i]) / max(1.0, abs(fd)))
        elapsed = time.perf_counter() - t0
        assert max_rel < 1e-4, f"max rel err {max_rel:.2e}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 5. parameter count at the reference configuration


def test_criterion_5_parameter_count():
    with _Criterion(5, "reference config reports 450k..510k trainable scalars, "
                       "stable across runs"):
        cfg = pn.NetConfig(d_in=2 * 12 + 2, d_h=128, n_heads=2, n_layers=2, d_ff=512)
        counts = {pn.flat_buffer(pn.init_params(cfg, seed=s)).size for s in (0, 1, 2)}
        assert len(counts) == 1
        count = counts.pop()
        assert 450_000 <= count <= 510_000, count


# ---------------------------------------------------------------------------
# 6. return identity over logged episodes


def test_criterion_6_return_identity():
    with _Criterion(6, "sum(gamma^t r_t) equals the return recomputed from the "
                       "fc log (100 episodes, 1e-9)"):
        gen = bench.GeneratorConfig(n_jobs=6, n_stations=3, due_slack_s=0.0,
                                    due_noise_s=700.0, p_min_frac=0.0, seed=606, count=10)
        pool = [bench.generate_instance(gen, i) for i in range(10)]
        ep_cfg = ppo.EpisodeConfig(step_budget=10, gamma=0.99)
        env = ppo.SwapEnv(pool, OBJ, ep_cfg)
        rng = np.random.default_rng(607)
        for _ in range(100):
            env.reset(rng)
            rewards = []
            for _ in range(ep_cfg.step_budget):
                i = int(rng.integers(6))
                k = (i + 1 + int(rng.integers(5))) % 6
                _, r, done, _ = env.step((i, k))
                rewards.append(r)
            assert done
            got = sum(ep_cfg.gamma ** t * r for t, r in enumerate(rewards))
            want = sum(ep_cfg.gamma ** t * e["fc"]
                       for t, e in enumerate(env.episode_log)) / ep_cfg.step_budget
            assert abs(got - want) <= 1e-9


# ---------------------------------------------------------------------------
# 7. SA acceptance statistics


def test_criterion_7_sa_acceptance_statistics():
    with _Criterion(7, "empirical SA acceptance within 3-sigma binomial bounds "
                       "of exp(-dE/T) for 3 (dE, T) pairs x 1e5 trials"):
        trials = 100_000
        for pair_idx, (delta_e, temp) in enumerate([(1.0, 2.0), (0.5, 1.0), (2.0, 0.9)]):
            rng = np.random.default_rng(700 + pair_idx)
            hits = sum(baselines.sa_accept(delta_e, temp, rng) for _ in range(trials))
            p = math.exp(-delta_e / temp)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(hits / trials - p) <= 3 * sigma, (delta_e, temp, hits / trials, p)


# ---------------------------------------------------------------------------
# 8 + 9. desk-scale learning and strategy dominance (shared training run)

DESK_GEN = dict(n_jobs=6, n_stations=3, due_slack_s=0.0, due_noise_s=700.0,
                p_min_frac=0.0)
DESK_NET = dict(d_in=8, d_h=32, n_heads=2, n_layers=2, d_ff=64)
DESK_PPO = dict(total_env_steps=200_000, train_batch_size=1000, minibatch_size=100,
                epochs_per_batch=10, lr_start=5e-4, lr_end=2e-5,
                lr_warmup_env_steps=10_000, value_coeff=0.25, grad_clip_norm=1.0,
                entropy_coeff=0.1, entropy_warmup_env_steps=30_000, seed=5)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_run")
    train_pool = [bench.generate_instance(bench.GeneratorConfig(**DESK_GEN, seed=1001,
                                                                count=50), i)
                  for i in range(50)]
    test_pool = [bench.generate_instance(bench.GeneratorConfig(**DESK_GEN, seed=2002,
                                                               count=20), i)
                 for i in range(20)]
    t0 = time.perf_counter()
    result = ppo.train(train_pool, pn.NetConfig(**DESK_NET), ppo.PPOConfig(**DESK_PPO),
                       ppo.EpisodeConfig(step_budget=10, gamma=0.99), OBJ, out)
    return {"result": result, "out": out, "test_pool": test_pool,
            "train_seconds": time.perf_counter() - t0}


def test_criterion_8_desk_scale_learning(desk_run):
    with _Criterion(8, "trained multirun beats uniform-random multirun at the "
                       "same 300-step budget and is >= SA-300 (held-out split)"):
        assert desk_run["result"].env_steps >= 50_000
        assert desk_run["train_seconds"] < 30 * 60, f"{desk_run['train_seconds']:.0f}s"
        params, net_cfg, _ = pn.load_checkpoint(desk_run["result"].final_checkpoint)
        icfg = inference.InferenceConfig(runs_per_policy=30, step_budget=10, seed=0)
        uniform_cfg = pn.NetConfig(d_in=8, d_h=8, n_heads=1, n_layers=1, d_ff=8)
        uniform = pn.zero_params(uniform_cfg)
        rl, rnd, sa = [], [], []
        for j, inst in enumerate(desk_run["test_pool"]):
            rl.append(inference.multirun(inst, params, net_cfg, icfg, OBJ).best_report.fc)
            rnd.append(inference.multirun(inst, uniform, uniform_cfg, icfg, OBJ).best_report.fc)
            sa.append(baselines.sa_optimize(inst, edd_sort(inst),
                                            baselines.SAConfig(steps=300, seed=j),
                                            OBJ).best_report.fc)
        rl_mean, rnd_mean, sa_mean = np.mean(rl), np.mean(rnd), np.mean(sa)
        print(f"\n    desk-scale means: RL-MR {rl_mean:.4f} | random-MR {rnd_mean:.4f} "
              f"| SA-300 {sa_mean:.4f} (train {desk_run['train_seconds']:.0f}s)")
        assert rl_mean > rnd_mean, f"RL {rl_mean:.4f} !> random {rnd_mean:.4f}"
        assert rl_mean >= sa_mean, f"RL {rl_mean:.4f} < SA {sa_mean:.4f}"

        # training-side comparison: mean episode return over the last 10% of
        # updates beats the uniform-random policy's return on the same pool
        rows = [json.loads(l) for l in open(desk_run["result"].metrics_path)]
        tail = rows[-max(1, len(rows) // 10):]
        trained_return = np.mean([r["mean_episode_return"] for r in tail])
        train_pool = [bench.generate_instance(
            bench.GeneratorConfig(**DESK_GEN, seed=1001, count=50), i) for i in range(50)]
        worker = ppo.RolloutWorker(train_pool, OBJ, ppo.EpisodeConfig(step_budget=10),
                                   np.random.SeedSequence(808))
        rnd_batch, = ppo.RolloutWorker.collect([worker], uniform, uniform_cfg, 2000)
        random_return = np.mean(rnd_batch.episode_returns)
        print(f"    training return (last 10%) {trained_return:.3f} vs "
              f"random policy {random_return:.3f}")
        assert trained_return > random_return


def test_criterion_9_strategy_dominance(desk_run):
    with _Criterion(9, "multipolicy >= multirun on every test instance "
                       "(shared RNG-stream superset guarantee)"):
        ckpts = sorted(str(p) for p in desk_run["out"].glob("*.ckpt"))
        selected = inference.select_checkpoints(ckpts, n_earlier=5)
        assert len(selected) == 6
        final = selected[-1]
        params, net_cfg, _ = pn.load_checkpoint(final)
        for j, inst in enumerate(desk_run["test_pool"]):
            icfg = inference.InferenceConfig(runs_per_policy=30, step_budget=10, seed=j)
            mr = inference.multirun(inst, params, net_cfg, icfg, OBJ)
            mp = inference.multipolicy(inst, selected, icfg, OBJ)
            assert mp.best_report.fc >= mr.best_report.fc, inst.id
            assert mp.steps == 6 * 30 * 10 == 1800
            assert mr.steps == 300


# ---------------------------------------------------------------------------
# 10. CLI reproducibility


def _run_cli(args):
    code = cli.main(args)
    assert code == 0, f"cli {args} exited {code}"


def test_criterion_10_cli_reproducibility(tmp_path):
    with _Criterion(10, "CLI invocations rerun with identical config + seed are "
                        "byte-identical (result JSONL and tables)"):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()

        def cfg_file(name, payload):
            p = cfg_dir / name
            p.write_text(json.dumps(payload))
            return str(p)

        # generate twice into two directories
        gen_payload = {"generator": {**DESK_GEN, "seed": 88, "count": 4}, "out_dir": None}
        outs = []
        for tag in ("g1", "g2"):
            gen_payload["out_dir"] = str(tmp_path / tag)
            _run_cli(["generate", "--config", cfg_file(f"{tag}.json", dict(gen_payload))])
            outs.append(tmp_path / tag)
        names = json.loads((outs[0] / "manifest.json").read_text())["files"]
        for name in names + ["manifest.json"]:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

        inst_dir = str(outs[0])
        # small training run for the RL methods, twice -> identical artifacts
        train_payload = {
            "instance_dir": inst_dir,
            "net": {"d_h": 8, "n_heads": 2, "n_layers": 1, "d_ff": 16},
            "ppo": {"total_env_steps": 200, "train_batch_size": 100,
                    "minibatch_size": 50, "epochs_per_batch": 2,
                    "checkpoint_every": 100, "seed": 12},
            "episode": {"step_budget": 5}, "out_dir": None}
        runs = []
        for tag in ("t1", "t2"):
            train_payload["out_dir"] = str(tmp_path / tag)
            _run_cli(["train", "--config", cfg_file(f"{tag}.json", dict(train_payload))])
            runs.append(tmp_path / tag)
        assert ((runs[0] / "metrics.jsonl").read_bytes()
                == (runs[1] / "metrics.jsonl").read_bytes())
        ckpt = sorted(runs[0].glob("*.ckpt"))[-1]
        assert ckpt.read_bytes() == sorted(runs[1].glob("*.ckpt"))[-1].read_bytes()

        # infer twice
        infer_payload = {"instance_dir": inst_dir, "strategy": "mr",
                         "checkpoint": str(ckpt),
                         "inference": {"runs_per_policy": 3, "step_budget": 5, "seed": 2},
                         "out": None}
        results = []
        for tag in ("i1", "i2"):
            infer_payload["out"] = str(tmp_path / f"{tag}.jsonl")
            _run_cli(["infer", "--config", cfg_file(f"{tag}.json", dict(infer_payload))])
            results.append((tmp_path / f"{tag}.jsonl").read_bytes())
        assert results[0] == results[1]

        # bench twice (RL + classical methods)
        bench_payload = {
            "splits": {"test": {"instance_dir": inst_dir}},
            "methods": [{"type": "identity", "name": "EDD"},
                        {"type": "sa", "steps": 40},
                        {"type": "sh", "window": 2, "max_skip": 1},
                        {"type": "random_mr", "runs_per_policy": 2, "step_budget": 5},
                        {"type": "rl_mr", "checkpoint": str(ckpt),
                         "runs_per_policy": 2, "step_budget": 5}],
            "seed": 4, "out_dir": None}
        tables = []
        for tag in ("b1", "b2"):
            bench_payload["out_dir"] = str(tmp_path / tag)
            _run_cli(["bench", "--config", cfg_file(f"{tag}.json", dict(bench_payload))])
            tables.append({name: (tmp_path / tag / name).read_bytes()
                           for name in ("results.jsonl", "table.csv", "table.txt")})
        assert tables[0] == tables[1]

        # oracle twice
        inst_file = str(outs[0] / names[0])
        oracle_payload = {"instance": inst_file, "objective_name": "fc", "out": None}
        vals = []
        for tag in ("o1", "o2"):
            oracle_payload["out"] = str(tmp_path / f"{tag}.json")
            _run_cli(["oracle", "--config", cfg_file(f"{tag}.json", dict(oracle_payload))])
            vals.append((tmp_path / f"{tag}.json").read_bytes())
        assert vals[0] == vals[1]

        # heatmap twice
        hm_payload = {"instance": inst_file, "permutation": "edd", "out_base": None}
        hms = []
        for tag in ("h1", "h2"):
            hm_payload["out_base"] = str(tmp_path / tag)
            _run_cli(["heatmap", "--config", cfg_file(f"{tag}.json", dict(hm_payload))])
            hms.append((tmp_path / f"{tag}.csv").read_bytes()
                       + (tmp_path / f"{tag}.svg").read_bytes())
        assert hms[0] == hms[1]


# ---------------------------------------------------------------------------
# 11. heatmap fidelity


def test_criterion_11_heatmap_fidelity(tmp_path):
    with _Criterion(11, "heatmap CSV equals p - station_time at full precision; "
                        "SVG is well-formed with N*W cells"):
        gen = bench.GeneratorConfig(n_jobs=20, n_stations=12, seed=115, count=1)
        inst = bench.generate_instance(gen, 0)
        perm = np.random.default_rng(116).permutation(20)
        csv_path = tmp_path / "hm.csv"
        svg_path = tmp_path / "hm.svg"
        bench.export_heatmap(inst, perm, csv_path, svg_path)

        parsed = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        expected = inst.proc[perm] - inst.station_time
        assert parsed.shape == (20, 12)
        assert np.array_equal(parsed, expected)  # bit-exact round trip

        root = ET.parse(svg_path).getroot()  # raises if not well-formed XML
        rects = [e for e in root.iter() if e.tag.endswith("rect")]
        assert len(rects) == 20 * 12
