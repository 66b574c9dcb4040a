import hashlib
import importlib
import importlib.util
import itertools
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from swapsched import bench
from swapsched import inference
from swapsched import policynet as pn
from swapsched.schedcore import (ObjectiveConfig, ObjectiveTables, check_permutation,
                                 combined_objective, edd_sort, load_instance, objective_f1,
                                 objective_f2, validate_instance)


# ---------------------------------------------------------------------------
# generator


def test_generated_instances_are_valid():
    cfg = bench.GeneratorConfig(n_jobs=8, n_stations=4, seed=3, count=6)
    for i in range(cfg.count):
        inst = bench.generate_instance(cfg, i)
        assert validate_instance(inst) == []
        assert inst.n_jobs == 8 and inst.n_stations == 4


def test_generator_seed_byte_identical(tmp_path):
    cfg = bench.GeneratorConfig(n_jobs=5, n_stations=2, seed=9, count=3)
    bench.generate_instances(cfg, tmp_path / "a")
    bench.generate_instances(cfg, tmp_path / "b")
    for name in json.loads((tmp_path / "a" / "manifest.json").read_text())["files"]:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert ((tmp_path / "a" / "manifest.json").read_bytes()
            == (tmp_path / "b" / "manifest.json").read_bytes())


def test_generator_zero_noise_anchors_due_dates(obj_cfg):
    cfg = bench.GeneratorConfig(n_jobs=6, n_stations=3, due_slack_s=0.0,
                                due_noise_s=0.0, seed=4, count=1)
    inst = bench.generate_instance(cfg, 0)
    # the hidden anchor permutation achieves zero tardiness everywhere; it is
    # recoverable as the due-date sort since completions increase positionally
    perm = edd_sort(inst)
    completions = inst.station_time * (inst.n_stations + np.arange(6))
    assert np.allclose(inst.due[perm], completions)


def test_generator_floor_fraction():
    cfg = bench.GeneratorConfig(n_jobs=10, n_stations=3, p_min_frac=0.6, seed=5, count=1)
    inst = bench.generate_instance(cfg, 0)
    assert inst.proc.min() >= 0.6 * cfg.station_time_s
    assert inst.proc.max() <= cfg.station_time_s


def test_generator_config_validation():
    with pytest.raises(ValueError):
        bench.GeneratorConfig(p_min_frac=1.5)
    with pytest.raises(ValueError):
        bench.GeneratorConfig(count=0)


def test_load_pool_roundtrip(tmp_path):
    cfg = bench.GeneratorConfig(n_jobs=4, n_stations=2, seed=6, count=4)
    bench.generate_instances(cfg, tmp_path)
    pool = bench.load_pool(tmp_path)
    assert len(pool) == 4
    assert bench.pool_digest(tmp_path) == bench.pool_digest(tmp_path)


# ---------------------------------------------------------------------------
# brute force


def test_brute_force_two_jobs(obj_cfg):
    from tests.conftest import make_instance
    inst = make_instance([(10, 1), (1, 10)], [100.0, 120.0], 10)
    perm, val = bench.brute_force_best(inst, obj_cfg, objective="f2")
    assert val == objective_f2(inst, perm)
    assert val == max(objective_f2(inst, np.array(p))
                      for p in itertools.permutations(range(2)))


def test_brute_force_f1_equals_edd(inst6, obj_cfg):
    _, best = bench.brute_force_best(inst6, obj_cfg, objective="f1")
    assert objective_f1(inst6, edd_sort(inst6), obj_cfg) == best


def test_brute_force_fc_dominates_heuristics(inst6, obj_cfg):
    from swapsched.baselines import SAConfig, sa_optimize
    _, best = bench.brute_force_best(inst6, obj_cfg, objective="fc")
    res = sa_optimize(inst6, edd_sort(inst6), SAConfig(steps=500, seed=0), obj_cfg)
    assert res.best_report.fc <= best + 1e-9


def test_brute_force_refuses_large_instances(obj_cfg):
    inst = bench.generate_instance(bench.GeneratorConfig(n_jobs=10, n_stations=2,
                                                         seed=7, count=1), 0)
    with pytest.raises(ValueError, match="heuristic"):
        bench.brute_force_best(inst, obj_cfg)


def test_brute_force_matches_direct_enumeration(inst6, obj_cfg):
    perm, val = bench.brute_force_best(inst6, obj_cfg, objective="fc")
    s0 = edd_sort(inst6)
    want_val, want_perm = max(
        ((combined_objective(inst6, np.array(p), s0, obj_cfg).fc, p)
         for p in itertools.permutations(range(6))),
        key=lambda t: t[0])
    assert val == pytest.approx(want_val, abs=1e-12)
    assert combined_objective(inst6, perm, s0, obj_cfg).fc == pytest.approx(want_val, abs=1e-12)


def _tied_instance():
    # jobs 0/4 and 2/5 are duplicates (same processing times and due date), so
    # every optimum is tied with its duplicate-swapped twin; integer times keep
    # f2 exact under any summation order
    from tests.conftest import make_instance
    proc = [(7, 1, 4), (2, 9, 3), (5, 5, 8), (9, 0, 6), (7, 1, 4), (5, 5, 8), (1, 8, 2)]
    due = [40.0, 60.0, 50.0, 95.0, 40.0, 50.0, 70.0]
    return make_instance(proc, due, 10)


@pytest.mark.parametrize("objective", ["fc", "f1", "f2"])
def test_brute_force_ties_keep_lexicographically_smallest(objective, monkeypatch):
    obj_cfg = ObjectiveConfig(tardiness_scale=20.0)
    inst = _tied_instance()
    s0 = edd_sort(inst)
    minimize = objective == "f1"
    want_perm, want_val, n_opt = None, None, 0
    for p in itertools.permutations(range(inst.n_jobs)):  # 5040: several chunks
        val = getattr(combined_objective(inst, np.array(p), s0, obj_cfg), objective)
        if want_val is None or (val < want_val if minimize else val > want_val):
            want_perm, want_val, n_opt = p, val, 1
        elif val == want_val:
            n_opt += 1
    assert n_opt >= 2  # the instance really has tied optima

    # chunks of 1 and 7 put every tied optimum in a chunk of its own; the
    # default chunk also holds two tied optima in its first block
    for chunk in (1, 7, bench.ORACLE_CHUNK):
        monkeypatch.setattr(bench, "ORACLE_CHUNK", chunk)
        perm, val = bench.brute_force_best(inst, obj_cfg, objective=objective)
        assert perm.tolist() == list(want_perm)
        assert val == want_val


# ---------------------------------------------------------------------------
# Held-Karp oracle


def _oracle_instances():
    """``(n, w, inst)``: two instances per N = 1..8 and W in {1, 3, 12}."""
    from tests.conftest import make_instance
    rng = np.random.default_rng(5)
    for n in range(1, 9):
        for w in (1, 3, 12):
            for seed in (0, 1):
                if n == 1:  # below the generator's minimum
                    inst = make_instance(rng.uniform(60, 200, size=(1, w)),
                                         [rng.uniform(100, 3000)], 208.0)
                else:
                    inst = bench.generate_instance(
                        bench.GeneratorConfig(n_jobs=n, n_stations=w, seed=seed), 0)
                yield n, w, inst


def test_held_karp_equals_brute_force_fc_f1(obj_cfg):
    cases = 0
    for n, w, inst in _oracle_instances():
        for objective in ("fc", "f1"):
            perm, val = bench.held_karp_best(inst, obj_cfg, objective=objective)
            want_perm, want_val = bench.brute_force_best(inst, obj_cfg, objective=objective)
            assert perm.tolist() == want_perm.tolist(), (n, w, objective)
            assert val == want_val, (n, w, objective)
        cases += 1
    assert cases >= 40


def test_held_karp_f2_takes_lexicographically_smallest_near_tie(obj_cfg):
    # a path and its reversal have the same real f2, but their float sums can
    # differ in the last ulp: brute force takes the larger sum, the oracle the
    # lexicographically smaller path (with W=1 more paths tie in the reals)
    differ = 0
    for n, w, inst in _oracle_instances():
        perm, val = bench.held_karp_best(inst, obj_cfg, objective="f2")
        bf_perm, bf_val = bench.brute_force_best(inst, obj_cfg, objective="f2")
        tables = ObjectiveTables(inst, obj_cfg)
        everything = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        vals = tables.evaluate(everything)[2]
        top = vals.max()
        first = int(np.argmax(vals >= top - bench.ORACLE_REL_TOL * abs(top)))
        assert perm.tolist() == everything[first].tolist(), (n, w)
        assert val == tables.evaluate(perm[None, :])[2][0]
        assert abs(val - bf_val) <= bench.ORACLE_REL_TOL * abs(bf_val)
        if w > 1:
            assert perm.tolist() == min(bf_perm.tolist(), bf_perm[::-1].tolist()), (n, w)
        differ += perm.tolist() != bf_perm.tolist()
    assert differ >= 1  # the instances do hold such near-ties


@pytest.mark.parametrize("objective", ["fc", "f1", "f2"])
def test_held_karp_ties_keep_lexicographically_smallest(objective):
    # brute force keeps the lexicographically smallest optimum (pinned above)
    obj_cfg = ObjectiveConfig(tardiness_scale=20.0)
    inst = _tied_instance()
    perm, val = bench.held_karp_best(inst, obj_cfg, objective=objective)
    want_perm, want_val = bench.brute_force_best(inst, obj_cfg, objective=objective)
    assert perm.tolist() == want_perm.tolist()
    assert val == want_val


@pytest.mark.parametrize("n", [10, 11, 12])
def test_held_karp_beyond_brute_force_dominates_sa(n, obj_cfg):
    from swapsched.baselines import SAConfig, sa_optimize
    inst = bench.generate_instance(bench.GeneratorConfig(n_jobs=n, n_stations=12, seed=n), 0)
    perm, val = bench.held_karp_best(inst, obj_cfg, objective="fc")
    check_permutation(perm, n)
    assert val == ObjectiveTables(inst, obj_cfg).evaluate(perm[None, :])[0][0]
    sa = sa_optimize(inst, edd_sort(inst), SAConfig(steps=10000, seed=0), obj_cfg)
    assert val >= sa.best_report.fc - 1e-9


def test_held_karp_trivial_sizes(obj_cfg):
    from tests.conftest import make_instance
    one = make_instance([(10, 1)], [100.0], 10)
    two = make_instance([(10, 1), (1, 10)], [100.0, 120.0], 10)
    for objective in ("fc", "f1", "f2"):
        perm, val = bench.held_karp_best(one, obj_cfg, objective=objective)
        assert perm.tolist() == [0]
        assert val == (objective_f1(one, perm, obj_cfg) if objective == "f1" else 0.0)
        perm, val = bench.held_karp_best(two, obj_cfg, objective=objective)
        want_perm, want_val = bench.brute_force_best(two, obj_cfg, objective=objective)
        assert perm.tolist() == want_perm.tolist() and val == want_val


def _refuse_tables(*args, **kwargs):
    raise AssertionError("the oracle built its tables before checking its arguments")


def test_held_karp_refuses_before_allocating(obj_cfg, monkeypatch):
    monkeypatch.setattr(bench, "ObjectiveTables", _refuse_tables)
    big = bench.generate_instance(bench.GeneratorConfig(
        n_jobs=bench.ORACLE_MAX_JOBS + 1, n_stations=2, seed=7), 0)
    with pytest.raises(ValueError, match="heuristic"):
        bench.held_karp_best(big, obj_cfg)
    small = bench.generate_instance(bench.GeneratorConfig(n_jobs=4, n_stations=2, seed=7), 0)
    with pytest.raises(ValueError, match="objective must be"):
        bench.held_karp_best(small, obj_cfg, objective="makespan")


# ---------------------------------------------------------------------------
# benchmark harness


@pytest.fixture
def splits(tmp_path):
    out = {}
    for name, seed in (("train", 11), ("test", 12)):
        cfg = bench.GeneratorConfig(n_jobs=5, n_stations=2, due_slack_s=0.0,
                                    due_noise_s=400.0, seed=seed, count=3)
        d = tmp_path / name
        bench.generate_instances(cfg, d)
        out[name] = bench.load_pool(d)
    return out


def test_run_benchmark_basic(tmp_path, splits, obj_cfg):
    methods = [
        {"type": "identity", "name": "EDD"},
        {"type": "sa", "steps": 50},
        {"type": "sh", "window": 2, "max_skip": 1},
        {"type": "random_mr", "runs_per_policy": 3, "step_budget": 5},
    ]
    out = tmp_path / "bench_out"
    rows = bench.run_benchmark(splits, methods, obj_cfg, seed=0, out_dir=out)
    assert len(rows) == 4 * 2
    by_name = {(r.method, r.split): r for r in rows}
    edd_train = by_name[("EDD", "train")]
    assert edd_train.fc == 0.0
    assert edd_train.no_impr == 3  # identity never improves
    assert by_name[("SA-50", "train")].steps == 50
    assert (out / "table.csv").exists() and (out / "table.txt").exists()
    assert (out / "timings.csv").exists()

    records = [json.loads(l) for l in open(out / "results.jsonl")]
    assert len(records) == 4 * 2 * 3
    # table means equal the mean of the per-instance records
    sa_train = [r["fc"] for r in records if r["method"] == "SA-50" and r["split"] == "train"]
    assert by_name[("SA-50", "train")].fc == pytest.approx(np.mean(sa_train), rel=1e-12)


def test_run_benchmark_output_permutations_valid(tmp_path, splits, obj_cfg):
    methods = [{"type": "sh", "window": 3, "max_skip": 2}]
    out = tmp_path / "b2"
    bench.run_benchmark(splits, methods, obj_cfg, seed=0, out_dir=out)
    for rec in map(json.loads, open(out / "results.jsonl")):
        assert sorted(rec["best_permutation_1based"]) == [1, 2, 3, 4, 5]


def test_run_benchmark_skips_missing_checkpoints(tmp_path, splits, obj_cfg, capsys):
    methods = [{"type": "rl_mr", "checkpoint": str(tmp_path / "nope.ckpt")},
               {"type": "identity", "name": "EDD"}]
    rows = bench.run_benchmark(splits, methods, obj_cfg, seed=0, out_dir=tmp_path / "b3")
    skipped = [r for r in rows if r.skipped]
    assert len(skipped) == 2  # one per split
    assert all(r.method == "RL-MR" and r.fc is None for r in skipped)
    assert "skipping" in capsys.readouterr().err
    csv_lines = (tmp_path / "b3" / "table.csv").read_text().strip().split("\n")
    assert csv_lines[0] == "method,split,fc,f1,f2,no_impr,steps"
    assert any(line.startswith("RL-MR,train,,") for line in csv_lines)


def test_run_benchmark_deterministic(tmp_path, splits, obj_cfg):
    methods = [{"type": "sa", "steps": 40}, {"type": "random_mr", "runs_per_policy": 2,
                                             "step_budget": 5}]
    bench.run_benchmark(splits, methods, obj_cfg, seed=3, out_dir=tmp_path / "r1")
    bench.run_benchmark(splits, methods, obj_cfg, seed=3, out_dir=tmp_path / "r2")
    for name in ("results.jsonl", "table.csv", "table.txt"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes())


def test_checkpoint_digest_is_the_file_sha256(tmp_path):
    path = tmp_path / "blob.ckpt"
    for size in (0, 1, 1 << 16, 3 * (1 << 16) + 5):  # empty, short, chunk edges
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert pn.checkpoint_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_run_benchmark_loads_each_rl_checkpoint_once(tmp_path, splits, obj_cfg, monkeypatch):
    net = pn.NetConfig(d_in=6, d_h=8, n_heads=2, n_layers=1, d_ff=16)
    ckpt = tmp_path / "policy.ckpt"
    pn.save_checkpoint(ckpt, pn.init_params(net, seed=3), net)
    params, _, _ = pn.load_checkpoint(ckpt)
    calls = []
    for name in ("load_checkpoint", "checkpoint_digest"):
        def counted(path, _orig=getattr(pn, name), _name=name):
            calls.append(_name)
            return _orig(path)
        monkeypatch.setattr(pn, name, counted)
    methods = [{"type": "rl_mr", "checkpoint": str(ckpt), "runs_per_policy": 3,
                "step_budget": 4}]
    bench.run_benchmark(splits, methods, obj_cfg, seed=2, out_dir=tmp_path / "b")
    assert calls == ["load_checkpoint", "checkpoint_digest"]  # 6 instances, one load

    records = [json.loads(l) for l in open(tmp_path / "b" / "results.jsonl")]
    expected = []
    for split_idx, split in enumerate(sorted(splits)):
        for inst_idx, inst in enumerate(splits[split]):
            icfg = inference.InferenceConfig(
                runs_per_policy=3, step_budget=4,
                seed=bench._instance_seed(2, split_idx, inst_idx))
            res = inference.multirun(inst, params, net, icfg, obj_cfg)
            expected.append((res.best_report.fc, [int(j) + 1 for j in res.best_perm]))
    assert [(r["fc"], r["best_permutation_1based"]) for r in records] == expected


def test_sa_trace_jsonl_emission(tmp_path, splits, obj_cfg):
    methods = [{"type": "sa", "steps": 30, "trace_stride": 10}]
    out = tmp_path / "traced"
    bench.run_benchmark(splits, methods, obj_cfg, seed=1, out_dir=out)
    traces = sorted(out.glob("sa_trace_SA-30_*.jsonl"))
    assert len(traces) == 6  # one per instance over both splits
    rows = [json.loads(l) for l in open(traces[0])]
    assert len(rows) == 3  # steps 0, 10, 20
    assert set(rows[0]) == {"step", "fc", "accepted"}


def test_method_names():
    assert bench.method_name({"type": "sa", "steps": 530000}) == "SA-530000"
    assert bench.method_name({"type": "sh", "window": 4, "max_skip": 4}) == "SH-n4ms4"
    assert bench.method_name({"type": "rl_mpmr"}) == "RL-MPMR"
    assert bench.method_name({"type": "sa", "steps": 1, "name": "custom"}) == "custom"


# ---------------------------------------------------------------------------
# heatmap


def test_heatmap_csv_exact_and_roundtrip(tmp_path, inst6):
    perm = edd_sort(inst6)
    csv_path = tmp_path / "h.csv"
    svg_path = tmp_path / "h.svg"
    buf = bench.export_heatmap(inst6, perm, csv_path, svg_path)
    assert np.array_equal(buf, inst6.proc[perm] - inst6.station_time)
    parsed = bench.read_heatmap_csv(csv_path)
    assert np.array_equal(parsed, buf)  # full-precision round trip


def test_heatmap_svg_structure(tmp_path, inst6):
    perm = edd_sort(inst6)
    bench.export_heatmap(inst6, perm, tmp_path / "h.csv", tmp_path / "h.svg")
    root = ET.parse(tmp_path / "h.svg").getroot()
    assert root.tag.endswith("svg")
    rects = [e for e in root.iter() if e.tag.endswith("rect")]
    assert len(rects) == inst6.n_jobs * inst6.n_stations
    texts = [e for e in root.iter() if e.tag.endswith("text")]
    assert len(texts) >= inst6.n_jobs + inst6.n_stations


def test_heatmap_uniform_grid_mid_color(tmp_path):
    from tests.conftest import make_instance
    inst = make_instance([(50.0, 50.0)] * 3, [10.0, 20.0, 30.0], 50.0)
    buf = bench.export_heatmap(inst, np.arange(3), tmp_path / "u.csv", tmp_path / "u.svg")
    assert np.all(buf == 0.0)
    root = ET.parse(tmp_path / "u.svg").getroot()
    fills = {e.get("fill") for e in root.iter() if e.tag.endswith("rect")}
    assert len(fills) == 1  # uniform mid-scale color


# ---------------------------------------------------------------------------
# traced benchmark


def test_traced_benchmark_names_resolve():
    # perfbench/run.py --trace 1 patches every (module, attr) of TRACED and
    # dies on a name the package no longer has
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, attr in spans.TRACED:
        owner = importlib.import_module(f"swapsched.{module}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            assert callable(vars(getattr(owner, cls_name)).get(meth)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, attr, None)), f"{module}.{attr}"
