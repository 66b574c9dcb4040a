import hashlib
import itertools
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from swapsched import baselines as bl
from swapsched.bench import (GeneratorConfig, brute_force_best, generate_instance,
                             run_benchmark)
from swapsched.schedcore import ObjectiveConfig, ObjectiveTables, is_permutation, objective_f1
from tests.conftest import make_instance


# ---------------------------------------------------------------------------
# EDD


def test_edd_order():
    inst = make_instance([[1], [1], [1]], [30.0, 10.0, 20.0], 1.0)
    assert list(bl.edd_sort(inst)) == [1, 2, 0]


def test_edd_tie_break_keeps_input_order():
    inst = make_instance([[1]] * 3, [7.0, 7.0, 7.0], 1.0)
    assert list(bl.edd_sort(inst)) == [0, 1, 2]


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_edd_hits_brute_force_f1_minimum(seed, obj_cfg):
    gen = GeneratorConfig(n_jobs=6, n_stations=2, due_slack_s=0.0,
                          due_noise_s=700.0, seed=seed, count=1)
    inst = generate_instance(gen, 0)
    _, best_val = brute_force_best(inst, obj_cfg, objective="f1")
    assert objective_f1(inst, bl.edd_sort(inst), obj_cfg) == best_val


# ---------------------------------------------------------------------------
# SH lookahead heuristic


def _sh_reference(inst, window, max_skip):
    """Independent step-by-step simulation of the lookahead construction."""
    edd = sorted(range(inst.n_jobs), key=lambda j: (inst.due[j], j))
    pending = edd[1:]
    schedule = [edd[0]]
    passes = {j: 0 for j in pending}
    while pending:
        view = pending[:window]
        over = [j for j in view if passes[j] > max_skip]
        if over:
            chosen = over[0]
        else:
            chosen = None
            best = None
            for j in view:
                d = sum(abs(inst.proc[schedule[-1]][w] - inst.proc[j][w])
                        for w in range(inst.n_stations))
                if best is None or d > best:
                    best = d
                    chosen = j
        for j in view:
            if j != chosen:
                passes[j] += 1
        pending.remove(chosen)
        schedule.append(chosen)
    return schedule


def test_sh_window_one_is_edd(inst6):
    cfg = bl.SHConfig(window=1, max_skip=0)
    assert np.array_equal(bl.sh_schedule(inst6, cfg), bl.edd_sort(inst6))


def test_sh_two_jobs_is_edd():
    inst = make_instance([(1, 9), (8, 2)], [50.0, 20.0], 10)
    for window in (1, 2, 4):
        assert np.array_equal(bl.sh_schedule(inst, bl.SHConfig(window=window, max_skip=3)),
                              bl.edd_sort(inst))


@pytest.mark.parametrize("window,max_skip", [(2, 0), (3, 0), (3, 2), (4, 4)])
def test_sh_matches_reference_simulation(inst6, window, max_skip):
    got = bl.sh_schedule(inst6, bl.SHConfig(window=window, max_skip=max_skip))
    assert list(got) == _sh_reference(inst6, window, max_skip)


def test_sh_matches_reference_on_larger_instances():
    for seed in (21, 22):
        inst = generate_instance(GeneratorConfig(n_jobs=20, n_stations=12, seed=seed, count=1), 0)
        for window, max_skip in ((4, 4), (6, 8), (8, 10)):
            got = bl.sh_schedule(inst, bl.SHConfig(window=window, max_skip=max_skip))
            assert list(got) == _sh_reference(inst, window, max_skip)
            assert is_permutation(got, 20)


def test_sh_pass_bound():
    # provable bound under the documented counter semantics: a job is passed
    # over at most max_skip + window times (simultaneous threshold breaches
    # drain in due-date order, one per step)
    for seed in (31, 32, 33):
        inst = generate_instance(GeneratorConfig(n_jobs=15, n_stations=3, seed=seed, count=1), 0)
        for window, max_skip in ((3, 0), (4, 2), (5, 1)):
            order = list(bl.sh_schedule(inst, bl.SHConfig(window=window, max_skip=max_skip)))
            edd = list(bl.edd_sort(inst))
            # job j enters the window no earlier than when all due-date
            # predecessors outside the window are gone; its displacement in
            # the output is bounded by the pass bound
            for j in range(inst.n_jobs):
                displacement = order.index(j) - edd.index(j)
                assert displacement <= max_skip + window


def test_sh_config_validation():
    with pytest.raises(ValueError):
        bl.SHConfig(window=0)
    with pytest.raises(ValueError):
        bl.SHConfig(window=2, max_skip=-1)


# ---------------------------------------------------------------------------
# simulated annealing


def test_sa_zero_steps_returns_start(inst6, obj_cfg):
    start = bl.edd_sort(inst6)
    res = bl.sa_optimize(inst6, start, bl.SAConfig(steps=0, seed=1), obj_cfg)
    assert np.array_equal(res.best_perm, start)
    assert res.best_report.fc == 0.0


def test_sa_best_fc_never_negative(inst6, obj_cfg):
    for seed in range(5):
        res = bl.sa_optimize(inst6, bl.edd_sort(inst6),
                             bl.SAConfig(steps=200, seed=seed), obj_cfg)
        assert res.best_report.fc >= 0.0
        assert is_permutation(res.best_perm, inst6.n_jobs)


def test_sa_near_zero_temperature_is_hill_climbing(inst6, obj_cfg):
    cfg = bl.SAConfig(t_max=1e-300, t_min=1e-300, steps=300, seed=3)
    res = bl.sa_optimize(inst6, bl.edd_sort(inst6), cfg, obj_cfg, trace_stride=1)
    fc_prev = 0.0
    for _, fc, accepted in res.trace:
        if accepted:
            assert fc >= fc_prev - 1e-9
        fc_prev = fc


def test_sa_reproducible(inst6, obj_cfg):
    cfg = bl.SAConfig(steps=400, seed=9)
    a = bl.sa_optimize(inst6, bl.edd_sort(inst6), cfg, obj_cfg, trace_stride=7)
    b = bl.sa_optimize(inst6, bl.edd_sort(inst6), cfg, obj_cfg, trace_stride=7)
    assert np.array_equal(a.best_perm, b.best_perm)
    assert a.trace == b.trace
    assert a.accepted == b.accepted


# (instance seed = SA seed, best_perm, accepted, best fc) of 3000-step runs on
# N=20, W=12 generator instances, recorded with the per-call O(W) deltas that
# preceded the lookup tables; the search must not change with its engine
SA_GOLDEN = [
    (21, [14, 19, 6, 5, 7, 12, 9, 18, 11, 15, 4, 17, 8, 16, 1, 10, 3, 0, 13, 2],
     104, 22.062529384851594),
    (22, [11, 6, 3, 14, 9, 10, 18, 1, 2, 16, 8, 15, 4, 17, 0, 19, 7, 13, 5, 12],
     88, 16.332700193984827),
    (23, [19, 4, 12, 1, 0, 5, 16, 10, 8, 2, 7, 14, 18, 9, 6, 17, 11, 15, 13, 3],
     93, 28.900685470589142),
]


@pytest.mark.parametrize("seed, best_perm, accepted, fc", SA_GOLDEN)
def test_sa_fixed_seed_regression(seed, best_perm, accepted, fc, obj_cfg):
    inst = generate_instance(GeneratorConfig(seed=seed, count=1), 0)
    res = bl.sa_optimize(inst, bl.edd_sort(inst), bl.SAConfig(steps=3000, seed=seed), obj_cfg)
    assert res.best_perm.tolist() == best_perm
    assert res.best_perm.dtype == np.int64
    assert res.accepted == accepted
    assert res.best_report.fc == fc


def test_sa_temperature_schedule_endpoints():
    cfg = bl.SAConfig(t_max=72.0, t_min=2.2e-61, steps=1000, seed=0)
    assert bl.sa_temperature(0, cfg) == 72.0
    assert bl.sa_temperature(500, cfg) == pytest.approx(72.0 * (2.2e-61 / 72.0) ** 0.5)


def test_sa_acceptance_rate_matches_metropolis():
    rng = np.random.default_rng(77)
    delta_e, temp, trials = 1.0, 2.0, 100_000
    hits = sum(bl.sa_accept(delta_e, temp, rng) for _ in range(trials))
    p = math.exp(-delta_e / temp)
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(hits / trials - p) <= 3 * sigma


def test_sa_accept_always_takes_improvements(rng):
    assert bl.sa_accept(-0.5, 1e-12, rng)
    assert bl.sa_accept(0.0, 1e-12, rng)


def test_sa_config_validation():
    with pytest.raises(ValueError):
        bl.SAConfig(t_max=1.0, t_min=2.0)
    with pytest.raises(ValueError):
        bl.SAConfig(t_min=0.0)
    for t_min, t_max in ((1.0, math.inf), (math.inf, math.inf), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            bl.SAConfig(t_min=t_min, t_max=t_max)
    for field, value in (("t_max", "72"), ("t_max", True), ("t_min", False), ("t_min", None)):
        with pytest.raises(TypeError, match=f"{field} must be a real number"):
            bl.SAConfig(**{field: value})
    with pytest.raises(ValueError, match="underflows to 0"):
        bl.SAConfig(t_min=1e-300, t_max=1e300)


SA_GOLDEN_FILE = Path(__file__).parent / "data" / "sa_golden.json"


def sa_golden_record(tmp_path) -> str:
    """sha256 of everything ``sa_optimize`` returns, per case, and of the
    deterministic files of a ``run_benchmark`` with SA-10000 and a traced SA-30.

    Cases: N in {2, 3, 6, 20}, seeds 0 and 1, the default temperatures and a
    hot range (t_max=1e6, t_min=1) where most steps draw the Metropolis
    ``random()``, all traced at stride 7. ``SA_GOLDEN_FILE`` holds the output
    of this function from the ``sa_optimize`` that drew through
    ``np.random.default_rng(seed)`` itself.
    """
    obj_cfg = ObjectiveConfig()
    cases = {}
    for n in (2, 3, 6, 20):
        inst = generate_instance(GeneratorConfig(n_jobs=n, seed=40 + n, count=1), 0)
        for label, temps in (("default", {}), ("hot", {"t_max": 1e6, "t_min": 1.0})):
            for seed in (0, 1):
                res = bl.sa_optimize(inst, bl.edd_sort(inst),
                                     bl.SAConfig(steps=2000, seed=seed, **temps), obj_cfg,
                                     trace_stride=7)
                record = json.dumps({
                    "best_perm": res.best_perm.tolist(), "report": asdict(res.best_report),
                    "trace": res.trace, "accepted": res.accepted, "steps": res.steps})
                cases[f"N{n}_{label}_seed{seed}"] = hashlib.sha256(record.encode()).hexdigest()
    insts = [generate_instance(GeneratorConfig(seed=60, count=3), i) for i in range(3)]
    out = tmp_path / "sa_bench"
    run_benchmark({"paper": insts}, [{"type": "sa", "steps": 10000},
                                     {"type": "sa", "steps": 30, "trace_stride": 4}],
                  obj_cfg, seed=5, out_dir=out)
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
             for p in sorted(out.iterdir()) if p.name != "timings.csv"}
    return json.dumps({"cases": cases, "bench_files": files}, sort_keys=True, indent=1) + "\n"


def test_sa_matches_golden(tmp_path):
    assert sa_golden_record(tmp_path) == SA_GOLDEN_FILE.read_text()


def reference_sa(inst, start, cfg, obj_cfg, trace_stride):
    """``sa_optimize`` one proposal at a time, drawing through
    ``np.random.default_rng(cfg.seed)`` itself: the result the screen that
    commits runs of certain rejections must keep."""
    rng, n = np.random.default_rng(cfg.seed), inst.n_jobs
    tables = ObjectiveTables(inst, obj_cfg, start)
    current, best = start.tolist(), start.copy()
    current_fc = best_fc = tables.fc(start)
    trace, accepted_count = [], 0
    for step in range(cfg.steps):
        i = int(rng.integers(n))
        k = int(rng.integers(n - 1))
        k += k >= i
        delta_fc = tables.swap_delta(current, i, k)
        accepted = delta_fc >= 0 or bl.sa_accept(-delta_fc, bl.sa_temperature(step, cfg), rng)
        if accepted:
            current[i], current[k] = current[k], current[i]
            current_fc += delta_fc
            accepted_count += 1
            if current_fc > best_fc:
                exact = tables.fc(current)
                if exact > best_fc:
                    best, best_fc = np.array(current), exact
                current_fc = exact
        if trace_stride > 0 and step % trace_stride == 0:
            trace.append((step, current_fc, accepted))
    return best.tolist(), asdict(tables.reports(best[None])[0]), trace, accepted_count


def _sa_outcome(res):
    return res.best_perm.tolist(), asdict(res.best_report), res.trace, res.accepted


# cases the golden file leaves out: a near-zero temperature, whose runs of
# rejections cross the 512-word chunks, t_min == t_max (at 1e-3 runs and
# draws mix), step counts that are no multiple of a chunk, strides 1, 7 and
# 13, N = 2, where no pair comes decoded and so no run is committed, and
# N = 3, the smallest N with decoded pairs
@pytest.mark.parametrize("n", [2, 3, 20])
@pytest.mark.parametrize("temps", [{"t_max": 1e-300, "t_min": 1e-300},
                                   {"t_max": 1e-3, "t_min": 1e-3}, {}],
                         ids=["near-zero", "constant", "default"])
@pytest.mark.parametrize("steps,stride", [(1500, 1), (777, 7), (1300, 13)])
def test_sa_matches_the_one_proposal_at_a_time_reference(n, temps, steps, stride, obj_cfg):
    inst = generate_instance(GeneratorConfig(n_jobs=n, seed=70 + n, count=1), 0)
    cfg = bl.SAConfig(steps=steps, seed=steps, **temps)
    res = bl.sa_optimize(inst, bl.edd_sort(inst), cfg, obj_cfg, trace_stride=stride)
    assert _sa_outcome(res) == reference_sa(inst, bl.edd_sort(inst), cfg, obj_cfg, stride)


def test_a_pair_that_needs_scalar_draws_ends_a_committed_run(monkeypatch, obj_cfg):
    # flagging a decoded pair as not ok sends it through the scalar draws,
    # which give the same pair from the same word: nothing may change
    inst = generate_instance(GeneratorConfig(seed=72, count=1), 0)
    cfg = bl.SAConfig(steps=3000, seed=4)
    expected = _sa_outcome(bl.sa_optimize(inst, bl.edd_sort(inst), cfg, obj_cfg, 5))
    decoder = bl._pair_decoder

    def flagging(n):
        decode = decoder(n)

        def flagged(words):
            i, k, ok = decode(words)
            return i, k, ok & (np.arange(len(ok)) % 5 != 0)
        return flagged

    monkeypatch.setattr(bl, "_pair_decoder", flagging)
    assert _sa_outcome(bl.sa_optimize(inst, bl.edd_sort(inst), cfg, obj_cfg, 5)) == expected


def test_a_screen_stops_at_the_first_pair_that_is_not_ok(obj_cfg):
    # such a pair draws further halves, so no run may pass it, in the scan
    # or in the block
    inst = generate_instance(GeneratorConfig(seed=72, count=1), 0)
    cfg = bl.SAConfig(t_max=1e-300, t_min=1e-300, steps=10000, seed=0)
    tables = ObjectiveTables(inst, obj_cfg)
    peak = bl.sa_optimize(inst, bl.edd_sort(inst), cfg, obj_cfg).best_perm
    i, k = np.array(list(itertools.permutations(range(inst.n_jobs), 2))).T
    d1, d2 = tables.swap_deltas_block(peak, i, k)
    assert (-tables.alpha1 * d1 + tables.alpha2 * d2 < 0).all()  # every swap is certainly rejected
    draws = bl._RawDraws(1, inst.n_jobs)
    draws.random()  # the first chunk, less one word
    start, (i, k, ok), _ = draws.pending()
    assert start == 1 and ok.all()
    for stop, scan in ((start + 5, True), (start + 300, True), (start + 300, False)):
        flagged = ok.copy()
        flagged[stop] = False
        chunk = (start, (i, k, flagged), (i.tolist(), k.tolist(), flagged.tolist()))
        assert bl._rejected_run(tables, peak.tolist(), chunk, 0, cfg, scan) == stop - start
    chunk = (start, (i, k, ok), (i.tolist(), k.tolist(), ok.tolist()))
    assert bl._rejected_run(tables, peak.tolist(), chunk, 0, cfg, True) == bl._CHUNK - start


def test_sa_commits_the_cold_tail_without_the_scalar_kernel(monkeypatch, obj_cfg):
    # a count, not a timing: at the default temperatures most of SA-10000 is
    # one run of certain rejections, which the scalar kernel must not evaluate
    calls = []
    scalar = ObjectiveTables.swap_deltas

    def counted(self, perm, i, k):
        calls.append(None)
        return scalar(self, perm, i, k)

    monkeypatch.setattr(ObjectiveTables, "swap_deltas", counted)
    inst = generate_instance(GeneratorConfig(seed=60, count=1), 0)
    bl.sa_optimize(inst, bl.edd_sort(inst), bl.SAConfig(steps=10000, seed=0), obj_cfg)
    assert 0 < len(calls) < 2000


# ranges numpy maps with Lemire's rule, plus its edge cases: 1 draws nothing,
# 3 * 2**30 rejects about a quarter of the halves, 2**32 takes the half as is
RAW_DRAW_RANGES = (1, 2, 19, 20, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32)


def test_raw_draws_match_generator():
    for seed in range(200):
        plan = np.random.default_rng([seed, 99])  # the interleaving, not the draws
        ref, raw = np.random.default_rng(seed), bl._RawDraws(seed)
        n_random = 0
        for op in plan.integers(2 * len(RAW_DRAW_RANGES), size=2400):
            if op < len(RAW_DRAW_RANGES):
                r = RAW_DRAW_RANGES[op]
                got = raw.integers(r)
                assert type(got) is int and got == ref.integers(r), (seed, r)
            else:
                n_random += 1
                assert raw.random() == ref.random(), seed
        assert n_random > 2 * bl._CHUNK  # whole words alone span three refills


@pytest.mark.parametrize("r", [0, -3, 2**32 + 1])
def test_raw_draws_reject_ranges_outside_32_bits(r):
    with pytest.raises(ValueError):
        bl._RawDraws(0).integers(r)


# 2: integers(1) draws nothing, so no pair comes from one word; 3: the
# smallest decoded range; 20: the paper's N; 2**31 + 1: about half of the low
# halves are rejected, so the scalar draws after a rejection (and from a kept
# half) run all the time
SWAP_PAIR_NS = (2, 3, 20, 2**31 + 1)


@pytest.mark.parametrize("n", SWAP_PAIR_NS)
def test_swap_pairs_match_generator(n):
    for seed in range(200):
        plan = np.random.default_rng([seed, n, 7])  # the interleaving, not the draws
        ref, raw = np.random.default_rng(seed), bl._RawDraws(seed, n)
        for op in plan.integers(8, size=1200):
            if op < 5:  # SA's proposal
                i = int(ref.integers(n))
                k = int(ref.integers(n - 1))
                assert raw.swap_pair() == (i, k + (k >= i)), (seed, n)
            elif op < 7:  # SA's Metropolis draw: a whole word, a kept half stays kept
                assert raw.random() == ref.random(), (seed, n)
            else:  # a lone bounded draw leaves a half kept
                assert raw.integers(19) == ref.integers(19), (seed, n)
        assert raw.random() == ref.random()  # 1200 ops take 700 to 1500 words


def test_pair_decoder_flags_rejections():
    words = np.random.default_rng(0).bit_generator.random_raw(bl._CHUNK)
    i, k, ok = bl._pair_decoder(20)(words)
    assert all(ok) and all(0 <= a < 20 and 0 <= b < 20 and a != b for a, b in zip(i, k))
    # at 2**31 + 1 the low half is rejected with probability about 1/2 (the
    # high half, for 2**31, never is)
    assert 0.35 < np.mean(bl._pair_decoder(2**31 + 1)(words)[2]) < 0.65
    assert not any(bl._pair_decoder(2)(words)[2])


@pytest.mark.parametrize("field,value", [
    ("steps", 2.5), ("steps", "300"), ("steps", True), ("steps", -1), ("steps", None)])
def test_sa_config_rejects_a_step_count_that_is_not_an_integer(field, value):
    with pytest.raises(ValueError, match=field):
        bl.SAConfig(**{field: value})
    assert bl.SAConfig(steps=np.int64(3)).steps == 3  # numpy integers are integers


@pytest.mark.parametrize("field,value", [
    ("window", 2.5), ("window", "4"), ("window", True), ("window", 0),
    ("max_skip", 1.0), ("max_skip", "4"), ("max_skip", False), ("max_skip", -1)])
def test_sh_config_rejects_counts_that_are_not_integers(field, value):
    with pytest.raises(ValueError, match=field):
        bl.SHConfig(**{field: value})
