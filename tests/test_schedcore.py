import itertools
import json
import math
from dataclasses import astuple, fields

import numpy as np
import pytest

from swapsched import baselines, bench, inference, policynet, ppo
from swapsched import schedcore as sc
from tests.conftest import make_instance


# ---------------------------------------------------------------------------
# validation


def test_validate_boundary_processing_time_ok():
    inst = make_instance([(100, 208), (50, 60)], [1000, 2000], 208)
    assert sc.validate_instance(inst) == []


def test_validate_exceeding_station_time():
    inst = make_instance([(209, 10), (50, 60)], [1000, 2000], 208)
    violations = sc.validate_instance(inst)
    assert len(violations) == 1
    assert violations[0].job == 1 and violations[0].workstation == 1


def test_validate_wrong_arity():
    inst = make_instance([(10, 20, 30), (50, 60)], [1000, 2000], 208)
    violations = sc.validate_instance(inst)
    assert any("arity" in v.reason for v in violations)


def test_validate_nonpositive_due_date():
    inst = make_instance([(10, 20), (50, 60)], [0.0, 2000], 208)
    assert any("due date" in v.reason for v in sc.validate_instance(inst))


def test_validate_too_few_jobs():
    inst = make_instance([(10, 20)], [100.0], 208)
    assert any("2 jobs" in v.reason for v in sc.validate_instance(inst))


# ---------------------------------------------------------------------------
# completion time / tardiness


def test_completion_time_reference_constants():
    inst = make_instance([[100] * 12] * 20, [1000] * 20, 208)
    assert sc.completion_times(inst)[0] == 2496
    assert sc.completion_times(inst)[19] == 6448


def test_completion_time_identity_scale():
    inst = make_instance([[1], [1]], [1, 2], 1)
    assert sc.completion_times(inst)[0] == 1


def test_tardiness_signs():
    inst = make_instance([[100] * 12] * 20, [3000] + [2496] + [6000] * 18, 208)

    def tardiness(perm, pos):  # signed: negative means early
        return sc.completion_times(inst)[pos] - inst.due[perm[pos]]

    perm = np.arange(20)
    assert tardiness(perm, 0) == 2496 - 3000 == -504
    perm2 = perm.copy()
    perm2[0], perm2[1] = 1, 0
    assert tardiness(perm2, 0) == 0.0
    # job with due date 6000 at the last position: C_20 = 6448
    perm3 = perm.copy()
    perm3[19], perm3[2] = perm[2], perm[19]
    assert tardiness(perm3, 19) == 448


# ---------------------------------------------------------------------------
# weighted tardiness


def test_weighted_tardiness_values(obj_cfg):
    tau = obj_cfg.tardiness_scale
    # W=1, T_W=1 -> C = (1, 2, 3); dues give T_T = 0, -tau, +2tau
    inst = make_instance([[1]] * 3, [1.0, 2.0 + tau, 3.0 - 2 * tau], 1.0)
    perm = np.arange(3)
    g = sc.weighted_tardiness_values(inst, perm, obj_cfg)
    assert g[0] == pytest.approx(1.0)
    assert g[1] == pytest.approx(math.exp(-1))
    assert g[2] == pytest.approx(math.exp(2))


def test_weighted_tardiness_clamps_instead_of_overflowing(obj_cfg):
    cfg = sc.ObjectiveConfig(tardiness_scale=1e-6)
    inst = make_instance([[1], [1]], [1.0, 1.0], 1.0)
    g = sc.weighted_tardiness_values(inst, np.arange(2), cfg)
    assert np.all(np.isfinite(g))
    assert g.max() <= math.exp(sc.EXP_CLAMP)


def test_gt_monotone_in_due_date(obj_cfg):
    inst_lo = make_instance([[1], [1]], [5.0, 9.0], 1.0)
    inst_hi = make_instance([[1], [1]], [6.0, 9.0], 1.0)
    g_lo = sc.weighted_tardiness_values(inst_lo, np.arange(2), obj_cfg)[0]
    g_hi = sc.weighted_tardiness_values(inst_hi, np.arange(2), obj_cfg)[0]
    assert g_hi < g_lo


# ---------------------------------------------------------------------------
# f1


def test_f1_two_punctual_jobs(obj_cfg):
    inst = make_instance([[1], [1]], [1.0, 2.0], 1.0)  # T_T = 0 at both positions
    assert sc.objective_f1(inst, np.arange(2), obj_cfg) == pytest.approx(2.0)


def test_f1_swap_equal_due_dates_invariant(obj_cfg):
    inst = make_instance([[3, 1], [9, 9], [5, 2]], [100.0, 100.0, 50.0], 10)
    p1 = np.array([0, 1, 2])
    p2 = np.array([1, 0, 2])  # swapped jobs share the due date
    assert sc.objective_f1(inst, p1, obj_cfg) == sc.objective_f1(inst, p2, obj_cfg)


def test_f1_matches_position_by_position_oracle(inst6, obj_cfg, rng):
    perm = rng.permutation(inst6.n_jobs)
    expected = 0.0
    for i in range(inst6.n_jobs):
        c = inst6.station_time * (inst6.n_stations + i)
        t_t = c - inst6.due[perm[i]]
        expected += math.exp(t_t / obj_cfg.tardiness_scale)
    assert sc.objective_f1(inst6, perm, obj_cfg) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# f2


def test_f2_hand_example():
    inst = make_instance([(1, 2), (3, 1)], [10, 20], 5)
    assert sc.objective_f2(inst, np.array([0, 1])) == 3.0


def test_f2_identical_jobs_zero():
    inst = make_instance([(4, 4), (4, 4), (4, 4)], [10, 20, 30], 5)
    assert sc.objective_f2(inst, np.arange(3)) == 0.0


def test_f2_matches_double_loop_oracle(inst6, rng):
    perm = rng.permutation(inst6.n_jobs)
    expected = 0.0
    for w in range(inst6.n_stations):
        for i in range(inst6.n_jobs - 1):
            expected += abs(inst6.proc[perm[i], w] - inst6.proc[perm[i + 1], w])
    assert sc.objective_f2(inst6, perm) == pytest.approx(expected, rel=1e-12)


def test_f2_reversal_symmetry(inst6, rng):
    for _ in range(20):
        perm = rng.permutation(inst6.n_jobs)
        assert sc.objective_f2(inst6, perm) == pytest.approx(
            sc.objective_f2(inst6, perm[::-1].copy()), rel=1e-12)


def test_f2_nonnegative_and_zero_iff_identical_neighbors(inst6, rng):
    # distinct processing rows -> strictly positive for every permutation
    for _ in range(10):
        assert sc.objective_f2(inst6, rng.permutation(inst6.n_jobs)) > 0.0
    # identical rows -> exactly zero under any permutation
    inst = make_instance([(3.0, 7.0)] * 4, [10, 20, 30, 40], 10)
    for _ in range(5):
        assert sc.objective_f2(inst, rng.permutation(4)) == 0.0


# ---------------------------------------------------------------------------
# combined objective


def test_combined_identity_case(inst6, obj_cfg):
    s0 = sc.edd_sort(inst6)
    rep = sc.combined_objective(inst6, s0, s0, obj_cfg)
    assert rep.delta_f1 == 0.0 and rep.delta_f2 == 0.0 and rep.fc == 0.0


def test_combined_weight_projection(inst6, rng):
    cfg = sc.ObjectiveConfig(alpha1=0.0, alpha2=0.25)
    s0 = sc.edd_sort(inst6)
    perm = rng.permutation(inst6.n_jobs)
    rep = sc.combined_objective(inst6, perm, s0, cfg)
    assert rep.fc == pytest.approx(0.25 * rep.delta_f2, rel=1e-12)


def test_combined_matches_full_oracle(inst6, obj_cfg, rng):
    s0 = sc.edd_sort(inst6)
    perm = rng.permutation(inst6.n_jobs)
    rep = sc.combined_objective(inst6, perm, s0, obj_cfg)
    f1 = sc.objective_f1(inst6, perm, obj_cfg)
    f2 = sc.objective_f2(inst6, perm)
    f1_0 = sc.objective_f1(inst6, s0, obj_cfg)
    f2_0 = sc.objective_f2(inst6, s0)
    assert rep.fc == pytest.approx(
        obj_cfg.alpha1 * (f1_0 - f1) + obj_cfg.alpha2 * (f2 - f2_0), rel=1e-12)
    assert rep.fc == pytest.approx(
        obj_cfg.alpha1 * rep.delta_f1 + obj_cfg.alpha2 * rep.delta_f2, rel=1e-12)


def test_delta_f1_nonpositive_from_edd(inst6, obj_cfg, rng):
    s0 = sc.edd_sort(inst6)
    for _ in range(30):
        perm = rng.permutation(inst6.n_jobs)
        rep = sc.combined_objective(inst6, perm, s0, obj_cfg)
        assert rep.delta_f1 <= 1e-12


# ---------------------------------------------------------------------------
# objective tables


def _random_instance(rng, n):
    w = int(rng.integers(1, 13))
    tw = float(rng.uniform(50, 300))
    proc = rng.uniform(0, tw, size=(n, w))
    due = rng.uniform(1, tw * (w + n) * 1.2, size=n)
    return make_instance(proc, due, tw)


@pytest.mark.parametrize("seed", range(6))
def test_tables_swap_delta_matches_full_recompute_every_pair(seed):
    rng = np.random.default_rng(seed)
    cfg = sc.ObjectiveConfig(alpha1=float(rng.uniform(0.1, 2)), alpha2=float(rng.uniform(0, 0.1)))
    # N=2 and N=20 always; the rest random in [2, 20]
    for n in (2, 20, *rng.integers(2, 21, size=2)):
        inst = _random_instance(rng, int(n))
        ref = rng.permutation(inst.n_jobs)
        tables = sc.ObjectiveTables(inst, cfg, ref)
        assert np.array_equal(tables.ref, ref)
        perm = rng.permutation(inst.n_jobs)
        before = sc.combined_objective(inst, perm, ref, cfg)

        # the state scorer is the full objective's fc bit for bit, row by row
        block = np.array([rng.permutation(inst.n_jobs) for _ in range(7)] + [ref, perm])
        assert tables.fc(block).tolist() == [sc.combined_objective(inst, p, ref, cfg).fc
                                             for p in block]
        for p in block:
            got = tables.fc(p)
            assert type(got) is float
            assert got == sc.combined_objective(inst, p, ref, cfg).fc
        assert tables.fc(ref) == 0.0
        assert tables.fc(perm.tolist()) == before.fc
        for i, k in itertools.permutations(range(inst.n_jobs), 2):
            swapped = perm.copy()
            swapped[i], swapped[k] = swapped[k], swapped[i]
            after = sc.combined_objective(inst, swapped, ref, cfg)
            assert tables.swap_delta(perm, i, k) == pytest.approx(after.fc - before.fc, abs=1e-9)
            d1, d2 = tables.swap_deltas(perm, i, k)
            assert d1 == pytest.approx(after.f1 - before.f1, abs=1e-9)
            assert d2 == pytest.approx(after.f2 - before.f2, abs=1e-9)


@pytest.mark.parametrize("seed", range(3))
def test_swap_delta_is_the_weighted_sum_of_its_parts_bitwise(seed):
    rng = np.random.default_rng([seed, 5])
    cfg = sc.ObjectiveConfig(alpha1=float(rng.uniform(0.1, 2)), alpha2=float(rng.uniform(0, 0.1)))
    for n in range(2, 21):
        inst = _random_instance(rng, n)
        tables = sc.ObjectiveTables(inst, cfg, rng.permutation(n))
        pairs = list(itertools.permutations(range(n), 2))
        for _ in range(3):
            perm = rng.permutation(n).tolist()
            deltas = []
            for i, k in pairs:
                d1, d2 = tables.swap_deltas(perm, i, k)
                assert (d1, d2) == tables.swap_deltas(perm, k, i)  # bitwise symmetric
                assert tables.swap_delta(perm, i, k) == -cfg.alpha1 * d1 + cfg.alpha2 * d2
                deltas.append((d1, d2))
            # the block kernel: every ordered pair at once, bit for bit
            i, k = np.array(pairs).T
            block = tables.swap_deltas_block(np.array(perm), i, k)
            assert np.stack(block, axis=1).tobytes() == np.array(deltas).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_tables_reports_equal_combined_objective_field_for_field(seed):
    rng = np.random.default_rng([seed, 6])
    cfg = sc.ObjectiveConfig(alpha1=float(rng.uniform(0.1, 2)), alpha2=float(rng.uniform(0, 0.1)))
    for n in (2, 7, 20):
        inst = _random_instance(rng, n)
        ref = rng.permutation(n)
        tables = sc.ObjectiveTables(inst, cfg, ref)
        block = np.array([rng.permutation(n) for _ in range(30)] + [ref])
        reports = tables.reports(block)
        assert len(reports) == len(block)
        for p, got in zip(block, reports):
            want = sc.combined_objective(inst, p, ref, cfg)
            assert [v.hex() for v in astuple(got)] == [v.hex() for v in astuple(want)]
        assert reports[-1].fc == 0.0


def test_tables_scores_match_combined_objective_bitwise(inst20, rng):
    cfg = sc.ObjectiveConfig()
    ref = sc.edd_sort(inst20)
    tables = sc.ObjectiveTables(inst20, cfg)  # the due-date sort by default
    assert (tables.f1_ref, tables.f2_ref) == (sc.objective_f1(inst20, ref, cfg),
                                             sc.objective_f2(inst20, ref))
    perms = np.array([rng.permutation(inst20.n_jobs) for _ in range(16)] + [ref])
    columns = tables.scores(perms)
    assert columns[4][-1] == 0.0
    for p, got in zip(perms, zip(*columns)):
        want = astuple(sc.combined_objective(inst20, p, ref, cfg))
        assert [float(v).hex() for v in got] == [v.hex() for v in want]
        # one permutation gets the same bits as its row of a block
        assert [float(v).hex() for v in tables.scores(p)] == [v.hex() for v in want]


def test_tables_reject_invalid_reference(inst6, obj_cfg):
    with pytest.raises(ValueError, match="permutation"):
        sc.ObjectiveTables(inst6, obj_cfg, [0, 0, 1, 2, 3, 4])


# ---------------------------------------------------------------------------
# EDD


def test_edd_sort_basic():
    inst = make_instance([[1], [1], [1]], [30.0, 10.0, 20.0], 1.0)
    assert list(sc.edd_sort(inst)) == [1, 2, 0]


def test_edd_sort_stable_on_ties():
    inst = make_instance([[1]] * 4, [5.0, 5.0, 5.0, 5.0], 1.0)
    assert list(sc.edd_sort(inst)) == [0, 1, 2, 3]


def test_edd_minimizes_f1_small_exhaustive(obj_cfg, rng):
    for n in (4, 5, 6):
        proc = rng.uniform(10, 100, size=(n, 2))
        due = rng.uniform(50, 3000, size=n)
        inst = make_instance(proc, due, 100)
        edd_val = sc.objective_f1(inst, sc.edd_sort(inst), obj_cfg)
        best = min(sc.objective_f1(inst, np.array(p), obj_cfg)
                   for p in itertools.permutations(range(n)))
        assert edd_val == best


# ---------------------------------------------------------------------------
# features


@pytest.mark.parametrize("scale", [3600.0, 1.0])  # 1 s: exponents hit EXP_CLAMP
def test_table_features_equal_state_features(inst6, inst20, scale, rng):
    # the inference lanes and the env build features from the tables; the
    # gathered tardiness column must be bitwise job_features' own exp
    cfg = sc.ObjectiveConfig(tardiness_scale=scale)
    for inst in (inst6, inst20):
        tables = sc.ObjectiveTables(inst, cfg)
        arg = (sc.completion_times(inst)[:, None] - inst.due[None, :]) / scale
        assert (np.abs(arg) > sc.EXP_CLAMP).any() == (scale == 1.0)
        perms = np.array([rng.permutation(inst.n_jobs) for _ in range(12)] + [tables.ref])
        for t in (0, 3, 10):
            block = tables.state_features(perms, t, 10)
            assert block.per_job.shape == (len(perms), inst.n_jobs, 2 * inst.n_stations + 2)
            for b, perm in enumerate(perms):
                want = sc.state_features(inst, perm, cfg, t, 10)
                assert block.per_job[b].tobytes() == want.per_job.tobytes()
                assert block.general == want.general
                one = tables.state_features(perm, t, 10).per_job
                assert one.tobytes() == want.per_job.tobytes()


@pytest.mark.parametrize("n", [2, 6, 20])
@pytest.mark.parametrize("w", [1, 3, 12])
def test_stacked_tables_score_and_featurize_each_row_as_its_own(n, w):
    # PPO collection scores and featurizes lanes on different instances as
    # one block; row r must be bitwise what instance r's tables give alone
    rng = np.random.default_rng([n, w])
    cfg = sc.ObjectiveConfig(alpha1=float(rng.uniform(0.1, 2)), alpha2=float(rng.uniform(0, 0.1)))
    insts = []
    for j in range(5):
        tw = float(rng.uniform(50, 300))
        due = rng.uniform(1, tw * (w + n) * 1.2, size=n)
        if j == 3:  # due dates a million hours late: every exponent hits EXP_CLAMP
            due = due + 3600.0 * 1e6
        insts.append(make_instance(rng.uniform(0, tw, size=(n, w)), due, tw))
    tables = [sc.ObjectiveTables(inst, cfg) for inst in insts]
    assert (tables[3].gt == np.exp(-sc.EXP_CLAMP)).all()
    for b in (5, 3, 1):  # every table, then the first few
        stacked = sc.ObjectiveTables.stack(tables[:b])
        perms = np.array([rng.permutation(n) for _ in range(b)])
        steps = rng.integers(0, 11, size=b)
        scores = stacked.scores(perms)
        fm = stacked.state_features(perms, steps, 10)
        assert fm.per_job.shape == (b, n, 2 * w + 2)
        for r, perm in enumerate(perms):
            want = tables[r].scores(perm)
            assert [float(v[r]).hex() for v in scores] == [float(v).hex() for v in want]
            assert stacked.fc(perms)[r] == tables[r].fc(perm)
            one = tables[r].state_features(perm, int(steps[r]), 10)
            assert fm.per_job[r].tobytes() == one.per_job.tobytes()
            assert fm.general[r] == one.general
    with pytest.raises(ValueError, match="one objective config"):
        sc.ObjectiveTables.stack([tables[0], sc.ObjectiveTables(insts[1], sc.ObjectiveConfig())])


def test_job_features_shape_and_last_row(inst20, obj_cfg):
    perm = sc.edd_sort(inst20)
    rows = sc.job_features(inst20, perm, obj_cfg)
    w = inst20.n_stations
    assert rows.shape == (20, 2 * 12 + 2) == (20, 26)
    assert np.all(rows[-1, w:2 * w] == 0.0)


def test_job_features_identical_adjacent_jobs(obj_cfg):
    inst = make_instance([(4, 4), (4, 4), (2, 9)], [10, 20, 30], 10)
    rows = sc.job_features(inst, np.arange(3), obj_cfg)
    assert np.all(rows[0, 2:4] == 0.0)  # diff block of row 0 (W=2)


def test_job_features_signed_differences(obj_cfg):
    inst = make_instance([(7, 1), (4, 5)], [100, 200], 10)
    rows = sc.job_features(inst, np.arange(2), obj_cfg)
    assert rows[0, 2] == 3.0 / 10.0 and rows[0, 3] == -4.0 / 10.0  # signed, not absolute


def test_job_features_normalization(obj_cfg):
    # W=2, station time 10 s: completion times 20 and 30 s, the last one 30 s
    inst = make_instance([(7, 1), (4, 5)], [100, 200], 10)
    rows = sc.job_features(inst, np.arange(2), obj_cfg)
    want = np.array([[7 / 10, 1 / 10, 3 / 10, -4 / 10, 100 / 30, np.exp((20 - 100) / 3600)],
                     [4 / 10, 5 / 10, 0.0, 0.0, 200 / 30, np.exp((30 - 200) / 3600)]])
    np.testing.assert_allclose(rows, want, rtol=1e-15, atol=0)  # tardiness unscaled


def test_feature_determinism(inst6, obj_cfg):
    perm = sc.edd_sort(inst6)
    a = sc.state_features(inst6, perm, obj_cfg, 3, 10)
    b = sc.state_features(inst6, perm, obj_cfg, 3, 10)
    assert a.per_job.tobytes() == b.per_job.tobytes()
    assert a.general == b.general


def test_general_feature():
    assert sc.general_feature(0, 10) == 0.0
    assert sc.general_feature(10, 10) == 1.0
    assert sc.general_feature(5, 10) == 0.5
    with pytest.raises(ValueError):
        sc.general_feature(11, 10)
    # one step per row of a block, as a collect's lanes need
    assert sc.general_feature(np.array([0, 3, 10]), 10).tolist() == [0.0, 0.3, 1.0]
    with pytest.raises(ValueError):
        sc.general_feature(np.array([3, 11]), 10)


def test_check_pair_takes_one_pair_or_arrays_of_pairs():
    sc.check_pair(5, 0, 4)
    sc.check_pair(5, np.array([0, 3]), np.array([4, 1]))
    for i, k in ((2, 2), (0, 5), (-1, 2), ([0, 3], [4, 3]), ([0, 5], [1, 1])):
        with pytest.raises(ValueError):
            sc.check_pair(5, np.asarray(i), np.asarray(k))


# ---------------------------------------------------------------------------
# config validation


def test_objective_config_rejects_bad_weights():
    with pytest.raises(ValueError):
        sc.ObjectiveConfig(alpha1=-1.0)
    with pytest.raises(ValueError):
        sc.ObjectiveConfig(alpha1=0.0, alpha2=0.0)
    with pytest.raises(ValueError):
        sc.ObjectiveConfig(tardiness_scale=0.0)


# the eight config dataclasses, each with what its defaults lack
CONFIGS = [(sc.ObjectiveConfig, {}), (policynet.NetConfig, {"d_in": 8}),
           (ppo.EpisodeConfig, {}), (ppo.PPOConfig, {}), (inference.InferenceConfig, {}),
           (baselines.SHConfig, {}), (baselines.SAConfig, {}), (bench.GeneratorConfig, {})]


@pytest.mark.parametrize("cls,base,field", [
    pytest.param(cls, base, f, id=f"{cls.__name__}.{f.name}") for cls, base in CONFIGS
    for f in fields(cls)])
def test_every_config_field_refuses_what_its_annotation_does_not_admit(cls, base, field):
    kind, _, optional = field.type.partition(" | ")
    assert kind in ("int", "float", "bool", "str") and optional in ("", "None")
    cls(**base)
    bad = ([True, False] if kind != "bool" else []) + (["1"] if kind != "str" else [])
    bad += {"int": [2.0, 1.5], "float": [math.nan, math.inf, -math.inf]}.get(kind, [])
    bad += [[], {}] + ([None] if not optional else [])
    for value in bad:
        with pytest.raises(sc.FieldError, match=f"^{field.name} must be ") as caught:
            cls(**{**base, field.name: value})
        assert caught.value.field == field.name
        assert isinstance(caught.value, ValueError) and isinstance(caught.value, TypeError)
    if optional:
        assert getattr(cls(**{**base, field.name: None}), field.name) is None


def test_a_config_field_keeps_the_type_it_was_given():
    # an int in a float field is not converted, so a config written back out
    # (experiment_config.json, checkpoint headers) keeps its bytes
    assert repr(ppo.EpisodeConfig(gamma=1).gamma) == "1"
    assert repr(baselines.SAConfig(t_max=72).t_max) == "72"
    with pytest.raises(sc.FieldError, match="^seed must be an integer >= 0, got -1$"):
        baselines.SAConfig(seed=-1)


# ---------------------------------------------------------------------------
# instance files


def test_instance_roundtrip(tmp_path, inst6):
    path = tmp_path / "inst.json"
    sc.save_instance(inst6, path)
    loaded = sc.load_instance(path)
    assert loaded.id == inst6.id
    assert np.array_equal(loaded.proc, inst6.proc)
    assert np.array_equal(loaded.due, inst6.due)


def test_loader_rejects_invalid(tmp_path):
    bad = {"id": "bad", "station_time_s": 100,
           "jobs": [{"p_s": [150.0], "due_s": 10.0}, {"p_s": [50.0], "due_s": 20.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="invalid instance"):
        sc.load_instance(path)


def test_loader_rejects_malformed(tmp_path):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps({"id": "x", "jobs": []}))
    with pytest.raises(ValueError):
        sc.load_instance(path)


# ---------------------------------------------------------------------------
# permutation blocks


def test_reference_functions_reject_permutation_blocks(inst6, obj_cfg):
    # one permutation per call: a (B, N) block, even of valid rows, is refused
    ref = sc.edd_sort(inst6)
    block = np.array([ref, ref[::-1]])
    calls = [lambda p: sc.weighted_tardiness_values(inst6, p, obj_cfg),
             lambda p: sc.objective_f1(inst6, p, obj_cfg),
             lambda p: sc.objective_f2(inst6, p),
             lambda p: sc.combined_objective(inst6, p, ref, obj_cfg),
             lambda p: sc.combined_objective(inst6, ref, p, obj_cfg),
             lambda p: sc.job_features(inst6, p, obj_cfg),
             lambda p: sc.state_features(inst6, p, obj_cfg, 0, 10)]
    for call in calls:
        call(ref)
        for bad in (block, [[0, 1, 2, 3, 4, 4]], np.zeros((2, 2, 6), dtype=int)):
            with pytest.raises(ValueError):
                call(bad)
