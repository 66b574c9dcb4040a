import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapsched import operators as ops
from swapsched.schedcore import (ObjectiveConfig, ObjectiveTables, is_permutation, objective_f1,
                                 objective_f2)
from tests.conftest import make_instance


def test_swap_basic():
    assert list(ops.swap(np.array([0, 1, 2]), (0, 2))) == [2, 1, 0]


def test_swap_structure_six_jobs():
    # swapping the 3rd and 6th positions (0-based 2 and 5)
    sigma = np.array([3, 1, 5, 0, 4, 2])
    out = ops.swap(sigma, (2, 5))
    assert list(out) == [3, 1, 2, 0, 4, 5]
    assert list(sigma) == [3, 1, 5, 0, 4, 2]  # input untouched


def test_swap_involution(rng):
    perm = rng.permutation(8)
    a = (1, 6)
    assert np.array_equal(ops.swap(ops.swap(perm, a), a), perm)


def test_swap_rejects_bad_actions():
    perm = np.arange(4)
    with pytest.raises(ValueError):
        ops.swap(perm, (0, 4))
    with pytest.raises(ValueError):
        ops.swap(perm, (2, 2))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_operators_preserve_bijection(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31)))
    perm = rng.permutation(n)
    i = data.draw(st.integers(0, n - 1))
    k = data.draw(st.integers(0, n - 1).filter(lambda x: x != i))
    assert is_permutation(ops.swap(perm, (i, k)), n)


# ---------------------------------------------------------------------------
# table deltas vs full recomputation


def _random_case(rng):
    n = int(rng.integers(2, 12))
    w = int(rng.integers(1, 6))
    tw = float(rng.uniform(50, 300))
    proc = rng.uniform(0, tw, size=(n, w))
    due = rng.uniform(1, tw * (w + n) * 1.2, size=n)
    inst = make_instance(proc, due, tw)
    perm = rng.permutation(n)
    i = int(rng.integers(n))
    k = int(rng.integers(n - 1))
    if k >= i:
        k += 1
    return inst, perm, (i, k)


@pytest.mark.parametrize("seed", [0, 1])
def test_f2_delta_matches_recompute(seed):
    rng = np.random.default_rng(seed)
    for _ in range(500):
        inst, perm, action = _random_case(rng)
        fast = ObjectiveTables(inst, ObjectiveConfig()).swap_deltas(perm.tolist(), *action)[1]
        full = objective_f2(inst, ops.swap(perm, action)) - objective_f2(inst, perm)
        assert abs(fast - full) <= 1e-9 * max(1.0, abs(full))


@pytest.mark.parametrize("seed", [2, 3])
def test_f1_delta_matches_recompute(seed):
    rng = np.random.default_rng(seed)
    cfg = ObjectiveConfig()
    for _ in range(500):
        inst, perm, action = _random_case(rng)
        fast = ObjectiveTables(inst, cfg).swap_deltas(perm.tolist(), *action)[0]
        full = (objective_f1(inst, ops.swap(perm, action), cfg)
                - objective_f1(inst, perm, cfg))
        assert abs(fast - full) <= 1e-9 * max(1.0, abs(full))


def test_f2_delta_identical_jobs_zero():
    inst = make_instance([(4, 4), (4, 4), (2, 9)], [10, 20, 30], 10)
    assert ObjectiveTables(inst, ObjectiveConfig()).swap_deltas([0, 1, 2], 0, 1)[1] == 0.0


def test_f2_delta_two_job_instance_zero():
    inst = make_instance([(4, 1), (9, 3)], [10, 20], 10)
    assert ObjectiveTables(inst, ObjectiveConfig()).swap_deltas([0, 1], 0, 1)[1] == 0.0


def test_f1_delta_equal_due_dates_zero(obj_cfg):
    inst = make_instance([(4, 1), (9, 3), (2, 2)], [50.0, 50.0, 10.0], 10)
    assert ObjectiveTables(inst, obj_cfg).swap_deltas([0, 1, 2], 0, 1)[0] == 0.0


def test_fc_swap_delta_consistent(inst6, obj_cfg, rng):
    from swapsched.schedcore import combined_objective, edd_sort
    s0 = edd_sort(inst6)
    perm = rng.permutation(inst6.n_jobs)
    action = (1, 4)
    delta = ops.fc_swap_delta(inst6, perm, action, obj_cfg)
    before = combined_objective(inst6, perm, s0, obj_cfg).fc
    after = combined_objective(inst6, ops.swap(perm, action), s0, obj_cfg).fc
    assert delta == pytest.approx(after - before, abs=1e-9)


@pytest.mark.parametrize("perm,action", [
    (np.arange(6), (0, 6)), (np.arange(6), (-1, 2)), (np.arange(6), (3, 3)),
    ([0, 1, 2, 3, 4, 4], (0, 1)), (np.arange(5), (0, 1))],
    ids=["past_end", "negative", "same_position", "repeated_job", "short"])
def test_fc_swap_delta_rejects_bad_input(inst6, obj_cfg, perm, action):
    with pytest.raises(ValueError):
        ops.fc_swap_delta(inst6, perm, action, obj_cfg)
