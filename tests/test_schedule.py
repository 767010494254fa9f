"""The per-seed schedule: its arithmetic on its own, and against what a run
actually evaluated, checkpointed and wrote."""

from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaplab.artifacts import read_trace_csv
from gaplab.config import ExperimentConfig
from gaplab.experiment import run_single_seed
from gaplab.trainer import CheckpointStore, Schedule, TrainConfig

from test_pinned import OFF_CADENCE

# three tasks, the middle one empty: the trace has no record of task 1, so
# the first two boundaries are the same iteration
THREE_TASKS = dict(OFF_CADENCE,
                   split={"fractions": [30, 30, 40], "joint": True},
                   train=dict(OFF_CADENCE["train"], epochs_per_task=[4, 0, 9]))


@st.composite
def problems(draw):
    n_tasks = draw(st.integers(1, 4))
    pools = draw(st.lists(st.integers(1, 40), min_size=n_tasks, max_size=n_tasks))
    config = TrainConfig(
        batch_size=draw(st.integers(1, 16)),
        epochs_per_task=tuple(draw(st.lists(st.integers(0, 4), min_size=1,
                                            max_size=n_tasks))),
        eval_every=draw(st.integers(1, 12)),
        checkpoint_every=draw(st.integers(1, 12)),
        dense_window=draw(st.integers(0, 12)),
        dense_tail=draw(st.integers(0, 12)),
    )
    return config, pools, draw(st.integers(1, 5))


@settings(derandomize=True, deadline=None)
@given(problems())
def test_plan_properties(problem):
    config, pools, theta2_epochs = problem
    plan = Schedule.plan(pools, config, theta2_epochs)
    lengths = [config.epochs_for(k) * -(-n // config.batch_size)
               for k, n in enumerate(pools)]
    assert plan.boundaries == list(accumulate(lengths))
    total = plan.boundaries[-1]
    assert 0 in plan.checkpoints
    for start, length in zip([0] + plan.boundaries, lengths):
        if length:
            assert start + length in plan.evals & plan.checkpoints
        head = range(start + 1, start + 1 + min(config.dense_window, length))
        assert set(head) <= plan.evals
    if len(pools) >= 2 and theta2_epochs <= config.epochs_for(1):
        assert plan.boundaries[0] < plan.theta2 <= plan.boundaries[1]
        assert plan.theta2 in plan.checkpoints
    else:
        assert plan.theta2 is None
    assert all(0 <= i <= total for i in plan.evals | plan.checkpoints)


def run_seed0(tmp_path, raw):
    """Seed 0's result and its run directory."""
    cfg = ExperimentConfig.from_dict(dict(raw, out_dir=str(tmp_path / "exp")))
    run_dir = tmp_path / "exp" / "seed0"
    return run_single_seed(cfg, 0, run_dir), run_dir


@pytest.mark.parametrize("raw", [OFF_CADENCE, THREE_TASKS],
                         ids=["off-cadence", "three-tasks"])
def test_plan_is_what_the_run_did(tmp_path, raw):
    result, run_dir = run_seed0(tmp_path, raw)
    assert sorted(result.plan.evals) == [r.iteration for r in result.trace.eval_records()]
    store = CheckpointStore.open(run_dir / "checkpoints")
    assert sorted(result.plan.checkpoints) == store.iterations()


def test_trace_boundaries_read_back_equal_the_run(tmp_path):
    result, run_dir = run_seed0(tmp_path, THREE_TASKS)
    assert result.plan.boundaries[0] == result.plan.boundaries[1]
    back = read_trace_csv(run_dir / "trace.csv")
    assert back.boundaries == result.trace.boundaries
