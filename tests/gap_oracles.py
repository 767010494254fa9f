"""Hand-computed drop-and-recovery oracles for compute_gap.

Every expected value below is derived by hand from the definitions:
baseline = mean of the last `baseline_evals` pre-boundary accuracies,
minimum over post-boundary evals inside `window` (ties -> earliest),
recovery = first post eval starting `recovery_window` consecutive evals
at or above baseline - tolerance, requiring the full window to exist.
Iterations sit at boundary 100 with spacing 10 (see conftest.eval_trace).
"""

from gaplab.artifacts import GapParams, compute_gap

from conftest import eval_trace

# name, pre accs, post accs, GapParams kwargs, expected GapMetrics fields
CASES = [
    # dip to 0.6 at +10, climb back; first run of 5 evals >= 0.9 starts at +40
    dict(
        name="classic_dip_recovery",
        pre=[0.9] * 5,
        post=[0.6, 0.7, 0.8, 0.9, 0.9, 0.9, 0.9, 0.9],
        kw={},
        expect=dict(pre_switch_acc=0.9, min_acc=0.6, gap_depth=0.9 - 0.6,
                    min_iteration=10, recovery_iteration=40, recovered=True),
    ),
    # perfectly flat: zero depth, min ties resolve to the earliest eval,
    # recovery immediately at the first post eval
    dict(
        name="flat_no_gap",
        pre=[0.8] * 5,
        post=[0.8] * 6,
        kw={},
        expect=dict(pre_switch_acc=0.8, min_acc=0.8, gap_depth=0.0,
                    min_iteration=10, recovery_iteration=10, recovered=True),
    ),
    # strictly improving run: negative depth, instant recovery
    dict(
        name="monotone_improvement",
        pre=[0.7] * 5,
        post=[0.75, 0.8, 0.85, 0.9, 0.95],
        kw={},
        expect=dict(pre_switch_acc=0.7, min_acc=0.75, gap_depth=0.7 - 0.75,
                    min_iteration=10, recovery_iteration=10, recovered=True),
    ),
    # approaches but never reaches the baseline again
    dict(
        name="never_recovers",
        pre=[0.9] * 5,
        post=[0.5, 0.6, 0.7, 0.8, 0.85, 0.85],
        kw={},
        expect=dict(pre_switch_acc=0.9, min_acc=0.5, gap_depth=0.9 - 0.5,
                    min_iteration=10, recovery_iteration=None, recovered=False),
    ),
    # two equal minima: the earlier iteration wins
    dict(
        name="tie_takes_earliest_min",
        pre=[0.9] * 5,
        post=[0.6, 0.6, 0.9, 0.9, 0.9, 0.9, 0.9],
        kw={},
        expect=dict(pre_switch_acc=0.9, min_acc=0.6, gap_depth=0.9 - 0.6,
                    min_iteration=10, recovery_iteration=30, recovered=True),
    ),
    # tolerance 0.05 lowers the recovery threshold to 0.85, so 0.86 counts
    dict(
        name="tolerance_recovery",
        pre=[0.9] * 5,
        post=[0.86] * 5,
        kw=dict(tolerance=0.05),
        expect=dict(pre_switch_acc=0.9, min_acc=0.86, gap_depth=0.9 - 0.86,
                    min_iteration=10, recovery_iteration=10, recovered=True),
    ),
    # a relapse inside the window restarts the consecutive count
    dict(
        name="relapse_restarts_recovery",
        pre=[0.9] * 5,
        post=[0.9, 0.9, 0.5, 0.9, 0.9, 0.9],
        kw=dict(recovery_window=3),
        expect=dict(pre_switch_acc=0.9, min_acc=0.5, gap_depth=0.9 - 0.5,
                    min_iteration=30, recovery_iteration=40, recovered=True),
    ),
    # baseline averages only the LAST baseline_evals pre evals
    dict(
        name="baseline_is_last_k_mean",
        pre=[0.2, 0.4, 0.6, 0.8, 1.0],
        post=[0.7] * 5,
        kw=dict(baseline_evals=3),
        expect=dict(pre_switch_acc=(0.6 + 0.8 + 1.0) / 3,
                    min_acc=0.7, gap_depth=(0.6 + 0.8 + 1.0) / 3 - 0.7,
                    min_iteration=10, recovery_iteration=None, recovered=False),
    ),
    # window 25 admits only the evals at +10 and +20; the later crash at
    # +30/+40 is out of scope, and 2 evals cannot fill a recovery window of 5
    dict(
        name="analysis_window_clips",
        pre=[0.9] * 5,
        post=[0.7, 0.65, 0.1, 0.05],
        kw=dict(window=25),
        expect=dict(pre_switch_acc=0.9, min_acc=0.65, gap_depth=0.9 - 0.65,
                    min_iteration=20, recovery_iteration=None, recovered=False),
    ),
    # all evals sit at baseline but only 3 exist: no full window, no recovery
    dict(
        name="tail_shorter_than_recovery_window",
        pre=[0.9] * 5,
        post=[0.9, 0.9, 0.9],
        kw={},
        expect=dict(pre_switch_acc=0.9, min_acc=0.9, gap_depth=0.0,
                    min_iteration=10, recovery_iteration=None, recovered=False),
    ),
    # recovery_window=1: a pure decline still never touches the baseline
    dict(
        name="decline_window_one",
        pre=[0.9] * 5,
        post=[0.8, 0.7, 0.6],
        kw=dict(recovery_window=1),
        expect=dict(pre_switch_acc=0.9, min_acc=0.6, gap_depth=0.9 - 0.6,
                    min_iteration=30, recovery_iteration=None, recovered=False),
    ),
    # recovery_window=1 recovers at the first eval >= baseline even though
    # the global minimum happens later: min and recovery are independent
    dict(
        name="min_after_recovery",
        pre=[0.9] * 5,
        post=[0.5, 0.95, 0.4, 0.99],
        kw=dict(recovery_window=1),
        expect=dict(pre_switch_acc=0.9, min_acc=0.4, gap_depth=0.9 - 0.4,
                    min_iteration=30, recovery_iteration=20, recovered=True),
    ),
]


def check_case(case):
    """Assert compute_gap reproduces the hand-computed fields exactly."""
    trace = eval_trace(case["pre"], case["post"])
    got = compute_gap(trace, 100, GapParams(**case["kw"]))
    expect = case["expect"]
    assert got.pre_switch_acc == expect["pre_switch_acc"], case["name"]
    assert got.min_acc == expect["min_acc"], case["name"]
    assert got.gap_depth == expect["gap_depth"], case["name"]
    assert got.min_iteration == expect["min_iteration"], case["name"]
    assert got.recovery_iteration == expect["recovery_iteration"], case["name"]
    assert got.recovered == expect["recovered"], case["name"]
    return got
