"""Evaluation, batch probes, gap metrics, and trace serialization."""

import math
import statistics
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import eval_trace
from gap_oracles import CASES, check_case
from gaplab.artifacts import (
    GapMetrics,
    GapParams,
    TraceRecord,
    TrainTrace,
    _median,
    compute_gap,
    format_gap_doc,
    format_gap_docs,
    read_trace_csv,
    write_trace_csv,
)
from gaplab.autodiff import (ParamVector, Workspace, accuracy, backward, forward,
                             init_params, mlp, small_cnn, softmax_cross_entropy)
from gaplab.data import Dataset, gen_blobs
from gaplab.errors import (ArgumentError, FormatError, InsufficientTraceError, ShapeError,
                           SpecMismatchError)
from gaplab.instrument import TraceRecorder, eval_test
from gaplab.rng import Rng

SPEC = mlp(6, [8], 4)


def blob_test_set(seed=0):
    _, test = gen_blobs(seed, n_classes=4, n_per_class=50, dim=6, spread=1.5)
    return test


# --- eval_test ---------------------------------------------------------------

def test_eval_batch_size_invariance():
    test = blob_test_set()
    params = init_params(SPEC, 1)
    loss_a, acc_a = eval_test(SPEC, params, test, eval_batch=256)
    loss_b, acc_b = eval_test(SPEC, params, test, eval_batch=64)
    loss_c, acc_c = eval_test(SPEC, params, test, eval_batch=7)
    assert acc_a == acc_b == acc_c
    assert abs(loss_a - loss_b) < 1e-12 and abs(loss_a - loss_c) < 1e-12


def test_eval_rejects_a_zero_batch_and_an_empty_set():
    test = blob_test_set()
    params = init_params(SPEC, 1)
    with pytest.raises(ArgumentError, match="eval_batch must be >= 1, got 0"):
        eval_test(SPEC, params, test, eval_batch=0)
    # an empty evaluation set never reaches eval_test: Dataset refuses it
    with pytest.raises(ArgumentError, match="at least one sample"):
        eval_test(SPEC, params, Dataset(test.features[:0], test.labels[:0], test.n_classes))


def test_eval_duplication_invariance():
    test = blob_test_set()
    doubled = Dataset(
        np.concatenate([test.features, test.features]),
        np.concatenate([test.labels, test.labels]),
        test.n_classes,
    )
    params = init_params(SPEC, 2)
    loss_a, acc_a = eval_test(SPEC, params, test)
    loss_b, acc_b = eval_test(SPEC, params, doubled)
    assert acc_a == pytest.approx(acc_b, abs=1e-15)
    assert loss_a == pytest.approx(loss_b, abs=1e-12)


def test_eval_zero_params_hand_values():
    # zero weights give all-zero logits: argmax ties to class 0 and the
    # loss is exactly ln(n_classes) on every sample
    test = blob_test_set()
    params = ParamVector(np.zeros(SPEC.param_count), SPEC.digest)
    loss, acc = eval_test(SPEC, params, test)
    assert acc == pytest.approx(float((test.labels == 0).mean()), abs=1e-15)
    assert loss == pytest.approx(math.log(4), abs=1e-12)


# --- eval_test into a workspace ---------------------------------------------

SMALL_CNN = small_cnn((3, 8, 8), [4, 8], [8], 3)  # two conv blocks


def normal_test_set(spec, n, seed):
    rng = Rng(seed)
    x = rng.normals(n * math.prod(spec.input_shape)).reshape((n,) + spec.input_shape)
    return Dataset(x, np.array([rng.next_below(spec.n_classes) for _ in range(n)]),
                   spec.n_classes)


@pytest.mark.parametrize("spec", [SPEC, SMALL_CNN], ids=["mlp", "smallcnn"])
@pytest.mark.parametrize("eval_batch", [8, 32], ids=["short-last-batch", "batch-past-the-set"])
def test_eval_into_one_workspace_is_bit_identical(spec, eval_batch):
    test = normal_test_set(spec, 20, 3)  # 2.5 batches of 8, or less than one of 32
    workspace = Workspace(spec, min(eval_batch, test.n))
    rng = Rng(4)
    for scale in (0.1, 1.0, 3.0, 10.0, 30.0):  # five vectors in a row through it
        params = ParamVector(scale * rng.normals(spec.param_count), spec.digest)
        for rows in {test.n % eval_batch or eval_batch, min(eval_batch, test.n)}:
            x = test.features[:rows]
            want = forward(spec, params, x).tobytes()
            assert forward(spec, params, x, workspace).tobytes() == want
        want = np.array(eval_test(spec, params, test, eval_batch))
        got = np.array(eval_test(spec, params, test, eval_batch, workspace))
        assert got.tobytes() == want.tobytes()


def test_a_workspace_of_another_spec_or_too_few_rows_is_refused():
    test = normal_test_set(SMALL_CNN, 20, 3)
    params = init_params(SMALL_CNN, 0)
    with pytest.raises(SpecMismatchError, match="workspace is not built for this model spec"):
        eval_test(SMALL_CNN, params, test, 8, Workspace(SPEC, 8))
    with pytest.raises(ShapeError, match="batch of 8 rows does not fit a workspace of 7"):
        eval_test(SMALL_CNN, params, test, 8, Workspace(SMALL_CNN, 7))
    with pytest.raises(ShapeError, match="batch of 20 rows does not fit a workspace of 8"):
        forward(SMALL_CNN, params, test.features, Workspace(SMALL_CNN, 8))


def peak_allocated(work) -> int:
    """Peak bytes that `work()` held allocated at once, numpy's arrays included."""
    tracemalloc.start()
    try:
        work()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_workspace_allocates_less_than_one_layer_output():
    # without a workspace every batch allocates each layer's output again,
    # which glibc can trim from the heap and fault back in. numpy still
    # allocates a buffer of up to `np.getbufsize()` values to broadcast a
    # bias, so the layers here, those of cnn-files, are larger than that
    spec = small_cnn((3, 8, 8), [8, 16], [64], 8)
    test = normal_test_set(spec, 160, 3)  # 2.5 batches of 64
    params = init_params(spec, 0)
    first_conv_output = 64 * (8 * 8 * 8) * 8  # bytes: 64 rows of [8, 8, 8] float64
    assert first_conv_output >= 4 * 8 * np.getbufsize()
    workspace = Workspace(spec, 64)

    def evaluate(*ws):
        return eval_test(spec, params, test, 64, *ws)
    assert peak_allocated(evaluate) >= first_conv_output
    assert peak_allocated(lambda: evaluate(workspace)) >= first_conv_output  # it fills up
    assert peak_allocated(lambda: evaluate(workspace)) < first_conv_output


# --- batch probe: TraceRecorder.on_pre_update / on_post_update ---------------

def probe(spec, before, after, batch, labels):
    """One iteration's record through the recorder's two probe hooks, fed
    as the trainer feeds them: the backward pass's loss and logits, then
    the updated parameters."""
    recorder = TraceRecorder(spec, Dataset(batch, labels, spec.n_classes))
    loss, _, logits = backward(spec, before, batch, labels)
    recorder.on_pre_update(0, 0, loss, logits, labels)
    recorder.on_post_update(0, 0, after, batch, labels)
    (record,) = recorder.trace.records
    return record


def test_probe_identical_params_identical_stats():
    test = blob_test_set()
    params = init_params(SPEC, 3)
    record = probe(SPEC, params, params, test.features[:16], test.labels[:16])
    assert record.batch_acc_pre == record.batch_acc_post
    assert record.batch_loss_pre == record.batch_loss_post


def test_probe_reuses_precomputed_logits():
    # the "before" side comes from the backward pass's logits and equals a
    # separate forward pass with the old parameters, bit for bit
    test = blob_test_set()
    a, b = init_params(SPEC, 4), init_params(SPEC, 5)
    batch, labels = test.features[:8], test.labels[:8]
    record = probe(SPEC, a, b, batch, labels)
    for params, loss, acc in ((a, record.batch_loss_pre, record.batch_acc_pre),
                              (b, record.batch_loss_post, record.batch_acc_post)):
        logits = forward(SPEC, params, batch)
        assert loss == softmax_cross_entropy(logits, labels)[0]
        assert acc == accuracy(logits, labels)


def test_probe_detects_improvement():
    # before: zero params (ties to class 0); after: bias forces class 1
    spec = mlp(2, [], 2)
    zero = ParamVector(np.zeros(spec.param_count), spec.digest)
    biased = ParamVector(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 5.0]), spec.digest)
    record = probe(spec, zero, biased, np.zeros((4, 2)), np.array([1, 1, 1, 1]))
    assert record.batch_acc_pre == 0.0 and record.batch_acc_post == 1.0
    assert record.batch_loss_post < record.batch_loss_pre


# --- compute_gap oracles ------------------------------------------------------

@pytest.mark.parametrize("case", CASES, ids=lambda c: c["name"])
def test_gap_oracle(case):
    check_case(case)


def test_gap_oracle_corpus_size():
    assert len(CASES) >= 10


def test_gap_requires_enough_pre_evals():
    trace = eval_trace([0.9] * 4, [0.5] * 6)
    with pytest.raises(InsufficientTraceError, match="pre-boundary"):
        compute_gap(trace, 100)


def test_gap_requires_post_evals():
    trace = eval_trace([0.9] * 5, [0.5])
    with pytest.raises(InsufficientTraceError, match="post-boundary"):
        compute_gap(trace, 200)


def test_gap_rejects_bad_arguments():
    trace = eval_trace([0.9] * 5, [0.5] * 6)
    for kw in (dict(baseline_evals=0), dict(recovery_window=0), dict(window=0)):
        with pytest.raises(ArgumentError):
            compute_gap(trace, 100, GapParams(**kw))


def test_gap_ignores_non_eval_records():
    trace = eval_trace([0.9] * 5, [0.6, 0.9, 0.9, 0.9, 0.9, 0.9])
    # interleave records without test accuracy; they must not participate
    trace.records.append(TraceRecord(105, 1, 1.0, 0.0, 1.0, 0.0))
    trace.records.append(TraceRecord(115, 1, 1.0, 0.0, 1.0, 0.0))
    got = compute_gap(trace, 100)
    assert got.min_acc == 0.6 and got.recovery_iteration == 20


# --- trace CSV ----------------------------------------------------------------

def test_trace_csv_round_trip_exact(tmp_path):
    trace = eval_trace([0.5, 0.75], [0.25, 1.0], boundary=10, spacing=5)
    trace.records[0].ckpt = "task0_iter0000005"
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    back = read_trace_csv(path)
    assert back.records == trace.records
    assert back.boundaries == [10, 20]


def test_trace_csv_empty_fields_mean_no_eval(tmp_path):
    trace = TrainTrace(records=[
        TraceRecord(1, 0, 0.5, 0.5, 0.4, 0.6),
        TraceRecord(2, 0, 0.4, 0.6, 0.3, 0.7, test_loss=0.9, test_acc=0.55),
    ])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    text = path.read_text().splitlines()
    assert text[1].endswith(",,,")  # no eval, no checkpoint
    back = read_trace_csv(path)
    assert back.records[0].test_acc is None
    assert back.records[1].test_acc == 0.55
    assert len(back.eval_records()) == 1


def test_empty_trace_has_no_boundaries():
    assert TrainTrace().boundaries == []


def test_trace_csv_infers_boundaries_from_task_changes(tmp_path):
    records = [TraceRecord(i, 0 if i <= 3 else 1, 1.0, 0.5, 1.0, 0.5)
               for i in range(1, 7)]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, TrainTrace(records=records))
    assert read_trace_csv(path).boundaries == [3, 6]


def test_trace_csv_error_reporting(tmp_path):
    path = tmp_path / "trace.csv"

    path.write_text("")
    with pytest.raises(FormatError, match="empty trace"):
        read_trace_csv(path)

    path.write_text("iter,task\n")
    with pytest.raises(FormatError, match="line 1: unexpected header"):
        read_trace_csv(path)

    header = "iter,task,batch_loss_pre,batch_acc_pre,batch_loss_post,batch_acc_post,test_loss,test_acc,ckpt\n"
    path.write_text(header)
    with pytest.raises(FormatError, match="no records"):
        read_trace_csv(path)

    path.write_text(header + "1,0,0.5\n")
    with pytest.raises(FormatError, match="line 2: expected 9 fields"):
        read_trace_csv(path)

    path.write_text(header + "1,0,x,0.5,0.5,0.5,,,\n")
    with pytest.raises(FormatError, match="line 2"):
        read_trace_csv(path)

    path.write_text(header + "2,0,0.5,0.5,0.5,0.5,,,\n1,0,0.5,0.5,0.5,0.5,,,\n")
    with pytest.raises(FormatError, match="line 3: iterations must strictly increase"):
        read_trace_csv(path)


# --- gap documents -------------------------------------------------------------

def test_format_gap_doc_exact():
    m = GapMetrics(pre_switch_acc=0.9, min_acc=0.6, gap_depth=0.3,
                   min_iteration=10, recovery_iteration=40, recovered=True)
    doc = format_gap_doc(m, label="seed 0")
    assert doc == (
        "[seed 0]\n"
        "pre_switch_acc = 0.9\n"
        "min_acc = 0.6\n"
        "gap_depth = 0.3\n"
        "min_iteration = 10\n"
        "recovery_iteration = 40\n"
        "recovered = true\n"
    )


def test_format_gap_doc_unrecovered():
    m = GapMetrics(0.9, 0.6, 0.3, 10, None, False)
    doc = format_gap_doc(m)
    assert "recovery_iteration = none" in doc
    assert "recovered = false" in doc


def test_format_gap_docs_median_section():
    per_seed = {
        0: GapMetrics(0.9, 0.6, 0.3, 10, 40, True),
        1: GapMetrics(0.8, 0.7, 0.1, 20, None, False),
        2: GapMetrics(0.85, 0.65, 0.2, 30, 60, True),
    }
    doc = format_gap_docs(per_seed)
    assert "[seed 0]" in doc and "[seed 1]" in doc and "[seed 2]" in doc
    assert "[median]" in doc
    assert "gap_depth = 0.2" in doc.split("[median]")[1]
    assert "recovered_count = 2/3" in doc
    # medians of recovery ignore unrecovered seeds
    assert "recovery_iteration = 50" in doc.split("[median]")[1]


INTS = st.integers(-2**62, 2**62)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(values=st.one_of(st.lists(INTS, min_size=1), st.lists(FLOATS, min_size=1),
                        st.lists(INTS | FLOATS, min_size=1)))
@example(values=[3, 1, 2]).via("odd count")
@example(values=[4, 1, 0.5, 2]).via("even count")
def test_median_matches_statistics_median(values):
    # odd and even lengths alike: the same value of the same type, which
    # decides how gap.txt writes it
    want = statistics.median(values)
    got = _median(iter(values))
    assert (type(got), got) == (type(want), want)
