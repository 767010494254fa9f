"""The text format of the artifacts: the exact text each writer produces
from hand-built inputs, and the errors each CSV reader raises on malformed
input, and that the column tables are the columns the README documents. No
training is involved, so the pinned text holds on any BLAS.

A deliberate change of the number format (say, to floats that round-trip)
shows up here as a failing test."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from gaplab.artifacts import (LMC_COLUMNS, PATH_COLUMNS, TRACE_COLUMNS, GapMetrics, LmcCurve,
                              PathCurve, TraceRecord, TrainTrace, format_gap_doc,
                              format_gap_docs, read_lmc_csv, read_path_csv, read_trace_csv,
                              write_lmc_csv, write_path_csv, write_trace_csv)
from gaplab.connectivity import lambda_grid
from gaplab.errors import FormatError

RECOVERED = GapMetrics(0.9, 0.6, 0.9 - 0.6, 10, 40, True)
UNRECOVERED = GapMetrics(0.8, 0.7, 0.8 - 0.7, 21, None, False)


def test_trace_csv_text(tmp_path):
    trace = TrainTrace(records=[
        TraceRecord(1, 0, 2.0794415416798357, 0.125, 1.9, 0.25),
        TraceRecord(2, 0, 1 / 3, 0.5, 1234567890.5, 0.75, test_loss=1e-10, test_acc=2 / 3,
                    ckpt="task0_iter0000002"),
        TraceRecord(3, 1, 0.1 + 0.2, 1.0, 0.0, 0.0, test_loss=0.5, test_acc=1.0),
    ])
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    assert path.read_bytes() == (
        b"iter,task,batch_loss_pre,batch_acc_pre,batch_loss_post,batch_acc_post,"
        b"test_loss,test_acc,ckpt\r\n"
        b"1,0,2.07944154,0.125,1.9,0.25,,,\r\n"
        b"2,0,0.333333333,0.5,1.23456789e+09,0.75,1e-10,0.666666667,task0_iter0000002\r\n"
        b"3,1,0.3,1,0,0,0.5,1,\r\n"
    )
    assert read_trace_csv(path).boundaries == [2, 3]


def test_lmc_csv_text(tmp_path):
    curve = LmcCurve(lambda_grid(0.3), [0.7, 1 / 3, 2.5e-5, 0.5, 0.7],
                     [0.875, 0.5, 0.1, 0.25, 1.0])
    path = tmp_path / "lmc.csv"
    write_lmc_csv(path, curve)
    assert path.read_bytes() == (
        b"lambda,loss,accuracy\r\n"
        b"0,0.7,0.875\r\n"
        b"0.3,0.333333333,0.5\r\n"
        b"0.6,2.5e-05,0.1\r\n"
        b"0.9,0.5,0.25\r\n"
        b"1,0.7,1\r\n"
    )


def test_path_csv_text(tmp_path):
    curve = PathCurve([100, 101, 250], [0.25, 2 / 3, 1e6 + 0.5], [1.0, 0.0, 0.125])
    path = tmp_path / "path.csv"
    write_path_csv(path, curve)
    assert path.read_bytes() == (
        b"iter,loss,accuracy\r\n"
        b"100,0.25,1\r\n"
        b"101,0.666666667,0\r\n"
        b"250,1000000.5,0.125\r\n"
    )


def test_gap_doc_text():
    assert format_gap_doc(RECOVERED) == (
        "pre_switch_acc = 0.9\n"
        "min_acc = 0.6\n"
        "gap_depth = 0.3\n"
        "min_iteration = 10\n"
        "recovery_iteration = 40\n"
        "recovered = true\n"
    )


def test_median_gap_doc_text():
    assert format_gap_docs({5: UNRECOVERED, 3: RECOVERED}) == (
        "[seed 3]\n"
        "pre_switch_acc = 0.9\n"
        "min_acc = 0.6\n"
        "gap_depth = 0.3\n"
        "min_iteration = 10\n"
        "recovery_iteration = 40\n"
        "recovered = true\n"
        "\n"
        "[seed 5]\n"
        "pre_switch_acc = 0.8\n"
        "min_acc = 0.7\n"
        "gap_depth = 0.1\n"
        "min_iteration = 21\n"
        "recovery_iteration = none\n"
        "recovered = false\n"
        "\n"
        "[median]\n"
        "pre_switch_acc = 0.85\n"
        "min_acc = 0.65\n"
        "gap_depth = 0.2\n"
        "min_iteration = 15.5\n"
        "recovery_iteration = 40\n"
        "recovered_count = 1/2\n"
    )


# --- malformed input, for every CSV reader ---------------------------------------

# (reader, header line, one valid row)
READERS = {
    "trace": (read_trace_csv,
              "iter,task,batch_loss_pre,batch_acc_pre,batch_loss_post,batch_acc_post,"
              "test_loss,test_acc,ckpt",
              "1,0,0.5,0.5,0.5,0.5,,,"),
    "lmc": (read_lmc_csv, "lambda,loss,accuracy", "0,0.5,0.5"),
    "path": (read_path_csv, "iter,loss,accuracy", "5,0.5,0.5"),
}


def malformed(header, row):
    """(file text, expected error) for each way a table can be malformed."""
    n_fields = header.count(",") + 1
    unparsable = "x" + row[row.index(","):]
    values = row.split(",")  # the third field is a float in every table
    nan, inf = (",".join([*values[:2], v, *values[3:]]) for v in ("nan", "-inf"))
    return {
        "empty file": ("", "empty"),
        "bad header": ("iter,task\n" + row + "\n", "line 1: unexpected header"),
        "field count": (f"{header}\n{row}\n1,0\n", f"line 3: expected {n_fields} fields, got 2"),
        "unparsable field": (f"{header}\n{row}\n{unparsable}\n", "line 3: "),
        "non-finite number": (f"{header}\n{row}\n{nan}\n", "line 3: non-finite number 'nan'$"),
        "infinite number": (f"{header}\n{row}\n{inf}\n", "line 3: non-finite number '-inf'$"),
        "no records": (header + "\n", "no records"),
        "not text": (f"{header}\n{row}\n".encode() + b"\xff\xfe\n", "not UTF-8 text"),
        # the csv module's field limit (131072 characters) once raised csv.Error
        "field too large": (f"{header}\n{row}\n{row}{'x' * 200_000}\n",
                            "line 3: field larger than field limit"),
    }


@pytest.mark.parametrize("case", ["empty file", "bad header", "field count",
                                  "unparsable field", "non-finite number",
                                  "infinite number", "no records", "not text",
                                  "field too large"])
@pytest.mark.parametrize("kind", sorted(READERS))
def test_reader_rejects_malformed_input(tmp_path, kind, case):
    reader, header, row = READERS[kind]
    text, message = malformed(header, row)[case]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(FormatError, match=message):
        reader(path)


# --- the column tables are the documented format ---------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_trace_columns_are_the_trace_record_fields_in_order():
    # the trace writer and reader pass a record's fields in column order
    names = [{"iteration": "iter"}.get(f.name, f.name) for f in fields(TraceRecord)]
    assert list(TRACE_COLUMNS) == names


def test_readme_lists_every_table_column_in_order():
    text = README.read_text()
    start = text.index("The text artifacts share one format.")
    paragraph = text[start:text.index("\n\n", start)]
    tables = {name: re.findall(r"`(\w+)`", columns) for name, columns in
              re.findall(r"`(\w+)\.csv` \(([^)]*)\)", paragraph)}
    assert tables == {"trace": list(TRACE_COLUMNS), "lmc": list(LMC_COLUMNS),
                      "path": list(PATH_COLUMNS)}
