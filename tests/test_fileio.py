"""Tests for the CSV and JSON file formats."""

import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noisycal.fileio
from noisycal import (
    CalibrationMethod,
    CorrectionMethod,
    CorrectionReport,
    FileFormatError,
    InvalidSpec,
    LengthMismatch,
    SingularTransition,
    ThresholdResult,
    TransitionMatrix,
    build_transition,
)
from noisycal.fileio import (
    RESULTS_HEADER,
    SUMMARY_HEADER,
    read_probability_csv,
    read_transition_csv,
    write_prediction_sets_csv,
    write_probability_csv,
    write_results_csv,
    write_summary_csv,
    write_threshold_json,
)
from oracles import (
    ladder_spec,
    reference_prediction_sets_csv,
    reference_probability_csv,
    spy_svd,
)


def probs(seed=0, n=6, k=3):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(k), size=n)
    return p, rng.integers(0, k, size=n), rng.integers(0, k, size=n)


# ---------------------------------------------------------------------------
# probability / score tables
# ---------------------------------------------------------------------------


def test_probability_roundtrip_without_labels(tmp_path):
    p, _, _ = probs()
    path = str(tmp_path / "p.csv")
    write_probability_csv(path, p)
    kind, got, noisy, true = read_probability_csv(path)
    assert kind == "p"
    assert np.array_equal(got, p)  # repr round-trips floats exactly
    assert noisy is None and true is None


def test_probability_roundtrip_with_noisy_labels(tmp_path):
    p, y_noisy, _ = probs(1)
    path = str(tmp_path / "p.csv")
    write_probability_csv(path, p, y_noisy=y_noisy)
    _, got, noisy, true = read_probability_csv(path)
    assert np.array_equal(got, p)
    assert np.array_equal(noisy, y_noisy)
    assert true is None


def test_probability_roundtrip_with_both_labels(tmp_path):
    p, y_noisy, y_true = probs(2)
    path = str(tmp_path / "p.csv")
    write_probability_csv(path, p, y_noisy=y_noisy, y_true=y_true)
    _, got, noisy, true = read_probability_csv(path)
    assert np.array_equal(noisy, y_noisy)
    assert np.array_equal(true, y_true)


def test_probability_labels_are_one_based_on_disk(tmp_path):
    p = np.array([[0.25, 0.75]])
    path = str(tmp_path / "p.csv")
    write_probability_csv(path, p, y_noisy=np.array([0]), y_true=np.array([1]))
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["p_1", "p_2", "y_noisy", "y_true"]
    assert rows[1][2:] == ["1", "2"]


def test_scores_use_s_prefix(tmp_path):
    s = np.array([[0.5, 1.0], [0.25, 1.0]])
    path = str(tmp_path / "s.csv")
    np.savetxt(path, s, delimiter=",", fmt="%.17g", header="s_1,s_2", comments="")
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    assert header == ["s_1", "s_2"]
    kind, got, _, _ = read_probability_csv(path)
    assert kind == "s"
    assert np.array_equal(got, s)


def test_probability_read_reports_offending_line(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("p_1,p_2\n0.5,0.5\nnot_a_number,0.5\n")
    with pytest.raises(FileFormatError) as exc:
        read_probability_csv(path)
    assert "line 3" in str(exc.value)


def test_probability_read_rejects_ragged_rows(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("p_1,p_2\n0.5,0.5,0.1\n")
    with pytest.raises(FileFormatError) as exc:
        read_probability_csv(path)
    assert "line 2" in str(exc.value)


def test_probability_read_rejects_label_zero(tmp_path):
    # labels are 1-based on disk
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("p_1,p_2,y_noisy\n0.5,0.5,0\n")
    with pytest.raises(FileFormatError):
        read_probability_csv(path)


def test_probability_read_rejects_bad_header(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("q_1,q_2\n0.5,0.5\n")
    with pytest.raises(FileFormatError):
        read_probability_csv(path)


def test_probability_read_rejects_empty_file(tmp_path):
    path = str(tmp_path / "empty.csv")
    open(path, "w").close()
    with pytest.raises(FileFormatError):
        read_probability_csv(path)


def test_probability_read_strips_utf8_byte_order_mark(tmp_path):
    # once misreported as "header must start with p_1 or s_1"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfp_1,p_2,y_noisy\n0.25,0.75,2\n")
    kind, got, noisy, _ = read_probability_csv(str(path))
    assert kind == "p"
    assert got.tolist() == [[0.25, 0.75]]
    assert noisy.tolist() == [1]


@pytest.mark.parametrize(
    "reader, content",
    [
        (read_probability_csv, b"p_1,p_2\n0.5,0.5\xff\n"),
        (read_transition_csv, b"0.9,0.1\n0.1,0.9\xe9\n"),
    ],
    ids=["scores", "transition"],
)
def test_readers_reject_non_utf8_bytes(tmp_path, reader, content):
    # once a UnicodeDecodeError traceback
    path = tmp_path / "latin1.csv"
    path.write_bytes(content)
    with pytest.raises(FileFormatError, match="not UTF-8 text"):
        reader(str(path))


def test_probability_read_rejects_oversized_field(tmp_path):
    path = tmp_path / "huge.csv"
    path.write_text("p_1,p_2\n" + "1" * (csv.field_size_limit() + 1) + ",0.5\n")
    with pytest.raises(FileFormatError, match="not valid CSV"):
        read_probability_csv(str(path))


# ---------------------------------------------------------------------------
# the streamed numpy parse against the cell-by-cell reference
# ---------------------------------------------------------------------------


REFERENCE_CASES = {
    "crlf": b"p_1,p_2,y_noisy\r\n0.25,0.75,2\r\n0.5,0.5,1\r\n",
    "bom-crlf": b"\xef\xbb\xbfs_1,s_2,y_true\r\n0.25,0.75,1\r\n",
    "quoted": b'p_1,p_2,y_true\n"0.25",0.75,"2"\n',
    "quoted-comma": b'p_1,p_2\n"0.25,",0.75\n',
    "hash-in-cell": b"p_1,p_2\n0.25,0.75#\n",
    "blank-middle": b"p_1,p_2\n0.25,0.75\n\n0.5,0.5\n",
    "blank-trailing": b"p_1,p_2\n0.25,0.75\n\n",
    "underscore": b"p_1,p_2\n1_0,0.5\n",
    "non-finite": b"p_1,p_2,p_3\nnan,inf,-0.0\n-inf,NaN,Infinity\n",
    "label-float": b"p_1,p_2,y_noisy\n0.5,0.5,2.0\n",
    "label-space": b"p_1,p_2,y_noisy\n0.5,0.5, 2\n",
    "label-zero": b"p_1,p_2,y_noisy\n0.5,0.5,0\n",
    "label-above-k": b"p_1,p_2,y_true\n0.5,0.5,3\n",
    "arabic-digit": "p_1,p_2,y_noisy\n0.5,0.5,\u0662\n".encode(),
    # numpy 2.4 reads the int64 cell "\u01fe" as 462; int() refuses it
    "misread-label": (
        ",".join(f"p_{j}" for j in range(1, 501)) + ",y_noisy\n" + "0.002," * 500 + "\u01fe\n"
    ).encode(),
    "unit-separator": b"p_1,p_2\n0.5,\x1f0.5\n",
    "ragged-long": b"p_1,p_2\n0.5,0.5\n0.5,0.5,0.1\n",
    "ragged-short": b"p_1,p_2,y_noisy\n0.5,0.5,1\n0.5,1\n",
    "header-only": b"p_1,p_2\n",
    "oversized": b"p_1,p_2\n" + b"1" * (csv.field_size_limit() + 1) + b",0.5\n",
}


def outcome(reader, path):
    """What a reader returns, bit for bit, or the message and line it raises."""
    try:
        kind, values, y_noisy, y_true = reader(str(path))
    except FileFormatError as exc:
        return "error", str(exc), exc.line
    labels = [None if y is None else (y.dtype, y.tobytes()) for y in (y_noisy, y_true)]
    return kind, values.shape, values.dtype, values.tobytes(), labels


@pytest.mark.parametrize("content", REFERENCE_CASES.values(), ids=REFERENCE_CASES)
def test_probability_read_matches_reference_reader(tmp_path, content):
    path = tmp_path / "case.csv"
    path.write_bytes(content)
    assert outcome(read_probability_csv, path) == outcome(reference_probability_csv, path)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.tuples(
            st.lists(
                st.lists(st.floats(allow_nan=False), min_size=k, max_size=k),
                min_size=1,
                max_size=8,
            ),
            st.lists(st.integers(min_value=0, max_value=k - 1), min_size=8, max_size=8),
        )
    )
)
@example(([[5e-324, -0.0, 1.7976931348623157e308, 2.2250738585072014e-308 / 3]], [3]))
def test_probability_roundtrip_is_bitwise(tmp_path_factory, case):
    rows, labels = case
    p = np.array(rows, dtype=np.float64)
    y = np.array(labels[: len(rows)], dtype=np.int64)
    path = str(tmp_path_factory.mktemp("roundtrip") / "p.csv")
    write_probability_csv(path, p, y_noisy=y)
    _, got, noisy, _ = read_probability_csv(path)
    assert got.tobytes() == p.tobytes()
    assert noisy.tobytes() == y.tobytes()


def test_probability_read_of_a_well_formed_file_parses_no_cell(tmp_path, monkeypatch):
    calls = []
    parse_float = noisycal.fileio._parse_float
    monkeypatch.setattr(
        noisycal.fileio, "_parse_float", lambda *a: calls.append(a) or parse_float(*a)
    )
    p, y_noisy, y_true = probs(3, n=200, k=10)
    path = tmp_path / "p.csv"
    write_probability_csv(str(path), p, y_noisy=y_noisy, y_true=y_true)
    _, got, noisy, true = read_probability_csv(str(path))
    assert calls == []
    assert np.array_equal(got, p) and np.array_equal(noisy, y_noisy)
    assert np.array_equal(true, y_true)

    lines = path.read_text().splitlines(keepends=True)
    lines[6] = "oops" + lines[6][lines[6].index(","):]
    path.write_text("".join(lines))
    with pytest.raises(FileFormatError, match="^line 7: not a number: 'oops'$"):
        read_probability_csv(str(path))
    assert calls


def test_probability_read_falls_back_when_numpy_warns(tmp_path, monkeypatch):
    # numpy before 2.0 reads the int64 cell "2.0" as 2 and only warns
    def lenient_loadtxt(lines, **kwargs):
        rows = [line.split(",") for line in lines]
        warnings.warn("loadtxt(): Parsing an integer via a float", DeprecationWarning)
        return np.array(
            [([float(p) for p in row[:-1]], int(float(row[-1]))) for row in rows],
            dtype=kwargs["dtype"],
        )

    monkeypatch.setattr(noisycal.fileio.np, "loadtxt", lenient_loadtxt)
    path = tmp_path / "p.csv"
    path.write_text("p_1,p_2,y_noisy\n0.5,0.5,2.0\n")
    with pytest.raises(FileFormatError, match="^line 2: not an integer label: '2.0'$"):
        read_probability_csv(str(path))


@pytest.mark.parametrize("column", ["y_noisy", "y_true"])
def test_probability_writer_rejects_label_length_mismatch(tmp_path, column):
    p, y_noisy, y_true = probs(5, n=6, k=3)
    labels = {"y_noisy": y_noisy, "y_true": y_true}
    labels[column] = labels[column][:-1]
    with pytest.raises(LengthMismatch, match=f"6 rows vs {column}"):
        write_probability_csv(str(tmp_path / "p.csv"), p, **labels)


def test_probability_writer_matches_csv_writer(tmp_path):
    p, y_noisy, y_true = probs(4, n=50, k=5)
    p[0, :3] = [5e-324, -0.0, 1e300]
    path = tmp_path / "p.csv"
    write_probability_csv(str(path), p, y_noisy=y_noisy, y_true=y_true)
    with open(tmp_path / "expected.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"p_{j + 1}" for j in range(5)] + ["y_noisy", "y_true"])
        for row, a, b in zip(p, y_noisy, y_true):
            writer.writerow([repr(float(v)) for v in row] + [str(a + 1), str(b + 1)])
    assert path.read_bytes() == (tmp_path / "expected.csv").read_bytes()


# ---------------------------------------------------------------------------
# transition matrices
# ---------------------------------------------------------------------------


def test_transition_roundtrip(tmp_path):
    t = np.array([[0.9, 0.2], [0.1, 0.8]])
    tm = TransitionMatrix(t)
    path = str(tmp_path / "t.csv")
    np.savetxt(path, tm.T, delimiter=",", fmt="%.17g")
    got = read_transition_csv(path)
    assert np.allclose(got.T, t, atol=1e-15)
    assert np.allclose(got.W, tm.W, atol=1e-12)


def test_transition_read_renormalizes_small_drift(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write("0.9000004,0.1\n0.1,0.9\n")  # column 1 sums to 1 + 4e-7
    tm = read_transition_csv(path)
    assert np.allclose(tm.T.sum(axis=0), 1.0, atol=1e-15)


def test_transition_read_rejects_large_drift(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write("0.8,0.1\n0.1,0.9\n")  # column 1 sums to 0.9
    with pytest.raises(FileFormatError, match=r"column 1 sums to 0\.9\d*, not 1"):
        read_transition_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_transition_read_rejects_non_finite_entries(tmp_path, cell):
    # NaN fails no comparison, so it passed the sign and column-sum checks
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write(f"0.9,0.2\n0.1,{cell}\n")
    with pytest.raises(FileFormatError, match="line 2: transition matrix entries"):
        read_transition_csv(path)


def test_transition_read_rejects_negative_entries(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write("1.1,0.0\n-0.1,1.0\n")
    with pytest.raises(FileFormatError):
        read_transition_csv(path)


def test_transition_read_rejects_non_square(tmp_path):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write("0.9,0.1\n")
    with pytest.raises(FileFormatError):
        read_transition_csv(path)


def test_transition_read_refuses_a_singular_matrix(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("0.5,0.5\n0.5,0.5\n")
    with pytest.raises(SingularTransition, match="condition number inf exceeds 1e12$"):
        read_transition_csv(str(path))


@pytest.mark.parametrize("k", [2, 4, 12, 60, 200])
@pytest.mark.parametrize("family", ["rr", "block_rr", "two_level_rr"])
def test_transition_csv_of_a_family_takes_its_closed_form(tmp_path, monkeypatch, family, k):
    # a family's T read back from its decimals, each column rescaled to sum
    # to 1, moves by at most K u and keeps its block form: W is the closed
    # form to within the condition number times that, with no SVD taken
    spec = ladder_spec(family, k, 0.7)
    tm = build_transition(spec)
    path = str(tmp_path / "t.csv")
    np.savetxt(path, tm.T, delimiter=",", fmt="%.17g")
    calls = spy_svd(monkeypatch)
    got = read_transition_csv(path)
    assert calls == []
    ku = k * 2.0**-53
    assert np.max(np.abs(got.T - tm.T)) <= ku
    assert np.max(np.abs(got.W - tm.W)) <= ku * tm.condition_number * np.max(np.abs(tm.W))
    assert got.condition_number == pytest.approx(tm.condition_number, rel=ku)


# ---------------------------------------------------------------------------
# results and summaries
# ---------------------------------------------------------------------------


def results_row(**kw):
    row = {
        "method": "standard",
        "n": 100,
        "K": 4,
        "alpha": 0.1,
        "delta_method": "none",
        "delta_value": 0.0,
        "tau_hat": 0.9,
        "coverage": 0.91,
        "avg_size": 1.5,
        "seed": 0,
    }
    row.update(kw)
    return row


def test_results_csv_header_and_cells(tmp_path):
    path = str(tmp_path / "r.csv")
    write_results_csv(path, [results_row(), results_row(method="adaptive-fs", seed=1)])
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == RESULTS_HEADER
    assert rows[1][0] == "standard"
    assert rows[2][-1] == "1"
    assert float(rows[1][6]) == 0.9


def test_results_csv_rejects_missing_key(tmp_path):
    row = results_row()
    del row["tau_hat"]
    with pytest.raises(FileFormatError):
        write_results_csv(str(tmp_path / "r.csv"), [results_row(), row])
    assert not (tmp_path / "r.csv").exists()


def test_results_csv_floats_are_their_repr(tmp_path):
    path = str(tmp_path / "r.csv")
    tau, coverage = np.float64(0.1) + np.float64(0.2), 1 / 3
    write_results_csv(path, [results_row(tau_hat=tau, coverage=coverage, seed=np.int64(7))])
    with open(path) as handle:
        row = list(csv.DictReader(handle))[0]
    assert row["tau_hat"] == repr(float(tau)) == "0.30000000000000004"
    assert row["coverage"] == repr(coverage)
    assert row["seed"] == "7"


def test_summary_csv_rejects_missing_key(tmp_path):
    with pytest.raises(FileFormatError, match="missing columns"):
        write_summary_csv(str(tmp_path / "s.csv"), [{"method": "standard"}])


def test_summary_csv_header(tmp_path):
    path = str(tmp_path / "s.csv")
    write_summary_csv(
        path,
        [
            {
                "method": "standard",
                "repetitions": 20,
                "mean_coverage": 0.9,
                "se_coverage": 0.01,
                "mean_size": 2.0,
                "se_size": 0.1,
            }
        ],
    )
    with open(path) as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == SUMMARY_HEADER
    assert rows[1][1] == "20"


# ---------------------------------------------------------------------------
# prediction sets and threshold reports
# ---------------------------------------------------------------------------


def test_prediction_sets_roundtrip(tmp_path):
    sets = np.array([[True, False, True], [False, False, False], [False, True, False]])
    path = str(tmp_path / "sets.csv")
    write_prediction_sets_csv(path, sets, 0.75)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["row", "tau", "set_size", "labels"]
    assert [row[0] for row in rows[1:]] == ["1", "2", "3"]
    assert all(float(row[1]) == 0.75 for row in rows[1:])
    assert rows[1][2:] == ["2", "1;3"]  # labels are 1-based and ;-joined on disk
    assert rows[2][2:] == ["0", ""]
    assert rows[3][2:] == ["1", "2"]


@pytest.mark.parametrize(
    "n, k, tau",
    [(0, 3, 0.5), (7, 1, 1.0), (noisycal.fileio._SET_ROWS + 1, 5, 0.123456789)],
    ids=["no-rows", "one-class", "two-blocks"],
)
def test_prediction_sets_bytes_match_csv_writer(tmp_path, n, k, tau):
    # empty sets, full sets and a block boundary, against one csv.writer row
    # per set
    rng = np.random.default_rng(n + k)
    sets = rng.uniform(size=(n, k)) < rng.choice([0.0, 0.3, 1.0], size=(n, 1))
    write_prediction_sets_csv(str(tmp_path / "a.csv"), sets, tau)
    reference_prediction_sets_csv(str(tmp_path / "b.csv"), sets, tau)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


@pytest.mark.parametrize(
    "write, kwargs, message",
    [
        # the entries were taken as rows: a two-row file of one-label sets
        (write_prediction_sets_csv, dict(sets=[True, False], tau=0.5), "sets must be"),
        # the header was written before the iteration failed
        (write_prediction_sets_csv, dict(sets="x", tau=0.5), "sets must be a real"),
        (write_prediction_sets_csv, dict(sets=[[True]], tau=1.5), "tau must lie in"),
        # IndexError on probs.shape[1]
        (write_probability_csv, dict(probs=[0.5, 0.5]), "probs must be a 2-d"),
        (write_probability_csv, dict(probs=[[0.5, 0.5]], y_true=[2]), "y_true must"),
    ],
)
def test_writers_refuse_bad_arrays_before_creating_the_file(
    tmp_path, write, kwargs, message
):
    path = tmp_path / "out.csv"
    with pytest.raises(InvalidSpec, match=f"^{message}"):
        write(str(path), **kwargs)
    assert not path.exists()


_RESULT = ThresholdResult(
    tau=1.0, i_hat=None, method=CalibrationMethod.STANDARD, correction=None,
    set_I_empty=True,
)


@pytest.mark.parametrize(
    "write, args",
    [
        (write_probability_csv, (np.array([[0.5, 0.5]]),)),
        (write_results_csv, ([],)),
        (write_summary_csv, ([],)),
        (write_prediction_sets_csv, (np.array([[True]]), 0.5)),
        (write_threshold_json, (_RESULT,)),
    ],
)
def test_writers_into_a_missing_directory_raise_file_format_error(tmp_path, write, args):
    path = tmp_path / "missing" / "out.csv"
    with pytest.raises(FileFormatError, match=f"^cannot write {path}: "):
        write(str(path), *args)


def test_threshold_json_contents(tmp_path):
    rep = CorrectionReport(method=CorrectionMethod.FINITE_SAMPLE, value=0.02)
    res = ThresholdResult(
        tau=0.87,
        i_hat=91,
        method=CalibrationMethod.ADAPTIVE,
        correction=rep,
        set_I_empty=False,
    )
    path = str(tmp_path / "t.json")
    write_threshold_json(path, res)
    with open(path) as handle:
        blob = json.load(handle)
    assert blob["tau"] == 0.87
    assert blob["i_hat"] == 91
    assert blob["method"] == "adaptive"
    assert blob["set_I_empty"] is False
    assert blob["warning"] is None
    assert blob["correction"]["value"] == 0.02


def test_threshold_json_writes_a_numpy_integer_rank_as_an_integer(tmp_path):
    res = ThresholdResult(
        tau=0.5, i_hat=np.int64(3), method=CalibrationMethod.STANDARD,
        correction=None, set_I_empty=False,
    )
    path = tmp_path / "t.json"
    write_threshold_json(str(path), res)
    i_hat = json.loads(path.read_text())["i_hat"]
    assert i_hat == 3 and type(i_hat) is int


def test_threshold_json_fallback_round_trips(tmp_path):
    res = ThresholdResult(
        tau=1.0,
        i_hat=None,
        method=CalibrationMethod.STANDARD,
        correction=None,
        set_I_empty=True,
        warning="index set empty",
    )
    path = str(tmp_path / "t.json")
    write_threshold_json(path, res)
    with open(path) as handle:
        blob = json.load(handle)
    assert blob["tau"] == 1.0
    assert blob["i_hat"] is None
    assert blob["correction"] is None
    assert blob["set_I_empty"] is True
    assert blob["warning"] == "index set empty"


def test_threshold_json_writes_every_field_of_the_record(tmp_path):
    # a field added to the record reaches the file without a writer edit
    @dataclasses.dataclass(frozen=True)
    class TimedResult(ThresholdResult):
        stage_s: float = 0.25

    rep = CorrectionReport(method=CorrectionMethod.CN_ONLY, value=0.02, c_n=0.02)
    res = TimedResult(
        tau=0.5, i_hat=3, method=CalibrationMethod.ADAPTIVE, correction=rep, set_I_empty=False
    )
    path = str(tmp_path / "t.json")
    write_threshold_json(path, res)
    with open(path) as handle:
        blob = json.load(handle)
    assert set(blob) == {f.name for f in dataclasses.fields(TimedResult)}
    assert blob["stage_s"] == 0.25
    assert set(blob["correction"]) == {f.name for f in dataclasses.fields(CorrectionReport)}
