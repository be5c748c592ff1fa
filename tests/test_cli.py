"""End-to-end command-line flows: generate -> train -> evaluate -> report."""
from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import csv_reference
import tracelink
from tracelink import cli, gat, metrics
from tracelink.cli import _csv_blocks, _run_config, build_parser, main
from tracelink.config import dump_config
from tracelink.gat import load_checkpoint, save_checkpoint
from tracelink.metrics import auc, pr_points, roc_points, summarize
from tracelink.sampling import DEFAULT_ALPHA

TINY = [
    "--set", "synth.n_services", "30",
    "--set", "synth.duration", "1000",
    "--set", "synth.events_per_window_mean", "20",
]
SPAN = ["--window-size", "100", "--t-train", "700", "--t-max", "1000"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One tiny generate+train run shared by the read-only assertions."""
    root = tmp_path_factory.mktemp("cli")
    trace = root / "trace.csv"
    assert main(["generate", "--out", str(trace), *TINY, "--seed", "5"]) == 0
    run = root / "run"
    code = main([
        "train", "--trace", str(trace), "--out", str(run), *SPAN,
        "--hidden", "8", "--epochs", "3", "--seed", "5",
        "--snapshot-epochs", "0,2",
    ])
    assert code == 0
    return root


def test_generate_writes_commented_csv(workdir):
    text = (workdir / "trace.csv").read_text()
    first, second, third = text.splitlines()[:3]
    assert first.startswith("# synthetic trace seed=5 services=30")
    assert second == "timestamp,um,dm"
    assert third.split(",")[1].startswith("svc")


def test_generate_is_reproducible(workdir, tmp_path):
    again = tmp_path / "again.csv"
    assert main(["generate", "--out", str(again), *TINY, "--seed", "5"]) == 0
    assert again.read_bytes() == (workdir / "trace.csv").read_bytes()


def test_generate_other_seed_differs(workdir, tmp_path):
    other = tmp_path / "other.csv"
    assert main(["generate", "--out", str(other), *TINY, "--seed", "6"]) == 0
    assert other.read_bytes() != (workdir / "trace.csv").read_bytes()


def test_train_artifacts_exist(workdir):
    run = workdir / "run"
    for name in ("mapping.tsv", "checkpoint.bin", "loss_history.csv",
                 "run_config.txt", "train_meta.json",
                 "attention_epoch_0000.csv", "attention_epoch_0002.csv"):
        assert (run / name).exists(), name


def test_train_loss_history_layout(workdir):
    lines = (workdir / "run" / "loss_history.csv").read_text().splitlines()
    assert lines[0] == "epoch,window,loss"
    rows = [line.split(",") for line in lines[1:]]
    epochs = sorted({int(r[0]) for r in rows})
    assert epochs == [0, 1, 2]
    assert all(float(r[2]) >= 0 for r in rows)
    # same windows visited every epoch
    per_epoch = {e: [r[1] for r in rows if int(r[0]) == e] for e in epochs}
    assert per_epoch[0] == per_epoch[1] == per_epoch[2]


def test_loss_history_row_e_times_w_plus_j_is_epoch_e_on_window_j(workdir, tmp_path, monkeypatch):
    trained = []
    real_train = gat.train

    def recording_train(*args, **kwargs):
        trained.append(real_train(*args, **kwargs))
        return trained[-1]

    monkeypatch.setattr(gat, "train", recording_train)
    run = tmp_path / "run"
    assert main(["train", "--trace", str(workdir / "trace.csv"), "--out", str(run), *SPAN,
                 "--hidden", "8", "--epochs", "3", "--seed", "5"]) == 0
    (artifacts,) = trained
    windows, losses = artifacts.windows.tolist(), artifacts.loss_history.tolist()
    assert len(losses) == 3 * len(windows)
    lines = (run / "loss_history.csv").read_text().splitlines()
    assert lines[0] == "epoch,window,loss"
    assert lines[1:] == [f"{e},{windows[j]},{losses[e * len(windows) + j]!r}"
                         for e in range(3) for j in range(len(windows))]


def test_train_meta_contents(workdir):
    meta = json.loads((workdir / "run" / "train_meta.json").read_text())
    assert meta["n_nodes"] >= 2
    assert meta["n_train_windows"] == 7
    assert meta["skipped_lines"] == 0
    assert meta["resolved_sampling"] in ("none", "simple", "advanced")
    assert len(meta["mapping_sha256"]) == 64


def test_non_finite_timestamp_is_a_skipped_line(workdir, tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text((workdir / "trace.csv").read_text() + "inf,svc001,svc002\n")
    run = tmp_path / "run"
    assert main(["train", "--trace", str(trace), "--out", str(run), *SPAN,
                 "--hidden", "8", "--epochs", "1", "--seed", "5"]) == 0
    meta = json.loads((run / "train_meta.json").read_text())
    assert meta["skipped_lines"] == 1


def test_dropped_rows_are_counted_by_reason(workdir, tmp_path):
    trace = tmp_path / "trace.csv"
    extra = ["5,svc001,", "6,,svc002", "-1,,svc002", "1000,svc001,svc002", "-1,svc001,svc002"]
    trace.write_text((workdir / "trace.csv").read_text() + "\n".join(extra) + "\n")
    run = tmp_path / "run"
    assert main(["train", "--trace", str(trace), "--out", str(run), *SPAN,
                 "--hidden", "8", "--epochs", "1", "--seed", "5"]) == 0
    expected = {"skipped_lines": 0, "dropped_empty_endpoint": 3, "dropped_out_of_range": 2}
    meta = json.loads((run / "train_meta.json").read_text())
    assert {key: meta[key] for key in expected} == expected
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--trace", str(trace),
                 "--out", str(tmp_path / "eval"), *SPAN, "--seed", "5"]) == 0
    doc = json.loads((tmp_path / "eval" / "metrics.json").read_text())
    assert {key: doc[key] for key in expected} == expected


def test_train_is_deterministic(workdir, tmp_path):
    rerun = tmp_path / "rerun"
    code = main([
        "train", "--trace", str(workdir / "trace.csv"), "--out", str(rerun), *SPAN,
        "--hidden", "8", "--epochs", "3", "--seed", "5",
        "--snapshot-epochs", "0,2",
    ])
    assert code == 0
    for name in ("checkpoint.bin", "loss_history.csv", "mapping.tsv"):
        assert (rerun / name).read_bytes() == (workdir / "run" / name).read_bytes(), name


def _read_csv(path, *types):
    """A CSV artefact's header and columns, parsed with `types`; every parsed
    row must print back (as reprs) to the line it came from."""
    header, *lines = path.read_text().splitlines()
    rows = [[kind(text) for kind, text in zip(types, line.split(","))] for line in lines]
    assert [",".join(map(repr, row)) for row in rows] == lines
    return header, [list(column) for column in zip(*rows)]


# ---------------------------------------------------------------------------
# the CSV writer against the row-by-row reference

INT64 = np.iinfo(np.int64)
#: Values whose reprs are easy to get wrong: signed zeros, NaNs with other
#: payloads and signs, infinities, subnormals, and the edges of exactness.
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324, -5e-324,
                  2.2250738585072014e-308, 2.225073858507201e-308, 1e16, 9007199254740993.0, 0.1, 1.0]
floats = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(0, 2**64 - 1).map(lambda bits: np.uint64(bits).view(np.float64).item()),  # any NaN payload
)
ints = st.one_of(st.sampled_from([0, -1, 1, INT64.min, INT64.max, INT64.min + 1]), st.integers(INT64.min, INT64.max))


@st.composite
def float_columns(draw, rows):
    """`rows` float64 values drawn from a few distinct ones, so each
    repeats; every NaN keeps its sign and gets a random payload."""
    pool = draw(st.lists(floats, min_size=1, max_size=6))
    column = np.array([draw(st.sampled_from(pool)) for _ in range(rows)], dtype=np.float64)
    payloads = draw(st.lists(st.integers(1, 2**51 - 1), min_size=rows, max_size=rows))
    bits = column.view(np.uint64)
    nan = np.isnan(column)
    bits[nan] = (bits[nan] & np.uint64(0xFFF8000000000000)) | np.array(payloads, dtype=np.uint64)[nan]
    return column


@st.composite
def columns(draw):
    rows = draw(st.integers(0, 12))
    drawn = []
    for kind in draw(st.lists(st.sampled_from(["float64", "float32", "int64", "bool"]), max_size=4)):
        if kind == "int64":
            pool = draw(st.lists(ints, min_size=1, max_size=6))
            drawn.append(np.array([draw(st.sampled_from(pool)) for _ in range(rows)], dtype=np.int64))
        elif kind == "bool":
            drawn.append(np.array(draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), dtype=bool))
        else:
            with np.errstate(over="ignore"):  # float32 rounds large values to inf
                drawn.append(draw(float_columns(rows)).astype(kind))
    return drawn


@settings(max_examples=300, deadline=None)
@example([], "")
@example([np.array([], dtype=np.float64), np.array([], dtype=np.int64)], "src,dst")
@example([np.array([0.0, -0.0, 5e-324, 1e16, float("nan"), float("inf"), -float("inf")]),
          np.array([0, INT64.min, INT64.max, 0, -1, 1, 0], dtype=np.int64)], "")
@example([np.array([float("inf"), 0.5, 0.25]), np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 1.0])],
         "threshold,fpr,tpr")  # the ROC's inf anchor
@example([np.array([0.0, -0.0, -0.0, 0.0])], "x")  # equal values with other bits
@example([np.array([], dtype=np.float64)], "threshold")  # an empty column
@given(columns(), st.sampled_from(["", "threshold,fpr,tpr", "x"]))
def test_csv_matches_the_row_by_row_writer(drawn, header):
    expected = csv_reference.csv_text(header, *drawn)
    assert "".join(_csv_blocks(header, *drawn)) == expected
    as_tuples = (tuple(column.tolist()) for column in drawn)  # as the loss history
    assert "".join(_csv_blocks(header, *as_tuples)) == expected


def test_csv_rejects_columns_of_different_lengths():
    for lengths in ((3, 2), (2, 3)):
        with pytest.raises(ValueError):
            _csv_blocks("a,b", *map(np.zeros, lengths))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example([], "threshold,fpr,tpr", 1)  # header only
@example([np.array([], dtype=np.float64), np.array([], dtype=np.int64)], "src,dst", 1)  # zero rows
@example([np.array([0.5, 0.5, 0.25]), np.array([1, 2, 3])], "", 2)  # a part-filled last block
@given(columns(), st.sampled_from(["", "threshold,fpr,tpr"]), st.sampled_from([1, 2, 5]))
def test_csv_written_in_blocks_matches_the_row_by_row_writer(tmp_path, monkeypatch, drawn, header, block_rows):
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
    expected = csv_reference.csv_text(header, *drawn).encode("utf-8")
    path = tmp_path / "out.csv"
    for given_columns in (drawn, [tuple(column.tolist()) for column in drawn]):
        cli._write_csv(path, header, *given_columns)
        assert path.read_bytes() == expected


def test_csv_writer_checks_column_lengths_before_writing(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError):
        cli._write_csv(path, "a,b", np.zeros(3), np.zeros(2))
    assert not path.exists()


def test_evaluate_artefacts_agree_exactly(workdir, tmp_path):
    out = tmp_path / "eval"
    assert main([
        "evaluate", "--checkpoint", str(workdir / "run" / "checkpoint.bin"),
        "--trace", str(workdir / "trace.csv"), "--out", str(out), *SPAN, "--seed", "5",
    ]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    pooled_scores, pooled_labels = [], []
    for tag in sorted(doc["windows"]):
        # the scored file is the window's whole record: its metrics are read back from it
        header, (_, _, scores, labels) = _read_csv(out / f"scored_window_{tag}.csv", int, int, float, int)
        assert header == "src,dst,score,label"
        scored = summarize(scores, labels, doc["tau"])
        want = {"auc": scored.auc, **vars(scored.confusion),
                **{key: getattr(scored.metrics, key) for key in ("accuracy", "precision", "recall", "f1")}}
        assert {key: doc["windows"][tag][key] for key in want} == want, tag
        pooled_scores += scores
        pooled_labels += labels
    assert doc["pooled"]["auc"] == auc(pooled_scores, pooled_labels)
    for name, curve in (("pr", pr_points(pooled_scores, pooled_labels)),
                        ("roc", roc_points(pooled_scores, pooled_labels))):
        _, columns = _read_csv(out / f"{name}_pooled.csv", float, float, float)
        assert columns == [column.tolist() for column in curve], name


def test_evaluate_and_report(workdir, tmp_path, capsys):
    run = workdir / "run"
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"),
        "--trace", str(workdir / "trace.csv"), "--out", str(out), *SPAN,
        "--seed", "5",
    ])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["sampling"]["kind"] == "advanced"
    assert doc["tau"] == 0.5
    assert doc["n_test_windows"] == 3
    assert set(doc["windows"]) == {"0007", "0008", "0009"}
    pooled = doc["pooled"]
    for key in ("auc", "accuracy", "precision", "recall", "f1"):
        assert 0.0 <= pooled[key] <= 1.0
    assert pooled["tp"] + pooled["fn"] == sum(
        doc["windows"][w]["tp"] + doc["windows"][w]["fn"] for w in doc["windows"]
    )
    for name in ("pr_pooled.csv", "roc_pooled.csv", "attention_test.csv", "scored_window_0007.csv"):
        assert (out / name).exists(), name
    scored = (out / "scored_window_0007.csv").read_text().splitlines()
    assert scored[0] == "src,dst,score,label"
    labels = [int(line.rsplit(",", 1)[1]) for line in scored[1:]]
    assert labels.count(1) == labels.count(0)  # 1:1 contract

    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    table = capsys.readouterr().out
    assert "auc" in table and str(out) in table


def test_evaluate_is_deterministic(workdir, tmp_path):
    run = workdir / "run"
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main([
            "evaluate", "--checkpoint", str(run / "checkpoint.bin"),
            "--trace", str(workdir / "trace.csv"), "--out", str(out), *SPAN,
            "--seed", "5",
        ])
        assert code == 0
        outs.append(out)
    for name in ("metrics.json", "pr_pooled.csv", "roc_pooled.csv", "attention_test.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_evaluating_into_a_used_directory_leaves_only_this_runs_window_files(workdir, tmp_path):
    run, out = workdir / "run", tmp_path / "eval"
    out.mkdir()
    bystanders = ("notes.txt", "roc_window_final.csv", "scored_window_0007.csv.bak", "pr_window_0007.tsv")
    for name in bystanders:
        (out / name).write_text("kept\n")
    # per-window curves as older versions wrote them, for windows this run scores and one it does not
    for name in ("pr_window_0003.csv", "roc_window_0003.csv", "pr_window_0008.csv", "roc_window_0009.csv"):
        (out / name).write_text("threshold,fpr,tpr\ninf,0.0,0.0\n")
    for t_train in ("700", "800"):  # windows 7-9, then 8-9 only
        assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--trace", str(workdir / "trace.csv"),
                     "--out", str(out), *SPAN, "--t-train", t_train, "--seed", "5"]) == 0
    tags = json.loads((out / "metrics.json").read_text())["windows"]
    assert sorted(tags) == ["0008", "0009"]
    per_window = {path.name for pattern in ("pr_window_*.csv", "roc_window_*.csv", "scored_window_*.csv")
                  for path in out.glob(pattern)} - set(bystanders)
    assert per_window == {f"scored_window_{tag}.csv" for tag in tags}
    for name in bystanders:
        assert (out / name).read_text() == "kept\n", name


def test_training_into_a_used_directory_leaves_only_this_runs_snapshots(workdir, tmp_path):
    out = tmp_path / "run"
    shutil.copytree(workdir / "run", out)  # snapshots of epochs 0 and 2
    (out / "attention_epoch_notes.csv").write_text("kept\n")
    assert main(["train", "--trace", str(workdir / "trace.csv"), "--out", str(out), *SPAN,
                 "--hidden", "8", "--epochs", "1", "--seed", "5", "--snapshot-epochs", "0"]) == 0
    assert sorted(path.name for path in out.glob("attention_epoch_*.csv")) == [
        "attention_epoch_0000.csv", "attention_epoch_notes.csv"]


#: train, then evaluate, in one fresh interpreter: argv[1] is the trace,
#: argv[2] the output root.  numpy.ma costs 13-18 ms to import, and a plain
#: `np.unique` call is enough to pull it in (numpy's hash path).
NO_MASKED_ARRAYS_SCRIPT = """
import sys
from tracelink.cli import main
trace, root = sys.argv[1:]
span = ["--window-size", "100", "--t-train", "700", "--t-max", "1000", "--seed", "5"]
assert main(["train", "--trace", trace, "--out", root + "/run", "--hidden", "8", "--epochs", "1", *span]) == 0
assert main(["evaluate", "--checkpoint", root + "/run/checkpoint.bin", "--trace", trace,
             "--out", root + "/eval", *span]) == 0
assert "numpy.ma" not in sys.modules, "train or evaluate imported numpy.ma"
"""


def test_train_and_evaluate_never_import_numpy_ma(workdir, tmp_path):
    src = str(Path(tracelink.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS_SCRIPT, str(workdir / "trace.csv"), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "eval" / "metrics.json").exists()


def test_fixed_heads_threshold_and_exponent_reach_the_artefacts(workdir, tmp_path):
    run, out = tmp_path / "run", tmp_path / "eval"
    assert main(["train", "--trace", str(workdir / "trace.csv"), "--out", str(run), *SPAN,
                 "--hidden", "8", "--epochs", "1", "--seed", "5", "--sampling", "advanced"]) == 0
    assert load_checkpoint(run / "checkpoint.bin")[0].dims.heads == gat.HEADS
    meta = json.loads((run / "train_meta.json").read_text())
    assert (meta["resolved_sampling"], meta["alpha"]) == ("advanced", DEFAULT_ALPHA)
    assert main(["evaluate", "--checkpoint", str(run / "checkpoint.bin"), "--trace", str(workdir / "trace.csv"),
                 "--out", str(out), *SPAN, "--seed", "5"]) == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["tau"] == metrics.TAU
    assert doc["sampling"] == {"kind": "advanced", "alpha": DEFAULT_ALPHA}


def test_a_checkpoint_of_another_head_count_evaluates(workdir, tmp_path):
    run = workdir / "run"
    params, digest = load_checkpoint(run / "checkpoint.bin")
    three = gat.init_params(params.dims.n_nodes, 4, 3, np.random.default_rng(0))
    save_checkpoint(three, tmp_path / "checkpoint.bin", mapping_sha256=digest)
    assert main(["evaluate", "--checkpoint", str(tmp_path / "checkpoint.bin"), "--mapping", str(run / "mapping.tsv"),
                 "--trace", str(workdir / "trace.csv"), "--out", str(tmp_path / "eval"), *SPAN, "--seed", "5"]) == 0
    assert json.loads((tmp_path / "eval" / "metrics.json").read_text())["n_test_windows"] == 3


def test_non_temporal_mode(workdir, tmp_path):
    run = tmp_path / "flat"
    code = main([
        "train", "--trace", str(workdir / "trace.csv"), "--out", str(run), *SPAN,
        "--no-temporal", "--hidden", "8", "--epochs", "2", "--seed", "5",
    ])
    assert code == 0
    out = tmp_path / "flat-eval"
    code = main([
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"),
        "--trace", str(workdir / "trace.csv"), "--out", str(out), *SPAN,
        "--no-temporal", "--seed", "5",
    ])
    assert code == 0
    doc = json.loads((out / "metrics.json").read_text())
    assert doc["n_test_windows"] == 1
    assert set(doc["windows"]) == {"0001"}


def test_config_file_feeds_commands(workdir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"trace={workdir / 'trace.csv'}\n"
        "window_size=100\nt_train=700\nt_max=1000\n"
        "model.hidden=8\nmodel.epochs=2\nseed=5\n"
        "model.snapshot_epochs=0\n"
    )
    run = tmp_path / "from-config"
    assert main(["train", "--config", str(cfg), "--out", str(run)]) == 0
    assert (run / "checkpoint.bin").exists()
    saved = (run / "run_config.txt").read_text()
    assert "model.hidden=8" in saved.splitlines()


def test_tab_delimited_run_config_loads_back(workdir, tmp_path):
    tsv = tmp_path / "trace.tsv"
    tsv.write_text((workdir / "trace.csv").read_text().replace(",", "\t"))
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(["train", "--trace", str(tsv), "--out", str(first), *SPAN, "--hidden", "4",
                 "--epochs", "1", "--set", "trace_format.delimiter", "\t"]) == 0
    assert main(["train", "--config", str(first / "run_config.txt"), "--out", str(again)]) == 0
    assert (again / "checkpoint.bin").read_bytes() == (first / "checkpoint.bin").read_bytes()


# ---------------------------------------------------------------------------
# failure modes and exit codes

def test_unknown_config_key_exits_1(tmp_path):
    code = main(["generate", "--out", str(tmp_path / "x.csv"),
                 "--set", "nope.nothing", "1"])
    assert code == 1


def test_bad_flag_exits_1(capsys):
    assert main(["generate"]) == 1  # --out is required
    assert "error" in capsys.readouterr().err


#: generate's flags for settings that are now synth.py constants.
REMOVED_FLAGS = ["--window-hint", "--hub-exponent", "--tree-depth", "--period"]
#: train's and evaluate's flags for the head count, the threshold and the
#: sampler's degree exponent, now gat.HEADS, metrics.TAU and
#: sampling.DEFAULT_ALPHA.
REMOVED_RUN_FLAGS = ["--heads", "--tau", "--alpha"]


@pytest.mark.parametrize("command", ["generate", "train", "evaluate", "report"])
def test_help_renders_and_names_no_removed_flag(command, capsys):
    # argparse formats help text only for --help, so a stray `%` in a help
    # string would crash here and nowhere else
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: tracelink {command}")
    assert not [flag for flag in REMOVED_FLAGS + REMOVED_RUN_FLAGS if flag in text]


def test_missing_trace_exits_2(tmp_path):
    code = main(["train", "--trace", str(tmp_path / "ghost.csv"),
                 "--out", str(tmp_path / "run"), *SPAN])
    assert code == 2


def test_corrupt_checkpoint_exits_3(workdir, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"{\"format\": \"something-else\"}\n")
    code = main([
        "evaluate", "--checkpoint", str(bad),
        "--trace", str(workdir / "trace.csv"), "--out", str(tmp_path / "o"), *SPAN,
    ])
    assert code == 3


def test_diverging_train_exits_3_without_a_checkpoint(workdir, tmp_path, capsys):
    run = tmp_path / "run"
    code = main(["train", "--trace", str(workdir / "trace.csv"), "--out", str(run), *SPAN,
                 "--hidden", "8", "--epochs", "2", "--seed", "5", "--lr", "1e300"])
    assert code == 3
    assert "at epoch 0, window" in capsys.readouterr().err
    assert not (run / "checkpoint.bin").exists()


def test_impossible_array_size_exits_3_without_a_traceback(workdir, tmp_path, capsys):
    # with at least 2 services the first weight matrix needs over 2**57
    # bytes, so no allocation can even start
    run = tmp_path / "run"
    code = main(["train", "--trace", str(workdir / "trace.csv"), "--out", str(run), *SPAN,
                 "--hidden", str(10**16), "--epochs", "1", "--seed", "5"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and len(err.splitlines()) == 1
    assert not (run / "checkpoint.bin").exists()


def test_non_finite_scores_exit_3(workdir, tmp_path, capsys):
    run = workdir / "run"
    params, digest = load_checkpoint(run / "checkpoint.bin")
    params.layer2.weights[0][:] = float("nan")
    broken = tmp_path / "checkpoint.bin"
    save_checkpoint(params, broken, mapping_sha256=digest)
    out = tmp_path / "o"
    for checkpoint, want in ((run / "checkpoint.bin", 0), (broken, 3)):  # the second into a used directory
        code = main([
            "evaluate", "--checkpoint", str(checkpoint), "--mapping", str(run / "mapping.tsv"),
            "--trace", str(workdir / "trace.csv"), "--out", str(out), *SPAN, "--seed", "5",
        ])
        assert code == want
    assert "non-finite scores" in capsys.readouterr().err
    # the failed run removed the earlier run's metrics.json with its window files
    assert sorted(path.name for path in out.iterdir()) == ["attention_test.csv", "pr_pooled.csv", "roc_pooled.csv"]


def test_mapping_digest_mismatch(workdir, tmp_path, capsys):
    run = workdir / "run"
    # swap two service names: ids stay dense, content hash changes
    lines = (run / "mapping.tsv").read_text().splitlines()
    a, b = lines[0].split("\t"), lines[1].split("\t")
    lines[0] = f"{a[0]}\t{b[1]}"
    lines[1] = f"{b[0]}\t{a[1]}"
    tampered = tmp_path / "mapping.tsv"
    tampered.write_text("\n".join(lines) + "\n")

    args = [
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"),
        "--mapping", str(tampered),
        "--trace", str(workdir / "trace.csv"), "--out", str(tmp_path / "o"), *SPAN,
        "--seed", "5",
    ]
    assert main(args) == 3  # strict: refuse to mix mismatched artifacts
    capsys.readouterr()
    assert main(args + ["--lenient"]) == 0
    assert "mismatch" in capsys.readouterr().err


def test_lenient_eval_drops_unknown_services(workdir, tmp_path):
    # a wider trace introduces services the checkpoint has no parameters for
    wide = tmp_path / "wide.csv"
    assert main(["generate", "--out", str(wide),
                 "--set", "synth.n_services", "35",
                 "--set", "synth.duration", "1000",
                 "--set", "synth.events_per_window_mean", "20",
                 "--seed", "5"]) == 0
    run = workdir / "run"
    args = [
        "evaluate", "--checkpoint", str(run / "checkpoint.bin"),
        "--trace", str(wide), "--out", str(tmp_path / "o"), *SPAN, "--seed", "5",
    ]
    assert main(args) == 2  # strict mapping refuses unknown services
    assert main(args + ["--lenient"]) == 0
    doc = json.loads((tmp_path / "o" / "metrics.json").read_text())
    assert doc["skipped_unknown_events"] > 0


def test_report_missing_metrics_exits_2(tmp_path):
    assert main(["report", str(tmp_path / "void")]) == 2


@pytest.mark.parametrize("case", ["metrics_not_utf8", "metrics_not_json", "metrics_f1_not_a_number", "mapping_not_utf8"])
def test_unreadable_read_back_file_exits_2_naming_it(case, workdir, tmp_path, capsys):
    bad = {
        "metrics_not_utf8": b"\xff\xfe{}",
        "metrics_not_json": b"{\"pooled\": ",
        "metrics_f1_not_a_number": json.dumps({"pooled": {"auc": 0.5, "accuracy": 0.5, "precision": 0.5,
                                                "recall": 0.5, "f1": "high"}}).encode(),
        "mapping_not_utf8": b"0\tsvc-\xff\n",
    }[case]
    if case.startswith("metrics"):
        path = tmp_path / "metrics.json"
        args = ["report", str(tmp_path)]
    else:
        path = tmp_path / "mapping.tsv"
        args = ["evaluate", "--checkpoint", str(workdir / "run" / "checkpoint.bin"), "--mapping", str(path),
                "--trace", str(workdir / "trace.csv"), "--out", str(tmp_path / "o"), *SPAN]
    path.write_bytes(bad)
    assert main(args) == 2
    assert str(path) in capsys.readouterr().err


# ---------------------------------------------------------------------------
# every value-setting flag is one config key

BASE = {"generate": ["--out", "t.csv"], "train": [], "evaluate": ["--checkpoint", "c.bin"]}
#: (command, flag words, key, the flag's value as --set text, another value,
#: a value the flag must reject or None)
FLAG_KEYS = [
    ("generate", ["--seed", "3"], "seed", "3", "4", "x"),
    ("generate", ["--services", "30"], "synth.n_services", "30", "40", "many"),
    ("generate", ["--duration", "900"], "synth.duration", "900", "800", "1.5"),
    ("generate", ["--events-mean", "12.5"], "synth.events_per_window_mean", "12.5", "9", "x"),
    ("train", ["--seed", "3"], "seed", "3", "4", "x"),
    ("train", ["--trace", "a.csv"], "trace", "a.csv", "b.csv", None),
    ("train", ["--out", "o"], "out_dir", "o", "p", None),
    ("train", ["--window-size", "50"], "window_size", "50", "20", "0"),
    ("train", ["--t-train", "500"], "t_train", "500", "600", "x"),
    ("train", ["--t-max", "9000"], "t_max", "9000", "8000", "100"),
    ("train", ["--temporal"], "temporal", "true", "false", None),
    ("train", ["--no-temporal"], "temporal", "false", "true", None),
    ("train", ["--hidden", "8"], "model.hidden", "8", "16", "x"),
    ("train", ["--epochs", "7"], "model.epochs", "7", "9", "x"),
    ("train", ["--lr", "0.25"], "model.lr", "0.25", "0.5", "nan"),
    ("train", ["--sampling", "simple"], "sampling.kind", "simple", "none", "fancy"),
    ("train", ["--snapshot-epochs", "1,2"], "model.snapshot_epochs", "1,2", "3", "x"),
    ("evaluate", ["--seed", "3"], "seed", "3", "4", "x"),
    ("evaluate", ["--trace", "a.csv"], "trace", "a.csv", "b.csv", None),
    ("evaluate", ["--out", "o"], "out_dir", "o", "p", None),
    ("evaluate", ["--window-size", "50"], "window_size", "50", "20", "x"),
    ("evaluate", ["--t-train", "500"], "t_train", "500", "600", "0"),
    ("evaluate", ["--t-max", "9000"], "t_max", "9000", "8000", "x"),
    ("evaluate", ["--temporal"], "temporal", "true", "false", None),
    ("evaluate", ["--no-temporal"], "temporal", "false", "true", None),
    ("evaluate", ["--eval-sampling", "simple"], "sampling.eval_kind", "simple", "advanced", "auto"),
    ("evaluate", ["--lenient"], "strict_mapping", "false", "true", None),
]


def _flag_id(row):
    return f"{row[0]}{row[1][0]}"


def _resolved(argv):
    return dump_config(_run_config(build_parser().parse_args(argv)))


@pytest.mark.parametrize("row", FLAG_KEYS, ids=_flag_id)
def test_flag_sets_its_key_and_overrides_set(row):
    command, words, key, value, other, _ = row
    base = [command, *BASE[command]]
    by_flag = _resolved(base + words)
    assert by_flag == _resolved(base + ["--set", key, value])
    assert by_flag != _resolved(base + ["--set", key, other])
    assert _resolved(base + ["--set", key, other] + words) == by_flag
    assert _resolved(base + words + ["--set", key, other]) == by_flag


#: A removed flag is refused whatever its value.
BAD_FLAGS = [row for row in FLAG_KEYS if row[5] is not None] + [
    ("generate", [flag], None, None, None, "300") for flag in REMOVED_FLAGS
] + [(command, [flag], None, None, None, "0.3") for command in ("train", "evaluate") for flag in REMOVED_RUN_FLAGS]


@pytest.mark.parametrize("row", BAD_FLAGS, ids=_flag_id)
def test_bad_flag_value_exits_1(row, tmp_path, monkeypatch, capsys):
    command, words, bad = row[0], row[1], row[5]
    monkeypatch.chdir(tmp_path)
    assert main([command, *BASE[command], words[0], bad]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# typed errors under mutated inputs

#: Tokens a mutation may insert: a carriage return, NUL, a UTF-8 byte order
#: mark, text that parses as a non-finite or overflowing float, and quotes.
FUZZ_TOKENS = (b"\r", b"\0", b"\xef\xbb\xbf", b"nan", b"1e308", b'"', b"'")

#: One edit at a position taken modulo the file's length: a byte flip, a
#: deletion of up to 16 bytes, a truncation, or an inserted token.
fuzz_edits = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(1, 255)),
    st.tuples(st.just("delete"), st.integers(min_value=0), st.integers(1, 16)),
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(0)),
    st.tuples(st.just("insert"), st.integers(min_value=0), st.sampled_from(FUZZ_TOKENS)),
)


def _mutated(data: bytes, edits) -> bytes:
    for kind, at, arg in edits:
        at %= len(data) + 1
        if kind == "flip" and at < len(data):
            data = data[:at] + bytes([data[at] ^ arg]) + data[at + 1:]
        elif kind == "delete":
            data = data[:at] + data[at + arg:]
        elif kind == "truncate":
            data = data[:at]
        elif kind == "insert":
            data = data[:at] + arg + data[at:]
    return data


def _fuzz_argv(command: str, files: dict, out: Path) -> list[str]:
    """`command` on the files of a fuzz run.  The sizing flags come last, so
    they override whatever a mutated config sets: no mutation can lengthen
    a run (evaluate takes its model's size from the checkpoint)."""
    argv = [command, "--config", str(files["run_config.txt"]), "--trace", str(files["trace"]), "--out", str(out)]
    if command == "evaluate":
        return argv + ["--checkpoint", str(files["checkpoint"]), "--mapping", str(files["mapping.tsv"]), *SPAN]
    return argv + [*SPAN, "--hidden", "8", "--epochs", "2"]


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The trace, config, checkpoint and mapping of a tiny trained run (40
    services, hidden 8, 2 epochs), which train and evaluate again as they are."""
    root = tmp_path_factory.mktemp("fuzz")
    trace, run = root / "trace.csv", root / "run"
    assert main(["generate", "--out", str(trace), "--seed", "3", "--set", "synth.n_services", "40",
                 "--set", "synth.duration", "1000", "--set", "synth.events_per_window_mean", "30"]) == 0
    assert main(["train", "--trace", str(trace), "--out", str(run), *SPAN,
                 "--hidden", "8", "--epochs", "2", "--seed", "3"]) == 0
    files = {"trace": trace, "run_config.txt": run / "run_config.txt",
             "checkpoint": run / "checkpoint.bin", "mapping.tsv": run / "mapping.tsv"}
    for command in ("train", "evaluate"):
        assert main(_fuzz_argv(command, files, root / command)) == 0
    return files


@example(case=("checkpoint", "evaluate"), edits=[("truncate", 40, 0)])
@example(case=("trace", "train"), edits=[("insert", 0, b"\xef\xbb\xbf"), ("insert", 60, b"\r")])
@example(case=("mapping.tsv", "evaluate"), edits=[("insert", 5, b"nan")])
@example(case=("run_config.txt", "train"), edits=[("insert", 0, b'"')])
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    case=st.sampled_from([("trace", "train"), ("trace", "evaluate"), ("run_config.txt", "train"),
                          ("run_config.txt", "evaluate"), ("checkpoint", "evaluate"), ("mapping.tsv", "evaluate")]),
    edits=st.lists(fuzz_edits, min_size=1, max_size=4),
)
def test_mutated_inputs_end_in_a_typed_error_or_a_run(fuzz_files, case, edits):
    target, command = case
    with tempfile.TemporaryDirectory(dir=fuzz_files["trace"].parent) as scratch:
        files = {**fuzz_files, target: Path(scratch) / fuzz_files[target].name}
        files[target].write_bytes(_mutated(fuzz_files[target].read_bytes(), edits))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_fuzz_argv(command, files, Path(scratch) / "out"))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
