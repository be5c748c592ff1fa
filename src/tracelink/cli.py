"""Command-line interface.

Four subcommands cover the pipeline end to end:

* generate  - write a synthetic trace file
* train     - trace in, checkpoint + loss history + attention snapshots out
* evaluate  - checkpoint + trace in, metrics document + curve data out
* report    - summarize one or more evaluation directories as a table

Every run is fully determined by its master --seed: per-stage generators are
derived from it, and identical invocations produce byte-identical outputs.
Exit codes: 0 success, 1 usage/config problem, 2 bad input data, 3 numeric
or training failure, or an array too large to allocate (reported as one
`error: out of memory: ...` line, not a traceback).
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from typing import Iterator

import numpy as np

from . import gat
from . import metrics as metrics_mod
from . import synth as synth_mod
from .config import CONFIG_KEYS, RunConfig, apply_key, dump_config, load_config_file
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    TracelinkError,
)
from .ingest import clean_trace, parse_trace_file, write_trace
from .preprocess import (
    NodeMapping,
    apply_mapping,
    build_node_mapping,
    load_mapping,
    mapping_digest,
    save_mapping,
    segment_windows,
    span_window,
    split_train_test,
)
from .sampling import SamplingKind, SamplingStrategy, analyze_sampling
from .seeding import derive_rng, derive_seed


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the exit-code-1 path."""

    def error(self, message):
        raise ConfigError(message)


@contextmanager
def _stage(name: str):
    """Re-raise pipeline errors with the failing stage named."""
    try:
        yield
    except TracelinkError as exc:
        raise type(exc)(f"stage {name}: {exc}") from exc


# ---------------------------------------------------------------------------
# shared wiring

def _run_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then --config files, then --set pairs, then the flags.

    A flag that sets a config value stores its text under the key's name
    (its argparse `dest`), so every value goes through `apply_key`.
    """
    cfg = RunConfig()
    for path in args.config or []:
        load_config_file(cfg, path)
    for key, value in args.set or []:
        apply_key(cfg, key, value)
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            apply_key(cfg, key, str(value))
    return cfg


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _remove_numbered(out: Path, *prefixes: str) -> None:
    """Delete the files in `out` named `<prefix><digits>.csv` for one of
    `prefixes`: an earlier run's numbered outputs, which this run may not
    write again.  Every other file is left alone."""
    if not out.is_dir():
        return
    numbered = re.compile(f"(?:{'|'.join(map(re.escape, prefixes))})[0-9]+\\.csv")
    for path in out.iterdir():
        if numbered.fullmatch(path.name) and path.is_file():
            path.unlink()


def _strategy(kind: str, mean_pos: int = 0, n_nodes: int = 0) -> SamplingStrategy:
    """The regime `kind` names, advanced with `sampling.DEFAULT_ALPHA`; "auto" picks
    one from the positive ratio."""
    if kind == "auto":
        return analyze_sampling(mean_pos, n_nodes)
    return SamplingStrategy(SamplingKind(kind))


def _bits(values: np.ndarray) -> np.ndarray:
    """Numeric `values` as unsigned integers of the same width.  Equal keys
    mean equal bits, so -0.0 and 0.0, and NaNs with different payloads,
    stay apart."""
    return values.view(f"u{values.itemsize}")


def _reprs(values: np.ndarray) -> list[str]:
    """The repr of each entry of numeric `values`, made once per distinct
    bit pattern (`_bits`)."""
    # With return_inverse numpy sorts; its hash path would import numpy.ma (~13 ms).
    keys, inverse = np.unique(_bits(values), return_inverse=True)
    texts = np.array(list(map(repr, keys.view(values.dtype).tolist())), dtype=object)
    return texts[inverse].tolist()


#: Lines `_csv_blocks` joins into one text at a time.
_CSV_BLOCK_ROWS = 1 << 13


def _csv_blocks(header: str, *columns) -> Iterator[str]:
    """CSV text in blocks of `_CSV_BLOCK_ROWS` lines: the `header` line
    (none if empty), then one line per entry of the numeric array-like
    `columns`, each value as its repr.  Columns of different lengths raise
    ValueError before any text is made.  A block's values get one `repr` per
    distinct value of their column (`_reprs`), and its texts are joined with
    the separators in one pass."""
    cells = [np.asarray(column) for column in columns]
    rows = len(cells[0]) if cells else 0
    if any(len(column) != rows for column in cells):
        raise ValueError(f"CSV columns of different lengths: {[len(column) for column in cells]}")
    width = 2 * len(cells)

    def blocks() -> Iterator[str]:
        if header:
            yield header + "\n"
        for start in range(0, rows, _CSV_BLOCK_ROWS):
            stop = min(rows, start + _CSV_BLOCK_ROWS)
            parts = [","] * (width * (stop - start))
            for j, column in enumerate(cells):
                parts[2 * j::width] = _reprs(column[start:stop])
            parts[width - 1::width] = ["\n"] * (stop - start)
            yield "".join(parts)

    return blocks()


def _write_csv(path: Path, header: str, *columns) -> None:
    """Write the text of `_csv_blocks` to `path` block by block, so that
    neither the whole text nor its encoding is ever held at once."""
    blocks = _csv_blocks(header, *columns)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(blocks)


# ---------------------------------------------------------------------------
# generate

def cmd_generate(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    synth_cfg = replace(cfg.synth, seed=derive_seed(cfg.seed, "synth"))
    with _stage("generate"):
        events = synth_mod.generate_trace(synth_cfg)
    out = Path(args.out)
    comment = (
        f"synthetic trace seed={cfg.seed} services={synth_cfg.n_services} "
        f"duration={synth_cfg.duration} window_hint={synth_mod.WINDOW_HINT}"
    )
    write_trace(events, out, header_comment=comment)
    print(f"wrote {len(events)} events across {synth_cfg.n_services} services to {out}")
    return 0


# ---------------------------------------------------------------------------
# train

def _load_mapped_windows(cfg: RunConfig, mapping: NodeMapping | None):
    """Ingest + clean + map + window a trace per the run settings.

    Returns (mapping, train_windows, test_windows, n_events, dropped,
    skipped_unknown), where `dropped` holds the parse's `skipped_lines` and
    the `clean_trace` counts.  With a preexisting `mapping`, events naming a
    service it does not know either fail (strict) or are dropped (lenient),
    since the model has no parameters for ids it never trained on.
    """
    if not cfg.trace:
        raise ConfigError("no trace file given (use --trace or the `trace` config key)")
    with _stage("ingest"):
        raw, skipped_lines = parse_trace_file(cfg.trace, cfg.trace_format)
        # Windows tile [0, t_max), so the horizon's integer timestamps end
        # at t_max - 1.
        clean, dropped = clean_trace(raw, cfg.t_max - 1)
        # The parse's float timestamps go; clean_trace copies its name
        # columns only where it drops or reorders rows, and apply_mapping
        # only where it drops rows, so those may be the parse's own arrays.
        del raw
    with _stage("mapping"):
        if mapping is None:
            mapping = build_node_mapping(clean)
        mapped = apply_mapping(clean, mapping, strict=cfg.strict_mapping)
    with _stage("windows"):
        if cfg.temporal:
            windows = segment_windows(mapped, cfg.window_size, cfg.t_max)
            train_w, test_w = split_train_test(windows, cfg.t_train, cfg.t_max)
        else:
            train_w = [span_window(mapped, 0, cfg.t_train, index=0)]
            test_w = [span_window(mapped, cfg.t_train, cfg.t_max, index=1)]
    dropped = {"skipped_lines": skipped_lines, **dropped}
    return mapping, train_w, test_w, len(clean), dropped, len(clean) - len(mapped)


def cmd_train(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    cfg.validate()

    mapping, train_w, _, n_events, dropped, _ = _load_mapped_windows(cfg, None)
    n_nodes = mapping.n_nodes
    if n_nodes < 2:
        raise DataError(f"trace has {n_nodes} distinct services; need at least 2")

    nonempty = [w for w in train_w if w.n_events]
    with _stage("sampling"):
        mean_pos = max(1, round(sum(w.n_events for w in nonempty) / max(1, len(nonempty))))
        strategy = _strategy(cfg.sampling.kind, mean_pos, n_nodes)
    with _stage("model-init"):
        params = gat.init_params(n_nodes, cfg.model.hidden, gat.HEADS, derive_rng(cfg.seed, "init"))
    with _stage("train"):
        artifacts = gat.train(
            params,
            train_w,
            strategy,
            epochs=cfg.model.epochs,
            lr=cfg.model.lr,
            seed=cfg.seed,
            snapshot_epochs=cfg.model.snapshot_epochs,
        )

    out = Path(cfg.out_dir)
    with _stage("write"):
        _remove_numbered(out, "attention_epoch_")
        digest = mapping_digest(mapping)
        save_mapping(mapping, out / "mapping.tsv")
        gat.save_checkpoint(params, out / "checkpoint.bin", mapping_sha256=digest)
        losses, windows = artifacts.loss_history, artifacts.windows
        epoch, j = np.divmod(np.arange(losses.size), windows.size)
        _write_csv(out / "loss_history.csv", "epoch,window,loss", epoch, windows[j], losses)
        for epoch, record in sorted(artifacts.attention_snapshots.items()):
            matrix = metrics_mod.export_attention(record)
            _write_csv(out / f"attention_epoch_{epoch:04d}.csv", "", *matrix.T)
        _write_text(out / "run_config.txt", dump_config(cfg))
        meta = {
            "n_nodes": n_nodes,
            "n_events": n_events,
            "n_train_windows": len(train_w),
            "n_nonempty_train_windows": len(nonempty),
            **dropped,
            "resolved_sampling": strategy.kind.value,
            "alpha": strategy.alpha,
            "mapping_sha256": digest,
        }
        _write_text(out / "train_meta.json", json.dumps(meta, sort_keys=True, indent=2) + "\n")

    final_loss = float(np.mean(artifacts.loss_history[-artifacts.windows.size:]))
    print(
        f"trained {cfg.model.epochs} epochs over {len(nonempty)} windows "
        f"({strategy.kind.value} sampling); final epoch mean loss {final_loss:.4f}; "
        f"artifacts in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate

def _metrics_block(scored: metrics_mod.ScoredSet) -> dict:
    """auc, the confusion counts and the threshold metrics, flags sorted."""
    flagged = sorted(scored.metrics.flagged)
    return {"auc": scored.auc, **vars(scored.confusion), **vars(scored.metrics), "flagged": flagged}


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    cfg.validate()

    checkpoint_path = Path(args.checkpoint)
    with _stage("checkpoint"):
        params, stored_digest = gat.load_checkpoint(checkpoint_path)
    mapping_path = Path(args.mapping) if args.mapping else checkpoint_path.parent / "mapping.tsv"
    with _stage("mapping"):
        if not mapping_path.exists():
            raise DataError(f"mapping file not found: {mapping_path}")
        mapping = load_mapping(mapping_path)
        if stored_digest and mapping_digest(mapping) != stored_digest:
            if cfg.strict_mapping:
                raise CheckpointError(
                    f"mapping file {mapping_path} does not match the checkpoint's stored hash; "
                    "pass --lenient to evaluate anyway"
                )
            print(f"warning: mapping hash mismatch for {mapping_path}", file=sys.stderr)
        if mapping.n_nodes != params.dims.n_nodes:
            raise CheckpointError(
                f"mapping has {mapping.n_nodes} services but the checkpoint expects "
                f"{params.dims.n_nodes}"
            )

    _, _, test_w, _, dropped, skipped_unknown = _load_mapped_windows(cfg, mapping)

    strategy = _strategy(cfg.sampling.eval_kind)
    out = Path(cfg.out_dir)
    # Each window's scored pairs are written as soon as it is scored, so an
    # earlier run's go first, with its metrics.json: a run that fails part way
    # leaves no metrics.json naming windows it did not write.  The per-window
    # curve files that older runs wrote go too, so that none can disagree
    # with the scored pairs beside it.
    _remove_numbered(out, "pr_window_", "roc_window_", "scored_window_")
    (out / "metrics.json").unlink(missing_ok=True)

    def write_window(window_index: int, *pairs: np.ndarray) -> None:
        _write_csv(out / f"scored_window_{window_index:04d}.csv", "src,dst,score,label", *pairs)

    with _stage("evaluate"):
        report = metrics_mod.evaluate_windows(params, test_w, strategy, seed=cfg.seed, on_window=write_window)

    with _stage("write"):
        doc = {
            "tau": metrics_mod.TAU,
            "sampling": {"kind": strategy.kind.value, "alpha": strategy.alpha},
            "pooled": _metrics_block(report.pooled),
            "macro": report.macro,
            "windows": {f"{index:04d}": _metrics_block(scored) for index, scored in report.windows.items()},
            "n_test_windows": len(report.windows),
            **dropped,
            "skipped_unknown_events": skipped_unknown,
        }
        _write_text(out / "metrics.json", json.dumps(doc, sort_keys=True, indent=2) + "\n")
        _write_csv(out / "pr_pooled.csv", "threshold,precision,recall", *report.pr)
        _write_csv(out / "roc_pooled.csv", "threshold,fpr,tpr", *report.roc)
        matrix = metrics_mod.export_attention(report.last_attention)
        _write_csv(out / "attention_test.csv", "", *matrix.T)

    pooled = report.pooled.metrics
    print(
        f"evaluated {len(report.windows)} windows: AUC {report.pooled.auc:.4f}, "
        f"accuracy {pooled.accuracy:.4f}, F1 {pooled.f1:.4f}; results in {out}"
    )
    return 0


# ---------------------------------------------------------------------------
# report

#: The pooled metrics `report` tabulates, in column order.
_REPORT_KEYS = ("auc", "accuracy", "precision", "recall", "f1")


def _pooled_values(path: Path) -> list[float]:
    """The `_REPORT_KEYS` of a metrics.json's pooled block; a file that is
    not UTF-8 JSON or lacks one of them as a number is a DataError."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, too deep
        raise DataError(f"{path} is not UTF-8 JSON: {exc}") from None
    pooled = doc.get("pooled") if isinstance(doc, dict) else None
    values = [pooled.get(key) for key in _REPORT_KEYS] if isinstance(pooled, dict) else [None]
    if any(type(value) not in (int, float) for value in values):
        raise DataError(f"{path} lacks a numeric pooled {', '.join(_REPORT_KEYS)}")
    return values


def cmd_report(args: argparse.Namespace) -> int:
    rows = []
    for run_dir in args.runs:
        path = Path(run_dir) / "metrics.json"
        if not path.exists():
            raise DataError(f"no metrics.json under {run_dir}")
        rows.append((str(run_dir), *_pooled_values(path)))
    name_width = max(len("run"), *(len(r[0]) for r in rows))
    header = f"{'run':<{name_width}}  {'auc':>7}  {'acc':>7}  {'prec':>7}  {'recall':>7}  {'f1':>7}"
    print(header)
    print("-" * len(header))
    for name, *vals in rows:
        print(f"{name:<{name_width}}  " + "  ".join(f"{v:7.4f}" for v in vals))
    return 0


# ---------------------------------------------------------------------------
# parser

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tracelink", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", action="append", metavar="FILE", help="key=value config file (repeatable)")
        p.add_argument("--set", nargs=2, action="append", metavar=("KEY", "VALUE"), help="override one config key")
        p.add_argument("--seed", dest="seed", help="master seed (default 0)")

    def add_run(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--trace", dest="trace", help="input trace file")
        p.add_argument("--out", dest="out_dir", help="output directory")
        p.add_argument("--window-size", dest="window_size")
        p.add_argument("--t-train", dest="t_train")
        p.add_argument("--t-max", dest="t_max")
        p.add_argument("--temporal", dest="temporal", action=argparse.BooleanOptionalAction, default=None,
                       help="window the trace (default) or use one static graph per span")

    gen = sub.add_parser("generate", help="write a synthetic trace")
    add_common(gen)
    gen.add_argument("--out", required=True, help="trace file to write")
    gen.add_argument("--services", dest="synth.n_services", help="number of services")
    gen.add_argument("--duration", dest="synth.duration", help="trace horizon in ms")
    gen.add_argument("--events-mean", dest="synth.events_per_window_mean", help="mean events per window")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train a model from a trace")
    add_run(tr)
    tr.add_argument("--hidden", dest="model.hidden")
    tr.add_argument("--epochs", dest="model.epochs")
    tr.add_argument("--lr", dest="model.lr")
    tr.add_argument("--sampling", dest="sampling.kind", choices=("auto", "none", "simple", "advanced"))
    tr.add_argument("--snapshot-epochs", dest="model.snapshot_epochs",
                    help="comma list of epochs to snapshot attention at")
    tr.set_defaults(func=cmd_train)

    ev = sub.add_parser("evaluate", help="score test windows with a checkpoint")
    add_run(ev)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--mapping", help="mapping file (default: mapping.tsv next to the checkpoint)")
    ev.add_argument("--eval-sampling", dest="sampling.eval_kind", choices=("simple", "advanced"),
                    help="how to draw contrast negatives (default advanced)")
    ev.add_argument("--lenient", dest="strict_mapping", action="store_const", const="false",
                    help="drop events for unknown services instead of failing")
    ev.set_defaults(func=cmd_evaluate)

    rep = sub.add_parser("report", help="tabulate metrics from evaluation runs")
    rep.add_argument("runs", nargs="+", help="evaluation output directories")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TracelinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
