"""tracelink benchmark: drives the real CLI on synthetic traces.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` (no install needed).  `--seed` is the workload seed: `tracelink
generate` turns it into the trace, and `train`/`evaluate` get it as their
master seed.  Every child process runs with BLAS pinned to one thread.

`--trace 0` measures the end-to-end metrics.  It repeats rounds of
  1. `tracelink train --sampling advanced`, run by `probe.py`, which also
     times the training loop alone,
  2. `tracelink evaluate` on that checkpoint, also run by `probe.py`,
  3. a set-up-only `probe.py`, which stamps when the training graphs are ready,
each in a fresh process, for as long as `--seconds` allows (at least two
rounds), then adds set-up-only probes while time remains, and in any case
until it has three set-up samples.  The benchmark and its children run on
one CPU.  The host pace (see `pace.py`) is measured between every two
children and, every half second, inside each probe.  Each timing sample
leaves the calibration time out and is divided by the pace measured around
and during it; the timing metrics are medians of these samples.

`--trace 1` measures the per-layer metrics.  It runs one untraced train and
evaluate, then the same two commands under `traced.py`, checks that the
traced outputs are byte-identical, and reports span totals per layer together
with the tracing overhead.

Either way the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; metric names and units come
from BENCHMARK.json.  A failed check is counted and reported, the remaining
work still runs, and the exit code is 1.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from pace import CALIBRATION_REF_S, host_pace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
AUC_FLOOR = 0.9
#: Two rounds at least, so every run compares repeated outputs byte for byte.
MIN_ROUNDS = 2
MIN_SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 9
#: Every child is killed once the run has lasted this long.
HARD_LIMIT_S = 170.0


@dataclass(frozen=True)
class Workload:
    generate: tuple[str, ...]
    epochs: int


#: Shapes are fixed by the benchmark definition; epochs set the run length.
WORKLOADS = {
    "desk": Workload((), epochs=4),
    "heavy": Workload(("--events-mean", "3000"), epochs=1),
    "wide": Workload(("--services", "2000", "--events-mean", "400"), epochs=1),
}

#: Tape ops the model uses; each gets calls / fwd_s / bwd_s per-layer metrics.
TAPE_OPS = ("add", "mul", "neg", "div", "matmul", "gather", "scatter_add", "narrow", "concat",
            "reshape", "tsum", "exp", "leaky_relu", "elu", "softplus")
LAYERS = ("ingest", "preprocess", "graph", "sampling", "gat", "autodiff", "metrics", "cli")


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    launched: float
    ended: float
    #: Host pace measured by the benchmark just before and just after the child.
    pace_before: float
    pace_after: float

    def span(self, start: float, end: float, marks: list) -> tuple[float, float]:
        """Seconds from `start` to `end` in this child, calibration excluded, and the pace then.

        `marks` are the child's own pace marks (see `pace.Pacer`).  The pace is
        the mean of the marks inside the span, and of the benchmark's own
        measurement at each end of the child that the span reaches.
        """
        inside = [mark for mark in marks if start <= mark[0] < end]
        paces = [mark[2] for mark in inside]
        if start <= self.launched:
            paces.append(self.pace_before)
        if end >= self.ended:
            paces.append(self.pace_after)
        if not paces:
            paces = [self.pace_before, self.pace_after]
        return end - start - sum(mark[1] for mark in inside), statistics.fmean(paces)


@dataclass
class Bench:
    """Runs child processes and keeps the invocation and failure tally."""

    work: Path
    deadline: float
    pace: float = field(default_factory=host_pace)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)
        print(f"FAILED: {what}", file=sys.stderr)

    def run(self, argv: list[str], log_name: str) -> Child:
        """Run one child to completion; wall time and peak RSS are its own.

        The host pace is measured again after every child, so each child has
        a measurement on either side of it.
        """
        env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
        self.attempted += 1
        with open(self.work / f"{log_name}.log", "wb") as log:
            launched = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], stdout=log, stderr=subprocess.STDOUT,
                                    env=env, cwd=ROOT)
            timer = threading.Timer(max(1.0, self.deadline - launched), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        before, self.pace = self.pace, host_pace()
        return Child(proc.returncode, ended - launched, usage.ru_maxrss / 1024.0, launched, ended,
                     before, self.pace)

    def tracelink(self, args: list[str], log_name: str) -> Child:
        return self.run(["-m", "tracelink.cli", *args], log_name)

    def check_exit(self, child: Child, what: str) -> bool:
        if child.code == 0:
            return True
        tail = (self.work / f"{what}.log").read_text(encoding="utf-8", errors="replace")[-2000:]
        self.fail(f"{what} exited with code {child.code}: {tail.strip()}")
        return False


def train_args(wl: Workload, trace: Path, seed: int, out: Path) -> list[str]:
    return ["train", "--seed", str(seed), "--trace", str(trace), "--sampling", "advanced",
            "--epochs", str(wl.epochs), "--out", str(out)]


def evaluate_args(trace: Path, seed: int, train_out: Path, out: Path) -> list[str]:
    return ["evaluate", "--seed", str(seed), "--trace", str(trace),
            "--checkpoint", str(train_out / "checkpoint.bin"), "--out", str(out)]


# ---------------------------------------------------------------------------
# output checks

def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_train_outputs(out: Path) -> float:
    """Final-epoch mean loss; raises ValueError on a missing or non-finite loss."""
    by_epoch: dict[int, list[float]] = defaultdict(list)
    lines = (out / "loss_history.csv").read_text(encoding="utf-8").splitlines()
    for line in lines[1:]:
        epoch, _, loss = line.split(",")
        value = float(loss)
        if not math.isfinite(value):
            raise ValueError(f"non-finite loss {loss!r} in epoch {epoch}")
        by_epoch[int(epoch)].append(value)
    if not by_epoch:
        raise ValueError("loss_history.csv has no rows")
    return statistics.fmean(by_epoch[max(by_epoch)])


def check_eval_outputs(out: Path) -> dict:
    """Pooled metrics from metrics.json; raises ValueError when a check fails."""
    doc = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    pooled = doc["pooled"]
    for key in ("auc", "f1"):
        if not math.isfinite(pooled[key]):
            raise ValueError(f"pooled {key} is {pooled[key]}")
    if pooled["auc"] < AUC_FLOOR:
        raise ValueError(f"pooled AUC {pooled['auc']} is below the floor {AUC_FLOOR}")
    score_files = sorted(out.glob("scored_window_*.csv"))
    if not score_files:
        raise ValueError("no scored_window_*.csv files")
    for path in score_files:
        for line in path.read_text(encoding="utf-8").splitlines()[1:]:
            if not math.isfinite(float(line.split(",")[2])):
                raise ValueError(f"non-finite score in {path.name}: {line}")
    return pooled


# ---------------------------------------------------------------------------
# end-to-end run

def measure(bench: Bench, wl: Workload, trace: Path, seed: int, seconds: float) -> tuple[dict, dict]:
    work = bench.work
    samples: dict[str, list[float]] = defaultdict(list)
    unscaled: dict[str, list[float]] = defaultdict(list)  # the same timings, not scaled by pace
    quality: dict[str, float] = {}
    digests: dict[str, str] = {}

    def same_digest(key: str, path: Path, what: str) -> None:
        digest = sha256(path)
        first = digests.setdefault(key, digest)
        if digest != first:
            bench.fail(f"{what}: {path.name} differs from the first repeat ({digest} != {first})")

    def probe(name: str, cli_args: list[str], setup_only: bool = False) -> tuple[Child, dict] | None:
        shutil.rmtree(work / name, ignore_errors=True)
        result = work / f"{name}.json"
        flags = ["--setup-only"] if setup_only else []
        child = bench.run([str(BENCH / "probe.py"), "--result", str(result), *flags, "--", *cli_args], name)
        if not bench.check_exit(child, name):
            return None
        return child, json.loads(result.read_text(encoding="utf-8"))

    def timing(name: str, child: Child, doc: dict, start: float, end: float, per: int = 0) -> None:
        """Record seconds from `start` to `end`, or `per` units per second of them."""
        seconds, pace = child.span(start, end, doc["pace_marks"])
        samples[name].append(per * pace / seconds if per else seconds / pace)
        unscaled[name].append(per / seconds if per else seconds)
        samples["pace"].append(pace)

    def setup_sample() -> Child | None:
        got = probe("setup", train_args(wl, trace, seed, work / "setup"), setup_only=True)
        if got is None:
            return None
        child, doc = got
        timing("setup_s", child, doc, child.launched, doc["ready"])
        return child

    def one_round() -> None:
        got = probe("train", train_args(wl, trace, seed, work / "train"))
        if got is None:
            bench.attempted += 1
            bench.fail("evaluate skipped: train failed")
        else:
            train, doc = got
            try:
                quality["final_loss"] = check_train_outputs(work / "train")
            except (OSError, ValueError) as exc:
                bench.fail(f"train outputs: {exc}")
            else:
                timing("train_s", train, doc, train.launched, train.ended)
                timing("train_steps_per_s", train, doc, doc["train_loop_start"], doc["train_loop_end"],
                       per=doc["steps"])
                same_digest("checkpoint", work / "train" / "checkpoint.bin", "train")
            got = probe("evaluate", evaluate_args(trace, seed, work / "train", work / "evaluate"))
            if got is not None:
                evaluate, doc = got
                try:
                    pooled = check_eval_outputs(work / "evaluate")
                except (OSError, ValueError, KeyError) as exc:
                    bench.fail(f"evaluate outputs: {exc}")
                else:
                    quality["pooled_auc"] = pooled["auc"]
                    quality["pooled_f1"] = pooled["f1"]
                    timing("evaluate_s", evaluate, doc, evaluate.launched, evaluate.ended)
                    samples["peak_rss_mb"].append(max(train.rss_mb, evaluate.rss_mb))
                    same_digest("metrics", work / "evaluate" / "metrics.json", "evaluate")
        setup_sample()

    start = time.monotonic()
    deadline = start + seconds
    rounds = 0
    while True:
        one_round()
        rounds += 1
        now = time.monotonic()
        if rounds >= MIN_ROUNDS and now + (now - start) / rounds > deadline:
            break
    setup_wall = 0.0
    while len(samples["setup_s"]) < MAX_SETUP_SAMPLES:
        if len(samples["setup_s"]) >= MIN_SETUP_SAMPLES and time.monotonic() + setup_wall > deadline:
            break
        child = setup_sample()
        if child is None:
            break
        setup_wall = child.wall_s

    metrics = {name: statistics.median(values) for name, values in samples.items() if values}
    metrics.update(quality)
    info = {"rounds": rounds, "samples": dict(samples), "digests": digests,
            "unscaled_medians": {name: statistics.median(values) for name, values in unscaled.items()}}
    return metrics, info


# ---------------------------------------------------------------------------
# traced run

def _span_table(spans: list) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds]."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span is not None and span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, span in enumerate(spans):
        if span is None:
            continue
        row = table[span[0]]
        duration = span[2] - span[1]
        row[0] += 1
        row[1] += duration
        row[2] += duration - child_time[i]
    return table


def layer_metrics(train_doc: dict, eval_doc: dict, meta: dict, metrics_doc: dict) -> dict:
    t_train = _span_table(train_doc["spans"])
    t_eval = _span_table(eval_doc["spans"])
    table: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for part in (t_train, t_eval):
        for name, row in part.items():
            table[name] = [a + b for a, b in zip(table[name], row)]

    def total(*names: str) -> float:
        return sum(table[n][1] for n in names)

    values: dict[str, float] = {
        "ingest.parse_s": total("ingest.parse_trace_file"),
        "ingest.clean_s": total("ingest.clean_trace"),
        "ingest.events": meta["n_events"],
        "ingest.skipped_lines": meta["skipped_lines"],
        "preprocess.mapping_s": total("preprocess.build_node_mapping", "preprocess.apply_mapping"),
        "preprocess.windows_s": total("preprocess.segment_windows", "preprocess.split_train_test",
                                      "preprocess.span_window"),
        "graph.build_s": total("graph.build_graph"),
        "sampling.draw_s": total("sampling.draw_negatives"),
        "gat.grad_s": total("gat.compute_gradients"),
        "gat.backward_s": total("autodiff.Tensor.backward"),
        "gat.adam_s": total("gat.optimizer_step"),
        "gat.checkpoint_save_s": total("gat.save_checkpoint"),
        "gat.checkpoint_load_s": total("gat.load_checkpoint"),
        "metrics.evaluate_s": total("metrics.evaluate_windows"),
        "metrics.forward_s": t_eval["gat.model_forward"][1],
    }

    graphs = train_doc["graphs"]
    if graphs:
        values["graph.n_nodes"] = graphs[0][0]
        values["graph.edges_per_window"] = statistics.fmean(g[1] for g in graphs)
        values["graph.unique_pairs_per_window"] = statistics.fmean(g[2] for g in graphs)

    # Each candidate pair draws one source and one destination value.
    candidates = (train_doc["candidate_values"] + eval_doc["candidate_values"]) / 2
    values["sampling.candidates"] = candidates
    if candidates:
        values["sampling.accept_ratio"] = (train_doc["accepted"] + eval_doc["accepted"]) / candidates

    # A training step runs from its negative draw to the end of its Adam update.
    draws = [s[1] for s in train_doc["spans"] if s[0] == "sampling.draw_negatives"]
    updates = [s[2] for s in train_doc["spans"] if s[0] == "gat.optimizer_step"]
    steps_ms = [1e3 * (end - begin) for begin, end in zip(draws, updates)]
    if len(steps_ms) > 1:
        values["gat.step_ms_p50"] = statistics.median(steps_ms)
        values["gat.step_ms_p95"] = statistics.quantiles(steps_ms, n=20)[18]

    forward_ops = sum(row[0] for name, row in t_train.items()
                      if name.startswith("autodiff.") and not name.endswith(".bwd")
                      and name != "autodiff.Tensor.backward")
    if t_train["gat.compute_gradients"][0]:
        values["autodiff.ops_per_step"] = forward_ops / t_train["gat.compute_gradients"][0]
    for op in (*TAPE_OPS, "segment_max"):
        values[f"autodiff.{op}.calls"] = table[f"autodiff.{op}"][0]
        values[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}")
        if op != "segment_max":
            values[f"autodiff.{op}.bwd_s"] = total(f"autodiff.{op}.bwd")

    pooled = metrics_doc["pooled"]
    values["metrics.scored_pairs"] = pooled["tp"] + pooled["fp"] + pooled["fn"] + pooled["tn"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(row[2] for name, row in table.items() if name.startswith(layer + "."))
    values["trace.spans"] = len(train_doc["spans"]) + len(eval_doc["spans"])
    return values


def traced(bench: Bench, wl: Workload, trace: Path, seed: int) -> tuple[dict, dict]:
    work = bench.work
    plain_train = bench.tracelink(train_args(wl, trace, seed, work / "train"), "train")
    plain_eval = None
    if bench.check_exit(plain_train, "train"):
        plain_eval = bench.tracelink(evaluate_args(trace, seed, work / "train", work / "evaluate"), "evaluate")
        bench.check_exit(plain_eval, "evaluate")

    docs = {}
    for name, argv in (("traced-train", train_args(wl, trace, seed, work / "traced-train")),
                       ("traced-evaluate", evaluate_args(trace, seed, work / "traced-train",
                                                         work / "traced-evaluate"))):
        result = work.parent / f"{name}.json"  # kept after the run: spans and counts
        child = bench.run([str(BENCH / "traced.py"), "--result", str(result), "--", *argv], name)
        if not bench.check_exit(child, name):
            return {}, {}
        docs[name] = json.loads(result.read_text(encoding="utf-8"))
        docs[name]["wall_s"] = docs[name]["done"] - child.launched
    if plain_eval is None or plain_eval.code != 0:
        return {}, {}

    identical = True
    for plain, traced_out, artefact in (("train", "traced-train", "checkpoint.bin"),
                                        ("evaluate", "traced-evaluate", "metrics.json")):
        a, b = sha256(work / plain / artefact), sha256(work / traced_out / artefact)
        if a != b:
            identical = False
            bench.fail(f"traced {artefact} differs from the untraced one ({b} != {a})")
    try:
        check_train_outputs(work / "traced-train")
        metrics_doc = json.loads((work / "traced-evaluate" / "metrics.json").read_text(encoding="utf-8"))
        check_eval_outputs(work / "traced-evaluate")
    except (OSError, ValueError, KeyError) as exc:
        bench.fail(f"traced outputs: {exc}")
        return {}, {}
    meta = json.loads((work / "traced-train" / "train_meta.json").read_text(encoding="utf-8"))
    values = layer_metrics(docs["traced-train"], docs["traced-evaluate"], meta, metrics_doc)
    values["trace.train_overhead"] = docs["traced-train"]["wall_s"] / plain_train.wall_s
    values["trace.evaluate_overhead"] = docs["traced-evaluate"]["wall_s"] / plain_eval.wall_s
    info = {
        "untraced_train_s": plain_train.wall_s,
        "traced_train_s": docs["traced-train"]["wall_s"],
        "untraced_evaluate_s": plain_eval.wall_s,
        "traced_evaluate_s": docs["traced-evaluate"]["wall_s"],
        "outputs_identical": identical,
    }
    return values, info


# ---------------------------------------------------------------------------
# entry point

def environment(workload: str, seed: int, cpus_usable: int, pinned_cpu: int) -> dict:
    env = {
        "workload": workload,
        "seed": seed,
        "epochs": {name: wl.epochs for name, wl in WORKLOADS.items()},
        "thread_pins": THREAD_PINS,
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": pinned_cpu,
        "calibration_ref_s": CALIBRATION_REF_S,
        "python": platform.python_version(),
    }
    try:
        import numpy as np

        env["numpy"] = np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, TypeError, KeyError, AttributeError) as exc:
        env.setdefault("numpy", "unknown")
        env["blas"] = f"unknown ({exc.__class__.__name__})"
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), timeout=10)
        env["git_commit"] = head.stdout.strip() if head.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        env["git_commit"] = "unknown (git unavailable)"
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time for --trace 0")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer traced run")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tracelink" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from a tracelink source checkout; {SRC / 'tracelink'} or {spec_path} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    wl = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    work = run_dir / "work"
    work.mkdir(parents=True)
    # One CPU for the benchmark and every child, so the calibration between
    # children measures the CPU the children ran on.
    usable = os.sched_getaffinity(0)
    pinned_cpu = max(usable)
    os.sched_setaffinity(0, {pinned_cpu})
    bench = Bench(work, time.monotonic() + HARD_LIMIT_S)
    values: dict = {}
    info: dict = {}
    try:
        trace = work / "trace.csv"
        gen = bench.tracelink(["generate", "--seed", str(args.seed), "--out", str(trace), *wl.generate],
                              "generate")
        if bench.check_exit(gen, "generate"):
            if args.trace:
                values, info = traced(bench, wl, trace, args.seed)
            else:
                values, info = measure(bench, wl, trace, args.seed, args.seconds)
    finally:
        env = environment(args.workload, args.seed, len(usable), pinned_cpu)
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not bench.failures:
        bench.fail(f"metrics not produced: {', '.join(missing)}")
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    correct = not bench.failures
    attempted = max(1, bench.attempted)

    print(f"tracelink benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env: " + json.dumps(env, sort_keys=True))
    if info:
        print("info: " + json.dumps({k: v for k, v in info.items() if k != "samples"}, sort_keys=True))
        for name, vals in info.get("samples", {}).items():
            print(f"samples {name} (n={len(vals)}): " + " ".join(f"{v:.6g}" for v in vals))
    width = max(len(name) for name in metrics)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']!s:>22}  {m['unit']}")
    print(f"  {'failed_share':<{width}}  {bench.failed / attempted:>22}  ratio "
          f"({bench.failed} of {attempted} invocations)")
    with open(run_dir / "report.json", "w", encoding="utf-8") as handle:
        json.dump({"env": env, "info": info, "metrics": metrics, "failures": bench.failures}, handle, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bench.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
