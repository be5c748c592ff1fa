"""Untraced tracelink command for the benchmark's timings.

Runs one tracelink command (`train` or `evaluate`) in this process, exactly
as the console script would, with `tracelink.gat.train` replaced by a shim:

* normally the shim stamps the start and end of the real `gat.train` call,
  the training loop alone, and counts its Adam steps; nothing else changes,
  so the command's outputs are those of a plain `tracelink` command;
* with --setup-only it instead builds the graph of every training window,
  stamps that moment ("training graphs ready") and stops the command.

While the command runs, a `pace.Pacer` measures the host pace every
--pace-every seconds.  All stamps are on the system-wide monotonic clock, so
the launching process can subtract its own launch stamp and the calibration
time.

    python3 perfbench/probe.py --result out.json [--setup-only] -- train --trace t.csv ...

The result file holds the stamps, the step count, the pace marks and the CLI
exit code.
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from pace import Pacer


class _SetupDone(Exception):
    """Raised by the shim to stop a --setup-only probe once graphs are ready."""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--setup-only", action="store_true", help="stop once the training graphs are built")
    parser.add_argument("--pace-every", type=float, default=0.5, help="seconds between pace marks")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the tracelink arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    result: dict = {}
    with Pacer(args.pace_every) as pacer:
        from tracelink import cli, gat
        from tracelink.graph import build_graph

        real_train = gat.train

        def timed_train(params, train_windows, *rest, **kwargs):
            if args.setup_only:
                for window in train_windows:
                    build_graph(window, params.dims.n_nodes)
                result["ready"] = time.monotonic()
                raise _SetupDone
            result["train_loop_start"] = time.monotonic()
            artifacts = real_train(params, train_windows, *rest, **kwargs)
            result["train_loop_end"] = time.monotonic()
            result["steps"] = len(artifacts.loss_history)
            return artifacts

        gat.train = timed_train
        try:
            code = cli.main(cli_args)
        except _SetupDone:
            code = 0
    result["exit_code"] = code
    result["pace_marks"] = pacer.marks
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
