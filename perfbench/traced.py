"""Traced run of one tracelink CLI command, for the per-layer breakdown.

Nothing under src/ is edited: before the command runs, this script wraps,
from outside, every public function of the pipeline modules (ingest,
preprocess, graph, sampling, gat, autodiff, metrics, cli) and rebinds each
wrapper under every name that refers to the original, so that names imported
with `from .x import y` are traced as well.  A wrapper records one span:
name, start, end and the index of the enclosing span.  Spans stay in memory
and are written out once the command has returned.

Besides spans it records:

* for each autodiff op, a span around the backward closure of the tensor the
  op returned (`autodiff.<op>.bwd`), so backward time is charged per op;
* `Tensor.backward` as `autodiff.Tensor.backward`;
* sampler work: the generators that `gat` and `metrics` derive for negative
  sampling are replaced by a proxy that forwards every call to the real
  generator and counts the values drawn by `random`/`integers`;
* the node count, edge instances and distinct (src, dst) pairs of every graph
  that `build_graph` returns.

The wrappers only observe: the command's output files are byte-identical to
an untraced run, which the benchmark checks.

    python3 perfbench/traced.py --result out.json -- train --trace t.csv ...
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from dataclasses import dataclass, field


class Tracer:
    """In-memory span recorder; spans[i] = (name, start, end, parent index)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def span(self, name: str, fn, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(out)
            return out

        return wrapper


@dataclass
class Counts:
    """Work counted at layer boundaries while the command runs."""

    graphs: list = field(default_factory=list)  # every WindowedGraph build_graph returned
    accepted: int = 0  # negative pairs draw_negatives returned
    candidate_values: int = 0  # values the sampling generators drew


class CountingRng:
    """Forwards to a numpy Generator; counts values drawn by random/integers."""

    def __init__(self, rng, counts: Counts):
        self._rng = rng
        self._counts = counts

    def random(self, *args, **kwargs):
        out = self._rng.random(*args, **kwargs)
        self._counts.candidate_values += getattr(out, "size", 1)
        return out

    def integers(self, *args, **kwargs):
        out = self._rng.integers(*args, **kwargs)
        self._counts.candidate_values += getattr(out, "size", 1)
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _public_functions(module):
    for name, value in vars(module).items():
        if (
            not name.startswith("_")
            and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__
        ):
            yield name, value


def instrument(tracer: Tracer, counts: Counts) -> None:
    from tracelink import autodiff, cli, gat, graph, ingest, metrics, preprocess, sampling

    Tensor = autodiff.Tensor

    def traced_op(name, fn):
        timed = tracer.span(f"autodiff.{name}", fn)
        bwd_name = f"autodiff.{name}.bwd"

        @functools.wraps(fn)
        def op(*args, **kwargs):
            out = timed(*args, **kwargs)
            if isinstance(out, Tensor) and out._backward is not None:
                out._backward = tracer.span(bwd_name, out._backward)
            return out

        return op

    def on_negatives(pairs):
        counts.accepted += len(pairs)

    hooks = {"graph.build_graph": counts.graphs.append, "sampling.draw_negatives": on_negatives}
    replaced = {}  # id(original) -> (original, wrapper)
    for module in (ingest, preprocess, graph, sampling, gat, autodiff, metrics, cli):
        layer = module.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(module):
            if layer == "autodiff":
                wrapper = traced_op(name, fn)
            else:
                wrapper = functools.wraps(fn)(tracer.span(f"{layer}.{name}", fn, hooks.get(f"{layer}.{name}")))
            replaced[id(fn)] = (fn, wrapper)
    for module_name, module in list(sys.modules.items()):
        if module_name == "tracelink" or module_name.startswith("tracelink."):
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
    Tensor.backward = functools.wraps(Tensor.backward)(tracer.span("autodiff.Tensor.backward", Tensor.backward))

    for module in (gat, metrics):
        real_derive = module.derive_rng
        module.derive_rng = functools.wraps(real_derive)(
            lambda *labels, _real=real_derive: CountingRng(_real(*labels), counts)
        )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the tracelink command and its arguments")
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import numpy as np

    tracer = Tracer()
    counts = Counts()
    instrument(tracer, counts)
    from tracelink import cli

    code = cli.main(cli_args)
    done = time.monotonic()

    doc = {
        "exit_code": code,
        "done": done,
        "spans": tracer.spans,
        "graphs": [
            [g.n_nodes, g.n_edges, int(np.unique(g.edge_src.astype(np.int64) * g.n_nodes + g.edge_dst).size)]
            for g in counts.graphs
        ],
        "candidate_values": counts.candidate_values,
        "accepted": counts.accepted,
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
