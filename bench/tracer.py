"""Traced stage process: times the calls into every public pmivec function.

Usage::

    python tracer.py STATS_JSON STAGE [CLI ARGS...]   # one traced CLI stage
    python tracer.py STATS_JSON tokenize CORPUS       # drain corpus.tokenize alone

Every public function defined in a layer module is wrapped, and every
module-level name bound to it (including names other modules imported) is
rebound to the wrapper, so calls between layers are timed too.  For each
function the stats file holds the call count, the total seconds, the self
seconds (total minus the wrapped calls made inside it) and a work count
(items yielded by a generator, or the per-call count from ``COUNTERS``).
The stage then runs through ``pmivec.cli.main`` exactly as the CLI would.

Timing is single-threaded: the call stack is one list, so stages must run
with their default single worker thread.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("corpus", "statistics", "core_solver", "incremental", "embeddings", "evaluation", "cli")

# A per-token generator: a wrapper would add one Python frame per token and
# swamp the counting stages, so it is timed by draining it alone instead.
UNTRACED = {"corpus.tokenize"}


def _items_covered(args, result):
    return result.items_covered


COUNTERS = {
    "statistics.pmi_block": lambda args, result: len(args[0]) * len(args[1]),
    "embeddings.load_vec": lambda args, result: len(result),
    "embeddings.save_vec": lambda args, result: len(args[0]),
    "evaluation.eval_similarity": _items_covered,
    "evaluation.eval_analogy_3cosmul": _items_covered,
    "evaluation.eval_choice": _items_covered,
}


class Tracer:
    """Per-function totals; ``stack`` holds the child time of each open call."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.stack = [0.0]
        self.counter_errors: list[str] = []

    def _record(self, name, elapsed, child, calls, count):
        entry = self.stats.setdefault(
            name, {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "count": 0}
        )
        entry["calls"] += calls
        entry["seconds"] += elapsed
        entry["self_seconds"] += elapsed - child
        entry["count"] += count
        self.stack[-1] += elapsed

    def _count(self, name, args, result):
        counter = COUNTERS.get(name)
        if counter is None:
            return 0
        try:
            return int(counter(args, result))
        except (TypeError, AttributeError, IndexError) as exc:
            self.counter_errors.append(f"{name}: {exc}")
            return 0

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        def timed(*args, **kwargs):
            self.stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._record(name, elapsed, self.stack.pop(), 1, 0)
            self.stats[name]["count"] += self._count(name, args, result)
            return result

        return timed

    def _wrap_generator(self, name, fn):
        def timed(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self._record(name, 0.0, 0.0, 1, 0)
            while True:
                self.stack.append(0.0)
                start = perf_counter()
                done = False
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                finally:
                    elapsed = perf_counter() - start
                    self._record(name, elapsed, self.stack.pop(), 0, 0 if done else 1)
                if done:
                    return
                yield item

        return timed


def install(tracer: Tracer) -> list[str]:
    """Wrap every public layer function; returns the wrapped names."""
    package = importlib.import_module("pmivec")
    modules = [importlib.import_module(f"pmivec.{layer}") for layer in LAYERS]
    wrappers = {}
    for layer, module in zip(LAYERS, modules):
        for attr, value in vars(module).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(value)
                    or value.__module__ != module.__name__):
                continue
            wrappers[value] = (name, tracer.wrap(name, value))

    def rebind(value):
        if isinstance(value, tuple):  # e.g. tables of (pattern, loader, scorer)
            return tuple(rebind(v) for v in value)
        if inspect.isfunction(value) and value in wrappers:
            return wrappers[value][1]
        return value

    for module in [package, *modules]:
        for attr, value in list(vars(module).items()):
            setattr(module, attr, rebind(value))
    return sorted(name for name, _ in wrappers.values())


def drain_tokenize(tracer: Tracer, corpus: str) -> list[str]:
    corpus_module = importlib.import_module("pmivec.corpus")
    tokenize = getattr(corpus_module, "tokenize", None)
    if tokenize is None:
        return []
    with open(corpus, encoding="utf-8") as fh:
        start = perf_counter()
        n = sum(1 for _ in tokenize(fh))
        tracer._record("corpus.tokenize", perf_counter() - start, 0.0, 1, n)
    return ["corpus.tokenize"]


def main(argv: list[str]) -> int:
    stats_path, stage, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    if stage == "tokenize":
        wrapped = drain_tokenize(tracer, rest[0])
        code = 0
    else:
        wrapped = install(tracer)
        cli = importlib.import_module("pmivec.cli")
        code = cli.main([stage, *rest])
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"wrapped": wrapped, "stats": tracer.stats,
                   "counter_errors": tracer.counter_errors}, fh, indent=1)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
