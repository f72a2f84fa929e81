"""pmivec pipeline benchmark.

Usage::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates a seeded corpus and similarity testset, then runs the five CLI
stages (count-unigrams, count-bigrams, factorize-core, one or more
factorize-noncore, evaluate) in rounds, one process per stage with one
BLAS/OpenMP thread, until ``--seconds`` is used up.  Every round must write
byte-identical outputs; the first round's outputs are checked against an
independent numpy recomputation (see checks.py).  With ``--trace 1`` one
more round runs every stage under tracer.py and the per-layer metrics are
reported instead of the end-to-end ones.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

See bench/README.md for the workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_ENTRY = "import sys; from pmivec.cli import main; sys.exit(main())"
STARTUP_PROBE = "import pmivec.cli"
STARTUP_REPEATS = 5
SETUP_REPEATS = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
STAGES = ("count-unigrams", "count-bigrams", "factorize-core", "factorize-noncore", "evaluate")
LAMBDA, ALPHA = 0.1, 0.5  # the CLI defaults, which the checks assume


@dataclass(frozen=True)
class Workload:
    """One pipeline shape.  ``growth`` holds (words, mu) per factorize-noncore
    call; ``None`` words means the rest of the vocabulary."""

    name: str
    n_tokens: int
    n_topic_words: int
    window: int
    core: int
    growth: tuple[tuple[int | None, float], ...]
    dim: int = 50
    iters: int = 15
    min_count: int = 5
    zipf: float = 1.0
    sim_pairs: int = 1000
    sim_top: int = 500
    testset_seed: int = 0
    check_sample: int = 30


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-core", n_tokens=120_000, n_topic_words=2400, window=2, core=700,
                 growth=((400, 2.0), (400, 4.0)), sim_top=400, testset_seed=11),
        Workload("grow-batches", n_tokens=100_000, n_topic_words=2400, window=2, core=200,
                 growth=tuple((100, 1.0 + 0.5 * k) for k in range(6)), sim_top=400, testset_seed=12),
        Workload("wide-vocab", n_tokens=200_000, n_topic_words=20_000, zipf=0.8, min_count=3,
                 window=5, core=100, growth=((None, 2.0),), sim_top=1000, testset_seed=13),
    )
}

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "count_tokens_per_s": "tokens/s", "core_s": "s",
    "grow_words_per_s": "words/s", "peak_rss_mb": "MB", "core_residual_rel": "ratio",
    "sim_spearman": "rho",
}


class Launcher:
    """Client of launch.py, which starts every stage process (see there why)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launch.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], env: dict, log: Path) -> dict:
        request = {"argv": argv, "env": env, "log": str(log)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("stage launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class Inputs:
    corpus: Path
    testset_dir: Path
    ids: object  # token ids, one row per document
    names: list
    setup_times: list


def make_inputs(workload: Workload, seed: int, work: Path) -> Inputs:
    """Generate corpus and testset ``SETUP_REPEATS`` times, timing each."""
    from corpusgen import CorpusSpec, Model, word_names, write_corpus, write_similarity
    from checks import CheckError, digest

    spec = CorpusSpec(workload.n_tokens, workload.n_topic_words, zipf=workload.zipf)
    corpus, testset_dir = work / "corpus.txt", work / "testsets"
    testset_dir.mkdir(parents=True, exist_ok=True)
    times, digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        model = Model(spec)
        ids = model.sample(seed)
        write_corpus(corpus, ids, spec)
        write_similarity(testset_dir / "sim.sim.tsv", model, workload.sim_pairs,
                         workload.sim_top, workload.testset_seed)
        times.append(time.perf_counter() - start)
        digests.add((digest(corpus), digest(testset_dir / "sim.sim.tsv")))
    if len(digests) != 1:
        raise CheckError("the generator wrote different inputs for one seed")
    return Inputs(corpus, testset_dir, ids, word_names(spec.vocab_size), times)


def stage_plan(workload: Workload, inputs: Inputs, out: Path, n_vocab: int) -> list[tuple[str, list[str]]]:
    uni, bi = str(out / "unigrams.txt"), str(out / "bigrams.txt")
    plan = [
        ("count-unigrams", ["--input", str(inputs.corpus), "--min-count", str(workload.min_count),
                            "--out", uni]),
        ("count-bigrams", ["--input", str(inputs.corpus), "--unigrams", uni,
                           "--window", str(workload.window), "--out", bi]),
        ("factorize-core", ["--bigrams", bi, "--unigrams", uni, "--core-size", str(workload.core),
                            "--dim", str(workload.dim), "--iters", str(workload.iters),
                            "--out", str(out / "core.vec")]),
    ]
    previous = out / "core.vec"
    for k, (words, mu) in enumerate(growth_groups(workload, n_vocab), start=1):
        vec = out / f"grow{k:02d}.vec"
        plan.append(("factorize-noncore", [
            "--bigrams", bi, "--unigrams", uni, "--core-vec", str(previous),
            "--core-size", str(workload.core), "--count", str(words), "--mu", f"{mu:g}",
            "--out", str(vec)]))
        previous = vec
    plan.append(("evaluate", ["--vec", str(previous), "--testset-dir", str(inputs.testset_dir),
                              "--out", str(out / "report.txt")]))
    return plan


def growth_groups(workload: Workload, n_vocab: int) -> list[tuple[int, float]]:
    used = workload.core + sum(n for n, _ in workload.growth if n is not None)
    return [(n if n is not None else n_vocab - used, mu) for n, mu in workload.growth]


def vocab_size(unigram_path: Path) -> int:
    with open(unigram_path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip()) - 1


@dataclass
class Round:
    out: Path
    calls: list  # (stage, wall_s, peak_mb, returncode)
    attempted: int
    failed: int


def run_round(launcher: Launcher, workload: Workload, inputs: Inputs, out: Path,
              traced: bool = False) -> Round:
    """Run every stage once, each in its own process.  After a failed stage
    the rest of the round counts as failed, so every round attempts the same
    number of calls."""
    out.mkdir(parents=True, exist_ok=True)
    env = child_env()
    calls, failed = [], 0
    plan = stage_plan(workload, inputs, out, n_vocab=0)
    for k in range(len(plan)):
        if failed:  # every later stage reads an earlier stage's output
            failed += 1
            continue
        stage, args = plan[k]
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(out / f"trace{k:02d}.json"), stage, *args]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, stage, *args]
        log = out / f"stage{k:02d}.log"
        result = launcher.run(argv, env, log)
        calls.append((stage, result["wall_s"], result["peak_mb"], result["returncode"]))
        if result["returncode"] != 0:
            failed += 1
            sys.stderr.write(f"{stage} exited {result['returncode']}:\n{log.read_text()[-2000:]}\n")
        elif stage == "count-unigrams":  # sizes the rest-of-vocabulary growth group
            plan = stage_plan(workload, inputs, out, vocab_size(out / "unigrams.txt"))
    return Round(out, calls, len(plan), failed)


def timing_metrics(rounds: list[Round], n_tokens: int, grown_words: int) -> dict:
    """Stage-call medians across rounds, summed per stage.

    Each call position (say, the third factorize-noncore) is reduced to its
    median over the rounds before anything is summed, so a burst of load on
    a shared machine during one call moves no figure.
    """
    wall = dict.fromkeys(STAGES, 0.0)
    peaks = []
    for calls in zip(*(r.calls for r in rounds)):
        wall[calls[0][0]] += statistics.median(c[1] for c in calls)
        peaks.append(statistics.median(c[2] for c in calls))
    return {
        "pipeline_s": sum(wall.values()),
        "count_tokens_per_s": n_tokens / (wall["count-unigrams"] + wall["count-bigrams"]),
        "core_s": wall["factorize-core"],
        "grow_words_per_s": grown_words / wall["factorize-noncore"],
        "peak_rss_mb": max(peaks),
    }


OUTPUT_SUFFIXES = (".txt", ".vec")


def output_digests(out: Path) -> dict:
    from checks import digest

    return {p.name: digest(p) for p in sorted(out.iterdir()) if p.suffix in OUTPUT_SUFFIXES}


def check_round(workload: Workload, inputs: Inputs, out: Path, seed: int) -> dict:
    """Every independent check on one round's outputs; returns the figures
    the checks recomputed."""
    from checks import Oracle, check_bigrams, check_core, check_growth, check_spearman, check_unigrams

    oracle = Oracle(inputs.ids, inputs.names, workload.min_count, workload.window, LAMBDA, ALPHA)
    check_unigrams(out / "unigrams.txt", oracle)
    pairs, distinct = check_bigrams(out / "bigrams.txt", oracle, workload.window,
                                    workload.check_sample, seed)
    residual_rel = check_core(out / "core.vec", out / "core.vec.manifest.json", oracle, workload.core)
    groups = growth_groups(workload, len(oracle.vocab))
    _, _, normalizer = oracle.core_model(workload.core)
    final_vec = out / f"grow{len(groups):02d}.vec"
    check_growth(final_vec, oracle, workload.core, normalizer, groups, workload.check_sample, seed)
    rho = check_spearman(out / "report.txt", final_vec, inputs.testset_dir / "sim.sim.tsv")
    return {"core_residual_rel": residual_rel, "sim_spearman": rho, "pairs_counted": pairs,
            "distinct_pairs": distinct, "grown_words": sum(n for n, _ in groups)}


def startup_seconds(launcher: Launcher, work: Path) -> float:
    times = []
    for k in range(STARTUP_REPEATS):
        result = launcher.run([sys.executable, "-c", STARTUP_PROBE], child_env(), work / f"startup{k}.log")
        if result["returncode"] != 0:
            raise RuntimeError(f"importing pmivec.cli failed: {(work / f'startup{k}.log').read_text()}")
        times.append(result["wall_s"])
    return statistics.median(times)


def layer_metrics(workload: Workload, traces: list[tuple[str, float, dict]], extra: dict) -> tuple[dict, list]:
    """Per-layer metrics from the traced stage processes.

    ``traces`` holds (stage, peak_mb, stats file content) per process.  A
    metric whose function was not found in the program is reported as 0 and
    listed as absent.
    """
    wrapped, stats = set(), {}
    for _, _, data in traces:
        wrapped.update(data["wrapped"])
        for name, entry in data["stats"].items():
            total = stats.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                total[key] += value
    absent: list[str] = []

    def pick(names, key):
        present = [n for n in names if n in wrapped]
        if not present:
            absent.append("/".join(names))
            return 0.0
        return sum(stats.get(n, {}).get(key, 0) for n in present)

    score_fns = ["evaluation.eval_similarity", "evaluation.eval_analogy_3cosmul", "evaluation.eval_choice"]
    metrics = {
        "corpus.tokenize_s": (pick(["corpus.tokenize"], "seconds"), "s"),
        "corpus.count_unigrams_s": (pick(["corpus.count_unigrams"], "seconds"), "s"),
        "corpus.count_bigrams_s": (pick(["corpus.count_bigrams"], "seconds"), "s"),
        "corpus.pairs_counted": (extra["pairs_counted"], "count"),
        "corpus.distinct_pairs": (extra["distinct_pairs"], "count"),
        "corpus.load_bigrams_s": (pick(["corpus.load_bigrams"], "seconds"), "s"),
        "corpus.load_bigrams_calls": (pick(["corpus.load_bigrams"], "calls"), "count"),
        "corpus.bigram_file_mb": (extra["bigram_file_mb"], "MB"),
        "statistics.pmi_block_s": (pick(["statistics.pmi_block"], "seconds"), "s"),
        "statistics.pmi_block_calls": (pick(["statistics.pmi_block"], "calls"), "count"),
        "statistics.pmi_block_cells": (pick(["statistics.pmi_block"], "count"), "count"),
        "statistics.pmi_row_s": (pick(["statistics.pmi_row"], "seconds"), "s"),
        "statistics.pmi_row_calls": (pick(["statistics.pmi_row"], "calls"), "count"),
        "core_solver.em_factorize_s": (pick(["core_solver.em_factorize"], "seconds"), "s"),
        "core_solver.eigensolve_s": (pick(["core_solver.psd_truncate"], "seconds"), "s"),
        "core_solver.eigensolve_calls": (pick(["core_solver.psd_truncate"], "calls"), "count"),
        "core_solver.sweep_self_s": (pick(["core_solver.em_factorize"], "self_seconds"), "s"),
        "core_solver.sweeps": (extra["sweeps"], "count"),
        "core_solver.block_mb": (8.0 * workload.core**2 / 1e6, "MB"),
        "incremental.solve_words_s": (pick(["incremental.solve_words"], "seconds"), "s"),
        "incremental.solve_words_self_s": (pick(["incremental.solve_words"], "self_seconds"), "s"),
        "incremental.words_solved": (pick(["incremental.solve_words"], "count"), "count"),
        "embeddings.load_vec_s": (pick(["embeddings.load_vec"], "seconds"), "s"),
        "embeddings.save_vec_s": (pick(["embeddings.save_vec"], "seconds"), "s"),
        "embeddings.rows_loaded": (pick(["embeddings.load_vec"], "count"), "count"),
        "embeddings.rows_saved": (pick(["embeddings.save_vec"], "count"), "count"),
        "evaluation.score_s": (pick(score_fns, "seconds"), "s"),
        "evaluation.items_scored": (pick(score_fns, "count"), "count"),
        "cli.startup_s": (extra["startup_s"], "s"),
    }
    for stage in STAGES:
        key = stage.replace("-", "_")
        fn = f"cli.cmd_{key}"
        metrics[f"cli.{key}_s"] = (pick([fn], "seconds"), "s")
        metrics[f"cli.{key}_self_s"] = (pick([fn], "self_seconds"), "s")
        metrics[f"cli.{key}_peak_mb"] = (
            max([peak for s, peak, _ in traces if s == stage], default=0.0), "MB")
    metrics["trace.overhead_s"] = (extra["overhead_s"], "s")
    return metrics, sorted(set(absent))


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up, measure for ``seconds``, check, and return the result object."""
    from checks import CheckError

    inputs = make_inputs(workload, seed, work / "inputs")
    rounds: list[Round] = []
    digests = []
    correct, problems = True, []
    with Launcher() as launcher:
        start = time.perf_counter()
        while True:
            rnd = run_round(launcher, workload, inputs, work / f"round{len(rounds) + 1:02d}")
            rounds.append(rnd)
            if rnd.failed == 0:
                digests.append(output_digests(rnd.out))
                if len(digests) > 1:  # the first good round is the one checked
                    shutil.rmtree(rnd.out)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(rounds) > seconds:
                break
        checked = {}
        first_ok = next((r for r in rounds if r.failed == 0), None)
        if first_ok is not None:
            try:
                checked = check_round(workload, inputs, first_ok.out, seed)
            except CheckError as exc:
                correct = False
                problems.append(str(exc))
        traced_round = None
        if trace:
            traced_round = run_round(launcher, workload, inputs, work / "traced", traced=True)
            if traced_round.failed == 0:
                digests.append(output_digests(traced_round.out))
            tokenize_stats = work / "traced" / "trace-tokenize.json"
            launcher.run([sys.executable, str(BENCH_DIR / "tracer.py"), str(tokenize_stats),
                          "tokenize", str(inputs.corpus)], child_env(), work / "traced" / "tokenize.log")
            startup = startup_seconds(launcher, work)
    for other in digests[1:]:
        if other != digests[0]:
            correct = False
            changed = sorted(k for k in digests[0] if digests[0][k] != other.get(k))
            problems.append(f"outputs differ between rounds of one seed: {changed}")
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    good = [r for r in rounds if r.failed == 0]
    if traced_round is not None:
        attempted += traced_round.attempted
        failed += traced_round.failed
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    if not checked or not good:
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}

    values = timing_metrics(good, inputs.ids.size, checked["grown_words"])
    values["setup_s"] = statistics.median(inputs.setup_times)
    values["core_residual_rel"] = checked["core_residual_rel"]
    values["sim_spearman"] = checked["sim_spearman"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    summary = {"rounds": len(good), "calls_per_round": rounds[0].attempted,
               "round_walls": [round(sum(c[1] for c in r.calls), 3) for r in good]}

    if trace:
        if traced_round.failed:
            return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}
        traces = []
        for k, (stage, _, peak, _) in enumerate(traced_round.calls):
            with open(traced_round.out / f"trace{k:02d}.json", encoding="utf-8") as fh:
                traces.append((stage, peak, json.load(fh)))
        with open(tokenize_stats, encoding="utf-8") as fh:
            traces.append(("tokenize", 0.0, json.load(fh)))
        with open(traced_round.out / "core.vec.manifest.json", encoding="utf-8") as fh:
            sweeps = json.load(fh).get("diagnostics", {}).get("iterations", 0)
        traced_wall = sum(seconds for _, seconds, _, _ in traced_round.calls)
        extra = {
            "pairs_counted": checked["pairs_counted"],
            "distinct_pairs": checked["distinct_pairs"],
            "bigram_file_mb": (traced_round.out / "bigrams.txt").stat().st_size / 1e6,
            "sweeps": sweeps,
            "startup_s": startup,
            "overhead_s": traced_wall - values["pipeline_s"],
        }
        layer, absent = layer_metrics(workload, traces, extra)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
        summary["absent"] = absent
        errors = [e for _, _, data in traces for e in data.get("counter_errors", [])]
        if errors:
            summary["counter_errors"] = errors
    summary["end_to_end"] = {k: round(v, 6) for k, v in values.items()}
    print(json.dumps(summary, sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pmivec" / "cli.py").is_file():
        sys.stderr.write(f"no pmivec sources under {SRC}: run from a checkout of the repository\n")
        return 2
    os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
