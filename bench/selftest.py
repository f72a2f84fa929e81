"""Toy-size self-test of the benchmark.

Usage::

    python3 bench/selftest.py

Runs every workload at toy size, untraced and traced, through the same
code as run.py, and checks the result objects against BENCHMARK.json.  Then
shows that the checks catch a .vec file with one digit changed, that a
public function missing from the program is reported absent instead of
failing the run, and that the benchmark refuses to run without the
program's sources.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import run

TOY_GROWTH = {
    "train-core": ((40, 2.0), (40, 4.0)),
    "grow-batches": ((30, 1.0), (30, 1.5), (30, 2.0)),
    "wide-vocab": ((None, 2.0),),
}


def toy(workload: run.Workload) -> run.Workload:
    return replace(workload, n_tokens=20_000, n_topic_words=400 if workload.window < 5 else 1600,
                   core=60, dim=8, iters=3, growth=TOY_GROWTH[workload.name],
                   sim_pairs=60, sim_top=60, check_sample=5)


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok  {message}")


def corrupt_digit(path: Path) -> None:
    """Change the first digit of the first vector value."""
    lines = path.read_text().split("\n")
    word, *values = lines[1].split(" ")
    text = values[0]
    pos = next(k for k, ch in enumerate(text) if ch.isdigit())
    values[0] = text[:pos] + str((int(text[pos]) + 5) % 10) + text[pos + 1 :]
    lines[1] = " ".join([word, *values])
    path.write_text("\n".join(lines))


def check_runs(spec: dict, work: Path) -> None:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
           "BENCHMARK.json names the workloads run.py defines")
    for name, workload in run.WORKLOADS.items():
        for trace, wanted in ((False, end_to_end), (True, per_layer)):
            result = run.run_benchmark(toy(workload), seed=3, seconds=0, trace=trace,
                                       work=work / f"{name}-{int(trace)}")
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace={int(trace)}: every stage ran and every check passed")
            expect(got == wanted, f"{name} trace={int(trace)}: metrics and units match BENCHMARK.json")
            if not trace:
                expect(all(m["value"] > 0 for m in result["metrics"].values()),
                       f"{name}: every end-to-end metric is positive")


def check_corruption(work: Path) -> None:
    from checks import CheckError

    workload = toy(run.WORKLOADS["train-core"])
    inputs = run.make_inputs(workload, 5, work / "inputs")
    with run.Launcher() as launcher:
        rnd = run.run_round(launcher, workload, inputs, work / "round")
    expect(rnd.failed == 0, "toy round ran")
    run.check_round(workload, inputs, rnd.out, 5)
    expect(True, "checks pass on the untouched outputs")
    before = run.output_digests(rnd.out)
    for name in ("core.vec", "grow02.vec"):
        path = rnd.out / name
        pristine = path.read_bytes()
        corrupt_digit(path)
        try:
            run.check_round(workload, inputs, rnd.out, 5)
        except CheckError as exc:
            expect(True, f"one changed digit in {name} fails a check: {exc}")
        else:
            expect(False, f"one changed digit in {name} fails a check")
        expect(run.output_digests(rnd.out) != before, f"{name} with a changed digit fails the determinism check")
        path.write_bytes(pristine)


def check_absent() -> None:
    wrapped = ["statistics.pmi_block", "cli.cmd_evaluate"]
    stats = {"statistics.pmi_block": {"calls": 1, "seconds": 0.5, "self_seconds": 0.5, "count": 4}}
    extra = dict.fromkeys(["pairs_counted", "distinct_pairs", "bigram_file_mb", "sweeps",
                           "startup_s", "overhead_s"], 1.0)
    metrics, absent = run.layer_metrics(run.WORKLOADS["train-core"],
                                        [("factorize-core", 10.0, {"wrapped": wrapped, "stats": stats})], extra)
    expect("statistics.pmi_row" in absent and metrics["statistics.pmi_row_s"][0] == 0.0,
           "a public function missing from the program is reported absent")
    expect(metrics["statistics.pmi_block_cells"][0] == 4, "present functions are still reported")


def check_no_sources(work: Path) -> None:
    bare = work / "bare"
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-core", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True,
                         timeout=180)
    expect(out.returncode != 0 and not out.stdout.strip(),
           "without the program's sources the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    work = run.ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    try:
        check_runs(spec, work)
        check_corruption(work / "corrupt")
        check_absent()
        check_no_sources(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
