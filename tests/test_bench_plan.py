"""Every stage command of the benchmark parses under the CLI's own parser, so
a CLI change that would make a benchmark stage exit 1 fails here first."""

import importlib.util
import sys
from pathlib import Path

import pytest

from pmivec.cli import build_parser

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def load_bench_run():
    spec = importlib.util.spec_from_file_location("bench_run", RUN_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while the class is made
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no __pycache__ in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


run = load_bench_run()


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_stage_plan_parses(name, tmp_path):
    inputs = run.Inputs(corpus=tmp_path / "corpus.txt", testset_dir=tmp_path / "testsets",
                        ids=None, names=[], setup_times=[])
    plan = run.stage_plan(run.WORKLOADS[name], inputs, tmp_path / "out", n_vocab=20_000)
    assert {stage for stage, _ in plan} == set(run.STAGES)
    parser = build_parser()
    for stage, argv in plan:
        args = parser.parse_args([stage, *argv])
        assert args.subcommand == stage
        if stage == "factorize-core":  # the benchmark's checks assume the default weighting
            assert (args.lam, args.alpha, args.cap) == (run.LAMBDA, run.ALPHA, None)
