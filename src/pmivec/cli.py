"""Command-line pipeline stages: counting, factorization, evaluation.

Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 numerical failure.
A number out of range or not finite is a usage error as a flag, a data error
in a manifest.
Every subcommand writes its output atomically and drops a JSON manifest
(`<out>.manifest.json`) recording the resolved configuration and wall time.
`factorize-core` alone takes the weighting flags; `factorize-noncore` takes
the weighting recorded in the manifest of the vectors it extends.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .core_solver import CoreSolveConfig, em_factorize
from .corpus import (
    count_bigrams,
    count_unigrams,
    load_bigrams,
    load_unigrams,
    save_bigrams,
    save_unigrams,
    tokenize,
)
from .embeddings import EmbeddingSet, load_vec, save_vec
from .evaluation import (
    eval_analogy_3cosmul,
    eval_choice,
    eval_similarity,
    format_report_keyvalues,
    format_report_table,
    load_analogy,
    load_choice,
    load_similarity,
)
from .incremental import solve_words
from .ioutil import atomic_write, check_setting
from .statistics import PmiConfig, PmiRows, pmi_block

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _setting(cast, *bounds: float, above: bool = False):
    """argparse type of a numeric flag: ``cast`` the text, then apply
    :func:`check_setting`; a refusal is a usage error."""
    def parse(text: str):
        try:
            return check_setting("the value", cast(text), *bounds, above=above)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _write_manifest(out_path: str, subcommand: str, args: argparse.Namespace,
                    started: float, inputs: list[str], outputs: list[str],
                    extra: dict | None = None) -> None:
    manifest = {
        "subcommand": subcommand,
        "version": __version__,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": inputs,
        "outputs": outputs,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }
    if extra:
        manifest.update(extra)
    with atomic_write(out_path + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def cmd_count_unigrams(args) -> None:
    started = time.perf_counter()
    with open(args.input, encoding="utf-8") as fh:
        vocab = count_unigrams(tokenize(fh), min_count=args.min_count)
    save_unigrams(vocab, args.out)
    _write_manifest(args.out, "count-unigrams", args, started, [args.input], [args.out])
    print(f"{len(vocab)} words kept of {vocab.total_tokens} tokens -> {args.out}")


def cmd_count_bigrams(args) -> None:
    started = time.perf_counter()
    vocab = load_unigrams(args.unigrams)
    with open(args.input, encoding="utf-8") as fh:
        table = count_bigrams(tokenize(fh), vocab, args.window)
    save_bigrams(table, args.out)
    _write_manifest(
        args.out, "count-bigrams", args, started, [args.input, args.unigrams], [args.out]
    )
    print(f"{table.total_pairs} window-{args.window} pairs -> {args.out}")


def cmd_factorize_core(args) -> None:
    started = time.perf_counter()
    vocab = load_unigrams(args.unigrams)
    if not args.dim <= args.core_size <= len(vocab):
        raise ValueError(
            f"--core-size {args.core_size} must lie between --dim {args.dim} "
            f"and the {len(vocab)} vocabulary words"
        )
    table = load_bigrams(args.bigrams, vocab)
    core = range(args.core_size)
    cfg = PmiConfig(args.lam, args.alpha, args.cap)
    pmi, weights, normalizer = pmi_block(core, core, table, cfg)
    del table  # the solve needs only the blocks: release the counts before its memory peak
    factor, diag = em_factorize(pmi, weights, CoreSolveConfig(args.dim, args.iters, args.tol))
    emb = EmbeddingSet(vocab.words[: args.core_size], factor)
    save_vec(emb, args.out)
    _write_manifest(
        args.out, "factorize-core", args, started,
        [args.bigrams, args.unigrams], [args.out],
        extra={
            "diagnostics": {
                "residuals": diag.residuals,
                "iterations": diag.iterations,
                "converged": diag.converged,
                "method": diag.method,
            },
            "weight_normalizer": normalizer,
            "weight_normalizer_words": args.core_size,
        },
    )
    print(
        f"core {len(emb)} x {emb.dim}: residual {diag.residuals[0]:.6g} -> "
        f"{diag.residuals[-1]:.6g} in {diag.iterations} sweeps -> {args.out}"
    )


def _core_weighting(core_vec: str) -> tuple[PmiConfig, float | None, int | None]:
    """The weighting, the weight normalizer (the largest min(p, cap) ** alpha,
    p <= 1) and its word count, as the manifest beside ``core_vec`` records
    them: growth extends that solve.  Without a manifest, the default weighting."""
    path = Path(core_vec + ".manifest.json")
    if not path.is_file():
        print(f"warning: no {path}; growing with the default weighting {PmiConfig()}",
              file=sys.stderr)
        return PmiConfig(), None, None
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        recorded = manifest["arguments"]
        cfg = PmiConfig(**{f.name: recorded[f.name] for f in dataclasses.fields(PmiConfig)})
        normalizer = manifest.get("weight_normalizer")
        if normalizer is not None:
            check_setting("weight_normalizer", normalizer, 0.0, 1.0, above=True)
        words = manifest.get("weight_normalizer_words")
        if words is not None and check_setting("weight_normalizer_words", words, 1) % 1:
            raise ValueError(f"weight_normalizer_words {words!r} is not a whole number")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path} is no usable core manifest ({type(exc).__name__}: {exc})"
        ) from None
    return cfg, normalizer, words


def cmd_factorize_noncore(args) -> None:
    started = time.perf_counter()
    cfg, recorded, recorded_words = _core_weighting(args.core_vec)
    vars(args).update(dataclasses.asdict(cfg))  # recorded in this stage's manifest
    vocab = load_unigrams(args.unigrams)
    table = load_bigrams(args.bigrams, vocab)
    base = load_vec(args.core_vec)
    if len(base) == 0:
        raise ValueError(f"{args.core_vec} holds no embeddings")
    core_size = args.core_size if args.core_size is not None else len(base)
    if core_size > len(base):
        raise ValueError(f"--core-size {core_size} exceeds the {len(base)} stored vectors")
    core_words = base.words[:core_size]

    # regression columns: core words that are present in this vocabulary
    cols = []
    kept_rows = []
    for row, word in enumerate(core_words):
        idx = vocab.index.get(word)
        if idx is not None:
            cols.append(idx)
            kept_rows.append(row)
    if not cols:
        raise ValueError("no core word is present in the bigram vocabulary")
    if len(cols) < len(core_words):
        missing = len(core_words) - len(cols)
        print(
            f"warning: {missing}/{len(core_words)} core words are absent from the "
            f"vocabulary (coverage {len(cols) / len(core_words):.3f})",
            file=sys.stderr,
        )
    core_vectors = base.vectors[:core_size][kept_rows]

    # weights share the scale of the block of the regression columns, the
    # normalizer factorize-core found for those words
    rows_of = PmiRows(cols, table, cfg, normalizer=None)
    # a manifest's normalizer covers its .vec's leading words; with every core
    # word found, the same number of them must give the same value
    covered = len(cols) if len(cols) == len(core_words) else None
    if (covered is not None and recorded_words == covered
            and recorded is not None and recorded != rows_of.normalizer):
        raise ValueError(
            f"weight normalizer {rows_of.normalizer!r} of the {covered} core words differs "
            f"from {recorded!r}, recorded in {args.core_vec}.manifest.json; these counts "
            f"are not those the core vectors were solved on"
        )

    have = set(base.words)
    new_indices = [i for i, w in enumerate(vocab.words) if w not in have][: args.count]
    if len(new_indices) < args.count:
        print(
            f"warning: only {len(new_indices)} vocabulary words are left to solve "
            f"(requested {args.count})",
            file=sys.stderr,
        )
    solve_start = time.perf_counter()
    vectors = np.empty((len(new_indices), base.dim))
    degeneracies = 0
    stream = solve_words(core_vectors, rows_of, new_indices, args.mu)
    for pos, (_, vector, degenerate) in enumerate(stream):
        vectors[pos] = vector
        degeneracies += degenerate
    seconds = time.perf_counter() - solve_start
    merged = EmbeddingSet(base.words + [vocab.words[i] for i in new_indices],
                          np.vstack([base.vectors, vectors]))
    save_vec(merged, args.out)
    report = {"words": len(new_indices), "mu": args.mu, "degeneracies": degeneracies,
              "seconds": round(seconds, 6)}
    _write_manifest(
        args.out, "factorize-noncore", args, started,
        [args.bigrams, args.unigrams, args.core_vec], [args.out],
        extra={"report": report, "weight_normalizer": rows_of.normalizer,
               "weight_normalizer_words": covered},
    )
    print(
        f"solved {len(new_indices)} words (mu={args.mu:g}, "
        f"{degeneracies} degenerate, {seconds:.2f}s); "
        f"{len(merged)} total -> {args.out}"
    )


_TESTSET_KINDS = (
    ("*.sim.tsv", load_similarity, eval_similarity),
    ("*.ana.txt", load_analogy, eval_analogy_3cosmul),
    ("*.mc.txt", load_choice, eval_choice),
)


def cmd_evaluate(args) -> None:
    started = time.perf_counter()
    emb = load_vec(args.vec)
    testset_dir = Path(args.testset_dir)
    if not testset_dir.is_dir():
        raise FileNotFoundError(f"testset directory not found: {testset_dir}")
    reports, seen = [], {}
    for pattern, loader, scorer in _TESTSET_KINDS:
        for path in sorted(testset_dir.glob(pattern)):
            name = path.name.split(".")[0]
            if name in seen:
                raise ValueError(f"testsets {seen[name]} and {path} share the name {name!r}")
            seen[name] = path
            reports.append(scorer(emb, loader(path), name=name))
    if not reports:
        raise ValueError(f"no testsets found in {testset_dir}")
    text = format_report_table(reports) + "\n\n" + format_report_keyvalues(reports) + "\n"
    print(text, end="")
    with atomic_write(args.out) as fh:
        fh.write(text)
    _write_manifest(
        args.out, "evaluate", args, started,
        [args.vec, args.testset_dir], [args.out],
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pmivec", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("count-unigrams", help="count words and write the vocabulary file")
    p.add_argument("--input", required=True, help="corpus text file")
    p.add_argument("--min-count", type=_setting(int, 1), default=5,
                   help="discard words seen fewer times (default 5)")
    p.add_argument("--out", required=True, help="unigram file to write")
    p.set_defaults(func=cmd_count_unigrams)

    p = sub.add_parser("count-bigrams", help="count in-window word pairs")
    p.add_argument("--input", required=True, help="corpus text file")
    p.add_argument("--unigrams", required=True, help="unigram file from count-unigrams")
    p.add_argument("--window", type=_setting(int, 1), default=3,
                   help="pair window in tokens (default 3)")
    p.add_argument("--out", required=True, help="bigram file to write")
    p.set_defaults(func=cmd_count_bigrams)

    p = sub.add_parser("factorize-core", help="solve embeddings for the most frequent words")
    p.add_argument("--bigrams", required=True)
    p.add_argument("--unigrams", required=True)
    p.add_argument("--core-size", type=_setting(int, 1), required=True,
                   help="number of most frequent words solved jointly")
    p.add_argument("--dim", type=_setting(int, 1), required=True, help="embedding dimension")
    defaults = PmiConfig()  # growth calls take these from the core's manifest
    p.add_argument("--lambda", dest="lam", type=_setting(float, 0.0, 1.0), default=defaults.lam,
                   help=f"smoothing interpolation weight (default {defaults.lam})")
    p.add_argument("--alpha", type=_setting(float, 0.0, above=True), default=defaults.alpha,
                   help=f"weight transform exponent (default {defaults.alpha})")
    p.add_argument("--cap", type=_setting(float, 0.0, above=True), default=defaults.cap,
                   help="optional probability cap before the transform")
    p.add_argument("--iters", type=_setting(int, 1), default=CoreSolveConfig.max_iters,
                   help=f"maximum solver sweeps (default {CoreSolveConfig.max_iters})")
    p.add_argument("--tol", type=_setting(float, 0.0, above=True), default=CoreSolveConfig.tol,
                   help=f"relative residual change to stop at (default {CoreSolveConfig.tol:g})")
    p.add_argument("--out", required=True, help=".vec file to write")
    p.set_defaults(func=cmd_factorize_core)

    p = sub.add_parser("factorize-noncore",
                       help="extend existing embeddings to further words")
    p.add_argument("--bigrams", required=True)
    p.add_argument("--unigrams", required=True)
    p.add_argument("--core-vec", required=True,
                   help=".vec file with the embeddings to extend; its manifest "
                        "fixes the weighting")
    p.add_argument("--core-size", type=_setting(int, 1), default=None,
                   help="use only the first N stored vectors as regression "
                        "targets (default: all)")
    p.add_argument("--count", type=_setting(int, 1), required=True,
                   help="how many new words to solve, in frequency order")
    p.add_argument("--mu", type=_setting(float, 0.0), required=True,
                   help="ridge coefficient for this group")
    p.add_argument("--out", required=True, help=".vec file to write")
    p.set_defaults(func=cmd_factorize_noncore)

    p = sub.add_parser("evaluate", help="score a .vec file on a directory of testsets")
    p.add_argument("--vec", required=True)
    p.add_argument("--testset-dir", required=True,
                   help="directory with *.sim.tsv, *.ana.txt and *.mc.txt files")
    p.add_argument("--out", required=True, help="report file to write")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, so it goes first
        print(f"pmivec: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, ValueError) as exc:
        print(f"pmivec: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
