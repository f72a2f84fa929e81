"""Command-line pipeline stages: counting, factorization, evaluation.

Exit codes: 0 success, 1 usage error, 2 data or I/O error, 3 numerical failure.
A number out of range or not finite is a usage error as a flag, a data error
in a manifest.
Every subcommand writes its output atomically. Once the stage has succeeded,
`main` drops a JSON manifest (`<out>.manifest.json`) beside it recording the
resolved configuration, the input and output paths, the wall time and the
fields the stage returns, and only then prints the stage's summary to stdout;
a failed stage writes no manifest and prints no summary.
`factorize-core` alone takes the weighting flags, and records them with the
core block's weight normalizer and the SHA-256 of its count files and of its
`.vec`, as growth does.  `factorize-noncore` extends only a solve whose
manifest it reads: it takes the weighting and the normalizer from there, and
refuses count files or a `--core-vec` whose SHA-256 is not the one recorded.
Its output starts with the stored records of `--core-vec`, copied byte for
byte and hashed as they are read: unless they still hash to the recorded
`vec_sha256`, no output is left.  The new records follow as each group of
words is solved.
Each stage imports the layers it runs inside its `cmd_*` function, so a stage
process loads only those: `count-unigrams` runs without numpy, and `main`
looks numpy's `LinAlgError` up only when a stage has raised.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import __version__
from .ioutil import atomic_write, check_setting, file_sha256, open_utf8
from .settings import MAX_WINDOW, CoreSolveConfig, PmiConfig

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


def _write_manifest(args: argparse.Namespace, started: float, inputs: list[str],
                    extra: dict) -> None:
    """Record a stage that succeeded beside its output ``args.out``."""
    manifest = {
        "subcommand": args.subcommand,
        "version": __version__,
        "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "inputs": inputs,
        "outputs": [args.out],
        "wall_time_s": round(time.perf_counter() - started, 6),
        **extra,
    }
    with atomic_write(args.out + ".manifest.json") as fh:
        json.dump(manifest, fh, indent=2, default=str)
        fh.write("\n")


def _load_counts(args):
    """The vocabulary and pair table of ``args.unigrams`` and ``args.bigrams``,
    and the SHA-256 of both files."""
    from .corpus import load_bigrams, load_unigrams
    vocab = load_unigrams(args.unigrams)
    table = load_bigrams(args.bigrams, vocab)
    return vocab, table, {"bigrams": table.text_sha256, "unigrams": file_sha256(args.unigrams)}


def cmd_count_unigrams(args) -> tuple[list[str], dict, str]:
    from .corpus import count_unigrams, save_unigrams, tokenize
    with open_utf8(args.input) as fh:
        vocab = count_unigrams(tokenize(fh), min_count=args.min_count)
    save_unigrams(vocab, args.out)
    return [args.input], {}, f"{len(vocab)} words kept of {vocab.total_tokens} tokens -> {args.out}"


def cmd_count_bigrams(args) -> tuple[list[str], dict, str]:
    from .corpus import count_bigrams, load_unigrams, save_bigrams, tokenize
    vocab = load_unigrams(args.unigrams)
    with open_utf8(args.input) as fh:
        table = count_bigrams(tokenize(fh), vocab, args.window)
    save_bigrams(table, args.out)
    summary = f"{table.total_pairs} window-{args.window} pairs -> {args.out}"
    return [args.input, args.unigrams], {}, summary


def cmd_factorize_core(args) -> tuple[list[str], dict, str]:
    from .core_solver import em_factorize
    from .embeddings import EmbeddingSet, save_vec
    from .statistics import pmi_block
    vocab, table, digests = _load_counts(args)
    if not args.dim <= args.core_size <= len(vocab):
        raise ValueError(
            f"--core-size {args.core_size} must lie between --dim {args.dim} "
            f"and the {len(vocab)} vocabulary words"
        )
    core = range(args.core_size)
    cfg = PmiConfig(args.lam, args.alpha, args.cap)
    pmi, weights, normalizer = pmi_block(core, core, table, cfg)
    del table  # the solve needs only the blocks: release the counts before its memory peak
    factor, diag = em_factorize(pmi, weights, CoreSolveConfig(args.dim, args.iters, args.tol))
    emb = EmbeddingSet(vocab.words[: args.core_size], factor)
    written = save_vec(emb, args.out)
    summary = (f"core {len(emb)} x {emb.dim}: residual {diag.residuals[0]:.6g} -> "
               f"{diag.residuals[-1]:.6g} in {diag.iterations} sweeps -> {args.out}")
    return [args.bigrams, args.unigrams], {
        "diagnostics": dataclasses.asdict(diag),
        "weight_normalizer": normalizer,
        "counts_sha256": digests,
        "vec_sha256": written,
    }, summary


def _core_manifest(core_vec: str) -> tuple[PmiConfig, float, dict[str, str], str]:
    """The weighting, the weight normalizer, the count-file digests and the
    ``.vec`` digest that the manifest beside ``core_vec`` records: growth
    extends that solve."""
    path = Path(core_vec + ".manifest.json")
    if not path.is_file():
        raise ValueError(f"no {path}: growth extends a pmivec solve and must read its manifest")
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
        recorded = manifest["arguments"]
        cfg = PmiConfig(**{f.name: recorded[f.name] for f in dataclasses.fields(PmiConfig)})
        normalizer = check_setting("weight_normalizer", manifest["weight_normalizer"],
                                   0.0, 1.0, above=True)
        digests, vec_digest = manifest["counts_sha256"], manifest["vec_sha256"]
        if not (isinstance(digests, dict) and sorted(digests) == ["bigrams", "unigrams"]
                and all(isinstance(d, str) and len(d) == 64 and set(d) <= set("0123456789abcdef")
                        for d in [*digests.values(), vec_digest])):
            raise ValueError(f"counts_sha256 {digests!r} and vec_sha256 {vec_digest!r} are not "
                             f"SHA-256 hex digests of the bigrams, the unigrams and the vectors")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"{path} is no usable core manifest ({type(exc).__name__}: {exc})"
        ) from None
    return cfg, normalizer, digests, vec_digest


def cmd_factorize_noncore(args) -> tuple[list[str], dict, str]:
    from .embeddings import extend_vec, load_vec
    from .incremental import solve_words
    from .statistics import PmiRows
    cfg, normalizer, recorded, vec_digest = _core_manifest(args.core_vec)
    if file_sha256(args.core_vec) != vec_digest:
        raise ValueError(f"{args.core_vec} is not the .vec its manifest describes: its SHA-256 "
                         f"is not the recorded {vec_digest}")
    vars(args).update(dataclasses.asdict(cfg))  # recorded in this stage's manifest
    vocab, table, digests = _load_counts(args)
    if digests != recorded:
        raise ValueError(
            f"{args.bigrams} and {args.unigrams} have SHA-256 {digests['bigrams']} and "
            f"{digests['unigrams']}, but {args.core_vec}.manifest.json records "
            f"{recorded['bigrams']} and {recorded['unigrams']}: these are not the counts "
            f"the core vectors were solved on"
        )
    base = load_vec(args.core_vec)  # pmivec wrote it over these counts: their leading words
    stored, dim = len(base), base.dim
    core_size = args.core_size if args.core_size is not None else stored
    if core_size > stored:
        raise ValueError(f"--core-size {core_size} exceeds the {stored} stored vectors")
    core_vectors = base.vectors[:core_size].copy()  # the stored records are copied as bytes
    del base

    rows_of = PmiRows(range(core_size), table, cfg, normalizer)  # the core solve's weight scale
    del table  # the rows hold what they are built from
    new = range(stored, min(stored + args.count, len(vocab)))
    if len(new) < args.count:
        print(
            f"warning: only {len(new)} vocabulary words are left to solve "
            f"(requested {args.count})",
            file=sys.stderr,
        )
    solve_start = time.perf_counter()
    degeneracies = 0

    def solved():  # each new word and its vector, written as soon as its group is solved
        nonlocal degeneracies
        for i, vector, degenerate in solve_words(core_vectors, rows_of, new, args.mu):
            degeneracies += degenerate
            yield vocab.words[i], vector

    written = extend_vec(args.out, args.core_vec, vec_digest, new.stop, dim, solved())
    seconds = time.perf_counter() - solve_start
    summary = (f"solved {len(new)} words (mu={args.mu:g}, "
               f"{degeneracies} degenerate, {seconds:.2f}s); "
               f"{new.stop} total -> {args.out}")
    report = {"words": len(new), "mu": args.mu, "degeneracies": degeneracies,
              "seconds": round(seconds, 6)}
    return [args.bigrams, args.unigrams, args.core_vec], {
        "report": report, "weight_normalizer": normalizer, "counts_sha256": digests,
        "vec_sha256": written}, summary


def cmd_evaluate(args) -> tuple[list[str], dict, str]:
    from . import evaluation as ev
    from .embeddings import load_vec
    testset_dir = Path(args.testset_dir)
    if not testset_dir.is_dir():
        raise FileNotFoundError(f"testset directory not found: {testset_dir}")
    emb = load_vec(args.vec)
    reports, seen = [], {}
    kinds = (("*.sim.tsv", ev.load_similarity, ev.eval_similarity),
             ("*.ana.txt", ev.load_analogy, ev.eval_analogy_3cosmul),
             ("*.mc.txt", ev.load_choice, ev.eval_choice))
    for pattern, loader, scorer in kinds:
        for path in sorted(testset_dir.glob(pattern)):
            name = path.name.split(".")[0]
            if name in seen:
                raise ValueError(f"testsets {seen[name]} and {path} share the name {name!r}")
            seen[name] = path
            reports.append(scorer(emb, loader(path), name=name))
    if not reports:
        raise ValueError(f"no testsets found in {testset_dir}")
    text = ev.format_report_table(reports) + "\n\n" + ev.format_report_keyvalues(reports)
    with atomic_write(args.out) as fh:
        fh.write(text + "\n")
    return [args.vec, args.testset_dir], {}, text


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
    p.add_argument("--window", type=_setting(int, 1, MAX_WINDOW), default=3,
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
                        "fixes the weighting, its scale and the count files")
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
    started = time.perf_counter()
    try:
        inputs, extra, summary = args.func(args)
        _write_manifest(args, started, inputs, extra)
        print(summary)  # only once the output and its manifest are both written
    except (OSError, ValueError) as exc:
        linalg = sys.modules.get("numpy.linalg")  # loaded by any stage that can raise its error
        if linalg is not None and isinstance(exc, linalg.LinAlgError):
            print(f"pmivec: numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERIC
        print(f"pmivec: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
