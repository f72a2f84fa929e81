import argparse
import errno
import json
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pmivec
from pmivec.cli import build_parser, main
from pmivec.corpus import (_load_companion, companion_path, count_unigrams, load_bigrams,
                           load_unigrams, tokenize)
from pmivec.embeddings import EmbeddingSet, load_vec, save_vec
from pmivec.evaluation import load_analogy, load_choice, load_similarity
from pmivec.incremental import solve_words
from pmivec.ioutil import ParseError, atomic_write, file_sha256, open_utf8
from pmivec.settings import MAX_WINDOW
from pmivec.statistics import PmiConfig, PmiRows, pmi_block

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def read_manifest(out_path):
    return json.loads(Path(str(out_path) + ".manifest.json").read_text())


def direct_growth(small_pipeline, core, cfg, groups, out):
    """Write to ``out`` the vectors of ``core``, then those of one direct
    ``solve_words`` per (words, mu) group against them, on the weight scale
    that the manifest of ``core`` records."""
    vocab = load_unigrams(small_pipeline["unigrams"])
    table = load_bigrams(small_pipeline["bigrams"], vocab)
    base = load_vec(core)
    assert base.words == vocab.words[:len(base)]
    normalizer = read_manifest(core)["weight_normalizer"]
    rows_of = PmiRows(np.arange(len(base)), table, cfg, normalizer)
    chunks = [base.vectors]
    for group, mu in groups:
        stream = solve_words(base.vectors, rows_of, group, mu)
        chunks.append(np.array([vec for _, vec, _ in stream]))
    save_vec(EmbeddingSet(vocab.words[:groups[-1][0].stop], np.vstack(chunks)), out)


class TestAtomicWrites:
    def test_failure_leaves_no_partial_output(self, tmp_path):
        target = tmp_path / "out.txt"
        with pytest.raises(RuntimeError):
            with atomic_write(target) as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_success_replaces_previous_content(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with atomic_write(target) as fh:
            fh.write("new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]

    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask022", "umask077"])
    def test_mode_follows_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            for name, binary in (("out.txt", False), ("out.bin", True)):
                with atomic_write(tmp_path / name, binary=binary) as fh:
                    fh.write(b"x" if binary else "x")
                assert (tmp_path / name).stat().st_mode & 0o777 == mode
        finally:
            os.umask(previous)

    def test_never_sets_the_umask(self, tmp_path, monkeypatch):
        # the umask is shared by every thread: setting it, even back, races their creates
        def refuse(mask):
            raise AssertionError(f"os.umask({mask:#o}) called")

        monkeypatch.setattr(os, "umask", refuse)
        for name, binary in (("out.txt", False), ("out.bin", True)):
            with atomic_write(tmp_path / name, binary=binary) as fh:
                fh.write(b"x" if binary else "x")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.txt"]

    def test_failed_cleanup_keeps_the_original_error(self, tmp_path, monkeypatch):
        def refuse(path):
            raise PermissionError(errno.EACCES, "refused", path)

        monkeypatch.setattr(os, "unlink", refuse)
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_write(tmp_path / "out.txt") as fh:
                fh.write("partial")
                raise RuntimeError("boom")
        assert [p.suffix for p in tmp_path.iterdir()] == [".tmp"]

    def test_failed_create_leaves_an_existing_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        taken = tmp_path / f"out.txt.{bytes(6).hex()}.tmp"  # the temp name the zero bytes give
        taken.write_text("someone else's")
        monkeypatch.setattr(os, "urandom", bytes)
        with pytest.raises(FileExistsError):
            with atomic_write(target) as fh:
                fh.write("new")
        assert taken.read_text() == "someone else's" and not target.exists()


class TestCountUnigrams:
    def test_golden_output(self, tmp_path):
        out = tmp_path / "uni.txt"
        code = main([
            "count-unigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
            "--min-count", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "tiny-unigrams.txt").read_bytes()
        manifest = read_manifest(out)
        assert manifest["subcommand"] == "count-unigrams"
        assert manifest["arguments"]["min_count"] == 1

    def test_golden_matches_brute_force(self):
        # independent tally of the same fixture
        tokens = list(tokenize((GOLDEN / "tiny-corpus.txt").read_text()))
        expected = Counter(t for t in tokens if t is not None)
        vocab = load_unigrams(GOLDEN / "tiny-unigrams.txt")
        assert dict(zip(vocab.words, vocab.counts)) == dict(expected)
        assert vocab.total_tokens == len([t for t in tokens if t is not None])

    def test_huge_min_count_writes_valid_empty_file(self, tmp_path):
        out = tmp_path / "uni.txt"
        code = main([
            "count-unigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
            "--min-count", "1000000000", "--out", str(out),
        ])
        assert code == 0
        vocab = load_unigrams(out)
        assert len(vocab) == 0 and vocab.total_tokens == 6

    def test_missing_input_names_path(self, tmp_path, capsys):
        out = tmp_path / "uni.txt"
        code = main(["count-unigrams", "--input", "no-such-corpus.txt", "--out", str(out)])
        assert code == 2
        assert "no-such-corpus.txt" in capsys.readouterr().err
        assert not out.exists()


class TestCountBigrams:
    def test_golden_output(self, tmp_path):
        out = tmp_path / "bi.txt"
        code = main([
            "count-bigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
            "--unigrams", str(GOLDEN / "tiny-unigrams.txt"),
            "--window", "2", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / "tiny-bigrams-w2.txt").read_bytes()

    def test_golden_matches_brute_force(self):
        tokens = [t for t in tokenize((GOLDEN / "tiny-corpus.txt").read_text()) if t]
        vocab = load_unigrams(GOLDEN / "tiny-unigrams.txt")
        expected = Counter()
        for t in range(len(tokens)):
            for k in (1, 2):
                if t + k < len(tokens):
                    a, b = tokens[t], tokens[t + k]
                    if a in vocab and b in vocab:
                        expected[(vocab.index[a], vocab.index[b])] += 1
        table = load_bigrams(GOLDEN / "tiny-bigrams-w2.txt", vocab)
        got = Counter({(i, j): c for i, j, c in table.pairs()})
        assert got == expected

    def test_window_one_adjacency(self, tmp_path):
        out = tmp_path / "bi.txt"
        main([
            "count-bigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
            "--unigrams", str(GOLDEN / "tiny-unigrams.txt"),
            "--window", "1", "--out", str(out),
        ])
        vocab = load_unigrams(GOLDEN / "tiny-unigrams.txt")
        table = load_bigrams(out, vocab)
        words = vocab.words
        seen = {(words[i], words[j]): c for i, j, c in table.pairs()}
        # tokens: the cat sat the dog sat
        assert seen == {
            ("the", "cat"): 1, ("cat", "sat"): 1, ("sat", "the"): 1,
            ("the", "dog"): 1, ("dog", "sat"): 1,
        }

    def test_window_beyond_the_companion_is_usage_error(self, tmp_path, capsys):
        # the companion stores the window as a uint64: one more is refused
        # as a flag, before anything is counted or written
        args = ["count-bigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
                "--unigrams", str(GOLDEN / "tiny-unigrams.txt")]
        out = tmp_path / "bi.txt"
        with pytest.raises(SystemExit) as exc:
            main([*args, "--window", str(MAX_WINDOW + 1), "--out", str(out)])
        assert exc.value.code == 1
        assert f"argument --window: the value must be a finite number in [1, {MAX_WINDOW}]" \
            in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # the largest window is counted, stored and read back from the companion
        assert main([*args, "--window", str(MAX_WINDOW), "--out", str(out)]) == 0
        vocab = load_unigrams(GOLDEN / "tiny-unigrams.txt")
        stored = _load_companion(out, vocab, bytes.fromhex(file_sha256(out)))
        assert stored is not None and stored.window == MAX_WINDOW
        os.unlink(companion_path(out))
        assert load_bigrams(out, vocab) == stored

    def test_bad_unigram_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#total 5\na\t-3\n")
        code = main([
            "count-bigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
            "--unigrams", str(bad), "--out", str(tmp_path / "bi.txt"),
        ])
        assert code == 2
        assert "bad.txt:2" in capsys.readouterr().err


class TestNonUtf8Input:
    """Every text reader names the file and the line of its first byte that
    is not UTF-8, however far past the decoder's first buffer it lies."""

    CORPUS = b"alpha beta gamma\n" * 6000 + b"caf\xe9\n"  # the bad byte at offset 102,003

    @pytest.mark.parametrize("stage", ["count-unigrams", "count-bigrams"])
    def test_corpus(self, tmp_path, capsys, stage):
        corpus, out = tmp_path / "corpus.txt", tmp_path / "out.txt"
        corpus.write_bytes(self.CORPUS)
        extra = ["--unigrams", str(GOLDEN / "tiny-unigrams.txt")] if stage == "count-bigrams" else []
        assert main([stage, "--input", str(corpus), *extra, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{corpus}:6001: not UTF-8 text: byte 0xe9" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("loader,text,line", [
        (load_unigrams, b"#total 9\n" + b"".join(b"w%d\t1\n" % k for k in range(9000))
         + b"b\xff\t1\n", 9002),
        (lambda path: load_bigrams(path, count_unigrams(iter(["a", "b"]))),
         b"#window 2\na\t2\n\tb:1\n\ta:1\r\n\tb\xc3:1\n", 5),
        (load_vec, b"2 2\nw 0 0\nv\xe9 0 0\n", 3),
        (load_similarity, b"a\tb\t1.0\rc\td\t2\xe2\x82\n", 2),
        (load_analogy, b"a b c d\n\n\xe9 b c d\n", 3),
        (load_choice, b"a | b c d e | 0\nb | \xff c d e | 1\n", 2),
    ], ids=["unigrams", "bigrams", "vec", "similarity", "analogy", "choice"])
    def test_readers(self, tmp_path, loader, text, line):
        path = tmp_path / "input.txt"
        path.write_bytes(text)
        with pytest.raises(ParseError, match=rf"input.txt:{line}: not UTF-8 text: byte 0x"):
            loader(path)

    def test_error_the_bytes_do_not_hold_is_placed_at_the_end(self, tmp_path):
        # the file was rewritten after the failed read, say
        path = tmp_path / "input.txt"
        path.write_bytes(b"a\nb\n")
        with pytest.raises(ParseError, match=r"input.txt:3: not UTF-8 text: byte 0xe9"):
            with open_utf8(path):
                b"\xe9".decode("utf-8")


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """Counted statistics for a synthetic 4000-token corpus."""
    root = tmp_path_factory.mktemp("smallpipe")
    rng = np.random.default_rng(42)
    words = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(30)]
    weights = 1.0 / (np.arange(30) + 2.0)
    weights /= weights.sum()
    corpus = root / "corpus.txt"
    with open(corpus, "w") as fh:
        for _ in range(200):
            picks = rng.choice(30, size=20, p=weights)
            fh.write(" ".join(words[int(k)] for k in picks) + "\n")
    uni = root / "unigrams.txt"
    bi = root / "bigrams.txt"
    assert main(["count-unigrams", "--input", str(corpus), "--min-count", "1",
                 "--out", str(uni)]) == 0
    assert main(["count-bigrams", "--input", str(corpus), "--unigrams", str(uni),
                 "--window", "2", "--out", str(bi)]) == 0
    return {"root": root, "corpus": corpus, "unigrams": uni, "bigrams": bi}


@pytest.mark.parametrize("stage", ["count-bigrams", "factorize-core", "factorize-noncore"])
def test_unigram_total_below_the_counts_is_data_error(small_pipeline, tmp_path, capsys, stage):
    data = ["--bigrams", str(small_pipeline["bigrams"]), "--unigrams", str(small_pipeline["unigrams"])]
    core = tmp_path / "core.vec"
    assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4", "--out", str(core)]) == 0
    uni = tmp_path / "uni.txt"
    uni.write_text("#total 2\n" + small_pipeline["unigrams"].read_text().split("\n", 1)[1])
    argv = {
        "count-bigrams": ["--input", str(small_pipeline["corpus"]), "--unigrams", str(uni)],
        "factorize-core": ["--bigrams", str(small_pipeline["bigrams"]), "--unigrams", str(uni),
                           "--core-size", "10", "--dim", "4"],
        "factorize-noncore": ["--bigrams", str(small_pipeline["bigrams"]), "--unigrams", str(uni),
                              "--core-vec", str(core), "--count", "4", "--mu", "1.0"],
    }[stage]
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([stage, *argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "uni.txt:1: total token count 2 is below " in captured.err
    assert captured.out == "" and not out.exists()
    assert not Path(str(out) + ".manifest.json").exists()


MANIFEST_KEYS = ["subcommand", "version", "arguments", "inputs", "outputs", "wall_time_s"]


def test_every_stage_manifest_layout(small_pipeline, tmp_path):
    """Key order, inputs in flag order and outputs of all five stages; a stage
    that fails writes no manifest."""
    corpus, uni, bi = (str(small_pipeline[k]) for k in ("corpus", "unigrams", "bigrams"))
    out = {name: str(tmp_path / name) for name in
           ("uni.txt", "bi.txt", "core.vec", "grown.vec", "report.txt", "bad.vec")}
    tdir = tmp_path / "testsets"
    tdir.mkdir()
    (tdir / "pairs.sim.tsv").write_text("aa\tab\t9.0\naa\tac\t7.0\nab\tad\t3.0\n")
    grown = ["--core-vec", out["core.vec"], "--count", "5", "--mu", "1.0"]
    stages = [
        (["count-unigrams", "--input", corpus, "--min-count", "1"], "uni.txt", [corpus], []),
        (["count-bigrams", "--input", corpus, "--unigrams", uni], "bi.txt", [corpus, uni], []),
        (["factorize-core", "--bigrams", bi, "--unigrams", uni, "--core-size", "10",
          "--dim", "4"], "core.vec", [bi, uni],
         ["diagnostics", "weight_normalizer", "counts_sha256", "vec_sha256"]),
        (["factorize-noncore", "--bigrams", bi, "--unigrams", uni, *grown], "grown.vec",
         [bi, uni, out["core.vec"]],
         ["report", "weight_normalizer", "counts_sha256", "vec_sha256"]),
        (["evaluate", "--vec", out["grown.vec"], "--testset-dir", str(tdir)], "report.txt",
         [out["grown.vec"], str(tdir)], []),
    ]
    for argv, name, inputs, extras in stages:
        assert main([*argv, "--out", out[name]]) == 0, argv[0]
        manifest = read_manifest(out[name])
        assert list(manifest) == MANIFEST_KEYS + extras, argv[0]
        assert manifest["subcommand"] == argv[0]
        assert manifest["inputs"] == inputs
        assert manifest["outputs"] == [out[name]]
    core = read_manifest(out["core.vec"])
    assert list(core["diagnostics"]) == ["residuals", "iterations", "converged", "omegas",
                                         "rejected"]
    assert list(read_manifest(out["grown.vec"])["report"]) == ["words", "mu", "degeneracies",
                                                               "seconds"]
    size = len(load_unigrams(uni)) + 1
    assert main(["factorize-core", "--bigrams", bi, "--unigrams", uni, "--core-size", str(size),
                 "--dim", "4", "--out", out["bad.vec"]]) == 2
    assert not Path(out["bad.vec"]).exists()
    assert not Path(out["bad.vec"] + ".manifest.json").exists()


class TestFactorizeCore:
    def test_run_and_diagnostics(self, small_pipeline, tmp_path):
        out = tmp_path / "core.vec"
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "12", "--dim", "5", "--out", str(out),
        ])
        assert code == 0
        emb = load_vec(out)
        assert len(emb) == 12 and emb.dim == 5
        diagnostics = read_manifest(out)["diagnostics"]
        assert set(diagnostics) == {"residuals", "iterations", "converged", "omegas", "rejected"}
        residuals = diagnostics["residuals"]
        assert len(residuals) == diagnostics["iterations"] + 1
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    def test_manifest_records_relaxation(self, small_pipeline, tmp_path):
        out = tmp_path / "core.vec"
        assert main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "20", "--dim", "5", "--out", str(out),
        ]) == 0
        diagnostics = read_manifest(out)["diagnostics"]
        omegas, rejected, residuals = diagnostics["omegas"], diagnostics["rejected"], diagnostics["residuals"]
        assert len(omegas) == diagnostics["iterations"] and omegas[:3] == [1.0, 1.0, 1.5]
        assert rejected and all(omegas[s - 1] > 1.0 and residuals[s] == residuals[s - 1] for s in rejected)
        assert all(b <= a for a, b in zip(residuals, residuals[1:]))
        # the last value is the residual of the written vectors (6 significant digits)
        table = load_bigrams(small_pipeline["bigrams"], load_unigrams(small_pipeline["unigrams"]))
        pmi, weights, _ = pmi_block(range(20), range(20), table, PmiConfig())
        v = load_vec(out).vectors
        assert np.sum(weights * (pmi - v @ v.T) ** 2) == pytest.approx(residuals[-1], rel=1e-4)

    def test_rerun_is_byte_identical(self, small_pipeline, tmp_path):
        outs = []
        for name in ("one.vec", "two.vec"):
            out = tmp_path / name
            main([
                "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"]),
                "--core-size", "12", "--dim", "5", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_core_size_below_dim_rejected(self, small_pipeline, tmp_path, capsys):
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "3", "--dim", "5", "--out", str(tmp_path / "x.vec"),
        ])
        assert code == 2
        assert "--core-size" in capsys.readouterr().err

    def test_core_size_above_vocabulary_rejected(self, small_pipeline, tmp_path, capsys):
        size = len(load_unigrams(small_pipeline["unigrams"])) + 1
        out = tmp_path / "x.vec"
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", str(size), "--dim", "5", "--out", str(out),
        ])
        assert code == 2
        assert "--core-size" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("word", ["foo bar", "", "foo\x0c"], ids=["space", "empty", "formfeed"])
    def test_unigram_word_with_whitespace_is_data_error(self, small_pipeline, tmp_path, capsys,
                                                        word):
        uni = tmp_path / "uni.txt"
        text = small_pipeline["unigrams"].read_text() + f"{word}\t1\n"
        uni.write_text(text)
        bad_line = text.count("\n")
        out = tmp_path / "core.vec"
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]), "--unigrams", str(uni),
            "--core-size", "10", "--dim", "4", "--out", str(out),
        ])
        assert code == 2
        assert f"uni.txt:{bad_line}:" in capsys.readouterr().err
        assert not out.exists()

    def test_solver_failure_is_numerical_error(self, small_pipeline, tmp_path, monkeypatch,
                                               capsys):
        def diverge(target, weights, cfg):
            raise np.linalg.LinAlgError("eigendecomposition did not converge")

        monkeypatch.setattr("pmivec.core_solver.em_factorize", diverge)
        out = tmp_path / "core.vec"
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "10", "--dim", "4", "--out", str(out),
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    def test_write_failure_is_data_error(self, small_pipeline, tmp_path, monkeypatch, capsys):
        def full_disk(emb, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr("pmivec.embeddings.save_vec", full_disk)
        out = tmp_path / "core.vec"
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "10", "--dim", "4", "--out", str(out),
        ])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_summary_follows_the_manifest(self, small_pipeline, tmp_path, monkeypatch, capsys):
        argv = ["factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"]),
                "--core-size", "10", "--dim", "4", "--out", str(tmp_path / "core.vec")]
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("core 10 x 4: residual ")

        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr("pmivec.cli._write_manifest", full_disk)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no success line for a stage whose manifest is stale
        assert "No space left on device" in captured.err


class TestFactorizeNoncore:
    def test_staged_growth(self, small_pipeline, tmp_path):
        core = tmp_path / "core.vec"
        main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "10", "--dim", "4", "--out", str(core),
        ])
        stage1 = tmp_path / "s1.vec"
        code = main([
            "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-vec", str(core), "--count", "8", "--mu", "2.0",
            "--out", str(stage1),
        ])
        assert code == 0
        stage2 = tmp_path / "s2.vec"
        code = main([
            "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-vec", str(stage1), "--core-size", "10",
            "--count", "8", "--mu", "4.0", "--out", str(stage2),
        ])
        assert code == 0
        vocab = load_unigrams(small_pipeline["unigrams"])
        emb1, emb2 = load_vec(stage1), load_vec(stage2)
        assert len(emb1) == 18 and len(emb2) == 26
        # new words follow vocabulary frequency order
        assert emb1.words == vocab.words[:18]
        assert emb2.words == vocab.words[:26]
        assert emb2.words[:18] == emb1.words
        np.testing.assert_array_equal(emb2.vectors[:18], emb1.vectors)
        assert read_manifest(stage2)["report"]["words"] == 8

    def test_staged_growth_equals_direct_solve(self, small_pipeline, tmp_path):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, stage1, stage2 = (tmp_path / name for name in ("core.vec", "s1.vec", "s2.vec"))
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "8",
                     "--mu", "1.0", "--out", str(stage1)]) == 0
        assert main(["factorize-noncore", *data, "--core-vec", str(stage1), "--core-size", "10",
                     "--count", "8", "--mu", "4.0", "--out", str(stage2)]) == 0
        # one direct solve per group against the stored core vectors
        direct = tmp_path / "direct.vec"
        groups = [(range(10, 18), 1.0), (range(18, 26), 4.0)]
        direct_growth(small_pipeline, core, PmiConfig(), groups, direct)
        assert stage2.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("core_size", [6, None], ids=["below-stored", "default"])
    def test_growth_writes_the_bytes_of_the_merged_set(self, small_pipeline, tmp_path, core_size):
        # each call copies the stored records and appends the new ones: the
        # bytes of save_vec over the stored set and the new vectors
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        vocab = load_unigrams(small_pipeline["unigrams"])
        table = load_bigrams(small_pipeline["bigrams"], vocab)
        previous = tmp_path / "core.vec"
        assert main(["factorize-core", *data, "--core-size", "8", "--dim", "4",
                     "--out", str(previous)]) == 0
        normalizer = read_manifest(previous)["weight_normalizer"]
        sizes = [] if core_size is None else ["--core-size", str(core_size)]
        for k, (count, mu) in enumerate([(5, 1.0), (10, 2.0), (30, 0.5)]):
            out = tmp_path / f"grow{k}.vec"
            assert main(["factorize-noncore", *data, "--core-vec", str(previous), *sizes,
                         "--count", str(count), "--mu", str(mu), "--out", str(out)]) == 0
            base = load_vec(previous)
            core = len(base) if core_size is None else core_size
            rows_of = PmiRows(range(core), table, PmiConfig(), normalizer)
            new = range(len(base), min(len(base) + count, len(vocab)))
            solved = [vec for _, vec, _ in solve_words(base.vectors[:core], rows_of, new, mu)]
            oracle = tmp_path / f"oracle{k}.vec"
            save_vec(EmbeddingSet(vocab.words[:new.stop], np.vstack([base.vectors, *solved])), oracle)
            assert out.read_bytes() == oracle.read_bytes()
            assert read_manifest(out)["vec_sha256"] == file_sha256(out)
            previous = out
        assert len(load_vec(previous)) == len(vocab)  # the last call took the rest of the words

    def test_core_vec_swapped_after_its_check_is_refused(self, small_pipeline, tmp_path, capsys,
                                                         monkeypatch):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        real = pmivec.embeddings.load_vec

        def load_then_swap(path):
            loaded = real(path)  # the digest was checked before this read
            save_vec(EmbeddingSet(loaded.words, loaded.vectors * 2.0), path)
            return loaded

        monkeypatch.setattr(pmivec.embeddings, "load_vec", load_then_swap)
        capsys.readouterr()
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                     "--mu", "1.0", "--out", str(out)]) == 2
        assert "core.vec changed while growth ran" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["core.vec", "core.vec.manifest.json"]

    def test_non_finite_solved_group_is_refused(self, small_pipeline, tmp_path, capsys,
                                                monkeypatch):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        real = pmivec.incremental.solve_words

        def one_nan(*args):
            for i, vector, degenerate in real(*args):
                yield i, np.full_like(vector, np.nan) if i == 12 else vector, degenerate

        monkeypatch.setattr(pmivec.incremental, "solve_words", one_nan)
        capsys.readouterr()
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                     "--mu", "1.0", "--out", str(out)]) == 2
        assert "vectors contain non-finite entries" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["core.vec", "core.vec.manifest.json"]

    def test_growth_holds_no_row_per_new_word(self, tmp_path):
        # 20,000 words beyond a 60-word core, each seen once beside core
        # words: a float row per new word alone would take 8 d bytes each
        rng = np.random.default_rng(43)
        names = ["".join(chr(ord("a") + (k // 26**p) % 26) for p in range(4)) for k in range(20_060)]
        lines = [" ".join(rng.choice(names[:60], 12).tolist()) for _ in range(1_500)]
        lines += [f"{name} {names[k % 60]}" for k, name in enumerate(names[60:])]
        corpus, uni, bi, core, out = (str(tmp_path / name) for name in
                                      ("corpus.txt", "uni.txt", "bi.txt", "core.vec", "grown.vec"))
        Path(corpus).write_text("\n".join(lines) + "\n")
        assert main(["count-unigrams", "--input", corpus, "--min-count", "1", "--out", uni]) == 0
        assert main(["count-bigrams", "--input", corpus, "--unigrams", uni, "--window", "2",
                     "--out", bi]) == 0
        assert main(["factorize-core", "--bigrams", bi, "--unigrams", uni, "--core-size", "60",
                     "--dim", "50", "--iters", "2", "--out", core]) == 0
        dim, words = 50, len(load_unigrams(uni)) - 60
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["factorize-noncore", "--bigrams", bi, "--unigrams", uni, "--core-vec", core,
                         "--count", str(words), "--mu", "1.0", "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert words >= 20_000 and len(load_vec(out)) == 60 + words
        assert peak < 8 * dim * words

    def test_threads_flag_is_usage_error(self, small_pipeline, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"]),
                "--core-vec", "x.vec", "--count", "5", "--mu", "1",
                "--threads", "2", "--out", str(tmp_path / "x.vec"),
            ])
        assert exc.value.code == 1

    def test_negative_mu_is_usage_error(self, small_pipeline, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"]),
                "--core-vec", "x.vec", "--count", "5", "--mu", "-1",
                "--out", str(tmp_path / "x.vec"),
            ])
        assert exc.value.code == 1

    def test_vec_words_other_than_the_leading_words_are_data_error(
        self, small_pipeline, tmp_path, capsys
    ):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        solved = load_vec(core)
        # a word the corpus never saw, and the two leading words swapped
        for words in (solved.words[:9] + ["zzzz"], solved.words[1::-1] + solved.words[2:]):
            save_vec(EmbeddingSet(words, solved.vectors), core)  # the manifest stays
            capsys.readouterr()
            code = main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                         "--mu", "1.0", "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert "core.vec is not the .vec its manifest describes" in err
            assert not out.exists()

    def test_vec_rewritten_without_its_manifest_is_data_error(self, small_pipeline, tmp_path,
                                                               capsys, monkeypatch):
        # a rerun whose manifest write fails leaves the old manifest beside the new .vec
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        solve = ["factorize-core", *data, "--core-size", "10", "--dim", "4", "--out", str(core)]
        assert main([*solve, "--lambda", "0.1"]) == 0

        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        with monkeypatch.context() as patch:
            patch.setattr("pmivec.cli._write_manifest", full_disk)
            assert main([*solve, "--lambda", "0.5"]) == 2
        assert read_manifest(core)["arguments"]["lam"] == 0.1
        capsys.readouterr()
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                     "--mu", "1.0", "--out", str(out)]) == 2
        assert "core.vec is not the .vec its manifest describes" in capsys.readouterr().err
        assert not out.exists()

    def test_core_size_above_the_stored_vectors_is_data_error(self, small_pipeline, tmp_path,
                                                              capsys):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        capsys.readouterr()
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--core-size", "11",
                     "--count", "4", "--mu", "1.0", "--out", str(out)]) == 2
        assert "--core-size 11 exceeds the 10 stored vectors" in capsys.readouterr().err
        assert not out.exists() and not Path(str(out) + ".manifest.json").exists()

    def test_count_past_the_vocabulary_solves_the_words_left(self, small_pipeline, tmp_path,
                                                             capsys):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        vocab = load_unigrams(small_pipeline["unigrams"])
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        capsys.readouterr()
        assert main(["factorize-noncore", *data, "--core-vec", str(core),
                     "--count", str(len(vocab)), "--mu", "1.0", "--out", str(out)]) == 0
        left = len(vocab) - 10
        assert capsys.readouterr().err == (f"warning: only {left} vocabulary words are left "
                                           f"to solve (requested {len(vocab)})\n")
        assert load_vec(out).words == vocab.words
        assert read_manifest(out)["report"]["words"] == left

    @pytest.mark.parametrize("flag", ["--lambda", "--alpha", "--cap"])
    def test_weighting_flag_is_usage_error(self, small_pipeline, tmp_path, flag):
        # growth takes its weighting from the core's manifest
        with pytest.raises(SystemExit) as exc:
            main([
                "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"]),
                "--core-vec", "x.vec", "--count", "5", "--mu", "1",
                flag, "1.0", "--out", str(tmp_path / "x.vec"),
            ])
        assert exc.value.code == 1

    @pytest.mark.parametrize("key,value,extra", [
        ("arguments.alpha", "x", []), ("arguments.lam", 2, []), ("arguments.lam", None, []),
        ("arguments.lam", True, []),
        # with fewer regression words than the core solve had, nothing else would stop it
        ("arguments.cap", True, ["--core-size", "8"]), ("arguments.alpha", math.nan, []),
        ("weight_normalizer", ..., []), ("weight_normalizer", "0.5", []),
        ("weight_normalizer", True, []), ("weight_normalizer", 0, []),
        ("weight_normalizer", 1.5, []), ("weight_normalizer", math.nan, []),
        # integers too large for a float are refused by range, not by a traceback
        ("weight_normalizer", 10 ** 400, []), ("arguments.lam", 10 ** 400, []),
        ("vec_sha256", ..., []), ("vec_sha256", "0" * 63, []),
    ], ids=["alpha-text", "lam-range", "lam-null", "lam-bool", "cap-bool", "alpha-nan",
            "normalizer-missing", "normalizer-text", "normalizer-bool", "normalizer-zero",
            "normalizer-above-one", "normalizer-nan", "normalizer-huge-int", "lam-huge-int",
            "vec-digest-missing", "vec-digest-short"])
    def test_unusable_recorded_weighting_is_data_error(self, small_pipeline, tmp_path, capsys,
                                                       key, value, extra):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        manifest = read_manifest(core)
        *section, name = key.split(".")  # a key under "arguments", or a top-level one
        recorded = manifest[section[0]] if section else manifest
        if value is ...:
            del recorded[name]
        else:
            recorded[name] = value
        Path(str(core) + ".manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                     "--mu", "1.0", *extra, "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "core.vec.manifest.json is no usable core manifest" in err and name in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [
        None, "0" * 64, {"bigrams": "0" * 64}, {"bigrams": "0" * 64, "unigrams": "z" * 64}, True,
    ], ids=["missing", "string", "missing-key", "non-hex", "bool"])
    def test_malformed_counts_sha256_is_data_error(self, small_pipeline, tmp_path, capsys, value):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        manifest = read_manifest(core)
        if value is None:
            del manifest["counts_sha256"]
        else:
            manifest["counts_sha256"] = value
        Path(str(core) + ".manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                     "--mu", "1.0", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "core.vec.manifest.json is no usable core manifest" in err
        assert "counts_sha256" in err
        assert not out.exists()

    def test_vec_without_manifest_is_data_error(self, small_pipeline, tmp_path, capsys):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, bare = tmp_path / "core.vec", tmp_path / "bare" / "core.vec"
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        bare.parent.mkdir()
        bare.write_bytes(core.read_bytes())
        capsys.readouterr()
        out = bare.parent / "grown.vec"
        assert main(["factorize-noncore", *data, "--core-vec", str(bare), "--count", "6",
                     "--mu", "1.0", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"no {bare}.manifest.json: growth extends a pmivec solve" in err
        assert "Errno" not in err
        assert not out.exists()

    def test_counts_other_than_the_core_solve_are_data_error(self, small_pipeline, tmp_path, capsys):
        bigrams, unigrams = small_pipeline["bigrams"], small_pipeline["unigrams"]
        # same corpus and vocabulary, window 5 instead of the core's window 2
        bi5 = tmp_path / "bigrams5.txt"
        assert main(["count-bigrams", "--input", str(small_pipeline["corpus"]),
                     "--unigrams", str(unigrams), "--window", "5", "--out", str(bi5)]) == 0
        # the same words and counts under another token total
        header, rest = unigrams.read_text().split("\n", 1)
        uni2 = tmp_path / "unigrams2.txt"
        uni2.write_text(f"#total {int(header.split()[1]) + 1}\n{rest}")
        core, out = tmp_path / "core.vec", tmp_path / "grown.vec"
        assert main(["factorize-core", "--bigrams", str(bigrams), "--unigrams", str(unigrams),
                     "--core-size", "10", "--dim", "4", "--out", str(core)]) == 0
        recorded = read_manifest(core)["counts_sha256"]
        assert recorded == {"bigrams": file_sha256(bigrams), "unigrams": file_sha256(unigrams)}
        # fewer regression words than the core solve had change nothing: the
        # digests are checked whatever the number of regression columns
        for bi, uni, extra in [(bi5, unigrams, []), (bi5, unigrams, ["--core-size", "8"]),
                               (bigrams, uni2, [])]:
            capsys.readouterr()
            code = main(["factorize-noncore", "--bigrams", str(bi), "--unigrams", str(uni),
                         "--core-vec", str(core), *extra, "--count", "4", "--mu", "1.0",
                         "--out", str(out)])
            assert code == 2
            err = capsys.readouterr().err
            assert str(bi) in err and str(uni) in err and "core.vec.manifest.json" in err
            for digest in (file_sha256(bi), file_sha256(uni), *recorded.values()):
                assert digest in err
            assert not out.exists()

    def test_growth_chain_takes_weighting_from_manifest(self, small_pipeline, tmp_path):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, stage1, stage2 = (tmp_path / name for name in ("core.vec", "s1.vec", "s2.vec"))
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4", "--lambda", "0.2",
                     "--alpha", "0.75", "--cap", "0.01", "--out", str(core)]) == 0
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "5",
                     "--mu", "1.0", "--out", str(stage1)]) == 0
        assert main(["factorize-noncore", *data, "--core-vec", str(stage1), "--core-size", "10",
                     "--count", "5", "--mu", "2.0", "--out", str(stage2)]) == 0
        direct = tmp_path / "direct.vec"
        direct_growth(small_pipeline, core, PmiConfig(0.2, 0.75, 0.01),
                      [(range(10, 15), 1.0), (range(15, 20), 2.0)], direct)
        assert stage2.read_bytes() == direct.read_bytes()
        # each stage records the weighting, the core block's weight normalizer
        # and the digests of the count files; the chain carries them
        recorded = {(m["arguments"]["lam"], m["arguments"]["alpha"], m["arguments"]["cap"],
                     m["weight_normalizer"], tuple(sorted(m["counts_sha256"].items())))
                    for m in map(read_manifest, (core, stage1, stage2))}
        assert len(recorded) == 1 and next(iter(recorded))[:3] == (0.2, 0.75, 0.01)
        assert dict(next(iter(recorded))[4]) == {
            "bigrams": file_sha256(small_pipeline["bigrams"]),
            "unigrams": file_sha256(small_pipeline["unigrams"])}

    def test_growth_takes_the_weight_scale_from_manifest(self, small_pipeline, tmp_path):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, grown, halved = (tmp_path / name for name in ("core.vec", "grown.vec", "half.vec"))
        grow = ["factorize-noncore", *data, "--core-vec", str(core), "--count", "8", "--mu", "1.0"]
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     "--out", str(core)]) == 0
        assert main([*grow, "--out", str(grown)]) == 0
        manifest = read_manifest(core)
        half = manifest["weight_normalizer"] / 2.0
        manifest["weight_normalizer"] = half
        Path(str(core) + ".manifest.json").write_text(json.dumps(manifest))
        assert main([*grow, "--out", str(halved)]) == 0
        assert read_manifest(halved)["weight_normalizer"] == half
        # the counts are the same, so only the recorded scale tells the runs apart
        assert halved.read_bytes() != grown.read_bytes()
        direct = tmp_path / "direct.vec"  # PmiRows(..., normalizer=half), read from the manifest
        direct_growth(small_pipeline, core, PmiConfig(), [(range(10, 18), 1.0)], direct)
        assert halved.read_bytes() == direct.read_bytes()

    @pytest.mark.parametrize("companion", [True, False], ids=["companion", "text"])
    def test_each_stage_hashes_the_bigram_text_once(self, small_pipeline, tmp_path, monkeypatch,
                                                    companion):
        bigrams = tmp_path / "bigrams.txt"
        bigrams.write_bytes(small_pipeline["bigrams"].read_bytes())
        if companion:
            Path(companion_path(bigrams)).write_bytes(
                Path(companion_path(small_pipeline["bigrams"])).read_bytes())
        hashed = []  # the bytes fed to each SHA-256 computation
        real = pmivec.ioutil.sha256

        class CountingSha256:
            def __init__(self, data=b""):
                self.inner, self.fed = real(data), bytearray(data)
                hashed.append(self.fed)

            def update(self, data):
                self.inner.update(data)
                self.fed += data

            def digest(self):
                return self.inner.digest()

            def hexdigest(self):
                return self.inner.hexdigest()

        for module in (pmivec.ioutil, pmivec.corpus):
            monkeypatch.setattr(module, "sha256", CountingSha256)
        data = ["--bigrams", str(bigrams), "--unigrams", str(small_pipeline["unigrams"])]
        core = tmp_path / "core.vec"
        text = bigrams.read_bytes()
        for argv in (["factorize-core", *data, "--core-size", "10", "--dim", "4"],
                     ["factorize-noncore", *data, "--core-vec", str(core), "--count", "4",
                      "--mu", "1.0"]):
            hashed.clear()
            out = core if argv[0] == "factorize-core" else tmp_path / "grown.vec"
            assert main([*argv, "--out", str(out)]) == 0
            assert sum(fed == text for fed in hashed) == 1, argv[0]


class TestEvaluate:
    @pytest.fixture
    def eval_setup(self, tmp_path):
        rng = np.random.default_rng(5)
        words = [f"w{chr(ord('a') + k)}" for k in range(10)]
        emb = EmbeddingSet(words, rng.normal(size=(10, 4)))
        vec = tmp_path / "emb.vec"
        save_vec(emb, vec)
        tdir = tmp_path / "testsets"
        tdir.mkdir()
        (tdir / "pairs.sim.tsv").write_text(
            "wa\twb\t9.0\nwa\twc\t7.0\nwb\twd\t3.0\nwa\tzzz\t5.0\n"
        )
        (tdir / "quads.ana.txt").write_text("wa wb wc wd\nwe wf wg wh\n")
        (tdir / "choice.mc.txt").write_text("wa | wb wc wd we | 0\nwf | wg wh wi wj | 3\n")
        return vec, tdir

    def test_report_written_with_coverage(self, eval_setup, tmp_path, capsys):
        vec, tdir = eval_setup
        out = tmp_path / "report.txt"
        code = main(["evaluate", "--vec", str(vec), "--testset-dir", str(tdir),
                     "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "pairs" in text and "quads" in text and "choice" in text
        assert "pairs.spearman=" in text
        assert "pairs.coverage=0.750000" in text  # the zzz pair is skipped
        stdout = capsys.readouterr().out
        assert "testset" in stdout

    def test_missing_testset_dir_is_data_error(self, eval_setup, tmp_path, capsys):
        vec, _ = eval_setup
        out = tmp_path / "report.txt"
        code = main(["evaluate", "--vec", str(vec), "--testset-dir", str(tmp_path / "none"),
                     "--out", str(out)])
        assert code == 2
        assert f"testset directory not found: {tmp_path / 'none'}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_testset_dir_reported_before_the_vec_is_read(self, tmp_path, capsys):
        vec = tmp_path / "bad.vec"
        vec.write_text("2 3\nfoo 1 2\n")
        code = main(["evaluate", "--vec", str(vec), "--testset-dir", str(tmp_path / "none"),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert f"testset directory not found: {tmp_path / 'none'}" in capsys.readouterr().err

    def test_empty_dir_is_data_error(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        vec = tmp_path / "emb.vec"
        save_vec(EmbeddingSet(["aa"], rng.normal(size=(1, 2))), vec)
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(["evaluate", "--vec", str(vec), "--testset-dir", str(empty),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2
        assert "no testsets" in capsys.readouterr().err

    def test_duplicate_testset_names_are_data_error(self, eval_setup, tmp_path, capsys):
        # one report key per testset name: pairs.sim.tsv and pairs.ana.txt would share "pairs."
        vec, tdir = eval_setup
        (tdir / "pairs.ana.txt").write_text("wa wb wc wd\n")
        out = tmp_path / "report.txt"
        code = main(["evaluate", "--vec", str(vec), "--testset-dir", str(tdir),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "pairs.sim.tsv" in err and "pairs.ana.txt" in err
        assert not out.exists()

    def test_oversized_header_is_data_error(self, eval_setup, tmp_path, capsys):
        _, tdir = eval_setup
        vec = tmp_path / "huge.vec"
        vec.write_text("100000000000 100\nfoo 1\n")
        code = main(["evaluate", "--vec", str(vec), "--testset-dir", str(tdir),
                     "--out", str(tmp_path / "r.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "huge.vec" in err


class TestUsageErrors:
    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["count-unigrams", "--out", "x.txt"])
        assert exc.value.code == 1

    def test_core_help_shows_weighting_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factorize-core", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default 0.1)" in text and "(default 0.5)" in text

    @pytest.mark.parametrize("flag,value", [("--mu", "nan"), ("--alpha", "inf"),
                                            ("--dim", "-1" + "0" * 400)],
                             ids=["mu-nan", "alpha-inf", "dim-huge-negative"])
    def test_non_finite_setting_is_usage_error(self, tmp_path, capsys, flag, value):
        # refused before any file is read: none of the inputs exists
        stage = (["factorize-noncore", "--core-vec", "x.vec", "--count", "4", "--mu", "1"]
                 if flag == "--mu" else ["factorize-core", "--core-size", "10", "--dim", "4"])
        out = tmp_path / "out.vec"
        with pytest.raises(SystemExit) as exc:
            main([*stage, "--bigrams", "x.txt", "--unigrams", "x.txt", flag, value,
                  "--out", str(out)])
        assert exc.value.code == 1
        assert f"argument {flag}: the value must be a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_every_numeric_flag_takes_the_shared_check(self, capsys):
        # a flag with a type of its own could bring back a hand-written range check
        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        checked = 0
        for name, sub in subparsers.items():
            required = [arg for a in sub._actions if a.required
                        for arg in (a.option_strings[0], "1" if a.type else "x")]
            for action in sub._actions:
                if action.type is None:
                    continue
                assert action.type.__qualname__ == "_setting.<locals>.parse", action.dest
                flag = action.option_strings[0]
                for value in ("nan", "inf", "-inf", "-1" + "0" * 400):
                    with pytest.raises(SystemExit) as exc:
                        parser.parse_args([name, *required, f"{flag}={value}"])
                    assert exc.value.code == 1
                    assert f"argument {flag}: " in capsys.readouterr().err
                checked += 1
        assert checked == 12


class TestBigramCompanion:
    def grow(self, small_pipeline, out_dir):
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        out_dir.mkdir()
        codes = [
            main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                  "--out", str(out_dir / "core.vec")]),
            main(["factorize-noncore", *data, "--core-vec", str(out_dir / "core.vec"),
                  "--count", "12", "--mu", "1.0", "--out", str(out_dir / "grown.vec")]),
        ]
        return codes, [(out_dir / name).read_bytes() for name in ("core.vec", "grown.vec")]

    def test_companion_bytes_identical_across_runs(self, small_pipeline, tmp_path):
        blobs = []
        for name in ("one.txt", "two.txt"):
            out = tmp_path / name
            assert main(["count-bigrams", "--input", str(small_pipeline["corpus"]),
                         "--unigrams", str(small_pipeline["unigrams"]),
                         "--window", "2", "--out", str(out)]) == 0
            assert out.read_bytes() == small_pipeline["bigrams"].read_bytes()
            blobs.append(Path(companion_path(out)).read_bytes())
        assert blobs[0] == blobs[1]

    def test_missing_or_stale_companion_changes_no_output(self, small_pipeline, tmp_path):
        cache = Path(companion_path(small_pipeline["bigrams"]))
        pristine = cache.read_bytes()
        try:
            expected = self.grow(small_pipeline, tmp_path / "with")
            assert expected[0] == [0, 0]
            cache.unlink()
            assert self.grow(small_pipeline, tmp_path / "without") == expected
            # a companion written for other counts (window 1) is stale here
            other = tmp_path / "w1.txt"
            assert main(["count-bigrams", "--input", str(small_pipeline["corpus"]),
                         "--unigrams", str(small_pipeline["unigrams"]),
                         "--window", "1", "--out", str(other)]) == 0
            cache.write_bytes(Path(companion_path(other)).read_bytes())
            assert self.grow(small_pipeline, tmp_path / "stale") == expected
        finally:
            cache.write_bytes(pristine)

    def test_edited_text_with_companion_is_data_error(self, small_pipeline, tmp_path, capsys):
        bigrams = tmp_path / "bi.txt"
        bigrams.write_bytes(small_pipeline["bigrams"].read_bytes())
        Path(companion_path(bigrams)).write_bytes(
            Path(companion_path(small_pipeline["bigrams"])).read_bytes())
        text = bigrams.read_text()
        bigrams.write_text(text.replace(":", ":x", 1))
        code = main(["factorize-core", "--bigrams", str(bigrams),
                     "--unigrams", str(small_pipeline["unigrams"]),
                     "--core-size", "10", "--dim", "4", "--out", str(tmp_path / "c.vec")])
        assert code == 2
        assert "is not an integer" in capsys.readouterr().err


class TestModuleEntryPoints:
    @pytest.mark.parametrize("module", ["pmivec", "pmivec.cli"])
    def test_module_form_runs_the_stage(self, module, tmp_path):
        src = str(Path(pmivec.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = tmp_path / "uni.txt"
        done = subprocess.run(
            [sys.executable, "-m", module, "count-unigrams", "--input",
             str(GOLDEN / "tiny-corpus.txt"), "--min-count", "1", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert out.read_bytes() == (GOLDEN / "tiny-unigrams.txt").read_bytes()
        done = subprocess.run(
            [sys.executable, "-m", module, "count-unigrams", "--input",
             str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x.txt")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2
        assert "missing.txt" in done.stderr
