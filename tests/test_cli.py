import errno
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import pmivec
from pmivec.cli import main
from pmivec.corpus import companion_path, count_unigrams, load_bigrams, load_unigrams, tokenize
from pmivec.embeddings import EmbeddingSet, load_vec, save_vec
from pmivec.incremental import solve_words
from pmivec.ioutil import atomic_write
from pmivec.statistics import PmiConfig, PmiRows

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


def read_manifest(out_path):
    return json.loads(Path(str(out_path) + ".manifest.json").read_text())


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

    def test_bad_unigram_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("#total 5\na\t-3\n")
        code = main([
            "count-bigrams", "--input", str(GOLDEN / "tiny-corpus.txt"),
            "--unigrams", str(bad), "--out", str(tmp_path / "bi.txt"),
        ])
        assert code == 2
        assert "bad.txt:2" in capsys.readouterr().err


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
        residuals = read_manifest(out)["diagnostics"]["residuals"]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))

    @pytest.mark.parametrize("core,method", [(12, "eigh"), (68, "eigh"), (69, "block-krylov")])
    def test_manifest_names_solver_method(self, tmp_path, core, method):
        # with --dim 1 a core above 4 * (1 + 16) = 68 words is solved by block Krylov
        rng = np.random.default_rng(3)
        words = [chr(ord("a") + k // 26) + chr(ord("a") + k % 26) for k in range(80)]
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(" ".join(rng.choice(words, size=20)) + "\n" for _ in range(300)))
        uni, bi, out = tmp_path / "uni.txt", tmp_path / "bi.txt", tmp_path / "core.vec"
        assert main(["count-unigrams", "--input", str(corpus), "--min-count", "1",
                     "--out", str(uni)]) == 0
        assert main(["count-bigrams", "--input", str(corpus), "--unigrams", str(uni),
                     "--out", str(bi)]) == 0
        assert main(["factorize-core", "--bigrams", str(bi), "--unigrams", str(uni),
                     "--core-size", str(core), "--dim", "1", "--out", str(out)]) == 0
        diagnostics = read_manifest(out)["diagnostics"]
        assert diagnostics["method"] == method
        assert len(diagnostics["residuals"]) == diagnostics["iterations"] + 1

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

        monkeypatch.setattr("pmivec.cli.em_factorize", diverge)
        out = tmp_path / "core.vec"
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "10", "--dim", "4", "--out", str(out),
        ])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_write_failure_is_data_error(self, small_pipeline, tmp_path, monkeypatch, capsys):
        def full_disk(emb, path):
            raise OSError(errno.ENOSPC, "No space left on device", str(path))

        monkeypatch.setattr("pmivec.cli.save_vec", full_disk)
        code = main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "10", "--dim", "4", "--out", str(tmp_path / "core.vec"),
        ])
        assert code == 2
        assert "No space left on device" in capsys.readouterr().err


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
        vocab = load_unigrams(small_pipeline["unigrams"])
        table = load_bigrams(small_pipeline["bigrams"], vocab)
        rows_of = PmiRows(np.arange(10), table, PmiConfig(), normalizer=None)
        base = load_vec(core)
        assert base.words == vocab.words[:10]
        chunks = [base.vectors]
        for group, mu in ((range(10, 18), 1.0), (range(18, 26), 4.0)):
            stream = solve_words(base.vectors, rows_of, group, mu)
            chunks.append(np.array([vec for _, vec, _ in stream]))
        direct = tmp_path / "direct.vec"
        save_vec(EmbeddingSet(vocab.words[:26], np.vstack(chunks)), direct)
        assert stage2.read_bytes() == direct.read_bytes()

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

    def test_core_vocab_mismatch_warns_and_reports_coverage(
        self, small_pipeline, tmp_path, capsys
    ):
        vocab = load_unigrams(small_pipeline["unigrams"])
        rng = np.random.default_rng(0)
        words = vocab.words[:6] + ["zzzz"]  # one word the corpus never saw
        fake_core = EmbeddingSet(words, rng.normal(size=(7, 4)))
        core_path = tmp_path / "core.vec"
        save_vec(fake_core, core_path)
        out = tmp_path / "grown.vec"
        code = main([
            "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-vec", str(core_path), "--count", "4", "--mu", "1.0",
            "--out", str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "coverage" in err and "1/7" in err
        assert len(load_vec(out)) == 11

    def test_weighting_mismatch_with_core_manifest_is_data_error(
        self, small_pipeline, tmp_path, capsys
    ):
        core = tmp_path / "core.vec"
        assert main([
            "factorize-core", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-size", "10", "--dim", "4", "--out", str(core),
        ]) == 0
        out = tmp_path / "grown.vec"
        code = main([
            "factorize-noncore", "--bigrams", str(small_pipeline["bigrams"]),
            "--unigrams", str(small_pipeline["unigrams"]),
            "--core-vec", str(core), "--count", "4", "--mu", "1.0",
            "--alpha", "1.0", "--out", str(out),
        ])
        assert code == 2
        assert "alpha" in capsys.readouterr().err
        assert not out.exists()

    def test_growth_chain_with_matching_flags(self, small_pipeline, tmp_path, capsys):
        flags = ["--lambda", "0.2", "--alpha", "0.75", "--cap", "0.01"]
        data = ["--bigrams", str(small_pipeline["bigrams"]),
                "--unigrams", str(small_pipeline["unigrams"])]
        core, stage1, stage2 = (tmp_path / name for name in ("core.vec", "s1.vec", "s2.vec"))
        assert main(["factorize-core", *data, "--core-size", "10", "--dim", "4",
                     *flags, "--out", str(core)]) == 0
        assert main(["factorize-noncore", *data, "--core-vec", str(core), "--count", "5",
                     "--mu", "1.0", *flags, "--out", str(stage1)]) == 0
        assert main(["factorize-noncore", *data, "--core-vec", str(stage1), "--core-size", "10",
                     "--count", "5", "--mu", "2.0", *flags, "--out", str(stage2)]) == 0
        assert len(load_vec(stage2)) == 20
        # the chain's manifests carry the flags on: dropping --cap is refused
        code = main(["factorize-noncore", *data, "--core-vec", str(stage2), "--core-size", "10",
                     "--count", "5", "--mu", "2.0", *flags[:4], "--out", str(tmp_path / "s3.vec")])
        assert code == 2
        assert "cap" in capsys.readouterr().err


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

    def test_growth_help_shows_weighting_defaults(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["factorize-noncore", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "(default 0.1)" in text and "(default 0.5)" in text


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
