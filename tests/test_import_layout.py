"""A stage process imports only the layers its command runs, and importing
the package imports none of them."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pmivec

GOLDEN = Path(__file__).parent / "data" / "golden"
#: The public names, each imported from its layer on first use.
EXPORTS = [
    "CoreSolveConfig", "CooccurrenceTable", "DegeneracyWarning", "EmbeddingSet", "PmiConfig",
    "PmiRows", "Vocabulary", "cosine", "count_bigrams", "count_unigrams", "em_factorize",
    "eval_analogy_3cosmul", "eval_choice", "eval_similarity", "load_vec", "pmi_block",
    "save_vec", "solve_noncore_word", "solve_words", "spearman", "tokenize", "unigram_probs",
    "weighted_frobenius",
]


def fresh_python(code: str, *args) -> list[str]:
    """The stdout lines of ``code`` run by a new interpreter that imports
    pmivec from this tree."""
    src = str(Path(pmivec.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


LOADED = "print(sorted(m for m in sys.modules if m.startswith('pmivec')), 'numpy' in sys.modules)"


def test_importing_the_package_loads_no_layer():
    assert fresh_python(f"import sys, pmivec; {LOADED}") == ["['pmivec'] False"]


@pytest.mark.parametrize("stage,numpy", [("count-unigrams", False), ("count-bigrams", True)])
def test_counting_stages_load_only_the_corpus_layer(tmp_path, stage, numpy):
    out = tmp_path / "out.txt"
    extra = (["--unigrams", GOLDEN / "tiny-unigrams.txt"] if stage == "count-bigrams"
             else ["--min-count", 1])
    code = ("import sys; from pmivec.cli import main; "
            f"assert main(sys.argv[1:]) == 0; {LOADED}")
    lines = fresh_python(code, stage, "--input", GOLDEN / "tiny-corpus.txt", *extra,
                         "--out", out)
    modules = ["pmivec", "pmivec.cli", "pmivec.corpus", "pmivec.ioutil", "pmivec.settings"]
    assert lines[-1] == f"{modules} {numpy}"
    if stage == "count-unigrams":
        assert out.read_bytes() == (GOLDEN / "tiny-unigrams.txt").read_bytes()


def test_every_export_resolves():
    assert sorted(pmivec.__all__) == sorted(EXPORTS)
    namespace = {}
    exec("from pmivec import *", namespace)
    for name in EXPORTS:
        value = getattr(pmivec, name)
        assert namespace[name] is value
        assert value.__module__.startswith("pmivec.") and value.__name__ == name


@pytest.mark.parametrize("name", ["psd_truncate", "not_a_name"])
def test_other_names_raise_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(pmivec, name)
