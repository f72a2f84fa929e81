"""Golden digests of the counting stages' outputs.

Every core manifest records the SHA-256 of its bigram text, and growth
refuses count files with any other digest, so a counting byte that changes
orphans every core solved before it.  These tests pin the bytes of
``unigrams.txt``, ``bigrams.txt`` and its ``.csr`` companion for one fixed
corpus, and for one built table with row totals above 2**31 over a
non-ASCII word read from a unigram file.
"""

import numpy as np

from pmivec import cli, corpus
from pmivec.corpus import MAX_COUNT, CooccurrenceTable, load_unigrams, save_bigrams
from pmivec.ioutil import file_sha256
from smokedata import write_corpus

UNIGRAMS_SHA256 = "e9d43d695e20ac05b77ba1d9fc1fefa7dad1295a81d26edec78324af966b01f6"
BIGRAMS_SHA256 = "833ece2e434eea6c8fc2686656ceb5c93e3ff2e593ba320871b3d59610983605"
COMPANION_SHA256 = "25751fa5e9f409e9b5648786049bce2b633437b5fd610bfabb93f2e6a41b2f57"
LARGE_BIGRAMS_SHA256 = "5426a789ddbe3c4edd9e43bd9b3360893f43688fa4db7faae0ebd753c696b2dd"
LARGE_COMPANION_SHA256 = "90d8eb248f9df7d354a97f7be2123829c80c839f76435e7f7427a411cbfa423c"


def golden_corpus(path):
    """The smoke corpus at 3,000 sentences, with a blank line (a document
    break) every 50 lines and text the fast tokenizer path refuses
    (capitals, punctuation, digits, an accent, the Kelvin sign, an ASCII
    separator) every 37."""
    write_corpus(path, n_sentences=3_000, seed=25)
    lines = path.read_text(encoding="utf-8").splitlines()
    for k in range(0, len(lines), 37):
        lines[k] += " The CAT, x-ray caf\u00e9 \u212aelvin 2nd\x1cend."
    for k in range(49, len(lines), 50):
        lines[k] = ""
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def test_counting_stages_keep_their_bytes(tmp_path):
    text, unigrams, bigrams = (tmp_path / name for name in
                               ("corpus.txt", "unigrams.txt", "bigrams.txt"))
    golden_corpus(text)
    assert cli.main(["count-unigrams", "--input", str(text), "--min-count", "1",
                     "--out", str(unigrams)]) == 0
    assert cli.main(["count-bigrams", "--input", str(text), "--unigrams", str(unigrams),
                     "--window", "5", "--out", str(bigrams)]) == 0
    # several tokenizer chunks and several writer chunks
    assert text.read_bytes().count(b"\n") == 3_000
    assert load_unigrams(unigrams).total_tokens > 55_000
    assert bigrams.read_text().count("\n\t") > 4 * corpus._WRITE_PAIRS
    assert file_sha256(unigrams) == UNIGRAMS_SHA256
    assert file_sha256(bigrams) == BIGRAMS_SHA256
    assert file_sha256(str(bigrams) + ".csr") == COMPANION_SHA256


def test_large_counts_and_non_ascii_words_keep_their_bytes(tmp_path):
    unigrams, bigrams = tmp_path / "unigrams.txt", tmp_path / "bigrams.txt"
    unigrams.write_text("#total 40\ncafé\t20\nzebra\t10\nabc\t6\nmid\t3\nzz\t1\n",
                        encoding="utf-8")
    vocab = load_unigrams(unigrams)
    # rows: café (three counts at the limit), zebra, abc empty, mid, zz
    indptr = np.array([0, 3, 5, 5, 8, 9])
    indices = np.array([0, 1, 4, 0, 3, 0, 2, 4, 1])
    counts = np.array([MAX_COUNT, MAX_COUNT, MAX_COUNT, 7, 12, 1, 1000, 1000, 2**31 - 2])
    table = CooccurrenceTable(3, vocab, indptr, indices, counts)
    save_bigrams(table, bigrams)
    text = bigrams.read_text(encoding="utf-8")
    assert f"café\t{3 * MAX_COUNT}\n" in text and 3 * MAX_COUNT > 2**31
    assert file_sha256(bigrams) == LARGE_BIGRAMS_SHA256
    assert file_sha256(str(bigrams) + ".csr") == LARGE_COMPANION_SHA256
