"""Word embeddings from weighted low-rank positive semidefinite fits of
smoothed PMI statistics, with a closed-form per-word solver for growing the
vocabulary without retraining.

Importing the package loads none of its layers: each name below is imported
from its module on first use (PEP 562), so a pipeline stage loads only the
layers it runs, and ``count-unigrams`` never loads numpy."""

import importlib

__version__ = "0.1.0"

_HOMES = {
    "core_solver": ("em_factorize", "weighted_frobenius"),
    "corpus": ("CooccurrenceTable", "Vocabulary", "count_bigrams", "count_unigrams", "tokenize"),
    "embeddings": ("EmbeddingSet", "load_vec", "save_vec"),
    "evaluation": ("cosine", "eval_analogy_3cosmul", "eval_choice", "eval_similarity", "spearman"),
    "incremental": ("DegeneracyWarning", "solve_noncore_word", "solve_words"),
    "settings": ("CoreSolveConfig", "PmiConfig"),
    "statistics": ("PmiRows", "pmi_block", "unigram_probs"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
