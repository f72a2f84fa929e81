"""Word embeddings from weighted low-rank positive semidefinite fits of
smoothed PMI statistics, with a closed-form per-word solver for growing the
vocabulary without retraining."""

__version__ = "0.1.0"

from .core_solver import CoreSolveConfig, em_factorize, weighted_frobenius
from .corpus import CooccurrenceTable, Vocabulary, count_bigrams, count_unigrams, tokenize
from .embeddings import EmbeddingSet, load_vec, save_vec
from .evaluation import cosine, eval_analogy_3cosmul, eval_choice, eval_similarity, spearman
from .incremental import DegeneracyWarning, solve_noncore_word, solve_words
from .statistics import PmiConfig, PmiRows, pmi_block, unigram_probs
