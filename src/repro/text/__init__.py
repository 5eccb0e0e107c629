"""Text-processing substrate: tokenization, stop words, stemming, n-grams.

These are the pre-processing steps of Section II of the paper: every cell
value and every text sentence is tokenised, lower-cased, stripped of stop
words, and stemmed before it becomes a *term* (data node) of the graph.
"""

from repro.text.tokenizer import tokenize
from repro.text.stopwords import STOP_WORDS
from repro.text.stemmer import PorterStemmer, stem
from repro.text.ngrams import generate_ngrams, ngram_terms
from repro.text.preprocess import Preprocessor, PreprocessConfig, TermInterner

__all__ = [
    "tokenize",
    "STOP_WORDS",
    "PorterStemmer",
    "stem",
    "generate_ngrams",
    "ngram_terms",
    "Preprocessor",
    "PreprocessConfig",
    "TermInterner",
]
