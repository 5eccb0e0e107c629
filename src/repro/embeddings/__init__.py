"""Embedding substrate.

The paper's default representation learner is Word2Vec over random-walk
sentences (Algorithm 4).  Because the execution environment has no gensim,
the models are implemented here directly on numpy:

* :class:`~repro.embeddings.word2vec.Word2Vec` — Skip-gram and CBOW with
  negative sampling;
* :class:`~repro.embeddings.doc2vec.Doc2Vec` — the DBOW variant used by the
  D2VEC baseline;
* :class:`~repro.embeddings.pretrained.PretrainedEmbeddings` — a synthetic
  stand-in for Wikipedia2Vec / GloVe used for node merging and for the
  SentenceBERT-like baseline;
* sentence-level pooling helpers and cosine similarity (top-k retrieval
  lives in :mod:`repro.retrieval`).
"""

from repro.embeddings.vocab import Vocabulary
from repro.embeddings.sampling import AliasSampler
from repro.embeddings.word2vec import TrainingStats, Word2Vec, Word2VecConfig
from repro.embeddings.doc2vec import Doc2Vec, Doc2VecConfig
from repro.embeddings.pretrained import PretrainedEmbeddings, build_synthetic_pretrained
from repro.embeddings.sentence import SentenceEncoder, mean_pool
from repro.embeddings.similarity import cosine_similarity, cosine_matrix

__all__ = [
    "Vocabulary",
    "AliasSampler",
    "Word2Vec",
    "Word2VecConfig",
    "TrainingStats",
    "Doc2Vec",
    "Doc2VecConfig",
    "PretrainedEmbeddings",
    "build_synthetic_pretrained",
    "SentenceEncoder",
    "mean_pool",
    "cosine_similarity",
    "cosine_matrix",
]
