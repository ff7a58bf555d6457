"""topickit: batch topic-model comparison for document/company corpora.

Fits LDA (variational), NMF (NNDSVD + multiplicative updates) and a
nonnegative CP tensor decomposition on TF / TF-IDF / document x company
x term representations of a corpus, then compares them with silhouette
analysis, top-keyword matching and decisiveness statistics.
"""

from . import corpus, evaluate, lda, nmf, ntf, vectorize
from .corpus import *
from .evaluate import *
from .lda import *
from .nmf import *
from .ntf import *
from .vectorize import *

__version__ = "0.1.0"

__all__ = [*corpus.__all__, *vectorize.__all__, *lda.__all__, *nmf.__all__, *ntf.__all__,
           *evaluate.__all__]
