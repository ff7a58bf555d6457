"""topickit: batch topic-model comparison for document/company corpora.

Fits LDA (variational), NMF (NNDSVD + multiplicative updates) and a
nonnegative CP tensor decomposition on TF / TF-IDF / document x company
x term representations of a corpus, then compares them with silhouette
analysis, top-keyword matching and decisiveness statistics.

``topickit.lda`` and its names load on first use, since LDA alone needs
``scipy.special``: a run without LDA never imports it.
"""

from importlib import import_module

from . import corpus, evaluate, nmf, ntf, vectorize
from .corpus import *
from .evaluate import *
from .nmf import *
from .ntf import *
from .vectorize import *

__version__ = "0.1.0"

_LDA_NAMES = ("LdaConfig", "LdaModel", "fit_lda", "lda_elbo")  # lda.__all__

__all__ = [*corpus.__all__, *vectorize.__all__, *_LDA_NAMES, *nmf.__all__, *ntf.__all__,
           *evaluate.__all__]


def __getattr__(name: str):
    if name == "lda" or name in _LDA_NAMES:
        lda = import_module(".lda", __name__)
        return lda if name == "lda" else getattr(lda, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
