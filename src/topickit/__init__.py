"""topickit: batch topic-model comparison for document/company corpora.

Fits LDA (variational), NMF (NNDSVD + multiplicative updates) and a
nonnegative CP tensor decomposition on TF / TF-IDF / document x company
x term representations of a corpus, then compares them with silhouette
analysis, top-keyword matching and decisiveness statistics.
"""

from .corpus import (
    CorpusError,
    RawDocument,
    StopwordList,
    TokenizedDocument,
    load_corpus,
    preprocess,
    preprocess_corpus,
    remove_stopwords,
    stem,
    tokenize,
)
from .evaluate import (
    Assignment,
    EvaluationReport,
    SilhouetteResult,
    argmax_assign,
    build_report,
    decisiveness,
    group_frequent_terms,
    keyword_match_ratio,
    silhouette,
    top_keywords,
)
from .lda import LdaConfig, LdaModel, fit_lda, lda_elbo
from .nmf import NmfModel, fit_nmf, nmf_objective, nndsvd_init
from .ntf import NtfModel, cp_reconstruction_error, fit_ntf
from .vectorize import (
    DocCompanyTermTensor,
    DocTermMatrix,
    Vocabulary,
    build_tensor,
    build_vocabulary,
    tf_matrix,
    tfidf_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusError",
    "RawDocument",
    "TokenizedDocument",
    "StopwordList",
    "load_corpus",
    "tokenize",
    "remove_stopwords",
    "stem",
    "preprocess",
    "preprocess_corpus",
    "Vocabulary",
    "DocTermMatrix",
    "DocCompanyTermTensor",
    "build_vocabulary",
    "tf_matrix",
    "tfidf_matrix",
    "build_tensor",
    "LdaConfig",
    "LdaModel",
    "fit_lda",
    "lda_elbo",
    "NmfModel",
    "nndsvd_init",
    "nmf_objective",
    "fit_nmf",
    "NtfModel",
    "fit_ntf",
    "cp_reconstruction_error",
    "Assignment",
    "SilhouetteResult",
    "EvaluationReport",
    "argmax_assign",
    "silhouette",
    "top_keywords",
    "group_frequent_terms",
    "keyword_match_ratio",
    "decisiveness",
    "build_report",
]
