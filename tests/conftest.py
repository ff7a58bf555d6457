import numpy as np
import pytest
import scipy.sparse as sp

from topickit.corpus import TokenizedDocument


def toks(doc_id, tokens):
    return TokenizedDocument(doc_id=doc_id, tokens=tuple(tokens))


def random_tokenized(rng, n_docs=8, vocab_size=12, max_len=30, prefix="w"):
    """Random already-tokenized documents over a small synthetic vocabulary."""
    letters = "abcdefghijklmnopqrstuvwxyz"
    terms = [f"{prefix}{letters[i // 26]}{letters[i % 26]}" for i in range(vocab_size)]
    docs = []
    for d in range(n_docs):
        n = int(rng.integers(1, max_len))
        tokens = rng.choice(terms, size=n).tolist()
        docs.append(toks(f"d{d:03d}", tokens))
    return docs


def company_sum(tensor):
    """The tensor's company axis summed out: the (D, V) counts of each document's pairs."""
    n_pairs = len(tensor.pair_doc)
    by_doc = sp.csr_matrix((np.ones(n_pairs), (tensor.pair_doc, np.arange(n_pairs))),
                           shape=(tensor.shape[0], n_pairs))
    return by_doc @ tensor.pairs


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
