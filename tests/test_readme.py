"""The README's "Library use" example runs as written."""

import json
import re
from pathlib import Path

from planted import write_planted_corpus

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text("utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_runs_on_a_corpus_with_dropped_documents(tmp_path, capsys, caplog):
    """Only the corpus path is changed; one document is empty after preprocessing and
    one holds only words that no other document has, so ``min_df=2`` leaves it no term.
    The library logs nothing: it reports both in the notices it returns."""
    corpus = tmp_path / "planted.jsonl"
    write_planted_corpus(corpus)
    with open(corpus, "a", encoding="utf-8") as fh:
        for doc_id, text in (("stops", "the of and 2024"), ("rare", "zircon xenotime")):
            fh.write(json.dumps({"doc_id": doc_id, "company_id": "company0", "text": text})
                     + "\n")
    code = library_use_block()
    assert code.count('"reports.jsonl"') == 1
    namespace = {}
    exec(compile(code.replace('"reports.jsonl"', repr(str(corpus))), str(README), "exec"),
         namespace)
    prepared = namespace["corpus"]
    assert prepared.digest["documents_loaded"] == 62
    assert prepared.digest["documents_in_matrices"] == prepared.tf.shape[0] == 60
    assert caplog.records == []
    assert capsys.readouterr().out == (
        "1 document(s) empty after preprocessing: stops\n"
        "1 document(s) have no in-vocabulary token: rare\n")
    assert namespace["lda"].doc_topic.shape == namespace["nmf"].doc_topic.shape == (60, 4)
