import numpy as np

from topickit.export import write_csv, write_factor_csv


def test_write_csv_formats_each_cell(tmp_path):
    path = tmp_path / "out" / "table.csv"
    write_csv(path, ("name", "k", "value", "missing"), [
        ("a b", 3, 0.1234567890123456, None),
        ("x", np.int64(12), np.float64(2.0) / 3, 1e-20),
    ])
    assert path.read_bytes() == (
        b"name,k,value,missing\n"
        b"a b,3,0.123456789012,\n"
        b"x,12,0.666666666667,1e-20\n"
    )


def test_write_csv_header_only(tmp_path):
    write_csv(tmp_path / "empty.csv", ("topic", "rank", "term"), [])
    assert (tmp_path / "empty.csv").read_text() == "topic,rank,term\n"


def test_write_factor_csv(tmp_path):
    matrix = np.array([[1.0, 0.5], [0.25, 1 / 3]])
    write_factor_csv(tmp_path / "f.csv", "doc_id", ["d1", "d2"], matrix)
    assert (tmp_path / "f.csv").read_text() == (
        "doc_id,topic_0,topic_1\nd1,1,0.5\nd2,0.25,0.333333333333\n"
    )
    write_factor_csv(tmp_path / "g.csv", "topic", range(1), np.array([[2.0, 0.0]]),
                     column_names=["coal", "gold"])
    assert (tmp_path / "g.csv").read_text() == "topic,coal,gold\n0,2,0\n"

