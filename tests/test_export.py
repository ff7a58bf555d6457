import numpy as np
import pytest

from topickit.export import sig12, write_csv, write_factor_csv


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


FACTOR_VALUES = [0.0, -0.0, 1e-300, 5e-324, 1e16, 123456789012.345, np.inf]


@pytest.mark.parametrize("row_ids, matrix", [
    (["plain", "com,ma", 'quo"te', "line\nbreak", "cr\rid", "", " x"],
     np.array(FACTOR_VALUES * 2).reshape(2, 7).T),
    (range(7), np.array([FACTOR_VALUES, FACTOR_VALUES[::-1], [1 / 3] * 7]).T),
    (["one", "col,umn"], np.array([[5e-324], [123456789012.345]])),
    (["a", 'b"'], np.array([FACTOR_VALUES, FACTOR_VALUES[::-1]], dtype=np.float32)),
    (["a", "", "b"], np.zeros((3, 0))),
])
def test_write_factor_csv_matches_write_csv(tmp_path, row_ids, matrix):
    names = [f"c{j}" for j in range(matrix.shape[1])]
    write_factor_csv(tmp_path / "f.csv", "id,col", row_ids, matrix, column_names=names)
    rows = [[rid, *map(sig12, row)] for rid, row in zip(row_ids, matrix)]
    write_csv(tmp_path / "w.csv", ["id,col", *names], rows)
    assert (tmp_path / "f.csv").read_bytes() == (tmp_path / "w.csv").read_bytes()
    write_factor_csv(tmp_path / "d.csv", "id", row_ids, matrix)
    write_csv(tmp_path / "v.csv", ["id", *(f"topic_{j}" for j in range(len(names)))], rows)
    assert (tmp_path / "d.csv").read_bytes() == (tmp_path / "v.csv").read_bytes()
