import os
import stat

import numpy as np
import pytest

from topickit import export
from topickit.export import atomic_write_text, sig12, write_csv, write_factor_csv, write_json


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


@pytest.mark.parametrize("row_ids, names, counts", [
    (["d1", "d2"], None, "2 row_ids, 3 column_names for 3 x 3"),  # zip would drop a row
    (["d1", "d2", "d3"], ["a", "b"], "3 row_ids, 2 column_names for 3 x 3"),  # short header
    (["d1", "d2", "d3", "d4"], ["a", "b", "c", "d"], "4 row_ids, 4 column_names for 3 x 3"),
])
def test_write_factor_csv_rejects_mismatched_labels(tmp_path, row_ids, names, counts):
    with pytest.raises(ValueError, match=f"^{counts}$"):
        write_factor_csv(tmp_path / "f.csv", "id", row_ids, np.ones((3, 3)), column_names=names)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_files_get_the_mode_open_would_give(tmp_path, umask):
    old = os.umask(umask)
    try:
        write_csv(tmp_path / "t.csv", ("a",), [(1,)])
        write_factor_csv(tmp_path / "f.csv", "id", ["d"], np.ones((1, 1)))
        write_json(tmp_path / "m.json", {"a": 1})
        open(tmp_path / "plain.txt", "w").close()
        assert os.umask(umask) == umask  # writing left the umask as it was
    finally:
        os.umask(old)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == dict.fromkeys(("t.csv", "f.csv", "m.json", "plain.txt"), 0o666 & ~umask)


def test_writing_leaves_the_process_umask_alone(tmp_path, monkeypatch):
    old = os.umask(0o027)
    try:  # another thread may be creating files: the umask is never set, even for a moment
        monkeypatch.setattr(export.os, "umask", lambda mask: pytest.fail("os.umask called"))
        atomic_write_text(tmp_path / "a.txt", "x")
    finally:
        monkeypatch.undo()
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "a.txt").stat().st_mode) == 0o640


def test_failed_replace_leaves_no_temp_file(tmp_path):
    (tmp_path / "out.csv").mkdir()  # os.replace cannot put a file over a directory
    with pytest.raises(OSError):
        atomic_write_text(tmp_path / "out.csv", "a\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert (tmp_path / "out.csv").is_dir()
