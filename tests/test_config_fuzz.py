"""Seeded fuzz of the run configuration.

Every setting (each RunConfig field, and each solver key under "lda", "nmf"
and "ntf") is given bad values from a config file and, where it has one,
from its flag, and is written twice in a config file, over a seeded random
background of valid settings; the config file is also missing, or holds an
array.  Each case must exit 1 with one printed line, ``config error: ...``,
that names the setting or its flag (or the file's fault); none may raise, fit
a cell or make the output directory.

The output side has a seeded walk of its own: files and directories already at
the output, summary, manifest and cell paths, and the artifacts of an earlier
run.  Each case must exit 0 or 1 with no traceback, and fit nothing when it
exits 1; a manifest must list only cells whose files its own run wrote.
"""

import json
import logging
import math
import random
import re
import shutil
from dataclasses import fields

import pytest

from topickit import cli
from topickit.cli import SOLVER_KEYS, RunConfig, main

SURROGATE = "a\ud800"
HUGE = 10**400  # past a float, not past an int
COMMON = [True, None, math.nan, math.inf, SURROGATE]  # bad for every setting

# Bad config-file values by a field's annotation, then by its name.
FILE_VALUES = {
    "str": COMMON + [5, -1, HUGE, [], ["x", "x"], {"nmf": 2}],
    "tuple[str, ...]": COMMON + [5, -1, HUGE, {"nmf": 2}, [SURROGATE], [5]],
    "tuple[int, ...]": COMMON + [5, -1, HUGE, {"nmf": 2}, [], [2, 2], [2, -1], [2.5], ["2"],
                                 [True]],
    "int": COMMON + ["5", -1, 2.5, [], [5], {"a": 1}],
    "float": COMMON + ["5", -1, -math.inf, HUGE, [], {"a": 1}],
    "dict": COMMON + [5, -1, [], ["year"], {"jobs": 1}, {SURROGATE: 1}],
}
FILE_EXTRA = {
    "methods": [[], ["nmf", "nmf"], ["svd"], "nmf,,nmf"],
    "filters": [{"year": "x"}, {"year": [2009, 2000]}, {"year": []}, {"category": 5},
                {"report_type": [SURROGATE]}],
}
SOLVER_VALUES = {
    "cap": COMMON + ["5", -1, 0, 2.5, [], {"a": 1}],
    "tol": COMMON + ["5", -1, -math.inf, HUGE, [], {"a": 1}],
}
INT_FLAG = ["", "abc", "nan", "inf", "-1", "2.5", "1e3", "9" * 5000, SURROGATE]
FLAG_VALUES = {
    "str": [SURROGATE],
    "tuple[str, ...]": [SURROGATE],
    "tuple[int, ...]": [SURROGATE, "", "zero", "2:1", "1:", "0", "-1", "3,3", "2.5", "1e400"],
    "int": INT_FLAG,
    "float": ["", "abc", "nan", "inf", "-inf", "-1", "1e400", SURROGATE],
    "dict": ["x", "jobs=1", "year=abc", "year=2009:2000", "=coal", "category=" + SURROGATE],
}
FLAG_EXTRA = {"methods": ["", ",", "svd", "nmf,nmf", "nmf,5"]}
ALIASES = {"methods": ["method"], "k_values": ["k"], "filters": ["filter"]}

# Valid values for the background; corpus_path and out_dir are set per test.
VALID = {
    "methods": [["nmf"], "lda,nmf"], "k_values": [[2, 3], "2:4"], "seed": [0, 7, HUGE],
    "min_df": [1, 3], "filters": [{}, {"year": "2000:2009"}],
    "extra_stopwords": [["coal"], "coal,seam", []], "select_margin": [0, 0.05],
    "n_keywords": [10], "lda": [{"max_iter": 5}], "nmf": [{"tol": 0}], "ntf": [{}],
}
VALID_FLAG = {"methods": "nmf", "k_values": "2:3", "seed": "3", "min_df": "2",
              "filters": "category=coal", "extra_stopwords": "coal", "select_margin": "0.1",
              "n_keywords": "12"}

FIELDS = {f.name: f for f in fields(RunConfig)}


def flag_of(name):
    return FIELDS[name].metadata["flag"]


def cases(tmp_path):
    """(setting, names any of which the message must hold, route, bad value) for every case."""
    blocker = str(tmp_path / "file" / "x")
    for f in fields(RunConfig):
        names = [f.name, flag_of(f.name), *ALIASES.get(f.name, [])]
        extra = [blocker] if f.name == "out_dir" else []
        for value in FILE_VALUES[f.type] + FILE_EXTRA.get(f.name, []) + extra:
            yield f.name, names, "file", value
        if flag_of(f.name):
            for value in FLAG_VALUES[f.type] + FLAG_EXTRA.get(f.name, []) + extra:
                yield f.name, names, "flag", value
        yield f.name, [f.name], "repeat", None
    for method, keys in SOLVER_KEYS.items():
        for key in keys:
            for value in SOLVER_VALUES["tol" if key == "tol" else "cap"]:
                yield method, [f"{method}.{key}", method], "file", {key: value}
            yield method, [key], "repeat", key
    for key in ("jobs", "Seed", SURROGATE, "corpus_format"):
        yield key, [ascii(key)[1:-1]], "file", 1
    yield "jobs", ["--jobs"], "argv", ["--jobs", "2"]
    yield "config", ["config file not found"], "missing", None
    yield "config", ["config file must hold a JSON object"], "array", None


def argv_for(tmp_path, rng, setting, route, value):
    """The command line for one case: the bad value and a random valid background."""
    settings = {"corpus_path": str(tmp_path / "corpus.jsonl"), "out_dir": str(tmp_path / "out")}
    argv = ["--config", str(tmp_path / "run.json")]
    for name, choices in VALID.items():
        if name == setting or rng.random() < 0.4:
            continue
        if name in VALID_FLAG and rng.random() < 0.5:
            argv += [flag_of(name), VALID_FLAG[name]]
        else:
            settings[name] = rng.choice(choices)
    if route == "file":
        settings[setting] = value
    elif route == "flag":
        argv += [flag_of(setting), value]
    elif route == "argv":
        argv += value
    member = None
    if route == "repeat":  # json.dumps cannot write a key twice; every value is valid
        first = settings.pop(setting, None)
        if value:  # a solver key, twice in its method's object
            member = f'"{setting}": {{"{value}": 1, "{value}": 1}}'
        else:
            once = f'"{setting}": {json.dumps(VALID[setting][0] if first is None else first)}'
            member = f"{once}, {once}"
    text = json.dumps(settings)
    if member:
        text = text[:-1] + f", {member}}}"
    elif route == "array":  # the same settings, in a list
        text = f"[{text}]"
    (tmp_path / "run.json").write_text(text)
    if route == "missing":
        argv[1] = str(tmp_path / "missing.json")
    return argv


def names_any(names, line):
    return any(re.search(rf"(?<![\w-]){re.escape(n)}(?!\w)", line) for n in names if n)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_bad_setting_is_one_config_error(tmp_path, capsys, monkeypatch, seed):
    rng = random.Random(seed)
    fitted = []
    monkeypatch.setattr(cli, "_run_cell", lambda *args: fitted.append(args))
    (tmp_path / "file").write_text("")
    # out_dir is made once the corpus is read, so it must pass every valid background
    (tmp_path / "corpus.jsonl").write_text("".join(json.dumps({
        "doc_id": f"d{i}", "company_id": "c", "text": "drill bore shaft", "year": 2005,
        "category": "coal"}) + "\n" for i in range(4)))
    failures, n_cases = [], 0
    for setting, names, route, value in cases(tmp_path):
        argv = argv_for(tmp_path, rng, setting, route, value)
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:  # a traceback is a failure, whatever it is
            code = repr(exc)
        printed = capsys.readouterr()
        lines = printed.out.splitlines()
        if not (code == 1 and len(lines) == 1 and lines[0].startswith("config error: ")
                and names_any(names, lines[0]) and "Traceback" not in printed.err):
            failures.append((setting, route, ascii(value)[:80], code, ascii(printed.out)[:200]))
        n_cases += 1
    assert failures == []
    assert n_cases > 300
    assert fitted == [] and not (tmp_path / "out").exists()


def test_unknown_setting_is_named_by_the_field_names(tmp_path, capsys):
    (tmp_path / "run.json").write_text(json.dumps({"corpus_path": "x.jsonl", "jobs": 2}))
    assert main(["--config", str(tmp_path / "run.json")]) == 1
    assert capsys.readouterr().out == "config error: unknown setting(s): jobs\n"




# Where the walk puts a file or a directory before a run of nmf at K=2 and 3.
OUTPUT_PATHS = ["", "summary", "summary/manifest.json", "nmf/k2", "nmf/k3"]


@pytest.mark.parametrize("seed", [0, 1])
def test_every_output_path_case_exits_cleanly(tmp_path, capsys, caplog, seed):
    rng = random.Random(seed)
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps({
        "doc_id": f"d{i}", "company_id": f"c{i % 2}",
        "text": "drill bore shaft" if i % 2 else "gold vein assay"}) + "\n" for i in range(6)))
    kinds = set()
    for trial in range(20):
        out = tmp_path / f"o{trial}"
        earlier = []
        if rng.random() < 0.5:  # an earlier run, at another seed and over other cells
            earlier = rng.sample([2, 3, 4], rng.randint(1, 2))
            assert main(["--corpus", str(corpus), "--methods", "nmf", "--k",
                         ",".join(map(str, earlier)), "--seed", "1", "--out", str(out)]) == 0
        rel = rng.choice(OUTPUT_PATHS)
        path = out / rel
        if rng.random() < 0.5 and not path.exists():  # a file in a directory's place
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x")
        else:  # a directory, also in place of an earlier manifest
            if path.is_file():
                path.unlink()
            path.mkdir(parents=True, exist_ok=True)
            if rel.startswith("nmf/") and rng.random() < 0.5:
                (path / "notes.txt").write_text("x")
        # A file where a directory goes, or a directory where the manifest goes.
        blocked = path.is_file() != (rel == "summary/manifest.json")
        kinds.add((rel, path.is_file(), bool(earlier)))
        capsys.readouterr()
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="topickit"):
            try:
                code = main(["--corpus", str(corpus), "--methods", "nmf", "--k", "2,3",
                             "--seed", "2", "--out", str(out)])
            except (Exception, SystemExit) as exc:  # a traceback is a failure, whatever it is
                code = repr(exc)
        printed = capsys.readouterr()
        case = (trial, rel, path.is_file(), earlier, printed.out)
        assert "Traceback" not in printed.err + caplog.text, case
        assert code == (1 if blocked else 0), case
        if blocked:  # one line, before any fit
            assert printed.out.startswith("config error: out_dir cannot be made: "), case
            assert printed.out.count("\n") == 1 and "cell (" not in caplog.text, case
        manifest = out / "summary" / "manifest.json"
        kept = bool(earlier) and rel != "summary/manifest.json"  # the earlier run's manifest
        assert manifest.is_file() == (not blocked or kept), case
        if manifest.is_file():  # every cell it lists holds the files of its own run
            saved = json.loads(manifest.read_text())
            assert saved["config"]["seed"] == (1 if blocked else 2), case
            for cell in saved["cells"]:
                model = json.loads((out / "nmf" / f"k{cell['k']}" / "model.json").read_text())
                assert cell["status"] == "ok" and model["seed"] == saved["config"]["seed"], case
            stale = [f"nmf/k{k}" for k in sorted(earlier) if k == 4]
            assert any(n.endswith(f"(left as they are): {', '.join(stale)}")
                       for n in saved["notices"]) == bool(stale and not blocked), case
    assert len(kinds) > 8
