"""Seeded fuzz of the run configuration.

Every setting (each RunConfig field, and each solver key under "lda", "nmf"
and "ntf") is given bad values from a config file and, where it has one,
from its flag, over a seeded random background of valid settings.  Each
case must exit 1 with one printed line, ``config error: ...``, that names the
setting or its flag; none may raise, fit a cell or make the output directory.
"""

import json
import math
import random
import re
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
    "corpus_format": ["csv", ""],
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
FLAG_EXTRA = {"corpus_format": ["csv", ""], "methods": ["", ",", "svd", "nmf,nmf", "nmf,5"]}
ALIASES = {"methods": ["method"], "k_values": ["k"], "filters": ["filter"]}

# Valid values for the background; corpus_path and out_dir are set per test.
VALID = {
    "corpus_format": ["jsonl"], "methods": [["nmf"], "lda,nmf"], "k_values": [[2, 3], "2:4"],
    "seed": [0, 7, HUGE], "min_df": [1, 3], "filters": [{}, {"year": "2000:2009"}],
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
    for method, keys in SOLVER_KEYS.items():
        for key in keys:
            for value in SOLVER_VALUES["tol" if key == "tol" else "cap"]:
                yield method, [f"{method}.{key}", method], "file", {key: value}
    for key in ("jobs", "Seed", SURROGATE):
        yield key, [ascii(key)[1:-1]], "file", 1
    yield "jobs", ["--jobs"], "argv", ["--jobs", "2"]


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
    else:
        argv += value
    (tmp_path / "run.json").write_text(json.dumps(settings))
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

