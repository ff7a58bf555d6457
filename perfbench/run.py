"""Benchmark of the topickit K-sweep, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark writes the workload's corpus
from the seed, then times ``topickit.cli.run_experiment`` on it in a
fresh interpreter per sweep: a closed loop with one client and
``jobs=1``, sweep after sweep while one more is expected to end within
``--seconds``, and at least ``MIN_SWEEPS`` sweeps.  Tracing is off in
those sweeps.  Their wall times are scaled to a reference speed
(``pace.py``), and the raw ones are printed too.
With ``--trace 1`` it runs ``MIN_SWEEPS`` such sweeps and then one traced
run (``traced.py``) that calls the library module by module and yields
the per-layer numbers; ``cli.gap_s`` compares the two.

Every sweep's outputs are checked (see ``check_sweep``).  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give every metric with
its quartiles and sample count, the run context and the corpus digest.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from importlib.metadata import version
from pathlib import Path

import corpora
import pace
import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench_work"

MIN_SWEEPS = 3
SETUP_PROBES = 2  # set-up-only interpreters on top of one per sweep
CHILD_TIMEOUT_S = 100
RUN_BUDGET_S = 120  # no sweep starts once one more would pass this
PURITY_FLOOR = 0.9  # the acceptance suite's purity gate
SUMMARY_CSVS = ("silhouette_by_k.csv", "keyword_match_by_k.csv", "decisiveness_by_method.csv")


@dataclass(frozen=True)
class Workload:
    methods: tuple[str, ...]
    k_values: tuple[int, ...]
    min_df: int
    planted_k: int
    # methods whose argmax clusters at the planted K give purity_min
    purity_methods: tuple[str, ...]
    # methods whose silhouette argmax over K must be the planted K
    argmax_methods: tuple[str, ...] = ()
    solver: dict = field(default_factory=dict)


WORKLOADS = {
    # The acceptance protocol: 60 planted documents, three methods, K=2..6.
    # LDA's per-document loop is nearly all of it.
    "planted-sweep": Workload(
        methods=("lda", "nmf", "ntf"), k_values=(2, 3, 4, 5, 6), min_df=1,
        planted_k=4, purity_methods=("lda", "nmf"),
        argmax_methods=("lda", "nmf", "ntf"),
    ),
    # 1000 report-like documents, no LDA: stemming, vectorising, NNDSVD's
    # dense SVD, the dense NMF objective, NTF and the DxD silhouette.
    # Solver iterations are capped so every seed does the same fit work.
    "reports-nmf-ntf": Workload(
        methods=("nmf", "ntf"), k_values=(5, 6), min_df=10,
        planted_k=5, purity_methods=("nmf",),
        solver={"nmf": {"max_iter": 30}, "ntf": {"max_sweeps": 25}},
    ),
}

END_TO_END = {
    "setup_s": "s",
    "sweep_s": "s",
    "peak_rss_mb": "MiB",
    "purity_min": "ratio",
}

# name -> (unit, better, end-to-end metric it should move, workload that shows it).
# Input counts should not move at all; their 'better' is nominal.
PER_LAYER = {
    "corpus.load_s": ("s", "lower", "sweep_s", "reports-nmf-ntf (small)"),
    "corpus.preprocess_s": ("s", "lower", "sweep_s", "reports-nmf-ntf; about 3% of planted-sweep"),
    "corpus.tokens": ("count", "higher", "none (input count)", "all"),
    "corpus.distinct_token_ratio": ("ratio", "higher", "none (input count)", "all"),
    "porter.stem_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "vectorize.vocab_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "vectorize.tf_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "vectorize.tfidf_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "vectorize.tensor_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "vectorize.terms": ("count", "higher", "none (input count)", "all"),
    "vectorize.nnz": ("count", "higher", "none (input count)", "all"),
    "lda.fit_s": ("s", "lower", "sweep_s, guarded by purity_min",
                  "planted-sweep; 0 on reports-nmf-ntf"),
    "lda.iters": ("count", "lower", "sweep_s", "planted-sweep"),
    "lda.s_per_iter": ("s", "lower", "sweep_s", "planted-sweep"),
    "lda.converged_ratio": ("ratio", "higher", "purity_min", "planted-sweep"),
    "nmf.init_s": ("s", "lower", "sweep_s, peak_rss_mb", "reports-nmf-ntf"),
    "nmf.fit_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "nmf.iters": ("count", "lower", "sweep_s", "reports-nmf-ntf"),
    "nmf.s_per_iter": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "nmf.converged_ratio": ("ratio", "higher", "purity_min", "reports-nmf-ntf"),
    "nmf.objective_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "ntf.fit_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "ntf.sweeps": ("count", "lower", "sweep_s", "reports-nmf-ntf"),
    "ntf.s_per_sweep": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "ntf.rescues": ("count", "lower", "sweep_s", "reports-nmf-ntf"),
    "evaluate.report_s": ("s", "lower", "sweep_s, peak_rss_mb", "reports-nmf-ntf"),
    "evaluate.silhouette_s": ("s", "lower", "sweep_s, peak_rss_mb", "reports-nmf-ntf"),
    "export.write_s": ("s", "lower", "sweep_s", "reports-nmf-ntf"),
    "export.bytes": ("bytes", "lower", "sweep_s", "reports-nmf-ntf"),
    "vectorize.rss_rise_mb": ("MiB", "lower", "peak_rss_mb", "reports-nmf-ntf"),
    "nmf.rss_rise_mb": ("MiB", "lower", "peak_rss_mb", "reports-nmf-ntf"),
    "evaluate.rss_rise_mb": ("MiB", "lower", "peak_rss_mb", "reports-nmf-ntf"),
    "cli.gap_s": ("s", "lower", "none (orchestration and tracing overhead)", "all"),
    "trace.agrees": ("bool", "higher", "none (check)", "all"),
    "fail_ratio": ("ratio", "lower", "none (check)", "all"),
    "src.lines": ("count", "lower", "none (informational)", "all"),
}


# ---------------------------------------------------------------- inputs


def write_corpus(name: str, seed: int, path: Path) -> tuple[dict, dict]:
    """Write the workload's corpus; return (doc_id -> label, generator record)."""
    if name == "planted-sweep":
        from planted import PLANTED_SEED, write_planted_corpus

        # The acceptance corpus at its calibrated seed; --seed leaves it as is.
        labels = write_planted_corpus(path, seed=PLANTED_SEED)
        generator = {"generator": "tests/planted.py", "corpus_seed": PLANTED_SEED}
    else:
        labels = corpora.write_reports_corpus(path, corpora.REPORTS, seed)
        generator = {"generator": "perfbench/corpora.py", "corpus_seed": seed,
                     "vocabulary_seed": corpora.VOCABULARY_SEED, **asdict(corpora.REPORTS)}
    generator["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    return labels, generator


def run_seed(name: str) -> int:
    from planted import EXPERIMENT_SEED

    return EXPERIMENT_SEED if name == "planted-sweep" else 0


def sweep_config(name: str, corpus: Path, out_dir: Path) -> dict:
    """RunConfig fields for one sweep; ``jobs`` stays at its default."""
    w = WORKLOADS[name]
    return {
        "corpus_path": str(corpus),
        "methods": list(w.methods),
        "k_values": list(w.k_values),
        "seed": run_seed(name),
        "min_df": w.min_df,
        "out_dir": str(out_dir),
        **w.solver,
    }


# ------------------------------------------------------------- processes


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(script: str, *args: str) -> str | None:
    """Run one child interpreter to completion; None, or why it failed.

    On timeout ``subprocess.run`` kills the child and waits for it.
    """
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / script), *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"{script} timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0:
        return f"{script} exit {proc.returncode}: {proc.stderr.strip()[-400:]}"
    return None


def timed_child(config: dict, run_dir: Path, setup_only: bool = False) -> dict:
    """One fresh sweep process; returns its result with ``setup_s`` added."""
    run_dir.mkdir(parents=True)
    cfg, res = run_dir / "config.json", run_dir / "result.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    extra = ("--setup-only",) if setup_only else ()
    started = time.monotonic()
    error = run_child("sweep_child.py", str(cfg), str(res), *extra)
    if error:
        return {"error": error}
    result = json.loads(res.read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    result["peak_rss_mb"] = result["maxrss_kib"] / 1024.0
    return result


def at_reference_speed(result: dict) -> dict:
    """Scale a child's times to the reference speed; keep the raw ones in ``*_wall_s``.

    The child timed the reference workload right after its set-up and,
    in a sweep, right after ``run_experiment``; the scale is
    ``REFERENCE_S`` over the mean of those timings.
    """
    if "error" not in result:
        scale = pace.REFERENCE_S / statistics.fmean(result["reference_s"])
        for key in ("setup_s", "sweep_s"):
            if key in result:
                result[key.replace("_s", "_wall_s")] = result[key]
                result[key] *= scale
    return result


# ---------------------------------------------------------------- checks


def read_silhouettes(out_dir: Path) -> dict:
    """(method, k) -> mean document silhouette, from the summary CSV."""
    with open(out_dir / "summary" / "silhouette_by_k.csv", encoding="utf-8") as fh:
        return {(r["method"], int(r["k"])): float(r["silhouette_documents"])
                for r in csv.DictReader(fh) if r["silhouette_documents"]}


def cell_purity(out_dir: Path, method: str, k: int, labels: dict) -> float:
    from planted import purity

    with open(out_dir / method / f"k{k}" / "doc_topic.csv", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    pred = [max(range(len(r) - 1), key=lambda j: float(r[j + 1])) for r in rows]
    return float(purity(pred, [labels[r[0]] for r in rows]))


def check_sweep(name: str, result: dict, out_dir: Path, labels: dict,
                reference: dict | None) -> tuple[list[str], dict]:
    """Failed checks of one sweep, and its summary bytes and purities."""
    w = WORKLOADS[name]
    if "error" in result:
        return [f"sweep process failed: {result['error']}"], {}
    problems = []
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['cells']} cells failed")
    summary = {n: (out_dir / "summary" / n).read_bytes() for n in SUMMARY_CSVS
               if (out_dir / "summary" / n).is_file()}
    if len(summary) != len(SUMMARY_CSVS):
        problems.append("summary CSVs missing")
    elif reference is not None and summary != reference["summary"]:
        problems.append("summary CSVs differ from the first sweep of this run")
    sil = read_silhouettes(out_dir) if summary else {}
    for method in w.argmax_methods:
        by_k = {k: v for (m, k), v in sil.items() if m == method}
        best = max(by_k, key=by_k.get) if by_k else None
        if best != w.planted_k:
            problems.append(f"{method} silhouette argmax K={best}, planted K={w.planted_k}")
    purities = {}
    for method in w.purity_methods:
        try:
            purities[method] = cell_purity(out_dir, method, w.planted_k, labels)
        except (OSError, ValueError) as exc:
            problems.append(f"{method} K={w.planted_k} doc_topic unreadable: {exc}")
            continue
        if purities[method] < PURITY_FLOOR:
            problems.append(f"{method} purity {purities[method]:.3f} < {PURITY_FLOOR}")
    return problems, {"summary": summary, "purity": purities}


def trace_agreement(trace: dict, manifest: dict) -> list[str]:
    """Cells whose traced silhouette differs from the manifest at 12 digits."""
    untraced = {(c["method"], c["k"]): c for c in manifest["cells"]}
    problems = []
    for cell in trace["cells"]:
        ref = untraced.get((cell["method"], cell["k"]))
        for key in ("silhouette_documents", "silhouette_companies"):
            a = cell[key]
            b = ref[key] if ref else "missing"
            if (None if a is None else f"{a:.12g}") != (None if b is None else f"{b:.12g}"):
                problems.append(f"{cell['method']} K={cell['k']} {key}: traced {a} vs manifest {b}")
    return problems


# --------------------------------------------------------------- metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_metrics(sweeps: list[dict], setups: list[float]) -> dict:
    """Median of each end-to-end metric over the run's samples."""
    return {
        "setup_s": statistics.median(setups),
        "sweep_s": statistics.median(s["sweep_s"] for s in sweeps),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in sweeps),
        "purity_min": statistics.median(min(s["purity"].values()) for s in sweeps),
    }


def layer_metrics(trace: dict, sweep_s: float, agrees: bool, fail_ratio: float,
                  src_lines: int) -> dict:
    """Per-layer numbers from the traced run's spans and counts."""
    sp = trace["spans"]
    counts = trace["counts"]
    m = {
        "corpus.load_s": spans.total(sp, "corpus.load"),
        "corpus.preprocess_s": spans.total(sp, "corpus.preprocess"),
        "corpus.tokens": counts["tokens"],
        "corpus.distinct_token_ratio": counts["distinct_tokens"] / max(counts["tokens"], 1),
        "porter.stem_s": spans.total(sp, "probe.stem"),
        "vectorize.vocab_s": spans.total(sp, "vectorize.vocab"),
        "vectorize.tf_s": spans.total(sp, "vectorize.tf"),
        "vectorize.tfidf_s": spans.total(sp, "vectorize.tfidf"),
        "vectorize.tensor_s": spans.total(sp, "vectorize.tensor"),
        "vectorize.terms": counts["terms"],
        "vectorize.nnz": counts["nnz"],
    }
    for method, iters_name in (("lda", "iters"), ("nmf", "iters"), ("ntf", "sweeps")):
        cells = [c for c in trace["cells"] if c["method"] == method]
        fit_s = spans.total(sp, f"{method}.fit")
        iters = sum(c["iters"] for c in cells)
        m[f"{method}.fit_s"] = fit_s
        m[f"{method}.{iters_name}"] = iters
        m[f"{method}.s_per_{iters_name.rstrip('s')}"] = fit_s / iters if iters else 0.0
        if method != "ntf":
            m[f"{method}.converged_ratio"] = (
                sum(c["converged"] for c in cells) / len(cells) if cells else 0.0
            )
    n_nmf = sum(1 for c in trace["cells"] if c["method"] == "nmf")
    m["nmf.init_s"] = spans.total(sp, "nmf.init")
    m["nmf.objective_s"] = spans.total(sp, "probe.nmf_objective") / n_nmf if n_nmf else 0.0
    m["ntf.rescues"] = sum(c["rescues"] for c in trace["cells"])
    m["evaluate.report_s"] = spans.total(sp, "evaluate.report")
    m["evaluate.silhouette_s"] = spans.total(sp, "probe.silhouette")
    m["export.write_s"] = spans.total(sp, "export.write")
    m["export.bytes"] = counts["export_bytes"]
    for layer in ("vectorize", "nmf", "evaluate"):
        m[f"{layer}.rss_rise_mb"] = spans.rss_rise_mib(sp, layer + ".")
    m["cli.gap_s"] = sweep_s - spans.pipeline_total(sp)
    m["trace.agrees"] = 1 if agrees else 0
    m["fail_ratio"] = fail_ratio
    m["src.lines"] = src_lines
    return m


# --------------------------------------------------------------- context


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, as found (never set here)."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        # system OpenBLAS, and the build that numpy and scipy wheels bundle
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def src_line_count() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src" / "topickit").rglob("*.py")))


def run_context(name: str, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS") if k in os.environ},
        "workload_seed": seed,
        "run_seed": run_seed(name),
        "src.lines": src_line_count(),
    }


# ------------------------------------------------------------------ main


def measure(name: str, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    """Run the sweeps (and the traced run); return everything the report needs."""
    corpus = work / "corpus.jsonl"
    labels, generator = write_corpus(name, seed, corpus)
    warm = timed_child(sweep_config(name, corpus, work / "o-warm"), work / "warm", setup_only=True)
    problems = [f"set-up process failed: {warm['error']}"] if "error" in warm else []

    sweeps, failed, attempted, reference, manifest = [], 0, 0, None, None
    started = time.monotonic()
    while True:
        i = len(sweeps)
        out_dir = work / f"o{i}"
        result = timed_child(sweep_config(name, corpus, out_dir), work / f"r{i}")
        result = at_reference_speed(result)
        found, checked = check_sweep(name, result, out_dir, labels, reference)
        cells = len(WORKLOADS[name].methods) * len(WORKLOADS[name].k_values)
        attempted += cells
        if found:
            problems += [f"sweep {i}: {p}" for p in found]
            failed += cells
            break
        result.update(checked)
        reference = reference or checked
        if i == 0:
            manifest = json.loads((out_dir / "summary" / "manifest.json").read_text("utf-8"))
        else:
            shutil.rmtree(out_dir)
        sweeps.append(result)
        # Start another sweep only if it should end within the run's time,
        # so a run takes about --seconds however long one sweep is.
        elapsed = time.monotonic() - started
        per_sweep = elapsed / len(sweeps)
        if len(sweeps) >= MIN_SWEEPS and (trace or elapsed + per_sweep > seconds) \
                or elapsed + per_sweep > RUN_BUDGET_S:
            break

    setups = [s["setup_s"] for s in sweeps]
    setup_walls = [s["setup_wall_s"] for s in sweeps]
    references = [r for s in sweeps for r in s["reference_s"]]
    if not trace:
        for i in range(SETUP_PROBES):
            probe = timed_child(sweep_config(name, corpus, work / f"o-p{i}"), work / f"p{i}",
                                setup_only=True)
            probe = at_reference_speed(probe)
            if "error" in probe:
                problems.append(f"set-up process failed: {probe['error']}")
            else:
                setups.append(probe["setup_s"])
                setup_walls.append(probe["setup_wall_s"])
                references += probe["reference_s"]

    report = {"generator": generator, "sweeps": sweeps, "setups": setups,
              "setup_walls": setup_walls, "references": references,
              "problems": problems, "attempted": attempted, "failed": failed,
              "manifest": manifest, "trace": None}
    if trace and sweeps:
        cfg = sweep_config(name, corpus, work / "o-traced")
        (work / "traced.json").write_text(json.dumps(cfg), encoding="utf-8")
        error = run_child("traced.py", str(work / "traced.json"), str(work / "trace-out.json"))
        cells = len(cfg["methods"]) * len(cfg["k_values"])
        report["attempted"] += cells
        if error:
            problems.append(f"traced run failed: {error}")
            report["failed"] += cells
        else:
            report["trace"] = json.loads((work / "trace-out.json").read_text("utf-8"))
            report["agreement"] = trace_agreement(report["trace"], manifest)
            if report["agreement"]:
                problems += [f"trace disagrees: {p}" for p in report["agreement"]]
                report["failed"] += cells
    return report


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception: subprocess.run then kills and reaps
    # the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    for needed in (ROOT / "src" / "topickit" / "cli.py", ROOT / "tests" / "planted.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    context = run_context(args.workload, args.seed)
    problems = report["problems"]
    fail_ratio = report["failed"] / report["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("context " + json.dumps(context))
    digest = dict(report["generator"])
    if report["manifest"]:
        d = report["manifest"]["digest"]
        digest.update(docs=d["documents_in_matrices"], companies=d["companies"],
                      terms=d["vocabulary_size"])
    if report["trace"]:
        digest["nnz"] = report["trace"]["counts"]["nnz"]
    print("corpus " + json.dumps(digest))

    metrics = {}
    if report["sweeps"] and not args.trace:
        values = end_to_end_metrics(report["sweeps"], report["setups"])
        samples = {
            "setup_s": report["setups"],
            "sweep_s": [s["sweep_s"] for s in report["sweeps"]],
            "peak_rss_mb": [s["peak_rss_mb"] for s in report["sweeps"]],
            "purity_min": [min(s["purity"].values()) for s in report["sweeps"]],
        }
        for key, unit in END_TO_END.items():
            q1, q2, q3 = quartiles(samples[key])
            print(f"  {key:<28} {fmt(q2):>12} {unit:<6} q1 {fmt(q1)}  q3 {fmt(q3)}"
                  f"  n={len(samples[key])}")
            print(f"    samples {' '.join(fmt(v) for v in samples[key])}")
            metrics[key] = {"value": values[key], "unit": unit}
        walls = {"reference_s": report["references"], "setup_wall_s": report["setup_walls"],
                 "sweep_wall_s": [s["sweep_wall_s"] for s in report["sweeps"]]}
        for key, samples_s in walls.items():
            q1, q2, q3 = quartiles(samples_s)
            print(f"  {key:<28} {fmt(q2):>12} s      q1 {fmt(q1)}  q3 {fmt(q3)}"
                  f"  n={len(samples_s)}  (raw wall time)")
            print(f"    samples {' '.join(fmt(v) for v in samples_s)}")
        print(f"  {'fail_ratio':<28} {fmt(fail_ratio):>12} ratio  "
              f"({report['failed']} of {report['attempted']} cells)")
    if report["trace"]:
        sweep_s = statistics.median(s["sweep_wall_s"] for s in report["sweeps"])
        values = layer_metrics(report["trace"], sweep_s, not report["agreement"], fail_ratio,
                               context["src.lines"])
        for key, (unit, _, moves, where) in PER_LAYER.items():
            print(f"  {key:<28} {fmt(values[key]):>12} {unit:<6} moves {moves}; on {where}")
            metrics[key] = {"value": values[key], "unit": unit}
        print("spans by name: count, total s, self s")
        sp = report["trace"]["spans"]
        by_name: dict[str, list[float]] = {}
        for s, own in zip(sp, spans.self_times(sp)):
            row = by_name.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += spans.duration(s)
            row[2] += own
        for span_name, (count, total_s, self_s) in by_name.items():
            print(f"  {span_name:<22} {count:4d} {total_s:10.4f} {self_s:10.4f}")
        print(f"  share of pipeline spans: {workload_shares(values, report['trace'])}")
    for p in problems:
        print(f"check FAILED: {p}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


def workload_shares(values: dict, trace: dict) -> str:
    """The shares each workload was chosen for, against the pipeline total."""
    pipeline = spans.pipeline_total(trace["spans"])
    lda = values["lda.fit_s"] / pipeline
    prep_nmf = values["corpus.preprocess_s"] + values["nmf.init_s"] + values["nmf.fit_s"]
    prep_nmf /= pipeline
    return f"lda.fit {lda:.3f}; preprocess+nmf.init+nmf.fit {prep_nmf:.3f} of {pipeline:.3f} s"


if __name__ == "__main__":
    raise SystemExit(main())
