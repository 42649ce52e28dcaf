#!/usr/bin/env python3
"""Pipeline benchmark: the eight documented CLI stages on a 47k corpus.

Run from the root of a checkout:

    python3 perfbench/run.py --workload vocab47k --seed 1 --seconds 60 --trace 0

The benchmark generates the workload's corpus from the seed (see
workloads.py) and runs passes. A pass is the eight stage invocations of
the README, one after another, each in a child process as
`colorlex --config run.ini --out out <stage>` runs it: a closed loop
with one client, so one process works at a time. Every invocation's
outputs are checked.

--trace 0 runs one pass, and another while it would end, at the last
pass's pace, within --seconds of the start of the run (corpus
generation and set-up probes count). A pass takes 14-27 s on a 2-vCPU
Xeon host, so --seconds 60 gives two or three passes. It reports the
end-to-end metrics: the set-up cost every stage pays (a fresh
interpreter importing colorlex.cli and loading the config,
SETUP_REPEATS times), each stage's CPU seconds, the pass's CPU seconds
and the highest peak RSS, as medians over passes.

--trace 1 ignores --seconds and runs one untraced pass and one traced
pass, in which each stage runs under traced_stage.py, which times the
calls into each layer's public functions from outside the package. It
reports the per-layer metrics.

Whenever a run makes more than one pass, a stage whose output files
differ from the first pass's fails.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A stage invocation fails when
it exits non-zero or its output check fails; the checks never depend on
exact float bits. Without src/colorlex in the working directory the
benchmark exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

DEFAULT_SEED = 1
# Confirm a claimed gain on this seed too: no change is tuned against it.
HELDOUT_SEED = 9001
SETUP_REPEATS = 7
STIMULI_N = 100
WORK_DIR = ".perfbench_work"

STAGES = (
    ("ingest", ("ingest",)),
    ("info", ("info",)),
    ("regress_all", ("regress", "--subset", "all")),
    ("regress_repeated", ("regress", "--subset", "repeated")),
    ("simulate", ("simulate",)),
    ("stimuli", ("stimuli", "--n", str(STIMULI_N), "--bins", "10")),
    ("plot_denotations", ("plot", "--kind", "denotations")),
    ("plot_ease_vs_iw", ("plot", "--kind", "ease_vs_iw")),
)

# The files each stage writes, for the determinism check.
STAGE_FILES = {
    "ingest": ("clean_rounds.tsv", "rejects.tsv", "ingest.json"),
    "info": ("word_info.tsv",),
    "regress_all": ("fit_all.txt", "fit_all.json"),
    "regress_repeated": ("fit_repeated.txt", "fit_repeated.json"),
    "simulate": ("simulation.tsv", "simulation.json"),
    "stimuli": ("stimuli.tsv", "stimuli.json"),
    "plot_denotations": ("plot_denotations.svg",),
    "plot_ease_vs_iw": ("plot_ease_vs_iw.svg",),
}

# Stage metrics and the stage invocations each one sums.
STAGE_METRICS = {
    "ingest": ("ingest",),
    "info": ("info",),
    "regress": ("regress_all", "regress_repeated"),
    "simulate": ("simulate",),
    "stimuli": ("stimuli",),
    "plot": ("plot_denotations", "plot_ease_vs_iw"),
}

# name -> (unit, better); BENCHMARK.json lists the same names. Stage
# times are CPU seconds (user + system) of the stage's process: on a
# shared host its wall time also counts the time other tenants hold the
# CPU. In five back-to-back pool47k runs, wall times spread 17-33 %
# (IQR / median) where CPU times spread 3-10 %. Wall times are printed
# beside them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_cpu_s": ("s", "lower"),
    **{f"{name}_cpu_s": ("s", "lower") for name in STAGE_METRICS},
    "peak_rss_mb": ("MB", "lower"),
}

# Spans recorded by traced_stage.py, reported as busy seconds.
LAYER_SPANS = (
    "corpus.ingest",
    "corpus.clean",
    "corpus.write_clean_rounds",
    "corpus.read_clean_rounds",
    "corpus.build_denotations",
    "kernels.spread",
    "kernels.simulate_counts",
    "informativeness.compute_word_infos",
    "regress.rows_from_rounds",
    "regress.fit_ols",
    "regress.fit_random_intercept",
    "simulate.build_entries",
    "simulate.run_simulation",
    "simulate.generate_stimuli",
    "svgplot.denotation_plot",
    "svgplot.ease_plot",
)
LAYER_COUNTS = (
    "corpus.raw_rows",
    "corpus.rejected_rows",
    "corpus.clean_rows",
    "colorspace.conversions",
    "colorspace.failed_conversions",
    "kernels.spread_pairs",
    "kernels.simulate_pairs",
    "informativeness.words",
    "informativeness.sampled_words",
    "regress.groups",
    "regress.multi_row_groups",
    "simulate.referents",
    "svgplot.svg_bytes",
)
PER_LAYER = {
    **{f"{name}_s": ("s", "lower") for name in LAYER_SPANS},
    "corpus.read_clean_rounds_calls": ("count", "lower"),
    "kernels.spread_calls": ("count", "lower"),
    **{name: ("count", "lower") for name in LAYER_COUNTS},
    "corpus.clean_rounds_bytes": ("bytes", "lower"),
    "colorspace.convert_s": ("s", "lower"),
    "colorspace.distinct_chip_share": ("ratio", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "host.calib_s": ("s", "lower"),
}

CLI_SNIPPET = "import sys; from colorlex.cli import main; sys.exit(main())"
SETUP_SNIPPET = ("import sys, colorlex.cli; "
                 "from colorlex.config import load_config; "
                 "load_config(sys.argv[1])")
META_SNIPPET = (
    "import json, sys, numpy, colorlex; from colorlex import kernels; "
    "print(json.dumps({'backend': kernels.backend_name(), "
    "'python': sys.version.split()[0], 'numpy': numpy.__version__, "
    "'package': colorlex.__file__}))"
)


class Bench:
    """One benchmark run: a checkout, a workload corpus, a work directory."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int):
        self.root = root
        self.work = work
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.truth = workloads.generate(workload, seed,
                                        self.work / "corpus.csv")
        self.config = self.work / "run.ini"
        self.config.write_text(
            f"[run]\ninput = {self.work / 'corpus.csv'}\n"
            f"language = english\nseed = {seed}\n", encoding="utf-8")
        self.n_passes = 0

    def child(self, argv, log: Path) -> dict:
        """Run a child to completion; its wall and CPU seconds, peak RSS
        in MB and exit code."""
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss": usage.ru_maxrss / 1024.0, "code": proc.returncode}

    def setup_times(self) -> list[float]:
        argv = [sys.executable, "-c", SETUP_SNIPPET, str(self.config)]
        times = []
        for _ in range(SETUP_REPEATS):
            done = self.child(argv, self.work / "setup.log")
            if done["code"] != 0:
                raise RuntimeError(f"set-up probe exited {done['code']}: "
                                   f"{_tail(self.work / 'setup.log')}")
            times.append(done["cpu"])
        return times

    def metadata(self) -> dict:
        log = self.work / "meta.log"
        code = self.child([sys.executable, "-c", META_SNIPPET], log)["code"]
        if code != 0:
            raise RuntimeError(f"metadata probe exited {code}: {_tail(log)}")
        return json.loads(log.read_text(encoding="utf-8"))

    def run_pass(self, traced: bool) -> dict:
        """Run the eight stages into a fresh output directory."""
        out = self.work / f"out{self.n_passes}"
        logs = self.work / f"logs{self.n_passes}"
        self.n_passes += 1
        logs.mkdir()
        stages = {}
        start = time.perf_counter()
        for name, args in STAGES:
            cli = ["--config", str(self.config), "--out", str(out), *args]
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "traced_stage.py"),
                        str(logs / f"{name}.spans.json"), *cli]
            else:
                argv = [sys.executable, "-c", CLI_SNIPPET, *cli]
            log = logs / f"{name}.log"
            done = self.child(argv, log)
            done["error"] = _tail(log) if done["code"] != 0 else (
                check_stage(name, out, self.truth))
            stages[name] = done
        return {"out": out, "logs": logs, "stages": stages,
                "wall": time.perf_counter() - start, "digest": digest(out)}


def _tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").splitlines()
    return lines[-1] if lines else "no output"


def digest(out: Path) -> dict[str, str]:
    """sha256 of every file in an output directory, by relative path."""
    if not out.exists():
        return {}
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }


def dir_digest(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def _table(path: Path, first_column: str) -> list[list[str]]:
    return [
        line.split("\t")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
        and not line.startswith(first_column + "\t")
    ]


def check_stage(name: str, out: Path, truth) -> str | None:
    """The stage's output check; None when it passes, else the reason."""
    try:
        if name == "ingest":
            got = json.loads((out / "ingest.json").read_text("utf-8"))
            bad = {k: (got.get(k), v) for k, v in truth.counts().items()
                   if got.get(k) != v}
            return f"ingest.json (got, generated): {bad}" if bad else None
        if name == "info":
            i_w = {row[0]: float(row[3])
                   for row in _table(out / "word_info.tsv", "word")}
            if not i_w:
                return "word_info.tsv has no words"
            pairs = [(w, g) for w, g in truth.parents.items()
                     if w in i_w and g in i_w]
            if truth.parents and not pairs:
                return "no specific word scored alongside its general word"
            wrong = [f"{w}<={g}" for w, g in pairs if i_w[w] <= i_w[g]]
            return f"specific i_w not above general: {wrong}" if wrong else None
        if name.startswith("regress_"):
            fit = json.loads((out / f"fit_{name[8:]}.json").read_text("utf-8"))
            return None if fit["random_intercept"]["n"] > 0 else "empty fit"
        if name == "simulate":
            sim = json.loads((out / "simulation.json").read_text("utf-8"))
            acc = {k: v["accuracy"] for k, v in sim["results"].items()}
            if acc["actual"] < max(acc["general_only"], acc["specific_only"]):
                return f"actual accuracy below a restricted lexicon: {acc}"
            return None
        if name == "stimuli":
            rows = len(_table(out / "stimuli.tsv", "bin"))
            return None if rows == STIMULI_N else f"{rows} stimuli rows"
        svg = (out / STAGE_FILES[name][0]).read_text("utf-8")
        return None if svg.rstrip().endswith("</svg>") else "truncated svg"
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def check_determinism(passes: list[dict]) -> None:
    """Fail, in later passes, the stages whose files differ from pass 0."""
    first = passes[0]["digest"]
    for p in passes[1:]:
        for name, files in STAGE_FILES.items():
            done = p["stages"][name]
            if done["error"] is None and any(
                    p["digest"].get(f) != first.get(f) for f in files):
                done["error"] = "output differs from the first pass"


def count_failures(passes: list[dict]) -> tuple[int, int, list[str]]:
    """(invocations, failed invocations, one line per failing stage)."""
    attempted = failed = 0
    first: dict[str, str] = {}
    times: Counter = Counter()
    for i, p in enumerate(passes):
        for name, done in p["stages"].items():
            attempted += 1
            if done["code"] != 0 or done["error"] is not None:
                failed += 1
                times[name] += 1
                first.setdefault(name, f"first in pass {i}, exit "
                                       f"{done['code']}: {done['error']}")
    errors = [f"{name} failed {times[name]} times, {text}"
              for name, text in first.items()]
    return attempted, failed, errors


def end_to_end(setup: list[float], passes: list[dict]) -> dict:
    """Samples of each end-to-end metric, and of the wall times behind
    the CPU metrics (printed, not gated)."""
    samples = {
        "setup_s": setup,
        "peak_rss_mb": [max(done["rss"] for done in p["stages"].values())
                        for p in passes],
    }
    for key in ("cpu", "wall"):
        samples[f"pipeline_{key}_s"] = [
            sum(done[key] for done in p["stages"].values()) for p in passes]
        for metric, names in STAGE_METRICS.items():
            samples[f"{metric}_{key}_s"] = [
                sum(p["stages"][n][key] for n in names) for p in passes]
    return samples


def per_layer(plain: dict, traced: dict) -> dict:
    """Per-layer metrics from the spans of a traced pass and the stage
    times of an untraced pass of the same corpus."""
    spans, counts = [], Counter()
    own_spans: dict[str, float] = {}
    for name, _ in STAGES:
        path = traced["logs"] / f"{name}.spans.json"
        data = json.loads(path.read_text("utf-8")) if path.exists() else {
            "spans": [], "counts": {}}
        spans.extend(data["spans"])
        counts.update(data["counts"])
        own_spans[name] = sum(end - start for _, start, end, depth
                              in data["spans"] if depth == 0)
    busy = Counter()
    calls = Counter()
    for name, start, end, _ in spans:
        busy[name] += end - start
        calls[name] += 1
    metrics = {f"{name}_s": busy[name] for name in LAYER_SPANS}
    metrics["corpus.read_clean_rounds_calls"] = calls["corpus.read_clean_rounds"]
    metrics["kernels.spread_calls"] = calls["kernels.spread"]
    metrics.update({name: counts[name] for name in LAYER_COUNTS})
    clean_rounds = traced["out"] / "clean_rounds.tsv"
    metrics["corpus.clean_rounds_bytes"] = (
        clean_rounds.stat().st_size if clean_rounds.exists() else 0)
    metrics["colorspace.convert_s"] = float(counts["colorspace.convert_s"])
    conversions = counts["colorspace.conversions"]
    metrics["colorspace.distinct_chip_share"] = (
        counts["colorspace.distinct_chips"] / conversions if conversions else 0.0)
    metrics["cli.self_s"] = sum(
        plain["stages"][name]["wall"] - own_spans[name] for name, _ in STAGES)
    # CPU seconds: wall-clock differences of two passes are mostly noise
    # from other tenants of the host.
    metrics["trace.overhead_s"] = sum(
        traced["stages"][name]["cpu"] - plain["stages"][name]["cpu"]
        for name, _ in STAGES)
    return metrics


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: a probe of host speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "colorlex").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return done.stdout.strip() or "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0,
                        help="with --trace 0, start no pass that would end "
                        "later than this many seconds into the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "colorlex" / "cli.py").is_file():
        print(f"error: {root} holds no src/colorlex; run from the root of "
              f"a colorlex checkout", file=sys.stderr)
        return 2

    run_start = time.perf_counter()
    calib_start = calibrate()
    bench = Bench(root, root / WORK_DIR / args.workload, args.workload,
                  args.seed)
    meta = bench.metadata()
    if not Path(meta["package"]).resolve().is_relative_to(root / "src"):
        print(f"error: imported {meta['package']}, not this checkout's",
              file=sys.stderr)
        return 2

    if args.trace:
        passes = [bench.run_pass(traced=False), bench.run_pass(traced=True)]
    else:
        setup = bench.setup_times()
        passes = []
        while not passes or (time.perf_counter() - run_start
                             + passes[-1]["wall"] <= args.seconds):
            passes.append(bench.run_pass(traced=False))
    check_determinism(passes)
    attempted, failed, errors = count_failures(passes)
    calib_end = calibrate()

    print(f"workload {args.workload} seed {args.seed} "
          f"backend {meta['backend']} passes {len(passes)}"
          f"{' (untraced, traced)' if args.trace else ''}, pass wall "
          + ", ".join(f"{p['wall']:.2f}" for p in passes) + " s, run wall "
          f"{time.perf_counter() - run_start:.2f} s")
    if args.trace:
        metrics = per_layer(*passes)
        metrics["host.calib_s"] = statistics.median([calib_start, calib_end])
        for name, value in metrics.items():
            print(f"  {name:<40} {value:>16.6f} {PER_LAYER[name][0]}"
                  if isinstance(value, float) else
                  f"  {name:<40} {value:>16d} {PER_LAYER[name][0]}")
        units = PER_LAYER
    else:
        samples = end_to_end(setup, passes)
        metrics = {name: statistics.median(samples[name]) for name in END_TO_END}
        for name, (unit, _) in END_TO_END.items():
            wall = samples.get(name.replace("_cpu_s", "_wall_s"), ())
            print(f"  {name:<20} {metrics[name]:>12.4f} {unit:<3}"
                  f" median of {len(samples[name])}" + (
                      f"   wall {statistics.median(wall):.4f} s"
                      if name.endswith("_cpu_s") else ""))
        units = END_TO_END
    print(f"  {'failed_stage_share':<20} {failed / attempted:>12.4f} ratio"
          f" {failed} of {attempted} stage invocations")
    for error in errors:
        print(f"  failed: {error}")
    print(f"host.calib_s {statistics.median([calib_start, calib_end]):.4f} s "
          f"(start {calib_start:.4f}, end {calib_end:.4f})")

    meta.update({
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_commit": git_commit(root),
        "source_sha256": source_digest(root),
        "corpus_sha256": bench.truth.sha256,
        "corpus_bytes": bench.truth.bytes,
        "corpus_counts": bench.truth.counts(),
        "output_digests": [dir_digest(p["digest"]) for p in passes],
        "pass_wall_s": [p["wall"] for p in passes],
        "known_defect": workloads.KNOWN_DEFECTS.get(args.workload),
        "host_calib_s": [calib_start, calib_end],
        "failed_stage_share": failed / attempted,
        "errors": errors,
    })
    meta["package"] = str(Path(meta["package"]).relative_to(root))
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    (bench.work / "result.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
