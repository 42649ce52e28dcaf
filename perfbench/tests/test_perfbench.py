"""Small-scale tests of the pipeline benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

Corpora are shrunk (fewer rounds, a smaller chip pool) so that a whole
pass of the eight CLI stages takes seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

from colorlex.corpus import clean, ingest  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "N_ROUNDS", 3_000)
    monkeypatch.setattr(workloads, "POOL_SIZE", 250)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_corpus_bytes(small, tmp_path, workload):
    a = workloads.generate(workload, 1, tmp_path / "a.csv")
    b = workloads.generate(workload, 1, tmp_path / "b.csv")
    c = workloads.generate(workload, 2, tmp_path / "c.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert a.sha256 == b.sha256 != c.sha256


@pytest.mark.parametrize("workload", ["vocab47k", "pool47k"])
def test_ground_truth_counts_match_ingest(small, tmp_path, workload):
    truth = workloads.generate(workload, 3, tmp_path / "corpus.csv")
    raw, rejects = ingest(tmp_path / "corpus.csv")
    rounds = clean(raw)
    assert truth.counts() == {
        "n_raw": len(raw),
        "n_rejected": len(rejects),
        "n_clean": len(rounds),
        "n_chips": len({r.target_key for r in rounds}),
    }
    assert truth.n_raw == workloads.N_ROUNDS
    assert truth.n_rejected == workloads.N_BAD_ROWS


def test_grid_covers_the_whole_hsl_grid(small, tmp_path):
    """Keeps the chips of the known conversion defect in the workload."""
    workloads.generate("grid47k", 4, tmp_path / "corpus.csv")
    with open(tmp_path / "corpus.csv", encoding="utf-8", newline="") as f:
        rows = [r for r in csv.DictReader(f) if r["game_id"] != "bad"]
    chips = [(int(r[f"{c}_h"]), int(r[f"{c}_s"]), int(r[f"{c}_l"]))
             for r in rows for c in ("target", "distractor1", "distractor2")]
    hues = {h for h, _, _ in chips}
    assert min(hues) == 0 and max(hues) == 359
    assert {0, 100} <= {s for _, s, _ in chips}
    assert {0, 100} <= {l for _, _, l in chips}


@pytest.mark.parametrize("workload, rounds",
                         [("vocab47k", 12_000), ("pool47k", 3_000)])
def test_pass_outputs_pass_checks_and_repeat(small, monkeypatch, tmp_path,
                                             workload, rounds):
    # vocab47k chips rarely repeat: fewer rounds leave no referents.
    monkeypatch.setattr(workloads, "N_ROUNDS", rounds)
    bench = run.Bench(ROOT, tmp_path / "work", workload, 5)
    passes = [bench.run_pass(traced=False), bench.run_pass(traced=True)]
    run.check_determinism(passes)
    attempted, failed, errors = run.count_failures(passes)
    assert (attempted, failed, errors) == (16, 0, [])
    assert passes[0]["digest"] == passes[1]["digest"]

    layers = run.per_layer(*passes)
    assert set(layers) == set(run.PER_LAYER) - {"host.calib_s"}
    assert layers["corpus.raw_rows"] == workloads.N_ROUNDS
    assert layers["corpus.clean_rows"] == bench.truth.n_clean
    assert layers["corpus.read_clean_rounds_calls"] == 7
    assert layers["colorspace.conversions"] == 3 * bench.truth.n_clean
    assert layers["colorspace.failed_conversions"] == 0
    assert layers["kernels.spread_calls"] > 0
    assert layers["simulate.referents"] >= 2

    # The checks reject a broken output.
    out = passes[0]["out"]
    stimuli = out / "stimuli.tsv"
    stimuli.write_text(stimuli.read_text("utf-8").rsplit("\n", 2)[0] + "\n",
                       encoding="utf-8")
    assert run.check_stage("stimuli", out, bench.truth) == "99 stimuli rows"
    bench.truth.n_clean += 1
    assert "n_clean" in run.check_stage("ingest", out, bench.truth)


def test_grid_pass_fails_every_stage(small, tmp_path):
    bench = run.Bench(ROOT, tmp_path / "work", "grid47k", 6)
    passes = [bench.run_pass(traced=False), bench.run_pass(traced=True)]
    attempted, failed, errors = run.count_failures(passes)
    assert attempted == failed == 16
    assert "outside [0, 1]" in errors[0]
    layers = run.per_layer(*passes)
    assert layers["colorspace.failed_conversions"] > 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert spec["paths"] == ["perfbench"]
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for section, table in (("end_to_end", run.END_TO_END),
                           ("per_layer", run.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec[section]} == table


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vocab47k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""

