"""Byte-identity gate: every output file of the eight CLI stages.

The pipeline's contract is byte-identical output directories for
identical configurations. These tests run all eight stages through
`cli.main` on two corpora and compare the sha256 of every output file
with the digests recorded in golden_digests.json:

- the synthetic fixture corpus of conftest.py;
- the same corpus in the paper's second language: its words in Chinese,
  run with `language = chinese`;
- the benchmark's pool47k and vocab47k generators (perfbench/workloads.py),
  shrunk by patching the module's N_ROUNDS and POOL_SIZE, as the
  benchmark's own tests do.

Each run works inside a temporary directory with `input = corpus.csv`,
so the config digest written into every file does not depend on where
the directory is. The digests depend on the Python and numpy versions
(random.Random.sample streams, numpy Generator.choice streams under
NEP 19, float formatting), which the JSON records. To re-record after a
deliberate output change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import run_stages, write_fixture_csv

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden_digests.json"
PERFBENCH = HERE.parent / "perfbench"

# Workload corpora: (workload, seed, N_ROUNDS, POOL_SIZE). vocab47k
# needs more rounds than pool47k before any chip is named twice.
WORKLOAD_CASES = {
    "pool47k": ("pool47k", 1, 3_000, 250),
    "vocab47k": ("vocab47k", 1, 12_000, 3_000),
}


# Each English token of the fixture's utterances as a Chinese colour
# word; its misspellings become homophone misspellings.
CHINESE = {
    "red": "红", "orange": "橙", "yellow": "黄", "green": "绿", "blue": "蓝",
    "purple": "紫", "rust": "铁锈", "gold": "金", "lime": "青柠",
    "forest": "墨绿", "sky": "天蓝", "navy": "藏青", "violet": "紫罗兰",
    "plum": "梅红", "very": "很", "bleu": "兰", "gren": "录", "purpel": "子",
}


def write_chinese_csv(source: Path, path: Path) -> None:
    """Copy a corpus CSV with the tokens of its utterances in Chinese,
    their separators and punctuation kept."""
    with open(source, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    utterance = rows[0].index("utterance")
    for row in rows[1:]:
        row[utterance] = re.sub("[a-z]+", lambda m: CHINESE[m[0].lower()],
                                row[utterance], flags=re.IGNORECASE)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        csv.writer(handle).writerows(rows)


def versions() -> dict[str, str]:
    return {"python": sys.version.split()[0], "numpy": np.__version__}


def digest_stages(work: Path, language: str = "english") -> dict[str, str]:
    """Run the eight stages in `work` (which holds corpus.csv) and
    return the sha256 of every output file by name."""
    (work / "run.ini").write_text(
        f"[run]\ninput = corpus.csv\nlanguage = {language}\nseed = 7\n",
        encoding="utf-8")
    run_stages("run.ini", "out")
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((work / "out").iterdir())
    }


def generate_workload(name: str, path: Path, patch) -> None:
    """Write a shrunk benchmark corpus; patch(module, attr, value) sets
    the module's sizes."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    workload, seed, n_rounds, pool_size = WORKLOAD_CASES[name]
    patch(workloads, "N_ROUNDS", n_rounds)
    patch(workloads, "POOL_SIZE", pool_size)
    workloads.generate(workload, seed, path)


def _check(case: str, digests: dict[str, str]) -> None:
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    recorded = golden["versions"]
    changed = sorted(
        name for name in golden["cases"][case].keys() | digests.keys()
        if golden["cases"][case].get(name) != digests.get(name))
    assert not changed, (
        f"{case}: output bytes changed in {changed}. Digests were recorded "
        f"with Python {recorded['python']} and numpy {recorded['numpy']}; "
        f"this run uses Python {versions()['python']} and numpy "
        f"{versions()['numpy']}.")


def test_fixture_corpus_outputs_are_golden(fixture_corpus, tmp_path,
                                           monkeypatch):
    shutil.copy(fixture_corpus.csv, tmp_path / "corpus.csv")
    monkeypatch.chdir(tmp_path)
    _check("fixture", digest_stages(tmp_path))


def test_chinese_fixture_outputs_are_golden(fixture_corpus, tmp_path,
                                           monkeypatch):
    write_chinese_csv(fixture_corpus.csv, tmp_path / "corpus.csv")
    monkeypatch.chdir(tmp_path)
    _check("fixture_chinese", digest_stages(tmp_path, "chinese"))


@pytest.mark.parametrize("case", sorted(WORKLOAD_CASES))
def test_workload_outputs_are_golden(case, tmp_path, monkeypatch):
    generate_workload(case, tmp_path / "corpus.csv", monkeypatch.setattr)
    monkeypatch.chdir(tmp_path)
    _check(case, digest_stages(tmp_path))


def record() -> None:
    """Recompute every case and rewrite golden_digests.json."""
    cases = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        english = Path(tmp) / "fixture.csv"
        write_fixture_csv(english)
        for case in ("fixture", "fixture_chinese", *sorted(WORKLOAD_CASES)):
            work = Path(tmp) / case
            work.mkdir()
            language = "english"
            if case == "fixture":
                shutil.copy(english, work / "corpus.csv")
            elif case == "fixture_chinese":
                write_chinese_csv(english, work / "corpus.csv")
                language = "chinese"
            else:
                generate_workload(case, work / "corpus.csv", setattr)
            os.chdir(work)
            try:
                cases[case] = digest_stages(work, language)
            finally:
                os.chdir(cwd)
    GOLDEN.write_text(json.dumps({"versions": versions(), "cases": cases},
                                 indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    record()
