"""`colorlex.cli.main` runs its stage with the cyclic garbage collector
off, and leaves the collector as it found it.

The stages' bulk data hold no reference cycles, so reference counting
frees them. The guard below runs each stage in a fresh interpreter with
the collector off and counts what one collection after the stage finds
unreachable: that count must not grow with the corpus.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import STAGES

from colorlex import cli
from colorlex.errors import ColorlexError

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def collector_on():
    """The collector on for the test, and on again after it."""
    gc.enable()
    yield
    gc.enable()


def _run_info(config, out):
    return cli.main(["--config", str(config), "--out", str(out), "info"])


def _replace_info(monkeypatch, body):
    """Make the info stage table entry's function call body(), then
    write an empty word_info.tsv and print nothing."""
    def run(cfg, args, read):
        body()
        return (lambda handle: None,), ""

    monkeypatch.setattr(cli, "STAGES", tuple(
        stage._replace(run=run) if stage.argv == ("info",) else stage
        for stage in cli.STAGES))


class TestMainRestoresCollector:
    """Each test replaces the info stage's function."""

    def test_stage_runs_with_collector_off(self, fixture_corpus, tmp_path,
                                           collector_on, monkeypatch):
        seen = []
        _replace_info(monkeypatch, lambda: seen.append(gc.isenabled()))
        assert _run_info(fixture_corpus.config, tmp_path) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_on_again_after_exit_2(self, fixture_corpus, tmp_path,
                                   collector_on, monkeypatch, capsys):
        def failing():
            raise ColorlexError("stage failed")

        _replace_info(monkeypatch, failing)
        assert _run_info(fixture_corpus.config, tmp_path) == 2
        assert "error: stage failed" in capsys.readouterr().err
        assert gc.isenabled()

    def test_on_again_after_config_error(self, tmp_path, collector_on):
        assert _run_info(tmp_path / "none.ini", tmp_path) == 2
        assert gc.isenabled()

    def test_on_again_after_uncaught_exception(self, fixture_corpus,
                                               tmp_path, collector_on,
                                               monkeypatch):
        def crashing():
            raise RuntimeError("not a stage error")

        _replace_info(monkeypatch, crashing)
        with pytest.raises(RuntimeError):
            _run_info(fixture_corpus.config, tmp_path)
        assert gc.isenabled()

    def test_stays_off_when_caller_turned_it_off(self, fixture_corpus,
                                                 tmp_path, collector_on,
                                                 monkeypatch):
        _replace_info(monkeypatch, lambda: None)
        gc.disable()
        assert _run_info(fixture_corpus.config, tmp_path) == 0
        assert not gc.isenabled()


# Collect what the imports left, run the stage with the collector off,
# then print the exit code and what one collection finds unreachable.
_PROBE = """\
import gc, sys
from colorlex.cli import main
gc.disable()
gc.collect()
code = main(sys.argv[1:])
print(code, gc.collect())
"""

# Unreachable objects a stage may leave beyond what it leaves on the
# fixture corpus; one per row of a corpus ten times larger would be
# thousands.
_SLACK = 50


def _garbage_per_stage(config: Path, out: Path) -> list[int]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    counts = []
    for stage in STAGES:
        done = subprocess.run(
            [sys.executable, "-c", _PROBE, "--config", str(config),
             "--out", str(out), *stage],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, (stage, done.stderr)
        code, garbage = done.stdout.splitlines()[-1].split()
        assert code == "0", (stage, done.stdout)
        counts.append(int(garbage))
    return counts


def test_stage_garbage_does_not_grow_with_the_corpus(fixture_corpus,
                                                     tmp_path):
    lines = fixture_corpus.csv.read_text("utf-8").splitlines(keepends=True)
    big = tmp_path / "rounds_x10.csv"
    big.write_text(lines[0] + "".join(lines[1:]) * 10, encoding="utf-8")
    # Ten times the threshold keeps the same words: at the fixture's
    # threshold, a word said once on one chip would pass it with a
    # spread of zero, which the info stage refuses.
    big_config = tmp_path / "run_x10.ini"
    big_config.write_text(
        f"[run]\ninput = {big}\nlanguage = english\n"
        f"seed = {fixture_corpus.seed}\n"
        f"min_count = {10 * fixture_corpus.min_count}\n", encoding="utf-8")
    small = _garbage_per_stage(fixture_corpus.config, tmp_path / "x1")
    large = _garbage_per_stage(big_config, tmp_path / "x10")
    for stage, a, b in zip(STAGES, small, large):
        assert b <= a + _SLACK, (" ".join(stage), a, b)
