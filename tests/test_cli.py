"""End-to-end runs of the command-line pipeline."""

import csv
import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path
from types import ModuleType, SimpleNamespace

import pytest
from conftest import (
    PLOT_DENOTATIONS,
    PLOT_EASE,
    READERS,
    REGRESS_ALL,
    REGRESS_REPEATED,
    STAGE_TABLE,
    run_stages,
)

from colorlex import cli, corpus, regress, simulate, svgplot
from colorlex.cli import main
from colorlex.config import (
    ConfigError,
    RunConfig,
    config_hash,
    header_line,
    load_config,
    with_overrides,
)
from colorlex.corpus import (
    clean,
    ingest,
    read_clean_rounds,
    write_clean_rounds,
)
from colorlex.informativeness import read_word_infos, write_word_infos

EXPECTED_FILES = (
    "clean_rounds.tsv",
    "rejects.tsv",
    "ingest.json",
    "word_info.tsv",
    "fit_all.txt",
    "fit_all.json",
    "fit_repeated.txt",
    "fit_repeated.json",
    "simulation.tsv",
    "simulation.json",
    "stimuli.tsv",
    "stimuli.json",
    "plot_denotations.svg",
    "plot_ease_vs_iw.svg",
)


@pytest.fixture(scope="module")
def pipeline(fixture_corpus, tmp_path_factory) -> SimpleNamespace:
    out = tmp_path_factory.mktemp("cli") / "out"
    run_stages(fixture_corpus.config, out)
    cfg = with_overrides(load_config(fixture_corpus.config), None, str(out))
    return SimpleNamespace(out=out, cfg=cfg, corpus=fixture_corpus)


class TestPipeline:
    def test_all_outputs_written(self, pipeline):
        for name in EXPECTED_FILES:
            assert (pipeline.out / name).exists(), name

    def test_ingest_report(self, pipeline):
        payload = json.loads((pipeline.out / "ingest.json").read_text())
        assert payload["n_raw"] == pipeline.corpus.n_raw
        assert payload["n_rejected"] == pipeline.corpus.n_rejects
        with open(pipeline.out / "clean_rounds.tsv") as handle:
            rounds = read_clean_rounds(handle)
        assert payload["n_clean"] == len(rounds)
        assert payload["n_chips"] == len(rounds.chip_keys)

    def test_headers_consistent(self, pipeline):
        expected = header_line(pipeline.cfg)
        for name in EXPECTED_FILES:
            if name.endswith(".json") or name.endswith(".svg"):
                continue
            first = (pipeline.out / name).read_text().splitlines()[0]
            assert first == expected, name

    def test_json_provenance(self, pipeline):
        digest = config_hash(pipeline.cfg)
        for name in EXPECTED_FILES:
            if not name.endswith(".json"):
                continue
            payload = json.loads((pipeline.out / name).read_text())
            assert payload["_config"] == digest, name
            assert payload["_seed"] == pipeline.corpus.seed, name

    def test_svg_provenance(self, pipeline):
        comment = header_line(pipeline.cfg).lstrip("# ")
        for name in ("plot_denotations.svg", "plot_ease_vs_iw.svg"):
            text = (pipeline.out / name).read_text()
            assert text.startswith("<?xml")
            assert comment in text

    def test_word_info_sorted(self, pipeline):
        with open(pipeline.out / "word_info.tsv") as handle:
            infos = read_word_infos(handle)
        scores = [w.i_w for w in infos.values()]
        assert len(infos) > 5
        assert scores == sorted(scores, reverse=True)

    def test_fit_reports(self, pipeline):
        for subset in ("all", "repeated"):
            payload = json.loads(
                (pipeline.out / f"fit_{subset}.json").read_text()
            )
            assert payload["subset"] == subset
            assert payload["ols"]["method"] == "ols"
            assert payload["random_intercept"]["method"] == \
                "random_intercept"
            # harder contexts elicit more informative words
            assert payload["ols"]["slope"] < 0
            assert payload["random_intercept"]["slope"] < 0
            text = (pipeline.out / f"fit_{subset}.txt").read_text()
            assert "(ols)" in text
            assert "(random_intercept)" in text

    def test_simulation_outputs(self, pipeline):
        payload = json.loads((pipeline.out / "simulation.json").read_text())
        results = payload["results"]
        assert set(results) == {"actual", "general_only", "specific_only"}
        actual = results["actual"]
        general = results["general_only"]
        specific = results["specific_only"]
        assert actual["accuracy"] >= general["accuracy"]
        assert actual["accuracy"] >= specific["accuracy"]
        assert general["i_l"] <= actual["i_l"] <= specific["i_l"]
        lines = (pipeline.out / "simulation.tsv").read_text().splitlines()
        assert len(lines) == 5
        assert [l.split("\t")[0] for l in lines[2:]] == \
            ["actual", "general_only", "specific_only"]

    def test_stimuli_outputs(self, pipeline):
        payload = json.loads((pipeline.out / "stimuli.json").read_text())
        assert payload["n"] == 100
        assert payload["bins"] == 10
        assert sum(payload["report"]["bin_counts"]) == 100
        lines = (pipeline.out / "stimuli.tsv").read_text().splitlines()
        assert len(lines) == 102

    def test_tables_share_one_layout(self, pipeline):
        header = header_line(pipeline.cfg)
        for path in sorted(pipeline.out.glob("*.tsv")):
            comment, columns, *rows = path.read_text().split("\n")[:-1]
            assert comment == header, path.name
            width = len(columns.split("\t"))
            assert all(len(row.split("\t")) == width for row in rows)

    def test_ingest_rerun_is_stable(self, pipeline):
        before = (pipeline.out / "clean_rounds.tsv").read_bytes()
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(pipeline.out), "ingest"])
        assert code == 0
        assert (pipeline.out / "clean_rounds.tsv").read_bytes() == before


class TestOverrides:
    def test_seed_changes_header_and_hash(self, fixture_corpus, tmp_path):
        out = tmp_path / "o"
        assert main(["--config", str(fixture_corpus.config),
                     "--out", str(out), "--seed", "99", "ingest"]) == 0
        first = (out / "clean_rounds.tsv").read_text().splitlines()[0]
        assert first.endswith("seed=99")
        base = load_config(fixture_corpus.config)
        assert config_hash(with_overrides(base, 99, None)) != \
            config_hash(base)

    def test_out_dir_created(self, fixture_corpus, tmp_path):
        out = tmp_path / "deeply" / "nested" / "dir"
        assert main(["--config", str(fixture_corpus.config),
                     "--out", str(out), "ingest"]) == 0
        assert (out / "clean_rounds.tsv").exists()

    def test_negative_seed_rejected(self, fixture_corpus, tmp_path, capsys):
        code = main(["--config", str(fixture_corpus.config),
                     "--out", str(tmp_path / "o"), "--seed", "-3", "ingest"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_spellmap_recovers_misspellings(self, fixture_corpus, tmp_path):
        plain_out = tmp_path / "plain"
        fixed_out = tmp_path / "fixed"
        assert main(["--config", str(fixture_corpus.config),
                     "--out", str(plain_out), "ingest"]) == 0
        assert main(["--config", str(fixture_corpus.config_spellmap),
                     "--out", str(fixed_out), "ingest"]) == 0

        def blue_count(path):
            with open(path / "clean_rounds.tsv") as handle:
                rounds = read_clean_rounds(handle)
            blue = rounds.vocab.index("blue")
            return int((rounds.word_ids == blue).sum())

        assert blue_count(fixed_out) > blue_count(plain_out)


def _corrupt(path, column, rows, value="nanx"):
    """Write `value` into `column` of the given data rows of a stage
    table (every row when rows is None, the last when a row is -1);
    returns their file lines."""
    lines = path.read_text(encoding="utf-8").split("\n")
    col = lines[1].split("\t").index(column)
    n = len(lines) - 3  # the text ends with a line break
    rows = range(n) if rows is None else [r % n for r in rows]
    for r in rows:
        fields = lines[2 + r].split("\t")
        fields[col] = value
        lines[2 + r] = "\t".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    return {3 + r for r in rows}


# The reader's refusal of a chip key, and keys it refuses: empty, not
# numbers, a hue of 360, a saturation above 100, a leading zero.
_KEY_ERROR = ("{column}: expected h:s:l with 0 <= h < 360 and "
              "0 <= s, l <= 100, got {value!r}")
_BAD_KEYS = ("", "x:y:z", "360:0:0", "1:101:0", "01:2:3")
_KEY_COLUMNS = ("target_key", "d1_key", "d2_key")
# The chip key each value that a stage uses from clean_rounds.tsv is
# derived from on read (ease from all three; its last is written here).
_SOURCE_KEY = {"ease": "d2_key", "target_l": "target_key",
               "target_b": "target_key", "d1_a": "d1_key"}


class TestReadErrorsNameTheLine:
    """A malformed value in a stage table stops every stage that reads
    it with `error: <path>:<line>: ...` and exit status 2: every value
    is parsed and checked on read."""

    # For clean_rounds.tsv, `column` is a value the stage uses, and
    # `nanx` is written into the chip key it is derived from.
    @pytest.mark.parametrize("stage, table, column, rows", [
        (["info"], "clean_rounds.tsv", "ease", [7]),
        (["info"], "clean_rounds.tsv", "target_l", [7, 9]),
        (REGRESS_ALL, "clean_rounds.tsv", "ease", [7]),
        (REGRESS_REPEATED, "clean_rounds.tsv", "ease", [7]),
        (["simulate"], "clean_rounds.tsv", "ease", [7]),
        (["stimuli"], "clean_rounds.tsv", "ease", [7]),
        (["stimuli"], "clean_rounds.tsv", "d1_a", None),
        (PLOT_DENOTATIONS, "clean_rounds.tsv", "ease", [7]),
        (PLOT_DENOTATIONS, "clean_rounds.tsv", "target_b", [7]),
        (PLOT_EASE, "clean_rounds.tsv", "ease", [7]),
        (REGRESS_ALL, "word_info.tsv", "i_w", [2]),
        (REGRESS_REPEATED, "word_info.tsv", "i_w", [2]),
        (["simulate"], "word_info.tsv", "i_w", [2]),
        (["stimuli"], "word_info.tsv", "i_w", [2]),
        (PLOT_EASE, "word_info.tsv", "i_w", [2]),
    ])
    def test_nanx(self, pipeline, tmp_path, capsys, stage, table, column,
                  rows):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        column = _SOURCE_KEY.get(column, column)
        lines = _corrupt(out / table, column, rows)
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *stage])
        assert code == 2
        err = capsys.readouterr().err
        found = re.fullmatch(
            rf"error: {re.escape(str(out / table))}:(\d+): (.*)\n", err)
        assert found, err
        assert int(found[1]) == min(lines) or rows is None
        assert int(found[1]) in lines
        assert found[2] == (
            _KEY_ERROR.format(column=column, value="nanx")
            if column.endswith("_key") else
            f"{column}: could not convert string to float: 'nanx'")

    # A chip key that write_clean_rounds never writes, in any key
    # column of the last row, stops every stage that reads
    # clean_rounds.tsv.
    @pytest.mark.parametrize("stage", READERS["clean_rounds.tsv"])
    @pytest.mark.parametrize("column", _KEY_COLUMNS)
    def test_malformed_chip_key(self, pipeline, tmp_path, capsys, stage,
                                column):
        # across the stages, each column meets every bad key
        k = (READERS["clean_rounds.tsv"].index(stage)
             + _KEY_COLUMNS.index(column))
        value = _BAD_KEYS[k % len(_BAD_KEYS)]
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        table = out / "clean_rounds.tsv"
        line, = _corrupt(table, column, [-1], value)
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *stage])
        assert capsys.readouterr().err == (
            f"error: {table}:{line}: "
            f"{_KEY_ERROR.format(column=column, value=value)}\n")
        assert code == 2

    # A finite value that no stage writes would overflow in the fits or
    # the Lab-to-sRGB conversion; the readers refuse it instead.
    @pytest.mark.parametrize("stage, table, column, value, bounds", [
        (REGRESS_ALL, "word_info.tsv", "i_w", "1e308", "(0, 1e+100]"),
        (REGRESS_REPEATED, "word_info.tsv", "i_w", "1e308", "(0, 1e+100]"),
        (PLOT_EASE, "word_info.tsv", "i_w", "1e308", "(0, 1e+100]"),
    ])
    def test_huge_finite_value(self, pipeline, tmp_path, capsys, stage,
                               table, column, value, bounds):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        line, = _corrupt(out / table, column, [1], value)
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *stage])
        assert capsys.readouterr().err == (
            f"error: {out / table}:{line}: {column}: "
            f"{float(value)!r} outside {bounds}\n")
        assert code == 2

    # Values that `info` never writes: it scores words of two chips or
    # more, writes sampled as 0 or 1, and lists each word once.
    @pytest.mark.parametrize("stage, column, value, reason", [
        (["simulate"], "n_chips", "1", "1 outside [2, inf]"),
        (REGRESS_ALL, "n_chips", "-3", "-3 outside [2, inf]"),
        (["stimuli"], "sampled", "7", "7 outside [0, 1]"),
    ])
    def test_value_info_never_writes(self, pipeline, tmp_path, capsys,
                                     stage, column, value, reason):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        line, = _corrupt(out / "word_info.tsv", column, [1], value)
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *stage])
        assert capsys.readouterr().err == (
            f"error: {out / 'word_info.tsv'}:{line}: {column}: {reason}\n")
        assert code == 2

    @pytest.mark.parametrize("stage", READERS["word_info.tsv"])
    def test_repeated_word(self, pipeline, tmp_path, capsys, stage):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        path = out / "word_info.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        lines.insert(5, lines[3])  # line 4 again as line 6
        path.write_text("\n".join(lines), encoding="utf-8")
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *stage])
        word = lines[3].split("\t")[0]
        assert capsys.readouterr().err == (
            f"error: {path}:6: word: {word!r} also on line 4\n")
        assert code == 2


class TestErrorHandling:
    def test_missing_config(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "none.ini"), "ingest"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_config_key(self, fixture_corpus, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[run]\ninput = {fixture_corpus.csv}\nshout = yes\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "ingest"])
        assert code == 2
        assert "shout" in capsys.readouterr().err

    def test_unknown_config_section(self, fixture_corpus, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[run]\ninput = {fixture_corpus.csv}\n[plotting]\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "o"),
                     "ingest"])
        assert code == 2
        assert "plotting" in capsys.readouterr().err

    def test_overlong_csv_field_names_the_line(self, fixture_corpus,
                                                tmp_path, capsys):
        # A field past the csv module's limit is a framing error, not a
        # reject row; the limit itself is not raised.
        lines = fixture_corpus.csv.read_text().splitlines(keepends=True)
        fields = next(csv.reader(lines[1:2]))
        fields[2] = "a" * 200_000
        src = tmp_path / "long.csv"
        with open(src, "w", newline="") as handle:
            handle.writelines(lines[:2])
            csv.writer(handle, quoting=csv.QUOTE_ALL).writerow(fields)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {src}\n")
        out = tmp_path / "o"
        code = main(["--config", str(cfg), "--out", str(out), "ingest"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{src}:3: field larger than field limit" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_two_fields_mapped_to_one_column(self, fixture_corpus, tmp_path,
                                             capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {fixture_corpus.csv}\n"
                       f"[schema]\ntarget_h = target_s\n")
        out = tmp_path / "o"
        code = main(["--config", str(cfg), "--out", str(out), "ingest"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: schema fields 'target_h' and 'target_s' both map to "
            "column 'target_s'\n")
        assert not out.exists()

    def test_ingest_that_keeps_no_round_fails(self, fixture_corpus,
                                              tmp_path, capsys):
        # Percent-scale saturations and lightnesses read as fractions
        # are out of range: every row is rejected.
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {fixture_corpus.csv}\n"
                       f"hsl_scale = fraction\n")
        out = tmp_path / "o"
        code = main(["--config", str(cfg), "--out", str(out), "ingest"])
        err = capsys.readouterr().err
        assert code == 2
        n_rows = fixture_corpus.n_raw + fixture_corpus.n_rejects
        match = re.fullmatch(
            rf"error: {re.escape(str(fixture_corpus.csv))}: no round kept: "
            rf"{n_rows} rows, {n_rows} rejected, 0 dropped as unsolved or "
            rf"not one token; most common reject reason \((\d+) rows\): "
            rf"(saturation|lightness) outside \[0, 1\]\n", err)
        assert match, err
        # the count is the check's, over every value it refused
        _, rejects = ingest(fixture_corpus.csv, hsl_scale="fraction")
        assert int(match[1]) == sum(
            re.fullmatch(rf"{match[2]} \d+\.0 outside \[0, 1\]", r.reason)
            is not None for r in rejects) > 64
        assert not out.exists()

    def test_info_without_a_word_at_min_count_fails(self, pipeline, tmp_path,
                                                    capsys):
        with open(pipeline.out / "clean_rounds.tsv",
                  encoding="utf-8") as handle:
            rounds = read_clean_rounds(handle)
        counts = Counter(rounds.vocab[w] for w in rounds.word_ids.tolist())
        (word, largest), = counts.most_common(1)
        out = tmp_path / "out"
        out.mkdir()
        shutil.copy(pipeline.out / "clean_rounds.tsv", out)
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {pipeline.corpus.csv}\n"
                       f"min_count = {largest + 1}\n")
        message = (f"error: no word reaches min_count={largest + 1}: the "
                   f"most frequent, {word!r}, names {largest} rounds\n")
        code = main(["--config", str(cfg), "--out", str(out), "info"])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (out / "word_info.tsv").exists()
        code = main(["--config", str(cfg), "--out", str(out), "plot",
                     "--kind", "denotations"])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not (out / "plot_denotations.svg").exists()

    def test_missing_column_names_it(self, tmp_path, capsys):
        src = tmp_path / "narrow.csv"
        src.write_text("game_id,round_index,utterance\n")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {src}\n")
        code = main(["--config", str(cfg), "--out", str(tmp_path / "o"),
                     "ingest"])
        assert code == 2
        assert "listener_correct" in capsys.readouterr().err

    def test_word_with_zero_spread_is_named(self, fixture_corpus, tmp_path,
                                            capsys):
        # Repeated ten times, a word said once on one chip reaches the
        # threshold with ten identical chips.
        lines = fixture_corpus.csv.read_text("utf-8").splitlines(
            keepends=True)
        big = tmp_path / "rounds_x10.csv"
        big.write_text(lines[0] + "".join(lines[1:]) * 10, encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {big}\nseed = {fixture_corpus.seed}\n"
                       f"min_count = {fixture_corpus.min_count}\n")
        args = ["--config", str(cfg), "--out", str(tmp_path / "o")]
        assert main(args + ["ingest"]) == 0
        capsys.readouterr()
        code = main(args + ["info"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == ("error: word 'purpel' (10 chips): all chips "
                       "identical; spread is zero\n")

    def test_stage_order_enforced(self, fixture_corpus, tmp_path, capsys):
        code = main(["--config", str(fixture_corpus.config),
                     "--out", str(tmp_path / "fresh"), "info"])
        assert code == 2
        assert "ingest" in capsys.readouterr().err
        code = main(["--config", str(fixture_corpus.config),
                     "--out", str(tmp_path / "fresh2"), "simulate"])
        assert code == 2

    def test_words_only_for_the_denotation_plot(self, pipeline, tmp_path,
                                                capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        (out / "plot_ease_vs_iw.svg").unlink()
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *PLOT_EASE, "--words", "zzz"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --words applies only to --kind denotations\n")
        assert not (out / "plot_ease_vs_iw.svg").exists()

    def test_unknown_plot_word(self, pipeline, capsys):
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(pipeline.out),
                     "plot", "--kind", "denotations", "--words", "sparkle"])
        assert code == 2
        err = capsys.readouterr().err
        assert "sparkle" in err
        assert "blue" in err  # lists what is available

    def test_bad_stimulus_split(self, pipeline, capsys):
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(pipeline.out),
                     "stimuli", "--n", "7", "--bins", "10"])
        assert code == 2
        assert "divide" in capsys.readouterr().err

    def test_nonpositive_bins_say_so(self, pipeline, capsys):
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(pipeline.out),
                     "stimuli", "--bins", "-1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: bins must be positive, got -1\n"

    def test_empty_word_list(self, pipeline, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        (out / "plot_denotations.svg").unlink()
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out),
                     "plot", "--kind", "denotations", "--words", ","])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --words names no word")
        assert not (out / "plot_denotations.svg").exists()

    @pytest.mark.parametrize("bad", ["corpus", "config", "spellmap"])
    def test_non_utf8_input_names_the_line(self, fixture_corpus, tmp_path,
                                           capsys, bad):
        paths = {"corpus": tmp_path / "rounds.csv",
                 "config": tmp_path / "run.ini",
                 "spellmap": tmp_path / "spellmap.txt"}
        texts = {
            "corpus": fixture_corpus.csv.read_bytes(),
            "config": (f"[run]\ninput = {paths['corpus']}\n"
                       f"language = english\n"
                       f"spellmap = {paths['spellmap']}\n").encode(),
            "spellmap": b"# fixes\nblu blue\nrd red\n",
        }
        for name, text in texts.items():
            lines = text.splitlines(keepends=True)
            if name == bad:  # end line 3 with a byte UTF-8 never starts
                lines[2] = lines[2].rstrip(b"\r\n") + b"\xff\n"
            paths[name].write_bytes(b"".join(lines))
        out = tmp_path / "o"
        code = main(["--config", str(paths["config"]), "--out", str(out),
                     "ingest"])
        assert code == 2
        assert capsys.readouterr().err == (f"error: {paths[bad]}:3: not "
                                           f"UTF-8: byte 0xff (invalid "
                                           f"start byte)\n")
        assert not out.exists()

    def test_non_utf8_stage_table_names_the_file(self, pipeline, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        table = out / "clean_rounds.tsv"
        table.write_bytes(table.read_bytes().replace(b"\t", b"\t\xff", 1))
        before = (out / "word_info.tsv").read_bytes()
        code = main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), "info"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {table}:2: not UTF-8: byte 0xff")
        assert (out / "word_info.tsv").read_bytes() == before


def _argv_id(argv) -> str:
    return " ".join(argv)


class TestStageTable:
    """The reads and writes each `cli.STAGES` entry declares are the
    files the stage reads and writes, and the stages that free their
    rounds table do so before their heaviest call."""

    def _run(self, pipeline, out, tables, argv) -> int:
        out.mkdir()
        for table in tables:
            shutil.copy(pipeline.out / table, out)
        return main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *argv])

    @pytest.mark.parametrize("stage", STAGE_TABLE,
                             ids=lambda s: _argv_id(s.argv))
    def test_reads_and_writes_are_facts(self, pipeline, tmp_path, stage):
        out = tmp_path / "out"
        assert self._run(pipeline, out, stage.reads, stage.argv) == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(
            stage.reads + stage.writes)

    @pytest.mark.parametrize("stage, table", [
        (stage, table) for stage in STAGE_TABLE for table in stage.reads
    ], ids=lambda v: v if isinstance(v, str) else _argv_id(v.argv))
    def test_missing_table_names_its_stage(self, pipeline, tmp_path, capsys,
                                           stage, table):
        out = tmp_path / "out"
        kept = [t for t in stage.reads if t != table]
        assert self._run(pipeline, out, kept, stage.argv) == 2
        producer, = (s.argv[0] for s in STAGE_TABLE if table in s.writes)
        assert capsys.readouterr().err == (
            f"error: {out / table} not found; run `colorlex {producer}` "
            f"first\n")
        assert sorted(p.name for p in out.iterdir()) == sorted(kept)

    @pytest.mark.parametrize("argv, module, name", [
        (("info",), cli, "compute_word_infos"),
        (REGRESS_ALL, regress, "fit_ols"),
        (REGRESS_REPEATED, regress, "fit_ols"),
        (PLOT_DENOTATIONS, svgplot, "denotation_plot"),
        (PLOT_EASE, regress, "fit_ols"),
    ], ids=["info", "regress-all", "regress-repeated", "plot-denotations",
            "plot-ease_vs_iw"])
    def test_rounds_freed_before_heaviest_call(self, pipeline, tmp_path,
                                               monkeypatch, argv, module,
                                               name):
        tables, alive = [], []
        read, heaviest = corpus.read_clean_rounds, getattr(module, name)

        def reading(handle):
            table = read(handle)
            tables.append(weakref.ref(table))
            return table

        def entering(*args, **kwargs):
            alive.append([ref() is not None for ref in tables])
            return heaviest(*args, **kwargs)

        monkeypatch.setattr(corpus, "read_clean_rounds", reading)
        monkeypatch.setattr(module, name, entering)
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        assert main(["--config", str(pipeline.corpus.config),
                     "--out", str(out), *argv]) == 0
        assert alive == [[False]]

    def test_perfbench_stage_list_matches_the_table(self, monkeypatch):
        """perfbench/run.py keeps its own copy of the stage list: the
        same invocations, where options past an entry's argv are the
        defaults, and the same files written."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
        monkeypatch.setattr(sys, "path", list(sys.path))  # run.py adds one
        spec = importlib.util.spec_from_file_location("perfbench_run", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        parser = cli._build_parser()
        assert len(bench.STAGES) == len(STAGE_TABLE)
        assert list(bench.STAGE_FILES) == [name for name, _ in bench.STAGES]
        for (name, argv), stage in zip(bench.STAGES, STAGE_TABLE):
            assert argv[:len(stage.argv)] == stage.argv, name
            assert parser.parse_args(["--config", "c", *argv]) == \
                parser.parse_args(["--config", "c", *stage.argv]), name
            assert bench.STAGE_FILES[name] == stage.writes, name


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, fixture_corpus, tmp_path,
                                              monkeypatch, capsys):
        out = tmp_path / "o"
        for step in (["ingest"], ["info"], ["stimuli"]):
            assert main(["--config", str(fixture_corpus.config),
                         "--out", str(out)] + step) == 0
        before = (out / "stimuli.tsv").read_bytes()

        def broken(handle, stimuli, header_comment):
            handle.write(header_comment + "\n")
            raise OSError("disk full")

        monkeypatch.setattr(simulate, "write_stimuli", broken)
        assert main(["--config", str(fixture_corpus.config),
                     "--out", str(out), "stimuli"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert (out / "stimuli.tsv").read_bytes() == before
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


class TestDegenerateCorpora:
    @pytest.fixture()
    def failed_only(self, tmp_path):
        src = tmp_path / "failed.csv"
        with open(src, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(
                ["game_id", "round_index", "utterance",
                 "target_h", "target_s", "target_l",
                 "distractor1_h", "distractor1_s", "distractor1_l",
                 "distractor2_h", "distractor2_s", "distractor2_l",
                 "listener_correct", "speaker_id"]
            )
            for i in range(5):
                writer.writerow(
                    ["g1", i, "blue", 230, 80, 50, 0, 80, 50, 60, 80, 50,
                     "false", "s1"]
                )
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {src}\nmin_count = 1\n")
        out = tmp_path / "o"
        # `ingest` refuses a run that keeps no round, so the empty tables
        # a stale or hand-made directory may hold are written here.
        assert main(["--config", str(cfg), "--out", str(out), "ingest"]) == 2
        header = header_line(load_config(cfg))
        rounds = clean(ingest(src)[0])
        assert not len(rounds)
        out.mkdir()
        with open(out / "clean_rounds.tsv", "w", encoding="utf-8") as handle:
            write_clean_rounds(handle, rounds, header)
        with open(out / "word_info.tsv", "w", encoding="utf-8") as handle:
            write_word_infos(handle, [], header)
        return SimpleNamespace(cfg=cfg, out=out)

    def test_empty_plots_still_render(self, failed_only):
        # the ease plot only: the denotation plot fails as `info` does
        code = main(["--config", str(failed_only.cfg),
                     "--out", str(failed_only.out),
                     "plot", "--kind", "ease_vs_iw"])
        assert code == 0
        text = (failed_only.out / "plot_ease_vs_iw.svg").read_text()
        assert "no data" in text

    def test_denotation_plot_without_a_word_fails_like_info(
            self, failed_only, capsys):
        args = ["--config", str(failed_only.cfg),
                "--out", str(failed_only.out)]
        assert main(args + ["info"]) == 2
        message = capsys.readouterr().err
        assert message == "error: no word reaches min_count=1: no clean round\n"
        assert main(args + ["plot", "--kind", "denotations"]) == 2
        assert capsys.readouterr().err == message
        assert not (failed_only.out / "plot_denotations.svg").exists()

    def test_simulation_needs_referents(self, failed_only, capsys):
        code = main(["--config", str(failed_only.cfg),
                     "--out", str(failed_only.out), "simulate"])
        assert code == 2
        assert "referent" in capsys.readouterr().err

    def test_ease_plot_without_a_fit_draws_no_line(self, pipeline, tmp_path,
                                                   capsys):
        # Each round's first distractor made its target, so every ease
        # is 0: the fit is undefined, so the plot draws every point and
        # no line, while `regress` says why it cannot fit.
        out = tmp_path / "out"
        shutil.copytree(pipeline.out, out)
        path = out / "clean_rounds.tsv"
        lines = path.read_text(encoding="utf-8").split("\n")
        target, d1 = map(lines[1].split("\t").index, ("target_key", "d1_key"))
        for r in range(2, len(lines) - 1):
            fields = lines[r].split("\t")
            fields[d1] = fields[target]
            lines[r] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        args = ["--config", str(pipeline.corpus.config), "--out", str(out)]
        assert main(args + ["plot", "--kind", "ease_vs_iw"]) == 0
        svg = (out / "plot_ease_vs_iw.svg").read_text(encoding="utf-8")
        fitted = (pipeline.out / "plot_ease_vs_iw.svg").read_text(
            encoding="utf-8")
        assert svg.count("<circle") == fitted.count("<circle") > 0
        assert 'stroke="#aa3333"' in fitted
        assert 'stroke="#aa3333"' not in svg
        capsys.readouterr()
        assert main(args + ["regress"]) == 2
        assert "predictor is constant" in capsys.readouterr().err


class TestConfigParsing:
    def test_tab_delimiter_alias(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ninput = x.tsv\ndelimiter = tab\n")
        assert load_config(cfg).delimiter == "\t"

    def test_language_default_min_count(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ninput = x.csv\nlanguage = Chinese\n")
        loaded = load_config(cfg)
        assert loaded.language == "chinese"
        assert loaded.min_count == 5

    def test_unknown_language_needs_min_count(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ninput = x.csv\nlanguage = klingon\n")
        with pytest.raises(ConfigError, match="min_count"):
            load_config(cfg)
        cfg.write_text(
            "[run]\ninput = x.csv\nlanguage = klingon\nmin_count = 4\n"
        )
        assert load_config(cfg).min_count == 4

    def test_schema_section_round_trip(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\ninput = x.csv\n"
            "[schema]\nutterance = contents\nspeaker_id =\n"
        )
        loaded = load_config(cfg)
        assert loaded.schema["utterance"] == "contents"
        assert loaded.schema["speaker_id"] is None
        assert loaded.schema["game_id"] == "game_id"

    def test_hash_ignores_out_dir(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ninput = x.csv\nout = somewhere\n")
        a = load_config(cfg)
        assert config_hash(a) == config_hash(with_overrides(a, None, "else"))
        assert config_hash(a) != config_hash(with_overrides(a, 123, None))


    def test_readme_example_loads(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        text = readme.read_text(encoding="utf-8")
        cfg = tmp_path / "run.ini"
        cfg.write_text(text.split("```ini\n")[1].split("```")[0])
        loaded = load_config(cfg)
        assert (loaded.language, loaded.min_count) == ("english", 10)
        assert loaded.schema["utterance"] == "contents"
        assert loaded.schema["speaker_id"] is None

    @pytest.mark.parametrize("text", [
        "[run]\ninput = a.csv\ninput = b.csv\n",
        "[run]\ninput = a.csv\n[run]\nseed = 1\n",
        "input = a.csv\n[run]\n",
    ], ids=["repeated_key", "repeated_section", "no_section_header"])
    def test_ini_syntax_errors_name_the_file(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"{cfg}: ")):
            load_config(cfg)
        assert main(["--config", str(cfg), "ingest"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sampling,message", [
        ("max_exact = 50\nsample_size = 80", "sample_size"),
        ("iterations = 0", "iterations"),
        ("max_exact = 1", "max_exact"),
    ], ids=["sample_size_over_max_exact", "zero_iterations", "max_exact_1"])
    def test_sampling_bounds_fail_before_any_stage(
            self, fixture_corpus, tmp_path, capsys, sampling, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ninput = {fixture_corpus.csv}\n"
                       f"[sampling]\n{sampling}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(cfg)
        out = tmp_path / "o"
        assert main(["--config", str(cfg), "--out", str(out), "ingest"]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_pinned_digests(self, tmp_path):
        # A config that sets every key; its digests must never move.
        cfg = tmp_path / "run.ini"
        cfg.write_text(FULL_CONFIG)
        loaded = load_config(cfg)
        assert config_hash(loaded) == "d5ff15303335"
        assert header_line(with_overrides(loaded, 7, "x")) == \
            "# colorlex config=ae6a1c6fbbe1 seed=7"

    def test_every_setting_but_out_changes_the_digest(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(FULL_CONFIG)
        base = load_config(cfg)
        for f in fields(RunConfig):
            value = getattr(base, f.name)
            if f.name == "schema":
                changed = {**value, "utterance": "other"}
            elif isinstance(value, int):
                changed = value + 1
            else:
                changed = value + "x"
            other = config_hash(replace(base, **{f.name: changed}))
            assert (other == config_hash(base)) == (f.name == "out"), f.name


FULL_CONFIG = """\
[run]
input = corpus.tsv
language = Chinese
delimiter = tab
hsl_scale = fraction
spellmap = fixes.txt
min_count = 3
seed = 42
out = elsewhere

[schema]
game_id = gameid
round_index = roundNum
utterance = contents
listener_correct = outcome
speaker_id =
target_h = clickColH
target_s = clickColS
target_l = clickColL
distractor1_h = alt1ColH
distractor1_s = alt1ColS
distractor1_l = alt1ColL
distractor2_h = alt2ColH
distractor2_s = alt2ColS
distractor2_l = alt2ColL

[sampling]
max_exact = 150
sample_size = 60
iterations = 12
"""


class TestReadmeLibraryExample:
    def test_submodules_are_not_shadowed(self):
        import colorlex

        for name in ("corpus", "informativeness", "regress", "simulate"):
            assert isinstance(getattr(colorlex, name), ModuleType), name

    def test_runs_on_fixture(self, fixture_corpus, capsys):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        library = readme.read_text(encoding="utf-8").split("## Library")[1]
        code = library.split("```python\n")[1].split("```")[0]
        assert '"corpus.csv"' in code
        code = code.replace('"corpus.csv"', repr(str(fixture_corpus.csv)))
        exec(compile(code, "README.md (Library)", "exec"), {})
        out = capsys.readouterr().out
        assert "informativeness ~ ease (random_intercept)" in out
        assert [line.split()[0] for line in out.splitlines()[-3:]] == \
            ["actual", "general_only", "specific_only"]


def _traced_counts(config, out, spans, *stage) -> dict:
    """Run one stage under perfbench/traced_stage.py, which must exit 0;
    the counts it wrote to `spans`."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "traced_stage.py"),
         str(spans), "--config", str(config), "--out", str(out), *stage],
        env=env, cwd=root, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(spans.read_text("utf-8"))["counts"]


def _chip_round_counts(out) -> tuple[Counter, Counter]:
    """From clean_rounds.tsv and word_info.tsv as text: how many rounds
    name each target chip, and how many of them use a word that has an
    informativeness entry."""
    known = {row["word"] for row in _tsv_rows(out / "word_info.tsv")}
    every, with_info = Counter(), Counter()
    for row in _tsv_rows(out / "clean_rounds.tsv"):
        every[row["target_key"]] += 1
        with_info[row["target_key"]] += row["word"] in known
    return every, with_info


def _tsv_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        next(handle)  # the header comment
        yield from csv.DictReader(handle, delimiter="\t")


class TestTraceContract:
    """perfbench/traced_stage.py wraps the package's functions from
    outside and counts what they take and return; its counts must be
    the stages' own."""

    def test_ingest_counts_match_ingest_json(self, fixture_corpus, tmp_path):
        out = tmp_path / "out"
        counts = _traced_counts(fixture_corpus.config, out,
                                tmp_path / "spans.json", "ingest")
        report = json.loads((out / "ingest.json").read_text("utf-8"))
        assert {name: counts[name] for name in (
            "corpus.raw_rows", "corpus.rejected_rows", "corpus.clean_rows",
            "colorspace.conversions")} == {
            "corpus.raw_rows": report["n_raw"],
            "corpus.rejected_rows": report["n_rejected"],
            "corpus.clean_rows": report["n_clean"],
            "colorspace.conversions": 3 * report["n_clean"],
        }

    def test_info_counts_match_word_info(self, fixture_corpus, tmp_path):
        """The words the trace counts from `cli.compute_word_infos`, and
        those it subsampled, are the rows of word_info.tsv."""
        # a max_exact at which some of the fixture's words are subsampled
        config = tmp_path / "run.ini"
        config.write_text(fixture_corpus.config.read_text("utf-8")
                          + "[sampling]\nmax_exact = 60\nsample_size = 20\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out),
                     "ingest"]) == 0
        counts = _traced_counts(config, out, tmp_path / "spans.json", "info")
        rows = list(_tsv_rows(out / "word_info.tsv"))
        sampled = sum(row["sampled"] == "1" for row in rows)
        assert (counts["informativeness.words"],
                counts["informativeness.sampled_words"]) == (len(rows),
                                                             sampled)
        assert 0 < sampled < len(rows)

    def test_regression_counts_match_fits(self, fixture_corpus, tmp_path):
        """The groups the trace counts over the table each fit takes equal
        the fit's own n_groups and a count made from the stage tables."""
        out = tmp_path / "out"
        for stage in (("ingest",), ("info",)):
            assert main(["--config", str(fixture_corpus.config),
                         "--out", str(out), *stage]) == 0
        every, with_info = _chip_round_counts(out)
        expected = {
            "all": (sum(n > 0 for n in with_info.values()),
                    sum(n >= 2 for n in with_info.values())),
            "repeated": (
                sum(n > 0 and every[k] >= 2 for k, n in with_info.items()),
                sum(n >= 2 for n in with_info.values())),
        }
        for subset in ("all", "repeated"):
            counts = _traced_counts(
                fixture_corpus.config, out, tmp_path / f"{subset}.json",
                "regress", "--subset", subset)
            fit = json.loads(
                (out / f"fit_{subset}.json").read_text("utf-8"))
            assert counts["regress.groups"] == \
                fit["random_intercept"]["n_groups"]
            assert (counts["regress.groups"],
                    counts["regress.multi_row_groups"]) == expected[subset]
        assert expected["repeated"][0] < expected["all"][0]
        counts = _traced_counts(fixture_corpus.config, out,
                                tmp_path / "ease.json", *PLOT_EASE)
        assert counts["svgplot.svg_bytes"] == len(
            (out / "plot_ease_vs_iw.svg").read_bytes())

    def test_simulation_counts_match_report(self, fixture_corpus, tmp_path):
        """The referents the trace counts, and the ordered pairs the
        kernel plays over the three lexicons, are the stage's own."""
        out = tmp_path / "out"
        for stage in (("ingest",), ("info",)):
            assert main(["--config", str(fixture_corpus.config),
                         "--out", str(out), *stage]) == 0
        counts = _traced_counts(fixture_corpus.config, out,
                                tmp_path / "spans.json", "simulate")
        report = json.loads((out / "simulation.json").read_text("utf-8"))
        assert counts["simulate.referents"] == \
            report["report"]["n_referents"] > 2
        assert counts["kernels.simulate_pairs"] == sum(
            r["n_interactions"] for r in report["results"].values())
