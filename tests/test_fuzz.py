"""Seeded fuzz gate over the stage tables, the corpus CSV and the config.

The fixture pipeline runs once. Then seeded edits are made to its
`clean_rounds.tsv` and `word_info.tsv`, each in a copy of the output
directory, and every stage that reads the edited table runs on the copy
through `cli.main`, in pipeline order. Seeded edits of the fixture
corpus CSV, and a fixed list of config edits, run `ingest` and then each
later stage for as long as they return 0. Each stage must return 0, or
return 2 having printed exactly one `error:` line; an exception that
escapes `main` fails the gate. The edits come from a fixed seed and no
Hypothesis shrinking is involved, so the gate takes a few seconds and a
failure names the edit that caused it.
"""

import random
import shutil
import traceback

import pytest
from conftest import READERS, STAGES, run_stages

from colorlex.cli import main

# Values a single edited field, or a whole column, of a stage table is
# set to: huge and non-finite numbers, an empty field, comment- and
# header-like text, a number too long for int64, a chip-key-like text
# and a small integer.
FIELD_VALUES = ("1e308", "-1e308", "1e200", "nan", "inf", "", "#", "word",
                "1" * 25, "x:y:z", "7")
KINDS = ("field", "field", "field", "uniform", "drop", "duplicate",
         "truncate", "cut")
EDITS_PER_TABLE = 30

# The same for a corpus CSV field: huge and non-finite numbers, an empty
# field, a lone and a doubled quote, a quoted and a bare delimiter, NUL,
# a number too long for int64, a byte that is not UTF-8 (written through
# surrogateescape), out-of-range hue and lightness, a boolean, and a
# field over the csv module's limit.
LONG_FIELD = "x" * 200_000
CORPUS_VALUES = ("1e308", "-1e308", "nan", "inf", "", '"', '""', '"a,b"',
                 "a,b", "\x00", "1" * 25, "\udcff", "-5", "361", "true",
                 LONG_FIELD)
# A corpus header column is renamed to one of these, or to another
# column's name.
HEADER_VALUES = ("", "x", '"', "\ufeffgame_id")
CORPUS_KINDS = KINDS[:4] + ("header",) + KINDS[4:]
CORPUS_EDITS = 50


def _edited(text: str, rng: random.Random, values=FIELD_VALUES, kinds=KINDS,
            sep="\t", newline="\n", n_head=2) -> tuple[str, str]:
    """A seeded edit of a delimited text, whose last head line names the
    columns, and a description of it."""
    lines = text.split(newline)
    head, rows = lines[:n_head], lines[n_head:-1]  # it ends with newline
    columns = head[-1].split(sep)
    r, c = rng.randrange(len(rows)), rng.randrange(len(columns))
    kind = rng.choice(kinds)
    end = newline
    if kind == "field":
        value = rng.choice(values)
        fields = rows[r].split(sep)
        fields[c] = value
        rows[r] = sep.join(fields)
        what = f"row {r} {columns[c]} = {value[:30]!r}"
    elif kind == "uniform":
        # A whole column of LONG_FIELD would be a file of 200 MB.
        value = rng.choice(tuple(v for v in values if v is not LONG_FIELD)
                           + (rows[r].split(sep)[c],))
        rows = [row.split(sep) for row in rows]
        for fields in rows:
            fields[c] = value
        rows = [sep.join(fields) for fields in rows]
        what = f"every {columns[c]} = {value!r}"
    elif kind == "header":
        value = rng.choice(HEADER_VALUES + tuple(columns))
        what = f"header {columns[c]} renamed {value!r}"
        columns[c] = value
        head[-1] = sep.join(columns)
    elif kind == "drop":
        del rows[r]
        what = f"row {r} dropped"
    elif kind == "duplicate":
        rows.insert(r, rows[r])
        what = f"row {r} duplicated"
    else:
        cut = rng.randrange(len(rows[r]))
        rows[r] = rows[r][:cut]
        if kind == "cut":  # the file ends inside the row
            rows, end = rows[:r + 1], ""
        what = f"row {r} {kind} after {cut} characters"
    return newline.join(head + rows) + end, what


@pytest.fixture(scope="module")
def pipeline(fixture_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "out"
    run_stages(fixture_corpus.config, out)
    return out


def _failures(config, out, stages, capsys, what, chain=False):
    """Run `stages` on `out` through `main`; each must return 0, or 2
    with one `error:` line. Returns the failures, each led by `what`.
    With `chain`, the stages after the first that does not return 0 are
    not run."""
    failures = []
    for stage in stages:
        name = " ".join(stage)
        code = None
        try:
            code = main(["--config", str(config), "--out", str(out), *stage])
        except Exception:  # the gate reports every edit, then fails
            failures.append(f"{what}: {name} raised\n"
                            f"{traceback.format_exc()}")
        else:
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines()
                      if line.startswith("error:")]
            if (code, len(errors)) not in ((0, 0), (2, 1)):
                failures.append(f"{what}: {name} exited {code}: {err!r}")
        if chain and code != 0:
            break
    return failures


@pytest.mark.parametrize("table", sorted(READERS))
def test_no_edit_escapes_main(pipeline, fixture_corpus, tmp_path, capsys,
                              table):
    rng = random.Random(f"fuzz {table}")
    text = (pipeline / table).read_text(encoding="utf-8")
    failures = []
    for k in range(EDITS_PER_TABLE):
        edited, what = _edited(text, rng)
        out = tmp_path / str(k)
        shutil.copytree(pipeline, out)
        (out / table).write_text(edited, encoding="utf-8")
        failures += _failures(fixture_corpus.config, out, READERS[table],
                              capsys, what)
    assert not failures, "\n".join(failures)


def test_no_corpus_edit_escapes_main(fixture_corpus, tmp_path, capsys):
    rng = random.Random("fuzz corpus")
    text = fixture_corpus.csv.read_bytes().decode("utf-8")
    failures = []
    for k in range(CORPUS_EDITS):
        edited, what = _edited(text, rng, CORPUS_VALUES, CORPUS_KINDS, ",",
                               "\r\n", 1)
        corpus = tmp_path / f"{k}.csv"
        corpus.write_text(edited, encoding="utf-8", errors="surrogateescape",
                          newline="")
        config = tmp_path / f"{k}.ini"
        config.write_text(f"[run]\ninput = {corpus}\nseed = 7\n",
                          encoding="utf-8")
        failures += _failures(config, tmp_path / str(k), STAGES, capsys,
                              what, chain=True)
    assert not failures, "\n".join(failures)


# Config edits: a [run] key set to a value, or dropped (None), then
# whole sections added. None of them makes a stage run without end: the
# sampling settings stay small enough to finish on the fixture corpus.
RUN_EDITS = (
    ("seed", "x"), ("seed", "-1"), ("seed", "1" * 25), ("seed", "7.0"),
    ("seed", None), ("min_count", "0"), ("min_count", "-3"),
    ("min_count", "1"), ("min_count", "1" * 25), ("min_count", "ten"),
    ("language", "chinese"), ("language", "klingon"), ("language", ""),
    ("input", None), ("input", ""), ("input", "missing.csv"),
    ("input", "."), ("input", "{config}"), ("delimiter", ";"),
    ("delimiter", "tab"), ("delimiter", ",,"), ("delimiter", '"'),
    ("delimiter", ""), ("hsl_scale", "fraction"), ("hsl_scale", "degrees"),
    ("spellmap", "missing.txt"), ("spellmap", "{corpus}"),
    ("colour", "red"),
)
SECTION_EDITS = (
    "[extra]\nx = 1", "[run]\nseed = 8", "[schema]\ngame_id =",
    "[schema]\nspeaker_id =", "[schema]\ntarget_h = target_s",
    "[schema]\ntarget_h = missing", "[schema]\ncolour = x",
    "[sampling]\nmax_exact = 1", "[sampling]\nsample_size = 1",
    "[sampling]\niterations = 0",
    "[sampling]\nmax_exact = 2\nsample_size = 2",
    "[sampling]\nmax_exact = " + "1" * 25, "[sampling]\nsample_size = 101",
    "[sampling]\nmax_exact = 1e3", "[sampling]\niterations = 3",
)


def _config_edits(corpus, config):
    """Each config edit's text and a description of it."""
    run = {"input": str(corpus), "seed": "7"}

    def ini(settings):
        return "[run]\n" + "".join(f"{k} = {v}\n" for k, v in settings.items())

    for key, value in RUN_EDITS:
        edited = {k: v for k, v in run.items() if k != key}
        if value is not None:
            edited[key] = value.format(config=config, corpus=corpus)
        yield ini(edited), f"{key} = {value!r}"
    for section in SECTION_EDITS:
        yield ini(run) + section + "\n", repr(section)


def test_no_config_edit_escapes_main(fixture_corpus, tmp_path, capsys):
    failures = []
    config = tmp_path / "run.ini"
    for k, (text, what) in enumerate(_config_edits(fixture_corpus.csv,
                                                   config)):
        config.write_text(text, encoding="utf-8")
        failures += _failures(config, tmp_path / str(k), STAGES, capsys,
                              what, chain=True)
    assert not failures, "\n".join(failures)
