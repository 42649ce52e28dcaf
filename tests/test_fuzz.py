"""Seeded fuzz gate over the stage tables.

The fixture pipeline runs once. Then seeded edits are made to its
`clean_rounds.tsv` and `word_info.tsv`, each in a copy of the output
directory, and every stage that reads the edited table runs on the copy
through `cli.main`, in pipeline order. Each stage must return 0, or
return 2 having printed exactly one `error:` line; an exception that
escapes `main` fails the gate. The edits come from a fixed seed and no
Hypothesis shrinking is involved, so the gate takes a few seconds and a
failure names the edit that caused it.
"""

import random
import shutil
import traceback

import pytest

from colorlex.cli import main

_ALL = ["regress", "--subset", "all"]
_REPEATED = ["regress", "--subset", "repeated"]
_DENOTATIONS = ["plot", "--kind", "denotations"]
_EASE = ["plot", "--kind", "ease_vs_iw"]

# The stages that read each table, in pipeline order: `info` rewrites
# word_info.tsv from an edited clean_rounds.tsv before the others read it.
READERS = {
    "clean_rounds.tsv": (["info"], _ALL, _REPEATED, ["simulate"],
                         ["stimuli"], _DENOTATIONS, _EASE),
    "word_info.tsv": (_ALL, _REPEATED, ["simulate"], ["stimuli"], _EASE),
}

# Values a single edited field, or a whole column, is set to: huge and
# non-finite numbers, an empty field, comment- and header-like text, a
# number too long for int64, a chip-key-like text and a small integer.
FIELD_VALUES = ("1e308", "-1e308", "1e200", "nan", "inf", "", "#", "word",
                "1" * 25, "x:y:z", "7")
KINDS = ("field", "field", "field", "uniform", "drop", "duplicate",
         "truncate", "cut")
EDITS_PER_TABLE = 30


def _edited(text: str, rng: random.Random) -> tuple[str, str]:
    """A seeded edit of a stage table's text, and a description of it."""
    lines = text.split("\n")
    head, rows = lines[:2], lines[2:-1]  # the text ends with a line break
    columns = head[1].split("\t")
    r, c = rng.randrange(len(rows)), rng.randrange(len(columns))
    kind = rng.choice(KINDS)
    end = "\n"
    if kind == "field":
        value = rng.choice(FIELD_VALUES)
        fields = rows[r].split("\t")
        fields[c] = value
        rows[r] = "\t".join(fields)
        what = f"row {r} {columns[c]} = {value!r}"
    elif kind == "uniform":
        value = rng.choice(FIELD_VALUES + (rows[r].split("\t")[c],))
        rows = [row.split("\t") for row in rows]
        for fields in rows:
            fields[c] = value
        rows = ["\t".join(fields) for fields in rows]
        what = f"every {columns[c]} = {value!r}"
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
    return "\n".join(head + rows) + end, what


@pytest.fixture(scope="module")
def pipeline(fixture_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz") / "out"
    for stage in (["ingest"], ["info"], *READERS["clean_rounds.tsv"][1:]):
        code = main(["--config", str(fixture_corpus.config),
                     "--out", str(out), *stage])
        assert code == 0, f"stage {stage} exited {code}"
    return out


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
        for stage in READERS[table]:
            name = " ".join(stage)
            try:
                code = main(["--config", str(fixture_corpus.config),
                             "--out", str(out), *stage])
            except Exception:  # the gate reports every edit, then fails
                failures.append(f"{what}: {name} raised\n"
                                f"{traceback.format_exc()}")
                continue
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines()
                      if line.startswith("error:")]
            if (code, len(errors)) not in ((0, 0), (2, 1)):
                failures.append(f"{what}: {name} exited {code}: {err!r}")
    assert not failures, "\n".join(failures)
