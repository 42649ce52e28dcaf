"""Command-line pipeline.

Stages communicate through files in the output directory, so each can
be rerun independently. `STAGES` is the one list of the stage
invocations, in pipeline order: each entry gives the command line, the
stage tables it reads and the files it writes. The parser and the
tests' stage lists are built from it.

All outputs are deterministic for a given configuration and seed; the
header of every file records both.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

# Before numpy is imported: its bundled OpenBLAS starts a worker thread
# pool at import, and that idle pool costs every stage process CPU.
# The CLI owns its process and makes no BLAS call, so one thread is
# all it needs; a value the caller set still wins. OpenBLAS reads an
# empty value as unset. A library user who imports colorlex directly
# keeps their own BLAS threading.
if not os.environ.get("OPENBLAS_NUM_THREADS"):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import corpus, regress, simulate, svgplot
from .config import (
    RunConfig,
    config_hash,
    header_line,
    load_config,
    with_overrides,
)
from .errors import ColorlexError, not_utf8
from .informativeness import (
    compute_word_infos,
    derive_seed,
    read_word_infos,
    write_word_infos,
)

__all__ = ["STAGES", "Stage", "main"]

ROUNDS = "clean_rounds.tsv"
INFOS = "word_info.tsv"


def _write(cfg: RunConfig, name: str, fill) -> Path:
    """Write an output file through fill(handle), replacing it only once
    fill has returned, so a failed stage never leaves a partial file."""
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    tmp = out / f".{name}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            fill(handle)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _write_json(cfg: RunConfig, name: str, payload: dict) -> Path:
    body = {"_config": config_hash(cfg), "_seed": cfg.seed, **payload}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    return _write(cfg, name, lambda handle: handle.write(text))


def _ingest(cfg: RunConfig, args, read):
    spellmap = corpus.read_spellmap(cfg.spellmap) if cfg.spellmap else None
    raw, rejects = corpus.ingest(cfg.input, cfg.schema,
                                 delimiter=cfg.delimiter,
                                 hsl_scale=cfg.hsl_scale)
    rounds = corpus.clean(raw, spellmap)
    if not len(rounds):
        reason = ""
        if rejects:
            check, n = Counter(r.check for r in rejects).most_common(1)[0]
            reason = f"; most common reject reason ({n} rows): {check}"
        raise ColorlexError(
            f"{cfg.input}: no round kept: {len(raw) + len(rejects)} rows, "
            f"{len(rejects)} rejected, {len(raw)} dropped as unsolved or "
            f"not one token{reason}")
    header = header_line(cfg)
    return (
        lambda h: corpus.write_clean_rounds(h, rounds, header),
        lambda h: corpus.write_rejects(h, rejects, header),
        {"n_raw": len(raw), "n_rejected": len(rejects),
         "n_clean": len(rounds), "n_chips": len(rounds.chip_keys)},
    ), (f"ingested {len(raw)} rounds ({len(rejects)} rejected), "
        f"{len(rounds)} clean\n")


def _denotations(cfg: RunConfig, rounds: corpus.Rounds) -> dict:
    """The denotations of the words that reach min_count; an error
    naming the most frequent word when none does."""
    denotations = corpus.build_denotations(rounds, cfg.min_count)
    if not denotations:
        top = Counter(rounds.word_ids.tolist()).most_common(1)
        raise ColorlexError(
            f"no word reaches min_count={cfg.min_count}: " + (
                f"the most frequent, {rounds.vocab[top[0][0]]!r}, names "
                f"{top[0][1]} rounds" if top else "no clean round"))
    return denotations


def _info(cfg: RunConfig, args, read):
    # the rounds, read in the call, are freed before the spreads: the
    # denotations own their chips
    denotations = _denotations(cfg, read(ROUNDS))
    infos = compute_word_infos(denotations, cfg.sampling)
    ordered = sorted(infos.values(), key=lambda w: (-w.i_w, w.word))
    return (lambda h: write_word_infos(h, ordered, header_line(cfg)),), (
        f"{len(ordered)} words at min_count={cfg.min_count} "
        f"({sum(1 for w in ordered if w.sampled)} subsampled)\n")


def _regress(cfg: RunConfig, args, read):
    rounds = read(ROUNDS)
    rows = regress.rows_from_rounds(rounds, read(INFOS))
    if args.subset == "repeated":
        rows = regress.repeated_chip_rows(rows, rounds)
    del rounds  # freed before the fits; the rows suffice
    label = f"informativeness ~ ease, subset={args.subset}"
    ols = regress.fit_ols(rows)
    mixed = regress.fit_random_intercept(rows)
    text = (header_line(cfg) + "\n" + regress.format_fit(ols, label)
            + "\n" + regress.format_fit(mixed, label))
    return (lambda h: h.write(text), {
        "subset": args.subset, "ols": asdict(ols),
        "random_intercept": asdict(mixed),
    }), regress.format_fit(mixed, label)


def _simulate(cfg: RunConfig, args, read):
    referents, report = simulate.build_entries(read(ROUNDS), read(INFOS))
    results = simulate.run_all_variants(referents)
    ordered = [results[v] for v in simulate.SystemVariant]
    return (
        lambda h: simulate.write_simulation(h, ordered, header_line(cfg)),
        {"report": report, "results": {
            r.variant.value: {
                k: v for k, v in asdict(r).items() if k != "variant"}
            for r in ordered}},
    ), "".join(f"{r.variant.value}: accuracy={r.accuracy:.4f} "
               f"i_l={r.i_l:.4f} vocab={r.vocab_size}\n" for r in ordered)


def _stimuli(cfg: RunConfig, args, read):
    rounds = read(ROUNDS)
    infos = read(INFOS)
    referents, _ = simulate.build_entries(rounds, infos)
    stimuli, report = simulate.generate_stimuli(
        rounds, referents, infos, n=args.n, bins=args.bins,
        seed=derive_seed(cfg.seed, "stimuli"))
    return (
        lambda h: simulate.write_stimuli(h, stimuli, header_line(cfg)),
        {"n": args.n, "bins": args.bins, "report": report},
    ), f"{len(stimuli)} stimuli across {args.bins} ease bins\n"


def _plot(cfg: RunConfig, args, read):
    header = header_line(cfg).lstrip("# ")
    if args.kind == "denotations":
        denotations = _denotations(cfg, read(ROUNDS))
        if args.words is not None:
            words = [w for w in args.words.split(",") if w]
            if not words:
                raise ColorlexError(f"--words names no word: {args.words!r}")
            missing = [w for w in words if w not in denotations]
            if missing:
                raise ColorlexError(f"no denotation for {missing}; "
                                    f"available: {sorted(denotations)}")
        else:
            words = sorted(
                denotations, key=lambda w: (-len(denotations[w]), w))[:6]
        svg = svgplot.denotation_plot(denotations, words, header)
    elif args.words is not None:
        raise ColorlexError("--words applies only to --kind denotations")
    else:
        rows = regress.rows_from_rounds(read(ROUNDS), read(INFOS))
        try:
            fit = regress.fit_ols(rows)
            line = (fit.intercept, fit.slope)
        except regress.FitError:  # too few rows, or no spread in ease
            line = None
        # listed once the fit's temporaries are freed: a lower peak RSS
        ease, i_w = rows.ease.tolist(), rows.i_w.tolist()
        del rows  # freed before the SVG text is built; the columns suffice
        svg = svgplot.ease_plot(ease, i_w, header, line)
    return (lambda h: h.write(svg),), None


class Stage(NamedTuple):
    """One stage invocation: `argv` is its command and option variant.

    run(cfg, args, read) reads its tables through read(name), so it can
    free each before its heaviest call, and returns one output per name
    in `writes` (a fill(handle) callable or a JSON payload dict) and the
    text to print (None: "wrote <path>"). A command's first entry gives
    its help and argparse options; a variant option's choices are its
    entries' values, the first the default.
    """

    argv: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]
    run: Callable
    help: str = ""
    options: dict = {}


STAGES = (
    Stage(("ingest",), (), (ROUNDS, "rejects.tsv", "ingest.json"), _ingest,
          "read, validate and clean the corpus"),
    Stage(("info",), (ROUNDS,), (INFOS,), _info,
          "compute word informativeness"),
    Stage(("regress", "--subset", "all"), (ROUNDS, INFOS),
          ("fit_all.txt", "fit_all.json"), _regress,
          "informativeness-on-ease random-intercept fit", {"--subset": {
              "help": "all rounds, or only targets named at least twice"}}),
    Stage(("regress", "--subset", "repeated"), (ROUNDS, INFOS),
          ("fit_repeated.txt", "fit_repeated.json"), _regress),
    Stage(("simulate",), (ROUNDS, INFOS),
          ("simulation.tsv", "simulation.json"), _simulate,
          "compare actual/general/specific lexicons"),
    Stage(("stimuli",), (ROUNDS, INFOS), ("stimuli.tsv", "stimuli.json"),
          _stimuli, "sample rounds evenly across context ease",
          {"--n": {"type": int, "default": 100,
                   "help": "number of stimuli (default 100)"},
           "--bins": {"type": int, "default": 10,
                      "help": "number of ease bins (default 10)"}}),
    Stage(("plot", "--kind", "denotations"), (ROUNDS,),
          ("plot_denotations.svg",), _plot, "render an SVG figure",
          {"--kind": {}, "--words": {
              "help": "comma-separated words for the denotation plot"}}),
    Stage(("plot", "--kind", "ease_vs_iw"), (ROUNDS, INFOS),
          ("plot_ease_vs_iw.svg",), _plot),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colorlex",
        description="Informativeness of color words and lexical systems "
                    "in reference games.",
    )
    parser.add_argument("--config", required=True,
                        help="run configuration (INI)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the configured seed")
    parser.add_argument("--out", default=None,
                        help="override the configured output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        command, *variant = stage.argv
        if command in sub.choices:
            continue
        p = sub.add_parser(command, help=stage.help)
        for flag, kwargs in stage.options.items():
            if variant and flag == variant[0]:
                values = [s.argv[2] for s in STAGES if s.argv[0] == command]
                kwargs = {**kwargs, "choices": values, "default": values[0]}
            p.add_argument(flag, **kwargs)
    return parser


def _run(cfg: RunConfig, args) -> None:
    """Run the STAGES entry that `args` names; write its outputs."""
    stage = next(s for s in STAGES if s.argv[0] == args.command and (
        len(s.argv) == 1 or getattr(args, s.argv[1][2:]) == s.argv[2]))

    def read(name: str):
        path = Path(cfg.out) / name
        if not path.exists():
            producer = next(s for s in STAGES if name in s.writes)
            raise ColorlexError(
                f"{path} not found; run `colorlex {producer.argv[0]}` first")
        # looked up when called, so a wrapper set after import is used
        reader = read_word_infos if name == INFOS else corpus.read_clean_rounds
        with open(path, "r", encoding="utf-8") as handle:
            try:
                return reader(handle)
            except UnicodeDecodeError:
                raise ValueError(not_utf8(path)) from None

    outputs, summary = stage.run(cfg, args, read)
    for name, out in zip(stage.writes, outputs, strict=True):
        write = _write_json if isinstance(out, dict) else _write
        path = write(cfg, name, out)
    print(f"wrote {path}\n" if summary is None else summary, end="")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # The cyclic collector would re-scan every list and tuple the stage
    # builds and find next to nothing to free: a stage's bulk data are
    # arrays and flat lists of str and float, which hold no reference
    # cycles, so reference counting frees them. The collector is put
    # back as the caller had it, so an in-process caller keeps its own.
    collecting = gc.isenabled()
    gc.disable()
    try:
        cfg = load_config(args.config)
        cfg = with_overrides(cfg, args.seed, args.out)
        _run(cfg, args)
    except (ColorlexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
