"""Command-line pipeline.

Stages communicate through files in the output directory, so each can
be rerun independently:

  colorlex --config run.ini ingest      corpus -> clean_rounds.tsv
  colorlex --config run.ini info        -> word_info.tsv
  colorlex --config run.ini regress     -> fit_<subset>.txt / .json
  colorlex --config run.ini simulate    -> simulation.tsv / .json
  colorlex --config run.ini stimuli     -> stimuli.tsv / .json
  colorlex --config run.ini plot        -> plot_<kind>.svg

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

__all__ = ["main"]


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


def _write_json(cfg: RunConfig, name: str, payload: dict) -> None:
    body = {"_config": config_hash(cfg), "_seed": cfg.seed, **payload}
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    _write(cfg, name, lambda handle: handle.write(text))


def _read(cfg: RunConfig, name: str, stage: str, reader):
    path = Path(cfg.out) / name
    if not path.exists():
        raise ColorlexError(f"{path} not found; run `colorlex {stage}` first")
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return reader(handle)
        except UnicodeDecodeError:
            raise ValueError(not_utf8(path)) from None


def _read_rounds(cfg: RunConfig) -> corpus.Rounds:
    return _read(cfg, "clean_rounds.tsv", "ingest", corpus.read_clean_rounds)


def cmd_ingest(cfg: RunConfig, args) -> None:
    spellmap = corpus.read_spellmap(cfg.spellmap) if cfg.spellmap else None
    raw, rejects = corpus.ingest(
        cfg.input,
        cfg.schema,
        delimiter=cfg.delimiter,
        hsl_scale=cfg.hsl_scale,
    )
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
    _write(cfg, "clean_rounds.tsv",
           lambda h: corpus.write_clean_rounds(h, rounds, header))
    _write(cfg, "rejects.tsv",
           lambda h: corpus.write_rejects(h, rejects, header))
    _write_json(cfg, "ingest.json", {
        "n_raw": len(raw),
        "n_rejected": len(rejects),
        "n_clean": len(rounds),
        "n_chips": len(rounds.chip_keys),
    })
    print(f"ingested {len(raw)} rounds ({len(rejects)} rejected), "
          f"{len(rounds)} clean")


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


def cmd_info(cfg: RunConfig, args) -> None:
    rounds = _read_rounds(cfg)
    denotations = _denotations(cfg, rounds)
    del rounds  # freed before the spreads; the denotations own their chips
    infos = compute_word_infos(denotations, cfg.sampling)
    ordered = sorted(infos.values(), key=lambda w: (-w.i_w, w.word))
    _write(cfg, "word_info.tsv",
           lambda h: write_word_infos(h, ordered, header_line(cfg)))
    print(f"{len(ordered)} words at min_count={cfg.min_count} "
          f"({sum(1 for w in ordered if w.sampled)} subsampled)")


def cmd_regress(cfg: RunConfig, args) -> None:
    rounds = _read_rounds(cfg)
    infos = _read(cfg, "word_info.tsv", "info", read_word_infos)
    rows = regress.rows_from_rounds(rounds, infos)
    if args.subset == "repeated":
        rows = regress.repeated_chip_rows(rows, rounds)
    del rounds  # freed before the fits; the rows suffice
    label = f"informativeness ~ ease, subset={args.subset}"
    ols = regress.fit_ols(rows)
    mixed = regress.fit_random_intercept(rows)
    text = (
        header_line(cfg) + "\n"
        + regress.format_fit(ols, label) + "\n"
        + regress.format_fit(mixed, label)
    )
    _write(cfg, f"fit_{args.subset}.txt", lambda h: h.write(text))
    _write_json(cfg, f"fit_{args.subset}.json", {
        "subset": args.subset,
        "ols": asdict(ols),
        "random_intercept": asdict(mixed),
    })
    print(regress.format_fit(mixed, label), end="")


def cmd_simulate(cfg: RunConfig, args) -> None:
    rounds = _read_rounds(cfg)
    infos = _read(cfg, "word_info.tsv", "info", read_word_infos)
    referents, report = simulate.build_entries(rounds, infos)
    results = simulate.run_all_variants(referents)
    ordered = [results[v] for v in simulate.SystemVariant]
    _write(cfg, "simulation.tsv",
           lambda h: simulate.write_simulation(h, ordered, header_line(cfg)))
    _write_json(cfg, "simulation.json", {
        "report": report,
        "results": {
            r.variant.value: {
                k: v for k, v in asdict(r).items() if k != "variant"
            }
            for r in ordered
        },
    })
    for r in ordered:
        print(f"{r.variant.value}: accuracy={r.accuracy:.4f} "
              f"i_l={r.i_l:.4f} vocab={r.vocab_size}")


def cmd_stimuli(cfg: RunConfig, args) -> None:
    rounds = _read_rounds(cfg)
    infos = _read(cfg, "word_info.tsv", "info", read_word_infos)
    referents, _ = simulate.build_entries(rounds, infos)
    stimuli, report = simulate.generate_stimuli(
        rounds,
        referents,
        infos,
        n=args.n,
        bins=args.bins,
        seed=derive_seed(cfg.seed, "stimuli"),
    )
    _write(cfg, "stimuli.tsv",
           lambda h: simulate.write_stimuli(h, stimuli, header_line(cfg)))
    _write_json(cfg, "stimuli.json", {
        "n": args.n,
        "bins": args.bins,
        "report": report,
    })
    print(f"{len(stimuli)} stimuli across {args.bins} ease bins")


def cmd_plot(cfg: RunConfig, args) -> None:
    rounds = _read_rounds(cfg)
    header = header_line(cfg).lstrip("# ")
    if args.kind == "denotations":
        denotations = _denotations(cfg, rounds)
        del rounds
        if args.words is not None:
            words = [w for w in args.words.split(",") if w]
            if not words:
                raise ColorlexError(
                    f"--words names no word: {args.words!r}")
            missing = [w for w in words if w not in denotations]
            if missing:
                raise ColorlexError(
                    f"no denotation for {missing}; "
                    f"available: {sorted(denotations)}"
                )
        else:
            words = sorted(
                denotations, key=lambda w: (-len(denotations[w]), w))[:6]
        svg = svgplot.denotation_plot(denotations, words, header)
    else:
        rows = regress.rows_from_rounds(
            rounds, _read(cfg, "word_info.tsv", "info", read_word_infos))
        del rounds
        try:
            fit = regress.fit_ols(rows)
            line = (fit.intercept, fit.slope)
        except regress.FitError:  # too few rows, or no spread in ease
            line = None
        # listed once the fit's temporaries are freed: a lower peak RSS
        ease, i_w = rows.ease.tolist(), rows.i_w.tolist()
        del rows  # freed before the SVG text is built; the columns suffice
        svg = svgplot.ease_plot(ease, i_w, header, line)
    path = _write(cfg, f"plot_{args.kind}.svg", lambda h: h.write(svg))
    print(f"wrote {path}")


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

    p = sub.add_parser("ingest", help="read, validate and clean the corpus")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("info", help="compute word informativeness")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("regress",
                       help="informativeness-on-ease random-intercept fit")
    p.add_argument("--subset", choices=("all", "repeated"), default="all",
                   help="all rounds, or only targets named at least twice")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("simulate",
                       help="compare actual/general/specific lexicons")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("stimuli",
                       help="sample rounds evenly across context ease")
    p.add_argument("--n", type=int, default=100,
                   help="number of stimuli (default 100)")
    p.add_argument("--bins", type=int, default=10,
                   help="number of ease bins (default 10)")
    p.set_defaults(func=cmd_stimuli)

    p = sub.add_parser("plot", help="render an SVG figure")
    p.add_argument("--kind", choices=("denotations", "ease_vs_iw"),
                   default="denotations")
    p.add_argument("--words", default=None,
                   help="comma-separated words for the denotation plot")
    p.set_defaults(func=cmd_plot)
    return parser


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
        args.func(cfg, args)
    except (ColorlexError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()
    return 0


if __name__ == "__main__":
    sys.exit(main())
