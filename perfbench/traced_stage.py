"""Run one colorlex CLI stage with spans around the calls into each layer.

Usage (from the root of a checkout, with PYTHONPATH=src):

    python3 perfbench/traced_stage.py SPANS.json --config run.ini --out out ingest

The package is not modified: the public functions the CLI and the
layers call through module attributes are replaced, in this process
only, by wrappers that record a span (name, start, end, nesting depth)
and count the work done. `colorlex.cli.main` then runs the stage as the
`colorlex` command would, and the spans and counts are written to
SPANS.json when it returns.

For the ingest stage the colour conversion is not wrapped (it runs
three times per kept round); instead, after the stage, one timed pass
of hsl_to_srgb + srgb_to_lab runs over exactly the chips `clean`
converts, and also counts the chips that fail to convert.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter


class Tracer:
    """Spans and counts of one process, kept in memory until it exits.

    A span is (name, start, end, depth); depth 0 is a call made by the
    CLI itself, deeper spans are nested in another traced call.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.raw_rounds = None
        self._depth = 0

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            self._depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth -= 1
                self.spans.append((name, start, end, self._depth))
            if count is not None:
                count(result, *args)
            return result

        setattr(module, attr, traced)

    def install(self) -> None:
        import colorlex.cli as cli
        from colorlex import corpus, kernels, regress, simulate, svgplot

        c = self.counts

        def ingested(result, *args):
            raw, rejects = result
            self.raw_rounds = raw
            c["corpus.raw_rows"] += len(raw)
            c["corpus.rejected_rows"] += len(rejects)

        def infos(result, *args):
            c["informativeness.words"] += len(result)
            c["informativeness.sampled_words"] += sum(
                1 for info in result.values() if info.sampled)

        def grouped(result, rows):
            sizes = Counter(r.group for r in rows)
            c["regress.groups"] += len(sizes)
            c["regress.multi_row_groups"] += sum(
                1 for n in sizes.values() if n >= 2)

        def simulated(result, offsets, *args):
            m = len(offsets) - 1
            c["kernels.simulate_pairs"] += m * (m - 1)

        def svg(result, *args):
            c["svgplot.svg_bytes"] += len(result.encode("utf-8"))

        self.wrap(corpus, "ingest", "corpus.ingest", ingested)
        self.wrap(corpus, "clean", "corpus.clean", lambda result, *a: c.update(
            {"corpus.clean_rows": len(result)}))
        self.wrap(corpus, "write_clean_rounds", "corpus.write_clean_rounds")
        self.wrap(corpus, "read_clean_rounds", "corpus.read_clean_rounds")
        self.wrap(corpus, "build_denotations", "corpus.build_denotations")
        self.wrap(cli, "compute_word_infos",
                  "informativeness.compute_word_infos", infos)
        self.wrap(kernels, "mean_pairwise_distance", "kernels.spread",
                  lambda result, pts: c.update(
                      {"kernels.spread_pairs": len(pts) ** 2}))
        self.wrap(kernels, "simulate_counts", "kernels.simulate_counts",
                  simulated)
        self.wrap(regress, "rows_from_rounds", "regress.rows_from_rounds")
        self.wrap(regress, "fit_ols", "regress.fit_ols")
        self.wrap(regress, "fit_random_intercept",
                  "regress.fit_random_intercept", grouped)
        self.wrap(simulate, "build_entries", "simulate.build_entries")
        self.wrap(simulate, "run_all_variants", "simulate.run_simulation",
                  lambda result, entries: c.update(
                      {"simulate.referents": len(entries)}))
        self.wrap(simulate, "generate_stimuli", "simulate.generate_stimuli")
        self.wrap(svgplot, "denotation_plot", "svgplot.denotation_plot", svg)
        self.wrap(svgplot, "ease_plot", "svgplot.ease_plot", svg)

    def convert_pass(self) -> None:
        """Time the colour conversion of the chips `clean` converts."""
        if self.raw_rounds is None:
            return
        from colorlex.colorspace import hsl_to_srgb, srgb_to_lab
        from colorlex.corpus import chip_key, normalize_utterance

        chips = [
            chip
            for r in self.raw_rounds
            if r.listener_correct and len(normalize_utterance(r.utterance)) == 1
            for chip in (r.target, r.distractor1, r.distractor2)
        ]
        failed = 0
        start = time.perf_counter()
        for chip in chips:
            try:
                srgb_to_lab(hsl_to_srgb(chip))
            except ValueError:
                failed += 1
        self.counts["colorspace.convert_s"] += time.perf_counter() - start
        self.counts["colorspace.conversions"] += len(chips)
        self.counts["colorspace.failed_conversions"] += failed
        self.counts["colorspace.distinct_chips"] += len(
            {chip_key(chip) for chip in chips})

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counts": self.counts}, handle)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from colorlex.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        tracer.convert_pass()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
