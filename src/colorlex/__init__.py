"""Informativeness of color words and lexical systems in reference games.

From a corpus of two-player color reference games this package
measures how informative each word is (the reciprocal of the mean
perceptual distance between the chips the word named), relates the
informativeness of uttered words to how hard the context was, and
simulates how well restricted lexicons (only general words, only
specific words) would have served the same referents.
"""

from .colorspace import (
    HslColor,
    LabColor,
    SrgbColor,
    hsl_to_srgb,
    lab_distance,
    lab_to_srgb,
    srgb_to_lab,
)
from .corpus import (
    CleanRound,
    Denotation,
    RawRound,
    SchemaError,
    build_denotations,
    clean,
    context_ease,
    ingest,
    normalize_utterance,
    repeated_chip_subset,
)
from .errors import ColorlexError
from .informativeness import (
    SamplingConfig,
    WordInfo,
    compute_word_infos,
    spread,
)
from .regress import FitResult, fit_ols, fit_random_intercept, pearson_r
from .simulate import (
    ReferentEntry,
    SimResult,
    Stimulus,
    SystemVariant,
    build_entries,
    generate_stimuli,
    run_simulation,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ColorlexError",
    "HslColor",
    "SrgbColor",
    "LabColor",
    "hsl_to_srgb",
    "srgb_to_lab",
    "lab_to_srgb",
    "lab_distance",
    "RawRound",
    "CleanRound",
    "Denotation",
    "SchemaError",
    "ingest",
    "clean",
    "normalize_utterance",
    "context_ease",
    "build_denotations",
    "repeated_chip_subset",
    "WordInfo",
    "SamplingConfig",
    "spread",
    "compute_word_infos",
    "FitResult",
    "fit_ols",
    "fit_random_intercept",
    "pearson_r",
    "SystemVariant",
    "ReferentEntry",
    "SimResult",
    "Stimulus",
    "build_entries",
    "run_simulation",
    "generate_stimuli",
]
