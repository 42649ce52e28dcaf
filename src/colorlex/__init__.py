"""Informativeness of color words and lexical systems in reference games.

From a corpus of two-player color reference games this package
measures how informative each word is (the reciprocal of the mean
perceptual distance between the chips the word named), relates the
informativeness of uttered words to how hard the context was, and
simulates how well restricted lexicons (only general words, only
specific words) would have served the same referents.
"""

__version__ = "0.1.0"
