"""Shared exception base for the toolkit.

Every domain error raised by this package derives from ColorlexError,
so the CLI can separate expected failures (bad input, missing data)
from bugs.
"""

from pathlib import Path


class ColorlexError(Exception):
    pass


def not_utf8(path) -> str:
    """The message for a file that does not decode as UTF-8, naming
    the line of its first bad byte. Called only once reading has
    failed: a text reader decodes ahead of the line it hands out, so
    the line is found by decoding the file's bytes again."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The sentinel makes the bad byte's line the last one counted.
        line = len((data[:exc.start] + b"x").splitlines())
        return (f"{path}:{line}: not UTF-8: byte {data[exc.start]:#04x} "
                f"({exc.reason})")
    return f"{path}: not UTF-8"
