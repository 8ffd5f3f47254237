"""Reading of tab-separated text files: whole, for manifests and embedding
files, and column-wise, for score files and trial lists.

Files are read as text, and a line ends at "\n", "\r\n" or "\r" only, not
at the other breaks that str.splitlines() knows.  Blank and
whitespace-only lines are skipped but still counted: a ParseError names the
1-based line of the file.  read_columns splits and checks rows a block at
a time, whole columns at once; a faulty row is reported as the first one
in file order, with the message of the first check it fails.
"""

from contextlib import contextmanager
from itertools import compress, count, islice, repeat

import numpy as np

from .errors import ParseError

BLOCK_LINES = 4096  # lines split per step: bounds the memory of field strings


def split_lines(text):
    """text's lines, each ended by "\n", "\r\n" or "\r"; the last one is
    what follows the last line end (blank if text ends with one)."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


@contextmanager
def open_text(path):
    """path opened for reading as text; a byte that the text encoding cannot
    decode raises a ParseError naming path and the byte's line."""
    with open(path) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise _decode_error(path, exc) from None


def _decode_error(path, exc):
    """ParseError at the line of path's first undecodable byte.

    The text layer decodes a chunk at a time, so exc's position is within a
    chunk; decoding the whole file again gives the file offset."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode(exc.encoding)
    except UnicodeDecodeError as whole:
        # everything before the first bad byte decodes
        line = len(split_lines(data[: whole.start].decode(exc.encoding)))
        return ParseError("%s: %s" % (path, whole), line=line)
    return ParseError("%s: %s" % (path, exc))  # the file changed since


def read_columns(path, nfields, message):
    """Yield (line numbers, columns) for successive blocks of path's rows.

    A row is a non-blank line; columns are nfields lists of its field
    strings.  A block stops before the first row without exactly nfields
    fields, and the generator raises ParseError(message) at that row when it
    is resumed, so a caller that checks each block before taking the next
    reports the first faulty line of the file.
    """
    with open_text(path) as fh:
        start = 0
        while block := list(islice(fh, BLOCK_LINES)):
            lines = "".join(block).split("\n")  # last one blank or unterminated
            keep = list(map(bool, map(str.strip, lines)))
            linenos = list(compress(count(start + 1), keep))
            rows = list(compress(lines, keep))
            tabs = map(str.count, rows, repeat("\t"))
            n = next(compress(count(), map((nfields - 1).__ne__, tabs)), len(rows))
            flat = "\t".join(rows[:n]).split("\t") if n else []
            yield linenos[:n], [flat[k::nfields] for k in range(nfields)]
            if n < len(rows):
                raise ParseError(message, line=linenos[n])
            start += len(block)


def isin(column, values):
    """Bool array: which strings of column are in values."""
    return np.fromiter(map(values.__contains__, column), bool, len(column))


def raise_first(linenos, checks):
    """Raise ParseError at the first row that fails any check.

    checks is a list of (bool mask over the rows, row index -> message) in
    the order the checks apply to a row, so a row that fails several gets
    the message of the first.
    """
    faulty = np.flatnonzero(np.logical_or.reduce([mask for mask, _ in checks]))
    if faulty.size:
        i = int(faulty[0])
        message = next(msg for mask, msg in checks if mask[i])
        raise ParseError(message(i), line=linenos[i])
