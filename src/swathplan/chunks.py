"""Rows of output text a chunk at a time, and the CSV plan header.

The plan writers (``planfile``, ``jsonwriter``), the plan reader
(``planreader``) and the ``verify`` report share these, so a command that
only reads a plan compiles none of the writers, and one that only writes a
plan none of the parsers.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import islice

PLAN_CSV_HEADER = "x_m,overlap_prev,width_m"
# Rows per chunk of a plan file, a plot-data scene or a verify report. A
# write per row would be a system call per row on unbuffered output, and one
# write of all of them a copy of the whole text. A chunk of 100 rows is
# 4-20 KB of text, less than the planner holds in passing, so the largest
# plans peak at the planner's own placements.
ROWS_PER_CHUNK = 100


def batched(
    head: str, texts: Iterable[str], tail: str, around: Sequence[str] = ("", "", "")
) -> Iterator[str]:
    """``head``, the texts and ``tail``, ``ROWS_PER_CHUNK`` texts a chunk.

    The head goes out with the first chunk of texts, the tail after the
    last. ``around`` holds what goes before the first text, between two and
    after the last; none of it goes in when there are no texts, as a JSON
    array prints ``[]``. The texts are taken as the chunks are, so a lazy
    ``texts`` holds one chunk's rows at a time.
    """
    first, sep, last = around
    texts, lead, end = iter(texts), head + first, head
    while batch := list(islice(texts, ROWS_PER_CHUNK)):
        yield lead + sep.join(batch)
        lead, end = sep, last
    yield end + tail
