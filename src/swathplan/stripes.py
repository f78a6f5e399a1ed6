"""The width table: its CSV text, and its rows, computed by this process and
a forked worker.

When the grid holds more than ``WORKER_CELLS`` cells over two or more
headings and the platform can fork, one forked worker computes and formats
the odd rows while this process computes the even ones, and this process
yields every row in order. Each process holds about one row however large
the grid, and the output is the bytes one process alone would write. A
grid of one heading or of no more cells runs the same loop with no worker,
and so does a grid whose worker cannot start (no pipe or no process to be
had).

``printable_widths`` decides, once per row, which widths print as ERR or
null; the CSV text of a row comes from ``width_rows_csv`` and the JSON text
from ``jsonwriter.width_rows_json``. Only ``commands.cmd_width_table``
imports this module, when it runs, so no other command compiles it.
"""

from __future__ import annotations

import io
import math
import os
from collections.abc import Callable, Iterator

from . import geometry
from .config import ScenarioConfig, sig_spec
from .geometry import METERS_PER_NAUTICAL_MILE

# A grid of more than this many cells, over two or more headings, forks a
# worker for its odd rows.
WORKER_CELLS = 8_000
# A width table's text: its head, the text of row i from (i, heading, row,
# widths) as ``printable_widths`` returns them, and its tail
WidthText = tuple[str, Callable[[int, float, list[float | None], list[float]], str], str]


def printable_widths(
    row: list[float | None], spec: str, ends: tuple[int, ...]
) -> tuple[list[float | None], list[float]]:
    """The row with None (ERR or null) for each width that cannot print, and
    the widths that can, in order; both are ``row`` itself when all can.

    A width cannot print when none was computed or when its text at ``spec``
    reads back as inf. Widths are positive and rounding is monotone, so one
    format of the greatest width clears a whole row.

    ``ends`` is ``Distances.ends`` of the distances a ``geometry.width_table``
    row was computed over, or () for any other row. Such a row's widths are
    monotone across its columns (see ``width_table``): when its two end
    cells hold widths, every cell does and the greater end is the greatest,
    so the row is not scanned. Other rows are scanned for None and for
    their greatest width. On a clean 1,000-cell row the scans took 58 us
    and the end cells take 2 us (min of 15 x 100 calls, Python 3.11).
    """
    at_ends = [row[i] for i in ends]
    if at_ends and None not in at_ends:
        widths, top = row, max(at_ends)
    else:
        widths = [w for w in row if w is not None] if None in row else row
        top = max(widths, default=0.0)
    if math.isfinite(float(spec % top)):
        return row, widths
    row = [None if w is None or not math.isfinite(float(spec % w)) else w for w in row]
    return row, [w for w in row if w is not None]


def width_rows_csv(distances_nm: list[float], sig: int) -> WidthText:
    """CSV text of a width table: the header, then one % operation per row."""
    spec = sig_spec(sig)
    full_row = ",".join([spec] * len(distances_nm))

    def row_text(i: int, heading: float, row: list[float | None], widths: list[float]) -> str:
        if widths is row:
            template = full_row
        else:
            template = ",".join("ERR" if w is None else spec for w in row)
        return spec % heading + "," + template % tuple(widths) + "\n"

    return "heading_deg," + ",".join([spec % d for d in distances_nm]) + "\n", row_text, ""


def width_chunks(cfg: ScenarioConfig, text: WidthText) -> Iterator[str]:
    """The head, each row's text in heading order, then the tail.

    Each row comes from ``geometry.width_table`` as bound when the row is
    computed, so a wrapper put there after import sees every call. The
    distances find their end columns once, here, for every row, and
    ``printable_widths`` sees each row once, before its text is made.
    """
    head, row_text, tail = text
    headings = cfg.headings_deg
    spec = sig_spec(cfg.precision)
    distances_m = geometry.Distances(d * METERS_PER_NAUTICAL_MILE for d in cfg.distances_nm)
    ends = distances_m.ends

    def row(i: int) -> str:
        # a heading at a time, so one row of widths is held besides its text
        cells = geometry.width_table(cfg.seabed, cfg.transducer, [headings[i]], distances_m)[0]
        return row_text(i, headings[i], *printable_widths(cells, spec, ends))

    pid = 0  # no worker
    if (
        len(headings) > 1
        and len(headings) * len(distances_m) > WORKER_CELLS
        and hasattr(os, "fork")
    ):
        pid, pipe = _fork_worker(row, range(1, len(headings), 2))
    try:
        yield head
        for i, heading in enumerate(headings):
            yield _received(pipe, heading) if i % 2 and pid else row(i)
        yield tail
    finally:
        if pid:
            pipe.close()  # a worker still writing stops at EPIPE
            os.waitpid(pid, 0)


def _fork_worker(row: Callable[[int], str], rows: range) -> tuple[int, io.BufferedReader | None]:
    """Fork a worker that sends the text of each row in ``rows`` down a pipe.

    Each row goes as the length of its UTF-8 text (8 bytes, little-endian),
    then the text, as soon as it is made. Returns the worker's pid and the
    pipe's read end, or (0, None) when the pipe or the process cannot be
    made, and then this process computes every row.
    """
    fds: tuple[int, ...] = ()
    try:
        fds = read_fd, write_fd = os.pipe()
        pid = os.fork()
    except OSError:  # out of descriptors or processes: no worker
        for fd in fds:
            os.close(fd)
        return 0, None
    if pid == 0:  # the worker prints nothing and ends here on every path
        code = 1
        try:
            os.close(read_fd)
            for i in rows:
                text = row(i).encode()
                data = memoryview(len(text).to_bytes(8, "little") + text)
                while data:
                    data = data[os.write(write_fd, data) :]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _received(pipe: io.BufferedReader, heading: float) -> str:
    """The next row the worker sent; ChildProcessError if it ended first."""
    prefix = pipe.read(8)
    size = int.from_bytes(prefix, "little")
    data = pipe.read(size) if len(prefix) == 8 else b""
    if not data or len(data) < size:  # no row's text is empty
        raise ChildProcessError(f"the width-table worker ended before heading {heading!r}")
    return data.decode()
