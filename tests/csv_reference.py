"""Frozen per-line reference for the CSV click-stream reader.

This is the parse as it was before the vectorised reader: one Python loop
over the lines, skipping blank, "#" and "channel,time_ps" lines anywhere.
The parsed arrays are checked by the library's own `ClickStream`.  The
property tests require `ionphoton.photonstats.read_stream_csv` to return
the same stream, or raise a `StreamFormatError` with the same message, on
every file they generate.  Values outside int64 are out of scope: this loop
lets them escape as a bare `OverflowError`, where the library reader names
the line.
"""

from __future__ import annotations

import numpy as np

from ionphoton.errors import StreamFormatError
from ionphoton.photonstats import ClickStream


def reference_read_stream_csv(path) -> ClickStream:
    channels, times = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line == "channel,time_ps":
                continue
            try:
                c, t = line.split(",")
                channels.append(int(c))
                times.append(int(t))
            except ValueError:
                raise StreamFormatError(f"{path}: line {lineno}: unparseable record {line!r}") from None
    try:
        return ClickStream(np.asarray(times, np.int64), np.asarray(channels, np.int64))
    except StreamFormatError as exc:
        raise StreamFormatError(f"{path}: {exc}") from None
