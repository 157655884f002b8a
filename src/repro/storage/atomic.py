"""The one crash-safe file write.

Every file the repo replaces whole — WAL checkpoints and their
previous generation, result-cache entries and objects, benchmark
scorecards — goes through :func:`atomic_write`, so a crash mid-write
leaves either the old file or the new one on disk, never a torn one.
"""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, data: bytes) -> None:
    """Replace ``path`` with ``data``, atomically.

    The bytes go to a temporary file in the target's own directory (so
    the rename never crosses filesystems), are fsynced once, and then
    replace the target.  On any failure the temporary file is removed
    and the target is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
