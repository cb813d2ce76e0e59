"""Whole-file writes: a reader sees the old file or the new one, never a part."""

import os
from pathlib import Path


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then move it over
    ``path``. A write that fails leaves ``path`` as it was and removes the
    temporary file; a process killed midway leaves both."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # mecrl starts no threads
    try:
        with open(tmp, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
