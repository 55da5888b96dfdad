"""The one writer of every output file: a file lands whole or not at all.

A ``Replacement`` of a path writes to a fresh ``.<name>.<hex>.tmp``
beside it, created with ``O_EXCL`` as ``open(path, "wb")`` would create
it (mode 0o666 under the umask).  ``commit`` closes that file and
renames it over the path; ``abort``, an exception that leaves its
``with`` block, or a failure in closing or renaming removes it, and so
does dropping the writer uncommitted, as when a KeyboardInterrupt
strikes between its creation and its ``with`` block.  So the
path holds either the complete new file or what it held before, and a
symlink there is replaced by a regular file, not followed.  An OSError
from creating, writing, closing or renaming the file is raised again,
with its errno, naming the path: a write's own error names no file, and
a rename's names the temporary one too.  The file is not fsynced: whole
means safe against a failed or interrupted write, not a power loss.
"""

from __future__ import annotations

import os
from pathlib import Path


class Replacement:
    """A new file for ``path``: binary, or UTF-8 text with LF line ends.

    As a context manager it is the open file, committed when the block
    ends and aborted when the block raises.
    """

    _fh = _tmp = None   # until __init__ sets them: nothing to close or remove

    def __init__(self, path, *, text: bool = False):
        self.path = Path(path)
        self._tmp = self.path.with_name(f".{self.path.name}.{os.urandom(8).hex()}.tmp")
        try:
            fd = os.open(self._tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:
            self._tmp = None   # not made here: not ours to remove
            raise self._named(exc) from exc
        self._fh = open(fd, "w", encoding="utf-8", newline="") if text else open(fd, "wb")

    def __del__(self) -> None:
        self.abort()

    def __enter__(self) -> "Replacement":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.commit()
        else:
            self.abort()

    def _named(self, exc: OSError) -> OSError:
        """An OSError of the errno of ``exc`` (so of its type), naming ``path``."""
        return OSError(exc.errno, exc.strerror, os.fspath(self.path))

    def write(self, data) -> None:
        try:
            self._fh.write(data)
        except OSError as exc:
            raise self._named(exc) from exc

    def writelines(self, lines) -> None:
        try:
            self._fh.writelines(lines)
        except OSError as exc:
            raise self._named(exc) from exc

    def commit(self) -> None:
        """Close the file and rename it over ``path``."""
        try:
            self._fh.close()
            os.replace(self._tmp, self.path)
        except OSError as exc:
            self.abort()
            raise self._named(exc) from exc
        except BaseException:
            self.abort()
            raise
        self._tmp = None

    def abort(self) -> None:
        """Close and remove the file, unless committed; safe to repeat.
        Its contents are discarded, and so is an error in flushing them."""
        try:
            if self._fh is not None:
                self._fh.close()
        except OSError:
            pass
        if self._tmp is not None:
            self._tmp.unlink(missing_ok=True)
            self._tmp = None
