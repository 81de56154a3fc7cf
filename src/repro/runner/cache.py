"""Content-addressed on-disk cache for completed session results.

Layout: ``<root>/<key[:2]>/<key>.pkl`` — the key is the full content
fingerprint (see :mod:`repro.runner.fingerprint`), so a lookup is a
single ``open``; there is no index to corrupt and no locking to get
wrong.  Writes go through a temporary file in the same directory followed
by :func:`os.replace`, so concurrent writers (pool workers, parallel
pytest sessions) at worst replace an entry with an identical one.

Unreadable or truncated entries are treated as misses and quarantined to
``<root>/corrupt/`` (suffix ``.bad``) for post-mortem instead of raising
or silently vanishing; ``stats()`` counts them.  The cache is an
accelerator, never a source of truth.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional

__all__ = ["ResultCache"]


class ResultCache:
    """Pickle store keyed by content fingerprint."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def _corrupt_path(self, key: str) -> Path:
        # .bad keeps quarantined files out of the */*.pkl globs that
        # len()/stats()/clear() use to enumerate live entries
        return self.root / "corrupt" / f"{key}.bad"

    def get(self, key: str) -> Optional[Any]:
        """The cached value, or ``None`` on miss or unreadable entry.

        A truncated/corrupt entry (interrupted writer, version skew in a
        pickled class) is treated as a miss: the file is moved to
        ``<root>/corrupt/`` for post-mortem — never re-read, never
        fatal — and counted by :meth:`stats`.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                return pickle.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            quarantine = self._corrupt_path(key)
            try:
                quarantine.parent.mkdir(parents=True, exist_ok=True)
                os.replace(path, quarantine)
            except OSError:
                try:
                    path.unlink()
                except OSError:
                    pass
            return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically.

        The temp file carries the writer's pid on top of ``mkstemp``'s
        random suffix: cross-*process* writers (distributed workers on
        a shared store, parallel pytest sessions) can never collide on
        a scratch name even across hosts reusing a pid space, and a
        leftover ``.w<pid>-*`` from a killed writer is attributable.
        The leading dot keeps scratch files out of every ``*/*.pkl``
        glob.  Concurrent writers of the *same* key at worst replace
        the entry with identical bytes — last ``os.replace`` wins.
        """
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent,
                                   prefix=f".w{os.getpid()}-",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as f:
                pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> dict:
        """Entry count, total on-disk bytes, and quarantined-corrupt count
        (for bench/CLI reporting)."""
        entries = 0
        size = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                size += path.stat().st_size
            except OSError:
                continue
            entries += 1
        corrupt = sum(1 for _ in self.root.glob("corrupt/*.bad"))
        return {"entries": entries, "bytes": size, "corrupt": corrupt}

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
