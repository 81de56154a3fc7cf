"""Content fingerprints for cached session results.

A cached result is only reusable when *everything* that determines it is
unchanged: the video, the session configuration, and the simulator code
itself.  ``plan_fingerprint`` therefore hashes a canonical encoding of
(video, config) together with :func:`code_version`, a digest over every
``.py`` source file of the :mod:`repro` package.  Any edit to the
simulator — a TCP constant, a player policy, a scheduler fix — changes
``code_version`` and silently invalidates the whole cache, which is the
only safe default for a research codebase whose hot paths change PR by PR.

The canonical encoding is deliberately strict: enums encode by class and
member name, dataclasses by qualified name plus per-field values, floats
by ``repr`` (exact round-trip), and unknown objects fall back to their
class plus ``vars()``.  Callables are rejected — a config carrying a
closure cannot be content-addressed (or pickled to a worker) and should
fail loudly rather than collide.

A batch of units is keyed by :func:`fingerprint_batch`, which encodes
each distinct argument object once per call: thirty Monte-Carlo shards
that all carry the same catalog canonicalize it once, not thirty times.
Its keys are byte-identical to :func:`fingerprint`'s, so the per-unit
functions stay the reference a batch key can always be checked against.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "canonical",
    "code_version",
    "fingerprint",
    "fingerprint_batch",
    "plan_fingerprint",
    "task_fingerprint",
]

#: Length of the hex digests used as cache keys.
DIGEST_LEN = 40


def canonical(obj: Any) -> Any:
    """Encode ``obj`` as JSON-serializable data, deterministically.

    Two objects that could produce different session results must encode
    differently; two equal configurations must encode identically across
    processes and interpreter runs (no ``id()``, no unsorted dicts).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return {"__float__": repr(obj)}
    if isinstance(obj, bytes):
        return {"__bytes__": obj.hex()}
    if isinstance(obj, enum.Enum):
        return {"__enum__": f"{type(obj).__qualname__}.{obj.name}"}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__qualname__,
            "fields": {
                f.name: canonical(getattr(obj, f.name))
                for f in dataclasses.fields(obj)
            },
        }
    if isinstance(obj, (list, tuple)):
        return [canonical(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        encoded = [canonical(item) for item in obj]
        return {"__set__": sorted(encoded, key=lambda e: json.dumps(e))}
    if isinstance(obj, dict):
        items = [(canonical(k), canonical(v)) for k, v in obj.items()]
        return {"__dict__": sorted(items, key=lambda kv: json.dumps(kv[0]))}
    if callable(obj):
        raise TypeError(
            f"cannot fingerprint callable {obj!r}: configs routed through "
            "the runner must be plain data"
        )
    # plain objects (e.g. FaultSchedule): class identity + attributes
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        return {
            "__object__": type(obj).__qualname__,
            "attrs": {k: canonical(v) for k, v in sorted(attrs.items())},
        }
    raise TypeError(f"cannot fingerprint {type(obj).__qualname__}: {obj!r}")


def _dumps(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()[:DIGEST_LEN]


#: ``id(obj) -> (obj, canonical JSON text)`` for one batch.
_Memo = Dict[int, Tuple[Any, str]]


def fingerprint(*parts: Any) -> str:
    """A stable hex digest of the canonical encoding of ``parts``."""
    return _digest(_dumps([canonical(p) for p in parts]))


def fingerprint_batch(rows: Iterable[Sequence[Any]]) -> List[str]:
    """``[fingerprint(*row) for row in rows]``, encoding each distinct
    object once.

    The memo maps ``id(obj)`` to the object's canonical JSON text and
    holds the object itself, so no id is recycled while the call runs.
    Plain lists and tuples are joined from their items' memoized texts,
    the way :func:`json.dumps` lays out a list, so a fresh ``list(args)``
    row part still shares the encoding of every argument it holds.  The
    memo lives for one call: an object mutated between two batches is
    encoded afresh.

    >>> shared = [1.5, "video"]
    >>> fingerprint_batch([("a", shared), ("b", [shared])]) == [
    ...     fingerprint("a", shared), fingerprint("b", [shared])]
    True
    """
    memo: _Memo = {}
    return [_digest(_joined(row, memo)) for row in rows]


def _joined(items: Iterable[Any], memo: _Memo) -> str:
    return "[" + ",".join([_text(item, memo) for item in items]) + "]"


def _text(obj: Any, memo: _Memo) -> str:
    """``_dumps(canonical(obj))``, memoized by ``id(obj)``.

    A module-level function, not a closure over ``memo``: a recursive
    closure is a reference cycle, which would keep the memo and every
    object it pins alive until the next full garbage collection.
    """
    hit = memo.get(id(obj))
    if hit is not None:
        return hit[1]
    kind = type(obj)
    if kind is list or kind is tuple:
        encoded = _joined(obj, memo)
    else:
        encoded = _dumps(canonical(obj))
    memo[id(obj)] = (obj, encoded)
    return encoded


def _iter_source_files(root: Path) -> Iterable[Path]:
    return sorted(p for p in root.rglob("*.py") if "__pycache__" not in p.parts)


@lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of every source file of the installed :mod:`repro` package.

    Computed once per process; any source change produces a new version
    and therefore a disjoint set of cache keys.
    """
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in _iter_source_files(root):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x00")
    return digest.hexdigest()[:16]


def _plan_row(video: Any, config: Any) -> tuple:
    return ("session", code_version(), video, config)


def plan_fingerprint(video: Any, config: Any) -> str:
    """Cache key for one ``run_session(video, config)`` call."""
    return fingerprint(*_plan_row(video, config))


def _task_row(fn: Any, args: tuple) -> tuple:
    name = f"{fn.__module__}.{fn.__qualname__}"
    return ("task", code_version(), name, list(args))


def task_fingerprint(fn: Any, args: tuple) -> str:
    """Cache key for one generic ``fn(*args)`` task.

    ``fn`` must be an importable module-level function — the same
    requirement the multiprocessing pool imposes — so its qualified name
    identifies it; the body is covered by :func:`code_version`.
    """
    return fingerprint(*_task_row(fn, args))
