"""The content-key cache/journal stage shared by the study fan-outs.

``explore``, ``performability`` and ``calibrate`` all memoise per-item
results in a :class:`~repro.io.cache.ResultCache` under content keys and
journal each completed item (:class:`~repro.exec.RunJournal`) so a killed
run can resume.  :class:`CacheStage` is that pipeline, once:

* the run journal is addressed by a content hash of the study kind and
  its full key list — the same study resumes itself, any change to the
  work list starts a fresh journal;
* ``resume=True`` requires a cache and an existing journal;
* one :meth:`ResultCache.get_many` pass resolves the hits, each checked
  by the caller's validator (an invalid entry is a miss to recompute);
* the misses are grouped by key, so items that share a key are
  evaluated once;
* :meth:`CacheStage.persist` writes an entry, applies an armed
  ``corrupt-cache`` fault, then journals the key — in that order, so a
  kill at any instant leaves cache and journal describing exactly the
  completed items.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro._util import require
from repro.exec.faults import maybe_corrupt_cache
from repro.exec.journal import RunJournal
from repro.io.cache import ResultCache, content_key
from repro.io.schemas import RUN_JOURNAL_SCHEMA

__all__ = ["CacheStage", "has_metrics"]


def has_metrics(entry: Any, schema: str, names: Sequence[str]) -> bool:
    """Whether a cache *entry* of *schema* carries every metric in *names*."""
    return (
        isinstance(entry, dict)
        and entry.get("schema") == schema
        and isinstance(entry.get("metrics"), dict)
        and all(name in entry["metrics"] for name in names)
    )


class CacheStage:
    """One study run's cache lookups, miss grouping and crash-safe persists.

    *keys* holds one content key per item; with no *store* the keys may
    be ``None`` (nothing is looked up, persisted or journaled, and every
    item is its own group).  After :meth:`lookup`, ``cached`` counts the
    items served from the cache and ``resumed`` the distinct hit keys the
    run journal had recorded.
    """

    def __init__(
        self,
        store: "ResultCache | None",
        kind: str,
        keys: "Sequence[str | None]",
        *,
        resume: bool = False,
    ) -> None:
        self.store = store
        self.keys = list(keys)
        self.journal: "RunJournal | None" = None
        if store is not None:
            run_key = content_key({"schema": RUN_JOURNAL_SCHEMA, "kind": kind, "keys": self.keys})
            self.journal = RunJournal.for_cache(store, run_key)
        if resume:
            require(self.journal is not None, "resume requires a result cache (--cache)")
            assert self.journal is not None
            require(
                self.journal.exists(),
                f"resume requested but no run journal exists at {self.journal.path}",
            )
        self.cached = 0
        self.resumed = 0

    def lookup(self, valid: "Callable[[Any], bool]") -> "list[Any]":
        """Each item's cache entry if *valid* accepts it, else ``None``."""
        if self.store is None or self.journal is None:
            return [None] * len(self.keys)
        journaled = self.journal.completed_keys()
        entries = [
            entry if valid(entry) else None for entry in self.store.get_many(self.keys)
        ]
        hits = [key for key, entry in zip(self.keys, entries) if entry is not None]
        self.cached = len(hits)
        self.resumed = len(journaled.intersection(hits))
        return entries

    def pending(self, entries: "Sequence[Any]") -> "list[list[int]]":
        """Indices of the misses, grouped by key in first-seen order."""
        groups: "dict[Any, list[int]]" = {}
        for idx, (key, entry) in enumerate(zip(self.keys, entries)):
            if entry is None:
                groups.setdefault(idx if key is None else key, []).append(idx)
        return list(groups.values())

    def persist(self, key: str, entry: Any, index: int, **meta: Any) -> None:
        """Store *entry* under *key*, then journal it (no-op without a cache).

        *index* is the item's position in the fan-out, which is what a
        ``corrupt-cache`` fault names.
        """
        if self.store is None or self.journal is None:
            return
        self.store.put(key, entry)
        maybe_corrupt_cache(self.store, key, index)
        self.journal.record(key, **meta)
