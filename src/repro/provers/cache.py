"""Sequent-level result caching for the prover portfolio.

Verification-condition generation produces many structurally identical
sequents: goal splitting duplicates hypothesis prefixes, loop encodings
re-assert the same invariant conjuncts at every cut point, and the Table 2
ablation verifies every method twice.  :class:`ProofCache` lets the
dispatcher (:meth:`repro.provers.dispatch.ProverPortfolio.dispatch`) prove
each distinct sequent once.

Cache keys are *canonical fingerprints*: every formula is alpha-normalized
(bound variables replaced by binding-depth indices), the assumption base is
deduplicated and order-normalized, and trivially-true assumptions carry no
weight.  Two sequents that differ only in assumption naming, assumption
order or the spelling of bound variables therefore share one cache entry.

A cache is attached to one portfolio (fixed prover set and per-prover
timeouts), so a cached verdict -- including "no prover could do it" -- is
exactly what re-running the portfolio would produce, modulo timing jitter
on near-timeout sequents.

:class:`PersistentCacheStore` carries verdicts across runs; its on-disk
JSON layout, versioning/invalidation rules and ``flock`` merge-save
protocol are documented normatively in ``docs/cache-format.md``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path

try:  # POSIX-only; saves degrade to lock-free atomic replace elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

from ..logic.terms import App, Binder, BoolLit, Const, IntLit, Term, Var
from .result import ProofTask

__all__ = [
    "CachedVerdict",
    "ProofCache",
    "PersistentCacheStore",
    "task_fingerprint",
    "term_fingerprint",
    "fingerprint_to_json",
    "fingerprint_from_json",
    "FINGERPRINT_VERSION",
    "CACHE_FORMAT_VERSION",
]

#: Bump whenever :func:`term_fingerprint` / :func:`task_fingerprint` change
#: shape: persisted caches keyed under an older scheme are discarded (cold
#: start) instead of being misinterpreted.
FINGERPRINT_VERSION = 1

#: Bump whenever the on-disk JSON layout of :class:`PersistentCacheStore`
#: changes incompatibly.  Version 3 added the per-class ``dependencies``
#: section (the dependency index mapping source artifacts to the
#: fingerprints they produce); version 4 dropped the measured timings
#: (per-entry ``wall`` / ``cpu`` and the per-class ``profiles``
#: section).  Older stores cold-start cleanly.
CACHE_FORMAT_VERSION = 4


# Bound variables are numbered by *relative* de Bruijn index (distance from
# the binding site), so a subterm that references no enclosing bound
# variable has a fingerprint independent of its context.  That makes the
# memo sound: fingerprints of such context-free subterms are cached per
# interned node.
_FP_MEMO_LIMIT = 1 << 17
_FP_MEMO: dict[Term, object] = {}
_HYPOTHESIS_MEMO: dict[Term, tuple[str, object]] = {}
#: Distinct proof tasks whose fingerprints are remembered before the memo
#: is cleared.  A task's hash costs one pass over its assumption pairs
#: (interned terms hash in O(1)), far less than sorting its hypotheses.
_TASK_MEMO_LIMIT = 1 << 14
_TASK_MEMO: dict[ProofTask, tuple] = {}

#: The store's compact JSON: no spaces after ``,`` and ``:``.
_SEPARATORS = (",", ":")
_DECODER = json.JSONDecoder()


def term_fingerprint(term: Term) -> object:
    """A hashable alpha-invariant fingerprint of ``term``.

    ``alpha_equal(s, t)`` implies ``term_fingerprint(s) ==
    term_fingerprint(t)`` and, for well-sorted distinct terms, fingerprints
    differ whenever the terms are not alpha-equivalent; free variables,
    constants, operators and sorts are preserved exactly.
    """
    return _fingerprint(term, {}, 0)


def _fingerprint(term: Term, env: dict[str, int], depth: int) -> object:
    if env and term._free_names.isdisjoint(env):
        # No enclosing binder is referenced: the relative numbering makes
        # the fingerprint context-independent, so restart from depth 0 and
        # use the memo.
        env = {}
        depth = 0
    if not env:
        cached = _FP_MEMO.get(term)
        if cached is not None:
            return cached
        result = _fingerprint_uncached(term, env, 0)
        if len(_FP_MEMO) > _FP_MEMO_LIMIT:
            _FP_MEMO.clear()
        _FP_MEMO[term] = result
        return result
    return _fingerprint_uncached(term, env, depth)


def _fingerprint_uncached(term: Term, env: dict[str, int], depth: int) -> object:
    if isinstance(term, Var):
        level = env.get(term.name)
        if level is None:
            return ("v", term.name, term.sort.name)
        return ("b", depth - level, term.sort.name)
    if isinstance(term, Const):
        return ("c", term.name, term.sort.name)
    if isinstance(term, IntLit):
        return ("i", term.value)
    if isinstance(term, BoolLit):
        return ("t", term.value)
    if isinstance(term, App):
        return (
            "a",
            term.op,
            term.sort.name,
            tuple(_fingerprint(arg, env, depth) for arg in term.args),
        )
    if isinstance(term, Binder):
        inner = dict(env)
        for offset, (name, _) in enumerate(term.params):
            inner[name] = depth + offset
        return (
            "B",
            term.kind,
            tuple(sort.name for _, sort in term.params),
            _fingerprint(term.body, inner, depth + len(term.params)),
        )
    raise TypeError(f"unknown term type {type(term)!r}")


def task_fingerprint(task: ProofTask) -> tuple:
    """The cache key of a proof task.

    Assumption *names* are irrelevant to provability, so only the
    alpha-normalized formulas matter; they are deduplicated and sorted so
    that assumption order does not split cache entries.  Memoized per
    :class:`ProofTask` value: the engine hands the planner one task object
    per distinct method content, however many methods share it.
    """
    fingerprint = _TASK_MEMO.get(task)
    if fingerprint is None:
        hypotheses = dict(_hypothesis_key(formula) for _, formula in task.assumptions)
        fingerprint = (
            tuple(hypotheses[text] for text in sorted(hypotheses)),
            _fingerprint(task.goal, {}, 0),
        )
        if len(_TASK_MEMO) >= _TASK_MEMO_LIMIT:
            _TASK_MEMO.clear()
        _TASK_MEMO[task] = fingerprint
    return fingerprint


def _hypothesis_key(term: Term) -> tuple[str, object]:
    """``(repr(fingerprint), fingerprint)`` of an assumption formula.

    The ``repr`` is the sort key of :func:`task_fingerprint` and, being
    injective on fingerprints, its deduplication key too.  Both are
    memoized per interned formula, whose hash is O(1); hashing or printing
    the nested fingerprint tuple costs its whole size every time.
    """
    cached = _HYPOTHESIS_MEMO.get(term)
    if cached is None:
        fingerprint = _fingerprint(term, {}, 0)
        cached = (repr(fingerprint), fingerprint)
        if len(_HYPOTHESIS_MEMO) > _FP_MEMO_LIMIT:
            _HYPOTHESIS_MEMO.clear()
        _HYPOTHESIS_MEMO[term] = cached
    return cached


@dataclass(frozen=True)
class CachedVerdict:
    """The dispatcher verdict remembered for one canonical sequent.

    ``origin`` records where the verdict came from: ``"memory"`` for
    verdicts produced (and cached) during the current process, ``"disk"``
    for verdicts loaded from a :class:`PersistentCacheStore`.  Reports use
    it to split cache-hit provenance.
    """

    proved: bool
    refuted: bool
    winning_prover: str
    origin: str = "memory"


class ProofCache:
    """Maps canonical sequent fingerprints to dispatcher verdicts.

    Hit/miss accounting lives in
    :class:`~repro.provers.result.PortfolioStatistics` (maintained by the
    dispatcher), not here, so there is exactly one set of counters.

    ``namespace`` isolates tenants of a shared cache: while it is set to a
    non-empty string, every key produced by :meth:`key` is prefixed with a
    ``("tenant", namespace)`` component, so one tenant's verdicts can
    neither serve nor poison another's.  The daemon sets it to the
    authenticated client id for the duration of each engine op
    (:mod:`repro.verifier.daemon`); the default ``""`` leaves keys exactly
    as before, so single-tenant callers (CLI, tests, existing persistent
    stores) are unaffected.  Namespaced keys are ordinary fingerprints to
    everything downstream -- persistence, dependency records, parallel
    dedup all work per tenant for free.
    """

    def __init__(self, max_entries: int = 1 << 16) -> None:
        self.max_entries = max_entries
        self._entries: dict[tuple, CachedVerdict] = {}
        #: Bumped on every :meth:`store`; lets persistence layers skip
        #: writing when nothing new was learned since the last flush.
        self.mutations = 0
        #: The active tenant namespace ("" = the shared default tenant).
        self.namespace = ""

    def __len__(self) -> int:
        return len(self._entries)

    def key(self, task: ProofTask) -> tuple:
        fingerprint = task_fingerprint(task)
        if self.namespace:
            return (("tenant", self.namespace), *fingerprint)
        return fingerprint

    def fingerprint_of(self, key: tuple) -> tuple:
        """The task fingerprint inside a :meth:`key` made under the
        current namespace."""
        return key[1:] if self.namespace else key

    def lookup(self, key: tuple) -> CachedVerdict | None:
        return self._entries.get(key)

    def store(self, key: tuple, verdict: CachedVerdict) -> None:
        if len(self._entries) >= self.max_entries:
            self._entries.clear()
        self._entries[key] = verdict
        self.mutations += 1

    def preload(self, entries: dict[tuple, CachedVerdict]) -> None:
        """Seed the cache (e.g. from a persistent store) without eviction.

        Existing entries win: verdicts produced during this process are
        never overwritten by stale disk entries.  Seeding stops at half
        ``max_entries`` -- :meth:`store` evicts by clearing the whole
        cache when full, and an over-large persistent store must never
        fill the cache so far that the first new verdict wipes every
        preloaded one (the unseeded remainder is merely re-proved).
        """
        limit = self.max_entries // 2
        for key, verdict in entries.items():
            if len(self._entries) >= limit:
                break
            self._entries.setdefault(key, verdict)

    def snapshot(self) -> dict[tuple, CachedVerdict]:
        """A shallow copy of the cache contents (for persistence)."""
        return dict(self._entries)

    def clear(self) -> None:
        self._entries.clear()


# ---------------------------------------------------------------------------
# Cross-run persistence
# ---------------------------------------------------------------------------


# Fingerprints are stored as nested JSON arrays: they contain only
# ``str`` / ``int`` / ``bool`` leaves (no ids, no process-dependent
# hashes), so the encoding is lossless and stable across processes and
# hash seeds, and the C decoder parses a whole store quickly -- which
# matters because a warm start parses everything before the first sequent
# is answered.


def fingerprint_to_json(value):
    """Encode a fingerprint (nested tuples of str/int/bool) for the store."""
    if isinstance(value, tuple):
        return [fingerprint_to_json(item) for item in value]
    if isinstance(value, (str, int, bool)):
        return value
    raise ValueError(f"fingerprints contain only str/int/bool, got {type(value)!r}")


def fingerprint_from_json(value, shared: dict | None = None):
    """Decode :func:`fingerprint_to_json` output back into tuples.

    Equal subtrees decode to one tuple object.  ``shared``, one dict passed
    across a batch, extends that to the whole batch: a store's keys and
    dependency records then hold each hypothesis common to many sequents
    once, instead of tens of thousands of copies that every garbage
    collection of a long-lived process would walk.
    """
    if shared is None:
        shared = {}
    if isinstance(value, list):
        # Leaves are checked inline, by exact type (``json.loads`` builds no
        # subclasses): a warm start decodes every stored fingerprint.
        items = []
        for item in value:
            kind = type(item)
            if kind is list:
                item = fingerprint_from_json(item, shared)
            elif kind is not str and kind is not int and kind is not bool:
                raise ValueError(f"invalid fingerprint element {item!r}")
            items.append(item)
        decoded = tuple(items)
        return shared.setdefault(decoded, decoded)
    if isinstance(value, (str, int, bool)):
        return value
    raise ValueError(f"invalid fingerprint element {value!r}")


class _Decoded:
    """What a read decodes from a store file, item by item.

    Damaged entries and class records are skipped, keeping the rest.  An
    item added with the ``text`` it was decoded from keeps that text as
    its fragment for the next save (see :meth:`PersistentCacheStore._encode`).
    """

    def __init__(self) -> None:
        self.entries: dict[tuple, CachedVerdict] = {}
        self.dependencies: dict[str, dict] = {}
        #: ``(dependencies, entries)`` fragments, as the store keeps them.
        self.fragments: tuple[dict, dict] = ({}, {})
        #: One tuple per distinct fingerprint subtree across the file.
        self._shared: dict[tuple, tuple] = {}

    def add_entry(self, pair, text: str | None = None) -> None:
        try:
            raw_key, verdict = pair
            key = fingerprint_from_json(raw_key, self._shared)
            if not isinstance(key, tuple):
                raise ValueError("fingerprint must be a tuple")
            value = (
                bool(verdict["proved"]),
                bool(verdict["refuted"]),
                str(verdict["prover"]),
            )
        except (ValueError, KeyError, TypeError):
            return
        self.entries[key] = CachedVerdict(*value, origin="disk")
        if text is not None:
            self.fragments[1][key] = (value, text)

    def add_record(self, name: str, record, text: str | None = None) -> None:
        """Add one class's dependency record.

        Only the JSON *shape* is checked (string artifact digests, a list
        of per-method records each carrying ``[label, fingerprint]``
        sequent pairs); semantic interpretation lives in
        :class:`repro.verifier.incremental.DependencyIndex`.  Fingerprints
        decode to tuples, as in memory, sharing subtrees with the entry
        keys.
        """
        shared = self._shared
        try:
            artifacts = {
                str(key): str(value) for key, value in record["artifacts"].items()
            }
            methods = []
            for method_name, method_record in record["methods"]:
                sequents = []
                for label, fp in method_record["sequents"]:
                    sequents.append([str(label), fingerprint_from_json(fp, shared)])
                methods.append(
                    [
                        str(method_name),
                        {
                            "digest": str(method_record["digest"]),
                            "sequents": sequents,
                        },
                    ]
                )
        except (ValueError, KeyError, TypeError, AttributeError):
            return
        decoded = {"artifacts": artifacts, "methods": methods}
        self.dependencies[name] = decoded
        if text is not None:
            self.fragments[0][name] = (decoded, text)


def _scan_items(raw: str, at: int, close: str, scan_item) -> int:
    """Scan the items of a JSON object or array whose opening bracket ends
    just before ``raw[at]``: ``scan_item(at)`` reads one item and returns
    where it ends, and the items must be joined by bare commas up to the
    ``close`` bracket.  Returns the index after that bracket."""
    if raw[at] == close:
        return at + 1
    while True:
        at = scan_item(at)
        if raw[at] == close:
            return at + 1
        if raw[at] != ",":
            raise ValueError("items are joined by bare commas")
        at += 1


class PersistentCacheStore:
    """Cross-run persistence for :class:`ProofCache` verdicts.

    The on-disk format (field-by-field), the versioning/invalidation
    matrix and the merge-save locking protocol are specified in
    ``docs/cache-format.md``; keep that document in sync with any change
    here (and bump :data:`CACHE_FORMAT_VERSION` /
    :data:`FINGERPRINT_VERSION` as it prescribes).

    The store is a single versioned JSON file under ``directory``.  A store
    is only valid for one portfolio configuration (prover line-up and
    per-prover timeouts, summarized by ``portfolio_key``) and one
    fingerprint scheme (:data:`FINGERPRINT_VERSION`): any mismatch -- as
    well as a missing, truncated or otherwise corrupted file -- degrades to
    a cold start, never to a crash or a misused verdict.

    Writes are atomic (temp file + ``os.replace`` in the same directory)
    and *merging*: :meth:`save` takes an inter-process file lock and
    unions the current file's contents with the new entries, so
    concurrent writers can never corrupt the file and never lose each
    other's verdicts (on platforms without ``fcntl`` the lock degrades to
    plain atomic replace, where a racing writer's batch may be dropped but
    the file always stays readable).

    The store remembers the decoded contents of the file it last loaded or
    wrote, together with that file's identity and the text of each class
    record and entry in it: the text a save encoded, or the slice a read
    decoded from a file in the layout saves write.  While the file under
    the lock is still that one, a merge-save unions into the remembered
    contents instead of re-reading the file; either way it encodes only
    the records and entries that are new or changed and reuses the rest's
    text, so an edit-sized save encodes one record, the first save after
    a load included.  Records handed to :meth:`save` and returned by
    :meth:`load` are shared with the remembered contents and must not be
    mutated in place.
    """

    FILENAME = "proof_cache.json"

    #: Entry cap for the on-disk file: merge-saves union forever, so an
    #: unbounded store would eventually grow past any usefulness (and past
    #: :class:`ProofCache`'s own limits).  When the cap is hit the oldest
    #: entries are dropped (newly learned verdicts are kept).
    MAX_ENTRIES = 1 << 16

    def __init__(
        self,
        directory: str | Path,
        portfolio_key: str,
        filename: str | None = None,
        max_entries: int = MAX_ENTRIES,
    ) -> None:
        self.directory = Path(directory)
        self.portfolio_key = portfolio_key
        self.path = self.directory / (filename or self.FILENAME)
        self.max_entries = max_entries
        #: Human-readable outcome of the last :meth:`load` call (the
        #: internal re-reads of merge-saves do not touch it).
        self.last_load_status = "not-loaded"
        #: The per-class dependency index of the last :meth:`load`
        #: (JSON-ready, see ``docs/cache-format.md``; empty on a cold
        #: start).  Consumed by
        #: :class:`repro.verifier.incremental.DependencyIndex`.
        self.last_dependencies: dict[str, dict] = {}
        #: ``(entries, dependencies)`` as the file held them when this
        #: store last read or wrote it, or None.
        self._known: tuple[dict, dict] | None = None
        #: That file's ``os.fstat`` at the time.
        self._known_stat: os.stat_result | None = None
        #: Closes a read-only fd kept open on that file, so that its inode
        #: cannot be recycled for another file while it is remembered.
        self._known_fd: weakref.finalize | None = None
        #: The text of the file this store last read or wrote, piece by
        #: piece, reused by the next save: ``(dependencies, entries)``,
        #: mapping each class name to ``(record, '"name":{...}')`` and each
        #: key to ``((proved, refuted, prover), '[key,{...}]')``.  Empty
        #: after reading a file in another layout; dropped with
        #: :attr:`_known`.
        self._fragments: tuple[dict, dict] = ({}, {})

    # -- reading -----------------------------------------------------------------

    def load(self) -> dict[tuple, CachedVerdict]:
        """Load the persisted verdicts, or ``{}`` on any mismatch/corruption.

        The dependency index that rode along is exposed as
        :attr:`last_dependencies` afterwards.
        """
        entries, dependencies, status = self._read()
        self.last_load_status = status
        self.last_dependencies = dependencies
        return dict(entries)

    def _read(self) -> tuple[dict[tuple, CachedVerdict], dict[str, dict], str]:
        """Parse the file and remember what it held (see :meth:`save`)."""
        self._forget()
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except (FileNotFoundError, NotADirectoryError):
            return {}, {}, "cold:missing"
        except OSError:
            return {}, {}, "cold:unreadable"
        try:
            # Identity before contents: an edit racing the read leaves the
            # remembered stat stale, so the next save re-reads.
            stat = os.fstat(fd)
            with open(fd, encoding="utf-8", closefd=False) as handle:
                raw = handle.read()
        except (OSError, ValueError):
            os.close(fd)
            return {}, {}, "cold:unreadable"
        # The parsed JSON arrays -- tens of thousands -- live until decoding
        # ends and hold no cycles; collections in between would only promote
        # them, and a long-lived process (daemon, test runner) would pay for
        # that in full-heap passes over its own objects.
        collecting = gc.isenabled()
        gc.disable()
        try:
            entries, dependencies, status, fragments = self._parse(raw)
        finally:
            if collecting:
                gc.enable()
        self._remember(fd, stat, (entries, dict(dependencies)), fragments)
        return entries, dependencies, status

    def _remember(
        self,
        fd: int,
        stat: os.stat_result,
        state: tuple[dict, dict],
        fragments: tuple[dict, dict] | None = None,
    ) -> None:
        """Remember ``state`` as the contents of the file open on ``fd``,
        and ``fragments`` as its encoding where this store wrote it."""
        self._forget()
        self._known = state
        self._known_stat = stat
        self._known_fd = weakref.finalize(self, os.close, fd)
        self._fragments = fragments or ({}, {})

    def _forget(self) -> None:
        if self._known_fd is not None:
            self._known_fd()
        self._known = self._known_stat = self._known_fd = None
        self._fragments = ({}, {})

    def _file_is_known(self) -> bool:
        """Whether the file is still the one last read or written here:
        same inode, size and modification time.  Any other writer replaces
        the file (a new inode) or edits it in place (a new mtime)."""
        if self._known is None:
            return False
        try:
            current = os.stat(self.path)
        except OSError:
            return False
        known = self._known_stat
        return (
            os.path.samestat(current, known)
            and current.st_size == known.st_size
            and current.st_mtime_ns == known.st_mtime_ns
        )

    def _parse(
        self, raw: str
    ) -> tuple[dict[tuple, CachedVerdict], dict[str, dict], str, tuple[dict, dict]]:
        """Decode the file's text into ``(entries, dependencies, status,
        fragments)``.

        A file in the layout :meth:`_encode` writes is decoded member by
        member, each keeping the text it was decoded from as its fragment
        (see :meth:`_scan`).  Any other file is parsed whole and keeps no
        fragments.
        """
        decoded = self._scan(raw)
        if decoded is None:
            try:
                payload = json.loads(raw)
            except (json.JSONDecodeError, ValueError):
                return {}, {}, "cold:corrupt", ({}, {})
            if not isinstance(payload, dict):
                return {}, {}, "cold:corrupt", ({}, {})
            if payload.get("format") != CACHE_FORMAT_VERSION:
                return {}, {}, "cold:format-mismatch", ({}, {})
            if payload.get("fingerprint_version") != FINGERPRINT_VERSION:
                return {}, {}, "cold:fingerprint-mismatch", ({}, {})
            if payload.get("portfolio") != self.portfolio_key:
                return {}, {}, "cold:portfolio-mismatch", ({}, {})
            raw_entries = payload.get("entries")
            if not isinstance(raw_entries, list):
                return {}, {}, "cold:corrupt", ({}, {})
            decoded = _Decoded()
            for pair in raw_entries:
                decoded.add_entry(pair)
            raw_dependencies = payload.get("dependencies")
            if isinstance(raw_dependencies, dict):
                for name, record in raw_dependencies.items():
                    decoded.add_record(name, record)
        status = f"warm:{len(decoded.entries)}"
        return decoded.entries, decoded.dependencies, status, decoded.fragments

    def _header(self) -> str:
        """The file's identity fields as :meth:`_encode` writes them, an
        object without its closing brace."""
        header = json.dumps(
            {
                "format": CACHE_FORMAT_VERSION,
                "fingerprint_version": FINGERPRINT_VERSION,
                "portfolio": self.portfolio_key,
            },
            separators=_SEPARATORS,
        )
        return header[:-1]

    def _scan(self, raw: str) -> _Decoded | None:
        """Decode a file in the layout :meth:`_encode` writes, or None.

        The file must be this store's header, then the ``"name":{...}``
        members of ``dependencies`` and the ``[key,{...}]`` elements of
        ``entries`` joined by bare commas, each name once.  Each is decoded
        as it is read, with the C decoder ``json.loads`` uses, so only one
        item's parse is alive at a time, and keeps its text.  Anything
        else -- another portfolio, whitespace, a repeated name, a
        truncation -- returns None, and :meth:`_parse` decides the file as
        a whole.
        """
        prefix = self._header() + ',"dependencies":{'
        if not raw.startswith(prefix):
            return None
        decoded = _Decoded()
        names: set[str] = set()
        decode = _DECODER.raw_decode

        def member(at: int) -> int:
            if raw[at] != '"':
                raise ValueError("a member is a quoted name")
            name, colon = json.decoder.scanstring(raw, at + 1)
            if raw[colon] != ":" or name in names:
                raise ValueError("a name is followed by a colon, and is unique")
            names.add(name)
            record, end = decode(raw, colon + 1)
            decoded.add_record(name, record, raw[at:end])
            return end

        def element(at: int) -> int:
            pair, end = decode(raw, at)
            decoded.add_entry(pair, raw[at:end])
            return end

        try:
            at = _scan_items(raw, len(prefix), "}", member)
            if not raw.startswith(',"entries":[', at):
                return None
            at = _scan_items(raw, at + len(',"entries":['), "]", element)
        except (ValueError, IndexError):  # JSONDecodeError is a ValueError
            return None
        if at != len(raw) - 1 or raw[at] != "}":
            return None
        return decoded

    # -- writing -----------------------------------------------------------------

    def save(
        self,
        entries: dict[tuple, CachedVerdict],
        merge: bool = True,
        dependencies: dict[str, dict] | None = None,
    ) -> int:
        """Atomically write ``entries``; returns the number persisted.

        With ``merge`` (the default) the current on-disk entries are
        unioned in first, so concurrent writers and repeated partial runs
        accumulate instead of clobbering each other.  The file is re-read
        for that only when it is not the one this store last read or
        wrote; otherwise the remembered contents are what it holds.
        ``dependencies`` optionally carries the JSON-ready per-class
        dependency index to persist alongside (merged per class name, new
        data winning).
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        with self._write_lock():
            try:
                return self._save_locked(entries, merge, dependencies)
            except BaseException:
                # The remembered contents may hold a merge that never
                # reached the file.
                self._forget()
                raise

    @contextlib.contextmanager
    def _write_lock(self):
        if fcntl is None:
            yield
            return
        lock_path = self.path.with_suffix(self.path.suffix + ".lock")
        with open(lock_path, "a+") as lock_file:
            fcntl.flock(lock_file.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file.fileno(), fcntl.LOCK_UN)

    def _save_locked(
        self,
        entries: dict[tuple, CachedVerdict],
        merge: bool,
        dependencies: dict[str, dict] | None = None,
    ) -> int:
        known = None
        if merge:
            if not self._file_is_known():
                self._read()
            known = self._known
        combined, combined_dependencies = known or ({}, {})
        for key in entries:
            if key not in combined:
                # Only str/int/bool leaves may reach the file; keys already
                # remembered were checked when they arrived.
                fingerprint_to_json(key)
        combined.update(entries)
        if dependencies:
            combined_dependencies.update(dependencies)
        if len(combined) > self.max_entries:
            # Dict order is insertion order: disk entries came first, so
            # dropping from the front keeps the newest verdicts.
            excess = len(combined) - self.max_entries
            for key in list(combined)[:excess]:
                del combined[key]
        text, fragments = self._encode(combined, combined_dependencies)
        fd, temp_path = tempfile.mkstemp(
            prefix=self.path.name + ".", suffix=".tmp", dir=self.directory
        )
        known_fd = None
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
                handle.flush()
                os.fsync(handle.fileno())
            known_fd = os.open(temp_path, os.O_RDONLY)
            # Renaming keeps the inode, size and mtime that identify it.
            stat = os.fstat(known_fd)
            os.replace(temp_path, self.path)
        except BaseException:
            if known_fd is not None:
                os.close(known_fd)
            try:
                os.unlink(temp_path)
            except OSError:
                pass
            raise
        self._remember(known_fd, stat, (combined, combined_dependencies), fragments)
        return len(combined)

    def _encode(
        self, entries: dict[tuple, CachedVerdict], dependencies: dict[str, dict]
    ) -> tuple[str, tuple[dict, dict]]:
        """The file's text, and the fragments it was joined from.

        The text is ``json.dumps(payload, separators=(",", ":"))`` of the
        whole payload (the C encoder; fingerprint tuples become arrays),
        but only what no remembered fragment covers is encoded here: a
        class record the same object as last time, or an entry with the
        same verdict, reuses its fragment -- the text the last save encoded
        or the last read decoded it from.  Records are never mutated in
        place, so an unchanged object is an unchanged encoding.  (A record
        read from a hand-edited file in the saves' layout keeps its own
        spelling until it is replaced; that text decodes to the same
        record.)  Building new memos from the payload drops evicted keys
        and replaced records.
        """
        old_dependencies, old_entries = self._fragments
        new_dependencies: dict[str, tuple[dict, str]] = {}
        for name, record in dependencies.items():
            memo = old_dependencies.get(name)
            if memo is None or memo[0] is not record:
                # A one-item object without its braces: '"name":{...}'.
                encoded = json.dumps({name: record}, separators=_SEPARATORS)
                memo = (record, encoded[1:-1])
            new_dependencies[name] = memo
        new_entries: dict[tuple, tuple[tuple, str]] = {}
        for key, verdict in entries.items():
            value = (verdict.proved, verdict.refuted, verdict.winning_prover)
            memo = old_entries.get(key)
            if memo is None or memo[0] != value:
                fields = {"proved": value[0], "refuted": value[1], "prover": value[2]}
                memo = (value, json.dumps([key, fields], separators=_SEPARATORS))
            new_entries[key] = memo
        text = "".join(
            (
                self._header(),
                ',"dependencies":{',
                ",".join(memo[1] for memo in new_dependencies.values()),
                '},"entries":[',
                ",".join(memo[1] for memo in new_entries.values()),
                "]}",
            )
        )
        return text, (new_dependencies, new_entries)
