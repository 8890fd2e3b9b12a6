"""Last-level-cache model.

A set of resident 64-byte lines with LRU eviction.  The workload memory
model (``repro.hw.memmodel``) and the memory-encryption engines consult it:
hits cost :data:`~repro.hw.costs.LLC_HIT_CYCLES`, misses cost a DRAM access
plus whatever the active encryption engine charges per missed line.

:meth:`Llc.access_range` is the bulk kernel: it processes an
ascending line range in one call, taking provably exact shortcuts for the
all-hit and all-miss cases (including the cyclic-sweep all-miss case where
residual entries are always evicted before being reached) and falling back
to an inlined per-line loop otherwise.  Counters, dirty bits, and the LRU
order come out bit-identical to per-line :meth:`Llc.access_ex` calls.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hw import costs


class Llc:
    """LRU cache of line ids (line id = physical/abstract address // 64)."""

    __slots__ = ("line_size", "capacity_lines", "_lines", "hits", "misses")

    def __init__(self, size_bytes: int = costs.LLC_SIZE,
                 line_size: int = costs.CACHE_LINE) -> None:
        if size_bytes < line_size:
            raise ValueError("cache smaller than one line")
        self.line_size = line_size
        self.capacity_lines = size_bytes // line_size
        self._lines: OrderedDict[int, bool] = OrderedDict()  # line -> dirty
        self.hits = 0
        self.misses = 0

    def access(self, line_id: int, *, write: bool = False) -> bool:
        """Touch one line; returns True on hit.  Evicts LRU on fill."""
        return self.access_ex(line_id, write=write)[0]

    def access_ex(self, line_id: int, *,
                  write: bool = False) -> tuple[bool, bool]:
        """Touch one line; returns (hit, evicted_dirty_line).

        The second flag drives the encryption engines' write-back costs:
        a dirty line leaving the LLC must be re-encrypted (and, for MEE,
        re-MACed with a counter-tree update).
        """
        dirty = self._lines.get(line_id)
        if dirty is not None:
            self._lines.move_to_end(line_id)
            if write and not dirty:
                self._lines[line_id] = True
            self.hits += 1
            return True, False
        self.misses += 1
        self._lines[line_id] = write
        evicted_dirty = False
        if len(self._lines) > self.capacity_lines:
            _, evicted_dirty = self._lines.popitem(last=False)
        return False, evicted_dirty

    # -- bulk range kernel ---------------------------------------------------

    def _sweep_evicts_all(self, first: int, last: int) -> bool:
        """True when an all-miss sweep of ``[first, last]`` is exact.

        Hypothesis: every access misses.  Then after the accesses before
        line ``l`` there have been ``max(0, S + (l - first) - C)``
        evictions (S = current size, C = capacity), removing the oldest
        entries in LRU order.  A cached key ``k`` at 1-based LRU position
        ``i`` is therefore gone before the sweep reaches it iff
        ``k - i >= first + C - S``.  When that holds for every cached key
        inside the range the hypothesis is self-consistent — the sweep
        really does miss on every line.  When it fails we simply fall
        back to the per-line loop, so the check is sound either way.
        """
        lines = self._lines
        bound = first + self.capacity_lines - len(lines)
        for i, k in enumerate(lines, 1):
            if first <= k <= last and k - i < bound:
                return False
        return True

    def access_range(self, first: int, last: int, *, write: bool = False
                     ) -> tuple[int, int, int, list[tuple[int, int]]]:
        """Touch every line in ``[first, last]`` ascending, once each.

        Returns ``(hits, misses, dirty_evictions, missed_runs)`` where
        ``missed_runs`` is the ascending list of half-open ``(start,
        stop)`` runs of missed lines — what a metadata-walking encryption
        engine needs to charge exactly.  State and counters match a
        per-line :meth:`access_ex` loop bit for bit.
        """
        lines = self._lines
        n = last - first + 1
        if n == 1:
            hit, evicted_dirty = self.access_ex(first, write=write)
            if hit:
                return 1, 0, 0, []
            return 0, 1, 1 if evicted_dirty else 0, [(first, first + 1)]

        rng = range(first, last + 1)
        contains = lines.__contains__

        # All-hit: no inserts, hence no evictions — initial membership is
        # final membership, so the pre-scan is exact.
        if all(map(contains, rng)):
            self.hits += n
            if len(lines) == n:
                # The range covers every cached line: the final LRU order
                # is simply ascending — rebuild at C speed.
                if write:
                    self._lines = OrderedDict.fromkeys(rng, True)
                elif not any(lines.values()):
                    self._lines = OrderedDict.fromkeys(rng, False)
                else:
                    self._lines = OrderedDict((l, lines[l]) for l in rng)
            else:
                mte = lines.move_to_end
                if write:
                    for l in rng:
                        mte(l)
                        lines[l] = True
                else:
                    for l in rng:
                        mte(l)
            return n, 0, 0, []

        # All-miss: exact when nothing in the range is cached (a line this
        # sweep inserts is never revisited), or when every cached in-range
        # line is provably evicted before being reached (cyclic sweep).
        if not any(map(contains, rng)) or self._sweep_evicts_all(first, last):
            self.misses += n
            size0 = len(lines)
            cap = self.capacity_lines
            evictions = size0 + n - cap
            dirty_evictions = 0
            if evictions <= 0:
                lines.update(dict.fromkeys(rng, write))
            elif evictions >= size0:
                # Every old entry is evicted, plus the first
                # ``evictions - size0`` lines of the sweep itself.
                dirty_evictions = sum(lines.values())
                if write:
                    dirty_evictions += evictions - size0
                self._lines = OrderedDict.fromkeys(
                    range(last - cap + 1, last + 1), write)
            else:
                popitem = lines.popitem
                for _ in range(evictions):
                    if popitem(last=False)[1]:
                        dirty_evictions += 1
                lines.update(dict.fromkeys(rng, write))
            return 0, n, dirty_evictions, [(first, last + 1)]

        # Mixed: the per-line reference loop, inlined with bound locals.
        hits = misses = dirty_evictions = 0
        runs: list[tuple[int, int]] = []
        run_start = -1
        get = lines.get
        mte = lines.move_to_end
        popitem = lines.popitem
        cap = self.capacity_lines
        for l in rng:
            d = get(l)
            if d is not None:
                if run_start >= 0:
                    runs.append((run_start, l))
                    run_start = -1
                mte(l)
                if write and not d:
                    lines[l] = True
                hits += 1
            else:
                if run_start < 0:
                    run_start = l
                misses += 1
                lines[l] = write
                if len(lines) > cap:
                    if popitem(last=False)[1]:
                        dirty_evictions += 1
        if run_start >= 0:
            runs.append((run_start, last + 1))
        self.hits += hits
        self.misses += misses
        return hits, misses, dirty_evictions, runs

    # -- maintenance ---------------------------------------------------------

    def contains(self, line_id: int) -> bool:
        return line_id in self._lines

    def flush_line(self, line_id: int) -> None:
        """CLFLUSH: drop one line (the Figure-7 benchmark uses this)."""
        self._lines.pop(line_id, None)

    def flush_range(self, start: int, length: int) -> None:
        """CLFLUSH over a byte range of line-addressable memory."""
        first = start // self.line_size
        last = (start + max(length - 1, 0)) // self.line_size
        if last - first + 1 > 4 * len(self._lines):
            # Sparse cache, huge range: walk the resident lines instead.
            for line in [l for l in self._lines if first <= l <= last]:
                del self._lines[line]
            return
        for line in range(first, last + 1):
            self._lines.pop(line, None)

    def flush_all(self) -> None:
        self._lines.clear()

    def stats(self) -> dict[str, int]:
        """Hit/miss counters for the telemetry collectors."""
        return {"hits": self.hits, "misses": self.misses,
                "lines": len(self._lines),
                "capacity_lines": self.capacity_lines}

    def __len__(self) -> int:
        return len(self._lines)
