"""Memory-encryption engine models (Sec 3.2 "Memory encryption", Fig 11).

HyperEnclave uses AMD SME (AES-XTS, no integrity metadata); SGX1 uses the
Memory Encryption Engine (AES-CTR plus a Merkle/counter tree for integrity
and freshness).  Both act at cache-line granularity on LLC misses:

* :class:`AmdSme` charges a flat pipelined-XTS latency per missed line.
* :class:`IntelMee` additionally walks a counter tree; counter-tree lines
  have their own small metadata cache, so sequential traffic amortizes the
  tree while random traffic over a large footprint pays metadata misses.
  This locality difference is what separates the SGX and HyperEnclave
  curves in Figure 11 and the memory-intensive workloads in Figure 8.

All constants live in :mod:`repro.hw.costs`.

:meth:`IntelMee.miss_cycles_run` is the bulk kernel: within a
run of consecutive missed lines only the *first* line of each level-1
counter-tree group walks the tree; the rest probe the just-refreshed node
and hit, so their cost and counter effects are closed-form.  Charges and
metadata-cache state match per-line :meth:`IntelMee.miss_cycles` calls
bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.hw import costs


class EncryptionEngine:
    """Base engine: no encryption, no extra cost."""

    name = "none"

    def miss_cycles(self, line_id: int, *, write: bool = False,
                    streaming: bool = False) -> float:
        """Extra cycles charged for one missed cache line.

        ``streaming`` marks prefetcher-friendly sequential misses, whose
        decrypt latency the pipeline hides almost completely.
        """
        return 0.0

    def missed_cycles(self, misses: int, runs: list[tuple[int, int]], *,
                      write: bool = False, streaming: bool = False) -> float:
        """Extra cycles for ``misses`` missed lines in ascending ``runs``.

        ``runs`` are the half-open ``(start, stop)`` line runs from
        :meth:`~repro.hw.cache.Llc.access_range`; the total equals the
        per-line :meth:`miss_cycles` sum bit for bit.
        """
        return 0.0

    def writeback_cycles(self) -> float:
        """Extra cycles charged when a dirty line is evicted to DRAM."""
        return 0.0

    def reset(self) -> None:
        """Drop any internal metadata state (e.g. on reboot)."""

    def stats(self) -> dict[str, int]:
        """Engine-internal counters for the telemetry collectors."""
        return {}


class NoEncryption(EncryptionEngine):
    """Plaintext DRAM (the no-protection baselines)."""


class AmdSme(EncryptionEngine):
    """AMD Secure Memory Encryption: AES-XTS, no integrity metadata."""

    name = "amd-sme"

    def __init__(self, per_miss: float = costs.SME_MISS_EXTRA_CYCLES,
                 per_writeback: float = costs.SME_WRITEBACK_EXTRA_CYCLES,
                 per_stream_miss: float = costs.SME_STREAM_MISS_EXTRA_CYCLES
                 ) -> None:
        self.per_miss = per_miss
        self.per_writeback = per_writeback
        self.per_stream_miss = per_stream_miss

    def miss_cycles(self, line_id: int, *, write: bool = False,
                    streaming: bool = False) -> float:
        return self.per_stream_miss if streaming else self.per_miss

    def missed_cycles(self, misses: int, runs: list[tuple[int, int]], *,
                      write: bool = False, streaming: bool = False) -> float:
        per = self.per_stream_miss if streaming else self.per_miss
        return misses * per

    def writeback_cycles(self) -> float:
        return self.per_writeback


class IntelMee(EncryptionEngine):
    """Intel SGX Memory Encryption Engine: AES-CTR + counter tree.

    Each missed data line requires the counter-tree nodes covering it.  A
    level-``l`` metadata line covers ``64**l`` data lines; metadata lines
    live in a small cache, so workloads with locality (or sequential
    sweeps) rarely miss them while uniform-random traffic over a large
    footprint misses a node or two per access.
    """

    name = "intel-mee"

    def __init__(self,
                 per_miss: float = costs.MEE_MISS_EXTRA_CYCLES,
                 levels: int = costs.MEE_TREE_LEVELS,
                 arity_shift: int = costs.MEE_TREE_ARITY_SHIFT,
                 cache_lines: int = costs.MEE_METADATA_CACHE_LINES,
                 per_writeback: float = costs.MEE_WRITEBACK_EXTRA_CYCLES
                 ) -> None:
        self.per_miss = per_miss
        self.per_writeback = per_writeback
        self.per_stream_miss = costs.MEE_STREAM_MISS_EXTRA_CYCLES
        self.levels = levels
        self.arity_shift = arity_shift
        self.cache_lines = cache_lines
        self._metadata: OrderedDict[tuple[int, int], None] = OrderedDict()
        self.metadata_hits = 0
        self.metadata_misses = 0

    def miss_cycles(self, line_id: int, *, write: bool = False,
                    streaming: bool = False) -> float:
        extra = self.per_stream_miss if streaming else self.per_miss
        metadata = self._metadata
        node = line_id
        for level in range(1, self.levels + 1):
            node >>= self.arity_shift
            key = (level, node)
            extra += costs.MEE_METADATA_PROBE_CYCLES
            if key in metadata:
                metadata.move_to_end(key)
                self.metadata_hits += 1
                # Upper levels are covered once a lower node hits.
                break
            self.metadata_misses += 1
            extra += costs.MEE_METADATA_MISS_CYCLES
            metadata[key] = None
            if len(metadata) > self.cache_lines:
                metadata.popitem(last=False)
        return extra

    def miss_cycles_run(self, start: int, stop: int, *,
                        write: bool = False, streaming: bool = False
                        ) -> float:
        """Total miss cycles for consecutive missed lines ``[start, stop)``.

        The first line of each level-1 counter-tree group does the full
        tree walk (inserting/refreshing the level-1 node); the *second*
        line probes that node, hits, and moves it to MRU (replayed here
        as one ``move_to_end``, since the first walk may have left an
        upper-level node above it); every later line's probe hits the
        already-MRU node with no cache mutation.  The group remainder is
        therefore a single multiplication.  Bit-identical to per-line
        calls.
        """
        if self.levels < 1:
            base = self.per_stream_miss if streaming else self.per_miss
            return (stop - start) * base
        if self.cache_lines < self.levels:
            # A metadata cache smaller than one walk can evict the
            # level-1 node during its own walk; no shortcut is exact.
            return sum(self.miss_cycles(line, write=write,
                                        streaming=streaming)
                       for line in range(start, stop))
        shift = self.arity_shift
        per_line = (self.per_stream_miss if streaming else self.per_miss) \
            + costs.MEE_METADATA_PROBE_CYCLES
        metadata = self._metadata
        extra = 0.0
        line = start
        group_hits = 0
        while line < stop:
            extra += self.miss_cycles(line, write=write, streaming=streaming)
            group_end = ((line >> shift) + 1) << shift
            if group_end > stop:
                group_end = stop
            rest = group_end - line - 1
            if rest > 0:
                metadata.move_to_end((1, line >> shift))
                extra += rest * per_line
                group_hits += rest
            line = group_end
        self.metadata_hits += group_hits
        return extra

    def missed_cycles(self, misses: int, runs: list[tuple[int, int]], *,
                      write: bool = False, streaming: bool = False) -> float:
        extra = 0.0
        for start, stop in runs:
            extra += self.miss_cycles_run(start, stop, write=write,
                                          streaming=streaming)
        return extra

    def writeback_cycles(self) -> float:
        return self.per_writeback

    def reset(self) -> None:
        """Drop the metadata cache *and* its hit/miss counters.

        ``MemorySubsystem.reset_state()`` means "cold machine between
        benchmark configurations"; counters carrying across
        configurations would skew any stats-derived figure and make
        per-configuration telemetry non-reproducible.
        """
        self._metadata.clear()
        self.metadata_hits = 0
        self.metadata_misses = 0

    def stats(self) -> dict[str, int]:
        return {"metadata_hits": self.metadata_hits,
                "metadata_misses": self.metadata_misses,
                "metadata_cached": len(self._metadata)}
