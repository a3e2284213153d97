"""Footprints: the sets of memory locations a step reads and writes.

A footprint ``δ = (rs, ws)`` (Fig. 4) is the central instrument of the
paper: module-local steps are labelled with footprints, data races are
conflicts between footprints of different threads (Sec. 5), and the
compilation correctness criterion requires the target's footprints to be
contained in the source's, modulo an address mapping (``FPmatch``,
Fig. 8).

Footprints are immutable and hashable, so they can label transitions in
the explored state graphs. When a footprint is "used as a set" (as the
paper does in the conflict definition), it denotes ``rs ∪ ws`` — that is
:meth:`Footprint.locs`.

Footprints are *hash-consed*: the handful of distinct ``(rs, ws)`` pairs
a program's steps produce are built millions of times during
exploration, so construction interns through a bounded table and equal
footprints are (almost always) the same object — set operations in the
race detector and edge labelling hit pointer equality. Structural
``__eq__`` remains the fallback, so a table clear never changes
semantics.
"""

from repro.common.intern import InternTable

_INTERNED = InternTable("footprint", max_size=1 << 18)


class Footprint:
    """An immutable footprint ``(rs, ws)`` of read and written addresses."""

    __slots__ = ("rs", "ws", "_hash", "_locs")

    def __new__(cls, rs=(), ws=()):
        if type(rs) is not frozenset:
            rs = frozenset(rs)
        if type(ws) is not frozenset:
            ws = frozenset(ws)
        key = (rs, ws)
        table = _INTERNED
        cached = table.table.get(key)
        if cached is not None:
            table.hits += 1
            return cached
        self = object.__new__(cls)
        object.__setattr__(self, "rs", rs)
        object.__setattr__(self, "ws", ws)
        object.__setattr__(self, "_hash", hash(key))
        if len(table.table) >= table.max_size:
            # Inlined mirror of InternTable.intern's bookkeeping.
            table.clears += 1
            table.table.clear()
        table.table[key] = self
        table.misses += 1
        if len(table.table) > table.peak_size:
            table.peak_size = len(table.table)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Footprint is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Footprint)
            and self.rs == other.rs
            and self.ws == other.ws
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Footprint(rs={}, ws={})".format(
            sorted(self.rs), sorted(self.ws)
        )

    def locs(self):
        """All locations touched: ``rs ∪ ws`` (the paper's ``δ`` as a set).

        Cached: footprints are interned and immutable, and the conflict
        check on the race detector's hot path calls this repeatedly for
        the same handful of footprints.
        """
        try:
            return self._locs
        except AttributeError:
            locs = self.rs | self.ws
            object.__setattr__(self, "_locs", locs)
            return locs

    def union(self, other):
        """``δ ∪ δ'`` — componentwise union (Fig. 6)."""
        if other is self or not (other.rs or other.ws):
            return self
        if not (self.rs or self.ws):
            return other
        return Footprint(self.rs | other.rs, self.ws | other.ws)

    def subset_of(self, other):
        """``δ ⊆ δ'`` — componentwise inclusion (Fig. 6)."""
        return self.rs <= other.rs and self.ws <= other.ws

    def is_empty(self):
        return not self.rs and not self.ws

    def restricted(self, region):
        """The part of this footprint inside ``region`` (a set of addrs)."""
        if not (self.rs or self.ws):
            return self
        region = frozenset(region)
        return Footprint(self.rs & region, self.ws & region)

    def within(self, region, other=()):
        """True iff every touched location lies in ``region ∪ other``.

        This is the in-scope condition ``δ ⊆ (F ∪ S)`` of Def. 3, with the
        module's freelist addresses and the shared locations passed as the
        two sets (tested by membership, never unioned).
        """
        return all(l in region or l in other for l in self.locs())


#: The empty footprint ``emp``.
EMP = Footprint()


def union_all(footprints):
    """Union of an iterable of footprints (``emp`` for the empty one)."""
    rs = set()
    ws = set()
    for fp in footprints:
        rs |= fp.rs
        ws |= fp.ws
    return Footprint(rs, ws)


def conflict(d1, d2):
    """``δ1 ⌢ δ2``: one footprint writes what the other touches (Sec. 5).

    ``(δ1.ws ∩ δ2 ≠ ∅) ∨ (δ2.ws ∩ δ1 ≠ ∅)`` where ``δ`` as a set means
    ``rs ∪ ws``. The empty/read-only fast paths skip the set algebra
    entirely — most step footprints on the exploration hot path are
    ``emp`` or pure reads, and interning makes the identity tests hit.
    """
    ws1 = d1.ws
    ws2 = d2.ws
    if not ws1 and not ws2:
        # Two pure reads (or emp) never conflict.
        return False
    if ws1 and not ws1.isdisjoint(d2.locs()):
        return True
    return bool(ws2) and not ws2.isdisjoint(d1.locs())


def disjoint(d1, d2):
    """``¬(δ1 ⌢ δ2)`` — the independence test POR builds on."""
    return not conflict(d1, d2)


def conflict_atomic(d1, atomic1, d2, atomic2):
    """``(δ1,d1) ⌢ (δ2,d2)``: conflict with atomic-bit instrumentation.

    Two conflicting footprints race unless *both* were generated inside
    atomic blocks (Sec. 5): atomic blocks are the language-level
    synchronization, so contention inside them is not a data race.
    """
    return conflict(d1, d2) and (not atomic1 or not atomic2)
