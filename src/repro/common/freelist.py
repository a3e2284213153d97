"""Freelists: reserved, disjoint address spaces for stack allocation.

A key memory-model decision of the paper (Sec. 2.3, "What memory model to
use") is to *reserve separate address spaces F for memory allocation in
different threads*, instead of CompCert's single shared ``nextblock``
counter. With disjoint freelists, an allocation by one thread cannot
affect the addresses later allocated by another, which is what makes
non-conflicting steps of different threads commute — the key lemma behind
the equivalence of preemptive and non-preemptive semantics.

Address-space layout (flat word addresses, one value per address):

* ``[0, LOCAL_BASE)`` — statically allocated globals (the shared part
  ``S`` of Fig. 5) and object-managed data;
* ``[LOCAL_BASE, ∞)`` — thread-local stack space, partitioned into
  disjoint arithmetic ranges indexed by ``(thread id, index)``.

The per-thread index exists because, as in Compositional CompCert, a
thread is a *stack* of module activations (cross-module calls push a new
module instance), and each activation owns its own fresh freelist. A
pushed activation takes the first index from its stack depth up whose
freelist no live activation owns and has never been allocated from; see
:meth:`repro.semantics.world.GlobalContext.next_flist`.

The module also provides :class:`SharedCounterAllocator`, the CompCert-
style shared ``nextblock`` discipline, used only by the ABL-MEM ablation
benchmark to demonstrate why the paper had to abandon it.
"""

from repro.common.errors import SemanticsError

#: First thread-local address; everything below is shared/global space.
LOCAL_BASE = 1 << 20

#: Freelists per thread, which also bounds its cross-module call depth.
MAX_DEPTH = 64

#: Number of addresses reserved per (thread, index) freelist.
SLOT_SPACE = 1 << 14


class FreeList:
    """The freelist ``F`` of one module activation.

    The paper models ``F`` as an infinite set of addresses; we reserve a
    large finite arithmetic range (``SLOT_SPACE`` words), which is
    "infinite enough" for any bounded exploration, and raise
    :class:`SemanticsError` on exhaustion so overflows are never silent.

    Allocation is positional: the module's core state tracks the index
    ``N`` of the next free slot (exactly the Clight instantiation in
    Sec. 7.1), and :meth:`addr_at` maps indices to addresses
    deterministically. Determinism of allocation is what lets the
    well-definedness conditions (Def. 1, items 3-4) hold: a step's
    behaviour depends only on the read set, the write-set availability,
    and *which* addresses were already allocated from ``F``.
    """

    __slots__ = ("base", "_hash")

    def __init__(self, base):
        if base < LOCAL_BASE:
            raise SemanticsError(
                "freelist base {} overlaps global space".format(base)
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "_hash", hash(("FreeList", base)))

    def __setattr__(self, name, value):
        raise AttributeError("FreeList is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FreeList) and self.base == other.base

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FreeList(base={})".format(self.base)

    @classmethod
    def for_thread(cls, tid, depth=0):
        """Freelist number ``depth`` of thread ``tid`` (number 0 is the
        thread's bottom activation's)."""
        if not 0 <= depth < MAX_DEPTH:
            raise SemanticsError("call depth {} out of range".format(depth))
        return cls(LOCAL_BASE + (tid * MAX_DEPTH + depth) * SLOT_SPACE)

    def addr_at(self, n):
        """The ``n``-th address of this freelist."""
        if not 0 <= n < SLOT_SPACE:
            raise SemanticsError(
                "freelist exhausted (index {})".format(n)
            )
        return self.base + n

    def contains(self, addr):
        """Membership test ``addr ∈ F``."""
        return self.base <= addr < self.base + SLOT_SPACE

    def addresses(self, upto):
        """The first ``upto`` addresses, as a set (for scope checks)."""
        return frozenset(range(self.base, self.base + upto))

    def disjoint_from(self, other):
        """Freelists of distinct activations never overlap."""
        return self.base != other.base


def is_local(addr):
    """True iff ``addr`` lies in some thread's freelist space."""
    return addr >= LOCAL_BASE


def is_global(addr):
    """True iff ``addr`` lies in the shared/global space."""
    return 0 <= addr < LOCAL_BASE


class SharedCounterAllocator:
    """CompCert-style allocation: one shared ``nextblock`` counter.

    Under this discipline the address a thread receives depends on how
    many allocations *other* threads performed before it — so reordering
    non-conflicting steps of different threads changes the resulting
    state. The ABL-MEM benchmark exhibits this non-commutativity, which
    is the paper's stated reason for moving to disjoint freelists.
    """

    __slots__ = ("next_addr",)

    def __init__(self, base=LOCAL_BASE):
        self.next_addr = base

    def alloc(self):
        """Return a fresh address and advance the shared counter."""
        addr = self.next_addr
        self.next_addr += 1
        return addr
