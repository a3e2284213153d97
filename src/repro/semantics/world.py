"""Global worlds: thread pools, activation stacks, atomic bits (Fig. 7).

A world ``W = (T, t, 𝕕, σ)`` consists of the thread pool, the current
thread id, the per-thread atomic bits, and the memory. As in the paper's
Coq development (and Compositional CompCert), each thread is a *stack* of
module activations ``(tl, F, κ)``: cross-module calls push a new
activation with its own freelist; returns pop it.

Worlds are immutable and hashable — the exploration algorithms use them
as graph nodes. Module declarations are referenced by index into the
:class:`GlobalContext`, which carries the (immutable, but unhashable)
program structure out-of-band.

Hot-path machinery: frames and worlds cache their hash lazily (cores
and memories are hashed once per object, not once per lookup) and are
*hash-consed* through bounded intern tables — the canonical constructors
(:meth:`Frame.make`, every ``World``-producing method) return pointer-
equal objects for equal states, so ``graph.ids`` lookups and dedup-set
membership in the explorer short-circuit on identity. Direct
``Frame(...)``/``World(...)`` construction stays valid (tests use it):
interning is an optimization, structural ``__eq__`` is the truth.
"""

from repro import obs
from repro.common.errors import SemanticsError
from repro.common.freelist import MAX_DEPTH, FreeList
from repro.common.intern import InternTable
from repro.lang.interface import resolve_entry

_FRAMES = InternTable("frame")
_WORLDS = InternTable("world")


def _intern_frame(mod_idx, flist, core):
    """The canonical frame for these components.

    Keyed on the component tuple (not a throwaway ``Frame``), so a hit
    costs one dict probe and no allocation.
    """
    key = (mod_idx, flist, core)
    table = _FRAMES.table
    frame = table.get(key)
    if frame is not None:
        _FRAMES.hits += 1
        return frame
    _FRAMES.misses += 1
    if len(table) >= _FRAMES.max_size:
        # Inlined mirror of InternTable.intern's bookkeeping: the
        # capacity eviction and the occupancy peak must stay visible
        # to the census (obs/heap) even on this hand-inlined path.
        _FRAMES.clears += 1
        table.clear()
    frame = Frame(mod_idx, flist, core)
    table[key] = frame
    if len(table) > _FRAMES.peak_size:
        _FRAMES.peak_size = len(table)
    return frame


def _intern_world(threads, cur, bits, mem):
    """The canonical world for these components (see ``_intern_frame``)."""
    key = (threads, cur, bits, mem)
    table = _WORLDS.table
    world = table.get(key)
    if world is not None:
        _WORLDS.hits += 1
        return world
    _WORLDS.misses += 1
    if len(table) >= _WORLDS.max_size:
        _WORLDS.clears += 1
        table.clear()
    world = World(threads, cur, bits, mem)
    table[key] = world
    if len(table) > _WORLDS.peak_size:
        _WORLDS.peak_size = len(table)
    return world


#: Marks a function name defined by more than one module: linking is
#: still fine, but resolving that name is an error (as in
#: :func:`repro.lang.interface.resolve_entry`).
_AMBIGUOUS = object()

#: Negative-cache marker for the probing fallback of ``resolve``.
_UNRESOLVED = object()


class Frame:
    """One module activation ``(tl, F, κ)`` on a thread's stack.

    ``mod_idx`` indexes the module in the :class:`GlobalContext`;
    ``flist`` is the activation's freelist; ``core`` its core state.
    """

    __slots__ = ("mod_idx", "flist", "core", "_hash")

    def __init__(self, mod_idx, flist, core):
        object.__setattr__(self, "mod_idx", mod_idx)
        object.__setattr__(self, "flist", flist)
        object.__setattr__(self, "core", core)

    @classmethod
    def make(cls, mod_idx, flist, core):
        """The canonical (interned) frame for these components."""
        return _intern_frame(mod_idx, flist, core)

    def __setattr__(self, name, value):
        raise AttributeError("Frame is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Frame)
            and self.mod_idx == other.mod_idx
            and self.flist == other.flist
            and self.core == other.core
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.mod_idx, self.flist, self.core))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "Frame(mod={}, core={!r})".format(self.mod_idx, self.core)

    def with_core(self, core):
        if core is self.core:
            return self
        return _intern_frame(self.mod_idx, self.flist, core)


class World:
    """An immutable global configuration.

    ``threads`` maps (0-based) thread position to a tuple of frames —
    the activation stack, innermost activation *last*; an empty tuple is
    a terminated thread. ``cur`` is the running thread's position;
    ``bits`` the per-thread atomic bits (the preemptive semantics only
    ever sets the current thread's bit, matching the single ``d`` of
    Fig. 7; the non-preemptive semantics uses the full map ``𝕕``).
    """

    __slots__ = ("threads", "cur", "bits", "mem", "_hash")

    def __init__(self, threads, cur, bits, mem):
        object.__setattr__(self, "threads", tuple(threads))
        object.__setattr__(self, "cur", cur)
        object.__setattr__(self, "bits", tuple(bits))
        object.__setattr__(self, "mem", mem)

    @classmethod
    def make(cls, threads, cur, bits, mem):
        """The canonical (interned) world for these components."""
        return _intern_world(tuple(threads), cur, tuple(bits), mem)

    def __setattr__(self, name, value):
        raise AttributeError("World is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, World)
            and self.threads == other.threads
            and self.cur == other.cur
            and self.bits == other.bits
            and self.mem == other.mem
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.threads, self.cur, self.bits, self.mem))
            object.__setattr__(self, "_hash", h)
            return h

    def __repr__(self):
        return "World(cur={}, bits={}, live={})".format(
            self.cur, self.bits, sorted(self.live_threads())
        )

    def live_threads(self):
        """Positions of threads that have not terminated."""
        return [i for i, frames in enumerate(self.threads) if frames]

    def is_done(self):
        """All threads terminated."""
        return not any(self.threads)

    def top_frame(self, tid=None):
        """The innermost activation of thread ``tid`` (default: current)."""
        tid = self.cur if tid is None else tid
        frames = self.threads[tid]
        if not frames:
            return None
        return frames[-1]

    def replace_top(self, frame, mem=None, bit=None, cur=None):
        """A world with the current thread's top frame replaced.

        Replacing the top of a *terminated* thread is a semantics bug
        (it would silently resurrect the thread), surfaced loudly like
        stuck states are.
        """
        frames = self.threads[self.cur]
        if not frames:
            raise SemanticsError(
                "replace_top on terminated thread {}".format(self.cur)
            )
        return self._update(
            self.cur,
            frames[:-1] + (frame,),
            mem,
            bit,
            cur,
        )

    def push_frame(self, frame, mem=None):
        """A world with a new activation pushed on the current thread."""
        return self._update(
            self.cur, self.threads[self.cur] + (frame,), mem, None, None
        )

    def pop_frame(self, mem=None):
        """A world with the current thread's top activation popped."""
        return self._update(
            self.cur, self.threads[self.cur][:-1], mem, None, None
        )

    def with_current(self, cur):
        """A world scheduled on thread ``cur``."""
        if cur == self.cur:
            return self
        return _intern_world(self.threads, cur, self.bits, self.mem)

    def add_thread(self, frame):
        """A world with a freshly spawned thread appended."""
        return _intern_world(
            self.threads + ((frame,),),
            self.cur,
            self.bits + (0,),
            self.mem,
        )

    def _update(self, tid, frames, mem, bit, cur):
        threads = list(self.threads)
        threads[tid] = frames
        bits = self.bits
        if bit is not None:
            bits = list(self.bits)
            bits[tid] = bit
            bits = tuple(bits)
        return _intern_world(
            tuple(threads),
            self.cur if cur is None else cur,
            bits,
            self.mem if mem is None else mem,
        )


class GlobalContext:
    """The immutable program structure shared by all worlds.

    Holds the module declarations (so worlds can reference them by
    index) and resolves entry names for thread creation and for
    cross-module calls.

    ``__init__`` precomputes a ``{fname: (mod_idx, decl)}`` resolve
    table from the modules' entry listings, so the engine's cross-module
    call/spawn path is one dict lookup plus one ``init_core`` instead of
    probing every module and re-scanning ``modules`` for the index. When
    a language cannot enumerate its entries
    (:meth:`~repro.lang.interface.ModuleLanguage.entry_names` returns
    ``None``), resolution falls back to probing, memoized per name.
    """

    def __init__(self, program):
        self.program = program
        self.modules = program.modules
        self._resolve_table = self._build_resolve_table()
        self._resolve_cache = {}
        # (fname, args) -> (mod_idx, core) | _UNRESOLVED. Cores are
        # immutable, so the canonical initial core can be shared by
        # every call site; sharing also makes the interned callee
        # frames pointer-equal.
        self._core_cache = {}
        # Engine-side caches (see semantics.engine): successor
        # templates keyed (frame, mem) and external-return resumptions
        # keyed (caller_frame, retval). Per-context, not global —
        # ``Frame.mod_idx`` is program-relative, so templates must
        # never leak between programs.
        self.succ_templates = {}
        self.resume_cache = {}

    def _build_resolve_table(self):
        table = {}
        for idx, decl in enumerate(self.modules):
            entry_names = getattr(decl.lang, "entry_names", None)
            names = entry_names(decl.code) if entry_names else None
            if names is None:
                return None
            for fname in names:
                table[fname] = (
                    _AMBIGUOUS if fname in table else (idx, decl)
                )
        return table

    def module(self, idx):
        return self.modules[idx]

    def entry_names(self):
        """Sorted resolvable entry names, or ``None`` when unknown.

        ``None`` means some module's language has no entry listing
        (resolution falls back to probing), so callers — e.g. the
        CLI's ``--threads`` validation — cannot enumerate candidates
        up front. Ambiguous names (defined in several modules) are
        excluded: resolving them raises.
        """
        table = self._resolve_table
        if table is None:
            return None
        return sorted(
            fname
            for fname, entry in table.items()
            if entry is not _AMBIGUOUS
        )

    def resolve(self, fname, args=()):
        """Find ``(mod_idx, core)`` for a function, or ``None``."""
        cached = self._core_cache.get((fname, args))
        if cached is not None:
            if obs.enabled:
                obs.inc("resolve.cache_hits")
            return None if cached is _UNRESOLVED else cached
        resolved = self._resolve_uncached(fname, args)
        try:
            self._core_cache[(fname, args)] = (
                _UNRESOLVED if resolved is None else resolved
            )
        except TypeError:
            # Unhashable args: skip memoization, resolution still works.
            pass
        return resolved

    def _resolve_uncached(self, fname, args):
        table = self._resolve_table
        if table is not None:
            entry = table.get(fname)
            if entry is None:
                return None
            if entry is _AMBIGUOUS:
                raise ValueError(
                    "entry {!r} defined in multiple modules".format(fname)
                )
            mod_idx, decl = entry
            core = decl.lang.init_core(decl.code, fname, args)
            if core is None:
                return None
            return mod_idx, core
        # Probing fallback for languages without entry listings.
        hit = self._resolve_cache.get(fname)
        if hit is not None:
            if obs.enabled:
                obs.inc("resolve.cache_hits")
            if hit is _UNRESOLVED:
                return None
            mod_idx, decl = hit
            core = decl.lang.init_core(decl.code, fname, args)
            if core is None:
                return None
            return mod_idx, core
        found = resolve_entry(self.modules, fname, args)
        if found is None:
            self._resolve_cache[fname] = _UNRESOLVED
            return None
        decl, core = found
        mod_idx = self.modules.index(decl)
        self._resolve_cache[fname] = (mod_idx, decl)
        return mod_idx, core

    def load(self):
        """The Load rule: all initial worlds (one per initial thread).

        Builds the linked initial memory, gives each thread a fresh
        bottom activation with a disjoint freelist, and returns one
        world per choice of initial thread (``t ∈ dom(T)``).
        """
        mem = self.program.initial_memory()
        threads = []
        for pos, entry in enumerate(self.program.entries):
            resolved = self.resolve(entry)
            if resolved is None:
                raise SemanticsError(
                    "entry {!r} not defined by any module".format(entry)
                )
            mod_idx, core = resolved
            flist = FreeList.for_thread(pos)
            threads.append((Frame.make(mod_idx, flist, core),))
        bits = (0,) * len(threads)
        return [
            World.make(threads, cur, bits, mem)
            for cur in range(len(threads))
        ]

    def next_flist(self, world):
        """A fresh freelist for a pushed activation of the current thread.

        Fresh means: owned by no activation on the thread's stack, and
        no slot of it allocated in the world's memory. Activations
        allocate positionally from slot 0, so a freelist whose slot 0 is
        unallocated has never been allocated from. Memory is never
        freed, so a second call to an external function that allocates
        must not reuse the first call's freelist.

        Candidates are the thread's freelists from index ``depth`` (the
        stack depth) up, so the first activation at each depth gets the
        depth-indexed freelist, and a callee that allocates nothing
        leaves its freelist fresh for the next call: repeated calls in
        a loop reach the same worlds.
        """
        cur = world.cur
        stack = world.threads[cur]
        live = {frame.flist for frame in stack}
        mem = world.mem
        for index in range(len(stack), MAX_DEPTH):
            flist = FreeList.for_thread(cur, index)
            if flist not in live and flist.addr_at(0) not in mem:
                return flist
        raise SemanticsError("call depth exceeded")

    def spawn_flist(self, world):
        """The freelist of a newly spawned thread.

        New threads take the next thread position, so their address
        space is disjoint from every existing activation's (threads
        are never removed from the pool, only emptied).
        """
        return FreeList.for_thread(len(world.threads))
