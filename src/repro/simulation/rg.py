"""Footprint matching and rely/guarantee conditions (Fig. 8).

The triple ``µ = (S, S̄, f)`` records the shared regions of the source
and target and the injective address mapping between them.
``FPmatch(µ, Δ, δ)`` is the footprint-consistency condition at the core
of the paper's simulation: the *shared* part of the target footprint
must be contained in the (mapped) source footprint, and shared target
writes must come from source writes — target reads may also come from
source writes, because weakening a write to a read can never introduce
a race.

``HG``/``LG`` are the high/low-level guarantees a module provides at
switch points, ``Rely`` the environment moves it must tolerate, and
``Inv`` the cross-language memory invariant (the role CompCert's memory
injections play).
"""

from repro.common.memory import closed_region, eq_on, forward
from repro.common.values import VPtr


class Mu:
    """``µ = (S, S̄, f)``: shared regions plus the address mapping."""

    __slots__ = ("src_shared", "tgt_shared", "mapping")

    def __init__(self, src_shared, tgt_shared, mapping):
        self.src_shared = frozenset(src_shared)
        self.tgt_shared = frozenset(tgt_shared)
        self.mapping = dict(mapping)

    def __repr__(self):
        return "Mu(|S|={}, |S̄|={})".format(
            len(self.src_shared), len(self.tgt_shared)
        )

    @classmethod
    def identity(cls, shared):
        """The µ of an identity compiler over a shared region."""
        shared = frozenset(shared)
        return cls(shared, shared, {a: a for a in shared})

    def well_formed(self):
        """``wf(µ)``: f injective, total on S, image exactly S̄."""
        values = list(self.mapping.values())
        if len(set(values)) != len(values):
            return False
        if set(self.mapping) != set(self.src_shared):
            return False
        return set(values) == set(self.tgt_shared)

    def map_addr(self, addr):
        return self.mapping.get(addr)

    def map_region(self, region):
        """``f{{region}}``."""
        return {
            self.mapping[a] for a in region if a in self.mapping
        }

    def map_value(self, value):
        """``f̂(v)``: map addresses inside values; None when unmapped."""
        if isinstance(value, VPtr):
            mapped = self.mapping.get(value.addr)
            if mapped is None:
                return None
            return VPtr(mapped)
        return value


def fp_match(mu, src_fp, tgt_fp):
    """``FPmatch(µ, Δ, δ)`` (Fig. 8)."""
    src_reads_writes = mu.map_region(src_fp.rs | src_fp.ws)
    src_writes = mu.map_region(src_fp.ws)
    if not (tgt_fp.rs & mu.tgt_shared) <= src_reads_writes:
        return False
    return (tgt_fp.ws & mu.tgt_shared) <= src_writes


def inv(mu, src_mem, tgt_mem):
    """``Inv(f, Σ, σ)``: related contents at related addresses."""
    for addr in mu.src_shared:
        if addr not in src_mem:
            continue
        mapped = mu.mapping.get(addr)
        if mapped is None or mapped not in tgt_mem:
            return False
        src_val = src_mem.load(addr)
        expected = mu.map_value(src_val)
        if expected is None:
            # A source pointer to unmapped (local) memory stored in
            # shared state would already violate closedness.
            return False
        if tgt_mem.load(mapped) != expected:
            return False
    return True


def hg(src_fp, src_mem, flist_addrs, shared):
    """``HG(Δ, Σ, F, S)``: footprint in scope, shared memory closed."""
    if not src_fp.within(flist_addrs, shared):
        return False
    return closed_region(shared, src_mem)


def lg(mu, tgt_fp, tgt_mem, tgt_flist_addrs, src_fp, src_mem):
    """``LG(µ, (δ, σ, F), (Δ, Σ))``: the low-level guarantee."""
    if not tgt_fp.within(tgt_flist_addrs, mu.tgt_shared):
        return False
    if not closed_region(mu.tgt_shared, tgt_mem):
        return False
    if not fp_match(mu, src_fp, tgt_fp):
        return False
    return inv(mu, src_mem, tgt_mem)


def rely_one(mem, mem2, flist_addrs, shared):
    """``R(Σ, Σ', F, S)``: an acceptable environment move on one side."""
    if not eq_on(mem, mem2, flist_addrs):
        return False
    if not closed_region(shared, mem2):
        return False
    return forward(mem, mem2)


def rely(mu, src_mem, src_mem2, src_flist_addrs, tgt_mem, tgt_mem2,
         tgt_flist_addrs):
    """``Rely(µ, (Σ, Σ', F), (σ, σ', F̄))``: related environment moves."""
    if not rely_one(src_mem, src_mem2, src_flist_addrs, mu.src_shared):
        return False
    if not rely_one(tgt_mem, tgt_mem2, tgt_flist_addrs, mu.tgt_shared):
        return False
    return inv(mu, src_mem2, tgt_mem2)
