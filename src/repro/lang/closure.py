"""The step-outcome memo.

Exploration spends its life inside ``lang.step``, and many worlds share
one thread-local configuration: the SCALE lock counter reaches 20,868
worlds but only 1,473 distinct ``(core, mem, flist)`` triples. ``step``
is pure (the :class:`~repro.lang.interface.ModuleLanguage` contract),
so the outcome list of a triple can be computed once and shared by
every world that reaches it.

* :func:`step_outcomes` — the drop-in the exploration layers call
  instead of ``decl.lang.step``; returns exactly that call's list.
* :func:`clear_cache` — drops every memo (tests and benchmarks that
  want a cold start; never required for soundness).

The returned lists are shared, so callers must not mutate them (none
do — the engine, POR and the race predictor only read). Counters:
``closure.memo_hits``, ``closure.memo_misses``.
"""

from repro import obs

#: Step-outcome memo bound per module; outcome lists are small, so this
#: caps worst-case growth around a few hundred MB before the table
#: self-clears (same policy as the intern tables).
MEMO_MAX = 1 << 20

#: Bound on the number of per-module memos: each holds strong
#: references to its language and module, so long test sessions
#: exploring thousands of throwaway modules must not accumulate them.
CACHE_MAX = 512

#: ``(id(lang), id(module)) → (lang, module, memo)``. Keying on the
#: *language instance* too keeps x86-SC and x86-TSO outcomes apart for
#: the same module. The strong references in each entry keep the ids
#: stable for the life of the entry.
_cache = {}


def clear_cache():
    """Drop every memo."""
    _cache.clear()


def step_outcomes(decl, core, mem, flist):
    """All outcomes of one local step of ``decl``'s language.

    The memoized equivalent of ``decl.lang.step(decl.code, core, mem,
    flist)``.
    """
    lang = decl.lang
    module = decl.code
    key = (id(lang), id(module))
    entry = _cache.get(key)
    if entry is None:
        if len(_cache) >= CACHE_MAX:
            _cache.clear()
        entry = _cache[key] = (lang, module, {})
    memo = entry[2]
    mkey = (core, mem, flist)
    outs = memo.get(mkey)
    if outs is None:
        outs = lang.step(module, core, mem, flist)
        if len(memo) >= MEMO_MAX:
            memo.clear()
        memo[mkey] = outs
        if obs.enabled:
            obs.inc("closure.memo_misses")
    elif obs.enabled:
        obs.inc("closure.memo_hits")
    return outs
