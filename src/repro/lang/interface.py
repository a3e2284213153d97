"""The abstract module language interface (Fig. 4).

A language is a tuple ``(Module, Core, InitCore, step)``. We realize it
as the abstract base class :class:`ModuleLanguage`; every concrete
language (CImp, MiniC, each compiler IR, x86-SC, x86-TSO) subclasses it.

The contract, shared by the global semantics, the simulation checker and
the well-definedness checker:

* **Cores are immutable and hashable.** They contain everything
  thread-local that is not memory: continuations, register files,
  freelist allocation indices, TSO store buffers.
* **``step`` is pure.** It returns every outcome of one transition from
  ``(core, mem)`` under freelist ``flist``; it never mutates its inputs.
* **Footprints are honest.** Every memory read appears in ``fp.rs`` and
  every write/allocation in ``fp.ws`` — the well-definedness checker
  (Def. 1) verifies this extensionally by perturbing memory outside the
  reported sets.
"""

from abc import ABC, abstractmethod


class ModuleLanguage(ABC):
    """Abstract base for module languages ``tl = (Module, Core, InitCore, step)``."""

    #: Human-readable language name (e.g. ``"Clight"``, ``"x86-SC"``).
    name = "?"

    @abstractmethod
    def init_core(self, module, entry, args=()):
        """``InitCore``: the initial core for calling ``entry`` with ``args``.

        Returns ``None`` when ``entry`` is not defined in ``module`` —
        the global semantics then tries the other linked modules.
        """

    @abstractmethod
    def step(self, module, core, mem, flist):
        """All outcomes of one local step: a list of Step/StepAbort.

        An empty list means the core is terminated (a final core); stuck
        non-final cores must report ``StepAbort`` explicitly.
        """

    def entry_names(self, module):
        """The entry names ``init_core`` accepts for ``module``, or ``None``.

        Used by :class:`repro.semantics.world.GlobalContext` to
        precompute its resolve table. The default covers every in-tree
        language (they all keep a ``functions`` name map on the module);
        a language whose entries cannot be enumerated should return
        ``None``, which makes resolution fall back to probing each
        module with ``init_core``.
        """
        functions = getattr(module, "functions", None)
        if functions is None:
            return None
        return functions.keys()

    def after_external(self, core, retval):
        """Resume a core that emitted ``CallMsg`` with the callee's result.

        Languages that never make external calls may keep the default,
        which signals a protocol violation.
        """
        raise NotImplementedError(
            "{} cores cannot resume from external calls".format(self.name)
        )

    def is_final(self, module, core):
        """True iff ``core`` has terminated (no further steps)."""
        return core is None


def resolve_entry(modules, entry, args=()):
    """Find the module defining ``entry`` and build its initial core.

    ``modules`` is a sequence of :class:`repro.lang.module.ModuleDecl`.
    Returns ``(module_decl, core)`` or ``None`` when no module defines
    the entry. Ambiguity (two modules defining the same entry) is a
    linking error and raises ``ValueError``.
    """
    found = None
    for decl in modules:
        core = decl.lang.init_core(decl.code, entry, args)
        if core is None:
            continue
        if found is not None:
            raise ValueError(
                "entry {!r} defined in multiple modules".format(entry)
            )
        found = (decl, core)
    return found
