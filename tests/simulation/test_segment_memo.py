"""The checker's segment memo: one validation shares it across passes,
entries and Rely branches, and it must never change a verdict.

References are computed without sharing: each pass validated by
:func:`validate_pair` with a fresh checker, and with a memo that never
stores (every segment co-executed, as before the memo existed).
"""

import pytest

from repro.common.freelist import FreeList
from repro.common.values import VInt
from repro.framework import lock_counter_system
from repro.fuzz.campaign import _build_minic
from repro.fuzz.generators import derive_seed, generate
from repro.lang.messages import ENT_ATOM
from repro.lang.module import GlobalEnv
from repro.langs.cimp import CIMP, parse_module as parse_cimp
from repro.simulation.local import LocalSimulationChecker
from repro.simulation.rg import Mu
from repro.simulation.validate import (
    sample_args,
    validate_compilation,
    validate_pair,
)

FLIST = FreeList.for_thread(0)
SYMBOLS = {"X": 10, "Y": 11}


class NoMemo(dict):
    """A memo that never stores: every lookup misses."""

    def __setitem__(self, key, value):
        pass


class RecordingMemo(dict):
    """A memo that remembers each segment's ``acc`` as it was stored."""

    def __init__(self):
        super().__init__()
        self.stored_acc = {}

    def __setitem__(self, key, seg):
        self.stored_acc[key] = seg.acc
        super().__setitem__(key, seg)


def _verdicts(validations):
    return [
        (v.pass_name, v.ok, v.report.stats.as_dict(), v.report.failures)
        for v in validations
    ]


def _reference(result, mem, shared, entries, memo_factory):
    pairs = list(result.adjacent_pairs())
    pairs.append(("end-to-end", result.source, result.target))
    verdicts = []
    for name, src, tgt in pairs:
        report = validate_pair(src, tgt, entries, mem, shared,
                               memo=memo_factory())
        verdicts.append(
            (name, report.ok, report.stats.as_dict(), report.failures)
        )
    return verdicts


def _entries(result):
    return [
        (name, sample_args(func))
        for name, func in sorted(result.source.module.functions.items())
    ]


def _cases(case):
    """``(result, memory, shared, entries)`` of the Fig. 13 lock-counter
    clients, or of one ``minic-seq`` draw of campaign seed 0."""
    if case == "fig13":
        system = lock_counter_system(2)
        mem = system.initial_memory()
        return [
            (result, mem, system.shared(), _entries(result))
            for result in system.results
        ]
    inp = generate("minic-seq", derive_seed(0, case), index=case)
    result, genv = _build_minic(inp)
    mem = genv.memory()
    return [(result, mem, mem.domain(), _entries(result))]


@pytest.mark.parametrize("case", ["fig13"] + list(range(8)))
def test_shared_memo_matches_unshared_validation(case):
    for result, mem, shared, entries in _cases(case):
        shared_memo = _verdicts(
            validate_compilation(result, mem, shared, entries=entries)
        )
        assert shared_memo == _reference(
            result, mem, shared, entries, dict
        )
        assert shared_memo == _reference(
            result, mem, shared, entries, NoMemo
        )


def _cimp_pair(src_text, tgt_text):
    src = parse_cimp(src_text, symbols=SYMBOLS)
    tgt = parse_cimp(tgt_text, symbols=SYMBOLS)
    mem = GlobalEnv(SYMBOLS, {10: VInt(0), 11: VInt(0)}).memory()
    return src, tgt, mem


def _check(src, tgt, mem, memo, **kw):
    checker = LocalSimulationChecker(
        CIMP, src, CIMP, tgt, Mu.identity(mem.domain()), memo=memo, **kw
    )
    return checker.check_entry("body", (), mem, mem, FLIST, FLIST)


def test_lockstep_swap_rejected_through_a_warm_memo():
    # The accumulated FPmatch accepts the swap and fills the memo; the
    # lockstep (ABL-FP) checker reading that memo must still reject it,
    # with exactly the failures of an uncached run.
    src, tgt, mem = _cimp_pair(
        "body(){ [X] := 1; [Y] := 2; print(9); }",
        "body(){ [Y] := 2; [X] := 1; print(9); }",
    )
    reference = _check(src, tgt, mem, NoMemo(), lockstep=True)
    assert not reference.ok
    assert any(
        "lockstep footprint sequences differ" in f
        for f in reference.failures
    )
    memo = {}
    assert _check(src, tgt, mem, memo).ok
    warm = _check(src, tgt, mem, memo, lockstep=True)
    assert warm.memo_hits > 0
    assert warm.failures == reference.failures
    assert warm.stats.as_dict() == reference.stats.as_dict()


def test_roach_motel_carry_leaves_memoized_segments_unchanged():
    # Source accumulates [X] before EntAtom and carries it into the
    # block, where the target performs both stores.
    src, tgt, mem = _cimp_pair(
        "body(){ [X] := 1; <[Y] := 2;> print(0); }",
        "body(){ <[X] := 1; [Y] := 2;> print(0); }",
    )
    memo = RecordingMemo()
    report = _check(src, tgt, mem, memo, roach_motel=True)
    assert report.ok, report.failures
    # The carry was real: a segment ended at EntAtom with a footprint.
    assert any(
        seg.msg is ENT_ATOM and not seg.acc.is_empty()
        for seg in memo.values()
    )
    for key, seg in memo.items():
        assert seg.acc is memo.stored_acc[key]
    # And a second run over the same memo reaches the same verdict.
    again = _check(src, tgt, mem, memo, roach_motel=True)
    assert again.failures == report.failures
    assert again.stats.as_dict() == report.stats.as_dict()
