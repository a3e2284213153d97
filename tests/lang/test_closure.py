"""Unit tests for the step-outcome memo (:mod:`repro.lang.closure`).

The memo's contracts: outcome lists are shared per ``(lang, module,
core, mem, flist)`` key, both tables stay under their bounds,
``clear_cache`` empties them, and ``step_outcomes`` returns exactly
what ``lang.step`` returns — aborts and their reasons included.
"""

import pytest

from repro.common.footprint import EMP
from repro.lang import closure
from repro.lang.messages import TAU
from repro.lang.steps import Step, StepAbort


@pytest.fixture(autouse=True)
def _restore():
    closure.clear_cache()
    yield
    closure.clear_cache()


class FakeModule:
    pass


class CountingLang:
    """Duck-typed language whose step counts its calls."""

    name = "counting"

    def __init__(self):
        self.calls = 0

    def step(self, module, core, mem, flist):
        self.calls += 1
        return [Step(TAU, EMP, core, mem)]


class FakeDecl:
    def __init__(self, lang, code):
        self.lang = lang
        self.code = code


def outcomes(lang, module, core="core"):
    return closure.step_outcomes(FakeDecl(lang, module), core, "mem", "fl")


class TestStageCache:
    def test_artifact_cached_per_lang_and_module(self):
        """One memo per (language instance, module): x86-SC and x86-TSO
        step the same x86 module with different memory hooks."""
        lang, module = CountingLang(), FakeModule()
        first = outcomes(lang, module)
        assert outcomes(lang, module) is first
        other = CountingLang()
        assert outcomes(other, module) is not first
        assert other.calls == 1
        assert outcomes(lang, FakeModule()) is not first
        assert lang.calls == 2

    def test_cache_bound(self):
        lang = CountingLang()
        modules = [FakeModule() for _ in range(closure.CACHE_MAX + 10)]
        for module in modules:
            outcomes(lang, module)
        assert len(closure._cache) <= closure.CACHE_MAX


class TestMemo:
    def test_outcomes_shared(self):
        lang, module = CountingLang(), FakeModule()
        a = outcomes(lang, module)
        b = outcomes(lang, module)
        assert a is b
        assert lang.calls == 1
        outcomes(lang, module, core="core2")
        assert lang.calls == 2

    def test_memo_bound(self):
        lang, module = CountingLang(), FakeModule()
        outcomes(lang, module)
        memo = closure._cache[(id(lang), id(module))][2]
        memo.update((i, []) for i in range(closure.MEMO_MAX - 1))
        assert len(memo) == closure.MEMO_MAX
        outcomes(lang, module, core="fresh")
        assert len(memo) == 1

    def test_clear_cache_empties(self):
        lang, module = CountingLang(), FakeModule()
        outcomes(lang, module)
        assert closure._cache
        closure.clear_cache()
        assert not closure._cache
        outcomes(lang, module)
        assert lang.calls == 2


class TestStepOutcomes:
    def test_returns_exactly_lang_step(self):
        lang = CountingLang()
        module = FakeModule()
        got = outcomes(lang, module)
        want = lang.step(module, "core", "mem", "fl")
        assert len(got) == len(want) == 1
        assert (got[0].msg, got[0].fp, got[0].core, got[0].mem) == (
            want[0].msg, want[0].fp, want[0].core, want[0].mem
        )

    def test_abort_reason_preserved(self):
        class AbortLang:
            def step(self, module, core, mem, flist):
                return [
                    Step(TAU, EMP, core, mem),
                    StepAbort(reason="div by zero"),
                ]

        got = outcomes(AbortLang(), FakeModule())
        assert isinstance(got[0], Step)
        assert isinstance(got[1], StepAbort)
        assert got[1].reason == "div by zero"

    def test_empty_outcome_list(self):
        class StuckLang:
            def step(self, module, core, mem, flist):
                return []

        assert outcomes(StuckLang(), FakeModule()) == []
