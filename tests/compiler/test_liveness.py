"""Liveness: the worklist solver against the round-robin fixpoint it
replaced.

``_round_robin`` below is the previous ``allocation.liveness``, kept
verbatim (only the name changed): it re-sweeps every pc until nothing
changes. Both compute the least solution of the backward liveness
equations, so ``(live_in, live_out)`` must be equal on every RTL
function Deadcode and Allocation see in the validate corpus and the
Fig. 13 lock counter, and on generated CFGs with loops, self-loops and
unreachable pcs. A pinned digest of every stage's pretty-printed
output guards the passes that consume liveness.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.allocation import _defs, _successors, _uses, liveness
from repro.compiler.pipeline import compile_minic
from repro.compiler.pprint import dump_pipeline
from repro.framework.build import lock_counter_system
from repro.fuzz.campaign import _build_minic
from repro.fuzz.generators import derive_seed, generate
from repro.langs.ir import rtl

#: The verdictbench ``validate`` corpus: the first 64 ``minic-seq``
#: draws of campaign seed 0.
CORPUS_SEED = 0
CORPUS_SIZE = 64

#: sha256 prefix of ``dump_pipeline`` over the corpus, then the Fig. 13
#: client at -O0 and -O, each followed by a NUL byte; computed with the
#: round-robin liveness.
PIPELINE_DIGEST = "9fd65a00e7a5c7ac"


# ----- reference (verbatim) --------------------------------------------------


def _round_robin(func):
    """``pc -> live_out`` by backward fixpoint."""
    live_in = {pc: set() for pc in func.code}
    live_out = {pc: set() for pc in func.code}
    changed = True
    while changed:
        changed = False
        for pc, instr in func.code.items():
            out = set()
            for succ in _successors(instr):
                out |= live_in[succ]
            inn = _uses(instr) | (out - _defs(instr))
            if out != live_out[pc] or inn != live_in[pc]:
                live_out[pc] = out
                live_in[pc] = inn
                changed = True
    return live_in, live_out


# ----- inputs ----------------------------------------------------------------


def _results():
    corpus = [
        _build_minic(
            generate("minic-seq", derive_seed(CORPUS_SEED, i), index=i)
        )[0]
        for i in range(CORPUS_SIZE)
    ]
    client = lock_counter_system(2).client_modules[0]
    fig13 = [compile_minic(client, optimize=opt) for opt in (False, True)]
    return corpus, fig13


@pytest.fixture(scope="module")
def results():
    return _results()


def _inputs_of(result, pass_name):
    """The RTL functions ``pass_name`` received in ``result``."""
    stages = result.stages
    for k, stage in enumerate(stages):
        if stage.name == pass_name:
            return list(stages[k - 1].module.functions.values())
    return []


def _assert_same(func):
    got = liveness(func)
    assert got == _round_robin(func)
    assert list(got[0]) == list(func.code)
    assert list(got[1]) == list(func.code)


# ----- the oracle ------------------------------------------------------------


@pytest.mark.parametrize("pass_name", ["Deadcode", "Allocation"])
def test_corpus_functions(results, pass_name):
    corpus, fig13 = results
    funcs = [
        func
        for result in corpus + fig13
        for func in _inputs_of(result, pass_name)
    ]
    assert funcs
    for func in funcs:
        _assert_same(func)


def test_fig13_counter(results):
    _corpus, fig13 = results
    funcs = [
        func
        for result in fig13
        for pass_name in ("Deadcode", "Allocation")
        for func in _inputs_of(result, pass_name)
    ]
    # -O0 has no Deadcode; -O has both call sites.
    assert len(funcs) == 3
    for func in funcs:
        _assert_same(func)


def test_pipeline_digest(results):
    corpus, fig13 = results
    digest = hashlib.sha256()
    for result in corpus + fig13:
        digest.update(dump_pipeline(result).encode())
        digest.update(b"\0")
    assert digest.hexdigest()[:16] == PIPELINE_DIGEST


# ----- generated CFGs --------------------------------------------------------


REGS = st.integers(min_value=1, max_value=6)


@st.composite
def cfgs(draw):
    """An RTL function over ``n`` pcs whose successors are arbitrary
    pcs: loops, self-loops and pcs unreachable from the entry all
    occur."""
    n = draw(st.integers(min_value=1, max_value=14))
    pcs = st.integers(min_value=0, max_value=n - 1)
    code = {}
    for pc in range(n):
        kind = draw(st.sampled_from(
            ["nop", "const", "op", "load", "store", "cond", "return",
             "call", "print"]
        ))
        if kind == "nop":
            instr = rtl.Inop(draw(pcs))
        elif kind == "const":
            instr = rtl.Iconst(draw(st.integers(-3, 3)), draw(REGS),
                               draw(pcs))
        elif kind == "op":
            args = tuple(draw(st.lists(REGS, min_size=1, max_size=2)))
            instr = rtl.Iop("+" if len(args) == 2 else "-", args,
                            draw(REGS), draw(pcs))
        elif kind == "load":
            instr = rtl.Iload(draw(REGS), draw(REGS), draw(pcs))
        elif kind == "store":
            instr = rtl.Istore(draw(REGS), draw(REGS), draw(pcs))
        elif kind == "cond":
            instr = rtl.Icond("<", (draw(REGS), draw(REGS)), draw(pcs),
                              draw(pcs))
        elif kind == "return":
            instr = rtl.Ireturn(draw(st.one_of(st.none(), REGS)))
        elif kind == "call":
            instr = rtl.Icall(
                "g", tuple(draw(st.lists(REGS, max_size=2))),
                draw(st.one_of(st.none(), REGS)), draw(pcs), False,
            )
        else:
            instr = rtl.Iprint(draw(REGS), draw(pcs))
        code[pc] = instr
    order = draw(st.permutations(list(range(n))))
    return rtl.RTLFunction(
        "f", (), 0, draw(pcs), {pc: code[pc] for pc in order}
    )


@settings(max_examples=300, deadline=None)
@given(func=cfgs())
def test_generated_cfgs(func):
    _assert_same(func)


def test_self_loop_and_unreachable():
    func = rtl.RTLFunction("f", (1,), 0, 0, {
        0: rtl.Iop("+", (1, 2), 3, 1),
        1: rtl.Icond("<", (3, 4), 1, 2),   # self-loop keeps 3, 4 live
        2: rtl.Ireturn(3),
        3: rtl.Iop("-", (5,), 6, 2),       # unreachable from the entry
    })
    live_in, live_out = liveness(func)
    assert live_in[1] == {3, 4}
    assert live_out[0] == {3, 4}
    assert live_in[0] == {1, 2, 4}
    assert live_in[3] == {3, 5}
    _assert_same(func)
