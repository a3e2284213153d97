"""Tests for the command-line interface (``python -m repro``)."""

import pytest

from repro.cli import main

CLIENT = """
extern void lock();
extern void unlock();
int x = 0;
void inc() {
  int tmp;
  lock();
  tmp = x;
  x ++;
  unlock();
  print(tmp);
}
"""

SEQ = """
int g = 5;
void main() { g = g * 2; print(g); }
"""

RACY = """
int x = 0;
void t1() { x = 1; }
void t2() { x = 2; }
"""


@pytest.fixture
def client_file(tmp_path):
    path = tmp_path / "client.c"
    path.write_text(CLIENT)
    return str(path)


@pytest.fixture
def seq_file(tmp_path):
    path = tmp_path / "seq.c"
    path.write_text(SEQ)
    return str(path)


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.c"
    path.write_text(RACY)
    return str(path)


class TestCompile:
    def test_lists_passes(self, seq_file, capsys):
        assert main(["compile", seq_file]) == 0
        out = capsys.readouterr().out
        assert "Cshmgen" in out and "Asmgen" in out

    def test_optimize_adds_passes(self, seq_file, capsys):
        assert main(["compile", seq_file, "-O"]) == 0
        out = capsys.readouterr().out
        assert "ConstProp" in out and "CSE" in out

    def test_dump_stage(self, seq_file, capsys):
        assert main(["compile", seq_file, "--dump", "RTLgen"]) == 0
        out = capsys.readouterr().out
        assert "RTLgen" in out and "Iconst" in out

    def test_dump_source(self, seq_file, capsys):
        assert main(["compile", seq_file, "--dump", "source"]) == 0
        out = capsys.readouterr().out
        assert "print" in out

    def test_dump_all(self, seq_file, capsys):
        assert main(["compile", seq_file, "--dump", "all"]) == 0
        out = capsys.readouterr().out
        assert "==== Asmgen" in out


class TestRun:
    def test_sequential(self, seq_file, capsys):
        assert main(["run", seq_file]) == 0
        out = capsys.readouterr().out
        assert "print:10" in out and "done" in out

    def test_lock_client_two_threads(self, client_file, capsys):
        assert main([
            "run", client_file, "--lock", "--threads", "inc,inc",
        ]) == 0
        out = capsys.readouterr().out
        assert "print:0,print:1" in out
        assert "print:1,print:0" in out

    def test_run_at_stage(self, seq_file, capsys):
        assert main(["run", seq_file, "--stage", "Asmgen"]) == 0
        out = capsys.readouterr().out
        assert "print:10" in out


class TestValidate:
    def test_all_passes_ok(self, client_file, capsys):
        assert main(["validate", client_file, "--lock"]) == 0
        out = capsys.readouterr().out
        assert out.count(" ok") >= 13


class TestDrf:
    def test_drf_program(self, client_file, capsys):
        assert main([
            "drf", client_file, "--lock", "--threads", "inc,inc",
        ]) == 0
        assert "DRF: True" in capsys.readouterr().out

    def test_racy_program_exit_code(self, racy_file, capsys):
        assert main(["drf", racy_file, "--threads", "t1,t2"]) == 1
        assert "DRF: False" in capsys.readouterr().out
