"""API surface: Machine memory helpers, Ctx helpers, package exports,
harness run_all."""

from pathlib import Path

import pytest

from conftest import make_machine

import repro
from repro import Load, Store, WORD_SIZE, Work
from repro.harness.runner import run_all


class TestMachineHelpers:
    def test_alloc_var_is_line_private(self, machine):
        a = machine.alloc_var(1)
        b = machine.alloc_var(2)
        assert machine.amap.line_of(a) != machine.amap.line_of(b)
        assert machine.peek(a) == 1
        assert machine.peek(b) == 2

    def test_alloc_struct(self, machine):
        base = machine.alloc_struct([10, 20, 30])
        assert machine.peek(base) == 10
        assert machine.peek(base + WORD_SIZE) == 20
        assert machine.peek(base + 2 * WORD_SIZE) == 30

    def test_write_init_and_peek(self, machine):
        addr = machine.alloc.alloc_words(1)
        machine.write_init(addr, "x")
        assert machine.peek(addr) == "x"

    def test_now_property(self, machine):
        def body(ctx):
            yield Work(42)

        machine.add_thread(body)
        machine.run()
        assert machine.now == 42


class TestCtxHelpers:
    def test_alloc_words_with_init(self, machine):
        vals = {}

        def body(ctx):
            base = ctx.alloc_words(3, [7, 8, 9])
            vals["v"] = [ctx.peek(base + i * WORD_SIZE) for i in range(3)]
            yield Work(1)

        machine.add_thread(body)
        machine.run()
        assert vals["v"] == [7, 8, 9]

    def test_alloc_cached_spanning_lines(self, machine):
        """A multi-line allocation is fully installed in the core's L1."""
        from repro.coherence.states import LineState
        lines = {}

        def body(ctx):
            words = machine.amap.words_per_line() + 1   # spans two lines
            base = ctx.alloc_cached(words, list(range(words)))
            l1 = machine.cores[ctx.core_id].memunit.l1
            first = machine.amap.line_of(base)
            last = machine.amap.line_of(base + (words - 1) * WORD_SIZE)
            lines["states"] = [l1.state_of(ln)
                               for ln in range(first, last + 1)]
            yield Work(1)

        machine.add_thread(body)
        machine.run()
        assert all(s == LineState.M for s in lines["states"])
        assert len(lines["states"]) == 2

    def test_per_thread_rng_deterministic_and_distinct(self, machine):
        seqs = {}

        def body(ctx, tag):
            seqs[tag] = [ctx.rng.random() for _ in range(3)]
            yield Work(1)

        machine.add_thread(body, "a")
        machine.add_thread(body, "b")
        machine.run()
        assert seqs["a"] != seqs["b"]


class TestPackageExports:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__
        # The packaging metadata carries the same version.
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert f'\nversion = "{repro.__version__}"\n' in pyproject.read_text()


class TestRunAll:
    def test_run_all_subset(self, capsys):
        out = run_all(thread_counts=(2,), names=["fig2_stack"],
                      verbose=True)
        assert "fig2_stack" in out
        printed = capsys.readouterr().out
        assert "Figure 2" in printed

    def test_run_all_quiet(self, capsys):
        run_all(thread_counts=(2,), names=["fig2_stack"], verbose=False)
        assert capsys.readouterr().out == ""
