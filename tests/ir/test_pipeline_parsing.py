"""Pipeline-string parsing, describe/parse round-tripping, op-anchored
nesting, and the per-run timing statistics of the PassManager."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dialects.builtin import ModuleOp
from repro.ir import PassManager, parse_pipeline
from repro.ir.pass_manager import (IRDumpInstrumentation, PassError,
                                   PassInstrumentation, PassTimingReport,
                                   format_options, ir_size)
import repro.transforms  # noqa: F401  (registers passes)
import repro.core  # noqa: F401


class TestOptionParsing:
    def parse(self, text):
        entries = parse_pipeline(text)
        assert len(entries) == 1
        return entries[0][1]

    def test_integer_and_bool_options(self):
        opts = self.parse("cse{width=64 fast=true slow=false}")
        assert opts == {"width": 64, "fast": True, "slow": False}

    def test_float_options_are_floats(self):
        opts = self.parse("cse{factor=3.5 tiny=.25 exp=1e-3}")
        assert opts == {"factor": 3.5, "tiny": 0.25, "exp": 1e-3}
        assert isinstance(opts["factor"], float)

    def test_quoted_string_values(self):
        opts = self.parse('cse{name="hello world" other=\'a,b=c\'}')
        assert opts == {"name": "hello world", "other": "a,b=c"}

    def test_quoted_escapes(self):
        opts = self.parse(r'cse{v="say \"hi\" \\ back"}')
        assert opts == {"v": 'say "hi" \\ back'}

    def test_quoted_numeric_string_stays_a_string(self):
        opts = self.parse('cse{v="3.5"}')
        assert opts == {"v": "3.5"} and isinstance(opts["v"], str)

    def test_bare_flag_means_true(self):
        assert self.parse("cse{enable}") == {"enable": True}

    def test_dashes_normalise_to_underscores(self):
        assert self.parse("cse{index-bitwidth=64}") == {"index_bitwidth": 64}

    def test_nested_brace_group_values(self):
        opts = self.parse("cse{inner={a=1 b={c=2}} x=3}")
        assert opts == {"inner": "{a=1 b={c=2}}", "x": 3}

    def test_unterminated_quote_raises(self):
        with pytest.raises(PassError, match="unterminated"):
            self.parse('cse{v="oops}')

    def test_unbalanced_braces_raise(self):
        with pytest.raises(PassError, match="braces"):
            parse_pipeline("cse{inner={a=1}")


class TestPipelineParsing:
    def test_whitespace_and_newlines(self):
        entries = parse_pipeline(
            "builtin.module(  canonicalize ,\n   cse  ,\traise-scf-to-affine )")
        assert [n for n, _ in entries] == ["canonicalize", "cse",
                                           "raise-scf-to-affine"]

    def test_empty_entries_are_skipped(self):
        entries = parse_pipeline("builtin.module(canonicalize,,cse,)")
        assert [n for n, _ in entries] == ["canonicalize", "cse"]

    def test_empty_pipeline(self):
        assert parse_pipeline("builtin.module()") == []
        assert parse_pipeline("") == []

    def test_unknown_pass_error_names_the_pass(self):
        with pytest.raises(PassError, match="not-a-real-pass"):
            PassManager.from_pipeline("builtin.module(not-a-real-pass)")

    def test_trailing_garbage_raises(self):
        with pytest.raises(PassError, match="expected ','"):
            parse_pipeline("builtin.module(cse) nonsense")
        with pytest.raises(PassError, match="expected ','"):
            parse_pipeline("builtin.module(canonicalize cse)")

    def test_unbalanced_parens_raise(self):
        with pytest.raises(PassError):
            parse_pipeline("builtin.module(cse")
        with pytest.raises(PassError):
            parse_pipeline("cse)")

    def test_nested_anchor_entries(self):
        entries = parse_pipeline(
            "builtin.module(func.func(canonicalize, cse), raise-scf-to-affine)")
        assert entries[0][0] == "func.func"
        assert [n for n, _ in entries[0][1]] == ["canonicalize", "cse"]
        assert entries[1] == ("raise-scf-to-affine", {})

    def test_nested_anchor_with_options(self):
        entries = parse_pipeline(
            "builtin.module(func.func(affine-loop-unroll{unroll-factor=2}))")
        ((anchor, nested),) = entries
        assert anchor == "func.func"
        assert nested == [("affine-loop-unroll", {"unroll_factor": 2})]


OPTION_VALUES = st.one_of(
    st.booleans(),
    st.integers(-10**9, 10**9),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(min_size=0, max_size=12),
)
OPTION_NAMES = st.from_regex(r"[a-z][a-z0-9_]{0,10}", fullmatch=True)


class TestDescribeRoundTrip:
    def round_trip(self, pm):
        text = pm.describe()
        rebuilt = PassManager.from_pipeline(text)
        assert rebuilt.describe() == text
        return rebuilt

    def test_flat_round_trip(self):
        pm = PassManager.from_pipeline(
            "builtin.module(canonicalize, cse, "
            "affine-super-vectorize{virtual-vector-size=4})")
        self.round_trip(pm)

    def test_nested_round_trip(self):
        pm = PassManager()
        pm.nest("func.func").add("canonicalize").add("cse")
        pm.add("raise-scf-to-affine")
        rebuilt = self.round_trip(pm)
        assert isinstance(rebuilt.passes[0], PassManager)
        assert rebuilt.passes[0].anchor == "func.func"

    def test_optimise_stage_round_trips(self):
        from repro.core.pipelines import optimise_pipeline
        text = optimise_pipeline(tile=True, unroll=2).describe()
        pm = PassManager.from_pipeline(text)
        assert parse_pipeline(pm.describe()) == parse_pipeline(text)

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(OPTION_NAMES, OPTION_VALUES, max_size=4))
    def test_options_round_trip_exactly(self, options):
        # property: any typed option dict survives describe() -> parse
        pm = PassManager()
        pm.add("cse", **options)
        entries = parse_pipeline(pm.describe())
        assert entries == [("cse", options)]

    @settings(max_examples=30, deadline=None)
    @given(st.dictionaries(OPTION_NAMES, OPTION_VALUES, max_size=3),
           st.booleans())
    def test_nested_pipelines_round_trip(self, options, nest_first):
        pm = PassManager()
        if nest_first:
            pm.nest("func.func").add("canonicalize", **options)
            pm.add("cse")
        else:
            pm.add("cse", **options)
            pm.nest("func.func").add("canonicalize")
        text = pm.describe()
        assert PassManager.from_pipeline(text).describe() == text

    def test_format_options_quotes_ambiguous_strings(self):
        text = format_options({"a": "true", "b": "3.5", "c": "x y"})
        assert parse_pipeline(f"cse{text}")[0][1] == \
            {"a": "true", "b": "3.5", "c": "x y"}

    def test_non_finite_floats_round_trip(self):
        options = {"hi": float("inf"), "lo": float("-inf")}
        parsed = parse_pipeline(f"cse{format_options(options)}")[0][1]
        assert parsed == options
        # ...and the *string* "inf" stays a string
        parsed = parse_pipeline(f"cse{format_options({'v': 'inf'})}")[0][1]
        assert parsed == {"v": "inf"} and isinstance(parsed["v"], str)


class TestRunStatistics:
    def run_pm(self, pm):
        return pm.run(ModuleOp(name="m"))

    def test_statistics_reset_per_run(self):
        pm = PassManager.from_pipeline("builtin.module(canonicalize, cse)")
        module = ModuleOp(name="m")
        pm.run(module)
        first = list(pm.statistics)
        pm.run(module)
        assert len(pm.statistics) == len(first) == 2, \
            "statistics must not accumulate across run() calls"

    def test_timing_report_structure(self):
        pm = PassManager.from_pipeline("builtin.module(canonicalize, cse)")
        pm.run(ModuleOp(name="m"))
        report = pm.last_report
        assert isinstance(report, PassTimingReport)
        assert [t.pass_name for t in report.timings] == ["canonicalize", "cse"]
        assert report.total_s == sum(t.wall_s for t in report.timings)
        assert all(t.ir_delta == t.ops_after - t.ops_before
                   for t in report.timings)
        assert "Pass execution timing report" in report.render()

    def test_timing_report_fresh_per_run(self):
        pm = PassManager.from_pipeline("builtin.module(cse)")
        pm.run(ModuleOp(name="m"))
        first = pm.last_report
        pm.run(ModuleOp(name="m"))
        assert pm.last_report is not first
        assert len(pm.last_report.timings) == 1

    def test_nested_passes_report_their_anchor(self):
        module = ModuleOp(name="m")
        pm = PassManager.from_pipeline(
            "builtin.module(func.func(canonicalize))")
        pm.run(module)
        assert pm.last_report.timings == ()  # no func.func ops -> no runs

    def test_instrumentation_hooks_fire(self):
        calls = []

        class Recorder(PassInstrumentation):
            def before_pass(self, pass_, op):
                calls.append(("before", pass_.NAME))

            def after_pass(self, pass_, op, timing):
                calls.append(("after", pass_.NAME, timing.pass_name))

        pm = PassManager.from_pipeline("builtin.module(canonicalize, cse)")
        pm.add_instrumentation(Recorder())
        pm.run(ModuleOp(name="m"))
        assert calls == [("before", "canonicalize"),
                         ("after", "canonicalize", "canonicalize"),
                         ("before", "cse"), ("after", "cse", "cse")]

    def test_nested_child_instrumentation_fires_via_parent_run(self):
        from repro.core import convert_fir_to_standard
        from repro.frontend import lower_to_hlfir
        calls = []

        class Recorder(PassInstrumentation):
            def after_pass(self, pass_, op, timing):
                calls.append((timing.anchor, pass_.NAME))

        pm = PassManager()
        pm.nest("func.func").add("canonicalize") \
          .add_instrumentation(Recorder())
        module = convert_fir_to_standard(lower_to_hlfir(
            "subroutine s(x)\n  real(kind=8), intent(out) :: x\n"
            "  x = 1.0d0\nend subroutine s"))
        pm.run(module)
        assert calls and all(anchor == "func.func" for anchor, _ in calls)

    def test_ir_dump_instrumentation_writes_ir(self):
        import io
        stream = io.StringIO()
        pm = PassManager.from_pipeline("builtin.module(cse)")
        pm.add_instrumentation(IRDumpInstrumentation(before=True, after=True,
                                                     stream=stream))
        pm.run(ModuleOp(name="m"))
        text = stream.getvalue()
        assert "IR dump before cse" in text and "IR dump after cse" in text
        assert "builtin.module" in text

    def test_ir_size_counts_nested_ops(self):
        module = ModuleOp(name="m")
        assert ir_size(module) == 1
