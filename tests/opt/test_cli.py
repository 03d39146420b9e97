"""End-to-end tests for the ``python -m repro.opt`` CLI (in-process)."""

import pytest

from repro.opt import DEMO_SOURCE, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFlowMode:
    def test_named_flow_on_a_workload_with_timing(self, capsys):
        code, out, err = run_cli(capsys, "--flow", "ours",
                                 "--workload", "jacobi", "--timing")
        assert code == 0
        assert "func.func" in out, "final IR must be printed"
        assert "Pass execution timing report" in out
        assert "verification: OK" in out

    def test_flow_options_are_validated(self, capsys):
        code, _, err = run_cli(capsys, "--flow", "ours",
                               "--option", "no_such_option=1")
        assert code == 2
        assert "no_such_option" in err

    def test_flow_option_changes_the_pipeline(self, capsys):
        code, out, _ = run_cli(capsys, "--flow", "ours", "--workload", "sum",
                               "--option", "vector_width=8", "--no-print-ir")
        assert code == 0
        assert "virtual-vector-size=8" in out

    def test_print_stages_names_every_snapshot(self, capsys):
        code, out, _ = run_cli(capsys, "--flow", "ours",
                               "--workload", "dotproduct", "--print-stages")
        assert code == 0
        for stage in ("hlfir", "standard", "optimised"):
            assert f"stage: {stage}" in out
        code, out, _ = run_cli(capsys, "--flow", "flang",
                               "--workload", "dotproduct", "--print-stages")
        assert code == 0
        assert "stage: hlfir" in out and "stage: fir" in out
        assert "hlfir.declare" in out       # the snapshot, not the final IR

    def test_stages_are_only_cloned_when_printed(self, capsys, monkeypatch):
        from repro.flows import get_flow
        asked = []
        real = type(get_flow("ours")).compile

        def spy(self, *args, stages=(), **kwargs):
            asked.append(tuple(stages))
            return real(self, *args, stages=stages, **kwargs)
        monkeypatch.setattr(type(get_flow("ours")), "compile", spy)
        code, out, _ = run_cli(capsys, "--flow", "ours", "--workload", "sum")
        assert code == 0 and "stage:" not in out
        run_cli(capsys, "--flow", "ours", "--workload", "sum",
                "--print-stages")
        assert asked == [(), ("hlfir", "standard")]

    def test_flang_flow_runs(self, capsys):
        code, out, _ = run_cli(capsys, "--flow", "flang",
                               "--workload", "dotproduct")
        assert code == 0 and "fir" in out

    def test_capability_failure_is_reported(self, capsys):
        code, _, err = run_cli(capsys, "--flow", "flang",
                               "--workload", "pw-advection",
                               "--workload-arg", "openacc=true", "--gpu")
        assert code == 1
        assert "acc dialect" in err


class TestPipelineMode:
    def test_textual_pipeline_over_demo_kernel(self, capsys):
        code, out, err = run_cli(capsys, "--pipeline",
                                 "builtin.module(canonicalize,cse)")
        assert code == 0
        assert "demo kernel" in err  # note about the default input
        assert "func.func" in out
        assert "// pipeline: builtin.module(canonicalize,cse)" in out

    def test_pipeline_with_timing_and_nesting(self, capsys):
        code, out, _ = run_cli(capsys, "--workload", "jacobi", "--timing",
                               "--pipeline",
                               "builtin.module(func.func(canonicalize),cse)")
        assert code == 0
        assert "func.func(canonicalize)" in out
        assert "Pass execution timing report" in out

    def test_pipeline_from_source_file(self, capsys, tmp_path):
        src = tmp_path / "kernel.f90"
        src.write_text(DEMO_SOURCE)
        code, out, _ = run_cli(capsys, str(src), "--pipeline",
                               "builtin.module(canonicalize)")
        assert code == 0 and "func.func" in out

    def test_unknown_pass_names_the_pass(self, capsys):
        code, _, err = run_cli(capsys, "--pipeline",
                               "builtin.module(not-a-pass)")
        assert code != 0
        assert "not-a-pass" in err

    def test_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "out.mlir"
        code, out, _ = run_cli(capsys, "--pipeline",
                               "builtin.module(cse)", "-o", str(out_file))
        assert code == 0
        assert "func.func" in out_file.read_text()

    def test_print_stages_respects_output_file(self, capsys, tmp_path):
        out_file = tmp_path / "stages.mlir"
        code, _, _ = run_cli(capsys, "--flow", "ours", "--workload", "sum",
                             "--print-stages", "-o", str(out_file))
        assert code == 0
        text = out_file.read_text()
        for stage in ("hlfir", "standard", "optimised"):
            assert f"stage: {stage}" in text

    def test_assignment_values_keep_spaces(self, capsys):
        from repro.opt import _parse_assignments
        assert _parse_assignments(["note=my run", "n=3", "flag=true"],
                                  "--option") == \
            {"note": "my run", "n": 3, "flag": True}
        with pytest.raises(SystemExit):
            _parse_assignments(["no-equals"], "--option")


class TestIntrospection:
    def test_list_flows(self, capsys):
        code, out, _ = run_cli(capsys, "--list-flows")
        assert code == 0
        assert "flang" in out and "ours" in out
        assert "vector_width" in out  # schemas are shown

    def test_list_passes(self, capsys):
        code, out, _ = run_cli(capsys, "--list-passes")
        assert code == 0
        assert "canonicalize" in out and "cse" in out

    def test_flow_and_pipeline_are_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "--flow", "ours",
                               "--pipeline", "builtin.module(cse)")
        assert code == 2 and "mutually exclusive" in err

    def test_pipeline_mode_rejects_flow_only_flags(self, capsys):
        for flags in (["--option", "vector_width=8"], ["--threads", "4"],
                      ["--gpu"]):
            code, _, err = run_cli(capsys, "--pipeline",
                                   "builtin.module(cse)", *flags)
            assert code == 2
            assert "only apply to --flow" in err

    def test_unknown_flow_exits_with_alternatives(self, capsys):
        code, _, err = run_cli(capsys, "--flow", "nope")
        assert code == 2
        assert "flang" in err and "ours" in err
