"""Command-line interface: exit codes, JSON output, and machine-parsable errors."""

import json

import pytest

from gkpo.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main

from conftest import DATA, fixture_path

DPO = str(fixture_path("dpo_fixed_reference.json"))
DPO_ALT = str(fixture_path("dpo_alternate_reference.json"))
RRHF = str(fixture_path("rrhf_rank_penalties.json"))
RRHF_REORDERED = str(fixture_path("rrhf_rank_penalties_reordered.json"))
SCORE_DEP = str(fixture_path("score_dependent_weight.json"))
SCALE_HALF = str(fixture_path("scale_half_weight.json"))
SCALE_TWIN = str(fixture_path("scale_prescaled_twin.json"))
SCALE_PROBE = str(fixture_path("scale_probe.jsonl"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def last_json(out: str):
    return json.loads(out.strip().splitlines()[-1])


def assert_error_line(err: str, code: int):
    lines = [l for l in err.strip().splitlines() if l]
    payload = json.loads(lines[-1])
    assert payload["code"] == code
    assert payload["error"]


# --- validate -------------------------------------------------------------------


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", DPO)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["violations"] == []
    assert err == ""


def test_validate_every_shipped_fixture(capsys):
    from conftest import FIXTURES

    for path in sorted(FIXTURES.glob("*.json")):
        code, out, _ = run_cli(capsys, "validate", str(path))
        assert code == EXIT_OK, path.name


def test_validate_invalid_object_exits_1(capsys):
    code, out, err = run_cli(capsys, "validate", str(DATA / "bad_beta.json"))
    assert code == EXIT_FAILURE
    payload = json.loads(out)
    assert payload["valid"] is False
    assert len(payload["violations"]) == 1
    assert payload["violations"][0]["path"] == "beta"
    assert_error_line(err, EXIT_FAILURE)


def test_validate_reports_all_violations(capsys):
    code, out, _ = run_cli(capsys, "validate", str(DATA / "two_violations.json"))
    assert code == EXIT_FAILURE
    payload = json.loads(out)
    assert {v["path"] for v in payload["violations"]} == {"beta", "weight.constant"}


def test_validate_malformed_json_exits_1_with_location(capsys):
    code, out, err = run_cli(capsys, "validate", str(DATA / "not_json.json"))
    assert code == EXIT_FAILURE
    payload = json.loads(out)
    assert payload["valid"] is False
    assert_error_line(err, EXIT_FAILURE)


def test_validate_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "validate", "/nonexistent/x.json")
    assert code == EXIT_USAGE
    assert_error_line(err, EXIT_USAGE)


def test_pretty_flag_indents(capsys):
    _, plain, _ = run_cli(capsys, "validate", DPO)
    _, pretty, _ = run_cli(capsys, "validate", DPO, "--pretty")
    assert "\n" not in plain.strip()
    assert "\n  " in pretty
    assert json.loads(plain) == json.loads(pretty)


# --- canonicalize and hash ---------------------------------------------------------


def test_canonicalize_emits_canonical_bytes(capsys):
    code, out, _ = run_cli(capsys, "canonicalize", DPO)
    assert code == EXIT_OK
    from gkpo.canonical import canonicalize
    from gkpo.schema import parse

    expected = canonicalize(parse(open(DPO).read())).decode("utf-8")
    assert out.strip() == expected


def test_hash_is_deterministic_and_order_blind(capsys):
    code1, out1, _ = run_cli(capsys, "hash", RRHF)
    code2, out2, _ = run_cli(capsys, "hash", RRHF)
    code3, out3, _ = run_cli(capsys, "hash", RRHF_REORDERED)
    assert code1 == code2 == code3 == EXIT_OK
    h1, h2, h3 = (last_json(o)["opal_hash"] for o in (out1, out2, out3))
    assert h1 == h2 == h3


def test_hash_emit_canonical_flag(capsys):
    code, out, _ = run_cli(capsys, "hash", DPO, "--emit-canonical")
    assert code == EXIT_OK
    payload = last_json(out)
    assert "canonical" in payload
    assert payload["opal_hash"]


def test_hash_scale_fix_matches_prescaled_twin(capsys):
    code, fixed_out, _ = run_cli(
        capsys, "hash", SCALE_HALF, "--scale-fix", "--probe", SCALE_PROBE
    )
    assert code == EXIT_OK
    _, twin_out, _ = run_cli(capsys, "hash", SCALE_TWIN)
    assert last_json(fixed_out)["opal_hash"] == last_json(twin_out)["opal_hash"]
    _, plain_out, _ = run_cli(capsys, "hash", SCALE_HALF)
    assert last_json(plain_out)["opal_hash"] != last_json(twin_out)["opal_hash"]


def test_hash_scale_fix_flag_pairing(capsys):
    code, _, err = run_cli(capsys, "hash", SCALE_HALF, "--scale-fix")
    assert code == EXIT_USAGE
    assert_error_line(err, EXIT_USAGE)
    code, _, err = run_cli(capsys, "hash", SCALE_HALF, "--probe", SCALE_PROBE)
    assert code == EXIT_USAGE


@pytest.mark.parametrize("command", ["hash", "canonicalize"])
def test_scale_fix_below_the_grid_is_failure(capsys, tmp_path, command):
    probe = tmp_path / "huge.jsonl"
    probe.write_text(
        '{"prompt_id": "a", "delta_u": 1e7}\n{"prompt_id": "b", "delta_u": -1e7}\n'
    )
    code, out, err = run_cli(
        capsys, command, DPO, "--scale-fix", "--probe", str(probe)
    )
    assert code == EXIT_FAILURE
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["code"] == EXIT_FAILURE
    assert "must not round to 0 on the canonical 1e-6 grid" in payload["error"]


# --- convert ---------------------------------------------------------------------------


def test_convert_config_to_gkpo(capsys):
    code, out, _ = run_cli(capsys, "convert", str(DATA / "rrhf_config.json"))
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["version"] == "gkpo-1.0"
    assert payload["provenance"]["method"] == "RRHF"
    from gkpo.canonical import opal_hash
    from gkpo.schema import parse

    assert opal_hash(parse(json.dumps(payload))) == opal_hash(
        parse(open(RRHF).read())
    )


def test_convert_object_to_method(capsys):
    code, out, _ = run_cli(capsys, "convert", RRHF, "--to", "DPO")
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["outcome"] == "converted"
    assert payload["target"]["method"] == "DPO"
    assert payload["scale_applied"] == 1.0
    # target is emitted in the CLI's own flat config-input format
    assert payload["target"]["score_penalties"] == {
        "rank_margin_1": 0.5,
        "rank_margin_2": 0.1,
    }


def test_convert_blocked_prints_result_and_exits_1(capsys):
    code, out, err = run_cli(capsys, "convert", SCORE_DEP, "--to", "DPO")
    assert code == EXIT_FAILURE
    payload = last_json(out)
    assert payload["outcome"] == "blocked"
    assert "score_dependent_weight" in payload["reasons"]
    assert_error_line(err, EXIT_FAILURE)


def test_convert_object_without_target_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "convert", RRHF)
    assert code == EXIT_USAGE
    assert_error_line(err, EXIT_USAGE)


def test_convert_unknown_target_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "convert", RRHF, "--to", "SFT")
    assert code == EXIT_USAGE


def test_convert_config_roundtrip_through_cli(capsys, tmp_path):
    _, out, _ = run_cli(capsys, "convert", str(DATA / "rrhf_config.json"))
    obj_path = tmp_path / "emitted.json"
    obj_path.write_text(out.strip().splitlines()[-1])
    code, out2, _ = run_cli(capsys, "convert", str(obj_path), "--to", "RRHF")
    assert code == EXIT_OK
    target = last_json(out2)["target"]
    assert target["penalties"] == {"rank_margin_1": 0.5, "rank_margin_2": 0.1}


# --- probe -----------------------------------------------------------------------------


def test_probe_shift_infeasible_witness(capsys):
    code, out, _ = run_cli(capsys, "probe", "shift", "0.20", "0.50", "-0.50")
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["feasible"] is False
    assert payload["witness"] == {
        "raw_gap": 0.2,
        "delta_ref_prompt1": 0.5,
        "delta_ref_prompt2": -0.5,
    }
    assert payload["margins"] == [-0.3, 0.7]


def test_probe_shift_feasible(capsys):
    code, out, _ = run_cli(capsys, "probe", "shift", "0.20", "0.10", "0.05")
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["feasible"] is True
    assert "fixed_reference" in payload


def test_probe_gate_forced_coefficients(capsys):
    code, out, _ = run_cli(capsys, "probe", "gate", "1,10,1", "0,1,1")
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["feasible"] is False
    assert payload["forced_coefficients"] == [-9.0, 1.0]


def test_probe_gate_feasible(capsys):
    code, out, _ = run_cli(capsys, "probe", "gate", "1,0,0.5", "0,1,2")
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["feasible"] is True
    assert payload["coefficients"] == [0.5, 2.0]


def test_probe_score_flip(capsys):
    code, out, _ = run_cli(capsys, "probe", "score", "0.40", "-0.80", "2.0", "0.5")
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["flipped"] is True
    assert payload["order_weight_first"] == pytest.approx(0.20)
    assert payload["order_penalty_first"] == pytest.approx(-0.80)


def test_probe_usage_errors(capsys):
    code, _, err = run_cli(capsys, "probe", "shift", "0.20", "0.50")
    assert code == EXIT_USAGE
    assert_error_line(err, EXIT_USAGE)
    code, _, _ = run_cli(capsys, "probe", "gate", "1,2")
    assert code == EXIT_USAGE
    code, _, _ = run_cli(capsys, "probe", "score", "0.4", "0.1")
    assert code == EXIT_USAGE


def test_probe_degenerate_input_is_failure(capsys):
    # repeated (d == ref) pair: a domain error, not a usage error
    code, _, err = run_cli(capsys, "probe", "shift", "0.20", "0.20", "0.50")
    assert code == EXIT_FAILURE
    assert_error_line(err, EXIT_FAILURE)


def test_probe_file_input(capsys, tmp_path):
    spec = tmp_path / "probe.json"
    spec.write_text(json.dumps([[0.20, 0.50], [0.20, -0.50]]))
    code, out, _ = run_cli(capsys, "probe", "shift", "--file", str(spec))
    assert code == EXIT_OK
    assert last_json(out)["feasible"] is False
    gate_spec = tmp_path / "gate.json"
    gate_spec.write_text(json.dumps([[1, 10, 1], [0, 1, 1]]))
    code, out, _ = run_cli(capsys, "probe", "gate", "--file", str(gate_spec))
    assert code == EXIT_OK
    assert last_json(out)["forced_coefficients"] == [-9.0, 1.0]


# --- demo ------------------------------------------------------------------------------


def test_demo_is_deterministic_and_complete(capsys):
    code1, out1, err1 = run_cli(capsys, "demo")
    code2, out2, _ = run_cli(capsys, "demo")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert err1 == ""
    assert "margin 0.40" in out1
    assert "margin 0.41" in out1
    assert "margin 0.35" in out1
    assert "margin 0.47" in out1
    assert "margins -0.30 / 0.70" in out1
    assert "lambda1 -9" in out1
    assert "flipped True" in out1
    assert "beta multiplier 0.5" in out1
    assert "hash equals pre-scaled twin True" in out1


# --- harness ---------------------------------------------------------------------------


H1_CONFIG = {"size": 40, "steps": 20, "seeds": [0, 1], "bootstrap_resamples": 200}
H2_CONFIG = {"size": 40, "steps": 20, "seeds": [0, 1], "bootstrap_resamples": 200}


def test_harness_h1_small_config(capsys, tmp_path):
    cfg = tmp_path / "h1.json"
    cfg.write_text(json.dumps(H1_CONFIG))
    code, out, _ = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["hypothesis"] == "H1"
    assert payload["min_tau"] == 1.0
    assert payload["min_decision_match"] == 1.0
    assert payload["all_traces_equal"] is True


def test_harness_h2_small_config_with_out_dir(capsys, tmp_path):
    cfg = tmp_path / "h2.json"
    cfg.write_text(json.dumps(H2_CONFIG))
    out_dir = tmp_path / "reports"
    code, out, _ = run_cli(
        capsys, "harness", "h2", "--config", str(cfg), "--out", str(out_dir)
    )
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload["hypothesis"] == "H2"
    assert payload["min_flip_agreement"] == 1.0
    written = json.loads((out_dir / "h2_report.json").read_text())
    assert written == payload
    text = (out_dir / "h2_report.txt").read_text()
    assert "H2" in text


def test_harness_unknown_config_key_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"size": 40, "momentum": 0.9}))
    code, _, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert_error_line(err, EXIT_USAGE)


def test_harness_bad_config_value_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"steps": 0}))
    code, _, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_USAGE
    cfg.write_text("not json")
    code, _, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_USAGE


# --- diff ------------------------------------------------------------------------------


def test_diff_reports_delta_and_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "diff", DPO, DPO_ALT)
    assert code == EXIT_OK
    payload = last_json(out)
    assert payload == [{"path": "reference.value", "a": 0.1, "b": 0.15}]


def test_diff_equal_objects_empty_list(capsys):
    code, out, _ = run_cli(capsys, "diff", RRHF, RRHF_REORDERED)
    assert code == EXIT_OK
    assert last_json(out) == []


def test_diff_missing_file_usage_error(capsys):
    code, _, err = run_cli(capsys, "diff", DPO, "/nonexistent/y.json")
    assert code == EXIT_USAGE
    assert_error_line(err, EXIT_USAGE)


# --- top level -------------------------------------------------------------------------


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_USAGE


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_stderr_errors_are_single_json_lines(capsys):
    for argv in (
        ["validate", "/nonexistent/x.json"],
        ["validate", str(DATA / "bad_beta.json")],
        ["convert", SCORE_DEP, "--to", "DPO"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code != EXIT_OK
        lines = [l for l in captured.err.strip().splitlines() if l]
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "code"}


def test_probe_row_errors_name_path_and_line(capsys, tmp_path):
    probe = tmp_path / "probe.jsonl"
    probe.write_text('{"prompt_id": "a", "delta_u": 1.0}\n{"prompt_id": "b"}\n')
    argv = ["hash", SCALE_HALF, "--scale-fix", "--probe", str(probe)]
    code, _, err = run_cli(capsys, *argv)
    assert code == EXIT_FAILURE
    assert_error_line(err, EXIT_FAILURE)
    assert f"{probe}:2:" in json.loads(err)["error"]


# --- nonzero exits never leak a traceback ----------------------------------------


def assert_single_error_line(err: str, code: int):
    lines = [l for l in err.splitlines() if l]
    assert len(lines) == 1, err
    assert json.loads(lines[0])["code"] == code


def test_non_utf8_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"version": "gkpo-1.0\xff"}')
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == EXIT_USAGE
    assert_single_error_line(err, EXIT_USAGE)


def test_huge_integer_is_parse_failure(capsys, tmp_path):
    text = fixture_path("dpo_fixed_reference.json").read_text(encoding="utf-8")
    assert '"beta": 1.0,' in text
    path = tmp_path / "huge.json"
    path.write_text(text.replace('"beta": 1.0,', '"beta": ' + "9" * 400 + ","))
    code, _, err = run_cli(capsys, "hash", str(path))
    assert code == EXIT_FAILURE
    assert_single_error_line(err, EXIT_FAILURE)


def test_deeply_nested_json_is_parse_failure(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    for command in (["validate"], ["hash"], ["convert", "--to", "DPO"]):
        code, _, err = run_cli(capsys, command[0], str(path), *command[1:])
        assert code == EXIT_FAILURE, command
        assert_single_error_line(err, EXIT_FAILURE)


def test_bad_command_line_number_is_usage_error(capsys):
    for argv in (
        ["probe", "shift", "0.2", "x", "1"],
        ["probe", "gate", "1,y,1"],
        ["probe", "score", "0.4", "-0.8", "2", "z"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert_single_error_line(err, EXIT_USAGE)


def test_config_value_of_wrong_type_is_failure(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "DPO", "beta": [1.0], "ref": 0.0}))
    code, _, err = run_cli(capsys, "convert", str(path))
    assert code == EXIT_FAILURE
    assert_single_error_line(err, EXIT_FAILURE)


def test_harness_too_few_resamples_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "few.json"
    cfg.write_text(json.dumps({"size": 20, "seeds": [0], "bootstrap_resamples": 5}))
    code, _, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert_single_error_line(err, EXIT_USAGE)

# --- import graph ----------------------------------------------------------------


def test_document_commands_leave_numpy_unloaded():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gkpo

    script = "\n".join(
        [
            "import contextlib, io, sys",
            "from gkpo.cli import main",
            "calls = [",
            f"    ['validate', {DPO!r}],",
            f"    ['hash', {DPO!r}],",
            f"    ['canonicalize', {RRHF!r}],",
            f"    ['convert', {RRHF!r}, '--to', 'DPO'],",
            f"    ['diff', {DPO!r}, {DPO_ALT!r}],",
            "    ['demo'],",
            "]",
            "for argv in calls:",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        assert main(argv) == 0, argv",
            "print('numpy' in sys.modules)",
        ]
    )
    src = str(Path(gkpo.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert result.stdout.strip() == "False"
