"""Command-line interface: exit codes, JSON output, and machine-parsable errors."""

import itertools
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkpo.adapters import METHOD_SHAPES, MethodConfig, normalize_config
from gkpo.cli import EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from gkpo.schema import METHODS

from conftest import DATA, FIXTURES, fixture_path

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


@pytest.mark.parametrize("token", ["1e400", "-1e400"])
@pytest.mark.parametrize(
    "node, path",
    [
        (("beta",), "beta"),
        (("weight", "constant"), "weight.constant"),
        (("reference", "value"), "reference.value"),
        (("penalties", 0, "lambda"), "penalties[0].lambda"),
        (("reducibility", "witness", "phi_value_equal"), "reducibility.witness.phi_value_equal"),
        (("reducibility", "witness", "phi_pairs", 1), "reducibility.witness.phi_pairs[1]"),
    ],
)
def test_number_literal_beyond_float_range_is_refused_at_its_path(
    capsys, tmp_path, node, path, token
):
    """JSON text 1e400 decodes to an infinite float: parse refuses it, so no
    command validates, hashes or writes a document holding it."""
    from gkpo.schema import ParseError, parse

    doc = json.loads(fixture_path("gated_penalty.json").read_text())
    target = doc
    for key in node[:-1]:
        target = target[key]
    target[node[-1]] = "HOLE"
    text = json.dumps(doc).replace('"HOLE"', token)
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.path, str(err.value)) == (path, f"{path}: number out of range")
    file = tmp_path / "doc.json"
    file.write_text(text)
    code, out, err = run_cli(capsys, "validate", str(file))
    assert code == EXIT_FAILURE
    assert json.loads(out)["violations"] == [
        {"path": path, "message": f"{path}: number out of range"}
    ]
    assert_error_line(err, EXIT_FAILURE)
    for command in ("hash", "canonicalize"):
        code, out, err = run_cli(capsys, command, str(file))
        assert (code, out) == (EXIT_FAILURE, "")
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


@pytest.mark.parametrize("command", ["hash", "canonicalize"])
def test_scale_fix_probe_lacking_a_penalty_is_failure(capsys, command):
    code, out, err = run_cli(capsys, command, RRHF, "--scale-fix", "--probe", SCALE_PROBE)
    assert code == EXIT_FAILURE
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["code"] == EXIT_FAILURE
    assert "'rank_margin_1'" in payload["error"] and "'probe1'" in payload["error"]


@pytest.mark.parametrize("nan_line", [1, 2, 3])
def test_scale_fix_refuses_a_nan_probe_number_on_any_line(capsys, tmp_path, nan_line):
    rows = [2.0, 4.0]
    rows.insert(nan_line - 1, float("nan"))
    probe = tmp_path / "probe.jsonl"
    probe.write_text("".join(
        json.dumps({"prompt_id": f"p{i}", "delta_u": du}) + "\n" for i, du in enumerate(rows)
    ))
    code, out, err = run_cli(capsys, "hash", SCALE_HALF, "--scale-fix", "--probe", str(probe))
    assert code == EXIT_FAILURE
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert f"{probe}:{nan_line}: bad probe sample: delta_u must be a finite number" in (
        json.loads(lines[0])["error"]
    )


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"], ids=ascii)
def test_probe_lines_split_only_at_newline(capsys, tmp_path, separator):
    """JSON allows U+0085, U+2028 and U+2029 raw inside a string, so a probe
    row holding one is one line, and its prompt id does not move the result."""
    def probe(prompt_id):
        path = tmp_path / f"{len(prompt_id)}.jsonl"
        rows = [{"prompt_id": prompt_id, "delta_u": 2.0}, {"prompt_id": "c", "delta_u": -2.0}]
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                        encoding="utf-8")
        return str(path)

    for argv in (["hash", SCALE_HALF, "--scale-fix", "--probe"],
                 ["convert", SCALE_HALF, "--to", "DPO", "--probe"]):
        code, out, err = run_cli(capsys, *argv, probe(f"a{separator}b"))
        assert (code, err) == (EXIT_OK, "")
        assert (EXIT_OK, out, "") == run_cli(capsys, *argv, probe("ab"))


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


@pytest.mark.parametrize("doc, method", [(DPO, "DPO"), (RRHF, "RRHF"), (DPO, "RRHF")])
def test_convert_result_converts_back_as_its_target(capsys, tmp_path, doc, method):
    _, result, _ = run_cli(capsys, "convert", doc, "--to", method)
    result_path = tmp_path / "result.json"
    result_path.write_text(result)
    code, back, err = run_cli(capsys, "convert", str(result_path), "--to", "gkpo")
    assert (code, err) == (EXIT_OK, "")
    # the result reads exactly as the target config it carries
    target_path = tmp_path / "target.json"
    target_path.write_text(json.dumps(json.loads(result)["target"]))
    assert run_cli(capsys, "convert", str(target_path))[1] == back
    if method == json.loads(open(doc).read())["provenance"]["method"]:
        back_path = tmp_path / "back.json"
        back_path.write_text(back)
        assert run_cli(capsys, "hash", str(back_path))[1] == run_cli(capsys, "hash", doc)[1]


def test_blocked_convert_result_is_usage_error_naming_target(capsys, tmp_path):
    _, result, _ = run_cli(capsys, "convert", SCORE_DEP, "--to", "DPO")
    assert json.loads(result)["target"] is None
    path = tmp_path / "blocked.json"
    path.write_text(result)
    code, out, err = run_cli(capsys, "convert", str(path), "--to", "gkpo")
    assert (code, out) == (EXIT_USAGE, "")
    assert_single_error_line(err, EXIT_USAGE)
    assert "no target" in json.loads(err)["error"]


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


@pytest.mark.parametrize(
    "argv, plain",
    [
        (["--pretty", "0.2", "0.5", "-0.5"], ["0.2", "0.5", "-0.5"]),
        (["0.2", "-1e-05", "0.5"], ["0.2", "-0.00001", "0.5"]),
    ],
    ids=["values-after-option", "negative-exponent"],
)
def test_probe_values_after_an_option_or_in_exponent_form(capsys, argv, plain):
    code, out, _ = run_cli(capsys, "probe", "shift", *plain)
    assert code == EXIT_OK
    expected = json.loads(out)
    code, out, err = run_cli(capsys, "probe", "shift", *argv)
    assert code == EXIT_OK, err
    assert json.loads(out) == expected


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


def test_harness_out_naming_a_file_is_usage_error_before_training(capsys, tmp_path):
    cfg = tmp_path / "h1.json"
    cfg.write_text(json.dumps(H1_CONFIG))
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    code, out, err = run_cli(capsys, "harness", "h1", "--config", str(cfg), "--out", str(afile))
    assert (code, out) == (EXIT_USAGE, "")
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert payload["code"] == EXIT_USAGE and str(afile) in payload["error"]
    assert afile.read_text() == "kept\n"


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


@pytest.mark.parametrize(
    "line",
    ['{"prompt_id": "b", "delta_u": 1%s}' % ("0" * 400), "[" * 100_000 + "]" * 100_000],
    ids=["int_beyond_float", "row_nested_too_deep"],
)
def test_probe_line_python_cannot_hold_names_path_and_line(capsys, tmp_path, line):
    probe = tmp_path / "probe.jsonl"
    probe.write_text('{"prompt_id": "a", "delta_u": 1.0}\n' + line + "\n")
    code, out, err = run_cli(capsys, "hash", SCALE_HALF, "--scale-fix", "--probe", str(probe))
    assert (code, out) == (EXIT_FAILURE, "")
    assert_single_error_line(err, EXIT_FAILURE)
    assert f"{probe}:2: bad probe sample: " in json.loads(err)["error"]


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


def test_config_flag_is_not_coerced(capsys, tmp_path):
    # bool("false") is true: the string used to fold and exit 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "PPO_RM", "beta": 1.0, "ref": 0.0,
                                "kl_coeff": 0.5, "fold_kl": "false"}))
    code, out, err = run_cli(capsys, "convert", str(path))
    assert (code, out) == (EXIT_FAILURE, "")
    assert_single_error_line(err, EXIT_FAILURE)
    assert json.loads(err)["error"] == "PPO_RM config fold_kl must be true or false"


@pytest.mark.parametrize("factors", [[None], ["om_a", 3], ["1om"], "om_a", {"om_a": 1}])
def test_kto_grpo_factors_that_are_not_names_are_failures(capsys, tmp_path, factors):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"method": "KTO_GRPO", "beta": 1, "ref": 0,
                                "weight_mode": "product", "factors": factors}))
    code, out, err = run_cli(capsys, "convert", str(path))
    assert (code, out) == (EXIT_FAILURE, "")
    assert_single_error_line(err, EXIT_FAILURE)
    assert "factor names" in json.loads(err)["error"]


def test_validate_and_hash_agree_on_a_lone_surrogate(capsys, tmp_path):
    doc = json.loads(fixture_path("rrhf_rank_penalties.json").read_text())
    doc["provenance"]["notes"] = "\ud800"
    path = tmp_path / "surrogate.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "hash"):
        code, _, err = run_cli(capsys, command, str(path))
        assert code == EXIT_FAILURE, command
        assert_single_error_line(err, EXIT_FAILURE)
        assert "provenance.notes" in json.loads(err)["error"]


def test_harness_too_few_resamples_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "few.json"
    cfg.write_text(json.dumps({"size": 20, "seeds": [0], "bootstrap_resamples": 5}))
    code, _, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert_single_error_line(err, EXIT_USAGE)


def test_harness_too_many_resamples_is_usage_error(capsys, tmp_path, monkeypatch):
    # one float per resample: 10**12 of them would be 8 TB
    def no_data(*args, **kwargs):
        raise AssertionError("a refused config must not generate its dataset")

    monkeypatch.setattr("gkpo.harness.gen_dataset", no_data)
    cfg = tmp_path / "many.json"
    cfg.write_text(
        json.dumps({"size": 40, "seeds": [0], "steps": 1, "bootstrap_resamples": 10**12})
    )
    code, out, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert (code, out) == (EXIT_USAGE, "")
    assert_single_error_line(err, EXIT_USAGE)
    assert "1000000" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "override",
    [
        {"seeds": "ab"},
        {"seeds": [True]},
        {"seeds": [0.5]},
        {"seeds": [-1]},
        {"steps": 2.5},
        {"steps": True},
        {"bootstrap_resamples": 100.0},
        {"learning_rate": "a"},
        {"learning_rate": True},
        {"learning_rate": float("nan")},
        {"init_scale": "a"},
        {"init_scale": float("inf")},
        {"size": 20.0},
        {"feature_dim": True},
        {"data_seed": "x"},
    ],
    ids=repr,
)
def test_harness_config_of_wrong_type_is_usage_error(capsys, tmp_path, override):
    cfg = tmp_path / "typed.json"
    base = {"size": 20, "seeds": [0], "steps": 5, "bootstrap_resamples": 100}
    cfg.write_text(json.dumps({**base, **override}))
    code, _, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert code == EXIT_USAGE
    assert_single_error_line(err, EXIT_USAGE)


@pytest.mark.parametrize(
    "config,key",
    [({"data_seed": -1}, "data_seed"), ({"size": -3000, "feature_dim": -3000}, "size")],
    ids=["data_seed", "size"],
)
def test_harness_data_key_out_of_range_is_named(capsys, tmp_path, monkeypatch, config, key):
    """An out-of-range data key is refused by name, before the size products
    are checked and before the dataset exists."""

    def no_dataset(*args, **kwargs):
        raise AssertionError("an out-of-range data key must be refused before the dataset")

    monkeypatch.setattr("gkpo.harness.gen_dataset", no_dataset)
    cfg = tmp_path / "range.json"
    cfg.write_text(json.dumps(config))
    for which in ("h1", "h2"):
        code, out, err = run_cli(capsys, "harness", which, "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert_single_error_line(err, EXIT_USAGE)
        assert f"{key} must be at least" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "override,message",
    [
        ({"learning_rate": 10**400}, "learning_rate must be finite"),
        ({"init_scale": -(10**400)}, "init_scale must be finite"),
        ({"seeds": 5}, "seeds must be a list of integers, got 5"),
        ({"seeds": "ab"}, "seeds must be a list of integers, got 'ab'"),
    ],
    ids=["learning_rate_401_digits", "init_scale_401_digits", "seeds_int", "seeds_string"],
)
def test_harness_config_number_or_seeds_is_refused_by_name(capsys, tmp_path, override, message):
    """A 401-digit int is not finite as a float, and seeds is an array, never
    a number or a string read character by character."""
    cfg = tmp_path / "named.json"
    cfg.write_text(json.dumps({"size": 20, "seeds": [0], "steps": 5, **override}))
    code, out, err = run_cli(capsys, "harness", "h1", "--config", str(cfg))
    assert (code, out) == (EXIT_USAGE, "")
    assert_single_error_line(err, EXIT_USAGE)
    assert message in json.loads(err)["error"]


def test_harness_config_naming_eval_every_is_an_unknown_key(capsys, tmp_path):
    # every run traces step 0 and its last step; no key sets the interval
    cfg = tmp_path / "every.json"
    cfg.write_text(json.dumps({"size": 40, "seeds": [0], "steps": 5, "eval_every": 1}))
    for which in ("h1", "h2"):
        code, out, err = run_cli(capsys, "harness", which, "--config", str(cfg))
        assert (code, out) == (EXIT_USAGE, "")
        assert_single_error_line(err, EXIT_USAGE)
        assert "unknown keys: ['eval_every']" in json.loads(err)["error"]


@pytest.mark.parametrize("which", ["h1", "h2"])
@pytest.mark.parametrize("override", [{"learning_rate": 1e308}, {"init_scale": 1e308}],
                         ids=repr)
def test_harness_diverging_descent_is_one_failure_line(capsys, tmp_path, which, override):
    cfg = tmp_path / "diverge.json"
    cfg.write_text(json.dumps({"size": 40, "seeds": [0], "steps": 3, **override}))
    code, out, err = run_cli(capsys, "harness", which, "--config", str(cfg))
    assert (code, out) == (EXIT_FAILURE, "")
    assert_single_error_line(err, EXIT_FAILURE)
    assert "seed 0, step" in json.loads(err)["error"]


def test_malformed_orpo_shift_evidence_is_failure(capsys, tmp_path):
    path = tmp_path / "orpo.json"
    for evidence in ({"raw_gap": 1}, [1, 2]):
        cfg = {"method": "ORPO", "beta": 1, "offset_mode": "per_prompt"}
        path.write_text(json.dumps({**cfg, "shift_evidence": evidence}))
        code, out, err = run_cli(capsys, "convert", str(path))
        assert code == EXIT_FAILURE
        assert out == ""
        assert_single_error_line(err, EXIT_FAILURE)
        assert "shift_evidence" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv, file_text, expected",
    [
        (["shift", "1e400", "0.5", "-0.5"], None, EXIT_USAGE),
        (["shift", "nan", "0.5", "-0.5"], None, EXIT_USAGE),
        (["shift"], "[[NaN, 1], [0.2, 0.5]]", EXIT_FAILURE),
        # finite inputs whose result overflows to -inf
        (["score", "--", "-1e308", "0", "10", "0.5"], None, EXIT_FAILURE),
        # a result beyond float range, as floats and as exact ints
        pytest.param(["score", "1e300", "0", "1", "1e10"], None, EXIT_FAILURE,
                     id="score-float-beyond-range"),
        pytest.param(["score"], json.dumps({"delta_u": 10**300, "penalty_shift": 0,
                                            "psi_below": 1, "psi_at_or_above": 10**10}),
                     EXIT_FAILURE, id="score-int-beyond-range"),
    ],
)
def test_probe_never_prints_non_finite_json(capsys, tmp_path, argv, file_text, expected):
    if file_text is not None:
        path = tmp_path / "probe.json"
        path.write_text(file_text)
        argv = [*argv, "--file", str(path)]
    code, out, err = run_cli(capsys, "probe", *argv)
    assert code == expected
    assert out == ""
    assert_single_error_line(err, expected)


SCORE_SPEC = {"delta_u": 0.4, "penalty_shift": -0.8, "psi_below": 2.0, "psi_at_or_above": 0.5}


@pytest.mark.parametrize(
    "kind, spec",
    [
        ("shift", [[0.2, 0.5], [0.2, True]]),
        ("shift", [["0.2", "0.5"], [0.2, -0.5]]),
        ("shift", [[0.2], [0.2, -0.5]]),
        ("shift", [[0.2, 0.5, 9.0], [0.2, -0.5]]),
        ("shift", {"rows": [[0.2, 0.5], [0.2, -0.5]]}),
        ("gate", [[1, 10], [0, 1, 1]]),
        ("gate", [[1, 10, "1"], [0, 1, 1]]),
        ("score", {**SCORE_SPEC, "psi_below": True}),
        ("score", {**SCORE_SPEC, "psi_below": "2.0"}),
        ("score", {k: v for k, v in SCORE_SPEC.items() if k != "psi_below"}),
        ("score", {**SCORE_SPEC, "threshold": 0.0}),
        ("score", {"delta_u": 10**400, "penalty_shift": 0, "psi_below": 1,
                   "psi_at_or_above": 2}),
        ("score", [list(SCORE_SPEC.values())]),
    ],
    ids=["shift-bool", "shift-string", "shift-row-of-1", "shift-row-of-3",
         "shift-object", "gate-row-of-2", "gate-string", "score-bool",
         "score-string", "score-missing-key", "score-extra-key", "score-401-digits",
         "score-array"],
)
def test_malformed_probe_file_is_failure(capsys, tmp_path, kind, spec):
    """A probe file holds exactly the rows the command line gives, and its
    numbers follow the command line's rule; a file that breaks either exits 1."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(spec))
    code, out, err = run_cli(capsys, "probe", kind, "--file", str(path))
    assert (code, out) == (EXIT_FAILURE, "")
    assert_single_error_line(err, EXIT_FAILURE)
    assert set(json.loads(err)) == {"error", "code"}


@pytest.mark.parametrize(
    "argv, spec",
    [
        (["shift", "0.20", "0.50", "-0.50"], [[0.2, 0.5], [0.2, -0.5]]),
        (["shift", "0.2", "0.1", "0.05"], [[0.2, 0.1], [0.2, 0.05]]),
        (["gate", "1,10,1", "0,1,1"], [[1.0, 10.0, 1.0], [0.0, 1.0, 1.0]]),
        (["gate", "1,0,0.5", "0,1,2"], [[1.0, 0.0, 0.5], [0.0, 1.0, 2.0]]),
        (["score", "0.40", "-0.80", "2.0", "0.5"], SCORE_SPEC),
    ],
)
def test_probe_file_and_command_line_read_the_same_rows(capsys, tmp_path, argv, spec):
    code, from_argv, _ = run_cli(capsys, "probe", *argv)
    assert code == EXIT_OK
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(spec))
    code, from_file, _ = run_cli(capsys, "probe", argv[0], "--file", str(path))
    assert code == EXIT_OK
    assert from_file == from_argv


def test_probe_score_file_of_ints_prints_int_margins(capsys, tmp_path):
    path = tmp_path / "score.json"
    path.write_text(json.dumps(
        {"delta_u": 3, "penalty_shift": -5, "psi_below": 2, "psi_at_or_above": 1}
    ))
    code, out, _ = run_cli(capsys, "probe", "score", "--file", str(path))
    assert code == EXIT_OK
    assert out == (
        '{"kind":"score","order_weight_first":3,"order_penalty_first":-4,"flipped":true}\n'
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["shift", "0.2", "true", "0.5"],
        ["gate", "1,10,1,0"],
        ["score", "0.4", "-0.8", "2.0", "0.5", "1"],
        ["shift", "0.2", "0.5", "-0.5", "--file", "FILE"],
        ["shift", "--file", "FILE", "0.2", "0.5", "-0.5"],
    ],
)
def test_bad_probe_command_line_is_usage_error(capsys, tmp_path, argv):
    """Bad command-line values stay usage errors, and so do values given
    together with --file."""
    path = tmp_path / "probe.json"
    path.write_text(json.dumps([[0.2, 0.5], [0.2, -0.5]]))
    argv = [str(path) if token == "FILE" else token for token in argv]
    code, out, err = run_cli(capsys, "probe", *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert_single_error_line(err, EXIT_USAGE)


@pytest.mark.parametrize(
    "config",
    [{"size": 10**13}, {"size": 4, "feature_dim": 10**13, "steps": 1}],
    ids=["size", "feature_dim"],
)
def test_oversized_harness_dataset_is_usage_error(capsys, tmp_path, monkeypatch, config):
    from gkpo.harness import MAX_HARNESS_CELLS

    def no_dataset(*args, **kwargs):
        raise AssertionError("the limit must refuse the config before allocating")

    monkeypatch.setattr("gkpo.harness.gen_dataset", no_dataset)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(config))
    for which in ("h1", "h2"):
        code, out, err = run_cli(capsys, "harness", which, "--config", str(path))
        assert code == EXIT_USAGE
        assert out == ""
        assert_single_error_line(err, EXIT_USAGE)
        assert str(MAX_HARNESS_CELLS) in json.loads(err)["error"]


def test_oversized_margin_trace_is_usage_error(capsys, tmp_path, monkeypatch):
    """A run holds its margin trace, 2 rows (step 0 and the last step) by one
    column per pair; over MAX_HARNESS_CELLS it is refused before the dataset
    exists."""
    from gkpo.harness import MAX_HARNESS_CELLS

    def no_dataset(*args, **kwargs):
        raise AssertionError("the limit must refuse the config before allocating")

    monkeypatch.setattr("gkpo.harness.gen_dataset", no_dataset)
    path = tmp_path / "long.json"
    # half the feature-cell limit, with a trace one row longer than it
    config = {"size": 2_000_001, "feature_dim": 1}
    path.write_text(json.dumps(config))
    for which in ("h1", "h2"):
        code, out, err = run_cli(capsys, "harness", which, "--config", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert_single_error_line(err, EXIT_USAGE)
        message = json.loads(err)["error"]
        assert "margin trace" in message and str(MAX_HARNESS_CELLS) in message


def test_overlong_descent_is_usage_error(capsys, tmp_path, monkeypatch):
    """A report descends steps x size pairs once per seed; over
    MAX_DESCENT_PAIR_STEPS it is refused before the dataset exists, although
    its margin trace (2 rows) and dataset are small."""
    from gkpo.harness import MAX_DESCENT_PAIR_STEPS

    def no_dataset(*args, **kwargs):
        raise AssertionError("the limit must refuse the config before allocating")

    monkeypatch.setattr("gkpo.harness.gen_dataset", no_dataset)
    path = tmp_path / "long.json"
    config = {"size": 20, "steps": 10**12, "seeds": [0], "bootstrap_resamples": 100}
    path.write_text(json.dumps(config))
    for which in ("h1", "h2"):
        code, out, err = run_cli(capsys, "harness", which, "--config", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert_single_error_line(err, EXIT_USAGE)
        message = json.loads(err)["error"]
        assert "descent" in message and str(MAX_DESCENT_PAIR_STEPS) in message


def test_descent_limit_admits_the_benchmark_ci_and_default_configs(monkeypatch):
    from gkpo import harness

    monkeypatch.setattr(harness, "gen_dataset", lambda *args, **kwargs: "dataset")
    admitted = [
        ("h1", {}),
        ("h2", {}),
        ("h1", {"size": 4000, "data_seed": 7, "seeds": [0, 1]}),  # the benchmark's
        ("h2", {"size": 50_000, "data_seed": 7, "seeds": [0, 1]}),
        ("h1", {"size": 40, "seeds": [0], "steps": 5, "bootstrap_resamples": 100}),  # CI's
        ("h2", {"size": 40, "seeds": [0, 1], "steps": 5, "bootstrap_resamples": 100}),
    ]
    for which, config in admitted:
        assert harness.setup(which, config)[2] == "dataset"
    # exactly at the limit passes, one pair-step over it does not
    at = {"size": 1000, "seeds": [0]}
    steps = harness.MAX_DESCENT_PAIR_STEPS // 1000
    assert harness.setup("h1", {**at, "steps": steps})[2] == "dataset"
    with pytest.raises(ValueError, match="pair-steps"):
        harness.setup("h1", {**at, "steps": steps + 1})


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


def test_harness_h1_leaves_numpy_ma_unloaded(tmp_path):
    """bootstrap_ci takes its percentiles without np.percentile, whose first
    call imports numpy.ma (through np.unique), about 13 ms of a cold h1."""
    import os
    import subprocess
    import sys

    import gkpo

    config = tmp_path / "h1.json"
    config.write_text(
        json.dumps({"size": 40, "seeds": [0], "steps": 5, "bootstrap_resamples": 100})
    )
    script = "\n".join(
        [
            "import contextlib, io, sys",
            "from gkpo.cli import main",
            "with contextlib.redirect_stdout(io.StringIO()):",
            f"    assert main(['harness', 'h1', '--config', {str(config)!r}]) == 0",
            "print('numpy' in sys.modules, 'numpy.ma' in sys.modules)",
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
    assert result.stdout.strip() == "True False"


# command -> (argv, gkpo modules it loads, which of LAZY_STDLIB it loads)
LAZY_STDLIB = ("hashlib", "statistics")
DOCUMENT_COMMANDS = {
    "validate": (["validate", DPO], {"schema"}, set()),
    "hash": (["hash", DPO], {"schema", "canonical"}, {"hashlib"}),
    "hash --scale-fix": (
        ["hash", SCALE_HALF, "--scale-fix", "--probe", SCALE_PROBE],
        {"schema", "canonical", "algebra"},
        {"hashlib", "statistics"},
    ),
    "canonicalize": (["canonicalize", RRHF], {"schema", "canonical"}, set()),
    "diff": (["diff", DPO, DPO_ALT], {"schema", "canonical"}, set()),
    "convert": (
        ["convert", RRHF, "--to", "RRHF"],
        {"schema", "algebra", "reducibility", "adapters"},
        set(),
    ),
    "probe": (
        ["probe", "shift", "0.2", "0.5", "-0.5"],
        {"schema", "reducibility"},
        set(),
    ),
}


@pytest.mark.parametrize("command", sorted(DOCUMENT_COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(command):
    """A cold `python -m gkpo.cli` run imports gkpo, the modules its command
    uses and no numpy, hashlib only when it hashes and statistics only when
    it scale-fixes; the interpreter's import log (-X importtime) lists every
    module the run loaded."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import gkpo

    argv, modules, lazy = DOCUMENT_COMMANDS[command]
    src = str(Path(gkpo.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "gkpo.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == EXIT_OK, result.stderr
    loaded = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:") and "imported package" not in line
    }
    assert {m for m in loaded if m.split(".")[0] == "gkpo"} == {
        "gkpo",
        *(f"gkpo.{m}" for m in modules),
    }
    assert not {m for m in loaded if m.split(".")[0] == "numpy"}
    assert {m for m in LAZY_STDLIB if m in loaded} == lazy


# --- whole-CLI fuzz ----------------------------------------------------------------

FUZZ_CONFIGS = [
    {"method": "DPO", "beta": 1.0, "ref": 0.1, "score_penalties": {"len": 0.2}},
    {"method": "PPO_RM", "beta": 1.0, "ref": 0.05, "kl_coeff": 0.5,
     "anchor_offset": 0.1, "fold_kl": True},
    {"method": "RRHF", "beta": 1.0, "penalties": {"rank_margin_1": 0.5}},
    {"method": "ORPO", "beta": 1.0, "offset_mode": "per_prompt",
     "shift_evidence": {"raw_gap": 0.2, "offsets": [0.5, -0.5]}},
    {"method": "KTO_GRPO", "beta": 1.0, "ref": 0.0, "weight_mode": "product",
     "factors": ["om_a", "om_b"]},
]
# JSON text that replaces one node (None deletes it); 1e400, NaN and the
# 400-digit integer decode to values that no float field can hold, and the
# escaped lone surrogates to strings that UTF-8 cannot encode
FUZZ_NODES = [None, "null", "true", '"x"', "1" + "0" * 399, "1e400", "NaN",
              '[1, {"a": []}]', '{"raw": [true]}', '"\\ud800"', '{"\\udfff": 1}']
# command-line numbers for probe; gate joins three of them with commas
FUZZ_NUMBERS = ["0", "0.2", "-0.5", "-1e-05", "10", "1e400", "-1e308", "1e308",
                "nan", "-inf", "1e-320", "x", ""]
_HOLE = "\x00hole\x00"


def _node_paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _node_paths(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _node_paths(value, (*path, i))


@st.composite
def _mutated(draw, doc, jsonl=False):
    """doc as JSON bytes, or a list doc as JSON lines, with one node below the
    root deleted or replaced by a FUZZ_NODES entry."""
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_node_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = draw(st.sampled_from(FUZZ_NODES))
    if node is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = _HOLE
    text = "\n".join(map(json.dumps, doc)) if jsonl else json.dumps(doc)
    return text.replace(json.dumps(_HOLE), node or "").encode()


def _fuzz_text(max_size):
    """Text that may hold a lone surrogate, which UTF-8 cannot encode."""
    return st.text(st.characters() | st.sampled_from("\ud800\udfff"), max_size=max_size)


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | _fuzz_text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_fuzz_text(max_size=12), inner, max_size=4),
    max_leaves=12,
)
# 10**400 is valid JSON that no float can hold; a bool or a numeric string is
# not a number in a probe file
_probe_numbers = st.floats() | st.just(10**400) | st.booleans() | st.floats().map(str)
_probe_files = st.one_of(
    _json_values,
    st.lists(st.lists(_probe_numbers, min_size=1, max_size=4), max_size=4),
    st.fixed_dictionaries(dict.fromkeys(SCORE_SPEC, _probe_numbers)),
    # a missing or an extra key
    st.dictionaries(st.sampled_from([*SCORE_SPEC, "threshold"]), _probe_numbers),
).map(lambda value: json.dumps(value).encode())


@st.composite
def cli_runs(draw):
    """(argv, data): the argv token "FILE" names a file holding the bytes data."""
    kind = draw(st.sampled_from(["bytes", "document", "config", "probe rows", "probe"]))
    if kind == "config":
        return ["convert", "FILE"], draw(_mutated(draw(st.sampled_from(FUZZ_CONFIGS))))
    if kind == "probe rows":
        rows = [json.loads(line) for line in Path(SCALE_PROBE).read_text().splitlines()]
        argv = draw(st.sampled_from([
            ["hash", SCALE_HALF, "--scale-fix", "--probe", "FILE"],
            ["canonicalize", SCALE_HALF, "--scale-fix", "--probe", "FILE"],
            # the probe rows lack the fixture's rank_margin_* penalties
            ["hash", RRHF, "--scale-fix", "--probe", "FILE"],
            ["canonicalize", RRHF, "--scale-fix", "--probe", "FILE"],
            ["convert", str(FIXTURES / "kto_product_weight.json"),
             "--to", "KTO_GRPO", "--probe", "FILE"],
        ]))
        return argv, draw(_mutated(rows, jsonl=True))
    if kind == "probe":
        kind = draw(st.sampled_from(["shift", "gate", "score"]))
        argv = ["probe", kind, *draw(st.sampled_from([[], ["--"], ["--pretty"]]))]
        if draw(st.booleans()):
            # values together with --file are a usage error
            values = draw(st.sampled_from([[], [], ["0.2"]]))
            return [*argv, *values, "--file", "FILE"], draw(_probe_files)
        token = st.sampled_from(FUZZ_NUMBERS) | st.floats(
            allow_nan=False, allow_infinity=False
        ).map(repr)
        if kind == "gate":
            token = st.lists(token, min_size=3, max_size=3).map(",".join)
        return argv + draw(st.lists(token, max_size=5)), b""
    if kind == "bytes":
        data = draw(st.binary(max_size=64))
    else:
        docs = sorted(FIXTURES.glob("*.json"))
        data = draw(_mutated(json.loads(draw(st.sampled_from(docs)).read_text())))
    argv = draw(st.sampled_from(
        [["validate"], ["hash"], ["canonicalize"], ["convert"]]
        + [["convert", "--to", method] for method in sorted(METHODS)]
    ) | st.just(["diff", DPO]))
    return [argv[0], "FILE", *argv[1:]], data


def _no_constant(token):
    raise ValueError(f"{token} is not JSON")


@settings(max_examples=400, derandomize=True, deadline=None)
@given(cli_runs())
def test_every_cli_run_exits_cleanly(run):
    """Whatever the bytes, argv or file, a run returns 0, 1 or 2; a nonzero
    run writes exactly one {"error", "code"} line on stderr, and stdout is
    strict JSON (no NaN or Infinity)."""
    import contextlib
    import io
    import tempfile

    argv, data = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "file"
        path.write_bytes(data)
        argv = [str(path) if token == "FILE" else token for token in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (EXIT_OK, EXIT_FAILURE, EXIT_USAGE)
    if code == EXIT_OK:
        assert out.getvalue()
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, err.getvalue()
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "code"} and payload["code"] == code
    if out.getvalue():
        json.loads(out.getvalue(), parse_constant=_no_constant)


@pytest.mark.parametrize("config", FUZZ_CONFIGS, ids=lambda config: config["method"])
def test_normalize_config_writes_table_order_for_every_key_order(config):
    method = config["method"]
    params = {key: value for key, value in config.items() if key != "method"}
    want = normalize_config(MethodConfig(method, params)).params
    assert list(want) == list(METHOD_SHAPES[method].keys)
    for order in itertools.permutations(params):
        got = normalize_config(MethodConfig(method, {key: params[key] for key in order}))
        assert json.dumps(got.params) == json.dumps(want), order  # nested order too


# --- pinned bytes --------------------------------------------------------------------

# sha256 of the JSON list of [argv, exit code, stdout, stderr] over pinned_calls();
# a change to any byte the CLI writes for these runs moves it
CLI_DIGEST = "b4723fafaebdc4f8c06c0969bb99f6b096ceff667f334bf51a94a0570abc79c6"


def pinned_calls():
    """Every fixture and tests/data document through each document command,
    diffs, scale fixing, the three probes, demo and usage errors; paths are
    relative to the repo root."""
    root = FIXTURES.parent
    docs = [
        path.relative_to(root).as_posix()
        for folder in (FIXTURES, DATA)
        for path in sorted(folder.glob("*.json"))
    ]
    calls = []
    for doc in docs:
        calls += [["validate", doc], ["hash", doc],
                  ["hash", doc, "--emit-canonical", "--pretty"], ["canonicalize", doc],
                  ["convert", doc]]
        calls += [["convert", doc, "--to", to] for to in [*sorted(METHODS), "gkpo"]]
    fx = "fixtures/"
    probe = ["--probe", fx + "scale_probe.jsonl"]
    calls += [
        ["diff", fx + "dpo_fixed_reference.json", fx + "dpo_alternate_reference.json"],
        ["diff", fx + "rrhf_rank_penalties.json", fx + "rrhf_rank_penalties_reordered.json"],
        ["diff", fx + "rrhf_rank_penalties.json", fx + "rrhf_folded_penalties.json", "--pretty"],
        ["diff", fx + "dpo_fixed_reference.json", "tests/data/bad_beta.json"],
        ["hash", fx + "scale_half_weight.json", "--scale-fix", *probe],
        ["canonicalize", fx + "scale_half_weight.json", "--scale-fix", *probe],
        ["hash", fx + "rrhf_rank_penalties.json", "--scale-fix", *probe],
        ["probe", "shift", "0.20", "0.50", "-0.50"],
        ["probe", "shift", "--pretty", "0.2", "-1e-05", "0.5"],
        ["probe", "gate", "1,10,1", "0,1,1"],
        ["probe", "gate", "1,0,1"],
        ["probe", "score", "0.40", "-0.80", "2.0", "0.5"],
        ["probe", "score", "1e308", "0", "1e308", "1e308"],
        ["demo"],
        [],
        ["validate"],
        ["validate", "nonexistent.json"],
        ["validate", fx + "dpo_fixed_reference.json", "extra"],
        ["hash", fx + "scale_half_weight.json", "--scale-fix"],
        ["hash", fx + "scale_half_weight.json", *probe],
        ["convert", "tests/data/rrhf_config.json", "--to", "DPO"],
        ["convert", "tests/data/rrhf_config.json", "--to"],
        ["probe", "shift", "0.2"],
        ["probe", "score", "0.4", "x", "1", "1"],
    ]
    return calls


def test_cli_bytes_are_pinned(monkeypatch):
    """stdout, stderr and the exit code of each pinned call, byte for byte."""
    import contextlib
    import hashlib
    import io

    monkeypatch.chdir(FIXTURES.parent)
    runs = []
    for argv in pinned_calls():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        runs.append([argv, code, out.getvalue(), err.getvalue()])
    assert len(runs) >= 200
    blob = json.dumps(runs, ensure_ascii=False).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == CLI_DIGEST
