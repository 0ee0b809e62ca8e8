"""Command-line surface: validate, canonicalize, hash, convert, probe, demo,
harness, diff.

Exit codes: 0 success, 1 validation or domain failure, 2 usage error
(including unreadable files, bad harness configs and a harness --out path
that cannot hold the reports). Every nonzero exit
writes one machine-parsable JSON line to stderr; `main` is the one place that
turns a library error into that line. Primary output is JSON on stdout;
--pretty indents it for reading.

Each command returns (output, failure) and prints nothing: output is a JSON
value, or the text that canonicalize, `convert --to gkpo` and demo write, and
failure is None or the error to exit with after the output. So a command's
whole output is computed before anything prints, and `main` alone prints.
Three runs print a payload and then exit nonzero: validate with violations,
a blocked convert, and harness whose --out report files cannot be written
(the reports are written before the payload prints).

Each command imports the modules it runs inside its own body, so a cold
`gkpo validate` loads only gkpo.schema and `gkpo hash` adds gkpo.canonical.
`gkpo harness` reads its config and leaves every decision about it to
gkpo.harness.setup; a ValueError or TypeError from there is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from typing import TYPE_CHECKING, Any, Sequence

from .schema import (
    METHODS,
    GkpoObject,
    ParseError,
    Violation,
    WeightSpec,
    is_finite_number,
    parse,
    serialize,
    validate,
)

if TYPE_CHECKING:
    from .algebra import PairSample

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


def __getattr__(name: str):
    # bench/tracing.py resolves these four names on gkpo.cli; this hook keeps
    # them importable until ROADMAP item 6 replaces its table of patch sites.
    if name in ("canonicalize", "opal_hash"):
        from . import canonical as module
    elif name in ("from_gkpo", "to_gkpo"):
        from . import adapters as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


class _UsageError(Exception):
    pass


class _Failure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse's own failures to exit code 2
        raise _UsageError(message)


# a command's (output, failure): see the module docstring
_Result = tuple[Any, Exception | None]


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _read_json(path: str) -> Any:
    """Decoded JSON from a file; malformed or too deeply nested text is a
    ValueError that names the file."""
    try:
        return json.loads(_read_text(path))
    except RecursionError:
        raise ValueError(f"{path}: not JSON: nested too deeply") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None


def _load_object(path: str) -> GkpoObject:
    try:
        return parse(_read_text(path))
    except ParseError as exc:
        raise _Failure(f"{path}: {exc}") from exc


def _load_probe(path: str) -> list[PairSample]:
    from .algebra import sample_from_row

    samples = []
    # rows end at "\n" only: splitlines() would also break at U+0085, U+2028
    # and U+2029, which JSON allows raw inside a string
    for i, line in enumerate(_read_text(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            samples.append(sample_from_row(json.loads(line)))
        except (ValueError, RecursionError) as exc:
            raise _Failure(f"{path}:{i}: bad probe sample: {exc}") from exc
    if not samples:
        raise _Failure(f"{path}: probe file is empty")
    return samples


# ---------------------------------------------------------------------------
# Commands


def cmd_validate(args) -> _Result:
    try:
        violations = validate(parse(_read_text(args.path)))
        summary = f"{len(violations)} violation(s)"
    except ParseError as exc:  # the parse error is the one violation
        violations, summary = [Violation(exc.path, str(exc))], str(exc)
    payload = {
        "path": args.path,
        "valid": not violations,
        "violations": [{"path": v.path, "message": v.message} for v in violations],
    }
    return payload, _Failure(f"{args.path}: {summary}") if violations else None


def _canonical_bytes(args) -> bytes:
    from .canonical import canonicalize

    obj = _load_object(args.path)
    probe = None
    if args.scale_fix:
        if not args.probe:
            raise _UsageError("--scale-fix requires --probe")
        probe = _load_probe(args.probe)
    elif args.probe:
        raise _UsageError("--probe only applies with --scale-fix")
    return canonicalize(obj, probe=probe)


def cmd_canonicalize(args) -> _Result:
    return _canonical_bytes(args).decode("utf-8"), None


def cmd_hash(args) -> _Result:
    import hashlib

    blob = _canonical_bytes(args)
    payload: dict[str, Any] = {"opal_hash": hashlib.sha256(blob).hexdigest()}
    if args.emit_canonical:
        payload["canonical"] = blob.decode("utf-8")
    return payload, None


def cmd_convert(args) -> _Result:
    from .adapters import MethodConfig, from_gkpo, to_gkpo

    raw = _read_json(args.path)
    if isinstance(raw, dict) and {"outcome", "target"} <= raw.keys():  # a convert result
        if not isinstance(raw := raw["target"], dict):
            raise _UsageError(f"{args.path}: convert result has no target config (blocked)")
    if isinstance(raw, dict) and "method" in raw:  # adapter config -> GKPO
        if args.to not in (None, "gkpo"):
            raise _UsageError("config input converts to GKPO; drop --to or use --to gkpo")
        params = {k: v for k, v in raw.items() if k != "method"}
        return serialize(to_gkpo(MethodConfig(raw["method"], params))), None

    if args.to in (None, "gkpo"):
        raise _UsageError("GKPO input needs --to with a method name")
    obj = _load_object(args.path)
    probe = _load_probe(args.probe) if args.probe else None
    result = from_gkpo(obj, args.to, probe=probe)
    payload: dict[str, Any] = {
        "outcome": result.outcome,
        "reasons": list(result.reasons),
        "scale_applied": result.scale_applied,
        "target": None,
    }
    if result.target is not None:
        payload["target"] = {"method": result.target.method, **result.target.params}
    if result.blocked:
        return payload, _Failure(f"conversion blocked: {', '.join(result.reasons)}")
    return payload, None


# Each probe's row width and its input as argv shows it; --file holds the
# same rows as JSON.
_PROBES = {
    "shift": (2, "RAW_GAP OFFSET OFFSET [OFFSET ...]"),
    "gate": (3, "PHI1,PHI2,TOTAL [PHI1,PHI2,TOTAL ...]"),
    "score": (4, "DELTA_U SHIFT PSI_BELOW PSI_AT_OR_ABOVE"),
}
_SCORE_KEYS = ("delta_u", "penalty_shift", "psi_below", "psi_at_or_above")


def _argv_number(token: str) -> float | str:
    """float(token), or the token itself for the number rule to refuse."""
    try:
        value = float(token)
    except ValueError:
        return token
    return value if math.isfinite(value) else token


def _probe_rows(args) -> list[tuple[Any, ...]]:
    """The probe's input rows, read the same way from argv and from --file.

    shift rows are (gap, offset) pairs, gate rows (phi1, phi2, total) triples,
    and score is one (delta_u, penalty_shift, psi_below, psi_at_or_above) row.
    Every value must be a number (not a bool or a string) that is finite as a
    float; argv tokens are read with float() first. A bad shape or value is a
    usage error on the command line and a failure in a file.
    """
    width, usage = _PROBES[args.kind]
    if args.file:
        if args.values:
            raise _UsageError("give probe values or --file, not both")
        error, where = _Failure, f"{args.file}: "
        spec = _read_json(args.file)
        if args.kind == "score":
            if not (isinstance(spec, dict) and set(spec) == set(_SCORE_KEYS)):
                raise _Failure(f"{where}score needs an object with exactly the "
                               f"keys {', '.join(_SCORE_KEYS)}")
            rows = [[spec[key] for key in _SCORE_KEYS]]
        elif isinstance(spec, list):
            rows = spec
        else:
            raise _Failure(f"{where}{args.kind} needs a JSON array of rows")
    else:
        error, where, values = _UsageError, "", args.values
        if args.kind == "shift":
            rows = [[values[0], v] for v in values[1:]] if len(values) >= 3 else []
        elif args.kind == "gate":
            rows = [token.split(",") for token in values]
        else:
            rows = [values]
        if not rows:
            raise _UsageError(f"{args.kind} needs {usage}")
        rows = [[_argv_number(token) for token in row] for row in rows]
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            raise error(f"{where}{args.kind} row {json.dumps(row)} is not {width} numbers")
        for value in row:
            if not is_finite_number(value):
                raise error(f"{where}{json.dumps(value)} is not a finite number")
    return [tuple(row) for row in rows]


def cmd_probe(args) -> _Result:
    from .reducibility import PiecewisePsi, probe_gate, probe_score, probe_shift

    rows = _probe_rows(args)
    payload: dict[str, Any] = {"kind": args.kind}
    if args.kind == "shift":
        outcome = probe_shift(rows)
        payload["feasible"] = outcome.feasible
        if outcome.feasible:
            payload["fixed_reference"] = outcome.fixed_reference
        else:
            payload["witness"] = outcome.witness.as_witness_map()
            payload["margins"] = list(outcome.witness.margins)
    elif args.kind == "gate":
        outcome = probe_gate(rows)
        payload["feasible"] = outcome.feasible
        if outcome.feasible:
            payload["coefficients"] = list(outcome.coefficients)
        else:
            payload["witness"] = outcome.witness.as_witness_map()
            forced = outcome.witness.forced_coefficients
            payload["forced_coefficients"] = list(forced) if forced else None
    else:
        du, shift, below, above = rows[0]
        outcome = probe_score(du, shift, PiecewisePsi(below, above))
        payload["order_weight_first"] = outcome.order_weight_first
        payload["order_penalty_first"] = outcome.order_penalty_first
        payload["flipped"] = outcome.flipped
    if not _finite_numbers(payload):
        # an all-int score file computes in exact ints, which can pass any float
        raise _Failure(f"{args.kind} probe result is not a finite float")
    return payload, None


def _finite_numbers(value: Any) -> bool:
    """True when every number in value, at any depth, is finite as a float."""
    if isinstance(value, dict):
        return all(map(_finite_numbers, value.values()))
    if isinstance(value, list):
        return all(map(_finite_numbers, value))
    return isinstance(value, bool) or not isinstance(value, (int, float)) or (
        is_finite_number(value)
    )


def cmd_demo(args) -> _Result:
    from .adapters import MethodConfig, to_gkpo
    from .algebra import PairSample, object_margin
    from .canonical import opal_hash, scale_fix_object
    from .reducibility import PiecewisePsi, probe_gate, probe_score, probe_shift

    lines, dpo = [], None
    for title, method, params, delta_phi in (
        ("DPO fixed reference", "DPO", {"beta": 1.0, "ref": 0.10}, {}),
        ("RRHF rank penalties", "RRHF",
         {"beta": 1.0, "penalties": {"rank_margin_1": 0.50, "rank_margin_2": 0.10}},
         {"rank_margin_1": 0.20, "rank_margin_2": -0.10}),
        ("DPO alternate reference", "DPO", {"beta": 1.0, "ref": 0.15}, {}),
        ("RRHF folded penalties", "RRHF",
         {"beta": 1.0, "penalties": {"rank_margin_1": 0.4, "rank_margin_2": 0.2}},
         {"rank_margin_1": 0.10, "rank_margin_2": -0.05}),
    ):
        obj = to_gkpo(MethodConfig(method, params))
        dpo = dpo or obj  # the first row
        sample = PairSample(prompt_id="demo", delta_u=0.50, delta_phi=delta_phi)
        lines.append(f"{title}: margin {object_margin(obj, sample):.2f}, "
                     f"opal_hash {opal_hash(obj)}")

    shift = probe_shift([(0.20, 0.50), (0.20, -0.50)])
    m1, m2 = shift.witness.margins
    lines.append(
        f"SHIFT witness: margins {m1:.2f} / {m2:.2f} "
        f"(raw gap 0.20, offsets +0.50/-0.50), feasible {shift.feasible}"
    )

    gate = probe_gate([(1.0, 10.0, 1.0), (0.0, 1.0, 1.0)])
    l1, l2 = gate.witness.forced_coefficients
    lines.append(
        f"GATE forced: lambda1 {l1:g}, lambda2 {l2:g}, feasible {gate.feasible}"
    )

    score = probe_score(0.40, -0.80, PiecewisePsi(2.0, 0.5))
    lines.append(
        f"SCORE orders: margins {score.order_weight_first:.2f} / "
        f"{score.order_penalty_first:.2f}, flipped {score.flipped}"
    )

    def fixed_dpo(constant, beta):  # the first DPO row with a constant weight
        return GkpoObject(weight=WeightSpec(form="constant", constant=constant),
                          reference=dpo.reference, beta=beta, provenance=dpo.provenance)

    probe = [PairSample(prompt_id=f"probe{i}", delta_u=2.0) for i in (1, 2)]
    fixed, c = scale_fix_object(fixed_dpo(0.5, 1.0), probe)
    twin = fixed_dpo(1.0, 0.5)
    lines.append(
        f"SCALE fix: c {c:g}, weight 0.5 -> {fixed.weight.constant:g}, "
        f"beta multiplier {c:g}, "
        f"hash equals pre-scaled twin {opal_hash(fixed) == opal_hash(twin)}"
    )
    return "\n".join(lines), None


def cmd_harness(args) -> _Result:
    from . import harness  # numpy; the document commands never load it

    try:
        config = _read_json(args.config) if args.config else {}
        run, specs, data, hp = harness.setup(args.which, config)
        if args.out:  # before training, so an unusable path fails fast
            os.makedirs(args.out, exist_ok=True)
    except (ValueError, TypeError) as exc:
        raise _UsageError(f"bad harness config: {exc}") from exc
    except OSError as exc:  # _read_json turns its own into a usage error
        raise _UsageError(f"cannot write reports to {args.out}: {exc}") from exc
    report = run(*specs, data, hp)
    payload = report.to_json_dict()
    if args.out:
        stem = os.path.join(args.out, f"{args.which}_report")
        # a report that stdout would refuse as JSON (NaN) writes no files either
        text = json.dumps(payload, indent=2, allow_nan=False)
        try:
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            with open(stem + ".txt", "w", encoding="utf-8") as fh:
                fh.write(report.to_text() + "\n")
        except OSError as exc:
            return payload, _UsageError(f"cannot write reports to {args.out}: {exc}")
    return payload, None


def cmd_diff(args) -> _Result:
    from .canonical import diff

    a = _load_object(args.path_a)
    b = _load_object(args.path_b)
    # a nonempty delta is an answer, not an error
    return [{"path": p, "a": va, "b": vb} for p, va, vb in diff(a, b)], None


# ---------------------------------------------------------------------------
# Wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="gkpo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--pretty", action="store_true", help="indent JSON output")
        return p

    p = add("validate", cmd_validate, help="check a GKPO file, print violations")
    p.add_argument("path")

    for name, fn in (("canonicalize", cmd_canonicalize), ("hash", cmd_hash)):
        p = add(name, fn, help=f"{name} a GKPO file")
        p.add_argument("path")
        p.add_argument("--probe", help="JSONL probe samples for --scale-fix")
        p.add_argument("--scale-fix", action="store_true", dest="scale_fix")
        if name == "hash":
            p.add_argument(
                "--emit-canonical", action="store_true", dest="emit_canonical"
            )

    p = add("convert", cmd_convert, help="convert between GKPO and method configs")
    p.add_argument("path")
    p.add_argument("--to", choices=sorted(METHODS) + ["gkpo"])
    p.add_argument("--probe", help="JSONL probe samples for weight absorption")

    p = add("probe", cmd_probe, help="run a reducibility probe")
    p.add_argument("kind", choices=["shift", "gate", "score"])
    p.add_argument("values", nargs="*")
    p.add_argument("--file", help="JSON file with probe inputs")
    # argparse reads "-1e-05" or "-1,2,3" as an unknown option; here any token
    # that starts like a negative number is a value
    p._negative_number_matcher = re.compile(r"^-\.?\d")

    add("demo", cmd_demo, help="print the worked examples with margins and hashes")

    p = add("harness", cmd_harness, help="run a training comparison")
    p.add_argument("which", choices=["h1", "h2"])
    p.add_argument("--config", help="JSON file with data and training overrides")
    p.add_argument("--out", help="directory for report files")

    p = add("diff", cmd_diff, help="field-level delta between canonical forms")
    p.add_argument("path_a")
    p.add_argument("path_b")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            if args.command != "probe":
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            # argparse fills a positional list from one run of tokens; the
            # values after an interleaved option such as --pretty are extras
            args.values += extras
        output, failure = args.fn(args)
        if not isinstance(output, str):  # strict JSON: NaN or infinity is a ValueError
            layout: dict[str, Any] = {"indent": 2} if args.pretty else {"separators": (",", ":")}
            output = json.dumps(output, ensure_ascii=False, allow_nan=False, **layout)
        print(output)
        if failure is None:
            return EXIT_OK
        raise failure
    except _UsageError as exc:
        code, message = EXIT_USAGE, str(exc)
    # ValueError covers ParseError and a non-finite result; TypeError is a
    # wrong-typed config value, OverflowError an int beyond float range
    except (_Failure, ValueError, TypeError, OverflowError) as exc:
        code, message = EXIT_FAILURE, str(exc)
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
