"""Seeded inputs, operations and correctness checks for each workload.

Every workload turns `--seed` into its inputs during set-up and never passes
the seed itself to the program. `run(item)` is one timed operation as a user
performs it (in process, or the CLI as a subprocess); `run_in_process(item)`
is the same operation inside this process, where the traced run can see the
layer calls; `check(item, out, tally)` compares the outputs with references
that do not come from the code under test.

Nothing here imports gkpo at module level, so the set-up time of a workload
includes importing the modules its path needs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# golden hashes pinned in tests/test_canonical.py for these fixtures
GOLDEN = {
    "dpo_fixed_reference.json": "ae5096d471e85521aa59d691e7b804212ebd296845749787ca703343724aa39f",
    "rrhf_rank_penalties.json": "4a4d74c5e86219356d172bd26a79d8c5cf9f9208f78e7ba642e897aac80f9805",
    "rrhf_rank_penalties_reordered.json": "4a4d74c5e86219356d172bd26a79d8c5cf9f9208f78e7ba642e897aac80f9805",
}

# Documents the README declares invalid but the code accepts (ROADMAP item 3).
# A wrong verdict on one of these is counted under its name, not as a failure;
# once the code is fixed the verdict matches and the count drops to 0.
KNOWN_DEFECTS = {
    "inside_R_false_without_reasons": "validate accepts inside_R=false with empty reasons",
    "undeclared_reference_shift": "validate accepts a per_prompt reference declared inside_R",
}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    known_defects: Counter = field(default_factory=Counter)
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)


def cli_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    maxrss_kb: int


def run_cli(argv: list[str], root: Path, work: Path) -> CliResult:
    """One cold `python -m gkpo.cli ...` process; its own peak RSS via wait4."""
    out_path, err_path = work / "cli.out", work / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "gkpo.cli", *argv],
            stdout=out,
            stderr=err,
            stdin=subprocess.DEVNULL,
            cwd=root,
            env=cli_env(root),
        )
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(
        proc.returncode,
        out_path.read_text(encoding="utf-8"),
        err_path.read_text(encoding="utf-8"),
        usage.ru_maxrss,
    )


def _stderr_is_one_json_line(text: str) -> bool:
    lines = text.splitlines()
    if len(lines) != 1:
        return False
    try:
        return isinstance(json.loads(lines[0]), dict)
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Document corpus


_PENALTY_NAMES = tuple(f"pen_{c}{i}" for c in "abcdef" for i in range(6))
_FACTORS = ("clip_snr", "var_floor", "conf_gate", "trust_band", "len_norm")
_LINKS = ("identity", "logistic", "tanh", "hinge")
_LOSSES = ("logistic", "bce", "hinge", "mse")
_METHODS = ("DPO", "PPO_RM", "RRHF", "ORPO", "KTO_GRPO", "custom")
_REASON_CODES = ("reference_shift", "non_additive_gate", "score_dependent_weight")

# Corpus composition per unit of scale. Fixed counts keep the mix identical
# across seeds, so only the content varies. Inside:outside is the 80:20 split
# of the fuzzer in tests/conftest.py. The other counts are a choice, as the
# package has no recorded traffic to copy. 16% of the originals get a twin of
# each kind. Parse errors, rule violations and configs are 8%, 8% and 12.5% of
# the corpus, so that at scale 20 each of their variants occurs 9 to 13 times.
# Every untraced run reports each kind's share of the operation time.
COMPOSITION = {
    "inside": 20,
    "outside": 5,
    "reordered": 4,
    "perturbed": 4,
    "parse_error": 4,
    "rule_violation": 4,
    "known_defect": 1,
    "config": 6,
}


def _grid(rng: random.Random, lo: float, hi: float) -> float:
    # an integer count of 1e-6 steps keeps values on the canonical grid
    return rng.randint(round(lo * 1e6), round(hi * 1e6)) / 1e6


def _pos(rng: random.Random, hi: float = 4.0) -> float:
    return rng.randint(1, round(hi * 1e6)) / 1e6


@dataclass
class Doc:
    kind: str
    text: str
    expect: str  # "valid", "parse_error" or "invalid"
    index: int = -1
    penalties: int = 0  # penalty entries of the generated document or config
    defect: str | None = None
    outside: bool = False
    twin_of: int | None = None  # index of the original for twins
    golden: str | None = None
    probe: list | None = None  # PairSamples
    probe_jsonl: str | None = None
    scale_fix: bool = False
    config: str | None = None  # "roundtrip", "blocked" or "folded"
    folded_ref: float | None = None


def _base_doc(rng: random.Random, n_penalties: int) -> dict:
    if rng.random() < 0.5:
        weight = {"form": "constant", "constant": _pos(rng)}
    else:
        weight = {"form": "product", "factors": rng.sample(_FACTORS, rng.randint(1, 3))}
    form = rng.choice(("fixed_zero", "fixed_scalar", "per_dataset"))
    reference: dict[str, Any] = {"form": form}
    if form == "fixed_zero":
        reference["value"] = 0.0
    elif form == "fixed_scalar":
        reference["value"] = _grid(rng, -2, 2)
    penalties = []
    for name in rng.sample(_PENALTY_NAMES, n_penalties):
        entry: dict[str, Any] = {"name": name, "lambda": _grid(rng, -4, 4)}
        if rng.random() < 0.2:
            entry["meta"] = {"gate": False}
        penalties.append(entry)
    ops: dict[str, Any] = {"composition": rng.choice(("dataset_then_policy", "policy_then_dataset"))}
    if penalties and rng.random() < 0.3:
        ops["group_penalties"] = [p["name"] for p in penalties[: rng.randint(1, len(penalties))]]
    return {
        "version": "gkpo-1.0",
        "score": {"type": "logpi"},
        "weight": weight,
        "reference": reference,
        "link": rng.choice(_LINKS),
        "loss": rng.choice(_LOSSES),
        "beta": _pos(rng),
        "penalties": penalties,
        "dataset_ops": ops,
        "provenance": {
            "method": rng.choice(_METHODS),
            "citations": [f"cite{rng.randint(2017, 2025)}{c}" for c in rng.sample("abcdefgh", rng.randint(0, 4))],
            "notes": rng.choice(("", "generated", "synthetic case", "ünïcode nötes")),
        },
        "reducibility": {"inside_R": True, "reasons": [], "witness": {}},
    }


# Penalty counts. Nineteen documents in twenty take 0 to 4 penalties, the
# range the fuzzer in tests/conftest.py draws from (every fixture has 2 or
# fewer). Every twentieth document belongs to a tail of 8 to 30 penalties:
# 5% is above the 1% that op_p99_ms looks at, so p99 measures the large
# documents, while the fuzzer's sizes keep most of the time. Both lists are
# cycled, so every corpus has the same size mix.
_SMALL_PENALTIES = (0, 1, 2, 3, 4)
_LARGE_PENALTIES = (8, 12, 16, 24, 30)
LARGE_EVERY = 20
LARGE_MIN = _LARGE_PENALTIES[0]


def _penalty_counts():
    small, large = itertools.cycle(_SMALL_PENALTIES), itertools.cycle(_LARGE_PENALTIES)
    for k in itertools.count(1):
        yield next(large) if k % LARGE_EVERY == 0 else next(small)


def _make_outside(rng: random.Random, doc: dict) -> dict:
    reasons = rng.sample(_REASON_CODES, rng.choice((1, 1, 1, 2)))
    witness: dict[str, Any] = {}
    if "reference_shift" in reasons:
        gap = _grid(rng, 0.01, 1)
        doc["reference"] = {"form": "per_prompt"}
        witness.update(
            raw_gap=gap,
            delta_ref_prompt1=gap + _grid(rng, 0.01, 1),
            delta_ref_prompt2=gap - _grid(rng, 0.01, 1),
        )
    if "non_additive_gate" in reasons:
        taken = {p["name"] for p in doc["penalties"]}
        name = rng.choice([n for n in _PENALTY_NAMES if n not in taken])
        doc["penalties"].append({"name": name, "lambda": _pos(rng), "meta": {"gate": True}})
        witness.update(phi_pairs=[_grid(rng, 0, 10) for _ in range(4)], phi_value_equal=_pos(rng))
    if "score_dependent_weight" in reasons:
        doc["weight"] = {"form": "score_dependent", "score_fn": rng.choice(("sigmoid_clip", "step_psi"))}
        witness.update(
            delta_u=_grid(rng, 0, 1), penalty_shift=_grid(rng, -1, 0), psi_neg=_pos(rng), psi_pos=_pos(rng)
        )
    doc["reducibility"] = {"inside_R": False, "reasons": reasons, "witness": witness}
    return doc


def _reordered(rng: random.Random, value: Any, key: str = "") -> Any:
    """Same content: keys shuffled everywhere, order-free lists shuffled."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {k: _reordered(rng, value[k], k) for k in keys}
    if isinstance(value, list):
        items = [_reordered(rng, v) for v in value]
        if key in ("penalties", "factors", "citations", "reasons", "group_penalties"):
            rng.shuffle(items)
        return items
    return value


def _perturbed(rng: random.Random, doc: dict) -> dict:
    """A copy whose hashed content differs by one value (well above the grid)."""
    doc = json.loads(json.dumps(doc))
    choices = ["beta", "notes"]
    if doc["penalties"]:
        choices.append("lambda")
    if doc["weight"].get("form") == "constant":
        choices.append("constant")
    pick = rng.choice(choices)
    if pick == "beta":
        doc["beta"] = round(doc["beta"] + 0.001, 6)
    elif pick == "notes":
        doc["provenance"]["notes"] += " (edited)"
    elif pick == "lambda":
        doc["penalties"][0]["lambda"] = round(doc["penalties"][0]["lambda"] + 0.001, 6)
    else:
        doc["weight"]["constant"] = round(doc["weight"]["constant"] + 0.001, 6)
    return doc


def _parse_error_text(rng: random.Random, doc: dict, kind: int) -> str:
    doc = json.loads(json.dumps(doc))
    if kind == 0:
        text = json.dumps(doc)
        return text[: rng.randint(1, len(text) - 2)]  # truncated
    if kind == 1:
        return json.dumps(doc).replace(f'"beta": {json.dumps(doc["beta"])}', '"beta": NaN', 1)
    if kind == 2:
        text = json.dumps(doc)
        return text[:-1] + ', "beta": 1.0}'  # duplicate key
    if kind == 3:
        doc["extra_field"] = 1
    elif kind == 4:
        doc["provenance"]["notes"] = None
    elif kind == 5:
        doc["beta"] = True
    elif kind == 6:
        del doc[rng.choice(("dataset_ops", "reducibility", "score", "link"))]
    else:
        doc["reducibility"] = {"inside_R": False, "reasons": ["made_up_reason"], "witness": {}}
    return json.dumps(doc)


def _rule_violation(rng: random.Random, doc: dict, kind: int) -> dict:
    if kind == 0:
        doc["beta"] = -doc["beta"]
    elif kind == 1:
        doc["weight"] = {"form": "constant", "constant": 0.0}
    elif kind == 2:
        doc["weight"] = {"form": "product", "factors": []}
    elif kind == 3:
        doc["reference"] = {"form": "fixed_zero", "value": _pos(rng)}
    elif kind == 4:
        doc["reference"] = {"form": "per_dataset", "value": _grid(rng, -1, 1)}
    elif kind == 5:
        doc["penalties"] = doc["penalties"][:1] * 2 or [{"name": "dup", "lambda": 1.0}] * 2
    elif kind == 6:
        doc["reducibility"] = {"inside_R": True, "reasons": ["reference_shift"], "witness": {}}
    elif kind == 7:
        doc["provenance"]["opal_hash"] = "NOT-A-HASH"
    else:
        doc["penalties"] = [{"name": "9 bad name", "lambda": 1.0}]
    return doc


def _known_defect(doc: dict, kind: int) -> tuple[dict, str]:
    if kind == 0:
        doc["reducibility"] = {"inside_R": False, "reasons": [], "witness": {}}
        return doc, "inside_R_false_without_reasons"
    doc["reference"] = {"form": "per_prompt"}
    return doc, "undeclared_reference_shift"


def _config(rng: random.Random, pick: int) -> tuple[dict, str, float | None]:
    beta = _pos(rng, 3)
    if pick == 0:
        return {"method": "DPO", "beta": beta, "ref": _grid(rng, -1, 1)}, "roundtrip", None
    if pick == 1:
        pens = {n: _grid(rng, -2, 2) for n in rng.sample(_PENALTY_NAMES, rng.randint(1, 6))}
        return {"method": "DPO", "beta": beta, "ref": _grid(rng, -1, 1), "score_penalties": pens}, "roundtrip", None
    if pick == 2:
        pens = {n: _grid(rng, -2, 2) for n in rng.sample(_PENALTY_NAMES, rng.randint(0, 8))}
        return {"method": "RRHF", "beta": beta, "penalties": pens, "ref": _grid(rng, -1, 1)}, "roundtrip", None
    if pick == 3:
        return {"method": "PPO_RM", "beta": beta, "ref": _grid(rng, -1, 1), "kl_coeff": _pos(rng, 1)}, "roundtrip", None
    if pick == 4:
        ref, kl, anchor = _grid(rng, -1, 1), _pos(rng, 1), _grid(rng, -1, 1)
        cfg = {"method": "PPO_RM", "beta": beta, "ref": ref, "kl_coeff": kl, "anchor_offset": anchor, "fold_kl": True}
        return cfg, "folded", ref + kl * anchor
    if pick == 5:
        return {"method": "ORPO", "beta": beta, "offset_mode": "fixed", "offset": _grid(rng, -1, 1)}, "roundtrip", None
    if pick == 6:
        gap = _grid(rng, 0.01, 1)
        offsets = [gap + _grid(rng, 0.01, 1), gap - _grid(rng, 0.01, 1)]
        cfg = {"method": "ORPO", "beta": beta, "offset_mode": "per_prompt",
               "shift_evidence": {"raw_gap": gap, "offsets": offsets}}
        return cfg, "blocked", None
    if pick == 7:
        cfg = {"method": "KTO_GRPO", "beta": beta, "ref": _grid(rng, -1, 1), "weight_mode": "product",
               "factors": rng.sample(_FACTORS, rng.randint(1, 3))}
        return cfg, "roundtrip", None
    cfg = {"method": "KTO_GRPO", "beta": beta, "ref": _grid(rng, -1, 1), "weight_mode": "score_dependent",
           "score_fn": "sigmoid_clip"}
    return cfg, "blocked", None


def _probe(rng: random.Random, doc: dict, PairSample) -> tuple[list, str]:
    """Probe samples covering the document's penalties and weight factors."""
    names = [p["name"] for p in doc["penalties"]]
    factors = doc["weight"].get("factors", [])
    constant_product = rng.random() < 0.5  # absorbable product weight
    rows = []
    for i in range(rng.randint(3, 9)):
        rows.append(
            {
                "prompt_id": f"q{i}",
                "delta_u": _grid(rng, -2, 2),
                "delta_phi": {n: _grid(rng, -1, 1) for n in names},
                "omega": {f: 1.5 if constant_product else _pos(rng, 2) for f in factors},
                "delta_ref": {},
            }
        )
    samples = [PairSample(**row) for row in rows]
    return samples, "".join(json.dumps(r) + "\n" for r in rows)


def make_corpus(seed: int, scale: int, fixtures: Path) -> list[Doc]:
    from gkpo.algebra import PairSample

    rng = random.Random(seed)
    sizes = _penalty_counts()
    blocks: list[list[Doc]] = []
    valid_docs: list[tuple[dict, bool]] = []

    def base() -> tuple[dict, int]:
        n = next(sizes)
        return _base_doc(rng, n), n

    def add_valid(doc: dict, n: int, outside: bool, probe: bool, scale_fix: bool) -> None:
        entry = Doc("outside" if outside else "inside", json.dumps(doc), "valid", penalties=n, outside=outside)
        if probe:
            entry.probe, entry.probe_jsonl = _probe(rng, doc, PairSample)
            entry.scale_fix = scale_fix
        blocks.append([entry])
        valid_docs.append((doc, outside))

    # inside documents alternate constant and product weights; every product
    # weight carries an absorption probe and every fourth constant weight a
    # scale-fix probe
    for k in range(COMPOSITION["inside"] * scale):
        doc, n = base()
        if k % 2 == 0:
            doc["weight"] = {"form": "constant", "constant": _pos(rng)}
        else:
            doc["weight"] = {"form": "product", "factors": rng.sample(_FACTORS, rng.randint(1, 3))}
        add_valid(doc, n, False, probe=k % 2 == 1 or k % 8 == 0, scale_fix=k % 8 == 0)
    for _ in range(COMPOSITION["outside"] * scale):
        doc, n = base()
        add_valid(_make_outside(rng, doc), n, True, False, False)

    picks = rng.sample(range(len(blocks)), (COMPOSITION["reordered"] + COMPOSITION["perturbed"]) * scale)
    for j, b in enumerate(picks):
        doc, outside = valid_docs[b]
        if j < COMPOSITION["reordered"] * scale:
            twin = Doc("reordered", json.dumps(_reordered(rng, doc), indent=rng.choice((None, 2))), "valid")
        else:
            twin = Doc("perturbed", json.dumps(_perturbed(rng, doc)), "valid")
        twin.outside, twin.penalties = outside, blocks[b][0].penalties
        blocks[b].append(twin)

    # invalid documents and configs cycle through their variants in order
    for k in range(COMPOSITION["parse_error"] * scale):
        doc, n = base()
        blocks.append([Doc("parse_error", _parse_error_text(rng, doc, k % 8), "parse_error", penalties=n)])
    for k in range(COMPOSITION["rule_violation"] * scale):
        doc, n = base()
        doc = _rule_violation(rng, doc, k % 9)
        blocks.append([Doc("rule_violation", json.dumps(doc), "invalid", penalties=n)])
    for k in range(COMPOSITION["known_defect"] * scale):
        doc, n = base()
        doc, defect = _known_defect(doc, k % 2)
        blocks.append([Doc("known_defect", json.dumps(doc), "invalid", penalties=n, defect=defect)])
    for k in range(COMPOSITION["config"] * scale):
        cfg, expect, folded = _config(rng, k % 9)
        n = len(cfg.get("penalties") or cfg.get("score_penalties") or ())
        blocks.append([Doc("config", json.dumps(cfg), "valid", penalties=n, config=expect, folded_ref=folded)])
    for name, digest in GOLDEN.items():
        text = (fixtures / name).read_text(encoding="utf-8")
        n = len(json.loads(text)["penalties"])
        blocks.append([Doc("golden", text, "valid", penalties=n, golden=digest)])

    rng.shuffle(blocks)
    corpus = []
    for block in blocks:
        first = len(corpus)
        for k, entry in enumerate(block):
            entry.index = len(corpus)
            if k:
                entry.twin_of = first
            corpus.append(entry)
    return corpus


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    # the speed gauge that scales operation times (run.OP_GAUGES): the one
    # whose task resembles the work that dominates the operation
    op_gauge = "loop"

    def __init__(self, root: Path, work: Path, seed: int, small: bool):
        self.root, self.work, self.seed, self.small = root, work, seed, small
        self.meta: dict[str, Any] = {}
        self.items: list[Any] = []
        self.cli_calls: list[tuple[list[str], Any]] = []  # filled by cli_sample() after set-up
        self.setup()

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, item):
        return self.run_in_process(item)

    def run_in_process(self, item):
        raise NotImplementedError

    def check(self, item, out, tally: Tally) -> None:
        raise NotImplementedError

    # -- the cold CLI sample, shared by every workload ----------------------

    def _cli_corpus(self) -> list[Doc]:
        return make_corpus(self.seed, 1, self.root / "fixtures")

    def cli_sample(self) -> list[tuple[list[str], Any]]:
        """Twelve cold validate / hash / convert invocations over corpus files.

        Each entry is (argv, expected) where expected is what the in-process
        path gives for the same file. Built after set-up has been timed, so
        setup_s covers only the workload's own path."""
        from gkpo import adapters, canonical, schema

        corpus = self._cli_corpus()

        def first(kind: str) -> Doc:
            return next(d for d in corpus if d.kind == kind)

        def write(name: str, text: str) -> str:
            path = self.work / name
            path.write_text(text, encoding="utf-8")
            return str(path)

        inside = [d for d in corpus if d.kind == "inside"]
        outside = first("outside")
        scaled = next(d for d in corpus if d.scale_fix)
        calls: list[tuple[list[str], Any]] = [
            (["validate", write("valid.json", inside[0].text)], ("validate", 0)),
            (["validate", write("outside.json", outside.text)], ("validate", 0)),
            (["validate", write("parse_error.json", first("parse_error").text)], ("validate", 1)),
            (["validate", write("violation.json", first("rule_violation").text)], ("validate", 1)),
        ]
        for k, doc in enumerate(inside[1:4]):
            path = write(f"hash{k}.json", doc.text)
            calls.append((["hash", path], ("hash", canonical.opal_hash(schema.parse(doc.text)))))
        path, probe = write("scaled.json", scaled.text), write("probe.jsonl", scaled.probe_jsonl)
        digest = canonical.opal_hash(schema.parse(scaled.text), probe=scaled.probe)
        calls.append((["hash", path, "--scale-fix", "--probe", probe], ("hash", digest)))
        for name, doc, target in (("valid.json", inside[0], "RRHF"), ("outside.json", outside, "DPO")):
            result = adapters.from_gkpo(schema.parse(doc.text), target)
            calls.append((["convert", str(self.work / name), "--to", target], ("convert", result.outcome)))
        for k, doc in enumerate([d for d in corpus if d.config][:2]):
            raw = json.loads(doc.text)
            obj = adapters.to_gkpo(adapters.MethodConfig(raw.pop("method"), raw))
            path = write(f"config{k}.json", doc.text)
            calls.append((["convert", path, "--to", "gkpo"], ("config", canonical.opal_hash(obj))))
        return calls

    def time_shares(self, times: list[float]) -> dict[str, float]:
        """Share of the operation time per kind of input, for the meta line;
        times[i] is the time of items[i % len(items)]."""
        return {}

    def check_cli(self, expected, res: CliResult, tally: Tally) -> None:
        kind, want = expected
        if res.rc != 0 and not _stderr_is_one_json_line(res.stderr):
            tally.fail(f"cli {kind}: exit {res.rc} without one JSON line on stderr")
            return
        if kind == "validate":
            ok = res.rc == want and json.loads(res.stdout)["valid"] == (want == 0)
        elif kind == "hash":
            ok = res.rc == 0 and json.loads(res.stdout)["opal_hash"] == want
        elif kind == "convert":
            ok = res.rc == (1 if want == "blocked" else 0) and json.loads(res.stdout)["outcome"] == want
        else:
            from gkpo import canonical, schema

            ok = res.rc == 0 and canonical.opal_hash(schema.parse(res.stdout)) == want
        if not ok:
            tally.fail(f"cli {kind}: exit {res.rc}, output {res.stdout[:200]!r}")


class DocsWorkload(Workload):
    """parse -> validate -> canonicalize / opal_hash -> from_gkpo to every
    method, to_gkpo for configs, scale-fixed hashes for probed documents."""

    name = "docs"

    def setup(self) -> None:
        from gkpo import adapters, canonical, schema

        self.schema, self.canonical, self.adapters = schema, canonical, adapters
        self.items = make_corpus(self.seed, 1 if self.small else 20, self.root / "fixtures")
        self.hashes: dict[int, str] = {}
        kinds = Counter(d.kind for d in self.items)
        self.meta = {
            "documents": len(self.items),
            "corpus_bytes": sum(len(d.text.encode("utf-8")) for d in self.items),
            "kinds": dict(sorted(kinds.items())),
        }

    def _cli_corpus(self) -> list[Doc]:
        return self.items

    def time_shares(self, times: list[float]) -> dict[str, float]:
        total = sum(times)
        by_kind: Counter = Counter()
        large = 0.0
        for i, t in enumerate(times):
            doc = self.items[i % len(self.items)]
            by_kind[doc.kind] += t
            if doc.penalties >= LARGE_MIN:
                large += t
        shares = {k: round(v / total, 4) for k, v in sorted(by_kind.items())}
        return {**shares, f"any_kind_over_{LARGE_MIN - 1}_penalties": round(large / total, 4)}

    def run_in_process(self, doc: Doc) -> dict[str, Any]:
        schema, canonical, adapters = self.schema, self.canonical, self.adapters
        if doc.config:
            raw = json.loads(doc.text)
            method = raw.pop("method")
            obj = adapters.to_gkpo(adapters.MethodConfig(method, raw))
            return {
                "verdict": "valid",
                "obj": obj,
                "hash": canonical.opal_hash(obj),
                "back": adapters.from_gkpo(obj, method),
            }
        try:
            obj = schema.parse(doc.text)
        except schema.ParseError:
            return {"verdict": "parse_error"}
        if schema.validate(obj):
            return {"verdict": "invalid"}
        if doc.expect != "valid":
            # the pipeline stops at a document the README calls invalid; the
            # verdict check below reports that the validator let it through
            return {"verdict": "valid"}
        out: dict[str, Any] = {
            "verdict": "valid",
            "obj": obj,
            "hash": canonical.opal_hash(obj),
            "conversions": [adapters.from_gkpo(obj, m, probe=doc.probe) for m in adapters.METHODS],
        }
        if doc.scale_fix:
            out["scaled_hash"] = canonical.opal_hash(obj, probe=doc.probe)
        return out

    def check(self, doc: Doc, out: dict[str, Any], tally: Tally) -> None:
        verdict = out["verdict"]
        if verdict != doc.expect:
            if doc.defect:
                tally.known_defects[doc.defect] += 1
            else:
                tally.fail(f"{doc.kind}: verdict {verdict}, expected {doc.expect}: {doc.text[:120]!r}")
            return
        if verdict != "valid":
            return
        digest = out["hash"]
        if doc.config:
            self._check_config(doc, out, tally)
            return
        if hashlib.sha256(self.canonical.canonicalize(out["obj"])).hexdigest() != digest:
            tally.fail("opal_hash differs from sha256(canonicalize)")
        if doc.golden and digest != doc.golden:
            tally.fail(f"golden fixture hash {digest} != {doc.golden}")
        if doc.outside and not all(r.blocked for r in out["conversions"]):
            tally.fail(f"outside-R document converted: {doc.text[:120]!r}")
        if doc.twin_of is not None:
            original = self.hashes.get(doc.twin_of)
            if original is not None and (original == digest) != (doc.kind == "reordered"):
                tally.fail(f"{doc.kind} twin hash {'differs' if doc.kind == 'reordered' else 'equals'}")
        else:
            self.hashes[doc.index] = digest
        if doc.scale_fix and len(out["scaled_hash"]) != 64:
            tally.fail("scale-fixed hash is not a sha256 digest")

    def _check_config(self, doc: Doc, out: dict[str, Any], tally: Tally) -> None:
        obj, back = out["obj"], out["back"]
        if doc.config == "roundtrip":
            raw = json.loads(doc.text)
            sent = self.adapters.MethodConfig(raw.pop("method"), raw)
            ok = not back.blocked and self.adapters.configs_equal(back.target, sent)
        elif doc.config == "blocked":
            ok = back.blocked
        else:  # PPO_RM with fold_kl emits the DPO object it reduces to
            ok = obj.provenance.method == "DPO" and math.isclose(
                obj.reference.value, doc.folded_ref, rel_tol=0, abs_tol=1e-12
            )
        if not ok:
            tally.fail(f"config {doc.config}: {doc.text[:120]!r}")


class HarnessWorkload(Workload):
    """`gkpo harness h1|h2 --config <generated>` as a user runs it."""

    SIZES = {"h1": (4000, 400), "h2": (50000, 2000)}  # (full, small) pairs

    def __init__(self, which: str, *args):
        self.name = self.which = which
        # h1 is mostly kendall_tau's all-pairs numpy arrays, memory-bound work
        # that a slow stretch slows more than it slows interpreter loops
        self.op_gauge = "pairwise" if which == "h1" else "loop"
        super().__init__(*args)

    def setup(self) -> None:
        # the dataset is generated inside every harness run, so set-up is
        # the import of the CLI path and the config file
        import gkpo.cli  # noqa: F401

        size = self.SIZES[self.which][1 if self.small else 0]
        self.n_seeds = 2
        base = self.seed % 100_000
        config = {"size": size, "data_seed": self.seed, "seeds": [base, base + 1]}
        self.config_path = self.work / f"{self.which}_config.json"
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        self.items = [self.config_path]
        self.meta = {"pairs": size, "seeds": self.n_seeds, "config": config}

    def run(self, path: Path) -> CliResult:
        return run_cli(["harness", self.which, "--config", str(path)], self.root, self.work)

    def run_in_process(self, path: Path) -> CliResult:
        from gkpo import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["harness", self.which, "--config", str(path)])
        return CliResult(rc, buf.getvalue(), "", 0)

    def check(self, item, res: CliResult, tally: Tally) -> None:
        if res.rc != 0:
            tally.fail(f"harness {self.which} exit {res.rc}: {res.stderr[:200]}")
            return
        report = json.loads(res.stdout)
        if len(report["per_seed"]) != self.n_seeds:
            tally.fail(f"{self.which}: {len(report['per_seed'])} seeds reported")
        if self.which == "h1":
            if not (report["all_traces_equal"] is True and report["min_tau"] == 1.0):
                tally.fail(f"h1: traces_equal {report['all_traces_equal']}, min_tau {report['min_tau']}")
        elif not (report["min_flip_agreement"] == 1.0 and report["direction_consistency"] == 1.0):
            tally.fail(
                f"h2: flip agreement {report['min_flip_agreement']}, "
                f"direction consistency {report['direction_consistency']}"
            )


_BINOMTEST = """\
import json, sys
from scipy.stats import binomtest
counts = json.loads(sys.argv[1])
print(json.dumps([binomtest(min(a, b), a + b, 0.5).pvalue for a, b in counts]))
"""


@dataclass
class Comparison:
    wins_a: Any
    wins_b: Any
    n01: int
    n10: int
    seed: int


class StatsWorkload(Workload):
    """McNemar exact test and paired bootstrap CI on win vectors of two
    distinct noisy scorers of the same pairs."""

    name = "stats"
    PAIRS = 8000
    FLIP = 0.35  # each scorer's independent error rate around a shared pattern

    def setup(self) -> None:
        import numpy as np
        from gkpo import engine

        self.engine = engine
        self.reference: dict[tuple[int, int], float] | None = None
        rng = np.random.default_rng(self.seed)
        n = self.PAIRS // (8 if self.small else 1)
        self.items = []
        for k in range(6):
            shared = rng.random(n) < 0.7  # pairs both scorers find easy
            wins_a = shared ^ (rng.random(n) < self.FLIP)
            wins_b = shared ^ (rng.random(n) < self.FLIP)
            self.items.append(
                Comparison(
                    wins_a.astype(float),
                    wins_b.astype(float),
                    int(np.sum(wins_a & ~wins_b)),
                    int(np.sum(~wins_a & wins_b)),
                    seed=self.seed + k,
                )
            )
        self.meta = {
            "comparisons": len(self.items),
            "pairs": n,
            "discordant": [c.n01 + c.n10 for c in self.items],
            "discordant_split": [[c.n01, c.n10] for c in self.items],
        }

    def run_in_process(self, c: Comparison) -> tuple[float, tuple[float, float]]:
        p = self.engine.mcnemar_exact(c.n01, c.n10)
        ci = self.engine.bootstrap_diff_ci(c.wins_a, c.wins_b, resamples=1000, seed=c.seed)
        return p, ci

    def _reference_p(self) -> dict[tuple[int, int], float]:
        """scipy.stats.binomtest p-values, computed in a child process so that
        scipy stays out of this process's memory and set-up time."""
        counts = [(c.n01, c.n10) for c in self.items]
        res = subprocess.run(
            [sys.executable, "-c", _BINOMTEST, json.dumps(counts)],
            capture_output=True, text=True, check=True,
        )
        return dict(zip(counts, json.loads(res.stdout)))

    def check(self, c: Comparison, out, tally: Tally) -> None:
        p, (lo, hi) = out
        if self.reference is None:
            self.reference = self._reference_p()
        want = self.reference[(c.n01, c.n10)]
        if not math.isclose(p, want, rel_tol=1e-6, abs_tol=1e-300):
            tally.fail(f"mcnemar_exact({c.n01}, {c.n10}) = {p}, scipy binomtest {want}")
        diff = float((c.wins_a - c.wins_b).mean())
        if not lo <= diff <= hi:
            tally.fail(f"bootstrap CI [{lo}, {hi}] excludes the observed difference {diff}")


def make(name: str, root: Path, work: Path, seed: int, small: bool) -> Workload:
    if name == "docs":
        return DocsWorkload(root, work, seed, small)
    if name in ("h1", "h2"):
        return HarnessWorkload(name, root, work, seed, small)
    if name == "stats":
        return StatsWorkload(root, work, seed, small)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("docs", "h1", "h2", "stats")
