"""Operator algebra, canonical hashing, and interchange for pairwise
preference objectives.

The package models a pairwise objective as a ladder of primitive operators
(additive penalties, multiplicative weights, reference adjustments) over a
base score gap, collects ladders into normal forms, serializes objectives to
the strict gkpo-1.0 JSON schema with a deterministic content hash, converts
between named method configs and that schema, probes whether an objective
admits a fixed-reference normal form (emitting finite witnesses when it does
not), and validates equivalence/divergence claims with a small training
harness.

Import the submodules directly (gkpo.schema, gkpo.canonical, gkpo.algebra,
gkpo.adapters, gkpo.reducibility, gkpo.engine, gkpo.harness, gkpo.cli). Each
CLI command loads only the modules it runs: `validate` loads gkpo.schema;
`hash`, `canonicalize` and `diff` add gkpo.canonical (and gkpo.algebra with
--scale-fix); `probe` adds gkpo.reducibility; `convert` adds gkpo.algebra,
gkpo.reducibility and gkpo.adapters. Only gkpo.engine and gkpo.harness load
numpy, and only `harness` loads them.
"""

__version__ = "0.1.0"
