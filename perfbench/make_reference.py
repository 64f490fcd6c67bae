"""Record the correctness reference that every benchmark run checks against.

    python3 perfbench/make_reference.py

Run from the root of a source checkout whose outputs are known good.  Writes
``perfbench/reference/``: the four sweep CSVs exactly as ``duomech.cli``
emits them (gzip), xi_l for each bisect temperature, and the oracle's
verdict and max |z| at ``REFERENCE_SEED``.  Refuses to write a reference
that itself contains a failed operation.  Re-recording the reference is a
change to the benchmark and belongs in a change of its own.
"""

from __future__ import annotations

import gzip
import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import run  # noqa: E402
import workloads  # noqa: E402

REFERENCE_SEED = 7


def main() -> int:
    out = workloads.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    commit = run.environment()["git_commit"]
    with workloads.scratch_dir() as scratch:
        sweep = workloads.SweepWorkload(REFERENCE_SEED, scratch).run_pass()
        bisect = workloads.BisectWorkload(REFERENCE_SEED, scratch).run_pass()
        oracle = workloads.OracleWorkload(REFERENCE_SEED, scratch).run_pass()

    for label, data in sweep.outputs.items():
        _, header, rows = workloads._split_csv(data)
        measures = [header.index(c) for c in workloads.MEASURE_COLUMNS]
        bad = [r for r in rows if r[-1] != "true" or any(r[i] == "" for i in measures)]
        if not rows or bad:
            print(f"refusing: sweep {label} has {len(bad)} failed rows", file=sys.stderr)
            return 1
    xi_l = bisect.outputs["xi_l"]
    if not all(isinstance(v, float) for v in xi_l.values()):
        print(f"refusing: failed searches {xi_l}", file=sys.stderr)
        return 1
    if not oracle.outputs["passed"]:
        print(f"refusing: oracle FAIL at seed {REFERENCE_SEED}", file=sys.stderr)
        return 1

    for label, data in sweep.outputs.items():
        with open(out / f"sweep-{label}.csv.gz", "wb") as fh:
            with gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0) as gz:
                gz.write(data)
    (out / "bisect.json").write_text(json.dumps({
        "recorded_at": commit,
        "bracket": list(workloads.BISECT_BRACKET),
        "xi_l": {f"{t:.2f}": xi_l[t] for t in sorted(xi_l)},
    }, indent=1) + "\n", encoding="utf-8")
    (out / "oracle.json").write_text(json.dumps({
        "recorded_at": commit,
        "seed": REFERENCE_SEED,
        **{k: oracle.outputs[k] for k in ("passed", "max_abs_z", "n_unique_above_3se", "steps")},
    }, indent=1) + "\n", encoding="utf-8")
    print(f"wrote reference for {commit} to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
