"""Shows that the benchmark's output checks reject a known-bad document.

    python3 perfbench/selftest.py

Run it from the root of a source checkout. Without a bootstrap, ``cqr_fit``
reports a zero covariance, so the results documents print every CQR
coefficient with ``se=0.0 p=0.0 stars=***``. This script runs the acceptance
pipeline with ``replications: 0`` on a small panel (60 entities x 6 periods)
and exits 0 only if the checks flag exactly those CQR lines and nothing else.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    if not os.path.isfile(os.path.join(SRC, "cdmpanel", "__init__.py")):
        print(f"error: no cdmpanel sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from cdmpanel import cli

    import checks
    import workloads

    work = os.path.join(HERE, "out", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.pipeline_inputs(os.path.join(work, "inputs"), 60, 6, sectors=False)
    cfg_path = inputs.ops[0].config_path
    with open(cfg_path, encoding="utf-8") as fh:
        config = json.load(fh)
    config["bootstrap"]["replications"] = 0
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=2)
    outdir = os.path.join(work, "out")
    cli.run_pipeline(cfg_path, jobs=1, output_dir=outdir)

    with open(os.path.join(outdir, "results", "cqr__full.txt"), encoding="utf-8") as fh:
        cqr_coefs = [checks.parse_line(line) for line in fh if " record=coef " in line]
    problems = checks.check_pipeline(inputs, outdir)
    flagged_cqr = [p for p in problems if p.startswith("stage=cqr ") and "se=0.0 p=0.0 stars=***" in p]
    for p in problems:
        print(f"flagged: {p}")
    ok = bool(cqr_coefs) and len(flagged_cqr) == len(cqr_coefs) == len(problems)
    print(f"{len(problems)} problems flagged; {len(cqr_coefs)} CQR coefficient lines; "
          f"self-test {'passed' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
