"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload dense_pipeline --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports iakrec from `src/`
there and exits 2 when that is missing. Scratch files go to `.bench_out/`
and are removed at the end, except the span file of a traced run. The last
stdout line is `{"correct", "attempted", "failed", "metrics"}`: end-to-end
metrics with `--trace 0`, per-layer metrics with `--trace 1`. The line before
it stamps the environment, the config digest and the output digests. Exits 1
when an output check fails.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# pin BLAS before numpy loads; the box has 2 cores and the bench uses one
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    from perfbench.session import WORKLOADS, run

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the serving phases")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    out = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT)
    info = out["info"]
    tracer = info.pop("spans", None)
    if tracer is not None:
        path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        info["spans_file"] = str(path.relative_to(ROOT))
    for problem in info["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    src = ROOT / "src"
    if not (src / "iakrec" / "__init__.py").is_file():
        print(f"perfbench: no iakrec sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(ROOT)]
    sys.exit(main())
