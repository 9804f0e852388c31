"""Reference figures: run the benchmark on several seeds and print, per
metric, the median and quartiles of the per-run values as a markdown table.

    python3 perfbench/figures.py --workload exact --seeds 1-10 --seconds 20 --trace 0
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    runs = []
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=os.path.dirname(HERE), capture_output=True, text=True, check=True,
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(f"{args.workload}, seeds {args.seeds}, --seconds {args.seconds} --trace {args.trace}: "
          f"correct {all(r['correct'] for r in runs)}, attempted "
          f"{[r['attempted'] for r in runs]}, failed {[r['failed'] for r in runs]}")
    print("\n| metric | unit | median | q1 | q3 | (q3 - q1) / median |\n|---|---|---|---|---|---|")
    for name, first_value in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = f"{(q3 - q1) / med:.3f}" if med else "-"
        print(f"| `{name}` | {first_value['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
