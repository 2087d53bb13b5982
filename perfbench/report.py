"""Print every workload x metric: one untraced and one traced run of each.

    python3 perfbench/report.py [--seed N] [--seconds S] [--tiny]

Each run's own report (quartiles, sample counts, environment, output
check) is echoed, then one table of every end-to-end and per-layer
metric with its unit, plus fail_frac. Exits non-zero if any run fails or
reports incorrect output.
"""

import argparse
import json
import os
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = subprocess.run(cmd, cwd=os.path.dirname(HERE), stdout=subprocess.PIPE,
                                  text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: run failed ({proc.returncode})")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            if trace == 0:
                rows.append((name, "fail_frac", result["failed"] / result["attempted"],
                             "ratio"))
            rows += [(name, metric, m["value"], m["unit"])
                     for metric, m in result["metrics"].items()]
    print(f"\n{'workload':26s} {'metric':34s} {'value':>14s}  unit")
    for name, metric, value, unit in rows:
        print(f"{name:26s} {metric:34s} {value:14.6g}  {unit}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
