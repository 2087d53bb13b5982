"""Record perfbench/reference.json: the outputs every benchmark run must match.

    python3 perfbench/record_reference.py

Runs each workload and its tiny twin once and stores, per command, the
values ``workloads.observed`` extracts. Record only at a commit whose
outputs are known right; the benchmark then holds every later commit to
them.
"""

import json
import os
import shutil
import sys
import tempfile
import time

import run
import workloads


def main():
    os.makedirs(run.TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="record-", dir=run.TMP_ROOT)
    reference = {}
    try:
        for tiny in (True, False):
            for name in workloads.WORKLOADS:
                out = os.path.join(tmp, "out")
                argv_list = workloads.commands(name, tiny, out)
                spec = {"src": run.SRC, "commands": argv_list, "trace": False,
                        "env": False}
                result, _ = run.spawn(spec, tmp, time.monotonic() + 600)
                codes = [c["code"] for c in result["calls"]] if result else None
                if codes != [0] * len(argv_list):
                    print(f"{name}: commands failed ({codes})", file=sys.stderr)
                    return 1
                reference[workloads.reference_key(name, tiny)] = [
                    workloads.observed(argv) for argv in argv_list]
                shutil.rmtree(out)
                print(f"recorded {workloads.reference_key(name, tiny)}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(run.TMP_ROOT)
        except OSError:
            pass
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
