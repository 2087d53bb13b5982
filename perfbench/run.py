"""delayframe benchmark: one workload, measured for a set time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The package is imported from ``src/``. Each
iteration is a fresh ``perfbench/worker.py`` process that runs the
workload's CLI commands (see workloads.py) into its own temporary output
directory under ``.perfbench_tmp/``, which is removed afterwards.
Iterations repeat while the next one should end within ``--seconds``,
and there are at least two, so every run also checks that reruns write
byte-identical artifacts.

Every command's output is compared with ``reference.json``, recorded at
the commit that defined the benchmark: digests exactly, numbers to 1e-9
relative. A command that exits non-zero or fails the check counts as
failed.

With ``--trace 0`` the result carries the end-to-end metrics: the
lowest wall time and CPU time of the ``cli.main`` calls over the run's
iterations (see TIMING_PICK), the median peak RSS of the worker, and the
median set-up time (process start to ``import delayframe.cli`` done,
from separate start-up probes and every worker). With ``--trace 1``
iterations alternate untraced and traced, and the result carries the
per-layer metrics of the fastest traced iteration (see spans.py) plus
the tracing overhead. The seed is recorded only: the inputs are the
package's fixed presets. The last line of stdout is the JSON result;
the lines above it are a readable report with quartiles, sample counts
and the environment (nproc, Python, numpy, scipy, BLAS and its threads).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import spans
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
REFERENCE = os.path.join(HERE, "reference.json")
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

SETUP_PROBES = 5
MIN_ITERATIONS = 2
# The run must end within 180 s; no iteration starts that would end later.
RUN_LIMIT_S = 160.0

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# The statistic each end-to-end metric reports over the run's samples.
# A shared host can slow the whole machine by half for seconds to
# minutes at a time, and that only ever adds time; the fastest iteration
# is the one least disturbed, so the run's timings take the minimum, as
# timeit does (README.md has the measured spreads).
# Peak RSS does not drift, and set-up time is the median of many starts.
TIMING_PICK = {"wall_s": "min", "cpu_s": "min", "peak_rss_mb": "median",
               "setup_s": "median"}

# Per-layer metrics in the JSON result. embedding.split_shift_s,
# cli.format_series_csv_s and cli.load_series_csv_s are printed in the
# report only: each is exactly zero on the workloads that never call it.
PER_LAYER = (
    "traced_wall_s", "untraced_remainder_s", "trace_overhead_s",
    *(f"{layer}.self_s" for layer in spans.LAYERS),
    "linalg.thin_svd_s", "linalg.thin_svd_calls", "linalg.thin_svd_bytes_in",
    "linalg.triplets_kept_ratio", "linalg.pseudo_inverse_s", "linalg.eigen_s",
    "embedding.build_hankel_s", "embedding.center_hankel_s", "embedding.bytes_out",
    "models.fit_self_s", "models.reconstruct_s", "models.reconstruct_steps",
    "models.forcing_signal_s",
    "systems.simulate_s", "systems.steps",
    "cli.run_pipeline_self_s", "cli.write_s", "cli.bytes_built",
    "cli.bytes_written", "cli.artifact_yield",
    "diagnostics.structure_report_s", "geometry.curvatures_from_model_s",
)


class SetupError(Exception):
    """The benchmark cannot run in this directory; no result is printed."""


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(("_calls", "steps")):
        return "count"
    return "ratio"


def quartiles(values):
    """(q1, median, q3) of the values, inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spawn(spec, tmp, deadline):
    """Run one worker; (result or None, setup seconds or None)."""
    work = tempfile.mkdtemp(prefix="worker-", dir=tmp)
    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        started = time.monotonic()
        # The CLI's own output goes to stderr: stdout carries the result.
        proc = subprocess.Popen([sys.executable, WORKER, spec_path, result_path],
                                cwd=ROOT, stdout=sys.stderr)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"worker timed out: {spec['commands']}", file=sys.stderr)
            return None, None
        if code == worker.SETUP_FAILED:
            raise SetupError("the worker could not set up (see its message above)")
        if code != 0:
            print(f"worker exited {code}: {spec['commands']}", file=sys.stderr)
            return None, None
        with open(result_path, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        return result, result["imported"] - started
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Run:
    """Accumulates the iterations of one benchmark run."""

    def __init__(self, workload, tiny, reference, tmp):
        self.workload = workload
        self.tiny = tiny
        self.reference = reference
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.first_digests = None
        self.reruns_compared = 0
        self.deviation = 0.0
        self.identical = True
        self.setup = []
        self.records = []  # one per completed iteration, in order

    def iterate(self, traced, deadline):
        # One path for every iteration: artifacts echo their input path.
        out = os.path.join(self.tmp, "out")
        try:
            argv_list = workloads.commands(self.workload, self.tiny, out)
            spec = {"src": SRC, "commands": argv_list, "trace": traced, "env": False}
            self.attempted += len(argv_list)
            result, setup = spawn(spec, self.tmp, deadline)
            if result is None:
                self.failed += len(argv_list)
                return
            self.setup.append(setup)
            self._check(argv_list, result)
            wall = sum(c["wall_s"] for c in result["calls"])
            record = {
                "traced": traced,
                "wall_s": wall,
                "cpu_s": sum(c["cpu_s"] for c in result["calls"]),
                "peak_rss_mb": result["peak_rss_kib"] * 1024 / 1e6,
            }
            if traced:
                record["layers"] = spans.layer_metrics(
                    result["spans"], wall, result["bytes_written"])
            self.records.append(record)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _check(self, argv_list, result):
        want = self.reference[workloads.reference_key(self.workload, self.tiny)]
        bad = set()
        for i, (argv, call) in enumerate(zip(argv_list, result["calls"])):
            if call["code"] != 0:
                print(f"command exited {call['code']}: {argv}", file=sys.stderr)
                bad.add(i)
                continue
            dev = workloads.check(workloads.observed(argv), want[i])
            self.deviation = max(self.deviation, dev)
            if not dev <= workloads.REL_TOL:
                print(f"output deviates {dev:.3e} from the reference: {argv}",
                      file=sys.stderr)
                bad.add(i)
        if not bad:
            # The CLI promises byte-identical reruns, traced or not.
            digests = workloads.artifact_digests(argv_list)
            if self.first_digests is None:
                self.first_digests = digests
            else:
                self.reruns_compared += 1
                if digests != self.first_digests:
                    self.identical = False
                    bad.update(range(len(argv_list)))
                    print("artifacts differ from the first iteration's", file=sys.stderr)
        self.failed += len(bad)

    def samples(self, traced):
        return [r for r in self.records if r["traced"] == traced]

    def iterations(self):
        return len(self.records)


def measure(workload, tiny, seconds, trace, tmp):
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        reference = json.load(fh)
    run = Run(workload, tiny, reference, tmp)
    begin = time.monotonic()
    deadline = begin + RUN_LIMIT_S
    env = None
    for _ in range(SETUP_PROBES):
        result, setup = spawn(
            {"src": SRC, "commands": [], "trace": False, "env": env is None}, tmp, deadline)
        if result is None:
            raise SetupError("a start-up probe failed")
        env = env or result["env"]
        run.setup.append(setup)
    start = time.monotonic()
    longest = 0.0
    attempts = 0
    # Start another iteration only if it should end within the run's
    # seconds, so a run of long iterations does not overshoot by one.
    while attempts < MIN_ITERATIONS or time.monotonic() + longest - start <= seconds:
        now = time.monotonic()
        if now + longest > deadline:
            break
        run.iterate(trace and attempts % 2 == 1, deadline)
        attempts += 1
        longest = max(longest, time.monotonic() - now)
    return run, env


def report(run, env, args):
    """Print the readable report and return the result object."""
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} tiny={int(args.tiny)} iterations={run.iterations()}")
    print("env " + json.dumps(env, sort_keys=True))
    untraced, traced = run.samples(False), run.samples(True)

    def line(name, values, pick):
        q1, med, q3 = quartiles(values)
        value = min(values) if pick == "min" else med
        print(f"  {name:34s} {pick} {value:.6g}  (min {min(values):.6g}  q1 {q1:.6g}  "
              f"median {med:.6g}  q3 {q3:.6g}  n={len(values)})  {unit_of(name)}")
        return value

    print("end to end (untraced iterations):")
    end_to_end = {name: line(name, [r[name] for r in untraced], TIMING_PICK[name])
                  for name in ("wall_s", "cpu_s", "peak_rss_mb")}
    end_to_end["setup_s"] = line("setup_s", run.setup, TIMING_PICK["setup_s"])
    print("  wall_s per iteration: " + " ".join(
        f"{r['wall_s']:.4g}{' (traced)' if r['traced'] else ''}" for r in run.records))
    print(f"  {'fail_frac':34s} {run.failed / run.attempted:.6g}  "
          f"({run.failed} of {run.attempted} commands)  ratio")
    print(f"check: max relative deviation from reference {run.deviation:.3e} "
          f"(gate {workloads.REL_TOL:g}); reruns byte-identical: {run.identical} "
          f"({run.reruns_compared} compared with the first)")
    metrics = end_to_end
    if args.trace:
        fastest = min(traced, key=lambda r: r["wall_s"])
        layers = fastest["layers"]
        layers["trace_overhead_s"] = fastest["wall_s"] - end_to_end["wall_s"]
        print(f"per layer (the fastest of {len(traced)} traced iterations):")
        totals = ("traced_wall_s", *(f"{layer}.self_s" for layer in spans.LAYERS),
                  "untraced_remainder_s")
        for name in (*totals, *sorted(set(layers) - set(totals))):
            print(f"  {name:34s} {layers[name]:.6g} {unit_of(name)}")
        metrics = {name: layers[name] for name in PER_LAYER}
    return {
        # Without a compared rerun the rerun promise is unchecked.
        "correct": run.failed == 0 and run.identical and run.reruns_compared > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload's short-preset twin (for the tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "delayframe", "cli.py")):
        print(f"perfbench: no delayframe package under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        run, env = measure(args.workload, args.tiny, args.seconds, bool(args.trace), tmp)
        if not run.samples(False) or args.trace and not run.samples(True):
            print("perfbench: no iteration completed", file=sys.stderr)
            return 1
        result = report(run, env, args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
