"""The benchmark's workloads and the output check each command must pass.

A workload is a list of ``delayframe`` argv lists that one fresh process
runs in order through ``delayframe.cli.main``. ``{out}`` stands for the
iteration's own output directory. Inputs are the package's fixed presets,
so no input depends on the benchmark seed. Each workload has a tiny twin
on the short presets that exercises the same commands in a few seconds;
the benchmark's own test uses those.
"""

from __future__ import annotations

import hashlib
import json
import os

WORKLOADS = {
    "fit-lorenz-sweep-shavok": [
        ["fit", "--input", "lorenz_sweep", "--delays", "401", "--rank", "4",
         "--method", "shavok", "--out-dir", "{out}/fit"],
    ],
    "csv-roundtrip": [
        ["simulate", "--input", "lorenz_interp", "--out-dir", "{out}/sim"],
        ["diagnose", "--input", "{out}/sim/series.csv", "--out-dir", "{out}/diag"],
    ],
}

# The tiny twins run the same commands on the short presets.
TINY_PRESETS = {"lorenz_interp": "lorenz_short", "lorenz_sweep": "lorenz_short"}

# Numbers compared against the reference; ROADMAP item 3 gates a faster
# factorization at this relative deviation.
REL_TOL = 1e-9


def commands(workload: str, tiny: bool, out: str):
    """The workload's argv lists with ``{out}`` filled in."""
    presets = TINY_PRESETS if tiny else {}
    return [[presets.get(arg, arg).replace("{out}", out) for arg in argv]
            for argv in WORKLOADS[workload]]


def reference_key(workload: str, tiny: bool) -> str:
    return ("tiny:" if tiny else "") + workload


def out_dir(argv) -> str:
    return argv[argv.index("--out-dir") + 1]


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def observed(argv) -> dict:
    """The values of one finished command that the reference pins.

    Strings (digests) must match exactly, numbers to REL_TOL.
    """
    out = out_dir(argv)
    if argv[0] == "simulate":
        # systems promises bit-identical trajectories, and the Lorenz
        # presets are chaotic: any rounding change shows in the digest.
        return {"series.csv:sha256": file_sha256(os.path.join(out, "series.csv"))}
    if argv[0] == "fit":
        model = _load(os.path.join(out, "model.json"))
        spectrum = _load(os.path.join(out, "spectrum.json"))
        return {
            "model.json:a_continuous": model["a_continuous"]["data"],
            "model.json:singular_values": model["singular_values"],
            "spectrum.json:continuous": spectrum["continuous"],
            "spectrum.json:log_mapped": spectrum["log_mapped"],
        }
    if argv[0] == "diagnose":
        report = _load(os.path.join(out, "report.json"))
        keys = ("antisymmetry", "tridiagonality", "offband_max", "superdiagonal",
                "subdiagonal", "speed", "curvatures")
        return {f"report.json:{k}": report[k] for k in keys}
    raise ValueError(f"no output check for command {argv[0]!r}")


def _flatten(value):
    if isinstance(value, list):
        for item in value:
            yield from _flatten(item)
    else:
        yield value


def _shape(value):
    if isinstance(value, list):
        return [len(value)] + (_shape(value[0]) if value else [])
    return []


def deviation(got, want) -> float:
    """Largest relative deviation of ``got`` from ``want``; inf on mismatch.

    Numeric arrays compare norm-wise: max |got - want| over max |want|,
    so entries near zero do not blow the ratio up.
    """
    if isinstance(want, str) or want is None or isinstance(got, str) or got is None:
        return 0.0 if got == want else float("inf")
    if _shape(got) != _shape(want):
        return float("inf")
    g, w = list(_flatten(got)), list(_flatten(want))
    scale = max((abs(x) for x in w), default=0.0)
    err = max((abs(a - b) for a, b in zip(g, w)), default=0.0)
    if scale == 0.0:
        return 0.0 if err == 0.0 else float("inf")
    return err / scale


def check(got: dict, want: dict) -> float:
    """Worst deviation over every pinned value; inf if a value is missing."""
    if set(got) != set(want):
        return float("inf")
    return max((deviation(got[k], want[k]) for k in want), default=0.0)


def artifact_digests(argv_list) -> dict:
    """sha256 of every file the commands wrote, keyed by command and name."""
    digests = {}
    for i, argv in enumerate(argv_list):
        out = out_dir(argv)
        for name in sorted(os.listdir(out)):
            digests[f"{i}:{name}"] = file_sha256(os.path.join(out, name))
    return digests
