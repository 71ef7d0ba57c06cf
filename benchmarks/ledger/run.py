"""The perf ledger's one command.

For people::

    python benchmarks/ledger/run.py [--seed N] [--workload W] [--traced]
                                    [--out F] [--trace-out F]

runs every workload (or one), prints every metric by name with its unit,
verifies outputs and exits non-zero on a correctness failure.  ``--out``
writes the run document ``compare.py`` reads.

For the benchmark driver (``BENCHMARK.json``)::

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1

whose last stdout line is one JSON object: with ``--trace 0`` every
end-to-end metric, with ``--trace 1`` every per-layer metric (a layer the
workload does not exercise reads 0).

End-to-end numbers always come from an untraced pass.  A traced run
*repeats* the workload with the benchmark's own span recorder on, then
replays it through the layer pipeline (``probes.py``); the difference
between the two passes is the tracing overhead.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
from typing import Any, Union

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# The package is importable as ``ledger``; ``src/`` is where ``repro``
# lives (the checkout is not installed).
sys.path[:0] = [str(HERE.parent), str(ROOT / "src")]

from ledger import probes, workloads  # noqa: E402
from ledger.spans import SpanRecorder, chrome_trace  # noqa: E402

DEFAULT_SEED = 1
SCHEMA = "repro-perf-ledger-v1"


def load_contract() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


Spec = Union[workloads.MeshSpec, workloads.SimSpec]


def spec_of(name: str) -> Spec:
    return workloads.MESH_SPECS.get(name, workloads.SIM_SPEC)


def _run_pass(
    spec: Spec, seed: int, seconds: float, work_dir: str,
    recorder: SpanRecorder, *, traced: bool,
) -> workloads.PassResult:
    if traced:  # set-up time is the untraced pass's to report
        spec = dataclasses.replace(spec, setups=1)
    if isinstance(spec, workloads.SimSpec):
        return workloads.run_sim(spec, seed, seconds, recorder)
    return asyncio.run(
        workloads.run_mesh(spec, seed, seconds, work_dir, recorder, traced=traced)
    )


def run_workload(
    spec: Spec, seed: int, seconds: float, work_dir: str, *,
    traced: bool, recorder: SpanRecorder, layer_names: list[str],
) -> dict[str, Any]:
    """One workload's entry of the run document."""
    base = _run_pass(spec, seed, seconds, work_dir, SpanRecorder(enabled=False),
                     traced=False)
    layers: dict[str, float | None] = dict.fromkeys(layer_names)
    layers.update(base.layers)
    entry: dict[str, Any] = {
        "end_to_end": base.end_to_end,
        "attempted": base.attempted,
        "failed": base.failed,
        "failed_ops_share": base.failed / base.attempted,
        "checks": dict(base.checks),
        "flags": list(base.flags),
        "probe_errors": list(base.probe_errors),
        "traced": traced,
    }
    if traced:
        again = _run_pass(spec, seed, seconds, work_dir, recorder, traced=True)
        errors = again.probe_errors
        layers.update({k: v for k, v in again.layers.items() if k not in base.layers})
        layers["client.trace_overhead_share"] = (
            again.end_to_end["update_p50_ms"] / base.end_to_end["update_p50_ms"] - 1.0
        )
        if isinstance(spec, workloads.SimSpec):
            # one request per process per anti-entropy round
            sync_per_op = spec.nodes / spec.sync_every
        else:
            sync_per_op = base.layers["net.node.sync_requests_per_s"] / spec.rate
        layers.update(probes.run_probes(
            again.facts, recorder, work_dir, errors,
            cpu_ms_per_op=base.end_to_end["cpu_ms_per_op"],
            sync_requests_per_op=sync_per_op,
        ))
        entry["probe_errors"] += errors
        entry["checks"].update({f"traced.{k}": v for k, v in again.checks.items()})
        entry["failed"] += again.failed
        entry["attempted"] += again.attempted
    entry["per_layer"] = layers
    entry["correct"] = entry["failed"] == 0 and all(entry["checks"].values())
    return entry


def _fs_type(path: str) -> str | None:
    """Filesystem type of ``path`` (longest mount-point prefix)."""
    best, fs = "", None
    try:
        with open("/proc/mounts", encoding="utf-8") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fs = mount, kind
    except OSError:
        return None
    return fs


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(seed: int, seconds: float, data_dir_fs: str | None) -> dict[str, Any]:
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "data_dir_fs": data_dir_fs,
        "seed": seed,
        "seconds": seconds,
    }


def _print_entry(name: str, entry: dict[str, Any], units: dict[str, str]) -> None:
    for group in ("end_to_end", "per_layer"):
        for metric, value in entry[group].items():
            if value is None and not entry["traced"]:
                continue  # the traced pass's to measure
            shown = "off-path" if value is None else f"{value:.6g}"
            print(f"{name:14s} {metric:38s} {shown:>12s} {units[metric]}")
    print(f"{name:14s} {'failed_ops_share':38s} {entry['failed_ops_share']:>12.6g} ratio"
          f"   ({entry['failed']} of {entry['attempted']})")
    for flag in entry["flags"]:
        print(f"{name:14s} FLAG {flag}")
    for error in entry["probe_errors"]:
        print(f"{name:14s} PROBE ERROR {error}")
    failed = [check for check, ok in entry["checks"].items() if not ok]
    print(f"{name:14s} correct={entry['correct']}"
          + (f" failed checks: {failed}" if failed else ""))


def result_line(entries: dict[str, dict], units: dict[str, str], group: str) -> str:
    """The driver's result object.  One workload: its metrics by name;
    several: each metric as ``<workload>/<metric>``."""
    metrics: dict[str, dict[str, Any]] = {}
    for name, entry in entries.items():
        for metric, value in entry[group].items():
            key = metric if len(entries) == 1 else f"{name}/{metric}"
            metrics[key] = {
                "value": 0.0 if value is None else value, "unit": units[metric],
            }
    return json.dumps({
        "correct": all(e["correct"] for e in entries.values()),
        "attempted": sum(e["attempted"] for e in entries.values()),
        "failed": sum(e["failed"] for e in entries.values()),
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="length of each timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", default=None, help="write the run document here")
    parser.add_argument("--trace-out", default=None,
                        help="write the Chrome-trace (Perfetto) file here")
    args = parser.parse_args(argv)
    traced = bool(args.trace) or args.traced

    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    layer_names = [m["name"] for m in contract["per_layer"]]
    work_dir = str(HERE / ".work" / str(os.getpid()))
    os.makedirs(work_dir)
    recorder = SpanRecorder(enabled=traced)
    entries: dict[str, dict] = {}
    try:
        data_dir_fs = _fs_type(work_dir)
        for name in [args.workload] if args.workload else names:
            entries[name] = run_workload(
                spec_of(name), args.seed, args.seconds, work_dir,
                traced=traced, recorder=recorder, layer_names=layer_names,
            )
            _print_entry(name, entries[name], units)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run's scratch is still in there

    if args.out:
        env = fingerprint(args.seed, args.seconds, data_dir_fs)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"schema": SCHEMA, "env": env, "workloads": entries}, fh, indent=1)
    if args.trace_out and traced:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            json.dump(chrome_trace(recorder.spans, name="repro perf ledger"), fh)
    print(result_line(entries, units, "per_layer" if traced else "end_to_end"))
    return 0 if all(e["correct"] for e in entries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
