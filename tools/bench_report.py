#!/usr/bin/env python3
"""Run the KeyNote-path Google Benchmark binaries and collect one JSON report.

Usage:
    python3 tools/bench_report.py [--build-dir build] [--out BENCH_keynote.json]
                                  [--min-time 0.2] [--filter REGEX]
                                  [--check-slo]

Each binary is invoked with --benchmark_format=json; the per-benchmark
entries are merged into a single report keyed by binary, with the run
context (CPU, load, date) of each run preserved. The report backs the
numbers quoted in EXPERIMENTS.md ("Performance"); re-run after touching
src/keynote/ to refresh them.

Binaries are run with MWSEC_METRICS_OUT pointing at a scratch JSONL file:
the BM_*_Observed* benchmarks append one labelled metrics-registry
snapshot each (counters, gauges, latency histograms — see
obs::append_snapshot_jsonl). Those snapshots are merged into the report
under "metrics", so cache hit rates sit alongside the µs/op numbers:

    "metrics": {"fig2": {"label": "fig2", "counters": {...}, ...}, ...}

The report also carries the SLO evaluation from `mwsec-stats slo` under
"slo" ({"pass": bool, "objectives": [...]}); --check-slo makes a failed
objective (or a failed evaluation run) fail this script, which is how CI
gates on regressions in decide latency, revocation propagation lag and
cache hit rate.

Malformed input is an error, not a warning: a metrics snapshot line that
does not parse, or a metrics file that ends up missing/empty when the
full suite ran (no --filter), means the hand-off from the bench binaries
broke — the report would silently lose its cache-hit-rate columns — so
the script exits nonzero instead of shipping a partial report.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

# The benchmark binaries that exercise the KeyNote decision path.
BENCH_BINARIES = [
    "bench/bench_fig2_keynote_query",
    "bench/bench_authz_cache",
    "bench/bench_fig3_secure_scheduling",
    "bench/bench_sync",
    "bench/bench_transport",
]


def run_binary(path: pathlib.Path, min_time: float, bench_filter: str,
               metrics_out: pathlib.Path):
    cmd = [
        str(path),
        "--benchmark_format=json",
        f"--benchmark_min_time={min_time}",
    ]
    if bench_filter:
        cmd.append(f"--benchmark_filter={bench_filter}")
    env = dict(os.environ, MWSEC_METRICS_OUT=str(metrics_out))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        print(f"error: {path} exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    # A filter that matches nothing exits 0 with a plain-text notice
    # instead of JSON; report the binary as having no results.
    if "Failed to match any benchmarks" in (proc.stdout + proc.stderr):
        print(f"note: {path}: no benchmarks match the filter",
              file=sys.stderr)
        return {"context": {}, "benchmarks": []}
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        print(f"error: {path} produced unparseable JSON: {exc}",
              file=sys.stderr)
        return None


def load_metrics_snapshots(path: pathlib.Path, require: bool) -> dict:
    """Parse an append_snapshot_jsonl file into {label: snapshot}.

    Later lines win for a repeated label (the file is append-only across
    binaries and repeats). A malformed line, a snapshot that is not a
    JSON object, or a missing/empty file when snapshots were expected
    (`require`) raises SystemExit: a report without its metrics columns
    looks complete but is not."""
    snapshots = {}
    if not path.exists():
        if require:
            raise SystemExit(
                f"error: {path}: no metrics snapshots were written — the "
                "BM_*_Observed* benchmarks did not run or MWSEC_METRICS_OUT "
                "was ignored")
        return snapshots
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            snap = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SystemExit(
                f"error: {path}:{lineno}: malformed metrics snapshot: {exc}")
        if not isinstance(snap, dict) or "counters" not in snap:
            raise SystemExit(
                f"error: {path}:{lineno}: metrics snapshot is not a "
                "registry dump (missing 'counters')")
        snapshots[snap.get("label", f"line{lineno}")] = snap
    if require and not snapshots:
        raise SystemExit(
            f"error: {path}: metrics snapshot file is empty — the "
            "BM_*_Observed* benchmarks did not record anything")
    return snapshots


def run_slo(build_dir: pathlib.Path) -> dict | None:
    """Run `mwsec-stats slo` and return its report, or None if the tool
    is missing/failed (the caller decides whether that is fatal)."""
    tool = build_dir / "tools" / "mwsec-stats"
    if not tool.exists():
        print(f"note: {tool} not built; report will carry no SLO section",
              file=sys.stderr)
        return None
    print(f"running {tool} slo ...", file=sys.stderr)
    proc = subprocess.run([str(tool), "slo"], capture_output=True, text=True)
    if proc.returncode != 0:
        print(f"error: {tool} slo exited {proc.returncode}:\n{proc.stderr}",
              file=sys.stderr)
        return None
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as exc:
        print(f"error: {tool} slo produced unparseable JSON: {exc}",
              file=sys.stderr)
        return None


def summarize_load_run(run: dict) -> dict:
    """Compress one mwsec-load report into the columns the report quotes.

    Tolerant of a run whose phases all failed to complete (e.g. a settle
    timeout in every phase): there are no latency numbers to aggregate,
    so the summary carries an explicit "status": "incomplete" marker and
    fails the gate, instead of raising on the empty sequence."""
    phases = run.get("phases", [])
    completed = [p for p in phases if p.get("completed")]
    summary = {
        "scenario": run.get("scenario"),
        "surface": run.get("surface"),
        "pass": bool(run.get("pass", False)),
        "phases": phases,
        "slo": run.get("slo", {}),
    }
    if not completed:
        summary["status"] = "incomplete"
        summary["pass"] = False
        return summary
    summary["status"] = "ok"
    summary["requests"] = sum(int(p.get("requests", 0)) for p in completed)
    summary["oracle_violations"] = sum(
        int(p.get("oracle_violations", 0)) for p in phases)
    summary["decide_p99_us"] = max(
        float(p.get("decide_p99_us", 0)) for p in completed)
    return summary


def run_load(build_dir: pathlib.Path, scenario: str, principals: int,
             duration_ms: int) -> dict | None:
    """Run the workload harness on both transports; {key: summary}.

    Returns None when the tool is not built (the caller decides whether
    that is fatal). An individual run that fails its oracle/SLO (exit 2)
    still produces a report — it is summarised with pass=false; an
    infrastructure failure (exit 1, no JSON) becomes a "status": "error"
    section so --check-slo fails loudly."""
    tool = build_dir / "tools" / "mwsec-load"
    if not tool.exists():
        print(f"note: {tool} not built; report will carry no load section",
              file=sys.stderr)
        return None
    sections = {}
    for transport in ("inproc", "tcp"):
        key = f"{scenario}@{transport}"
        cmd = [
            str(tool), "--scenario", scenario,
            "--principals", str(principals),
            "--duration-ms", str(duration_ms),
            "--transport", transport,
        ]
        print(f"running {' '.join(cmd)} ...", file=sys.stderr)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if not proc.stdout.strip():
            print(f"error: mwsec-load ({transport}) produced no report:\n"
                  f"{proc.stderr}", file=sys.stderr)
            sections[key] = {"status": "error", "pass": False,
                             "detail": proc.stderr.strip()}
            continue
        try:
            run = json.loads(proc.stdout)
        except json.JSONDecodeError as exc:
            print(f"error: mwsec-load ({transport}) produced unparseable "
                  f"JSON: {exc}", file=sys.stderr)
            sections[key] = {"status": "error", "pass": False,
                             "detail": str(exc)}
            continue
        sections[key] = summarize_load_run(run)
    return sections


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory holding the bench binaries")
    ap.add_argument("--out", default="BENCH_keynote.json",
                    help="output report path")
    ap.add_argument("--min-time", type=float, default=0.2,
                    help="per-benchmark minimum running time (seconds)")
    ap.add_argument("--filter", default="",
                    help="optional --benchmark_filter regex applied to all "
                         "binaries")
    ap.add_argument("--check-slo", action="store_true",
                    help="fail when any SLO objective fails (or the SLO "
                         "evaluation cannot run) — the CI regression gate")
    ap.add_argument("--no-load", action="store_true",
                    help="skip the mwsec-load workload runs")
    ap.add_argument("--load-scenario", default="revocation-storm",
                    help="scenario the load section runs on both transports")
    ap.add_argument("--load-principals", type=int, default=2000,
                    help="population size for the load section")
    ap.add_argument("--load-duration-ms", type=int, default=1000,
                    help="total run budget for each load run")
    args = ap.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    report = {"benchmarks": {}}
    missing = []
    with tempfile.TemporaryDirectory(prefix="mwsec-bench-") as tmp:
        metrics_out = pathlib.Path(tmp) / "metrics.jsonl"
        for rel in BENCH_BINARIES:
            binary = build_dir / rel
            if not binary.exists():
                missing.append(str(binary))
                continue
            print(f"running {binary} ...", file=sys.stderr)
            result = run_binary(binary, args.min_time, args.filter,
                                metrics_out)
            if result is None:
                return 1
            report["benchmarks"][pathlib.Path(rel).name] = {
                "context": result.get("context", {}),
                "results": result.get("benchmarks", []),
            }
        # A filtered run may legitimately skip every Observed benchmark;
        # a full run that produced no snapshots lost data somewhere.
        report["metrics"] = load_metrics_snapshots(
            metrics_out, require=not args.filter and not missing)

    if missing:
        print("error: missing benchmark binaries (build them first):",
              file=sys.stderr)
        for m in missing:
            print(f"  {m}", file=sys.stderr)
        return 1

    slo = run_slo(build_dir)
    if slo is not None:
        report["slo"] = slo
    elif args.check_slo:
        print("error: --check-slo requested but the SLO evaluation did not "
              "run", file=sys.stderr)
        return 1

    load = None if args.no_load else run_load(
        build_dir, args.load_scenario, args.load_principals,
        args.load_duration_ms)
    if load is not None:
        report["load"] = load
    elif args.check_slo and not args.no_load:
        print("error: --check-slo requested but mwsec-load is not built",
              file=sys.stderr)
        return 1

    out = pathlib.Path(args.out)
    out.write_text(json.dumps(report, indent=2) + "\n")
    n = sum(len(v["results"]) for v in report["benchmarks"].values())
    print(f"wrote {out} ({n} benchmark entries, "
          f"{len(report['metrics'])} metrics snapshots, "
          f"slo={'absent' if slo is None else slo.get('pass')})",
          file=sys.stderr)

    failed = False
    if args.check_slo and not slo.get("pass", False):
        for obj in slo.get("objectives", []):
            if not obj.get("pass", False):
                print(f"SLO FAILED: {obj.get('name')}: "
                      f"{obj.get('value')} vs {obj.get('threshold')} "
                      f"({obj.get('detail', '')})", file=sys.stderr)
        failed = True
    if args.check_slo and load is not None:
        for key, section in load.items():
            if section.get("status") != "ok" or not section.get("pass"):
                print(f"LOAD FAILED: {key}: status="
                      f"{section.get('status')} pass={section.get('pass')}",
                      file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
