"""omx benchmark: run one workload for a fixed time and print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload g2scan --seed 0 --seconds 50 --trace 0

One client runs a closed loop: each pass is a fresh process that imports omx,
parses the workload's configs ("ready") and then runs every scenario chunk
(see workloads.py) through omx.cli.main with jobs = 1 and one BLAS thread; the
next pass starts when the previous one has exited. Passes repeat until the
next one would overrun --seconds (at least two, so the CSVs of two repeats can
be compared).

On a shared host the same code runs up to 1.8x slower for minutes at a time.
So the worker times a host-speed probe (hostspeed.py) between chunks, each
pass's chunk times are scaled to the host's undisturbed speed by the median of
that pass's probes, and wall_s sums, over the chunks, each chunk's median
scaled time in the run; setup_s is the median set-up time scaled by the median
of all the run's probes. The measured times of whole passes and set-ups are
printed too, unscaled.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced and one
traced pass and prints the per-layer metrics. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import hostspeed
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 2
MIN_SETUPS = 7
RUN_LIMIT_S = 170.0  # every run, first pass included, ends well inside 180 s
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
}

PER_LAYER_UNITS = {
    "dynamics.steady_state_calls": "count",
    "dynamics.steady_state_self_s": "s",
    "dynamics.steady_state_p50_ms": "ms",
    "dynamics.steady_state_p90_ms": "ms",
    "dynamics.spsolve_calls": "count",
    "dynamics.spsolve_s": "s",
    "dynamics.solve_useful_ratio": "ratio",
    "dynamics.null_space_gap_calls": "count",
    "dynamics.null_space_gap_s": "s",
    "dynamics.liouvillian_calls": "count",
    "dynamics.liouvillian_s": "s",
    "dynamics.liouvillian_dim_max": "count",
    "dynamics.liouvillian_nnz_max": "count",
    "dynamics.reflection_spectrum_s": "s",
    "dynamics.g2_zero_s": "s",
    "dynamics.nonhermitian_eigs_calls": "count",
    "dynamics.nonhermitian_eigs_s": "s",
    "dynamics.residual_max": "norm",
    "models.build_calls": "count",
    "models.build_s": "s",
    "hilbert.density_matrix_calls": "count",
    "hilbert.density_matrix_s": "s",
    "analytics.six_state_g2_calls": "count",
    "analytics.six_state_g2_s": "s",
    "analytics.min_g2_scan_s": "s",
    "analytics.phonon_nonlinearity_calls": "count",
    "analytics.phase_gate_error_s": "s",
    "params.replace_calls": "count",
    "params.replace_s": "s",
    "scan.write_s": "s",
    "scan.bytes_written": "B",
    "cli.import_s": "s",
    "cli.load_config_s": "s",
    "trace.overhead_s": "s",
    "trace.top_level_s": "s",
    "trace.coverage": "fraction",
    "check.max_rel_dev": "ratio",
}


class BenchError(RuntimeError):
    pass


# ------------------------------------------------------------ passes ---

def run_worker(root: Path, pass_dir: Path, entries, *, trace=False, setup_only=False,
               run_id="", deadline: float) -> dict:
    """Start one worker process, wait for it, and return its result."""
    pass_dir.mkdir(parents=True)
    spec = {"src": str(root / "src"), "scenarios": entries, "out": str(pass_dir / "out"),
            "result": str(pass_dir / "result.json"), "spans": str(pass_dir / "spans.json"),
            "trace": trace, "setup_only": setup_only, "run_id": run_id}
    (pass_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    with open(pass_dir / "stdout.txt", "wb") as out, open(pass_dir / "stderr.txt", "wb") as err:
        started = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "worker.py"),
                                 str(pass_dir / "spec.json")],
                                cwd=root, env=env, stdout=out, stderr=err)
        try:
            code = proc.wait(timeout=max(1.0, deadline - started))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"worker in {pass_dir} overran the run limit")
    if code != 0:
        tail = (pass_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"worker in {pass_dir} exited {code}:\n{tail}")
    result = json.loads((pass_dir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = result["ready"] - started
    result["dir"] = pass_dir
    return result


def timed_passes(root, work, entries, seconds, deadline) -> tuple[list[dict], list[float]]:
    """Closed loop of untraced passes until the next would overrun `seconds`.

    A set-up-only process follows each pass until MIN_SETUPS set-ups are
    measured, so that set-up samples are spread over the run too.
    """
    passes, setups = [], []
    t0 = time.monotonic()
    while True:
        k = len(passes)
        passes.append(run_worker(root, work / f"pass{k}", entries, deadline=deadline))
        setups.append(passes[-1])
        if len(setups) < MIN_SETUPS:
            setups.append(run_worker(root, work / f"setup{k}", entries, setup_only=True,
                                     deadline=deadline))
        elapsed = time.monotonic() - t0
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(run_worker(root, work / f"setup{len(setups)}", entries,
                                 setup_only=True, deadline=deadline))
    return passes, setups


def traced_pair(root, work, entries, deadline) -> list[dict]:
    """One untraced pass, then one traced pass of the same configs."""
    return [run_worker(root, work / "pass0", entries, deadline=deadline),
            run_worker(root, work / "pass1", entries, trace=True,
                       run_id=f"{work.name}/pass1", deadline=deadline)]


def scans(entries) -> dict[str, list[int]]:
    """Scenario -> indices of its chunks in `entries`, in run order."""
    out: dict[str, list[int]] = {}
    for i, entry in enumerate(entries):
        out.setdefault(entry["scenario"], []).append(i)
    return out


def merged_outputs(p: dict, entries) -> dict[str, tuple[Path, int, int]]:
    """Scenario -> (its chunks' CSVs merged into one, exit code, expected rows)
    for one pass; the code is the first non-zero one of its chunks."""
    out = {}
    for name, idx in scans(entries).items():
        csv = check.merge_csvs([p["dir"] / "out" / entries[i]["out"] / f"{name}.csv"
                                for i in idx], p["dir"] / "merged" / f"{name}.csv")
        code = next((p["codes"][i] for i in idx if p["codes"][i] != 0), 0)
        out[name] = (csv, code, sum(entries[i]["rows"] for i in idx))
    return out


def check_passes(passes, entries, refs: dict | None) -> tuple[int, int, float]:
    """(attempted, failed, max relative deviation) over every pass."""
    attempted = failed = 0
    worst = 0.0
    first = merged_outputs(passes[0], entries)
    for p in passes:
        merged = first if p is passes[0] else merged_outputs(p, entries)
        for name, (csv, code, rows) in merged.items():
            bad, dev = check.check_scenario(csv, code, rows, refs.get(name) if refs else None,
                                            first[name][0] if p is not passes[0] else None)
            attempted += rows
            failed += bad
            worst = max(worst, dev)
    return attempted, failed, worst


# ----------------------------------------------------------- metrics ---

def timing_summary(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    xs = sorted(values)
    out = {"median": statistics.median(xs), "n": len(xs)}
    if len(xs) > 10:
        rank = len(xs) - 11
        out[f"p{100 * (rank + 1) / len(xs):.0f}"] = xs[rank]
    return out


def steady_chunk_s(p: dict) -> list[float]:
    """One pass's chunk times at the host's undisturbed speed, scaled by the
    median of the host-speed probes timed between its chunks."""
    return [t * hostspeed.factor(p["probe_s"]) for t in p["chunk_s"]]


def steady_pass_s(passes) -> float:
    """Each chunk's median steady time over the passes, summed over the chunks."""
    return sum(statistics.median(times) for times in zip(*map(steady_chunk_s, passes)))


def steady_setup_s(setups) -> float:
    """The median set-up time, scaled by the median of every probe the set-up
    processes timed: set-up runs before a process can probe, so it takes the
    run's host speed."""
    probes = [x for p in setups for x in p["probe_s"]]
    return statistics.median(p["setup_s"] for p in setups) * hostspeed.factor(probes)


def end_to_end(passes, setups, rows, attempted, failed) -> dict:
    wall = steady_pass_s(passes)
    return {
        "wall_s": wall,
        "points_per_s": rows / wall,
        "setup_s": steady_setup_s(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "passed_frac": 1.0 - failed / attempted,
    }


def per_layer(untraced, traced, max_rel_dev) -> dict:
    data = json.loads((traced["dir"] / "spans.json").read_text(encoding="utf-8"))
    span_list, counters = data["spans"], data["counters"]
    s = spans.summarize(span_list)

    def get(name, key):
        return s[name][key] if name in s else 0

    ss_durations = s.get("dynamics.steady_state", {}).get("durations", [])
    top = spans.top_level_s(span_list)
    out = {
        "dynamics.steady_state_calls": get("dynamics.steady_state", "calls"),
        "dynamics.steady_state_self_s": get("dynamics.steady_state", "self_s"),
        "dynamics.steady_state_p50_ms": 1e3 * spans.percentile(ss_durations, 50),
        "dynamics.steady_state_p90_ms": 1e3 * spans.percentile(ss_durations, 90),
        "dynamics.solve_useful_ratio": (get("dynamics.steady_state", "calls")
                                        / get("dynamics.spsolve", "calls")
                                        if get("dynamics.spsolve", "calls") else 0.0),
        "dynamics.liouvillian_dim_max": counters.get("liouvillian_dim_max", 0),
        "dynamics.liouvillian_nnz_max": counters.get("liouvillian_nnz_max", 0),
        "dynamics.residual_max": counters.get("residual_max", 0.0),
        "scan.bytes_written": counters.get("bytes_written", 0),
        "cli.import_s": statistics.median([untraced["import_s"], traced["import_s"]]),
        "cli.load_config_s": statistics.median([untraced["load_config_s"],
                                                traced["load_config_s"]]),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.top_level_s": top,
        "trace.coverage": top / traced["wall_s"],
        "check.max_rel_dev": min(max_rel_dev, sys.float_info.max),
    }
    for metric in PER_LAYER_UNITS:
        if metric in out:
            continue
        name, _, field = metric.rpartition("_")
        if field == "calls":
            out[metric] = get(name, "calls")
        else:  # "<span>_s": inclusive seconds
            out[metric] = get(metric[:-2], "total_s")
    return out


# -------------------------------------------------------- provenance ---

def source_stamp(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "omx").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "omx" / "cli.py").is_file():
        print(f"no omx sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    entries = workloads.write_configs(args.workload, args.seed, work / "configs")
    refs = check.load_references(args.workload).get(str(workloads.grid_variant(args.seed)))

    try:
        if args.trace:
            passes = traced_pair(root, work, entries, deadline)
        else:
            passes, setups = timed_passes(root, work, entries, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    attempted, failed, max_dev = check_passes(passes, entries, refs)

    env = dict(passes[0]["env"], blas_threads=int(BLAS_THREADS), nproc=os.cpu_count(),
               workload=args.workload, seed=args.seed,
               grid_fraction=workloads.seed_fraction(args.seed),
               grid_rows={name: sum(entries[i]["rows"] for i in idx)
                          for name, idx in scans(entries).items()},
               chunks=len(entries),
               reference="committed" if refs else "missing (invariants only)",
               **source_stamp(root))
    if args.trace:
        values, units, timings = per_layer(passes[0], passes[1], max_dev), PER_LAYER_UNITS, {}
    else:
        values = end_to_end(passes, setups, sum(e["rows"] for e in entries),
                            attempted, failed)
        units = END_TO_END_UNITS
        timings = {"pass_s": timing_summary(p["wall_s"] for p in passes),
                   "setup_s": timing_summary(p["setup_s"] for p in setups),
                   "probe_s": timing_summary(x for p in setups for x in p["probe_s"])}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    print(f"omx benchmark  workload={args.workload}  seed={args.seed}  trace={args.trace}  "
          f"passes={len(passes)}  elapsed={time.monotonic() - started:.1f}s")
    print("env " + json.dumps(env, sort_keys=True))
    for name, t in timings.items():
        print(f"  {name:<34} " + "  ".join(f"{k}={v:.6g}" for k, v in t.items()))
    print(f"  {'failed_frac':<34} {failed / attempted:.6g} fraction  "
          f"({failed} of {attempted} points)")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:.6g} {m['unit']}")
    (work / "result.json").write_text(json.dumps(
        {"env": env, "timings": timings, "attempted": attempted, "failed": failed,
         "metrics": metrics}, indent=1, sort_keys=True, default=str), encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
