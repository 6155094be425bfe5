"""One workload pass in a fresh process: import omx, parse the configs, then
run every scenario chunk through omx.cli.main, one after the other, timing
each call. The host-speed probe (hostspeed.py) runs before the first chunk
and after each chunk, for at least PROBE_SHARE of the chunk's time, or
SETUP_PROBES times in a process that stops after set-up.

Usage: python3 perfbench/worker.py SPEC.json

SPEC names the omx source directory, the scenarios with their configs, the
output directory, where to write the result, whether to trace, and whether to
stop after set-up. The result records the monotonic clock at "ready" so that
the parent can measure set-up from the moment it started this process.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback

SETUP_PROBES = 5
PROBE_SHARE = 0.02  # after a chunk, probe for at least this share of its time


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version', '')}".strip()}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import omx.cli as cli
    t1 = time.perf_counter()
    for entry in spec["scenarios"]:
        cli.load_config(entry["config"])
    t2 = time.perf_counter()
    ready = time.monotonic()
    result = {"ready": ready, "import_s": t1 - t0, "load_config_s": t2 - t1}
    import hostspeed  # after ready: numpy and scipy load as omx loads them

    probe = hostspeed.Probe()
    if spec["setup_only"]:
        result["probe_s"] = [probe() for _ in range(SETUP_PROBES)]
    else:
        probes = [probe()]
        rec = None
        if spec["trace"]:
            import spans
            rec = spans.SpanRecorder(spec["run_id"])
            spans.instrument(rec)
        codes, chunk_s, errors = [], [], []
        for entry in spec["scenarios"]:
            argv = [entry["scenario"], "--config", entry["config"],
                    "--out", f"{spec['out']}/{entry['out']}"]
            t = time.perf_counter()
            try:
                codes.append(cli.main(argv))
            except Exception:  # a crash fails this chunk's points, not the pass
                codes.append(-1)
                errors.append(traceback.format_exc())
            chunk_s.append(time.perf_counter() - t)
            probes.extend(hostspeed.probe_for(probe, PROBE_SHARE * chunk_s[-1]))
        result["wall_s"] = sum(chunk_s)
        result["chunk_s"] = chunk_s
        result["probe_s"] = probes
        result["codes"] = codes
        result["errors"] = errors
        if rec is not None:
            rec.unpatch()
            rec.dump(spec["spans"])
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["env"] = _environment()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
