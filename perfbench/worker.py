"""One benchmark session in a fresh interpreter.

Reads a job (JSON) on stdin, imports weylsys from the job's source directory,
runs the job while sampling the machine's speed (speed.py), and writes one
JSON result on stdout: the wall times and the times at the reference speed.
The CLI's own output is captured, not printed.  ``run.py`` starts it.

Jobs:
  {"kind": "import"}                       only the timed import
  {"kind": "cli", "argv": [...]}           one call of weylsys.cli.main
  {"kind": "points", "points": [[nu, ell, re_z, im_z], ...]}
                                           m_infinity_info per point
Optional fields: "trace" (record spans), "probes" (time the probe points
after the job).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

# single evaluations at the probe points of the per-layer list, Bessel nu = 3/2
PROBES = {
    "disk_i": 1j,
    "disk_5_0.1i": 5 + 0.1j,
    "disk_100_i": 100 + 1j,
    "riccati_m1": -1.0,
    "riccati_m1e8": -1e8,
}


def _os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def _run_cli(weylsys, argv, tracer):
    """(start, end) of the call and the CLI's exit code and output."""
    main = weylsys.cli.main
    if tracer is not None:
        main = tracer.span("cli.main", main)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    end = perf_counter()
    return (start, end), {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_points(weylsys, points, tracer):
    mfunc = weylsys.mfunc
    evaluator_cls, potential_cls = weylsys.MFunctionEvaluator, weylsys.Potential

    def evaluate(nu, ell, z):
        return mfunc.m_infinity_info(evaluator_cls(potential_cls.bessel(nu, ell)), z)

    if tracer is not None:
        evaluate = tracer.span("bench.point", evaluate)
    records = []
    start = perf_counter()
    for nu, ell, re, im in points:
        t0 = perf_counter()
        try:
            info = evaluate(nu, ell, complex(re, im))
        except Exception as exc:  # a failed point is counted, not fatal
            records.append({"span": (t0, perf_counter()),
                            "error": f"{type(exc).__name__}: {exc}"})
            continue
        records.append({
            "span": (t0, perf_counter()),
            "value": [info.value.real, info.value.imag],
            "path": info.path,
            "truncation_X": info.truncation_X,
            "error_bound": info.error_bound,
        })
    return (start, perf_counter()), records


def _run_probes(weylsys):
    evaluator = weylsys.MFunctionEvaluator(weylsys.Potential.bessel())
    out = {}
    for name, z in PROBES.items():
        t0 = perf_counter()
        try:
            value = weylsys.mfunc.m_infinity_info(evaluator, z).value
        except Exception as exc:  # reported as a failed probe
            out[name] = {"s": perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}"}
            continue
        out[name] = {"s": perf_counter() - t0, "z": [complex(z).real, complex(z).imag],
                     "value": [value.real, value.imag]}
    return out


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)
    start = perf_counter()
    import weylsys
    import weylsys.cli
    setup = perf_counter() - start
    if not os.path.abspath(weylsys.__file__).startswith(src + os.sep):
        print(f"weylsys imported from {weylsys.__file__}, not from {src}", file=sys.stderr)
        return 2

    import speed

    result = {"setup_s": setup}
    tracer = None
    if job.get("trace"):
        import spans

        tracer = spans.Tracer(job["run"], weylsys.WeylsysError)
        spans.install(tracer, weylsys)
    with speed.SpeedSampler() as sampler:
        if job["kind"] == "cli":
            solve, result["cli"] = _run_cli(weylsys, job["argv"], tracer)
        elif job["kind"] == "points":
            solve, result["points"] = _run_points(weylsys, job["points"], tracer)
    if job["kind"] != "import":
        result["solve_s"] = sampler.scaled(*solve)
        result["solve_wall_s"] = solve[1] - solve[0]
        result["speed_samples"] = len(sampler.starts)
    for rec in result.get("points", ()):
        span = rec.pop("span")
        rec["latency_s"] = sampler.scaled(*span)
        rec["latency_wall_s"] = span[1] - span[0]
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["spans"] = tracer.to_records()
    if job.get("probes"):
        result["probes"] = _run_probes(weylsys)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["os_threads"] = _os_threads()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
