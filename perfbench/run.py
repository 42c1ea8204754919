"""Benchmark of weylsys: time to a checked answer, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):
  verify-all        weylsys verify --suite all --seed SEED
  classify-numeric  weylsys classify --mu inf --h i --mode numeric --seed SEED --trials 10
  points-bessel     m_infinity_info(MFunctionEvaluator(Potential.bessel(nu, ell)), z)
                    over batches of 200 distinct points drawn from SEED

Every session is a fresh interpreter (perfbench/worker.py) with BLAS and
OpenMP limited to one thread; it imports weylsys from ./src, so the run
measures the checkout it is started in.  With --trace 0 the run times
sessions until --seconds is spent (at least MIN_SESSIONS of them) and prints
the end-to-end metrics, with solve and point times at the reference speed of
speed.py; with --trace 1 it runs one untraced and one traced session and
prints the per-layer metrics.  Every output is checked; the last
line of stdout is one JSON object with keys correct, attempted, failed and
metrics.  Full records, the machine description and, for traced runs, the
spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import cmath
import compileall
import json
import os
import platform
import py_compile
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

# fixed once: it sets the classify run's length and how much that varies with the seed
CLASSIFY_TRIALS = 10
POINTS_PER_BATCH = 200
SETUP_SAMPLES = 5
# verify needs two reports at one seed to compare them byte for byte, and
# points 800 latencies for a p95 that moves little between seeds
MIN_SESSIONS = {"verify-all": 2, "classify-numeric": 1, "points-bessel": 4}
TIME_LIMIT_S = 170.0  # every run ends well inside the 180 s a run may take
REL_TOL = 1e-6  # points and probes against their oracles
CLASS_TOL = 1e-3  # classify angles, as in the acceptance suite


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def cli_argv(workload: str, seed: int) -> list[str]:
    if workload == "verify-all":
        return ["verify", "--suite", "all", "--seed", str(seed)]
    return ["classify", "--mu", "inf", "--h", "i", "--mode", "numeric",
            "--seed", str(seed), "--trials", str(CLASSIFY_TRIALS)]


def bessel_points(seed: int, batch: int, n: int = POINTS_PER_BATCH) -> list[list[float]]:
    """Batch ``batch`` of distinct (nu, ell, Re z, Im z) points for ``seed``.

    nu is uniform on [0.5, 3] and ell on [0.5, 2]; 30% of z lie on
    (-1e3, -1e-2), log-uniform, and the rest have Re z uniform on [-5, 5]
    and Im z log-uniform on [10^-0.5, 10^0.7], independently.  The draws are
    stratified: nu, ell and log|z| on the negative axis take one value in
    each of n equal slices, and (Re z, log Im z) one point in each cell of a
    grid over the rectangle, in shuffled pairings.  That keeps these
    distributions, but the solve cost, which rises steeply toward large
    Re z and small Im z, varies less between seeds, and so does p95.
    """
    import numpy as np

    rng = np.random.default_rng([seed, batch])

    def strata(count, lo, hi):
        return lo + (hi - lo) * (rng.permutation(count) + rng.random(count)) / count

    n_neg = round(0.3 * n)
    n_im = 10
    n_re = (n - n_neg) // n_im
    cell_re, cell_im = np.divmod(np.arange(n_re * n_im), n_im)
    re = -5.0 + 10.0 * (cell_re + rng.random(cell_re.size)) / n_re
    im = 10.0 ** (-0.5 + 1.2 * (cell_im + rng.random(cell_im.size)) / n_im)
    zs = [(-(10.0 ** e), 0.0) for e in strata(n_neg, -2.0, 3.0)] + list(zip(re, im))
    nu = strata(len(zs), 0.5, 3.0)
    ell = strata(len(zs), 0.5, 2.0)
    order = rng.permutation(len(zs))
    return [[float(nu[i]), float(ell[i]), float(zs[j][0]), float(zs[j][1])]
            for i, j in enumerate(order)]


# ---------------------------------------------------------------------------
# oracles and checks
# ---------------------------------------------------------------------------

def sqrt_upper(z: complex) -> complex:
    w = cmath.sqrt(z)
    return -w if w.imag < 0 else w


def hankel_m(nu: float, ell: float, z: complex) -> complex:
    """m(z) of q = (nu^2 - 1/4)/x^2 on [ell, inf) from psi = sqrt(x) H1_nu(sqrt(z) x)."""
    from scipy.special import h1vp, hankel1

    k = sqrt_upper(z)
    return -(1.0 / (2.0 * ell) + k * complex(h1vp(nu, k * ell)) / complex(hankel1(nu, k * ell)))


def bessel32_m(z: complex) -> complex:
    """Closed form for nu = 3/2, ell = 1: m(z) = 1 - i z / (sqrt(z) + i)."""
    return 1 - 1j * z / (sqrt_upper(z) + 1j)


def check_cli(workload: str, session: dict, reference: str | None) -> str | None:
    """None if the CLI session's answer is right, else the reason it is not."""
    cli = session["cli"]
    if cli["rc"] != 0:
        return f"exit code {cli['rc']}: {cli['stderr'].strip()[:200]}"
    try:
        doc = json.loads(cli["stdout"])
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    failed = [c["name"] for c in doc.get("checks", []) if not c.get("pass")]
    if doc.get("pass") is not True or failed:
        return f"report does not pass: {failed}"
    if workload == "verify-all":
        if reference is not None and cli["stdout"] != reference:
            return "verify report differs from the first report at the same seed"
        return None
    cls = doc.get("classification") or {}
    tan_b1, tan_b2 = cls.get("tan_beta1"), cls.get("tan_beta2")
    tan_theta = (doc.get("accretivity") or {}).get("tan_theta")
    numbers = all(isinstance(v, (int, float)) for v in (tan_b1, tan_b2, tan_theta))
    if not numbers or abs(tan_b1) > CLASS_TOL or abs(tan_b2 - 1) > CLASS_TOL \
            or abs(tan_theta - 1) > CLASS_TOL:
        return f"class angles off: tan b1 {tan_b1}, tan b2 {tan_b2}, tan theta {tan_theta}"
    return None


def check_points(points: list, records: list) -> list[dict]:
    """Per-point record with the oracle's error; ``failure`` set where wrong."""
    out = []
    for (nu, ell, re, im), rec in zip(points, records):
        row = {"nu": nu, "ell": ell, "z": [re, im], **rec}
        if "error" in rec:
            row["failure"] = rec["error"]
        else:
            exact = hankel_m(nu, ell, complex(re, im))
            err = abs(complex(*rec["value"]) - exact)
            row["abs_error"] = err
            row["rel_error"] = err / abs(exact)
            row["bound_violated"] = err > rec["error_bound"]
            if not row["rel_error"] <= REL_TOL:
                row["failure"] = f"relative error {row['rel_error']:.3g} against the Hankel oracle"
        out.append(row)
    return out


def check_probes(probes: dict) -> list[str | None]:
    """One entry per probe: None if right, else the reason it is not."""
    out = []
    for name, rec in probes.items():
        if "error" in rec:
            out.append(f"probe {name}: {rec['error']}")
            continue
        exact = bessel32_m(complex(*rec["z"]))
        rel = abs(complex(*rec["value"]) - exact) / abs(exact)
        out.append(None if rel <= REL_TOL else f"probe {name}: relative error {rel:.3g}")
    return out


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

class Run:
    """Sessions of one benchmark run, with the time limit they share.

    ``attempted`` and ``failed`` count operations: a CLI command or a point.
    A session that crashes or times out fails all of its operations.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = perf_counter() + TIME_LIMIT_S
        self.env = {**os.environ, **THREAD_ENV}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setups: list[float] = []
        self.os_threads = 0

    def check(self, failure: str | None, ops: int = 1) -> None:
        """Count ``ops`` operations, failed if ``failure`` gives a reason."""
        self.attempted += ops
        if failure is not None:
            self.failed += ops
            self.failures.append(failure)

    def session(self, job: dict, ops: int) -> dict | None:
        """Run one worker; None if it crashed or timed out, failing its ``ops``."""
        timeout = self.deadline - perf_counter()
        if timeout <= 0:
            self.check("time limit reached before a session could start", ops)
            return None
        job = {"src": str(SRC), **job}
        try:
            proc = subprocess.run([sys.executable, str(WORKER)], input=json.dumps(job),
                                  capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=timeout)
        except subprocess.TimeoutExpired:
            self.check(f"{job['kind']} session exceeded the time limit", ops)
            return None
        if proc.returncode != 0:
            self.check(f"{job['kind']} session exited {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}", ops)
            return None
        result = json.loads(proc.stdout)
        self.setups.append(result["setup_s"])
        self.os_threads = max(self.os_threads, result["os_threads"])
        return result

    def cli(self, job: dict, reference: str | None) -> dict | None:
        result = self.session(job, 1)
        if result is not None:
            self.check(check_cli(self.workload, result, reference))
        return result

    def points(self, job: dict) -> tuple[dict | None, list[dict]]:
        result = self.session(job, len(job["points"]))
        if result is None:
            return None, []
        rows = check_points(job["points"], result["points"])
        for row in rows:
            self.check(row.get("failure"))
        return result, rows

    def fill_setups(self) -> None:
        """Import-only sessions until there are SETUP_SAMPLES import timings."""
        while len(self.setups) < SETUP_SAMPLES and self.session({"kind": "import"}, 1):
            pass


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """Untraced sessions until ``seconds`` is spent; the end-to-end metrics."""
    is_cli = run.workload != "points-bessel"
    min_sessions = MIN_SESSIONS[run.workload]
    start = perf_counter()
    walls: list[float] = []
    sessions: list[dict] = []
    latencies: list[float] = []
    reference = None
    while True:
        t0 = perf_counter()
        if is_cli:
            result = run.cli({"kind": "cli", "argv": cli_argv(run.workload, run.seed)}, reference)
            if result is not None and reference is None:
                reference = result["cli"]["stdout"]
        else:
            job = {"kind": "points", "points": bessel_points(run.seed, len(walls))}
            result, rows = run.points(job)
            latencies += [row["latency_s"] for row in rows]
        walls.append(perf_counter() - t0)
        if result is None:
            break
        sessions.append(result)
        if is_cli:
            latencies.append(result["solve_s"])
        elapsed = perf_counter() - start
        if len(walls) >= min_sessions and elapsed + statistics.median(walls) > seconds:
            break
    run.fill_setups()
    if not sessions or not latencies:
        return {}, {"sessions": len(walls)}
    import numpy as np

    metrics = {
        "setup_s": statistics.median(run.setups),
        "solve_s": statistics.median(s["solve_s"] for s in sessions),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in sessions),
        "point_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "point_p95_ms": 1e3 * float(np.percentile(latencies, 95)),
    }
    detail = {
        "sessions": [{k: s[k] for k in ("setup_s", "solve_s", "solve_wall_s", "speed_samples",
                                        "peak_rss_mb")} for s in sessions],
        "points_timed": len(latencies) if not is_cli else 0,
    }
    return metrics, detail


def trace(run: Run) -> tuple[dict, dict]:
    """One untraced and one traced session on the same input; per-layer metrics."""
    if run.workload == "points-bessel":
        job = {"kind": "points", "points": bessel_points(run.seed, 0)}
        plain, _ = run.points({**job, "probes": True})
        traced, rows = run.points({**job, "trace": True, "run": f"{run.workload}-{run.seed}"})
    else:
        job = {"kind": "cli", "argv": cli_argv(run.workload, run.seed)}
        plain = run.cli({**job, "probes": True}, None)
        reference = plain["cli"]["stdout"] if plain is not None else None
        traced = run.cli({**job, "trace": True, "run": f"{run.workload}-{run.seed}"}, reference)
        rows = []
    if plain is None or traced is None:
        return {}, {}
    for failure in check_probes(plain["probes"]):
        run.check(failure)

    metrics = dict(traced["layers"])
    checked = [row for row in rows if "abs_error" in row]
    violations = sum(row["bound_violated"] for row in checked)
    metrics["mfunc.bound_violations"] = violations
    metrics["mfunc.bound_violation_frac"] = violations / len(checked) if checked else 0.0
    for name, rec in plain["probes"].items():
        metrics[f"mfunc.probe.{name}_s"] = rec["s"]
    metrics["trace.overhead_frac"] = (traced["solve_s"] - plain["solve_s"]) / plain["solve_s"]
    stages = ("sectorial.herglotz.s", "sectorial.stieltjes.s", "sectorial.class_limits.s",
              "sectorial.kernel_psd.s", "cli.m0_limit.s", "reporting.s", "cli.self_s")
    detail = {
        "untraced_solve_s": plain["solve_s"],
        "traced_solve_s": traced["solve_s"],
        # on classify the stages, reporting and cli self time cover the traced wall time
        "traced_solve_wall_s": traced["solve_wall_s"],
        "stage_sum_s": sum(metrics[k] for k in stages),
        "points": rows,
        "spans": traced["spans"],
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "classify-numeric", "points-bessel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "weylsys" / "__init__.py").is_file():
        print(f"error: no weylsys sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # compile once, so no timed import pays for writing bytecode
    compileall.compile_dir(str(SRC / "weylsys"), quiet=1,
                           invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP)

    run = Run(args.workload, args.seed)
    if args.trace:
        values, detail = trace(run)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, detail = measure(run, args.seconds)
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if not values:
        print("error: no session completed:", *run.failures, sep="\n  ", file=sys.stderr)
        return 1
    failed = run.failed
    fail_frac = failed / run.attempted

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(),
        "threads": {**THREAD_ENV, "os_threads_max": run.os_threads},
        "attempted": run.attempted, "failed": failed, "fail_frac": fail_frac,
        "failures": run.failures, "metrics": values, **detail,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(info, indent=1))

    print(f"machine: {json.dumps(info['machine'])}")
    print(f"threads: {json.dumps(info['threads'])}")
    for name, unit in wanted.items():
        print(f"{name:34s} {values[name]:.6g} {unit}")
    print(f"{'fail_frac':34s} {fail_frac:.6g} ({failed} of {run.attempted})")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    print(f"records: {out_file.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
