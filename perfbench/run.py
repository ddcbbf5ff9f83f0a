#!/usr/bin/env python3
"""CLI pipeline benchmark for spopo.

Run from the repository root:

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 30 --trace 0

The benchmark generates a scenario from ``configs/default.json`` (the seed picks
the pump ratios inside a narrow band, all below 0.97, and the output rows the
checks sample), then:

``--trace 0``  times the real CLI.  A pass runs the four subcommands back to
    back as ``python -m spopo.cli <cmd>`` processes with ``src`` on the path, a
    closed loop of one client; passes repeat until ``--seconds`` of pass time
    has accumulated (at least three).  Set-up time is the median of several
    fresh ``import spopo.cli`` processes after one warm-up.  Process wall time
    and peak RSS come from ``os.wait4``.
``--trace 1``  runs the same pass in process through ``spopo.cli.main``,
    alternating an untraced pass with a traced one, and reports per-layer time
    and work counts (see ``layers.py``), plus the import breakdown from one
    ``python -X importtime -c "import spopo.cli"``.  Spans are written to
    ``.perfbench_out/<workload>/`` when the run ends.

Every output of every pass is checked against ``checks.Oracle`` outside the
timed interval.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count, and the run record
(machine, library versions, BLAS threads, workload sizes).  Counts
(``*_calls``, ``n_kept``, ``matrix_bytes``, ``bytes_written``, the two
solves-per-point ratios and their bases) repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

NPROC = len(os.sched_getaffinity(0))
#: BLAS threads for the benchmark and every child; set before numpy loads
BLAS_THREADS = min(NPROC, 2)
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from checks import Oracle  # noqa: E402
from layers import Tracer, pass_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BASE_CONFIG = ROOT / "configs" / "default.json"
OUT = ROOT / ".perfbench_out"
COMMANDS = ("supermodes", "squeezing", "pulses", "metrology")
SETUP_SAMPLES = 7
MIN_PASSES = 3

#: overrides of configs/default.json per workload; BENCHMARK.json says why
#: each workload is there
WORKLOADS = {
    "paper_default": {},
    "wide_window": {("grid", "n_points"): 1361, ("run", "theta_points"): 5},
    "long_train": {("run", "N_max"): 10_000, ("run", "theta_points"): 5},
}


def make_scenario(workload: str, seed: int) -> tuple[dict, random.Random]:
    raw = json.loads(BASE_CONFIG.read_text())
    for (section, key), value in WORKLOADS[workload].items():
        raw[section][key] = value
    rng = random.Random(seed)
    raw["pump"]["pump_ratio"] = round(
        raw["pump"]["pump_ratio"] + rng.uniform(-0.02, 0.02), 6)
    raw["run"]["ratios"] = [round(min(x + rng.uniform(-0.01, 0.01), 0.965), 6)
                            for x in raw["run"]["ratios"]]
    return raw, rng


def describe(values: list[float]) -> str:
    """Sample count, plus the highest percentile with >= 10 samples beyond it."""
    text = f"median of {len(values)}"
    for p in (99, 95, 90, 75, 50):
        if len(values) * (1.0 - p / 100.0) >= 10:
            return text + f", p{p} {np.percentile(values, p):.6g}"
    return text


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(args: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int]:
    """(wall s, peak RSS MB, exit code) of one child process."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def measure_end_to_end(cfg_path: Path, workdir: Path, seconds: float,
                       oracle: Oracle, rng: random.Random):
    env = child_env()
    import_cmd = [sys.executable, "-c", "import spopo.cli"]
    setup = []
    for i in range(SETUP_SAMPLES + 1):      # the first import is a warm-up
        elapsed, _, code = run_child(import_cmd, env, workdir / "setup.err")
        if code != 0:
            raise RuntimeError("import spopo.cli failed: "
                               + (workdir / "setup.err").read_text()[-2000:])
        if i:
            setup.append(elapsed)

    times = {cmd: [] for cmd in COMMANDS}
    passes, rss, failures = [], [], []
    attempted = failed = 0
    while len(passes) < MIN_PASSES or sum(passes) < seconds:
        outdir = fresh_dir(workdir / "out")
        codes, peak = {}, 0.0
        start = time.perf_counter()
        for cmd in COMMANDS:
            elapsed, maxrss, codes[cmd] = run_child(
                [sys.executable, "-m", "spopo.cli", cmd, "--config", str(cfg_path),
                 "--out", str(outdir)], env, workdir / f"{cmd}.err")
            times[cmd].append(elapsed)
            peak = max(peak, maxrss)
        passes.append(time.perf_counter() - start)
        rss.append(peak)
        for cmd in COMMANDS:
            attempted += 1
            problems = ([f"{cmd}: exit code {codes[cmd]}: "
                         + (workdir / f"{cmd}.err").read_text()[-500:]]
                        if codes[cmd] else oracle.check(cmd, outdir, rng))
            failed += bool(problems)
            failures += problems

    metrics = {"setup_s": (setup, "s")}
    metrics.update({f"{cmd}_s": (times[cmd], "s") for cmd in COMMANDS})
    metrics["pipeline_s"] = (passes, "s")
    metrics["peak_rss_mb"] = (rss, "MB")
    return metrics, attempted, failed, failures


def import_breakdown(env: dict) -> dict:
    """Cumulative import seconds of spopo, scipy and numpy (``-X importtime``).

    A package's time is the sum over its outermost entries (the package and
    any submodule not imported from within it); numpy submodules that scipy
    imports lazily therefore count in both numpy and scipy.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spopo.cli"],
                          cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2]
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), int(fields[1]) * 1e-6))
    totals = {"spopo": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors: list[tuple[int, str]] = []
    for level, name, cumulative in reversed(entries):   # parents first
        while ancestors and ancestors[-1][0] >= level:
            ancestors.pop()
        package = name.partition(".")[0]
        if package in totals and not any(a.partition(".")[0] == package
                                         for _, a in ancestors):
            totals[package] += cumulative
        ancestors.append((level, name))
    return {f"import.{pkg}_s": (seconds, "s") for pkg, seconds in totals.items()}


def in_process_pass(cli, cfg_path: Path, outdir: Path, tracer: Tracer | None):
    """Wall time and exit codes of the four subcommands run through cli.main."""
    codes = {}
    start = time.perf_counter()
    for cmd in COMMANDS:
        span = tracer.open("cli.main") if tracer else None
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes[cmd] = cli.main([cmd, "--config", str(cfg_path), "--out", str(outdir)])
        except Exception:   # keep measuring; the invocation counts as failed
            traceback.print_exc()
            codes[cmd] = -1
        finally:
            if span is not None:
                tracer.close(span)
    return time.perf_counter() - start, codes


def measure_layers(cfg_path: Path, workdir: Path, seconds: float,
                   oracle: Oracle, rng: random.Random):
    imports = import_breakdown(child_env())
    sys.path.insert(0, str(SRC))
    import spopo.cli as cli

    tracer = Tracer()
    untraced, traced, per_pass, written, failures = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for tracing in (False, True):
            outdir = fresh_dir(workdir / "out")
            if tracing:
                tracer.run_id = len(traced)
                tracer.install()
            try:
                elapsed, codes = in_process_pass(cli, cfg_path, outdir,
                                                 tracer if tracing else None)
            finally:
                tracer.uninstall()
            (traced if tracing else untraced).append(elapsed)
            if tracing:
                per_pass.append(pass_metrics(
                    [s for s in tracer.spans if s["run"] == tracer.run_id]))
                written.append(sum(p.stat().st_size for p in outdir.iterdir()))
            for cmd in COMMANDS:
                attempted += 1
                problems = ([f"{cmd}: exit code {codes[cmd]}"] if codes[cmd]
                            else oracle.check(cmd, outdir, rng))
                failed += bool(problems)
                failures += problems

    (workdir / "spans.json").write_text(json.dumps(tracer.spans))
    metrics = dict(imports)
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "s":
            metrics[name] = (values, unit)
        else:
            if len(set(values)) != 1:
                failures.append(f"count {name} differs between passes: {values}")
            metrics[name] = (values[0], unit)
    if len(set(written)) != 1:
        failures.append(f"bytes written differ between passes: {written}")
    metrics["cli.bytes_written"] = (written[0], "B")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "fraction")
    return metrics, attempted, failed, failures


def run_record(workload: str, seed: int, why: str, scenario: dict,
               oracle: Oracle) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "why": why,
        "sizes": dict(oracle.sizes(), pump_ratio=scenario["pump"]["pump_ratio"]),
        "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "spopo" / "cli.py", BASE_CONFIG,
                                                  ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a spopo checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}[args.workload]
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}

    scenario, rng = make_scenario(args.workload, args.seed)
    workdir = fresh_dir(OUT / args.workload)
    cfg_path = workdir / "scenario.json"
    cfg_path.write_text(json.dumps(scenario, indent=2))
    oracle = Oracle(scenario)
    measure = measure_layers if args.trace else measure_end_to_end
    try:
        metrics, attempted, failed, failures = measure(
            cfg_path, workdir, args.seconds, oracle, rng)
    except (RuntimeError, subprocess.CalledProcessError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    shutil.rmtree(workdir / "out", ignore_errors=True)

    record = run_record(args.workload, args.seed, why, scenario, oracle)
    record.update(attempted=attempted, failed=failed,
                  failed_frac=failed / attempted)
    result = {}
    for name, (value, unit) in metrics.items():
        if isinstance(value, list):
            record[f"{name} samples"] = describe(value)
            print(f"{name:<42} {statistics.median(value):>12.6g} {unit:<13} "
                  f"{describe(value)}")
            value = statistics.median(value)
        else:
            print(f"{name:<42} {value:>12.6g} {unit}")
        result[name] = {"value": value, "unit": unit}
    print(f"{'failed_frac':<42} {failed / attempted:>12.6g} fraction      "
          f"{failed} of {attempted} invocations")
    if declared != {name: m["unit"] for name, m in result.items()}:
        failures.append("reported metrics differ from those BENCHMARK.json declares")
    (workdir / "record.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print("run record: " + json.dumps(record))
    for problem in failures[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
