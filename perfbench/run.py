"""Benchmark of the `entloc` command line, driven from outside the package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from `src/` of the checkout; nothing is installed.
One client runs a closed loop: the next operation starts when the previous
one has finished.  An operation is one subcommand invocation: a fresh
`python -m entloc` process in `cli_session`, one `entloc.cli.main([...])`
call writing to a temporary file in the other workloads, which time their
operations after one warm-up operation.  Every output is checked (see
`checks.py`).

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` a
separate run reports the per-layer metrics: each operation is run once
plainly and once under the outside-in tracer (`tracer.py`), and the
difference is reported as the tracing overhead.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import checks
import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

LAYERS = ("cli", "protocol", "states", "fock_oracle", "measures", "qmat", "params", "reference")
HOT_FUNCTIONS = (
    "fock_oracle.simulate",
    "fock_oracle.apply_beamsplitter",
    "fock_oracle.branch_probabilities",
    "fock_oracle.hom_coincidence",
    "measures.concurrence",
    "measures.fidelity",
    "measures.chsh_max",
    "qmat.validate_density_matrix",
    "qmat.matrix_sqrt_psd",
    "protocol.stage3_filter",
)

# Timings are normalised against a reference measured next to each one,
# because a shared virtual machine can change speed by 20-50% from one
# minute to the next.  A normalised time is the wall time multiplied by
# NOMINAL / (median of the REFERENCE_WINDOW references nearest to it):
# in-process operations against `reference_work()`, launches against a bare
# interpreter launch.  The nominal durations are fixed constants, so a
# normalised time reads as wall time on a machine that runs each reference in
# exactly its nominal duration.  Raw wall medians are printed alongside.
WORK_NOMINAL_S = 0.002
LAUNCH_NOMINAL_S = 0.06
REFERENCE_WINDOW = 5
REFERENCE_MATRIX = np.array([[2, 1, 0, 0], [1, 2, 1, 0], [0, 1, 2, 1], [0, 0, 1, 2]], dtype=complex)

SETUP_LAUNCHES = 7  # measured launches, after one unmeasured warm-up
IMPORT_RUNS = 5
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 99.0, 99.9)  # the usual reporting percentiles
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
WALL_LIMIT = 3.0  # a run's wall time is at most this many times --seconds
# Median seconds by which a traced operation may exceed its root spans.  The
# harness alone leaves about 10-40 us; `cli.main` has about 0.5 ms of self
# time, so a run whose entry point escaped the tracer exceeds this.
ROOT_GAP_TOL = 2e-4
PROBE = "import entloc.cli; print('ready', flush=True)"
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def reference_work() -> float:
    """Fixed work shaped like the program's, in seconds.

    Small dense linear algebra and dict-keyed complex arithmetic driven from
    Python: the mix of the analytic path and of the oracle.  A reference with
    both tracks the machine's speed on every workload better than either alone.
    """
    start = time.perf_counter()
    acc = 0.0
    amplitudes: dict = {}
    for i in range(40):
        acc += float(np.linalg.eigvalsh(REFERENCE_MATRIX + i)[0])
        acc += float(np.real(np.trace(REFERENCE_MATRIX @ REFERENCE_MATRIX)))
        for j in range(25):
            key = (j & 1, j % 8, i % 5)
            amplitudes[key] = amplitudes.get(key, 0.0) + complex(j, 1) * 0.5j
    return time.perf_counter() - start


def reference_launch(env: dict) -> float:
    """Wall seconds of a bare interpreter launch."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
    return time.perf_counter() - start


def normalise(raw: list, references: list, nominal: float) -> list:
    """Scale each time by nominal / median of the references nearest to it."""
    half = REFERENCE_WINDOW // 2
    return [
        t * nominal / statistics.median(references[max(0, i - half): i + half + 1])
        for i, t in enumerate(raw)
    ]


def launch_to_ready(env: dict) -> float:
    """Seconds from launching an interpreter until `entloc.cli` is imported."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


def measure_setup(env: dict) -> tuple[float, float]:
    """(normalised, raw) median seconds from launch until `entloc.cli` is ready."""
    launch_to_ready(env)  # compiles the checkout's bytecode on a first run
    raw, references = [], []
    for _ in range(SETUP_LAUNCHES):
        references.append(reference_launch(env))
        raw.append(launch_to_ready(env))
    return statistics.median(normalise(raw, references, LAUNCH_NOMINAL_S)), statistics.median(raw)


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(numpy, entloc) cumulative import seconds from `-X importtime` output.

    entloc is the sum over the top-level `entloc*` imports (the package, then
    `entloc.cli` from `__main__`); numpy is its own cumulative entry wherever
    it is first imported, 0 when it is not imported at all.
    """
    numpy_us = entloc_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        top_level = name.startswith(" ") and not name.startswith("  ")
        name = name.strip()
        if name == "numpy":
            numpy_us += int(cumulative)
        elif top_level and (name == "entloc" or name.startswith("entloc.")):
            entloc_us += int(cumulative)
    if not entloc_us:
        raise RuntimeError("`-X importtime -m entloc` reported no entloc import")
    return numpy_us / 1e6, entloc_us / 1e6


def measure_imports(env: dict) -> dict:
    """Median raw seconds of a bare launch and of the numpy and entloc imports."""
    interpreter, numpy_s, entloc_s = [], [], []
    for _ in range(IMPORT_RUNS):
        interpreter.append(reference_launch(env))
        result = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "entloc"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        numpy_one, entloc_one = parse_importtime(result.stderr)
        numpy_s.append(numpy_one)
        entloc_s.append(entloc_one)
    return {
        "import.interpreter_s": statistics.median(interpreter),
        "import.numpy_s": statistics.median(numpy_s),
        "import.entloc_s": statistics.median(entloc_s),
    }


def sloc() -> dict:
    """Line count of each layer's module, and of all package sources."""
    package = SRC / "entloc"
    counts = {f"{layer}.sloc": (package / f"{layer}.py").read_bytes().count(b"\n") for layer in LAYERS}
    counts["total.sloc"] = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    return counts


def provenance(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "entloc").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            sources.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        revision = result.stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": revision,
        "sources_sha256": sources.hexdigest(),
        "sloc": sloc(),
    }


class Outcomes:
    """Attempted and failed operations, with the first few problems logged."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def record(self, argv, exit_code, text) -> None:
        self.attempted += 1
        problems = checks.check_output(argv, exit_code, text, self.golden)
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"FAILED {checks.key(argv)}: {'; '.join(problems[:3])}", file=sys.stderr)


def read_output(path: Path) -> str | None:
    try:
        return path.read_bytes().decode("utf-8", errors="replace")  # bad bytes fail the checks
    except FileNotFoundError:
        return None


def call_main(cli, argv, out: Path) -> tuple[float, object]:
    """Time one in-process operation; returns (seconds, exit code)."""
    start = time.perf_counter()
    try:
        code = cli.main([*argv, "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code


def warm_up(cli, ops, out: Path, outcomes: Outcomes) -> None:
    argv = next(ops)
    out.unlink(missing_ok=True)
    _, code = call_main(cli, argv, out)
    outcomes.record(argv, code, read_output(out))


def timed_loop(step, reference, nominal: float, seconds: float, rounds: int) -> tuple[list, list]:
    """Run `step` in a closed loop, measuring `reference` before each call.

    `step()` performs one operation and returns the seconds it timed.  The
    loop ends after `seconds` of normalised time, so that a run holds about
    the same number of operations however fast the machine is at the moment,
    or after WALL_LIMIT times that in wall time; either way only at the end
    of a round of the workload's mix.  Returns (raw times, references).
    """
    raw, references = [], []
    normalised = 0.0
    deadline = time.perf_counter() + WALL_LIMIT * seconds
    while (normalised < seconds and time.perf_counter() < deadline) or len(raw) % rounds:
        references.append(reference())
        raw.append(step())
        normalised += raw[-1] * nominal / references[-1]
    return raw, references


def run_in_process(ops, rounds: int, seconds: float, out: Path, outcomes: Outcomes) -> tuple[list, list, float]:
    """(raw op seconds, normalised op seconds, peak RSS in MB) of the timed phase."""
    from entloc import cli

    def step() -> float:
        argv = next(ops)
        out.unlink(missing_ok=True)
        elapsed, code = call_main(cli, argv, out)
        outcomes.record(argv, code, read_output(out))
        return elapsed

    warm_up(cli, ops, out, outcomes)
    raw, references = timed_loop(step, reference_work, WORK_NOMINAL_S, seconds, rounds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return raw, normalise(raw, references, WORK_NOMINAL_S), peak_mb


def run_processes(ops, rounds: int, seconds: float, out: Path, env: dict, outcomes: Outcomes) -> tuple[list, list, float]:
    """(raw op seconds, normalised op seconds, largest child peak RSS in MB)."""
    stderr_path = out.with_name("stderr.txt")
    peak_kb = 0

    def step() -> float:
        nonlocal peak_kb
        argv = next(ops)
        out.unlink(missing_ok=True)
        with open(stderr_path, "wb") as stderr:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "entloc", *argv, "--out", str(out)],
                stdout=subprocess.DEVNULL, stderr=stderr, env=env, cwd=ROOT,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        peak_kb = max(peak_kb, usage.ru_maxrss)
        if code != 0:
            code = f"{code}: {stderr_path.read_text(errors='replace').strip()[-300:]}"
        outcomes.record(argv, code, read_output(out))
        return elapsed

    raw, references = timed_loop(step, lambda: reference_launch(env), LAUNCH_NOMINAL_S, seconds, rounds)
    return raw, normalise(raw, references, LAUNCH_NOMINAL_S), peak_kb / 1024.0


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest of TAIL_PERCENTILES with TAIL_BEYOND samples above it."""
    n = len(times)
    percentile = max((p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_BEYOND), default=50.0)
    return statistics.quantiles(times, n=1000, method="inclusive")[round(10 * percentile) - 1], percentile


def end_to_end(args, env: dict, out: Path, outcomes: Outcomes) -> tuple[dict, dict]:
    setup_s, raw_setup_s = measure_setup(env)
    ops = workloads.operations(args.workload, args.seed)
    rounds = workloads.ROUND[args.workload]
    if args.workload in workloads.IN_PROCESS:
        raw, times, peak_mb = run_in_process(ops, rounds, args.seconds, out, outcomes)
    else:
        raw, times, peak_mb = run_processes(ops, rounds, args.seconds, out, env, outcomes)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.tail": (tail_s, "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "ok_rate": (1.0 - outcomes.failed / outcomes.attempted, "ratio"),
    }
    notes = {
        "timed_ops": len(times),
        "tail_percentile": tail_pct,
        "setup_launches": SETUP_LAUNCHES,
        "raw_setup_s": raw_setup_s,
        "raw_op_s.p50": statistics.median(raw),
        "raw_op_s.tail": tail(raw)[0],
        "raw_ops_per_s": len(raw) / sum(raw),
    }
    return metrics, notes


def traced(args, env: dict, out: Path, outcomes: Outcomes) -> tuple[dict, dict]:
    from entloc import cli

    modules = [importlib.import_module(f"entloc.{layer}") for layer in LAYERS]
    originals = [dict(vars(module)) for module in modules]
    metrics = {name: (value, "s") for name, value in measure_imports(env).items()}
    metrics.update({name: (value, "lines") for name, value in sloc().items()})

    ops = workloads.operations(args.workload, args.seed)
    rounds = workloads.ROUND[args.workload]
    plain, wrapped, summaries, sizes = [], [], [], []

    def step() -> float:
        argv = next(ops)
        out.unlink(missing_ok=True)
        elapsed, code = call_main(cli, argv, out)
        plain.append(elapsed)
        outcomes.record(argv, code, read_output(out))
        out.unlink(missing_ok=True)
        with Tracer(modules) as tracer:
            elapsed, code = call_main(cli, argv, out)
            summary = tracer.take()
        wrapped.append(elapsed)
        text = read_output(out)
        outcomes.record(argv, code, text)
        sizes.append(len(text.encode("utf-8")) if text is not None else 0)
        summaries.append(summary)
        return plain[-1] + wrapped[-1]

    warm_up(cli, ops, out, outcomes)
    _, references = timed_loop(step, reference_work, WORK_NOMINAL_S, args.seconds, rounds)

    # The layer self times sum to the root spans by construction; the roots
    # must in turn cover the traced operation, or its entry point was missed.
    problems = []
    root_gap = statistics.median(w - s.root_s for w, s in zip(wrapped, summaries))
    if root_gap > ROOT_GAP_TOL:
        problems.append(f"layer self times miss {root_gap * 1e6:.0f} us of the median traced operation")
    for module, before in zip(modules, originals):
        changed = [name for name, obj in vars(module).items() if before.get(name) is not obj]
        if changed:
            problems.append(f"{module.__name__} attributes not restored: {changed}")

    # per-operation means of normalised times (see WORK_NOMINAL_S)
    n = len(summaries)
    scale = normalise([1.0] * n, references, WORK_NOMINAL_S)

    def mean(values) -> float:
        return sum(k * v for k, v in zip(scale, values)) / n

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (mean(s.self_s.get(layer, 0.0) for s in summaries), "s")
        metrics[f"{layer}.calls"] = (sum(s.calls.get(layer, 0) for s in summaries) / n, "count")
        metrics[f"{layer}.raised"] = (sum(s.raised.get(layer, 0) for s in summaries) / n, "count")
    for name in HOT_FUNCTIONS:
        metrics[f"{name}.incl_s"] = (mean(s.incl_s.get(name, 0.0) for s in summaries), "s")
    metrics["cli.output_bytes"] = (sum(sizes) / n, "bytes")
    metrics["trace.root_s"] = (mean(s.root_s for s in summaries), "s")
    metrics["trace.op_s"] = (mean(wrapped), "s")
    metrics["trace.untraced_op_s"] = (mean(plain), "s")
    metrics["trace.overhead_s"] = (mean(w - p for w, p in zip(wrapped, plain)), "s")
    metrics["trace.overhead_share"] = ((sum(wrapped) - sum(plain)) / sum(plain), "ratio")
    notes = {"traced_ops": n, "problems": problems, "root_gap_s": root_gap, "raw_trace.untraced_op_s": sum(plain) / n}
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "entloc" / "cli.py").is_file():
        print(f"error: no entloc sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import entloc

    if not Path(entloc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: entloc was imported from {entloc.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = child_env()
    golden = checks.load_golden()
    outcomes = Outcomes(golden)
    selftest_problems = checks.perturbation_selftest(golden)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        out = Path(tmp) / "output"
        if args.trace:
            metrics, notes = traced(args, env, out, outcomes)
        else:
            metrics, notes = end_to_end(args, env, out, outcomes)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {metric["name"] for metric in spec["per_layer" if args.trace else "end_to_end"]}
    problems = selftest_problems + notes.pop("problems", [])
    if listed != set(metrics):
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(listed ^ set(metrics))}")
    for problem in problems:
        print(f"FAILED self-check: {problem}", file=sys.stderr)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(json.dumps({"provenance": {**provenance(args.workload, args.seed), **notes}}))
    print(json.dumps({
        "correct": outcomes.failed == 0 and not problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
