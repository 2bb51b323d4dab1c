"""cpmkm benchmark: drives the `cpmkm` CLI in-process on generated inputs.

    python3 perfbench/run.py --workload adapt-grid --seed 1 --seconds 50 --trace 0

Run from the repository root.  One process, one caller, closed loop: the next
CLI call starts when the previous one has returned and been checked.  With
`--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds per-layer metrics from a traced run (see
perfbench/NOTES.md).  A line with the run environment precedes it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 3   # input generation repetitions
IMPORT_REPS = 5  # fresh-interpreter import timings
GTOL = 1e-6      # klr_fit's default gradient tolerance


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def invoke(args: list[str]) -> dict:
    """One in-process CLI call; returns exit code, wall time and captured stderr.

    The CLI's stdout is captured too, so that the result stays the last line.
    """
    from cpmkm.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main.main(args=args, prog_name="cpmkm", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash counts as a failed operation
        code = -1
        err.write(traceback.format_exc())
    wall = time.perf_counter() - t0
    return {"code": code, "wall": wall, "stderr": err.getvalue()}


def run_op(workload, inputs) -> dict:
    """Call the CLI once, then check its output outside the timed region."""
    from workloads import CheckFailed

    inputs.out_path.unlink(missing_ok=True)
    res = invoke(inputs.args)
    res["error"] = None
    if res["code"] != 0:
        res["error"] = f"exit code {res['code']}: {res['stderr'].strip()[-500:]}"
    else:
        try:
            res["quality"] = workload.check(inputs.out_path, inputs.truth)
        except (CheckFailed, KeyError, ValueError, TypeError) as exc:
            res["error"] = f"output check failed: {exc!r}"
    if res["error"]:
        print(f"[{workload.name}] {res['error']}", file=sys.stderr)
    return res


def loop(workload, inputs, seconds: float, refs: list | None = None) -> list[dict]:
    """Closed loop: one call, then another while the median call so far says
    it will end within `seconds`.  With `refs`, the reference computation is
    timed before the first call and after each call, and appended there."""
    ops, t0 = [], time.perf_counter()
    if refs is not None:
        refs.append(reference_seconds())
    while not ops or (time.perf_counter() - t0
                      + statistics.median(op["wall"] for op in ops)) <= seconds:
        ops.append(run_op(workload, inputs))
        if refs is not None:
            refs.append(reference_seconds())
    return ops


def reference_seconds() -> float:
    """Time a fixed computation that uses no cpmkm code.

    The host's speed drifts by +-25 % over tens of seconds, for every process
    on it.  Timed between the CLI calls, this computation drifts with them,
    and `wall_rel` divides that drift out.
    It mixes what the workloads do: softmax-regression steps on small
    products, with Python overhead per step, as in the KLR fits; then RBF
    Gram blocks, as in the predictions.  The blocks go into one preallocated
    buffer: a fresh large array would be mapped and faulted in, at a cost
    that depends on how the calls before left the allocator.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((200, 200))
    y = rng.integers(0, 3, 200)
    rows = np.arange(200)
    a = np.zeros((200, 3))
    p, q = rng.standard_normal((500, 20)), rng.standard_normal((600, 20))
    d2 = np.empty((500, 600))
    p_sq, q_sq = (p * p).sum(axis=1)[:, None], (q * q).sum(axis=1)[None, :]
    t0 = time.perf_counter()
    for _ in range(8000):   # gradient steps of a softmax regression
        s = x @ a
        s -= s.max(axis=1, keepdims=True)
        prob = np.exp(s)
        prob /= prob.sum(axis=1, keepdims=True)
        prob[rows, y] -= 1.0
        a -= 1e-3 * (x.T @ prob / 200 + 1e-3 * a)
    for _ in range(200):    # exp(-squared distance / 20), in place
        np.matmul(p, q.T, out=d2)
        d2 *= 2.0
        d2 -= p_sq
        d2 -= q_sq
        d2 /= 20.0
        np.exp(d2, out=d2)
        d2.sum()
    return time.perf_counter() - t0


def setup(workload, seed: int):
    """Generate and write the inputs SETUP_REPS times; returns inputs and times."""
    times = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(WORK, ignore_errors=True)
        WORK.mkdir(parents=True)
        t0 = time.perf_counter()
        inputs = workload.make_inputs(seed, WORK)
        times.append(time.perf_counter() - t0)
    return inputs, times


def import_seconds() -> list[float]:
    """Time `import cpmkm.cli` in IMPORT_REPS fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import cpmkm.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=120).stdout)
            for _ in range(IMPORT_REPS)]


def quality_metrics(ok_ops: list[dict]) -> dict:
    """Pooled over calls: q_gain = 1 - sum MSE(q_hat) / sum MSE(no adaptation)."""
    out = {}
    for name in ok_ops[0]["quality"]:
        mse = sum(op["quality"][name]["mse"] for op in ok_ops)
        mse0 = sum(op["quality"][name]["mse0"] for op in ok_ops)
        out[name] = {"q_gain": 1.0 - mse / mse0,
                     "acc": statistics.fmean(op["quality"][name]["acc"] for op in ok_ops)}
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(ops, refs, setup_s) -> dict:
    ok = [op for op in ops if not op["error"]]
    # each call against the mean of the reference timings on either side of it
    rel = [op["wall"] * 2.0 / (refs[i] + refs[i + 1]) for i, op in enumerate(ops)]
    table = {
        "setup_s": setup_s,
        "wall_rel": statistics.median(rel),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": len(ok) / len(ops),
    }
    if ok:
        q = quality_metrics(ok)["cpmkm"]
        table["q_gain.cpmkm"] = q["q_gain"]
        table["acc.cpmkm"] = q["acc"]
    return table


def traced_run(workload, inputs, seed: int, seconds: float):
    """One untraced call, then traced calls while they fit in `seconds`.

    Returns the calls, a per-layer table (counts and times per traced call)
    and the self-check problems found.
    """
    import numpy as np
    import spans

    from cpmkm.kernel import gram
    from cpmkm.klr import klr_gradient

    t0 = time.perf_counter()
    untraced = run_op(workload, inputs)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        traced = loop(workload, inputs, seconds - (time.perf_counter() - t0))
    finally:
        restore()
    ops, n = [untraced] + traced, len(traced)

    # post-hoc convergence check of every traced fit, outside the timed calls
    unconverged = 0
    for data, kernel, lam, alpha in tracer.fits:
        grad = klr_gradient(alpha, gram(data.features, data.features, kernel),
                            data.labels, lam)
        unconverged += int(np.abs(grad).max() > GTOL)

    stats = tracer.by_name()
    table = {}
    for layer, s in stats.items():
        calls = len(s["dur"])
        table[f"{layer}.calls"] = calls / n
        table[f"{layer}.self_s"] = float(s["self"].sum()) / n
        if calls:
            pct = spans.tail_percentile(calls)
            table[f"{layer}.span_p50_s"] = float(np.median(s["dur"]))
            # below 20 spans no percentile has 10 beyond it: report the maximum
            table[f"{layer}.span_tail_s"] = float(np.percentile(s["dur"], pct or 100.0))
            table[f"{layer}.span_tail_pct"] = pct or 100.0
    for key, total in tracer.counters.items():
        table[key] = total / n
    table["klr.klr_fit.unconverged"] = unconverged / n
    traced_wall = statistics.median(op["wall"] for op in traced)
    table["trace.wall_s"] = traced_wall
    table["trace.overhead_s"] = traced_wall - untraced["wall"]
    table["trace.spans"] = len(tracer.dur) / n
    ok = [op for op in ops if not op["error"]]
    if ok:
        for name, q in quality_metrics(ok).items():
            if name != "cpmkm":
                table[f"baselines.{name}.q_gain"] = q["q_gain"]
                table[f"baselines.{name}.acc"] = q["acc"]

    # self-check: traced call counts against those the workload parameters imply
    problems = []
    for layer, want in workload.expected_calls().items():
        got = len(stats[layer]["dur"])
        if got != want * n:
            problems.append(f"{layer}: {got} traced calls in {n} runs, expected {want * n}")
    if not len(stats["kernel.gram"]["dur"]):
        problems.append("kernel.gram: no traced calls (a by-name import was missed)")
    if any(op["quality"] != ok[0]["quality"] for op in ok):
        problems.append("traced and untraced calls returned different outputs")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{seed}"
    np.savez_compressed(f"{stem}-spans.npz", names=np.array(tracer.names), **tracer.arrays())
    Path(f"{stem}-layers.json").write_text(json.dumps(table, indent=1, sort_keys=True))
    return ops, table, problems


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_info(np),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def blas_info(np) -> dict:
    """BLAS library name/version from numpy's build config and its thread count."""
    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    info["threads"] = blas_threads()
    return info


def blas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit():
    """HEAD commit, or None outside a git clone or without git."""
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def select(spec: list[dict], table: dict) -> dict:
    """The metrics BENCHMARK.json names, in its order.  A layer the workload
    never reaches reads 0."""
    return {e["name"]: {"value": float(table.get(e["name"], 0.0)), "unit": e["unit"]}
            for e in spec}


def main(argv=None) -> int:
    opts = parse_args(argv)
    # One BLAS thread, set before numpy loads.  On a 2-vCPU host the default
    # second thread spins on every small product: it doubles CPU time, gains no
    # wall time on adapt-grid and ties each run to the load on both vCPUs.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "cpmkm" / "__init__.py").is_file():
        print(f"error: no cpmkm sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import cpmkm.cli  # noqa: F401  (loaded before the first timed call)
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS.get(opts.workload)
    if workload is None:
        print(f"error: unknown workload {opts.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        inputs, setup_times = setup(workload, opts.seed)
        import_times, refs = [], []
        if opts.trace:
            ops, table, problems = traced_run(workload, inputs, opts.seed, opts.seconds)
            metrics = select(spec["per_layer"], table)
        else:
            import_times = import_seconds()
            ops, problems = loop(workload, inputs, opts.seconds, refs), []
            setup_s = statistics.median(import_times) + statistics.median(setup_times)
            metrics = select(spec["end_to_end"], end_to_end(ops, refs, setup_s))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        print(f"[{workload.name}] trace self-check: {p}", file=sys.stderr)
    failed = sum(1 for op in ops if op["error"])
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(workload.name)
    print(json.dumps({"workload": workload.name, "why": why, "params": workload.params,
                      "seed": opts.seed, "trace": opts.trace,
                      "wall_s": [op["wall"] for op in ops], "reference_s": refs,
                      "setup_reps_s": setup_times,
                      "import_reps_s": import_times, "env": environment()}))
    result = {"correct": failed == 0 and not problems, "attempted": len(ops),
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
