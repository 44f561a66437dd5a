"""corrseg benchmark: time the CLI chain end to end and, traced, per layer.

Run from the repository root:

    python3 perfbench/run.py --workload chain-5x500 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Each sample runs one workload's CLI chain in a fresh interpreter
(sample.py) with BLAS/OpenMP threads capped at the CPU count; samples
repeat until --seconds have passed. Outputs are checked after every
sample, outside the timed region. --trace 0 reports the end-to-end
metrics of BENCHMARK.json; --trace 1 alternates untraced and traced
samples and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object; work files, the
result file and the span file go under .perfbench/ in the repository.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORK = ".perfbench"
DEFAULT_SEED = 1
SETUP_REPEATS = 11
SAMPLE_TIMEOUT_S = 150
COMMAND_TIMES = {"segment_s": "segment", "test_s": "test", "correct_s": "correct"}
IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import corrseg; print(time.perf_counter() - t)"
)


def _paths(workload: str) -> tuple[str, str, str]:
    work = os.path.join(WORK, workload)
    return work, os.path.join(work, "inputs"), os.path.join(work, "out")


def plan_chain(seed: int, tiny: bool):
    """simulate -> segment -> test -> evaluate on the default 5 x 500 scenario."""
    _, _, out = _paths("chain-5x500")
    sim = os.path.join(out, "simulate")
    size = ["--p", "150"] if tiny else []
    expr = [f"--input={sim}/expression.tsv", f"--annotation={sim}/annotation.tsv"]
    steps = [
        ["simulate", "--scenario", "1", "--rho0", "0.08", "--rho1", "0.7", "--n", "58",
         "--seed", str(seed), *size, "--out", sim],
        ["segment", *expr, "--trace", "--out", f"{out}/segment"],
        ["test", *expr, f"--segmentation={out}/segment/segmentation.tsv", "--out", f"{out}/test"],
        ["evaluate", f"--truth={sim}/truth.tsv", f"--regions={out}/test/regions.tsv",
         "--out", f"{out}/evaluate"],
    ]
    return steps, set(), f"{sim}/annotation.tsv"


def plan_chromosome(seed: int, tiny: bool):
    """segment -> test on one generated chromosome; evaluate is untimed."""
    _, ins, out = _paths("chr-2000")
    inputs.one_chromosome(ins, seed, p=200 if tiny else 2000)
    expr = [f"--input={ins}/expression.tsv", f"--annotation={ins}/annotation.tsv"]
    steps = [
        ["segment", *expr, "--trace", "--out", f"{out}/segment"],
        ["test", *expr, f"--segmentation={out}/segment/segmentation.tsv", "--out", f"{out}/test"],
        ["evaluate", f"--truth={ins}/truth.tsv", f"--regions={out}/test/regions.tsv",
         "--out", f"{out}/evaluate"],
    ]
    return steps, {"evaluate"}, f"{ins}/annotation.tsv"


def plan_correct(seed: int, tiny: bool):
    """correct -> segment -> test on the corrected matrix; evaluate is untimed."""
    _, ins, out = _paths("correct-cnv")
    size = {"p": 60, "probes": 90} if tiny else {}
    inputs.covariate_chromosomes(ins, seed, **size)
    ann = f"--annotation={ins}/annotation.tsv"
    corrected = [f"--input={out}/correct/corrected.tsv", ann]
    steps = [
        ["correct", f"--input={ins}/expression.tsv", ann, f"--covariate={ins}/covariate.tsv",
         "--out", f"{out}/correct"],
        ["segment", *corrected, "--trace", "--out", f"{out}/segment"],
        ["test", *corrected, f"--segmentation={out}/segment/segmentation.tsv",
         "--out", f"{out}/test"],
        ["evaluate", f"--truth={ins}/truth.tsv", f"--regions={out}/test/regions.tsv",
         "--out", f"{out}/evaluate"],
    ]
    return steps, {"evaluate"}, f"{ins}/annotation.tsv"


PLANS = {"chain-5x500": plan_chain, "chr-2000": plan_chromosome, "correct-cnv": plan_correct}


def child_env() -> dict[str, str]:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def measure_setup(env: dict, repeats: int) -> tuple[list[float], int]:
    """Cold `import corrseg` in fresh interpreters: (times, failures)."""
    times, failed = [], 0
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER], env=env, capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
        if proc.returncode == 0:
            times.append(float(proc.stdout))
        else:
            failed += 1
            sys.stderr.write(proc.stderr)
    return times, failed


def run_sample(workload: str, steps, traced: bool, trace_id: str, env: dict) -> dict | None:
    work, _, out = _paths(workload)
    shutil.rmtree(out, ignore_errors=True)
    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "sample.json")
    with open(plan_path, "w") as fh:
        json.dump({"steps": steps, "trace": traced, "trace_id": trace_id,
                   "result": result_path}, fh)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "sample.py"), plan_path],
            env=env, stdout=subprocess.DEVNULL, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)
    return result


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else float("nan")


def _best(values: list[float]) -> float:
    """Fastest sample. On a shared host the noise is interference that only
    adds time, and it switches between a fast and a slow regime; the
    minimum over a run's samples repeats far better than the median."""
    return float(min(values)) if values else float("nan")


def auc_values(out: str) -> dict[str, float]:
    try:
        rows = checks.read_table(os.path.join(out, "evaluate", "auc.tsv"))
        return {f"{r['level']}_auc": float(r["auc"]) for r in rows}
    except (OSError, KeyError, ValueError):
        return {}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 after_sample=None) -> dict:
    """Generate inputs, run samples for `seconds`, check and aggregate.

    after_sample(out_dir) runs between a sample and its checks; the
    self-test uses it to corrupt an output file.
    """
    work, _, out = _paths(workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steps, untimed, annotation = PLANS[workload](seed, tiny)
    env = child_env()
    attempted = failed = 0
    failures: list[str] = []

    setup_times = []
    if not trace:
        setup_times, setup_failed = measure_setup(env, SETUP_REPEATS)
        attempted += SETUP_REPEATS
        failed += setup_failed
        if setup_failed:
            failures.append(f"import corrseg failed {setup_failed} times")

    expected = None
    if seed == DEFAULT_SEED and not tiny:
        with open(os.path.join(HERE, "digests.json")) as fh:
            expected = json.load(fh)[workload]
    first_digests = None
    samples: list[dict] = []
    spans: list[dict] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() < deadline:
        traced = trace and index % 2 == 1
        trace_id = f"{workload}:{seed}:{index}"
        result = run_sample(workload, steps, traced, trace_id, env)
        index += 1
        attempted += len(steps)
        if result is None:
            failed += len(steps)
            failures.append(f"sample {index - 1} did not finish")
            continue
        bad = [c["name"] for c in result["commands"] if c["rc"] != 0]
        failed += len(bad)
        failures += [f"sample {index - 1}: corrseg {name} failed" for name in bad]
        if after_sample is not None:
            after_sample(out)
        found = checks.digests(out)
        results = checks.invariants(out, annotation)
        if first_digests is None:
            first_digests = found
        else:
            results.append(checks.compare_digests("same_as_first_sample", found, first_digests))
        if expected is not None:
            results.append(checks.compare_digests("default_seed_digests", found, expected))
        attempted += len(results)
        for name, ok, detail in results:
            if not ok:
                failed += 1
                failures.append(f"sample {index - 1}: {name}: {detail}")
        if bad or any(not ok for _, ok, _ in results):
            continue
        timed = [c for c in result["commands"] if c["name"] not in untimed]
        sample = {
            "traced": traced,
            "wall_s": sum(c["seconds"] for c in timed),
            "peak_rss_mb": result["peak_rss_mb"],
            **{m: sum(c["seconds"] for c in timed if c["name"] == cmd)
               for m, cmd in COMMAND_TIMES.items()},
            **auc_values(out),
        }
        if traced:
            sample["layers"] = tracing.layer_metrics(result["spans"], untimed)
            spans += result["spans"]
        samples.append(sample)

    genes = sum(checks.chromosome_sizes(annotation).values()) if os.path.exists(annotation) else 0
    untraced = [s for s in samples if not s["traced"]]
    traced_samples = [s for s in samples if s["traced"]]
    metrics: dict[str, float] = {}
    medians: dict[str, float] = {}
    if not trace:
        for name in ("wall_s", "segment_s", "test_s"):
            metrics[name] = _best([s[name] for s in untraced])
            medians[name] = _median([s[name] for s in untraced])
        for name in ("peak_rss_mb", "gene_auc", "region_auc"):
            metrics[name] = _median([s[name] for s in untraced if name in s])
        metrics["genes_per_s"] = genes / _best([s["segment_s"] + s["test_s"] for s in untraced])
        metrics["setup_s"] = _median(setup_times)
    else:
        layer_names = traced_samples[0]["layers"]["total"] if traced_samples else {}
        for name in layer_names:
            values = [s["layers"]["total"][name] for s in traced_samples]
            metrics[name] = _best(values)
            if name in tracing.LAYER_COUNTS:
                attempted += 1
                if len(set(values)) > 1:
                    failed += 1
                    failures.append(f"computed count {name} differs between samples: {values}")
        metrics["cli.correct_s"] = _best([s["correct_s"] for s in untraced])
        metrics["trace.overhead_s"] = (
            _best([s["wall_s"] for s in traced_samples]) - _best([s["wall_s"] for s in untraced])
        )
        with open(os.path.join(work, "spans.jsonl"), "w") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    if not (untraced and (traced_samples or not trace)):
        failures.append("no sample passed its checks")
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "samples": len(samples),
        "sample_values": [{k: v for k, v in s.items() if k != "layers"} for s in samples],
        "setup_values": setup_times,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "medians": medians,
        "digests": first_digests or {},
        "per_command": traced_samples[0]["layers"] if traced_samples else {},
        "computed_counts": sorted(tracing.LAYER_COUNTS) if trace else [],
        "environment": environment(),
    }


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(result: dict, spec: dict) -> dict:
    """Print metrics with units; return the contract's result object."""
    key = "per_layer" if result["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[key]}
    env = result["environment"]
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"samples={result['samples']} python={env['python']} numpy={env['numpy']} "
          f"blas={env['blas']} cpus={env['cpus_usable']}/{env['cpus']}")
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"].get(name, float("nan"))
        median = result["medians"].get(name)
        shown = f"   (best of {result['samples']}; median {median:.6f})" if median else ""
        print(f"{name:34s} {value:14.6f} {unit}{shown}")
        metrics[name] = {"value": None if math.isnan(value) else value, "unit": unit}
    share = result["failed"] / max(result["attempted"], 1)
    print(f"{'failed_share':34s} {share:14.6f} ({result['failed']}/{result['attempted']})")
    for line in result["failures"]:
        print(f"FAILED {line}", file=sys.stderr)
    if result["trace"]:
        print("# per command (first traced sample; counts are computed, not sampled)")
        for command, row in result["per_command"].items():
            shown = " ".join(f"{k}={v:.6g}" for k, v in row.items() if v)
            print(f"  {command}: {shown}")
    ok = result["failed"] == 0 and not result["failures"]
    return {"correct": ok, "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def selftest() -> int:
    """Tiny-size smoke run: every metric is emitted, corruption is counted."""
    spec = load_spec()
    problems = []
    for workload in PLANS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            out = report(run_workload(workload, DEFAULT_SEED, 0, trace, tiny=True), spec)
            missing = [name for name, m in out["metrics"].items() if m["value"] is None]
            if missing or not out["correct"]:
                problems.append(f"{workload} trace={int(trace)}: missing={missing} "
                                f"correct={out['correct']}")

    def corrupt(out_dir):
        path = os.path.join(out_dir, "test", "regions.tsv")
        with open(path) as fh:
            text = fh.read()
        lines = text.splitlines(keepends=True)
        fields = lines[1].split("\t")
        fields[8] = "1.5"  # p_value column
        lines[1] = "\t".join(fields)
        with open(path, "w") as fh:
            fh.write("".join(lines))

    result = run_workload("chain-5x500", DEFAULT_SEED, 0, False, tiny=True, after_sample=corrupt)
    if result["failed"] == 0:
        problems.append("a corrupted regions.tsv was not counted in failed_share")
    for problem in problems:
        print(f"SELFTEST FAILED {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*PLANS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny-size smoke run of every workload and check")
    args = parser.parse_args()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "corrseg", "__init__.py")):
        print("perfbench: src/corrseg not found; run from a corrseg checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    spec = load_spec()
    workloads = list(PLANS) if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    outs = [report(r, spec) for r in results]
    with open(os.path.join(WORK, f"results-trace{args.trace}.json"), "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    if len(outs) == 1:
        final = outs[0]
    else:
        final = {
            "correct": all(o["correct"] for o in outs),
            "attempted": sum(o["attempted"] for o in outs),
            "failed": sum(o["failed"] for o in outs),
            "metrics": {f"{w}.{k}": v for w, o in zip(workloads, outs) for k, v in o["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
