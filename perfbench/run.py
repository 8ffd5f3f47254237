#!/usr/bin/env python3
"""spoofsense benchmark: seeded workloads through the real CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root; spoofsense is imported from ./src.  For each
workload the benchmark generates its inputs from the seed, times set-up in
fresh interpreters, then runs the workload's closed loop in a worker
process (perfbench/worker.py) for --seconds and checks every output.  It
prints each metric by name with its unit, and as its last line one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json, measured untraced; with
--trace 1 they are the per-layer ones, from traced passes.  See
perfbench/README.md for the workloads and the layer -> end-to-end map.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import inputs
from speed import NOMINAL_S

WORKLOADS = ("extract-all", "cm-train-score", "eval-asv")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 3  # fresh interpreters per run, after one warm-up
IMPORT_SAMPLES = 3
SETUP_CODE = ("import time, spoofsense.cli, spoofsense.config; "
              "spoofsense.config.load_config(); print(repr(time.monotonic()))")


class BenchError(Exception):
    pass


def child_env(src):
    env = dict(os.environ)
    env.pop("SPOOFSENSE_CONFIG", None)  # set-up loads the default config
    env["PYTHONPATH"] = src
    # one BLAS thread (<= nproc): the MLP's small matrices gain nothing from
    # more, and a second thread on a shared 2-core machine adds noise
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def measure_setup(env):
    """Median seconds from spawning an interpreter to cli imported + config loaded."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        p = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env,
                           capture_output=True, text=True, timeout=60)
        if p.returncode != 0:
            raise BenchError("set-up import failed:\n" + p.stderr)
        if i:  # the first one may compile bytecode
            samples.append(float(p.stdout) - t0)
    return statistics.median(samples)


def measure_imports(env):
    """Median incremental import seconds per spoofsense module.

    From `-X importtime` in a fresh interpreter: a module's cumulative time
    minus that of the spoofsense modules it imports first, so third-party
    imports (scipy.signal under audio, say) count where they are pulled in.
    """
    samples = {}
    for _ in range(IMPORT_SAMPLES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spoofsense.cli"],
                           env=env, capture_output=True, text=True, timeout=60)
        if p.returncode != 0:
            raise BenchError("import failed:\n" + p.stderr)
        stack = []  # (depth, seconds covered by spoofsense modules) of finished subtrees
        for line in p.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumul, name = line[len("import time:"):].split("|")
            if not cumul.strip().isdigit():
                continue  # the header line
            depth = (len(name) - len(name.lstrip())) // 2
            name = name.strip()
            cumul = int(cumul) / 1e6
            covered = 0.0
            while stack and stack[-1][0] > depth:
                covered += stack.pop()[1]
            ours = name.startswith("spoofsense.")
            if ours:
                samples.setdefault(name[len("spoofsense."):], []).append(cumul - covered)
            stack.append((depth, cumul if ours else covered))
    return {m: statistics.median(v) for m, v in samples.items()}


def scaled(rec):
    """{command: seconds} of one pass, each scaled by NOMINAL_S over the mean
    reference-kernel time just before and after the command (see speed.py)."""
    refs = rec["ref_s"]
    return {label: s * 2 * NOMINAL_S / (refs[j] + refs[j + 1])
            for j, (label, s) in enumerate(rec["cmd_s"].items())}


def layer_value(name, rec, n_utts):
    """A per-layer metric of one traced pass."""
    layers = rec["layers"]
    if name.startswith("cli.extract.") and name.endswith(".wall_s"):
        return rec["cmd_s"].get("extract." + name[len("cli.extract."):-len(".wall_s")], 0.0)
    if name == "trace.wall_s":
        return rec["wall_s"]
    if name == "trace.self_sum_s":
        return sum(v[1] for v in layers.values())
    span, stat = name.rsplit(".", 1)
    calls, self_s, amount = layers.get(span, (0, 0.0, 0))
    if stat == "self_s":
        return self_s
    if stat == "calls":
        return calls
    if stat == "calls_per_utt":
        return calls / n_utts if n_utts else 0.0
    return amount  # bytes, rows, trials


COUNT_STATS = ("calls", "calls_per_utt", "bytes", "rows", "trials")


def run_workload(name, seed, seconds, trace, bench, root):
    src = os.path.join(root, "src")
    work = os.path.join(root, ".perfbench", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env(src)
    try:
        phases = [("start", time.monotonic())]
        setup_raw = measure_setup(env)
        phases.append(("set-up", time.monotonic()))
        imports = measure_imports(env) if trace else {}
        if name == "cm-train-score":  # writes its .ssft inputs with spoofsense.store
            sys.path.insert(0, src)
        spec = inputs.MAKERS[name](os.path.join(work, "inputs"), seed)
        phases.append(("inputs", time.monotonic()))
        os.sync()  # write the inputs back now, not in bursts during the timed loop
        phases.append(("sync", time.monotonic()))

        job = {"workload": name, "spec": spec, "seconds": seconds, "trace": bool(trace),
               "work": work, "spans_out": os.path.join(root, ".perfbench", name + ".spans.jsonl")
               if trace else None}
        job_path, result_path = os.path.join(work, "job.json"), os.path.join(work, "result.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        log_path = os.path.join(root, ".perfbench", name + ".log")
        with open(log_path, "w") as log:
            try:
                p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path,
                                    result_path], env=env, stdout=log, stderr=log,
                                   timeout=seconds + 120)
            except subprocess.TimeoutExpired:
                raise BenchError("worker exceeded %d s; see %s" % (seconds + 120, log_path))
        if p.returncode != 0 or not os.path.exists(result_path):
            raise BenchError("worker failed (exit %d); see %s" % (p.returncode, log_path))
        with open(result_path) as fh:
            result = json.load(fh)
        phases.append(("worker", time.monotonic()))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    phases.append(("cleanup", time.monotonic()))

    passes = result["passes"]
    timed = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    checks = [c for p in passes for c in p["checks"]]
    digests = {p["digest"] for p in passes}
    checks.append(("outputs identical across %d passes" % len(passes), len(digests) == 1,
                   " ".join(sorted(d[:12] for d in digests))))

    # a command's value is the median of its scaled times across passes
    cmd = {label: statistics.median(scaled(p)[label] for p in timed) for label in timed[0]["cmd_s"]}
    pass_s = sum(cmd.values())
    ref = statistics.median(x for p in passes for x in p["ref_s"])
    # Set-up time is scaled by the run's kernel median: a kernel timed next
    # to each interpreter tracked it no better than not scaling, but over
    # minutes the machine's speed moves both.
    setup_s = setup_raw * NOMINAL_S / ref
    wall = [p["wall_s"] for p in timed]
    lines = ["speed: reference kernel median %.5f s in the run (nominal %.5f s)" % (ref, NOMINAL_S),
             "pass_s %.4f s: sum of scaled per-command medians over %d passes "
             "(raw pass median %.4f s)" % (pass_s, len(timed), statistics.median(wall)),
             "setup_s %.4f s: median of %d interpreters, scaled by the run's kernel median "
             "(raw %.4f s)" % (setup_s, SETUP_SAMPLES, setup_raw),
             "run phases (s): " + ", ".join("%s %.1f" % (n, t - t0) for (_, t0), (n, t)
                                            in zip(phases, phases[1:]))]
    if name == "extract-all":
        lines.append("extract_audio_s_per_s %.4f audio-s/s (%.1f s of audio per pass)"
                     % (spec["audio_seconds"] / pass_s, spec["audio_seconds"]))
    elif name == "cm-train-score":
        lines.append("train_cm_s %.4f s" % cmd["train-cm"])
        lines.append("score_cm_utt_per_s %.2f utt/s" % (spec["n_utts"] / cmd["score-cm"]))
    else:
        n_trials = sum(spec["trial_counts"].values())
        lines.append("eval_rows_per_s %.1f rows/s (eer + tdcf over %d rows)" % (
            2 * spec["cm_rows"] / (cmd["eval-eer"] + cmd["eval-tdcf"]), spec["cm_rows"]))
        lines.append("asv_trials_per_s %.1f trials/s (pairs + score-asv, %d trials)" % (
            n_trials / (cmd["pairs"] + cmd["score-asv"]), n_trials))
    for p in timed:
        lines.append("  pass " + " ".join("%s=%.4f" % kv for kv in p["cmd_s"].items()))

    metrics = {}
    if not trace:
        values = {"setup_s": setup_s, "pass_s": pass_s, "peak_rss_mb": result["peak_rss_mb"]}
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        n_utts = len(spec["utts"]) if name == "extract-all" else 0
        for m in bench["per_layer"]:
            mod, _, rest = m["name"].partition(".")
            if rest == "import_s":
                value = imports.get(mod, 0.0)
            elif m["name"] == "trace.overhead_s":
                value = (statistics.median(sum(scaled(p).values()) for p in traced)
                         - statistics.median(sum(scaled(p).values()) for p in timed))
            else:
                per_pass = [layer_value(m["name"], p, n_utts) for p in traced]
                value = statistics.median(per_pass)
                if m["name"].rsplit(".", 1)[1] in COUNT_STATS:
                    checks.append(("count %s repeats" % m["name"], len(set(per_pass)) == 1,
                                   str(per_pass)))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        for p in traced:
            self_sum = sum(v[1] for v in p["layers"].values())
            gap = p["wall_s"] - self_sum
            checks.append(("self times sum to traced wall", abs(self_sum - p["roots_s"]) < 1e-6
                           and 0 <= gap < 0.01 * p["wall_s"], "wall %.6f self sum %.6f"
                           % (p["wall_s"], self_sum)))

    failed_checks = [c for c in checks if not c[1]]
    return {
        "workload": name, "seed": seed, "context": result["context"], "lines": lines,
        "failed_checks": failed_checks, "metrics": metrics,
        "attempted": sum(p["ops"] for p in passes) + len(checks),
        "failed": sum(p["failed_ops"] for p in passes) + len(failed_checks),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spoofsense", "cli.py")):
        sys.exit("perfbench: no src/spoofsense here; run from the repository root")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            r = run_workload(name, args.seed, max(1, args.seconds), args.trace, bench, root)
        except BenchError as e:
            sys.exit("perfbench %s: %s" % (name, e))
        results.append(r)
        print("== %s (seed %d, trace %d)" % (name, args.seed, args.trace))
        print("context " + json.dumps(dict(r["context"], seed=args.seed), sort_keys=True))
        for line in r["lines"]:
            print(line)
        for m, v in r["metrics"].items():
            print("%s %r %s" % (m, v["value"], v["unit"]))
        for c in r["failed_checks"]:
            print("CHECK FAILED %s: %s" % (c[0], c[2]))
        sys.stdout.flush()

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], m): v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(not r["failed_checks"] and r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
