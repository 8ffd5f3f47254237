"""One workload's closed loop, in a fresh interpreter.

    python3 perfbench/worker.py JOB_JSON RESULT_JSON

run.py writes the job (workload, generated-input spec, seconds, trace
flag) and reads the result.  The worker calls spoofsense.cli.main(argv)
in-process, one command after the other (a closed loop with one client),
and repeats the workload's command sequence -- a pass -- until the time is
up.  The reference kernel of speed.py is timed before each command and
after the last one.  With tracing on, traced and untraced passes
alternate so that the tracing overhead can be read off their difference.
Every pass's outputs are checked and digested outside the timed region,
then deleted.
"""

import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

from checks import CHECKS, digest
from inputs import KINDS
from speed import reference_seconds
from tracer import Tracer

MIN_PASSES = 3  # with tracing, one more so each kind gets two


def commands(workload, spec, out):
    """[(label, argv, operations)] for one pass, writing under out."""
    if workload == "extract-all":
        n = len(spec["utts"])
        return [("extract.%s" % k, ["extract", "--manifest", spec["manifest"], "--feature", k,
                                    "--out-dir", out, "--jobs", "1"], n) for k in KINDS]
    j = lambda name: os.path.join(out, name)
    if workload == "cm-train-score":
        feats = ["--features", spec["kinds"], "--manifest", spec["manifest"],
                 "--feature-dir", spec["feature_dir"]]
        return [
            ("train-cm", ["train-cm"] + feats + ["--out-model", j("cm.mdl")], 1),
            ("score-cm", ["score-cm", "--model", j("cm.mdl")] + feats
             + ["--out-scores", j("cm.scores")], 1),
            ("eval-tdcf", ["eval", "--scores", j("cm.scores"), "--metric", "tdcf",
                           "--cost-config", spec["cost_config"], "--out", j("cm_tdcf.csv")], 1),
        ]
    return [
        ("eval-eer", ["eval", "--scores", spec["cm_scores"], "--out", j("cm_eer.csv")], 1),
        ("eval-tdcf", ["eval", "--scores", spec["cm_scores"], "--metric", "tdcf",
                       "--cost-config", spec["cost_config"], "--out", j("cm_tdcf.csv")], 1),
        ("pairs", ["pairs", "--manifest", spec["asv_manifest"], "--category", "all",
                   "--out", j("trials.tsv")], 1),
        ("score-asv", ["score-asv", "--pairs", j("trials.tsv"), "--embeddings",
                       spec["embeddings"], "--out-scores", j("asv.scores")], 1),
        ("eval-asv", ["eval", "--scores", j("asv.scores"), "--out", j("asv_eer.csv")], 1),
    ]


def failed_ops(workload, spec, out, label, code):
    """Extract counts one operation per utterance; other commands count one."""
    if workload != "extract-all":
        return int(code != 0)
    kind = label.split(".", 1)[1]
    return sum(not os.path.exists(os.path.join(out, "%s.%s.ssft" % (u["utt"], kind)))
               for u in spec["utts"])


def context():
    import ctypes
    import numpy
    import scipy

    blas = []
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        entry = {"library": os.path.basename(path)}
        try:
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas_", ""):
                for suffix in ("64_", ""):
                    get_config = getattr(lib, prefix + "get_config" + suffix, None)
                    get_threads = getattr(lib, prefix + "get_num_threads" + suffix, None)
                    if get_config and get_threads:
                        get_config.restype, get_threads.restype = ctypes.c_char_p, ctypes.c_int
                        entry["config"] = get_config().decode()
                        entry["threads"] = get_threads()
                        break
                if "config" in entry:
                    break
        except OSError as e:
            entry["error"] = str(e)
        blas.append(entry)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main():
    job_path, result_path = sys.argv[1:3]
    with open(job_path) as fh:
        job = json.load(fh)
    workload, spec = job["workload"], job["spec"]

    from spoofsense.cli import main as cli

    tracer = Tracer()
    traced_call = lambda argv: tracer.span("cli.main", cli, argv)
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        i = len(passes)
        traced = job["trace"] and i % 2 == 1
        out = os.path.join(job["work"], "pass%d" % i)
        os.makedirs(out)
        cmds = commands(workload, spec, out)
        if traced:
            tracer.reset()
            tracer.install()
        call = traced_call if traced else cli
        cmd_s, codes, refs = {}, {}, []
        wall = 0.0
        for label, argv, _ in cmds:
            refs.append(reference_seconds())
            t0 = time.perf_counter()
            try:
                codes[label] = call(argv)
            except Exception:  # a crash is a failed operation, not a lost run
                traceback.print_exc()
                codes[label] = -1
            cmd_s[label] = time.perf_counter() - t0
            wall += cmd_s[label]
        refs.append(reference_seconds())  # so every command is bracketed
        if traced:
            tracer.uninstall()

        rec = {"traced": traced, "wall_s": wall, "cmd_s": cmd_s, "ref_s": refs,
               "ops": sum(n for _, _, n in cmds),
               "failed_ops": sum(failed_ops(workload, spec, out, label, codes[label])
                                 for label, _, _ in cmds)}
        try:
            rec["checks"] = CHECKS[workload](spec, out)
        except (OSError, ValueError, KeyError, IndexError) as e:
            rec["checks"] = [("%s outputs readable" % workload, False, repr(e))]
        rec["digest"] = digest(out)
        shutil.rmtree(out)
        if traced:
            rec["layers"] = tracer.summary()
            rec["roots_s"] = sum(d for _, d in tracer.roots())
            spans += [[i] + s for s in tracer.spans]
        passes.append(rec)
        enough = len(passes) >= MIN_PASSES + job["trace"]
        if enough and time.perf_counter() - start + wall > job["seconds"]:
            break

    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if job.get("spans_out"):
        with open(job["spans_out"], "w") as fh:
            fh.write("# pass name start end parent amount\n")
            for s in spans:
                fh.write(json.dumps(s) + "\n")
    with open(result_path, "w") as fh:
        json.dump({"context": context(), "passes": passes, "peak_rss_mb": peak_kb / 1024.0}, fh)


if __name__ == "__main__":
    main()
