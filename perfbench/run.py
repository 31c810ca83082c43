#!/usr/bin/env python3
"""Hillview spreadsheet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload fig4-warm --seed 1 --seconds 8 --trace 0

Builds the program and the benchmark from source with sbt when the sources
changed since the last build, then runs the benchmark JVM. The last line of
standard output is the result object; the lines before it print every
metric by name with its unit. Each run's record (machine, inputs, metrics,
failures) is saved under perfbench/work/results/, and a traced run also
writes its spans there. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(WORK, "results")
PROGRAM_SOURCES = os.path.join(ROOT, "src", "main", "scala")
CLASSPATH_FILE = os.path.join(HERE, "target", "runtime-classpath.txt")
STAMP_FILE = os.path.join(WORK, "build-stamp")

HEAP = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module opens Spark 4 needs on Java 17 (the list spark-submit injects).
JAVA_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    )
] + ["-Djdk.reflect.useDirectMethodHandle=false"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_stamp():
    """Hash of every file the build reads from the checkout."""
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in (PROGRAM_SOURCES, os.path.join(HERE, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    h = hashlib.sha256()
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the last build saw the same sources; returns the classpath."""
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as f:
            if f.read() == stamp:
                with open(CLASSPATH_FILE) as c:
                    return c.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.repository.config=%s "
                           "-Dsbt.offline=true -Xmx2g" % repos)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.forcestart=false", "writeClasspath"]
    print("perfbench: building with sbt", file=sys.stderr)
    try:
        code = run_child(cmd, HERE, env, BUILD_TIMEOUT_S, stdout=sys.stderr)[0]
    except subprocess.TimeoutExpired:
        code = "timeout"
    if code != 0 or not os.path.exists(CLASSPATH_FILE):
        fail("build failed (sbt exit %s)" % code, 3)
    os.makedirs(WORK, exist_ok=True)
    with open(STAMP_FILE, "w") as f:
        f.write(stamp)
    with open(CLASSPATH_FILE) as c:
        return c.read().strip()


def run_child(cmd, cwd, env, timeout, stdout):
    """Runs `cmd` in its own process group; on timeout kills the whole group.
    Returns (exit code, captured stdout or None). Waits until it has ended."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def check_metrics(result, expected):
    names = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != names:
        missing = sorted(set(names) - set(got))
        extra = sorted(set(got) - set(names))
        wrong = sorted(k for k in set(got) & set(names) if got[k] != names[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, wrong unit %s"
             % (missing, extra, wrong), 4)


def main():
    # A SIGTERM unwinds through run_child, which kills the child's process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(PROGRAM_SOURCES) or not os.path.exists(bench_file):
        fail("no program sources at %s; run from a full checkout" % PROGRAM_SOURCES)
    with open(bench_file) as f:
        bench = json.load(f)

    classpath = build()
    os.makedirs(RESULTS, exist_ok=True)
    run_dir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(os.path.join(run_dir, "tmp"), exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP, *JAVA_OPENS,
           "-Djava.io.tmpdir=" + os.path.join(run_dir, "tmp"),
           "-Dspark.driver.host=127.0.0.1", "-Dfile.encoding=UTF-8",
           "-cp", classpath, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", run_dir, "--results", RESULTS]
    try:
        code, out = run_child(cmd, run_dir, dict(os.environ), RUN_TIMEOUT_S, subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail("benchmark JVM did not finish in %d s" % RUN_TIMEOUT_S, 6)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = out.strip().splitlines() if out else []
    if code != 0 or not lines:
        fail("benchmark JVM exited with %s" % code, 5)
    result = json.loads(lines[-1])
    record = next(json.loads(l[len("record: "):]) for l in lines if l.startswith("record: "))
    check_metrics(result, bench["per_layer"] if args.trace else bench["end_to_end"])

    name = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        untraced = os.path.join(RESULTS, "%s-seed%d-trace0.json" % (args.workload, args.seed))
        if os.path.exists(untraced):
            with open(untraced) as f:
                base = json.load(f)["end_to_end"]["action_p50_ms"]["value"]
            traced = record["end_to_end"]["action_p50_ms"]["value"]
            record["trace_overhead_pct"] = 100.0 * (traced / base - 1.0)
            print("tracing overhead: action_p50_ms %.3f traced vs %.3f untraced (%+.1f%%)"
                  % (traced, base, record["trace_overhead_pct"]))
        else:
            print("tracing overhead: run --trace 0 with the same workload and seed to compare")
    with open(os.path.join(RESULTS, name + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    loop = record["loop"]
    print("workload %s seed %d: %d actions in %.1f s, tail = p%.1f of %d, machine %s"
          % (args.workload, args.seed, loop["actions"], loop["seconds"], loop["tail_percentile"],
             loop["tail_n"], json.dumps(record["machine"])))
    for k, v in sorted(result["metrics"].items()):
        print("%-48s %14.4f %s" % (k, v["value"], v["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
