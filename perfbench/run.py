#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload core-inmem --seed 0 --seconds 15 --trace 0

Run from the repository root. The first run builds the program and the
benchmark with sbt (offline) into `target/` directories and records the
runtime classpath in `.bench_build/`; later runs reuse it until a source file
changes. Set-up runs in one JVM, then the queries in three fresh JVMs, each
for a third of --seconds; the result reports each metric's median over the
three, as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1` the
per-layer ones. The exit code is non-zero, and no result is printed, when the
build or the run fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "classpath.txt")
STAMP_FILE = os.path.join(BUILD_DIR, "sources.sha256")

# A fixed heap, young generation and collector, so that collection work does
# not depend on how the JVM sized its heap (G1 resizes adaptively).
JVM_MEMORY = ["-Xms2g", "-Xmx2g", "-Xmn1g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch"]
# Query JVMs per run, each measuring an equal share of --seconds; the run
# reports each metric's median over them. Whole JVMs differ in speed (JIT
# decisions), by up to ±20% between runs with one query JVM.
QUERY_JVMS = 3
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 170
# The module opens Spark needs on JDK 17, as the repository's build.sbt
# passes to forked runs.
JVM_OPENS = [
    f"--add-opens=java.base/{p}=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
              "java.net", "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
              "sun.nio.cs", "sun.security.action", "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandleAccessor=false"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def sources_digest():
    """Hash of every file the build reads, to decide whether to rebuild."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "build.sbt"), os.path.join(ROOT, "project"),
            os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
            os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project"),
            os.path.join(HERE, "src")]
    for top in tops:
        files = [top] if os.path.isfile(top) else []
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x != "target")
            files += [os.path.join(d, n) for n in sorted(names)]
        for p in files:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def run_child(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout or
    interruption, and always wait for it."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    if not (os.path.isfile(os.path.join(ROOT, "build.sbt"))
            and os.path.isdir(os.path.join(ROOT, "src", "main", "scala"))):
        fail(f"no program sources (build.sbt, src/main/scala) in {ROOT}")
    digest = sources_digest()
    if os.path.isfile(CLASSPATH_FILE) and os.path.isfile(STAMP_FILE):
        with open(STAMP_FILE) as f:
            if f.read().strip() == digest:
                with open(CLASSPATH_FILE) as c:
                    return c.read().strip()
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, COURSIER_MODE="offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(BUILD_DIR, 'sbt-global')}",
           "export perfbench/Runtime/fullClasspath"]
    try:
        code, out = run_child(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines:
        fail(f"build failed (sbt exit code {code})")
    cp = lines[-1].strip()
    if not all(os.path.exists(p) for p in cp.split(os.pathsep)):
        fail("build did not produce a usable classpath")
    with open(CLASSPATH_FILE, "w") as f:
        f.write(cp)
    with open(STAMP_FILE, "w") as f:
        f.write(digest)
    return cp


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Parse one query JVM's result and check its shape against BENCHMARK.json."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        raise ValueError("correct is not a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            raise ValueError(f"{k} is not a whole number")
    if res["attempted"] < 1:
        raise ValueError("no query attempted")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != expected_metrics(trace):
        raise ValueError(f"metrics {got} differ from BENCHMARK.json")
    for name, m in res["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            raise ValueError(f"metric {name} has no numeric value")
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    cp = build()
    work = os.path.join(BUILD_DIR, "run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(work, "tmp"))
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    jvm = [java, *JVM_MEMORY, *JVM_OPENS, f"-Djava.io.tmpdir={os.path.join(work, 'tmp')}",
           "-cp", cp, "repro.perfbench.Bench"]
    common = ["--workload", args.workload, "--work-dir", work]
    setup = ["setup", *common]
    queries = ["queries", *common, "--seed", str(args.seed),
               "--seconds", str(args.seconds / QUERY_JVMS), "--trace", str(args.trace)]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    # Set-up and queries run in separate JVMs (see Setup.scala).
    for phase in [setup] + [queries] * QUERY_JVMS:
        try:
            code, out = run_child(jvm + phase, max(1, deadline - time.monotonic()),
                                  cwd=ROOT, stdout=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = [l for l in out.splitlines() if l.strip()]
        if code != 0:
            sys.stderr.write(out)
            fail(f"benchmark {phase[0]} exited with code {code}")
        if phase is setup:
            print(*lines, sep="\n")
            continue
        for l in lines[:-1]:
            print(f"[query JVM {len(results) + 1}] {l}")
        try:
            results.append(check_result(lines[-1] if lines else "", args.trace))
        except (ValueError, KeyError, TypeError) as e:
            fail(f"malformed result: {e}")
    metrics = {name: {"value": statistics.median(r["metrics"][name]["value"] for r in results),
                      "unit": m["unit"]}
               for name, m in results[0]["metrics"].items()}
    print(f"run took {RUN_TIMEOUT_S - (deadline - time.monotonic()):.1f} s; JVM {' '.join(JVM_MEMORY)}; "
          f"each metric is the median over {QUERY_JVMS} query JVMs")
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
