#!/usr/bin/env python3
"""Runs one workload of the union-search benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tus-interactive --seed 1 --seconds 10 --trace 0

It builds the program and the benchmark from source with sbt (once per source
state; the classpath is cached under .bench_build/perfbench), launches one JVM
with a pinned environment, forwards its report, and prints as the last line
one JSON object: {"correct", "attempted", "failed", "metrics"}. A traced run
(--trace 1) also prints its overhead against the last untraced run of the
same workload in this checkout.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tus-interactive", "large-index")
BENCH_DIR = Path(__file__).resolve().parent
# Each of these silently changes what Harness.tuneSpark / jobs.JobSession run.
UNPINNED_ENV = ("SANTOS_SHUFFLE_PARTITIONS", "SPARK_SHUFFLE_PARTITIONS", "SPARK_MASTER")
CORES = 4
HEAP = "4g"
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
# Module access Spark needs on Java 17 (the list spark-submit passes).
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-modules=jdk.incubator.vector",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files(root):
    """Everything the build reads from the checkout."""
    trees = [BENCH_DIR / "src", root / "src" / "main", root / "jobs"]
    files = [BENCH_DIR / "build.sbt", BENCH_DIR / "project" / "build.properties"]
    for tree in trees:
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    return files


def build(root, work):
    """Compiles with sbt and returns the runtime classpath."""
    digest = hashlib.sha256()
    for f in source_files(root):
        digest.update(str(f.relative_to(root)).encode())
        digest.update(f.read_bytes())
    stamp = work / f"classpath-{digest.hexdigest()[:16]}.txt"
    if stamp.exists():
        return stamp.read_text().strip()
    print("# building the program and the benchmark with sbt", flush=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        out = subprocess.run(cmd, cwd=BENCH_DIR, capture_output=True, text=True,
                             timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout[-4000:] + out.stderr[-4000:])
        fail("build failed")
    classpath = lines[-1].strip()
    for old in work.glob("classpath-*.txt"):
        old.unlink()
    stamp.write_text(classpath)
    return classpath


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "main" / "scala" / "repro").is_dir() or not (root / "jobs").is_dir():
        fail(f"{root} holds no program sources (src/main/scala/repro, jobs); "
             "run from the root of a full checkout")
    work = root / ".bench_build" / "perfbench"
    for d in ("run", "spark-local", "tmp"):
        (work / d).mkdir(parents=True, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if k not in UNPINNED_ENV}
    env["SPARK_LOCAL_DIRS"] = str(work / "spark-local")
    env.setdefault("COURSIER_MODE", "offline")
    classpath = build(root, work)

    spans = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
    cmd = (["java", f"-Xmx{HEAP}", f"-Xms{HEAP}", f"-XX:ActiveProcessorCount={CORES}",
            f"-Djava.io.tmpdir={work / 'tmp'}", "-Dspark.ui.enabled=false",
            "-Dspark.driver.host=127.0.0.1"]
           + JAVA_MODULE_OPTS
           + ["-cp", classpath, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--spans", str(spans)])
    t0 = time.monotonic()
    log = open(work / f"jvm-{args.workload}.log", "w")
    proc = subprocess.Popen(cmd, cwd=work / "run", env=env, stdout=subprocess.PIPE,
                            stderr=log, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s; JVM log in {log.name}")
    finally:
        log.close()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"JVM exited with code {proc.returncode}; log in {log.name}")

    result = json.loads(lines[-1])
    e2e = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("perfbench-e2e "))
    for line in lines[:-1]:
        if not line.startswith("perfbench-e2e "):
            print(line)
    print(f"# jvm wall {time.monotonic() - t0:.1f} s")

    # Tracing overhead: traced minus untraced, same workload, same seed when
    # this checkout has an untraced run of it, else the latest untraced run.
    if args.trace == 0:
        (work / f"untraced-{args.workload}-seed{args.seed}.json").write_text(json.dumps(e2e))
    else:
        same = work / f"untraced-{args.workload}-seed{args.seed}.json"
        runs = sorted(work.glob(f"untraced-{args.workload}-seed*.json"),
                      key=lambda p: p.stat().st_mtime)
        base = same if same.exists() else (runs[-1] if runs else None)
        if base is None:
            print("# trace overhead: unknown, no untraced run of this workload in this checkout")
        for name in ("latency_ms", "index_build_s") if base else ():
            traced, untraced = e2e[name], json.loads(base.read_text())[name]
            print(f"# trace overhead {name}: {traced - untraced:+.3f} "
                  f"(traced {traced:.3f}, untraced {untraced:.3f} from {base.name})")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
