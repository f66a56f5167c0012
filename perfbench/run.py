#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: request-wide, request-longwindow, union-stream, offline-batch.

The first run compiles the repository's main sources (src/main/scala) and
the benchmark (perfbench/src) with the Scala compiler that ships with the
Spark distribution, into $CARGO_TARGET_DIR (default .bench_build). Later
runs reuse the classes while the sources are unchanged. The JVM then runs
one workload; its last line of output is the result object. Full records
(environment, every metric with its samples and spread, itemised failures,
spans of the traced run) are written to <build dir>/results.
"""
import argparse
import fcntl
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170
# A fixed heap size keeps collector sizing the same from run to run;
# -XX:-UsePerfData writes no hsperfdata files outside the checkout.
JVM_FLAGS = ["-Xms4g", "-Xmx4g", "-Xss4m", "-XX:-UsePerfData"]
JDK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch",
    "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def java_bin():
    home = os.environ.get("JAVA_HOME")
    if home and os.path.exists(os.path.join(home, "bin", "java")):
        return os.path.join(home, "bin", "java")
    path = shutil.which("java")
    if not path:
        fail("no java on PATH or in JAVA_HOME")
    return path


def spark_jars():
    """The Spark distribution's jar directory: $SPARK_HOME, else the
    distribution whose bin/spark-submit is on PATH."""
    homes = [os.environ.get("SPARK_HOME", "")]
    homes += [os.path.dirname(d) for d in os.environ.get("PATH", "").split(os.pathsep)
              if os.path.isfile(os.path.join(d, "spark-submit"))]
    for h in homes:
        d = os.path.join(h, "jars")
        if h and glob.glob(os.path.join(d, "spark-core_*.jar")):
            return d
    fail("no Spark distribution found (set SPARK_HOME or put its bin/ on PATH)")


def duckdb_jar():
    roots = [os.environ.get("COURSIER_CACHE", ""), os.path.expanduser("~/.cache/coursier"),
             os.path.expanduser("~/.ivy2"), os.path.expanduser("~/.m2")]
    for r in roots:
        if r and os.path.isdir(r):
            hits = sorted(glob.glob(os.path.join(r, "**", "duckdb_jdbc-1.0.0.jar"), recursive=True))
            if hits:
                return hits[0]
    fail("duckdb_jdbc-1.0.0.jar not found in the local dependency cache")


def sources(root):
    out = []
    for base in ["src/main/scala", "perfbench/src"]:
        for dirpath, _, files in os.walk(os.path.join(root, base)):
            out += [os.path.join(dirpath, f) for f in files if f.endswith((".scala", ".java"))]
    return sorted(out)


def digest(files, extra):
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    h.update(extra.encode())
    return h.hexdigest()[:16]


def build(root, build_dir, jars):
    files = sources(root)
    compiler = sorted(glob.glob(os.path.join(jars, "scala-compiler-*.jar")))
    if not compiler:
        fail("no scala-compiler jar in the Spark distribution")
    classpath = os.pathsep.join([os.path.join(jars, "*"), duckdb_jar()])
    stamp = digest(files, compiler[0] + classpath)
    classes = os.path.join(build_dir, "classes")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        stamp_file = os.path.join(classes, "STAMP")
        if os.path.exists(stamp_file) and open(stamp_file).read() == stamp:
            return classes, classpath, stamp
        tmp = classes + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        scalac_cp = os.pathsep.join(
            compiler + glob.glob(os.path.join(jars, "scala-library-*.jar"))
            + glob.glob(os.path.join(jars, "scala-reflect-*.jar")))
        cp = os.pathsep.join(sorted(glob.glob(os.path.join(jars, "*.jar"))) + [duckdb_jar()])
        args_file = os.path.join(build_dir, "scalac.args")
        with open(args_file, "w") as fh:
            fh.write("\n".join(["-nowarn", "-d", tmp, "-classpath", cp] + files) + "\n")
        t0 = time.time()
        print(f"perfbench: compiling {len(files)} sources", file=sys.stderr)
        r = subprocess.run([java_bin(), "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", scalac_cp, "scala.tools.nsc.Main", "@" + args_file])
        if r.returncode != 0:
            fail("compilation failed")
        with open(os.path.join(tmp, "STAMP"), "w") as fh:
            fh.write(stamp)
        shutil.rmtree(classes, ignore_errors=True)
        os.rename(tmp, classes)
        print(f"perfbench: compiled in {time.time() - t0:.1f} s", file=sys.stderr)
        return classes, classpath, stamp


def git_sha(root, stamp):
    if os.path.isdir(os.path.join(root, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--untracked-files=no"],
                                   capture_output=True, text=True).stdout.strip()
            return r.stdout.strip() + ("-dirty" if dirty else "") + f" (sources {stamp})"
    return f"none, not a git checkout (sources {stamp})"


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("run from the repository root: src/main/scala/repro is missing")
    if not os.path.isdir(os.path.join(root, "perfbench", "src")):
        fail("perfbench/src is missing")
    build_dir = os.path.abspath(os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
    jars = spark_jars()
    classes, classpath, stamp = build(root, build_dir, jars)
    tmp = os.path.join(build_dir, "tmp")
    results = os.path.join(build_dir, "results")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(results, exist_ok=True)

    cmd = ([java_bin()] + JVM_FLAGS + [f"-Djava.io.tmpdir={tmp}", "-Dspark.ui.enabled=false"]
           + [f"--add-opens={p}=ALL-UNNAMED" for p in JDK_OPENS]
           + ["-cp", os.pathsep.join([classes, classpath]), "perfbench.Main",
              "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
              "--trace", str(a.trace), "--out", results, "--sha", git_sha(root, stamp)])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if not last.startswith("{"):
        fail("benchmark printed no result line")


if __name__ == "__main__":
    main()
