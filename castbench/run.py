#!/usr/bin/env python3
"""Builds and runs the CASTANET benchmark.

Run from the root of a checkout:

    python3 castbench/run.py --workload <switch_cbr|gcu_hybrid|accounting_board>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 castbench/run.py --selftest      # the benchmark's own tests

The first call configures and builds castbench/ (a CMake project that
compiles the library from the checkout's sources) into .bench_build/; later
calls only let the build tool confirm it is up to date.  The benchmark
binary then prints a human-readable summary followed, as its last line, by
one JSON object with the keys correct, attempted, failed and metrics; this
script gives each metric its unit from BENCHMARK.json at the root, which
defines the workloads and metrics, and fails the run if the program reports
other metrics than BENCHMARK.json declares.  --selftest also checks that
castbench/layers.json assigns every per-layer metric to one layer.
"""
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "castbench")
BUILD = os.path.join(ROOT, ".bench_build", "castbench")


def build(target=None):
    """Configures (once) and builds the benchmark; exits non-zero on failure."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "-j", jobs] +
                     (["--target", target] if target else []))
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache behind that
                # would skip configuring next time.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if cmd[1] == "-S" and os.path.exists(cache):
                    os.remove(cache)
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                sys.stderr.write("castbench: build failed:\n" + tail + "\n")
                sys.exit(1)


def declared_units(trace):
    """Unit of every metric BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_layers():
    """layers.json must name every per-layer metric, each exactly once."""
    with open(os.path.join(SOURCE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    named = [m for layer in layers.values() for m in layer["metrics"]]
    declared = set(declared_units(True))
    if sorted(named) != sorted(declared):
        sys.stderr.write("castbench: layers.json and BENCHMARK.json disagree "
                         "on the per-layer metrics\n")
        return False
    return True


def main(argv):
    if argv == ["--selftest"]:
        if not check_layers():
            return 1
        build("castbench_tests")
        return subprocess.run([os.path.join(BUILD, "castbench_tests")],
                              cwd=ROOT).returncode
    at = argv.index("--trace") if "--trace" in argv else len(argv)
    trace = at + 1 < len(argv) and argv[at + 1] != "0"
    units = declared_units(trace)
    build()
    proc = subprocess.run([os.path.join(BUILD, "castbench")] + argv,
                          cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    # The program reports bare values; the units come from BENCHMARK.json,
    # and the reported metrics must be exactly the declared ones.
    result = json.loads(lines[-1])
    values = result["metrics"]
    if set(values) != set(units):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write("castbench: reported metrics %s differ from "
                         "BENCHMARK.json's %s\n"
                         % (sorted(values), sorted(units)))
        return 1
    result["metrics"] = {name: {"value": values[name], "unit": units[name]}
                         for name in sorted(values)}
    sys.stdout.write("\n".join(lines[:-1] + [json.dumps(result)]) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
