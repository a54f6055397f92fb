#!/usr/bin/env python3
"""Build and run the pWCET pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload fig4-path --seed 1 --seconds 10 --trace 0

Builds the benchmark driver and pwcet_tool from source with dune (into
.bench_build), runs one workload, and relays the driver's output: a
table of every metric, then the result as one JSON line. Exits non-zero,
without a result, when the checkout cannot be built or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ["fig4-path", "paper-ilp", "daemon-mix", "campaigns"]
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_group(argv, timeout, env=None, capture=False):
    """Runs argv in its own process group; the whole group is killed on
    timeout, so no daemon it started outlives the run."""
    proc = subprocess.Popen(
        argv,
        env=env,
        start_new_session=True,
        stdout=subprocess.PIPE if capture else None,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{argv[0]} did not finish within {timeout} s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    for needed in ["BENCHMARK.json", "dune-project", "lib", "bin/pwcet_tool.ml", "perfbench/dune"]:
        if not os.path.exists(needed):
            fail(f"run from the root of a checkout: {needed} is missing")
    dune = shutil.which("dune")
    if dune is None:
        fail("dune is not on PATH")

    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    started = time.monotonic()
    code, _ = run_group(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR, "--profile", "release",
         "perfbench/perfbench.exe", "bin/pwcet_tool.exe"],
        BUILD_TIMEOUT_S, env=env)
    if code != 0:
        fail("build failed")
    print(f"build: {time.monotonic() - started:.1f} s", flush=True)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "perfbench.exe")
    tool = os.path.join(BUILD_DIR, "default", "bin", "pwcet_tool.exe")
    code, out = run_group(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--tool", tool, "--ref-dir", "perfbench/ref", "--out-dir", ".perfbench"],
        RUN_TIMEOUT_S, capture=True)
    text = out.decode()
    if code != 0:
        for line in text.splitlines():
            if not line.startswith('{"correct"'):
                print(line)
        fail(f"driver exited with code {code}")
    check_metrics(text, args.trace)
    sys.stdout.write(text)
    sys.stdout.flush()


def check_metrics(text, trace):
    """The result line must name exactly the metrics BENCHMARK.json lists
    for this kind of run, with the same units."""
    with open("BENCHMARK.json") as f:
        listed = json.load(f)["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    result = json.loads(text.strip().splitlines()[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")


if __name__ == "__main__":
    main()
