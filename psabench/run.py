#!/usr/bin/env python3
"""Build and run the psa benchmark.

    python3 psabench/run.py --workload corpus_cold|small_units|daemon_edits \
        --seed N --seconds S --trace 0|1
    python3 psabench/run.py --selftest

Run it from the root of the repository. It configures psabench/ (a CMake
project that compiles the analyzer from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset, builds the harness, and runs one workload.
The last line of stdout is the JSON result; build output goes to stderr.
Every file the run writes stays under the build directory.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("psabench: the analyzer sources (src/) are not here; "
                 "run from a full checkout")
    out = os.path.join(build_dir(), "psabench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def run(cmd, env, timeout):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("psabench: run exceeded %d s" % timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["corpus_cold", "small_units", "daemon_edits"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    env = dict(os.environ)
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The batch supervisor puts its snapshot scratch directories in TMPDIR.
    env["TMPDIR"] = tmp

    if args.selftest:
        binary = build("psabench_selftest")
        env["PSABENCH_WORK"] = os.path.join(build_dir(), "selftest-work")
        sys.exit(run([binary], env, 900))

    binary = build("psabench")
    work = os.path.join(build_dir(), "work", args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work,
           "--reference", os.path.join(BENCH_DIR, "reference", "digests.txt")]
    sys.stdout.flush()
    sys.exit(run(cmd, env, RUN_TIMEOUT_S))


if __name__ == "__main__":
    main()
