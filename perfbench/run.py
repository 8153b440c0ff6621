#!/usr/bin/env python3
"""Build the CDAS benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark package (perfbench/Cargo.toml) is
built in release mode into $CARGO_TARGET_DIR (default: .bench_build), then run as
one process. This script adds that process's peak resident memory to the result
and prints a host note; the last line of standard output is the JSON result.
"""

import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BINARY = "cdas-perfbench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def filesystem(path):
    os.makedirs(path, exist_ok=True)
    probe = subprocess.run(["stat", "-f", "-c", "%T", path], capture_output=True, text=True)
    return probe.stdout.strip() or "unknown"


def main(argv):
    if not os.path.isfile(os.path.join(ROOT, "crates", "engine", "Cargo.toml")):
        return fail(f"{ROOT} is not a checkout of the repository (crates/ is missing)")
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return fail("the benchmark did not build")

    child = subprocess.Popen(
        [os.path.join(target, "release", BINARY)] + argv,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    output = child.stdout.read()
    child.stdout.close()
    _, status, usage = os.wait4(child.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    lines = output.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    if code != 0:
        return fail(f"the benchmark exited with {code}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return fail("the benchmark printed no result line")
    if "--trace" not in argv or argv[argv.index("--trace") + 1] == "0":
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {"value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    print(
        f"host: nproc {os.cpu_count()}, cpu {cpu_model()}, kernel {platform.release()}, "
        f"journal filesystem {filesystem(os.path.join(ROOT, '.perfbench'))}"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
