#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload mine|pool|sync --seed N --seconds S --trace 0|1

The build cache, the binary and the block logs the run writes all stay
under .bench_build/ in the current directory. The last line of standard
output is the run's JSON result; the exit code is the program's, or the
build's when the build fails.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    pkg = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOMODCACHE", "gomodcache"),
                     ("GOTMPDIR", "tmp"), ("XDG_CONFIG_HOME", "config")):
        env[key] = os.path.join(build, sub)
        os.makedirs(env[key], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOFLAGS="", GOWORK="off",
               CGO_ENABLED="0")

    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=pkg, env=env)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    ran = subprocess.run([binary, "--workdir", os.path.join(build, "work")] + sys.argv[1:], env=env)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
