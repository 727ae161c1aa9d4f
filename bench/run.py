"""Benchmark entry point.

    python3 bench/run.py --workload {decide,verify,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout.  It starts one single-threaded
workload process (``worker.py``) with a fixed ``PYTHONHASHSEED`` so that
set and dict orders inside twogen repeat between runs, relays its
report and exits with its status.  The last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: the worker is killed after this long; the contract allows 180 s
TIMEOUT_S = 170
REQUIRED = (os.path.join("src", "twogen", "__init__.py"),
            os.path.join("schemas", "twogen-v1.schema.json"))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        print("run from the root of a twogen checkout; missing: %s"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("workload process exceeded %d s" % TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(out)
    if proc.returncode != 0:
        print("workload process failed with status %d" % proc.returncode,
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
