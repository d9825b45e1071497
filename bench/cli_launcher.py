"""Small process that spawns the ``cli`` workload's children.

Linux charges an exec'd child the peak resident memory of the process
it was forked from, so a child spawned by the harness itself would
report the harness's peak, not its own.  This launcher stays small: it
reads one JSON request per line on stdin, runs the command, and writes
one JSON reply per line with the exit code and output; an empty request
asks for the peak resident memory of its children so far.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        request = json.loads(line)
        if not request:
            reply = {"maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        else:
            proc = subprocess.run(request["cmd"], env=request["env"], cwd=request["cwd"],
                                  capture_output=True, text=True, timeout=120)
            reply = {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
