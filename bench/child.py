"""Run one mayleonard CLI command in a fresh interpreter, traced.

Usage: python bench/child.py <instance id> <mayleonard arguments...>

The command's stdout and exit code are passed through.  After the command,
one JSON line goes to stderr: the monotonic clock at interpreter start,
the seconds spent importing mayleonard.cli and running the command, and
the spans the command recorded.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t_import = time.monotonic()
import mayleonard.cli  # noqa: E402

import_s = time.monotonic() - t_import

import tracer  # noqa: E402


def main():
    spans = tracer.Tracer()
    spans.instance = int(sys.argv[1])
    tracer.install(spans)
    t_command = time.monotonic()
    rc = mayleonard.cli.main(sys.argv[2:])
    command_s = time.monotonic() - t_command
    sys.stdout.flush()
    report = {"t_start": T_START, "import_s": import_s, "command_s": command_s,
              "spans": spans.spans}
    sys.stderr.write("\n" + json.dumps(report) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
