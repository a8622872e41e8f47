"""Child-process side of a traced run; run with ``src`` on PYTHONPATH.

    worker.py ARGV...    minaff.cli.run(ARGV) under tracing

Prints one JSON object on stdout: the exit code, the report minaff would
have printed, the spans, and ``unwrapped``, the traced functions the
program lacks.
"""

import contextlib
import io
import json
import sys

import cases
import tracer


def traced_cli(argv):
    tr = tracer.Tracer()
    unwrapped = tracer.install(tr)
    tr.case = cases.cli_key(argv)
    from minaff import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return {"code": code, "stdout": buf.getvalue(), "spans": tr.spans, "unwrapped": unwrapped}


if __name__ == "__main__":
    json.dump(traced_cli(sys.argv[1:]), sys.stdout)
