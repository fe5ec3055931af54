"""Benchmark child process: imports conjlab and runs a command stream.

Usage: python3 child.py SPEC.json

The spec names the source directory, the stream's commands, the indices
of the ones this child runs and whether to trace.  The child prints
"ready" once conjlab is imported (the end of set-up), then runs each
command once, one at a time, through `conjlab.cli.main`, capturing its
stdout.  Its last stdout line is one JSON object with every execution's
latency, exit code and stdout digest, the peak resident memory and, when
tracing, the layer counters.  Spans are written to the file the spec
names.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time


def run_command(cli, argv):
    """Run one command in-process; returns (latency_s, exit_code, sha256)."""
    out, err = io.StringIO(), io.StringIO()
    real_out, real_err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter()
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a traceback is a failed command, not a crash
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        latency = time.perf_counter() - t0
        sys.stdout, sys.stderr = real_out, real_err
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    if code and err.getvalue():
        print(f"command failed ({code}): {' '.join(argv)}: "
              f"{err.getvalue().strip()[-300:]}", file=sys.stderr)
    return latency, code, digest


def main():
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from conjlab import cli

    print("ready", flush=True)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    execs = []
    for idx in spec["indices"]:
        if tracer is not None:
            tracer.cmd = idx
        execs.append([idx, *run_command(cli, spec["commands"][idx])])
    result = {"execs": execs,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans(spec["spans_path"])
        result["layers"] = tracer.summary()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
