"""Benchmark child: imports the CLI once, then runs each operation in a
forked copy of itself.

Every operation therefore starts from the state a fresh ``jacobitrees``
process is in once its import is done: no lru_cache is warm and no earlier
operation's memory is held.  Usage (the job arrives as JSON on stdin):

    python3 perfbench/worker.py <monotonic time at spawn>

Job keys: ``units`` (lists of argv lists), ``passes``, ``trace_from``
(index of the first traced pass, or null) and ``spans_path``.  A pass runs
every unit once, in order.  Writes one JSON line per unit run to stdout.
With ``passes`` 0 it only reports the set-up time.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def run_op(cli, argv, tracer, spans_path):
    """One operation in a forked child; its result and peak RSS."""
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    forked = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            with redirect_stdout(out), redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception as exc:  # reported as a failed operation
                    error = repr(exc)
                elapsed = time.perf_counter() - start
            result = {"code": code, "error": error, "stdout": out.getvalue(),
                      "stderr": err.getvalue()[-2000:], "latency_s": elapsed}
            if tracer is not None:
                result["layers"] = tracer.layer_metrics()
                result["root_s"] = tracer.root_duration()
                with open(spans_path, "a") as fh:
                    tracer.write_spans(fh)
            with os.fdopen(write_fd, "w") as fh:
                json.dump(result, fh)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if status != 0 or not data:  # timed from fork to exit: it has no own timing
        return {"code": None, "error": f"child ended with status {status}",
                "stdout": "", "stderr": "", "latency_s": time.perf_counter() - forked,
                "peak_rss_mb": usage.ru_maxrss / 1024}
    result = json.loads(data)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
    return result


def main():
    spawned = float(sys.argv[1])
    import jacobitrees.cli as cli

    setup_s = time.monotonic() - spawned
    job = json.load(sys.stdin)
    print(json.dumps({"setup_s": setup_s}), flush=True)
    tracer = None
    for p in range(job["passes"]):
        if p == job["trace_from"]:
            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer, cli)
        for i, unit in enumerate(job["units"]):
            ops = [run_op(cli, argv, tracer, job["spans_path"]) for argv in unit]
            print(json.dumps({"unit": i, "pass": p, "traced": tracer is not None, "ops": ops}),
                  flush=True)


if __name__ == "__main__":
    main()
