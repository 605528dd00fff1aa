"""Run ``demol`` with benchmark tracing: ``cli_entry.py TRACE_OUT ARGV...``.

Used only by the traced cli workload. It times the import of ``demol.cli``,
installs the tracer, runs ``demol.cli.main(ARGV)`` as one operation, writes
the spans to TRACE_OUT and exits with the command's exit code.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = tracer.Tracer()
    tr.start_gc()
    import_ms = tracer.timed_import()
    tracer.install(tr)
    import demol.cli

    tr.next_op()
    try:
        return demol.cli.main(argv)
    finally:
        tr.stop_gc()
        tracer.write(tr, out_path, {"import_ms": [import_ms]})


if __name__ == "__main__":
    sys.exit(main())
