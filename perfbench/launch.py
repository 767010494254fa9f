"""Run one gaplab command as the `gaplab` console script does.

    python3 perfbench/launch.py train --config exp.json

With PERFBENCH_TRACE set to a file path, every binding listed in
`spans.py` is wrapped before the command runs, and the spans are written
to that file when it ends, together with the time the import of
`gaplab.cli` took.
"""

import os
import sys
from time import perf_counter

if __name__ == "__main__":
    started = perf_counter()
    from gaplab import cli
    import_s = perf_counter() - started

    trace_path = os.environ.get("PERFBENCH_TRACE")
    if trace_path:
        import spans
        tracer = spans.Tracer()
        tracer.install()
        code = cli.main(sys.argv[1:])
        tracer.dump(trace_path, import_s)
    else:
        code = cli.main(sys.argv[1:])
    sys.exit(code)
