"""One benchmark job: a fresh interpreter that imports altspectra and makes
one CLI call, ``altspectra.cli.main(argv)``, as an ``altspectra`` user would.

    python3 perfbench/job.py SRC_DIR MODE ARGV...

MODE is ``probe`` (import, then exit), ``plain`` (untraced) or ``traced``.
The last line of stdout is one JSON object.  Times are read from
``time.perf_counter``, the system-wide monotonic clock on Linux, so the
parent can subtract the moment it started this interpreter from ``ready``.
"""

import sys
import time

src, mode, *argv = sys.argv[1:]
sys.path.insert(0, src)

from altspectra import cli, perm  # noqa: E402  (the import is what setup measures)

ready = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

result = {"ready": ready}
if mode != "probe":
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out = io.StringIO()
    with redirect_stdout(out):
        start, start_cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed job, not a failed benchmark
            traceback.print_exc()
            code = -1
        end, end_cpu = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layers()
        result["check_seconds"] = tracer.check_seconds
        result["spans"] = tracer.spans
    info = perm.alternating_images.cache_info()
    result.update(
        start=start,
        end=end,
        cpu=end_cpu - start_cpu,
        code=code,
        stdout=out.getvalue(),
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        lru_calls=info.hits + info.misses,
        lru_misses=info.misses,
    )
print(json.dumps(result))
