"""One run of one workload in a fresh process, started by run.py.

    python3 child.py WORKLOAD SEED MODE

Run it with `src` on PYTHONPATH and a scratch directory as the working
directory.  Set-up (interpreter start, `import ainfinity`, generating and
writing the input document) ends just before the single timed call of
`ainfinity.cli.main(argv)`.  MODE is `plain` (timed, nothing else loaded),
`trace` (spans installed, see spans.py) or `count` (under cProfile, to count
scalar arithmetic calls).  The last line of stdout is one JSON object.
"""

import contextlib
import cProfile
import hashlib
import io
import json
import os
import pstats
import resource
import sys
import threading
import time

# Arithmetic entry points on scalar elements: Fraction's operator
# dispatchers and negation (rationals), and ModP's operators (Z/p).
FRACTION_OPS = {"forward", "reverse", "__neg__"}
MODP_OPS = {"__add__", "__sub__", "__rsub__", "__mul__", "__truediv__",
            "__rtruediv__", "__neg__"}


def field_ops(profile):
    total = 0
    for (filename, _, func), (_, calls, _, _, _) in \
            pstats.Stats(profile).stats.items():
        base = os.path.basename(filename)
        if ((base == "fractions.py" and func in FRACTION_OPS)
                or (base == "fields.py" and func in MODP_OPS)):
            total += calls
    return total


def main(argv):
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    from ainfinity import cli
    from workloads import INPUT, OUTPUT, WORKLOADS
    workload = WORKLOADS[name]
    if workload.k is not None:
        with open(INPUT, "w") as fh:
            fh.write(workload.input_text(seed))
    tracer = profile = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    elif mode == "count":
        profile = cProfile.Profile()

    report = io.StringIO()
    setup_end = time.monotonic()
    with contextlib.redirect_stdout(report):
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            code = cli.main(list(workload.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        finally:
            if profile is not None:
                profile.disable()
        wall = time.perf_counter() - start

    result = {
        "code": code,
        "report": report.getvalue(),
        "wall_s": wall,
        "setup_end": setup_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "threads": threading.active_count(),
        "output_sha256": None,
    }
    if workload.k is not None and os.path.exists(OUTPUT):
        with open(OUTPUT, "rb") as fh:
            result["output_sha256"] = hashlib.sha256(fh.read()).hexdigest()
    if tracer is not None:
        result["spans"], result["covered_s"] = tracer.summary()
        result["lift_entries"] = tracer.lift_entries
    if profile is not None:
        result["field_ops"] = field_ops(profile)
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
