"""One benchmark operation: import the CLI, run it once, report timings.

Usage: ``python child.py REPORT_PATH [--trace SPANS_PATH] -- CLI_ARGS...``

The report is a JSON object with the import time, the time spent in
``satcvqkd.cli.main`` (from after import until the output file is closed),
the process's peak RSS, and three runs of a fixed calibration loop: before
the import, between the import and ``main``, and after ``main``.  The loop
measures how fast the machine is right then; run.py divides the timings by
it (see README.md, "Calibration").  With ``--trace`` the public functions of
each module are wrapped before ``main`` runs, and the spans are written to
SPANS_PATH after the timed region.
"""

import math
import sys
import time

CALIBRATION_ROUNDS = 20
CALIBRATION_ITEMS = 2_000


def calibration() -> float:
    """Wall time of a fixed pure-Python loop: dict inserts, a sort, float math.

    It imports nothing and keeps about 200 kB alive, so it moves neither
    the import time nor the peak RSS it sits next to.
    """
    start = time.perf_counter()
    step = 5.0 / CALIBRATION_ITEMS
    acc = 0.0
    for _ in range(CALIBRATION_ROUNDS):
        table = {}
        for i in range(CALIBRATION_ITEMS):
            table[(i * 7919) % 1_000_003] = i * 1.5
        ordered = sorted(table.values(), key=lambda v: -v)
        for i in range(CALIBRATION_ITEMS):
            u = i * step
            acc += math.exp(-u * u) * math.cos(3.0 * u) + ordered[i] * 1e-12
    elapsed = time.perf_counter() - start
    if not acc > 0.0:  # keeps the loop's result live; never true
        raise AssertionError(acc)
    return elapsed


def main(argv: list[str]) -> int:
    report_path = argv[0]
    split = argv.index("--")
    options, cli_args = argv[1:split], argv[split + 1:]
    spans_path = options[1] if options[:1] == ["--trace"] else None

    calibration_s = [calibration()]
    start = time.perf_counter()
    import satcvqkd.cli
    imported = time.perf_counter()

    tracer = None
    if spans_path is not None:
        import spans

        tracer = spans.Tracer()
        tracer.install_library_wrappers()  # rebinds satcvqkd.cli.main too
    calibration_s.append(calibration())
    main_start = time.perf_counter()
    code = satcvqkd.cli.main(cli_args)
    finished = time.perf_counter()

    import resource

    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_s.append(calibration())

    import json

    if tracer is not None:
        tracer.write(spans_path)
    report = {
        "import_s": imported - start,
        "run_s": finished - main_start,
        "peak_rss_kib": peak_rss_kib,
        "calibration_s": calibration_s,
    }
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
