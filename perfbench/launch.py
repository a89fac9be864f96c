"""Run one beamsim CLI command in this process and record when each phase ended.

    python3 perfbench/launch.py TIMINGS_JSON [--spans SPANS_JSON] -- BEAMSIM_ARGS...

Writes the CLOCK_MONOTONIC times at which ``beamsim.cli`` finished
importing and ``beamsim.cli.main`` started and returned, the exit code and
the software versions to TIMINGS_JSON, then exits with main's exit code.
With ``--spans`` the call is traced (see ``spans.py``) and the spans plus
the replayed figures go to SPANS_JSON.
"""

import json
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    sep = args.index("--")
    opts, cli_args = args[:sep], args[sep + 1:]
    timings_path = opts[0]
    spans_path = opts[2] if opts[1:2] == ["--spans"] else None

    import beamsim.cli

    imported = time.monotonic()
    tracer = None
    if spans_path:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    main_start = time.monotonic()
    if tracer:
        rc = tracer.call("cli.main", beamsim.cli.main, None, (cli_args,), {})
    else:
        rc = beamsim.cli.main(cli_args)
    main_end = time.monotonic()

    if tracer:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "replay": tracer.replay()}, fh)

    import numpy
    import scipy

    with open(timings_path, "w", encoding="utf-8") as fh:
        json.dump({
            "imported": imported, "main_start": main_start, "main_end": main_end,
            "exit_code": rc, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
