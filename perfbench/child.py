"""One CLI call in a fresh interpreter, as a user makes it.

usage: python3 child.py INFO_JSON TRACE CLI_ARGS...

Times ``import spikemap.cli`` (the set-up every CLI call pays), then runs
``spikemap.cli.main(CLI_ARGS)`` and exits with its code.  With TRACE = 1 the
span tracer is installed after the import and its summary goes into
INFO_JSON next to the import time.  With no CLI_ARGS it only imports.
"""

import json
import sys
import time


def main() -> int:
    info_path, trace, cli_args = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    import spikemap.cli

    info = {"import_s": time.perf_counter() - t0}
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    code = 0
    try:
        if cli_args:
            code = spikemap.cli.main(cli_args)
    finally:
        if tracer is not None:
            info["trace"] = tracer.summary()
        with open(info_path, "w") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
