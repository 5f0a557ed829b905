"""One cold ordbench invocation, started in a fresh interpreter by run.py.

    python3 -I bench/child.py probe
        import ordbench, build the catalog, print the clock and the package path
    python3 -I bench/child.py op READY_FILE ARG...
        the same set-up, writes the clock to READY_FILE, then
        ordbench.cli.run(ARG...); exits with its status
    python3 -I bench/child.py trace SPANS_FILE ARG...
        the same set-up, then ordbench.cli.run(ARG...) with spans around the
        public functions of each layer, written to SPANS_FILE at exit

The package is imported from the ``src`` directory next to this one, so the
benchmark always measures the checkout it sits in.
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    mode, args = argv[0], argv[1:]
    import ordbench

    ordbench.catalog()
    ready = time.monotonic_ns()
    if mode == "probe":
        print(ready, ordbench.__file__)
        return 0
    from ordbench import cli

    if mode == "op":
        with open(args[0], "w") as fh:
            fh.write(str(ready))
        return cli.run(args[1:])
    if mode != "trace":
        raise SystemExit(f"unknown mode {mode!r}")
    sys.path.insert(0, str(HERE))
    import tracing

    recorder = tracing.Recorder()
    recorder.install()
    try:
        return cli.run(args[1:])
    finally:
        sys.stdout.flush()
        recorder.dump(args[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
