"""Run one graphlowrank command in its own process, as the console script does.

Usage: cli_child.py SPANS_PATH|- COMMAND [ARGS...]

The import of ``graphlowrank.cli`` is timed as the ``cli.import`` span.
With a spans path, the public functions are traced while ``main`` runs and
the spans are written there at exit; with ``-`` nothing is traced and
nothing but the package is imported. The exit code is the command's own.
"""

import sys
import time

start = time.monotonic()  # the tracer's clock
import graphlowrank.cli  # noqa: E402  (the import is what is being timed)

imported = time.monotonic()


def main(argv):
    spans_path, args = argv[0], argv[1:]
    if spans_path == "-":
        return graphlowrank.cli.main(args)
    from tracer import Tracer
    tracer = Tracer()
    tracer.record("cli.import", start, imported)
    with tracer.installed():
        code = graphlowrank.cli.main(args)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
