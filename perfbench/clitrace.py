"""Run the vertstar command line with the per-layer tracer installed.

Usage: python perfbench/clitrace.py <vertstar arguments>

The command's own output is unchanged; the tracer's totals are written to
stderr as the last line, one JSON object.
"""

import json
import sys

import vertstar.cli

from tracing import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    tracer.enable()
    try:
        rc = vertstar.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        print(json.dumps(tracer.raw()), file=sys.stderr)
    sys.exit(rc)
