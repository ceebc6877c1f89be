"""Run one petzmi CLI command in this process and time its parts.

    python3 perfbench/clichild.py --out TIMING.json [--spans SPANS.json.gz] -- <petzmi argv>

Writes {"import_s", "command_s"} to --out: the time of `import petzmi.cli`
and the time of `petzmi.cli.main(argv)`. With --spans the command runs under
the tracer inside a `cli.main` root span, its spans go to that file, and the
tracer's aggregate is added to --out under "trace". The exit code is the
command's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import petzmi.cli

    t1 = time.perf_counter()
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            code = tracer.call(lambda: petzmi.cli.main(argv), "cli.main")
        finally:
            tracer.uninstall()
    else:
        code = petzmi.cli.main(argv)
    t2 = time.perf_counter()
    timing = {"import_s": t1 - t0, "command_s": t2 - t1}
    if args.spans:
        timing["trace"] = tracer.aggregate()
        tracer.dump(args.spans)
    Path(args.out).write_text(json.dumps(timing))
    return code


if __name__ == "__main__":
    sys.exit(main())
