"""One benchmark invocation in a fresh interpreter.

    python3 child.py SRC REPORT_FD TRACED TASK [ARGS...]

SRC is the checkout's ``src`` directory; f4poly is imported from there and
nowhere else (exit 3 otherwise).  REPORT_FD is an inherited pipe descriptor
that receives a JSON report at exit: this process's peak RSS and, when TRACED
is ``1``, the tracer's spans and counts.  TASK is one of:

- ``import``: import ``f4poly.cli`` and exit (the set-up probe);
- ``cli ARGS...``: ``f4poly.cli.main(ARGS)``, exiting with its return code;
- ``laplacian DEGREE``: print ``representation.laplacian_commutes_on_degree(DEGREE)``.
"""

from __future__ import annotations

import json
import os
import sys


def peak_rss_kb() -> int:
    """High-water RSS of this process image.

    Not ``ru_maxrss``: Linux folds the RSS of the image replaced by exec, here
    the parent's, into it.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv: list) -> int:
    src, report_fd, traced, task, *args = argv
    sys.path.insert(0, src)
    import f4poly.cli

    package_dir = os.path.join(os.path.realpath(src), "f4poly")
    if os.path.dirname(os.path.realpath(f4poly.__file__)) != package_dir:
        sys.stderr.write(f"f4poly imported from {f4poly.__file__}, not from {package_dir}\n")
        return 3

    tracer = None
    if traced == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    if task == "import":
        code = 0
    elif task == "cli":
        code = f4poly.cli.main(args)
    elif task == "laplacian":
        print(f4poly.representation.laplacian_commutes_on_degree(int(args[0])))
        code = 0
    else:
        sys.stderr.write(f"unknown task {task!r}\n")
        return 2
    sys.stdout.flush()

    report = {"peak_rss_kb": peak_rss_kb(), "trace": tracer.report() if tracer else None}
    with os.fdopen(int(report_fd), "w", encoding="utf-8") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
