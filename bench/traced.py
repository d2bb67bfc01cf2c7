"""Traced ``gtsfit`` process: the CLI run with spans around layer calls.

    python3 bench/traced.py SPANS_JSON gtsfit-argument...

Runs ``gtsfit.cli.main`` on the given arguments after wrapping the public
names through which one layer calls another (``cli`` calls ``fit``,
``density_table`` and ``avar``; ``mle`` calls ``spectral_tables`` and
``choose_grid``).  Each wrapper records a span (name, start, end, parent) in
memory; the spans go to SPANS_JSON when the command ends.  A wrapper that is
never called makes the process exit with code 70 instead of reporting zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from common import SRC

EXIT_UNCALLED = 70

# command -> (module, public name) pairs wrapped for it; other commands run
# under the one cli.main span
WRAPPED = {
    "fit": (("cli", "fit"), ("mle", "spectral_tables"), ("mle", "choose_grid")),
    "risk": (("cli", "density_table"), ("cli", "avar")),
    "pdf": (("cli", "density_table"),),
}


class Tracer:
    """Spans kept in memory: [name, start, end, parent index or -1]."""

    def __init__(self) -> None:
        self.spans: list = []
        self.calls: dict = {}
        self._stack: list = []

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, module, attr: str, label: str) -> None:
        inner = getattr(module, attr)
        self.calls[label] = 0

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            self.calls[label] += 1
            name = label
            if attr == "spectral_tables":
                order = kwargs.get("order", args[2] if len(args) > 2 else 0)
                name = f"{label}.o{order}"
            return self.span(name, inner, *args, **kwargs)

        setattr(module, attr, wrapper)

    def uncalled(self) -> list:
        return sorted(k for k, n in self.calls.items() if n == 0)


def main(argv) -> int:
    spans_path, args = argv[0], argv[1:]
    sys.path.insert(0, str(SRC))
    import gtsfit.cli
    import gtsfit.mle

    modules = {"cli": gtsfit.cli, "mle": gtsfit.mle}
    tracer = Tracer()
    for mod, attr in WRAPPED.get(args[0], ()):
        tracer.wrap(modules[mod], attr, f"{mod}.{attr}")
    code = tracer.span("cli.main", gtsfit.cli.main, args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "calls": tracer.calls}, fh)
    missing = tracer.uncalled()
    if missing:
        print(f"trace: wrapped names never called: {', '.join(missing)}", file=sys.stderr)
        return EXIT_UNCALLED
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
