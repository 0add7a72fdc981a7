"""Run one owlink CLI command in this process and record how it ran.

Usage: python3 perfbench/child.py RECORD_DIR TRACE -- OWLINK_ARGS...

With TRACE=0 only the input loaders and the calls that mark the first unit
of work (spans.LOADERS and spans.WORK, up to about a thousand calls of
half a millisecond or more each) get spans, which gives setup_s; no counter runs
and no object is kept. With TRACE=1 every public function in spans.TRACED
is wrapped and its counters are read. The command's exit code is this
process's exit code; spans go to RECORD_DIR/spans.npz and the rest to
RECORD_DIR/record.json, both tagged with the run id (pass and command).
"""

from __future__ import annotations

import json
import logging
import resource
import sys
import time
from pathlib import Path


class _DuplicateCounter(logging.Handler):
    """Reads the duplicate count from graph's 'dropped N duplicate triples' warning."""

    def __init__(self, rec) -> None:
        super().__init__(logging.WARNING)
        self.rec = rec

    def emit(self, record: logging.LogRecord) -> None:
        if "duplicate triples" in record.msg:
            self.rec.count("graph.duplicates_dropped", record.args[1])


def _peak_rss_kb() -> int:
    """This process's own peak RSS. ru_maxrss also counts the parent's RSS at
    fork time, which survives exec; VmHWM covers only the exec'ed image."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    record_dir = Path(sys.argv[1])
    traced = sys.argv[2] == "1"
    if sys.argv[3] != "--":
        raise SystemExit("usage: child.py RECORD_DIR TRACE -- OWLINK_ARGS...")
    argv = sys.argv[4:]

    start = time.perf_counter()
    import owlink.cli as cli
    import_ms = 1e3 * (time.perf_counter() - start)

    import numpy as np
    import spans

    rec = spans.Recorder()
    rec.install(spans.TRACED if traced else spans.LOADERS + spans.WORK, with_counters=traced)
    if traced:
        for name, fn in list(cli.COMMANDS.items()):
            cli.COMMANDS[name] = rec.span(f"cli.{name}", fn)
        logging.getLogger("owlink.graph").addHandler(_DuplicateCounter(rec))
    rc = rec.span("cli.main", cli.main)(argv)
    if traced:
        spans.finish_counters(rec)

    run_id = f"{record_dir.parent.parent.name}/{record_dir.name}"  # pass and command
    np.savez(record_dir / "spans.npz", run_id=np.asarray(run_id), **rec.arrays())
    record = {
        "run_id": run_id,
        "rc": rc,
        "import_ms": import_ms,
        "maxrss_kb": _peak_rss_kb(),
        "names": rec.names,
        "counters": rec.counters,
    }
    (record_dir / "record.json").write_text(json.dumps(record), encoding="utf-8")
    return rc


if __name__ == "__main__":
    sys.exit(main())
