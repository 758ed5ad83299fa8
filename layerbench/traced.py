"""Run one ``repro`` command with the layer ledger's wrappers installed.

    python3 layerbench/traced.py RECORDS_DIR serve --port 0 --spool DIR
    python3 layerbench/traced.py RECORDS_DIR analyze TRACE --json

The command runs in this process through ``repro``'s own CLI entry
point, so the daemon is built exactly the way ``repro serve`` builds it;
the wrappers go in before its pool forks the analysis workers.  Records
land in ``RECORDS_DIR`` (see :mod:`layers`).  The exit code is the
command's own.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv: list) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import layers
    from repro.__main__ import main as repro_main

    ledger = layers.install(argv[0])
    try:
        return repro_main(argv[1:])
    finally:
        ledger.flush()
        ledger.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
