"""Cold-start launcher: one fresh interpreter runs one ``metadiv`` CLI command.

    python3 cli_child.py --report PATH [--fake-sparql ANSWERS.json] -- <metadiv arguments>

The host speed is measured before anything else is imported and again after
the command; the report file receives the mean speed, the seconds spent
measuring and, with ``--fake-sparql`` (the ``lod`` command then talks to the
benchmark's fake endpoints instead of the network), the seconds spent in
their modelled round trips.  The exit code is the CLI's.
"""

import json
import sys

import calibrate


def main(argv: list[str]) -> int:
    speed_start, spent_start = calibrate.measure()
    split = argv.index("--")
    options = dict(zip(argv[:split:2], argv[1:split:2]))
    from metadiv.cli import main as cli_main

    transport = None
    if "--fake-sparql" in options:
        from fake_sparql import FakeSparql

        transport = FakeSparql.from_file(options["--fake-sparql"])
    code = cli_main(argv[split + 1:], transport=transport)
    speed_end, spent_end = calibrate.measure()
    with open(options["--report"], "w", encoding="utf-8") as f:
        json.dump({"speed": (speed_start + speed_end) / 2.0,
                   "calibration_s": spent_start + spent_end,
                   "wait_s": transport.slept_s if transport is not None else 0.0}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
