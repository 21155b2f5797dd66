"""Set-up probe: time importing ``specjac.cli`` and resolving one command's
config in this fresh interpreter, which is what a user pays before any work.

Usage: python3 benchmarks/setup_probe.py CLI-ARGV...
Prints {"setup_s": scaled seconds, "raw_s": seconds} as its only line.

The import time is divided by the speed ``speed.python_work`` measures
(see speed.py), the median of two runs just before and two just after the
import.  The calibration cannot use numpy: importing numpy is part of what
is measured.
"""

import os
import sys
import time

from speed import python_work

python_work()
before = [python_work(), python_work()]
started = time.perf_counter()
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)
import specjac.cli as cli  # noqa: E402

cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:]))
elapsed = time.perf_counter() - started
after = [python_work(), python_work()]

import json  # noqa: E402

if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "specjac"):
    sys.exit(f"specjac imported from {cli.__file__}, not from {SRC}")
# median of four; statistics is not imported, so that the import measured
# finds no module loaded that it would otherwise load itself
middle = sorted(before + after)[1:3]
speed = (middle[0] + middle[1]) / 2
print(json.dumps({"setup_s": elapsed / speed, "raw_s": elapsed}))
