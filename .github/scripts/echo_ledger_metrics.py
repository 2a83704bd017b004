"""Echo named metrics from one perf-ledger result line, and gate it.

Usage: ``python3 .github/scripts/echo_ledger_metrics.py RESULT.json NAME...``
where ``RESULT.json`` holds the last line ``benchmarks/ledger/run.py``
prints.  Each named metric is printed with its unit, then the answer
counts.  Exits non-zero when any answer was wrong or any operation
failed; the timings themselves are not gated.
"""

import json
import sys

with open(sys.argv[1]) as result:
    line = json.load(result)
for name in sys.argv[2:]:
    metric = line["metrics"][name]
    print(f"{name:28s} {metric['value']:12.2f} {metric['unit']}")
print("correct", line["correct"], "attempted", line["attempted"],
      "failed", line["failed"])
raise SystemExit(not line["correct"] or line["failed"] > 0)
