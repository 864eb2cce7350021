#!/usr/bin/env python3
"""Usage: scripts/check_gates.py REPORT.json [...]

Gate check for the live benches' BENCH_*.json reports (src/loadgen/experiment.h):
exits 1, naming each problem on stderr, unless every report parses and every gate
its params.gates lists reads true. Prints one `metric = value unit` line per report.
"""
import json
import sys

failed = False
for path in sys.argv[1:]:
    try:
        with open(path) as f:
            report = json.load(f)
        params = report["params"]
        false_gates = [gate for gate in params["gates"] if params.get(gate) is not True]
    except (OSError, ValueError, KeyError, TypeError) as err:
        print(f"check_gates: {path}: unreadable report ({err!r})", file=sys.stderr)
        failed = True
        continue
    for gate in false_gates:
        print(f"check_gates: {path}: gate {gate} is not true", file=sys.stderr)
    failed = failed or bool(false_gates)
    print(f"   {report['metric']} = {report['value']} {report['unit']}  -> {path}")
sys.exit(1 if failed else 0)
