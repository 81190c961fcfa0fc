#!/usr/bin/env python3
"""Exact work-counter gate for the bench route rows.

Routes and their work counters are deterministic and independent of the
machine, so every route row of a fresh capture (`mbfs_route` from
bench_mbfs; `engine_compare` and `memory` from bench_scaling) must
reproduce the committed datapoint exactly. For each row kind the
baseline is the last label, in file order, of the committed file's rows
of that kind: a change that moves a counter on purpose commits its new
rows with it. Wall, RSS, grid and visited-set bytes are not compared.

Prints a markdown report and exits 1 on any mismatch, on a capture row
without a committed counterpart, or on a capture with no route rows.

Usage: python3 scripts/bench_counter_gate.py COMMITTED.json CAPTURE.json
"""

import json
import sys

FIELDS = ['routed_nets', 'vertices', 'mbfs_crossings', 'dup_points_tested',
          'mbfs_passes_proven', 'mbfs_vertices_proven',
          'candidates_evaluated', 'batches', 'boundary_nets',
          'sharded_wasted_vertices']

# Each route row kind and the fields that identify a row within a label.
KEYS = {
    'mbfs_route': ('instance', 'mode', 'threads'),
    'engine_compare': ('mode', 'threads'),
    'memory': ('instance', 'mode'),
}


def rows_by_key(rows, kind):
    return {tuple(r.get(k) for k in KEYS[kind]): r
            for r in rows if r.get('kind') == kind}


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[-1])
        return 2
    committed = json.load(open(sys.argv[1]))
    capture = json.load(open(sys.argv[2]))
    checked = 0
    mismatches = 0
    for kind, key_fields in KEYS.items():
        cur = rows_by_key(capture, kind)
        if not cur:
            continue
        labels = [r.get('label') for r in committed if r.get('kind') == kind]
        label = labels[-1] if labels else None
        base = rows_by_key((r for r in committed if r.get('label') == label),
                           kind)
        print(f"## `{kind}` work counters vs committed `{label}` (exact)")
        print()
        print(f"| {' | '.join(key_fields)} | Field | Committed | Current |")
        print('|---' * (len(key_fields) + 3) + '|')
        for key, row in sorted(cur.items(), key=lambda kv: str(kv[0])):
            ref = base.get(key, {})
            for field in FIELDS:
                if ref.get(field) != row.get(field):
                    mismatches += 1
                    print(f"| {' | '.join(map(str, key))} | {field} |"
                          f" {ref.get(field)} | {row.get(field)} |")
        checked += len(cur)
        print()
    if not checked or mismatches:
        print(f"> **FAIL:** {mismatches} counter mismatch(es) across"
              f" {checked} route row(s).")
        return 1
    print(f"All {checked} route rows match exactly.")
    return 0


if __name__ == '__main__':
    sys.exit(main())
