#!/usr/bin/env bash
# Run the hot-path benchmark harness and assemble its CRITERION_JSON
# lines into a machine-readable snapshot (BENCH_1.json at the repo root).
#
# Usage: scripts/bench_snapshot.sh [output.json]
#
# Each benchmark id has the form <op>/new/<elements>, where `new` is the
# current library path (see benches/hotpath.rs). The snapshot records one
# entry per (op, elements) pair; scripts/bench_gate.py compares the `new`
# medians of two snapshots.
set -euo pipefail

cd "$(dirname "$0")/.."
out="${1:-BENCH_1.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

cargo bench --bench hotpath 2>&1 | tee /dev/stderr | grep '^CRITERION_JSON ' > "$raw"

python3 - "$raw" "$out" <<'EOF'
import json, platform, os, subprocess, sys

raw_path, out_path = sys.argv[1], sys.argv[2]
rows = []
with open(raw_path) as f:
    for line in f:
        rows.append(json.loads(line.split(None, 1)[1]))

benches = []
for r in rows:
    op, variant, elems = r["id"].split("/")
    benches.append(
        {
            "op": op,
            "elements": int(elems),
            variant: {
                "median_ns": r["median_ns"],
                "min_ns": r["min_ns"],
                "max_ns": r["max_ns"],
                "elem_per_sec": r.get("elem_per_sec"),
            },
        }
    )
benches.sort(key=lambda b: (b["op"], b["elements"]))

try:
    rustc = subprocess.run(
        ["rustc", "--version"], capture_output=True, text=True, check=True
    ).stdout.strip()
except Exception:
    rustc = "unknown"

snapshot = {
    "harness": "benches/hotpath.rs",
    "host": {
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "rustc": rustc,
    },
    "benches": benches,
}
with open(out_path, "w") as f:
    json.dump(snapshot, f, indent=2)
    f.write("\n")
print(f"wrote {out_path} ({len(benches)} benches)")
EOF
