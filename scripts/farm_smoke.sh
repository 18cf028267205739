#!/usr/bin/env bash
# Farm smoke test: boot a coordinator and two workers, hard-kill the first
# worker mid-point, let the second — a `sweep -connect` — steal the lease
# and resume from the migrated checkpoint, then require the farm's manifest
# and the finisher's CSV to be bit-identical to a plain serial `sweep` of
# the same spec.
#
# Usage: scripts/farm_smoke.sh [scratch-dir]
#
# Run from the repository root. Exits non-zero on any divergence.
set -euo pipefail

cd "$(dirname "$0")/.."
scratch="${1:-$(mktemp -d)}"
mkdir -p "$scratch"
echo "farm-smoke: scratch dir $scratch"

bin="$scratch/bin"
mkdir -p "$bin"
go build -o "$bin" ./cmd/campaignd ./cmd/campaign-worker ./cmd/sweep
go build -o "$bin" ./scripts/manifestdiff

cat > "$scratch/spec.json" <<'EOF'
{
  "vary": "rate",
  "values": ["0.5", "2.0"],
  "k": 4,
  "n": 2,
  "warmup_cycles": 200,
  "measure_cycles": 800,
  "drain_cycles": 300,
  "checkpoint_every": 150,
  "point_retries": 3
}
EOF

cleanup() {
  [ -n "${coord_pid:-}" ] && kill "$coord_pid" 2>/dev/null || true
}
trap cleanup EXIT

# Coordinator: short lease TTL so the stolen point migrates quickly.
"$bin/campaignd" -addr 127.0.0.1:0 -dir "$scratch/farm" \
  -spec "$scratch/spec.json" -lease-ttl 2s -exit-when-done \
  >"$scratch/campaign.id" 2>"$scratch/campaignd.log" &
coord_pid=$!

# Wait for the bound address to appear in the log.
url=""
for _ in $(seq 1 100); do
  url="$(sed -n 's#.*serving on \(http://[0-9.:]*\).*#\1#p' "$scratch/campaignd.log" | head -1)"
  [ -n "$url" ] && break
  kill -0 "$coord_pid" 2>/dev/null || { cat "$scratch/campaignd.log" >&2; echo "farm-smoke: campaignd died" >&2; exit 1; }
  sleep 0.1
done
[ -n "$url" ] || { echo "farm-smoke: campaignd never bound" >&2; exit 1; }
id="$(cat "$scratch/campaign.id")"
echo "farm-smoke: campaign $id on $url"

# Worker 1 chaos-dies after its first checkpoint upload (exit code 3),
# leaving its lease to expire — the forced kill.
set +e
"$bin/campaign-worker" -connect "$url" -name smoke-chaos \
  -chaos-kill-after-uploads 1 2>"$scratch/worker1.log"
rc=$?
set -e
if [ "$rc" -ne 3 ]; then
  cat "$scratch/worker1.log" >&2
  echo "farm-smoke: chaos worker exited $rc, want 3" >&2
  exit 1
fi
echo "farm-smoke: worker 1 chaos-killed mid-point"

# The finisher is a sweep run against the coordinator: its flags build the
# same spec, so it resumes the farm's campaign rather than creating one,
# steals the orphaned point, resumes its checkpoint, drains the campaign and
# prints the CSV.
"$bin/sweep" -connect "$url" -vary rate -values 0.5,2.0 -k 4 -n 2 \
  -warmup 200 -measure 800 -drain 300 -checkpoint-every 150 -point-retries 3 \
  >"$scratch/farm.csv" 2>"$scratch/worker2.log"
grep -q "campaign $id resumed" "$scratch/worker2.log" \
  || { echo "farm-smoke: sweep -connect did not resume campaign $id" >&2; cat "$scratch/worker2.log" >&2; exit 1; }
echo "farm-smoke: sweep -connect drained the campaign"

# The coordinator exits 0 only if every point completed.
wait "$coord_pid"
coord_pid=""

# Serial reference: the same sweep, coordinator and worker in one process.
# It journals under serial/<its own id>/ (its robustness knobs differ from
# the farm spec's, so the ids do).
"$bin/sweep" -vary rate -values 0.5,2.0 -k 4 -n 2 \
  -warmup 200 -measure 800 -drain 300 \
  -out "$scratch/serial" >"$scratch/serial.csv"

# Results must be bit-identical, in the manifests and in the CSVs, and at
# least one farm point must have resumed from a migrated checkpoint (proof
# the kill hit the real path).
"$bin/manifestdiff" -require-resume "$scratch/farm/$id" "$scratch"/serial/*/
diff "$scratch/farm.csv" "$scratch/serial.csv"
grep -q 'resumed from migrated checkpoint\|resuming from migrated checkpoint' "$scratch/worker2.log" \
  || { echo "farm-smoke: the finisher never logged a checkpoint resume" >&2; cat "$scratch/worker2.log" >&2; exit 1; }

echo "farm-smoke: PASS (results bit-identical to serial, migration exercised)"
