#!/usr/bin/env bash
# The CLI's --stop-after at W = 4: a kill point between N/4 and N stream
# positions stops the sharded run (each shard holds only about N/4 of
# the edges, so a per-shard count would never reach it), and --resume
# from the one sidecar prints the unkilled run's result lines.
#
# Usage: cli_kill_switch_test.sh path/to/setcover_cli
set -euo pipefail
cli=$1
work=$(mktemp -d "${TMPDIR:-/tmp}/cli_kill_switch.XXXXXX")
trap 'rm -rf "$work"' EXIT

"$cli" generate --family=planted --n=512 --m=8192 --opt=4 \
  --out="$work/i.txt" >/dev/null
"$cli" stream --instance="$work/i.txt" --order=random \
  --out="$work/s.bin" >/dev/null

for algorithm in kk adversarial-level random-order; do
  full=$("$cli" solve-stream --stream="$work/s.bin" --algorithm="$algorithm" \
    --seed=9 --shards=4)
  edges=$(sed -n 's/^shard edges: *//p' <<<"$full" | tr -c '0-9\n' ' ' |
    awk '{ for (i = 1; i <= NF; ++i) sum += $i } END { print sum }')
  if [[ -z "$edges" || "$edges" -lt 100 ]]; then
    echo "$algorithm: could not read the stream length from:"
    echo "$full"
    exit 1
  fi
  stop=$((edges * 3 / 4))
  rm -f "$work/c.sckp"
  killed=$("$cli" solve-stream --stream="$work/s.bin" --algorithm="$algorithm" \
    --seed=9 --shards=4 --checkpoint="$work/c.sckp" --checkpoint-every=500 \
    --stop-after="$stop")
  if ! grep -q "^stopped: *after $stop edges" <<<"$killed"; then
    echo "$algorithm: --stop-after=$stop of $edges did not stop the W = 4 run:"
    echo "$killed"
    exit 1
  fi
  resumed=$("$cli" solve-stream --stream="$work/s.bin" --algorithm="$algorithm" \
    --seed=9 --shards=4 --checkpoint="$work/c.sckp" --checkpoint-every=500 \
    --resume)
  for field in "cover size" "witnessed" "shard edges" "merge msg"; do
    want=$(grep "^$field:" <<<"$full")
    got=$(grep "^$field:" <<<"$resumed")
    if [[ "$want" != "$got" ]]; then
      echo "$algorithm: resumed '$got', unkilled '$want'"
      exit 1
    fi
  done
done
echo "OK: --stop-after stops W = 4 runs at one stream prefix"
