#!/usr/bin/env bash
# Replays the --fault-fuzz cases in which a best-effort flit survives with
# a flipped payload bit after the flits ahead of it in its queue were
# dropped. The monitor matches the survivor by the identity its NI
# stamped, counts the flits ahead of it lost, and its payload as
# fault-induced corruption because the injector marked the flip
# (DESIGN §12.3); every case passes on both engines. The cases are kept
# as regression inputs: each once failed as unexplained.
#
#   tests/noc_verify_fault_replay_test.sh NOC_VERIFY
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 NOC_VERIFY" >&2
  exit 2
fi
noc_verify="$1"

failures=0
# replay SEED BATCH CASE
replay() {
  local seed="$1" batch="$2" index="$3" out status=0
  out="$("$noc_verify" --engine all --fault-fuzz "$batch" --case "$index" \
           --seed "$seed" 2>&1)" || status=$?
  if [[ $status -ne 0 ]] ||
     [[ "$(grep -c "^PASS faultfuzz$index (" <<< "$out")" -ne 2 ]]; then
    echo "FAIL: --fault-fuzz $batch --case $index --seed $seed" \
         "(exit $status)" >&2
    grep -v '^PASS ' <<< "$out" >&2 || true
    failures=$((failures + 1))
  fi
}

replay 1 1022 1021
replay 4 1000 191
replay 5 1000 399
replay 5 1000 951
replay 7 1000 132
replay 7 1000 457
replay 8 1000 401
replay 10 1000 586

if [[ $failures -ne 0 ]]; then
  exit 1
fi
echo "noc_verify: every replayed corrupted-survivor case passes"
