#!/usr/bin/env bash
# noc_verify --case I replays case I of a --fuzz / --fault-fuzz batch on
# its own: its result JSON and its report lines equal those of the I-th
# case of the whole batch.
#
#   tests/noc_verify_case_test.sh NOC_VERIFY WORK_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 NOC_VERIFY WORK_DIR" >&2
  exit 2
fi
noc_verify="$(realpath "$1")"
work="$2"
mkdir -p "$work"
cd "$work"

# Prints document k (0-based) of a JSON array of top-level objects, as
# noc_verify -o writes several workloads, without the separating comma.
nth_document() {
  awk -v k="$1" '
    $0 == "{" { n++ }
    n == k + 1 { print ($0 == "},") ? "}" : $0 }
    n == k + 1 && ($0 == "}" || $0 == "},") { exit }
  ' "$2"
}

failures=0
check() {
  local batch_flag="$1" size="$2" index="$3" name="$4"
  "$noc_verify" "$batch_flag" "$size" --seed 2 -o batch.json > batch.out
  "$noc_verify" "$batch_flag" "$size" --seed 2 --case "$index" \
    -o case.json > case.out
  if ! cmp -s <(nth_document "$index" batch.json) case.json; then
    echo "FAIL: $batch_flag $size --case $index: result JSON differs" >&2
    failures=$((failures + 1))
  fi
  local pattern="^PASS $name ("
  if [[ "$(grep -c "$pattern" case.out)" -ne 2 ]] ||
     ! cmp -s <(grep "$pattern" batch.out) <(grep "$pattern" case.out); then
    echo "FAIL: $batch_flag $size --case $index: report lines differ" >&2
    failures=$((failures + 1))
  fi
  if [[ "$(grep -c '^PASS ' case.out)" -ne 2 ]]; then
    echo "FAIL: $batch_flag $size --case $index ran other cases" >&2
    failures=$((failures + 1))
  fi
}

check --fuzz 4 2 fuzz2
check --fault-fuzz 3 1 faultfuzz1

if [[ $failures -ne 0 ]]; then
  exit 1
fi
echo "noc_verify --case: each replayed case equals its batch entry"
