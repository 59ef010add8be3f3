#!/usr/bin/env bash
# Byte-for-byte check of the deterministic program outputs: the stdout of
# the E2/E5/E8 benches and of four examples, and the VCD switch_coverify
# writes at 8 cells per source.  A kernel, sync or model change that alters
# a verdict, a table or a waveform fails here.
#
#   tests/golden/check_golden.sh <golden-dir> <work-dir> <name>=<binary>...
#
# Each <name>=<binary> runs the binary without arguments and compares its
# stdout with <golden-dir>/<name>.out.  The name switch_coverify instead runs
# `<binary> 8 --vcd <work-dir>/switch_coverify_8.vcd` and compares the VCD
# with <golden-dir>/switch_coverify_8.vcd.  The script only compares: to
# re-record a golden after a change that is meant, run the binary by hand
# with its stdout (or VCD) written to the golden file.
set -uo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <golden-dir> <work-dir> <name>=<binary>..." >&2
  exit 2
fi
golden=$1
work=$2
shift 2
mkdir -p "$work"

failed=0
for spec in "$@"; do
  name=${spec%%=*}
  bin=${spec#*=}
  if [[ $name == switch_coverify ]]; then
    out=$work/switch_coverify_8.vcd
    want=$golden/switch_coverify_8.vcd
    "$bin" 8 --vcd "$out" >/dev/null
  else
    out=$work/$name.out
    want=$golden/$name.out
    "$bin" >"$out"
  fi
  rc=$?
  if [[ $rc -ne 0 ]]; then
    echo "FAIL $name: exit status $rc"
    failed=1
  elif ! diff -u "$want" "$out"; then
    echo "FAIL $name: output differs from $want"
    failed=1
  else
    echo "ok   $name"
  fi
done
exit $failed
