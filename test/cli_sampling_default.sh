#!/usr/bin/env bash
# Every subcommand that shows a --sampling default in its --help must
# accept that default back, run at a tiny size.
#
#   bash test/cli_sampling_default.sh PATH/TO/pepsim.exe
set -euo pipefail
pepsim=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
echo 'program demo { method main() { s = 0; for (n = 1; n < 20) { s = s + n; } return s; } }' \
  >"$tmp/demo.pep"

check() {
  local cmd=$1
  shift
  local default
  # shellcheck disable=SC2086
  default=$("$pepsim" $cmd --help=plain |
    sed -n 's/.*--sampling=SPEC (absent=\(.*\))$/\1/p')
  if [ -z "$default" ]; then
    echo "pepsim $cmd --help shows no --sampling default" >&2
    exit 1
  fi
  # shellcheck disable=SC2086
  "$pepsim" $cmd "$@" --sampling "$default" >/dev/null ||
    { echo "pepsim $cmd rejected its own --sampling default $default" >&2; exit 1; }
}

check run "$tmp/demo.pep"
check workload db --size 5
check profiles db --size 5
check trace db --size 5 --iters 1 --out "$tmp/trace.json"
check top db --size 5 --iters 1
check check db --scale 0.02
check "gen run" gen:size=2 --size 2
check "fleet run" --dir "$tmp/fleet" --size 5 --instances 1 --windows 1
