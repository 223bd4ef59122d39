#!/usr/bin/env bash
# The --sampling default that `pepsim workload --help` prints must be
# accepted back by the same option.
#
#   bash test/cli_sampling_default.sh PATH/TO/pepsim.exe
set -euo pipefail
pepsim=$1
default=$("$pepsim" workload --help=plain |
  sed -n 's/.*--sampling=SPEC (absent=\(.*\))$/\1/p')
test -n "$default"
"$pepsim" workload db --size 5 --sampling "$default" >/dev/null
