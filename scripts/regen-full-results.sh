#!/usr/bin/env bash
# Rebuild full_results.txt: every experiment at --profile full, two worker
# processes, no cell cache.  Each experiment's "[<id> took Ns; cells: ...]"
# summary line loses its wall time, so a rebuild diffs byte for byte
# against the committed file:
#
#   scripts/regen-full-results.sh && git diff --exit-code full_results.txt
#
# 11 minutes on a 2-vCPU machine shared with other jobs.
set -euo pipefail
cd "$(dirname "$0")/.."
PYTHONPATH=src python3 -m repro.experiments.cli run all --profile full \
    --jobs 2 --no-cache \
  | sed -E 's/^\[([^ ]+) took [0-9.]+s; /[\1; /' > full_results.txt.tmp
mv full_results.txt.tmp full_results.txt
