#!/usr/bin/env bash
# Two-set agreement: runs every workload twice over (the second set with
# other seeds) on the same build and prints, per metric and workload, how
# far the sets' medians differ next to the metric's bound. Exits non-zero
# if a gated metric disagrees by more than its bound.
#
#   benchmark/agree.sh [--runs R] [--seed N]   R runs per set (default 3)
#   benchmark/agree.sh --quick                 2 s per workload, not gated
set -euo pipefail
exec "$(dirname "${BASH_SOURCE[0]}")/run.sh" --agree "$@"
