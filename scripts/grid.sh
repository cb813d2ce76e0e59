#!/bin/sh
# Discount x reward-noise sweep with ddpg/rmaddpg overlays per cell.
# At the default desk scale, meaningful noise levels are a few reward units
# (the token `probe`, see `grid` in README); pass larger ones to stress harder.
set -e
cd "$(dirname "$0")/.."
CFG=${1:-scripts/desk.json}
python3 -m mecrl grid --config "$CFG" --gamma 0.95,0.99 --noise 2,5
